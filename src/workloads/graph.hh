/**
 * @file
 * Synthetic graphs for the graph500 and GAPBS workload surrogates.
 *
 * Three families mirror the paper's inputs (Table 5):
 *  - "twitter": scale-free (power-law degrees, hub-biased endpoints) —
 *    low locality, misses concentrated on the hub portion of the CSR;
 *  - "web": power-law with community locality — endpoints near the
 *    source vertex;
 *  - "road": bounded-degree grid — high diameter, strong locality.
 *
 * Vertex degrees are materialized; edge endpoints are *derived*
 * deterministically from (seed, u, i) so multi-million-edge graphs need
 * no edge storage. The CSR layout (offsets + adjacency array) is still
 * laid out in simulated memory so traversals touch realistic addresses.
 */

#ifndef MOSAIC_WORKLOADS_GRAPH_HH
#define MOSAIC_WORKLOADS_GRAPH_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/random.hh"
#include "support/types.hh"

namespace mosaic::workloads
{

/** Graph family. */
enum class GraphKind
{
    Twitter, ///< scale-free, global hubs
    Web,     ///< power-law with community locality
    Road,    ///< 2D grid
};

/** Generation parameters. */
struct GraphParams
{
    GraphKind kind = GraphKind::Twitter;
    std::uint64_t numVertices = 1u << 20;
    double avgDegree = 16.0;

    /** Degree-distribution tail exponent (power-law kinds). */
    double degreeAlpha = 1.8;

    std::uint64_t seed = 0x94b5;
};

/**
 * Degree-materialized synthetic graph with derived endpoints.
 */
class SyntheticGraph
{
  public:
    explicit SyntheticGraph(const GraphParams &params);

    std::uint64_t numVertices() const { return params_.numVertices; }
    std::uint64_t numEdges() const { return numEdges_; }
    const GraphParams &params() const { return params_; }

    /** Out-degree of vertex @p u. */
    std::uint32_t
    degree(std::uint64_t u) const
    {
        return degrees_[u];
    }

    /** CSR offset of vertex @p u's adjacency run. */
    std::uint64_t
    offset(std::uint64_t u) const
    {
        return offsets_[u];
    }

    /**
     * The @p i-th out-neighbor of @p u, derived deterministically.
     * Guaranteed in [0, numVertices).
     */
    std::uint64_t neighbor(std::uint64_t u, std::uint32_t i) const;

    /** Bytes of the CSR offsets array (8 bytes per vertex + 1). */
    Bytes
    offsetsBytes() const
    {
        return (params_.numVertices + 1) * 8;
    }

    /** Bytes of the CSR adjacency array (8 bytes per edge). */
    Bytes
    adjacencyBytes() const
    {
        return numEdges_ * 8;
    }

    /** Graphs built so far in this process, by any thread: how a test
     *  checks that preparing a workload builds exactly one. */
    static std::uint64_t built();

  private:
    GraphParams params_;
    std::vector<std::uint32_t> degrees_;
    std::vector<std::uint64_t> offsets_; ///< prefix sums, V+1 entries
    std::uint64_t numEdges_ = 0;
    std::uint64_t gridWidth_ = 0; ///< road graphs
};

/**
 * A graph workload's pool size, worked out once per workload object
 * and safe to read from any thread. The first caller's @p size runs:
 * generateTrace() reads the size off the graph it has already built,
 * any other caller builds one. Every later call reuses the size, so
 * preparing a workload builds one graph however often a campaign asks
 * for the pool size.
 */
class PoolSizeMemo
{
  public:
    template <typename Size>
    Bytes
    get(Size &&size) const
    {
        std::call_once(once_, [&] { bytes_ = size(); });
        return bytes_;
    }

  private:
    mutable std::once_flag once_;
    mutable Bytes bytes_ = 0;
};

/** Named presets for the paper's graph inputs. */
GraphParams twitterGraph(std::uint64_t vertices = 1u << 20);
GraphParams webGraph(std::uint64_t vertices = 1u << 20);
GraphParams roadGraph(std::uint64_t vertices = 1u << 22);

} // namespace mosaic::workloads

#endif // MOSAIC_WORKLOADS_GRAPH_HH
