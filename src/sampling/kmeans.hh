/**
 * @file
 * Deterministic k-means for interval-signature clustering.
 *
 * The campaign's byte-determinism contract (same CSV regardless of
 * --jobs) extends to sampling, so the clustering must be
 * a pure function of its inputs: no RNG draws at run time, no
 * iteration-order dependence on hash maps or threads.
 *
 *  - Initialization is seeded farthest-point: the seed picks the
 *    first center, each subsequent center is the point farthest from
 *    its nearest existing center, ties broken toward the lowest
 *    index.
 *  - Lloyd assignment breaks distance ties toward the lowest cluster
 *    index; centroid updates iterate points in index order.
 *  - An emptied cluster is re-seeded with the point farthest from its
 *    current centroid (lowest index on ties), so K never silently
 *    shrinks.
 *  - Iteration stops at convergence (assignment fixed point) or a
 *    fixed cap, whichever first.
 */

#ifndef MOSAIC_SAMPLING_KMEANS_HH
#define MOSAIC_SAMPLING_KMEANS_HH

#include <cstdint>
#include <span>
#include <vector>

namespace mosaic::sampling
{

/** Clustering of n points into k groups. */
struct KmeansResult
{
    /** Per-point cluster index, parallel to the input points. */
    std::vector<std::uint32_t> assignment;

    /** Cluster centroids, k rows of the input dimensionality. */
    std::vector<std::vector<double>> centroids;

    /** Mean Euclidean distance of members to their centroid, per
     *  cluster (0 for singletons — the error model relies on this). */
    std::vector<double> dispersion;

    /** Lloyd iterations actually run (for observability/tests). */
    unsigned iterations = 0;
};

/** Upper bound on Lloyd iterations. */
constexpr unsigned kKmeansMaxIterations = 32;

/**
 * Cluster @p points (n rows, all of equal dimensionality) into
 * @p k groups. @p k is clamped to n; n must be >= 1. @p seed selects
 * the first farthest-point center (seed % n); everything else is
 * deterministic. Identical inputs produce identical results on every
 * platform the simulator supports (the arithmetic is straight-line
 * double sums in fixed order).
 */
KmeansResult kmeansCluster(std::span<const std::vector<double>> points,
                           std::uint32_t k, std::uint64_t seed);

} // namespace mosaic::sampling

#endif // MOSAIC_SAMPLING_KMEANS_HH
