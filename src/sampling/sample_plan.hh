/**
 * @file
 * Sampling plans: which slices of a trace to replay, and how to weight
 * them back up to a full-run estimate.
 *
 * A plan is a pure function of (trace records, SamplingConfig):
 * signatures are extracted per interval, clustered by k-means
 * (deterministic seeded init), and one representative interval per
 * cluster — the member closest to the centroid, lowest index on ties
 * — is selected for replay with a warmup prefix. Because nothing else
 * feeds the plan, every campaign worker and shard derives the
 * identical plan, which is what keeps sampled campaign CSVs
 * byte-deterministic across --jobs/--shard.
 *
 * The plan is also layout- and platform-independent (signatures read
 * only the trace), so the campaign builds it once per workload during
 * prep and reuses it for every cell of that workload.
 */

#ifndef MOSAIC_SAMPLING_SAMPLE_PLAN_HH
#define MOSAIC_SAMPLING_SAMPLE_PLAN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/core.hh"
#include "trace/interval_signature.hh"
#include "trace/trace.hh"

namespace mosaic::sampling
{

/** Replay sampling mode. */
enum class SampleMode
{
    Off,      ///< full replay (the bit-identical legacy rail)
    Interval, ///< interval-clustered representative replay
};

/** Canonical CLI/manifest name of @p mode ("off"/"interval"). */
const char *sampleModeName(SampleMode mode);

/** Parse a mode name; nullopt for anything unrecognized. */
std::optional<SampleMode> sampleModeFromName(std::string_view name);

/** Knobs of the interval-sampling pipeline. */
struct SamplingConfig
{
    SampleMode mode = SampleMode::Off;

    /** Interval length in records (the final interval may be short). */
    std::uint64_t intervalRecords = 16384;

    /** Target cluster count K (clamped to the interval count). */
    std::uint32_t clusters = 8;

    /** Warmup prefix per selected interval, in records, replayed but
     *  not measured (clamped against the preceding segment). */
    std::uint64_t warmupRecords = 4096;

    /** k-means init seed (fixed default: plans are reproducible). */
    std::uint64_t seed = 0x5A3D11E5ULL;

    bool enabled() const { return mode != SampleMode::Off; }

    /**
     * Stable tag of the sampling configuration, folded into campaign
     * partition seeds and recorded in manifests: two configs with the
     * same tag produce identical plans for identical traces.
     */
    std::string tag() const;
};

/** One interval's place in the plan. */
struct PlannedInterval
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint32_t cluster = 0;
};

/** One cluster's replay/extrapolation bookkeeping. */
struct PlannedCluster
{
    /** Index (into intervals) of the replayed representative. */
    std::uint32_t representative = 0;

    /** Members and their total record count (the extrapolation
     *  weight). */
    std::uint32_t members = 0;
    std::uint64_t memberRecords = 0;

    /** Mean feature-space distance of members to the centroid (0 for
     *  singletons); drives the reported error bound. */
    double dispersion = 0.0;
};

/** A complete sampled-replay plan for one trace. */
struct SamplePlan
{
    SamplingConfig config;
    std::uint64_t traceRecords = 0;

    std::vector<PlannedInterval> intervals;
    std::vector<PlannedCluster> clusters;

    /** Replay segments, sorted by position: one per representative,
     *  with warmup clamped so segments never overlap. Parallel to the
     *  representative order below. */
    std::vector<cpu::SampledSegment> segments;

    /** For segment i, the cluster it represents (segments are sorted
     *  by trace position, not cluster index). */
    std::vector<std::uint32_t> segmentCluster;

    /** Total records replayed (warmup + measured) vs the trace. */
    std::uint64_t recordsReplayed = 0;

    double replayFraction() const
    {
        return traceRecords
                   ? static_cast<double>(recordsReplayed) /
                         static_cast<double>(traceRecords)
                   : 0.0;
    }
};

/**
 * Build the plan for @p trace under @p config (mode must not be Off;
 * the trace must be non-empty). Deterministic: equal inputs yield
 * equal plans.
 */
SamplePlan buildSamplePlan(const trace::MemoryTrace &trace,
                           const SamplingConfig &config);

/**
 * As above from pre-extracted signatures (@p trace_records is the
 * full trace length). The two entry points produce identical plans
 * when the signatures came from the same trace and interval length.
 */
SamplePlan
buildSamplePlanFromSignatures(
    const std::vector<trace::IntervalSignature> &signatures,
    std::uint64_t trace_records, const SamplingConfig &config);

} // namespace mosaic::sampling

#endif // MOSAIC_SAMPLING_SAMPLE_PLAN_HH
