/**
 * @file
 * The daemon's resident prediction state: fitted Mosmodel surfaces per
 * (platform, workload) pair, decoded traces, and the cold-path fallback
 * that simulates an unknown pair on demand and caches it.
 *
 * Warm path: the pair's SampleSet is resident (loaded from a campaign
 * CSV at startup or produced by an earlier cold simulation); the
 * requested model is fitted lazily once per (pair, model) and predicts
 * in microseconds. Cold path: the full campaign layout grid is replayed
 * one layout after another on the querying worker, bounded by the
 * query's cooperative SimContext deadline; concurrent cold
 * queries for the same pair deduplicate into one simulation
 * (single-flight), with followers waiting — also deadline-bounded — for
 * the leader's result.
 *
 * With Options::coldSampling enabled (--cold-sampled), the cold path
 * trades the full replay for interval-sampled replay: one sample
 * plan is built per trace and every layout replays only the plan's
 * representative segments, extrapolating the full-run counters. Cold
 * pairs then become resident in seconds instead of minutes, at the
 * plan's documented error bound.
 */

#ifndef MOSAIC_SERVE_MODEL_REGISTRY_HH
#define MOSAIC_SERVE_MODEL_REGISTRY_HH

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/runtime_model.hh"
#include "sampling/sample_plan.hh"
#include "serve/protocol.hh"
#include "support/error.hh"
#include "support/sim_context.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace mosaic::serve
{

/** One answered prediction. */
struct Prediction
{
    double predictedCycles = 0.0;
    std::string model;

    /** This query triggered (or waited on) an on-demand simulation. */
    bool cold = false;

    /** layout= queries also return the measured runtime of that run. */
    bool hasMeasured = false;
    double measuredCycles = 0.0;
};

/**
 * Thread-safe registry of fitted surfaces. All public methods may be
 * called concurrently from the server's workers; metrics publish into
 * the per-call SimContext's sink.
 */
class ModelRegistry
{
  public:
    struct Options
    {
        /** Columnar trace-store cache dir ("" = generate in memory). */
        std::string traceCacheDir;

        /** Include the all-1GB reference lane in cold simulations. */
        bool include1g = true;

        /** Layout-derivation seed; must match the campaign's. */
        std::uint64_t seed = 0x9a4d;

        /** Refuse cold simulations (serve only what was loaded). */
        bool allowCold = true;

        /**
         * Interval-sampled cold simulations: when enabled, cold pairs
         * replay one plan-selected representative segment set per
         * layout instead of the full grid. The surfaces they
         * produce are estimates (within the plan's error bound), not
         * bit-identical to a full campaign.
         */
        sampling::SamplingConfig coldSampling;

        /** Workload construction seam (tests); default: registry. */
        std::function<std::unique_ptr<workloads::Workload>(
            const std::string &)>
            workloadFactory;
    };

    explicit ModelRegistry(Options options);

    /**
     * Load every complete (platform, workload) pair of a campaign CSV
     * into the resident surface cache. Pairs missing a uniform
     * reference run (all-4KB / all-2MB) are skipped and counted in
     * the "serve/pairs_skipped" counter of the global registry.
     * @return the number of pairs now resident.
     */
    Result<std::size_t> loadDataset(const std::string &path);

    /**
     * Answer one PREDICT query. Warm pairs predict from the resident
     * fitted model; cold pairs simulate first (single-flight dedup),
     * honoring @p context's cooperative deadline, then predict.
     * Unknown platforms, workloads, models, and layouts are Config
     * errors; an expired deadline is a Timeout error.
     */
    Result<Prediction> predict(const PredictQuery &query,
                               const SimContext &context);

    /** Resident pair keys, "platform:workload", sorted. */
    std::vector<std::string> residentPairs() const;

    /** Model names accepted by predict(), in the paper's order. */
    static const std::vector<std::string> &modelNames();

    bool
    isResident(const std::string &platform,
               const std::string &workload) const;

    const Options &options() const { return options_; }

  private:
    using Key = std::pair<std::string, std::string>;

    struct PairEntry
    {
        models::SampleSet samples;

        std::mutex mutex; ///< guards fitted
        std::map<std::string, models::ModelPtr> fitted;
    };

    /** Single-flight ticket for one in-progress cold simulation. */
    struct ColdFlight
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        Result<void> outcome = Result<void>();
    };

    PairEntry *findPair(const Key &key) const;
    Result<Prediction> predictWarm(PairEntry &pair,
                                   const PredictQuery &query,
                                   const SimContext &context) const;
    Result<void> simulateCold(const Key &key,
                              const SimContext &context);
    Result<std::shared_ptr<const trace::MemoryTrace>>
    obtainTrace(const workloads::Workload &workload,
                const SimContext &context);

    Options options_;

    mutable std::mutex pairsMutex_;
    std::map<Key, std::unique_ptr<PairEntry>> pairs_;

    std::mutex tracesMutex_;
    std::map<std::string, std::shared_ptr<const trace::MemoryTrace>>
        traces_;

    std::mutex coldMutex_;
    std::map<Key, std::shared_ptr<ColdFlight>> inflight_;
};

} // namespace mosaic::serve

#endif // MOSAIC_SERVE_MODEL_REGISTRY_HH
