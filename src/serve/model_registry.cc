#include "serve/model_registry.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>

#include "cpu/platform.hh"
#include "cpu/system.hh"
#include "experiments/campaign.hh"
#include "experiments/dataset.hh"
#include "experiments/report.hh"
#include "layouts/heuristics.hh"
#include "sampling/sampled_run.hh"
#include "support/io_util.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "trace/miss_profile.hh"
#include "trace/trace_store.hh"
#include "workloads/registry.hh"

namespace mosaic::serve
{

namespace
{

/** Non-fatal platform lookup (platformByName aborts on unknowns). */
Result<cpu::PlatformSpec>
findPlatform(const std::string &name)
{
    for (auto &spec : cpu::allPlatforms()) {
        if (spec.name == name)
            return spec;
    }
    return configError("unknown platform '" + name + "'");
}

/**
 * Assemble the model-facing SampleSet from cold-path run results,
 * mirroring Dataset::sampleSet() exactly (the 1GB point held out as
 * the case-study test set, all-2MB standing in when 1GB is absent) so
 * a cold-simulated surface predicts identically to the same surface
 * loaded from a campaign CSV.
 */
Result<models::SampleSet>
assembleSampleSet(const std::vector<exp::RunRecord> &records,
                  const std::string &platform,
                  const std::string &workload)
{
    models::SampleSet set;
    bool got4k = false, got2m = false, got1g = false;
    for (const auto &record : records) {
        models::Sample sample = exp::toSample(record);
        if (record.layout == exp::layoutAll1g) {
            set.all1g = sample;
            got1g = true;
            continue;
        }
        set.samples.push_back(sample);
        if (record.layout == exp::layoutAll4k) {
            set.all4k = sample;
            got4k = true;
        } else if (record.layout == exp::layoutAll2m) {
            set.all2m = sample;
            got2m = true;
        }
    }
    if (!got4k || !got2m) {
        return Error(ErrorCategory::Internal,
                     "cold simulation lost a uniform reference "
                     "layout for " +
                         platform + "/" + workload);
    }
    if (!got1g)
        set.all1g = set.all2m;
    return set;
}

} // namespace

ModelRegistry::ModelRegistry(Options options)
    : options_(std::move(options))
{
    if (!options_.workloadFactory) {
        options_.workloadFactory = [](const std::string &label) {
            return workloads::makeWorkload(label);
        };
    }
}

const std::vector<std::string> &
ModelRegistry::modelNames()
{
    // The paper lineup plus the OS layer's swap-aware model: "model="
    // selection is the daemon's handle on paging-mode surfaces
    // (datasets whose rows carry the S column).
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out = exp::paperModelOrder();
        out.push_back("mosmodel-s");
        return out;
    }();
    return names;
}

Result<std::size_t>
ModelRegistry::loadDataset(const std::string &path)
{
    auto loaded = exp::Dataset::loadResult(path);
    if (!loaded.ok())
        return loaded.error().withContext("loading serve dataset");
    const exp::Dataset &dataset = loaded.value();

    std::size_t resident = 0;
    for (const auto &platform : dataset.platforms()) {
        for (const auto &workload : dataset.workloads()) {
            if (!dataset.has(platform, workload))
                continue;
            // sampleSet() asserts on a pair missing its uniform
            // references (a partial campaign); skip such pairs here
            // so one torn pair cannot keep the daemon from serving
            // the rest.
            bool got4k = false, got2m = false;
            for (const auto &record : dataset.runs(platform, workload)) {
                got4k = got4k || record.layout == exp::layoutAll4k;
                got2m = got2m || record.layout == exp::layoutAll2m;
            }
            if (!got4k || !got2m) {
                metrics().add("serve/pairs_skipped");
                mosaic_warn("serve: skipping partial pair ", platform,
                            "/", workload,
                            " (missing uniform reference runs)");
                continue;
            }
            auto entry = std::make_unique<PairEntry>();
            entry->samples = dataset.sampleSet(platform, workload);
            {
                std::lock_guard<std::mutex> lock(pairsMutex_);
                pairs_[{platform, workload}] = std::move(entry);
            }
            ++resident;
        }
    }
    return resident;
}

ModelRegistry::PairEntry *
ModelRegistry::findPair(const Key &key) const
{
    std::lock_guard<std::mutex> lock(pairsMutex_);
    auto it = pairs_.find(key);
    return it == pairs_.end() ? nullptr : it->second.get();
}

bool
ModelRegistry::isResident(const std::string &platform,
                          const std::string &workload) const
{
    return findPair({platform, workload}) != nullptr;
}

std::vector<std::string>
ModelRegistry::residentPairs() const
{
    std::lock_guard<std::mutex> lock(pairsMutex_);
    std::vector<std::string> out;
    out.reserve(pairs_.size());
    for (const auto &[key, entry] : pairs_)
        out.push_back(key.first + ":" + key.second);
    return out;
}

Result<Prediction>
ModelRegistry::predictWarm(PairEntry &pair, const PredictQuery &query,
                           const SimContext &context) const
{
    MetricsRegistry &registry = context.metrics();
    const auto &names = modelNames();
    if (std::find(names.begin(), names.end(), query.model) ==
        names.end()) {
        // makeModelByName() is fatal on unknown names; the daemon
        // must pre-validate protocol input instead of aborting.
        return configError("unknown model '" + query.model + "'");
    }

    models::Sample point;
    Prediction prediction;
    prediction.model = query.model;
    if (query.byLayout) {
        const models::SampleSet &set = pair.samples;
        const models::Sample *found = nullptr;
        for (const auto &sample : set.samples) {
            if (sample.layoutName == query.layout) {
                found = &sample;
                break;
            }
        }
        if (!found && set.all1g.layoutName == query.layout)
            found = &set.all1g;
        if (!found) {
            return configError("layout '" + query.layout +
                               "' is not in the fitted surface");
        }
        point = *found;
        prediction.hasMeasured = true;
        prediction.measuredCycles = found->r;
    } else {
        point.layoutName = "query";
        point.h = query.h;
        point.m = query.m;
        point.c = query.c;
        point.s = query.s;
    }

    double predicted = 0.0;
    {
        std::lock_guard<std::mutex> lock(pair.mutex);
        auto it = pair.fitted.find(query.model);
        if (it == pair.fitted.end()) {
            try {
                ScopedTimer fit_timer(registry, "serve/model_fit");
                auto model = exp::makeModelByName(query.model);
                model->fit(pair.samples);
                it = pair.fitted.emplace(query.model, std::move(model))
                         .first;
            } catch (const std::exception &e) {
                return numericError(std::string("fitting model '") +
                                    query.model + "' failed: " +
                                    e.what());
            }
            registry.add("serve/model_fits");
        } else {
            registry.add("serve/model_cache_hits");
        }
        try {
            predicted = it->second->predict(point);
        } catch (const std::exception &e) {
            return numericError(std::string("prediction failed: ") +
                                e.what());
        }
    }
    if (!std::isfinite(predicted)) {
        return numericError("model '" + query.model +
                            "' produced a non-finite prediction");
    }
    prediction.predictedCycles = predicted;
    return prediction;
}

Result<std::shared_ptr<const trace::MemoryTrace>>
ModelRegistry::obtainTrace(const workloads::Workload &workload,
                           const SimContext &context)
{
    const std::string label = workload.info().label();
    {
        std::lock_guard<std::mutex> lock(tracesMutex_);
        auto it = traces_.find(label);
        if (it != traces_.end()) {
            context.metrics().add("serve/trace_cache_hits");
            return it->second;
        }
    }
    context.metrics().add("serve/trace_cache_misses");

    std::string cache_path;
    if (!options_.traceCacheDir.empty()) {
        if (auto made = ensureDirectory(options_.traceCacheDir);
            made.ok()) {
            cache_path = options_.traceCacheDir + "/" +
                         exp::traceCacheStem(label) +
                         trace::traceStoreExtension;
        }
    }

    trace::MemoryTrace loaded;
    bool have_trace = false;
    if (!cache_path.empty()) {
        std::ifstream probe(cache_path);
        if (probe.good()) {
            probe.close();
            auto from_store =
                trace::loadStoredTrace(cache_path, context);
            if (from_store.ok()) {
                context.metrics().add("serve/trace_store_hits");
                loaded = std::move(from_store).okOrThrow();
                have_trace = true;
            } else {
                mosaic_warn("serve: trace store for ", label,
                            " unusable (", from_store.error().str(),
                            "); regenerating");
            }
        }
    }
    if (!have_trace) {
        try {
            ScopedTimer timer(context.metrics(),
                              "serve/trace_generate");
            loaded = workload.generateTrace();
        } catch (const std::exception &e) {
            return Error(ErrorCategory::Internal,
                         std::string("trace generation failed: ") +
                             e.what())
                .withContext("workload " + label);
        }
        if (!cache_path.empty()) {
            auto saved = trace::TraceStore::save(loaded, cache_path,
                                                 context);
            if (!saved.ok()) {
                mosaic_warn("serve: cannot cache trace for ", label,
                            ": ", saved.error().str());
            }
        }
    }

    auto shared = std::make_shared<const trace::MemoryTrace>(
        std::move(loaded));
    std::lock_guard<std::mutex> lock(tracesMutex_);
    auto [it, inserted] = traces_.emplace(label, std::move(shared));
    return it->second;
}

Result<void>
ModelRegistry::simulateCold(const Key &key, const SimContext &context)
{
    MetricsRegistry &registry = context.metrics();
    ScopedTimer cold_timer(registry, "serve/cold_sim");
    registry.add("serve/cold_simulations");

    auto platform = findPlatform(key.first);
    if (!platform.ok())
        return platform.error();

    std::unique_ptr<workloads::Workload> workload;
    try {
        workload = options_.workloadFactory(key.second);
    } catch (const std::exception &e) {
        return configError(std::string("unknown workload '") +
                           key.second + "': " + e.what());
    }
    if (!workload)
        return configError("unknown workload '" + key.second + "'");

    auto traceResult = obtainTrace(*workload, context);
    if (!traceResult.ok())
        return traceResult.error();
    const trace::MemoryTrace &trace = *traceResult.value();

    std::vector<layouts::NamedLayout> layouts;
    try {
        trace::MissProfile profile(trace,
                                   workload->primaryPoolBase(),
                                   workload->primaryPoolSize());
        layouts = layouts::paperCampaignLayouts(
            workload->primaryPoolSize(), profile, options_.seed);
        if (options_.include1g) {
            layouts.push_back(layouts::uniformLayout(
                workload->primaryPoolSize(),
                alloc::PageSize::Page1G));
        }
    } catch (const std::exception &e) {
        return Error(ErrorCategory::Internal,
                     std::string("layout construction failed: ") +
                         e.what());
    }

    // Replay the campaign grid layout by layout: in full, or with
    // --cold-sampled, interval-sampled over one shared plan. The
    // query's cooperative deadline rides in on the context and is
    // checked inside the replay chunk loop, so a timed-out query
    // abandons the fill within one chunk. A layout that fails is left
    // out of the surface; a failing uniform reference, which every
    // model needs, fails the whole fill.
    std::vector<exp::RunRecord> records;
    records.reserve(layouts.size());
    try {
        std::optional<sampling::SamplePlan> plan;
        if (options_.coldSampling.enabled()) {
            registry.add("serve/cold_sampled");
            ScopedTimer plan_timer(registry, "serve/cold_sample_plan");
            plan = sampling::buildSamplePlan(trace,
                                             options_.coldSampling);
        }
        for (const auto &named : layouts) {
            exp::RunRecord record;
            record.platform = key.first;
            record.workload = key.second;
            record.layout = named.name;
            try {
                const alloc::MosallocConfig config =
                    workload->makeAllocConfig(named.layout);
                if (plan) {
                    sampling::SampledEstimate estimate =
                        sampling::simulateSampled(platform.value(),
                                                  config, trace, *plan,
                                                  /*os=*/{}, context);
                    record.result = estimate.estimate;
                    record.estErr = estimate.estErr;
                } else {
                    record.result = cpu::simulateRun(
                        platform.value(), config, trace, context);
                }
            } catch (const TimeoutError &) {
                throw; // outer handler owns timeout accounting
            } catch (const std::exception &e) {
                if (named.name == exp::layoutAll4k ||
                    named.name == exp::layoutAll2m) {
                    return Error(ErrorCategory::Internal,
                                 std::string("cold lane failed: ") +
                                     e.what())
                        .withContext(
                            "cold-simulating required reference " +
                            named.name);
                }
                registry.add("serve/cold_lane_failures");
                continue;
            }
            records.push_back(std::move(record));
        }
    } catch (const TimeoutError &e) {
        registry.add("serve/cold_timeouts");
        return timeoutError(std::string(e.what()))
            .withContext("cold simulation of " + key.first + "/" +
                         key.second);
    } catch (const std::exception &e) {
        return Error(ErrorCategory::Internal,
                     std::string("cold simulation failed: ") +
                         e.what());
    }

    auto samples = assembleSampleSet(records, key.first, key.second);
    if (!samples.ok())
        return samples.error();

    auto entry = std::make_unique<PairEntry>();
    entry->samples = std::move(samples).okOrThrow();
    {
        std::lock_guard<std::mutex> lock(pairsMutex_);
        pairs_[key] = std::move(entry);
    }
    registry.add("serve/pairs_cold_cached");
    return Result<void>();
}

Result<Prediction>
ModelRegistry::predict(const PredictQuery &query,
                       const SimContext &context)
{
    const Key key{query.platform, query.workload};
    if (PairEntry *pair = findPair(key)) {
        context.metrics().add("serve/warm_hits");
        return predictWarm(*pair, query, context);
    }

    if (!options_.allowCold) {
        return configError("pair " + query.platform + "/" +
                           query.workload +
                           " is not resident and cold simulation is "
                           "disabled");
    }

    // Single-flight: the first query for an unknown pair becomes the
    // leader and simulates; concurrent queries for the same pair wait
    // (bounded by their own deadline) instead of burning a redundant
    // multi-second simulation each.
    std::shared_ptr<ColdFlight> flight;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lock(coldMutex_);
        if (PairEntry *pair = findPair(key)) {
            // Lost the race with a finishing leader: already warm.
            context.metrics().add("serve/warm_hits");
            return predictWarm(*pair, query, context);
        }
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            flight = it->second;
        } else {
            flight = std::make_shared<ColdFlight>();
            inflight_[key] = flight;
            leader = true;
        }
    }

    if (leader) {
        auto outcome = simulateCold(key, context);
        {
            std::lock_guard<std::mutex> lock(flight->mutex);
            flight->done = true;
            flight->outcome = outcome;
        }
        flight->cv.notify_all();
        {
            std::lock_guard<std::mutex> lock(coldMutex_);
            inflight_.erase(key);
        }
        if (!outcome.ok())
            return outcome.error();
    } else {
        context.metrics().add("serve/cold_dedup_waits");
        std::unique_lock<std::mutex> lock(flight->mutex);
        const auto ready = [&flight] { return flight->done; };
        if (context.hasDeadline()) {
            if (!flight->cv.wait_until(lock, context.deadline(),
                                       ready)) {
                return timeoutError(
                    "cold simulation of " + query.platform + "/" +
                    query.workload +
                    " is still in flight past the query deadline");
            }
        } else {
            flight->cv.wait(lock, ready);
        }
        if (!flight->outcome.ok()) {
            return flight->outcome.error().withContext(
                "from the deduplicated cold simulation");
        }
    }

    PairEntry *pair = findPair(key);
    if (!pair) {
        return Error(ErrorCategory::Internal,
                     "cold simulation finished but the pair is not "
                     "resident");
    }
    auto prediction = predictWarm(*pair, query, context);
    if (prediction.ok())
        prediction.value().cold = true;
    return prediction;
}

} // namespace mosaic::serve
