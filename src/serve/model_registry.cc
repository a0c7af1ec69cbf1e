#include "serve/model_registry.hh"

#include <algorithm>
#include <cmath>

#include "cpu/platform.hh"
#include "experiments/campaign.hh"
#include "experiments/dataset.hh"
#include "experiments/report.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace mosaic::serve
{

ModelRegistry::ModelRegistry(Options options)
    : options_(std::move(options))
{
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
            // A pair missing its uniform reference runs (a partial
            // campaign) is skipped, so one torn pair cannot keep the
            // daemon from serving the rest.
            auto samples = dataset.sampleSetResult(platform, workload);
            if (!samples.ok()) {
                metrics().add("serve/pairs_skipped");
                mosaic_warn("serve: skipping partial pair ", platform,
                            "/", workload, " (",
                            samples.error().message(), ")");
                continue;
            }
            auto entry = std::make_unique<PairEntry>();
            entry->samples = std::move(samples).okOrThrow();
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

Result<void>
ModelRegistry::simulateCold(const Key &key, const SimContext &context)
{
    MetricsRegistry &registry = context.metrics();
    ScopedTimer cold_timer(registry, "serve/cold_sim");
    registry.add("serve/cold_simulations");

    auto platform = cpu::findPlatform(key.first);
    if (!platform.ok())
        return platform.error();

    // A one-pair campaign at the daemon's width: the same trace store
    // (with quarantine and retries), layouts and replay as
    // mosaic_campaign, in full or, with --cold-sampled, over one
    // shared sample plan. The query's cooperative deadline rides in on
    // the context, so a timed-out query abandons the fill within one
    // chunk.
    exp::CampaignConfig config;
    config.workloads = {key.second};
    config.platforms = {platform.value()};
    config.jobs = options_.jobs;
    config.verbose = false;
    config.include1g = options_.include1g;
    config.seed = options_.seed;
    config.traceCacheDir = options_.traceCacheDir;
    config.sampling = options_.coldSampling;
    config.workloadFactory = options_.workloadFactory;
    if (config.sampling.enabled())
        registry.add("serve/cold_sampled");
    exp::CampaignReport report =
        exp::CampaignRunner(std::move(config), context).runReport();

    // A timeout fails the fill once, however many cells it cut short.
    for (const auto &failure : report.failures) {
        if (failure.error.category() == ErrorCategory::Timeout) {
            registry.add("serve/cold_timeouts");
            return failure.error.withContext("cold simulation of " +
                                             key.first + "/" +
                                             key.second);
        }
    }
    // A failed layout is left out of the surface; a failing uniform
    // reference, which every model needs, fails the whole fill.
    for (const auto &failure : report.failures) {
        if (failure.layout == "*")
            return failure.error;
        if (failure.layout == exp::layoutAll4k ||
            failure.layout == exp::layoutAll2m) {
            return Error(ErrorCategory::Internal,
                         "cold lane failed: " + failure.error.message())
                .withContext("cold-simulating required reference " +
                             failure.layout);
        }
    }
    if (!report.failures.empty())
        registry.add("serve/cold_lane_failures", report.failures.size());

    auto samples = report.dataset.sampleSetResult(key.first, key.second);
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
