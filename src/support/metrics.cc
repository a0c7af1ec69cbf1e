#include "support/metrics.hh"

#include <algorithm>
#include <cstdio>

#include "support/io_util.hh"

namespace mosaic
{

void
MetricsRegistry::add(const std::string &name, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += delta;
}

std::uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
MetricsRegistry::set(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[name] = value;
}

void
MetricsRegistry::raise(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = gauges_.try_emplace(name, value);
    if (!inserted && value > it->second)
        it->second = value;
}

double
MetricsRegistry::gauge(const std::string &name, double fallback) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? fallback : it->second;
}

void
MetricsRegistry::addPhaseSample(const std::string &path, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    PhaseStats &stats = phases_[path];
    stats.seconds += seconds;
    ++stats.count;
}

void
MetricsRegistry::addPhaseStats(const std::string &path,
                               const PhaseStats &stats)
{
    std::lock_guard<std::mutex> lock(mutex_);
    PhaseStats &mine = phases_[path];
    mine.seconds += stats.seconds;
    mine.count += stats.count;
}

void
MetricsRegistry::mergeFrom(const MetricsRegistry &shard)
{
    // Snapshot the shard first: taking both mutexes at once would
    // order-deadlock if two registries ever merged into each other.
    auto counters = shard.counters();
    auto gauges = shard.gauges();
    auto phases = shard.phases();

    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, value] : counters)
        counters_[name] += value;
    for (const auto &[name, value] : gauges)
        gauges_[name] = value;
    for (const auto &[path, stats] : phases) {
        PhaseStats &mine = phases_[path];
        mine.seconds += stats.seconds;
        mine.count += stats.count;
    }
}

void
MetricsRegistry::drainInto(MetricsRegistry &target)
{
    if (&target == this)
        return;

    // Move-and-clear under our own lock so every concurrent write
    // lands either in this drain or the next — never both. The fold
    // then takes only the target's lock (one mutex at a time; two
    // threads cross-draining a pair of registries cannot deadlock).
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, PhaseStats> phases;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        counters.swap(counters_);
        gauges.swap(gauges_);
        phases.swap(phases_);
    }

    std::lock_guard<std::mutex> lock(target.mutex_);
    for (const auto &[name, value] : counters)
        target.counters_[name] += value;
    for (const auto &[name, value] : gauges)
        target.gauges_[name] = value;
    for (const auto &[path, stats] : phases) {
        PhaseStats &theirs = target.phases_[path];
        theirs.seconds += stats.seconds;
        theirs.count += stats.count;
    }
}

PhaseStats
MetricsRegistry::phase(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = phases_.find(path);
    return it == phases_.end() ? PhaseStats{} : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {counters_.begin(), counters_.end()};
}

std::vector<std::pair<std::string, double>>
MetricsRegistry::gauges() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {gauges_.begin(), gauges_.end()};
}

std::vector<std::pair<std::string, PhaseStats>>
MetricsRegistry::phases() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {phases_.begin(), phases_.end()};
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    phases_.clear();
}

MetricsRegistry &
metrics()
{
    static MetricsRegistry registry;
    return registry;
}

namespace
{

/** Innermost open ScopedPhase path per thread ("" at top level). */
thread_local std::string currentPhasePath;

} // namespace

ScopedPhase::ScopedPhase(MetricsRegistry &registry,
                         const std::string &name)
    : registry_(registry), previous_(currentPhasePath)
{
    path_ = previous_.empty() ? name : previous_ + "/" + name;
    currentPhasePath = path_;
}

ScopedPhase::~ScopedPhase()
{
    registry_.addPhaseSample(path_, watch_.elapsedSeconds());
    currentPhasePath = previous_;
}

const std::string &
ScopedPhase::currentPath()
{
    return currentPhasePath;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

std::string
jsonString(const std::string &text)
{
    return "\"" + jsonEscape(text) + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
}

} // namespace

void
RunManifest::setConfig(const std::string &key, const std::string &value)
{
    config_.emplace_back(key, jsonString(value));
}

void
RunManifest::setConfig(const std::string &key, const char *value)
{
    setConfig(key, std::string(value));
}

void
RunManifest::setConfig(const std::string &key, std::uint64_t value)
{
    config_.emplace_back(key, std::to_string(value));
}

void
RunManifest::setConfig(const std::string &key, bool value)
{
    config_.emplace_back(key, value ? "true" : "false");
}

void
RunManifest::setConfig(const std::string &key,
                       const std::vector<std::string> &items)
{
    std::string rendered = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            rendered += ", ";
        rendered += jsonString(items[i]);
    }
    rendered += "]";
    config_.emplace_back(key, std::move(rendered));
}

void
RunManifest::addFailure(const std::string &what, const std::string &error)
{
    failures_.emplace_back(what, error);
}

std::string
RunManifest::toJson(const MetricsRegistry &registry) const
{
    std::string out = "{\n";
    out += "  \"schema\": \"mosaic-run-manifest/1\",\n";
    out += "  \"tool\": " + jsonString(tool_) + ",\n";

    out += "  \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
        out += i > 0 ? ",\n    " : "\n    ";
        out += jsonString(config_[i].first) + ": " + config_[i].second;
    }
    out += config_.empty() ? "},\n" : "\n  },\n";

    out += "  \"phases\": {";
    auto phases = registry.phases();
    for (std::size_t i = 0; i < phases.size(); ++i) {
        out += i > 0 ? ",\n    " : "\n    ";
        out += jsonString(phases[i].first) +
               ": {\"seconds\": " + jsonNumber(phases[i].second.seconds) +
               ", \"count\": " + std::to_string(phases[i].second.count) +
               "}";
    }
    out += phases.empty() ? "},\n" : "\n  },\n";

    out += "  \"counters\": {";
    auto counters = registry.counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
        out += i > 0 ? ",\n    " : "\n    ";
        out += jsonString(counters[i].first) + ": " +
               std::to_string(counters[i].second);
    }
    out += counters.empty() ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    auto gauges = registry.gauges();
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        out += i > 0 ? ",\n    " : "\n    ";
        out += jsonString(gauges[i].first) + ": " +
               jsonNumber(gauges[i].second);
    }
    out += gauges.empty() ? "},\n" : "\n  },\n";

    out += "  \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
        out += i > 0 ? ",\n    " : "\n    ";
        out += "{\"what\": " + jsonString(failures_[i].first) +
               ", \"error\": " + jsonString(failures_[i].second) + "}";
    }
    out += failures_.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

Result<void>
RunManifest::write(const std::string &path,
                   const MetricsRegistry &registry) const
{
    return writeFileAtomic(path, toJson(registry));
}

} // namespace mosaic
