/**
 * @file
 * Run observability: a thread-safe metrics registry, RAII wall-clock
 * timers with hierarchical phase tracking, and JSON run-manifest
 * emission.
 *
 * Long campaigns were a black box while running: nothing reported how
 * far along the grid was, whether the trace cache was hitting, or why
 * a run was slow. Each subsystem now publishes into one process-global
 * registry — counters (monotonic event tallies), gauges (last-value
 * samples), and phases (accumulated wall-clock time per slash-separated
 * path) — and every tool can dump the whole registry as a JSON run
 * manifest via --metrics-out.
 *
 * The hot replay loop is never instrumented per record: subsystems
 * record *per run* (one registry update per simulated cell), so the
 * observability layer costs nothing measurable against the
 * BENCH_replay.json throughput baseline.
 */

#ifndef MOSAIC_SUPPORT_METRICS_HH
#define MOSAIC_SUPPORT_METRICS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hh"

namespace mosaic
{

/** Accumulated wall-clock samples of one phase. */
struct PhaseStats
{
    double seconds = 0.0;

    /** Number of recorded intervals (e.g. cells timed). */
    std::uint64_t count = 0;
};

/**
 * Named counters, gauges, and phase timings, safe to update from any
 * thread. Counters are monotonic event tallies; gauges hold the last
 * value written; phases accumulate wall-clock seconds and a sample
 * count under a slash-separated path ("campaign/trace").
 */
class MetricsRegistry
{
  public:
    /** Add @p delta to counter @p name (created at zero on first use). */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** Current value of counter @p name (0 if never written). */
    std::uint64_t counter(const std::string &name) const;

    /** Set gauge @p name to @p value (last write wins). */
    void set(const std::string &name, double value);

    /** Raise gauge @p name to @p value if it is unset or lower (a
     *  running maximum). */
    void raise(const std::string &name, double value);

    /** Current value of gauge @p name, or @p fallback if unset. */
    double gauge(const std::string &name, double fallback = 0.0) const;

    /** Accumulate @p seconds (one interval) into phase @p path. */
    void addPhaseSample(const std::string &path, double seconds);

    /** Fold pre-accumulated stats into phase @p path (shard merge). */
    void addPhaseStats(const std::string &path, const PhaseStats &stats);

    /** Accumulated stats of phase @p path (zeros if never recorded). */
    PhaseStats phase(const std::string &path) const;

    /**
     * Fold @p shard into this registry: counters and phases merge
     * additively, gauges take the shard's value (last merge wins).
     * Campaign workers accumulate into private shards while running
     * and merge at join time — in worker order, so the merged registry
     * is identical for any worker count.
     *
     * mergeFrom is strictly once-at-join: the shard keeps its
     * contents, so merging the same live shard twice double-counts
     * every counter and phase it already held. A long-lived shard
     * that must be folded repeatedly (the serve worker pattern, where
     * /stats aggregates while workers keep running) uses drainInto
     * instead.
     */
    void mergeFrom(const MetricsRegistry &shard);

    /**
     * Move this registry's contents into @p target and clear them,
     * atomically with respect to concurrent writers on this registry:
     * every counter increment, gauge write, and phase sample lands in
     * exactly one drain (or stays here for the next one), never in
     * two. Counters and phases fold additively into @p target; gauges
     * overwrite. Gauges written since the last drain transfer; a
     * gauge untouched since then simply keeps its old value in
     * @p target rather than being re-written. Draining into itself is
     * a no-op. Locks are taken one registry at a time, so concurrent
     * cross-drains cannot deadlock.
     */
    void drainInto(MetricsRegistry &target);

    /** Snapshots, sorted by name (stable manifest output). */
    std::vector<std::pair<std::string, std::uint64_t>> counters() const;
    std::vector<std::pair<std::string, double>> gauges() const;
    std::vector<std::pair<std::string, PhaseStats>> phases() const;

    /** Drop everything (tests; tools start from a fresh process). */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, PhaseStats> phases_;
};

/** The process-global registry every subsystem publishes into. */
MetricsRegistry &metrics();

/** Monotonic wall-clock stopwatch. */
class StopWatch
{
  public:
    StopWatch() : start_(Clock::now()) {}

    double
    elapsedSeconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_)
            .count();
    }

    void restart() { start_ = Clock::now(); }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/**
 * RAII timer: accumulates the scope's elapsed wall time into a fixed
 * registry phase path on destruction (or an explicit stop()).
 */
class ScopedTimer
{
  public:
    ScopedTimer(MetricsRegistry &registry, std::string path)
        : registry_(registry), path_(std::move(path))
    {
    }

    ~ScopedTimer()
    {
        if (!stopped_)
            stop();
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Record the elapsed interval now; further stops are no-ops. */
    double
    stop()
    {
        if (stopped_)
            return lastElapsed_;
        stopped_ = true;
        lastElapsed_ = watch_.elapsedSeconds();
        registry_.addPhaseSample(path_, lastElapsed_);
        return lastElapsed_;
    }

  private:
    MetricsRegistry &registry_;
    std::string path_;
    StopWatch watch_;
    bool stopped_ = false;
    double lastElapsed_ = 0.0;
};

/**
 * Hierarchical phase scope: phase names nest through a thread-local
 * stack, so a ScopedPhase("fit") inside a ScopedPhase("campaign")
 * records its time under "campaign/fit". Each scope records on
 * destruction, like ScopedTimer, but derives its path from the scopes
 * enclosing it on the same thread.
 */
class ScopedPhase
{
  public:
    ScopedPhase(MetricsRegistry &registry, const std::string &name);
    ~ScopedPhase();

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

    /** Full slash path of this scope ("campaign/fit"). */
    const std::string &path() const { return path_; }

    /** The innermost open phase path on this thread ("" outside). */
    static const std::string &currentPath();

  private:
    MetricsRegistry &registry_;
    std::string path_;
    std::string previous_;
    StopWatch watch_;
};

/** Escape @p text for use inside a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &text);

/**
 * One run's manifest: tool identity, configuration, and — at write
 * time — the registry's phases, counters, and gauges, serialized as
 * JSON (schema "mosaic-run-manifest/1") through the atomic-write path.
 */
class RunManifest
{
  public:
    explicit RunManifest(std::string tool) : tool_(std::move(tool)) {}

    /** Record a string-valued config entry (insertion order kept). */
    void setConfig(const std::string &key, const std::string &value);
    void setConfig(const std::string &key, const char *value);

    /** Record a numeric config entry. */
    void setConfig(const std::string &key, std::uint64_t value);
    void setConfig(const std::string &key, bool value);

    /** Record a string-list config entry (workload grid, platforms). */
    void setConfig(const std::string &key,
                   const std::vector<std::string> &items);

    /** Append a failure: what failed and the error that killed it. */
    void addFailure(const std::string &what, const std::string &error);

    std::size_t numFailures() const { return failures_.size(); }

    /** Render the manifest plus @p registry's contents as JSON. */
    std::string toJson(const MetricsRegistry &registry) const;

    /** Atomically write toJson() to @p path. */
    Result<void> write(const std::string &path,
                       const MetricsRegistry &registry) const;

  private:
    std::string tool_;

    /** (key, pre-rendered JSON value), in insertion order. */
    std::vector<std::pair<std::string, std::string>> config_;

    std::vector<std::pair<std::string, std::string>> failures_;
};

} // namespace mosaic

#endif // MOSAIC_SUPPORT_METRICS_HH
