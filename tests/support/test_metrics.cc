/**
 * @file
 * Tests for the metrics registry: thread-safe counters, RAII timers,
 * hierarchical phase nesting, and the JSON run manifest.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "common/scratch_dir.hh"
#include "support/metrics.hh"

using namespace mosaic;

namespace
{

/**
 * Minimal recursive-descent JSON syntax checker — enough to assert the
 * manifest is well-formed without a JSON library in the tree.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        return value() && (skipSpace(), pos_ == text_.size());
    }

  private:
    bool
    value()
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipSpace();
        if (peek() == '}')
            return ++pos_, true;
        while (true) {
            skipSpace();
            if (!string())
                return false;
            skipSpace();
            if (peek() != ':')
                return false;
            ++pos_;
            if (!value())
                return false;
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}')
                return ++pos_, true;
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipSpace();
        if (peek() == ']')
            return ++pos_, true;
        while (true) {
            if (!value())
                return false;
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']')
                return ++pos_, true;
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

TEST(Metrics, CountersAccumulateAndDefaultToZero)
{
    MetricsRegistry registry;
    EXPECT_EQ(registry.counter("never"), 0u);
    registry.add("cells");
    registry.add("cells", 4);
    EXPECT_EQ(registry.counter("cells"), 5u);
}

TEST(Metrics, GaugesKeepLastValue)
{
    MetricsRegistry registry;
    EXPECT_DOUBLE_EQ(registry.gauge("x", -1.0), -1.0);
    registry.set("x", 2.5);
    registry.set("x", 7.25);
    EXPECT_DOUBLE_EQ(registry.gauge("x"), 7.25);
}

TEST(Metrics, RaiseKeepsTheRunningMaximum)
{
    MetricsRegistry registry;
    registry.raise("fit/worst_kkt_ratio", 2e-12);
    EXPECT_DOUBLE_EQ(registry.gauge("fit/worst_kkt_ratio"), 2e-12);
    registry.raise("fit/worst_kkt_ratio", 1e-13);
    EXPECT_DOUBLE_EQ(registry.gauge("fit/worst_kkt_ratio"), 2e-12);
    registry.raise("fit/worst_kkt_ratio", 5e-9);
    EXPECT_DOUBLE_EQ(registry.gauge("fit/worst_kkt_ratio"), 5e-9);
}

TEST(Metrics, ConcurrentCounterIncrementsAreLossless)
{
    // The campaign thread pool bumps the same counters from every
    // worker; no increment may be lost.
    MetricsRegistry registry;
    constexpr int threads = 8;
    constexpr int perThread = 10000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&registry] {
            for (int i = 0; i < perThread; ++i) {
                registry.add("shared");
                registry.addPhaseSample("phase", 0.001);
            }
        });
    }
    for (auto &thread : pool)
        thread.join();
    EXPECT_EQ(registry.counter("shared"),
              static_cast<std::uint64_t>(threads) * perThread);
    PhaseStats stats = registry.phase("phase");
    EXPECT_EQ(stats.count, static_cast<std::uint64_t>(threads) * perThread);
    EXPECT_NEAR(stats.seconds, threads * perThread * 0.001, 1e-6);
}

TEST(Metrics, ScopedTimerRecordsOnceEvenWhenStoppedEarly)
{
    MetricsRegistry registry;
    {
        ScopedTimer timer(registry, "work");
        double first = timer.stop();
        EXPECT_GE(first, 0.0);
        EXPECT_DOUBLE_EQ(timer.stop(), first); // idempotent
    } // destructor must not double-record
    EXPECT_EQ(registry.phase("work").count, 1u);
}

TEST(Metrics, ScopedPhaseNestsIntoSlashPaths)
{
    MetricsRegistry registry;
    EXPECT_EQ(ScopedPhase::currentPath(), "");
    {
        ScopedPhase outer(registry, "campaign");
        EXPECT_EQ(outer.path(), "campaign");
        EXPECT_EQ(ScopedPhase::currentPath(), "campaign");
        {
            ScopedPhase inner(registry, "fit");
            EXPECT_EQ(inner.path(), "campaign/fit");
            EXPECT_EQ(ScopedPhase::currentPath(), "campaign/fit");
        }
        EXPECT_EQ(ScopedPhase::currentPath(), "campaign");
    }
    EXPECT_EQ(ScopedPhase::currentPath(), "");
    EXPECT_EQ(registry.phase("campaign").count, 1u);
    EXPECT_EQ(registry.phase("campaign/fit").count, 1u);
    // The outer interval covers the inner one.
    EXPECT_GE(registry.phase("campaign").seconds,
              registry.phase("campaign/fit").seconds);
}

TEST(Metrics, SnapshotsAreSortedByName)
{
    MetricsRegistry registry;
    registry.add("z");
    registry.add("a");
    registry.add("m");
    auto counters = registry.counters();
    ASSERT_EQ(counters.size(), 3u);
    EXPECT_EQ(counters[0].first, "a");
    EXPECT_EQ(counters[1].first, "m");
    EXPECT_EQ(counters[2].first, "z");
}

TEST(Metrics, ResetDropsEverything)
{
    MetricsRegistry registry;
    registry.add("c");
    registry.set("g", 1.0);
    registry.addPhaseSample("p", 0.5);
    registry.reset();
    EXPECT_TRUE(registry.counters().empty());
    EXPECT_TRUE(registry.gauges().empty());
    EXPECT_TRUE(registry.phases().empty());
}

TEST(Metrics, AddPhaseStatsFoldsPreAccumulatedIntervals)
{
    MetricsRegistry registry;
    registry.addPhaseSample("campaign/cell", 0.25);
    registry.addPhaseStats("campaign/cell", PhaseStats{0.75, 3});
    PhaseStats stats = registry.phase("campaign/cell");
    EXPECT_NEAR(stats.seconds, 1.0, 1e-9);
    EXPECT_EQ(stats.count, 4u);

    // Workers that timed nothing merge as zeros.
    registry.addPhaseStats("campaign/idle", PhaseStats{});
    EXPECT_EQ(registry.phase("campaign/idle").count, 0u);
}

TEST(Metrics, MergeFromFoldsShardsDeterministically)
{
    MetricsRegistry total;
    total.add("cells", 1);
    total.set("jobs", 1.0);
    total.addPhaseSample("cell", 0.5);

    MetricsRegistry shard_a;
    shard_a.add("cells", 2);
    shard_a.add("retries", 1);
    shard_a.set("jobs", 4.0);
    shard_a.addPhaseSample("cell", 0.25);

    MetricsRegistry shard_b;
    shard_b.add("cells", 3);
    shard_b.addPhaseSample("cell", 0.25);
    shard_b.addPhaseSample("trace", 1.0);

    total.mergeFrom(shard_a);
    total.mergeFrom(shard_b);

    // Counters and phases merge additively; gauges take the last
    // merged shard that set them.
    EXPECT_EQ(total.counter("cells"), 6u);
    EXPECT_EQ(total.counter("retries"), 1u);
    EXPECT_EQ(total.gauge("jobs"), 4.0);
    EXPECT_NEAR(total.phase("cell").seconds, 1.0, 1e-9);
    EXPECT_EQ(total.phase("cell").count, 3u);
    EXPECT_EQ(total.phase("trace").count, 1u);

    // Merging an empty shard is a no-op.
    total.mergeFrom(MetricsRegistry());
    EXPECT_EQ(total.counter("cells"), 6u);
}

TEST(Metrics, ConcurrentShardMergesAreLossless)
{
    // Workers merging their shards into one registry concurrently (the
    // campaign does it under join, but the registry itself must hold).
    constexpr int shards = 8;
    MetricsRegistry total;
    std::vector<std::thread> pool;
    for (int s = 0; s < shards; ++s) {
        pool.emplace_back([&] {
            MetricsRegistry shard;
            shard.add("cells", 10);
            shard.addPhaseSample("cell", 0.001);
            total.mergeFrom(shard);
        });
    }
    for (auto &thread : pool)
        thread.join();
    EXPECT_EQ(total.counter("cells"), 10u * shards);
    EXPECT_EQ(total.phase("cell").count, static_cast<std::uint64_t>(shards));
}

TEST(Metrics, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Metrics, ManifestJsonIsWellFormedAndCarriesRegistry)
{
    MetricsRegistry registry;
    registry.add("campaign/cells_completed", 55);
    registry.set("fit/last_lambda_ratio", 0.01);
    registry.addPhaseSample("campaign/trace", 1.5);

    RunManifest manifest("test_tool");
    manifest.setConfig("out", std::string("a\"quoted\".csv"));
    manifest.setConfig("threads", std::uint64_t(4));
    manifest.setConfig("resume", true);
    manifest.setConfig("workloads",
                       std::vector<std::string>{"gups/8GB", "spec06/mcf"});
    manifest.addFailure("SandyBridge/bogus/*", "Config: no such workload");

    std::string json = manifest.toJson(registry);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;

    // Shape: schema tag, tool identity, and every registry section.
    EXPECT_NE(json.find("\"schema\": \"mosaic-run-manifest/1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"tool\": \"test_tool\""), std::string::npos);
    EXPECT_NE(json.find("\"campaign/cells_completed\": 55"),
              std::string::npos);
    EXPECT_NE(json.find("fit/last_lambda_ratio"), std::string::npos);
    EXPECT_NE(json.find("campaign/trace"), std::string::npos);
    EXPECT_NE(json.find("a\\\"quoted\\\".csv"), std::string::npos);
    EXPECT_NE(json.find("no such workload"), std::string::npos);
    EXPECT_EQ(manifest.numFailures(), 1u);
}

TEST(Metrics, ManifestWriteRoundTripsThroughDisk)
{
    test::ScratchDir scratch;
    MetricsRegistry registry;
    registry.add("replay/records", 12345);

    RunManifest manifest("round_trip");
    std::string path = scratch.file("manifest.json");
    ASSERT_TRUE(manifest.write(path, registry).ok());

    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, manifest.toJson(registry));
    EXPECT_TRUE(JsonChecker(text).valid());
}

TEST(Metrics, GlobalRegistryIsASingleton)
{
    MetricsRegistry &a = metrics();
    MetricsRegistry &b = metrics();
    EXPECT_EQ(&a, &b);
}

TEST(Metrics, RepeatedMergeFromDoubleCountsButDrainDoesNot)
{
    // The serve pattern: a long-lived worker shard folded into a
    // central registry once per /stats query. mergeFrom leaves the
    // shard intact, so repeating it double-counts — which is why the
    // serve path must drain instead.
    MetricsRegistry shard;
    shard.add("serve/requests", 10);

    MetricsRegistry merged;
    merged.mergeFrom(shard);
    merged.mergeFrom(shard);
    EXPECT_EQ(merged.counter("serve/requests"), 20u); // the hazard

    MetricsRegistry drained;
    MetricsRegistry source;
    source.add("serve/requests", 10);
    source.drainInto(drained);
    source.drainInto(drained);
    EXPECT_EQ(drained.counter("serve/requests"), 10u);
    EXPECT_EQ(source.counter("serve/requests"), 0u);
}

TEST(Metrics, DrainMovesCountersGaugesAndPhases)
{
    MetricsRegistry source;
    source.add("serve/warm_hits", 7);
    source.set("serve/inflight", 3.0);
    source.addPhaseSample("serve/query", 0.5);
    source.addPhaseSample("serve/query", 0.25);

    MetricsRegistry target;
    target.add("serve/warm_hits", 1);
    source.drainInto(target);

    EXPECT_EQ(target.counter("serve/warm_hits"), 8u);
    EXPECT_DOUBLE_EQ(target.gauge("serve/inflight"), 3.0);
    PhaseStats stats = target.phase("serve/query");
    EXPECT_DOUBLE_EQ(stats.seconds, 0.75);
    EXPECT_EQ(stats.count, 2u);

    // The source is empty afterwards; a second drain adds nothing and
    // an untouched gauge keeps its target value.
    source.drainInto(target);
    EXPECT_EQ(target.counter("serve/warm_hits"), 8u);
    EXPECT_DOUBLE_EQ(target.gauge("serve/inflight"), 3.0);
    EXPECT_EQ(target.phase("serve/query").count, 2u);
}

TEST(Metrics, DrainIntoSelfIsANoOp)
{
    MetricsRegistry registry;
    registry.add("serve/requests", 5);
    registry.drainInto(registry);
    EXPECT_EQ(registry.counter("serve/requests"), 5u);
}

TEST(Metrics, ScopedPhaseSampleSurvivesRepeatedDrainsExactlyOnce)
{
    MetricsRegistry shard;
    {
        ScopedPhase phase(shard, "serve");
        ScopedPhase inner(shard, "query");
    }
    MetricsRegistry central;
    shard.drainInto(central);
    shard.drainInto(central);
    shard.drainInto(central);
    EXPECT_EQ(central.phase("serve/query").count, 1u);
    EXPECT_EQ(central.phase("serve").count, 1u);
}

TEST(Metrics, ConcurrentAddsDuringDrainsLoseNothing)
{
    // Writers hammer a shard while a drainer repeatedly folds it into
    // the central registry; every increment must land exactly once
    // across {central after all drains} + {whatever stayed in shard}.
    MetricsRegistry shard;
    MetricsRegistry central;
    constexpr std::uint64_t perThread = 20000;
    constexpr unsigned writers = 4;

    std::vector<std::thread> threads;
    threads.reserve(writers + 1);
    for (unsigned t = 0; t < writers; ++t) {
        threads.emplace_back([&shard]() {
            for (std::uint64_t i = 0; i < perThread; ++i) {
                shard.add("serve/requests");
                shard.addPhaseSample("serve/query", 0.001);
            }
        });
    }
    threads.emplace_back([&shard, &central]() {
        for (int i = 0; i < 200; ++i)
            shard.drainInto(central);
    });
    for (auto &thread : threads)
        thread.join();
    shard.drainInto(central);

    EXPECT_EQ(central.counter("serve/requests"),
              writers * perThread);
    EXPECT_EQ(central.phase("serve/query").count,
              writers * perThread);
    EXPECT_EQ(shard.counter("serve/requests"), 0u);
}
