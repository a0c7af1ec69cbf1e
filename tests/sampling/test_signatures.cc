/**
 * @file
 * Interval-signature extraction: slicing arithmetic, feature
 * normalization, and the materialized-vs-columnar equivalence the
 * campaign's trace cache depends on.
 */

#include <gtest/gtest.h>

#include "trace/interval_signature.hh"
#include "trace/synth.hh"
#include "trace/trace_store.hh"

using namespace mosaic;
using namespace mosaic::trace;

namespace
{

MemoryTrace
synthTrace(std::uint64_t records, unsigned seq, unsigned hot,
           unsigned rnd, unsigned chase)
{
    SynthTraceParams params;
    params.records = records;
    params.base = 0x4000000000ULL;
    params.footprint = 8_MiB;
    params.seqPct = seq;
    params.hotPct = hot;
    params.randPct = rnd;
    params.chasePct = chase;
    return makeSynthTrace(params);
}

} // namespace

TEST(IntervalSignature, SlicesCoverTheTraceExactly)
{
    auto trace = synthTrace(10000, 25, 25, 25, 25);
    auto sigs = extractIntervalSignatures(trace, 3000);
    ASSERT_EQ(sigs.size(), 4u);
    std::uint64_t expect_begin = 0;
    for (const auto &sig : sigs) {
        EXPECT_EQ(sig.begin, expect_begin);
        expect_begin = sig.end;
    }
    EXPECT_EQ(sigs.back().end, trace.size());
    EXPECT_EQ(sigs.back().records(), 1000u); // the short tail interval
}

TEST(IntervalSignature, FeaturesAreNormalizedShares)
{
    auto trace = synthTrace(50000, 60, 22, 12, 6);
    auto sigs = extractIntervalSignatures(trace, 8192);
    ASSERT_FALSE(sigs.empty());
    for (const auto &sig : sigs) {
        double reuse_mass = 0.0;
        for (std::size_t b = 0; b < IntervalSignature::kReuseBuckets;
             ++b) {
            EXPECT_GE(sig.features[b], 0.0);
            EXPECT_LE(sig.features[b], 1.0);
            reuse_mass += sig.features[b];
        }
        // Every record lands in exactly one reuse bucket.
        EXPECT_NEAR(reuse_mass, 1.0, 1e-9);
        for (std::size_t f = IntervalSignature::kReuseBuckets;
             f < IntervalSignature::kFeatures; ++f) {
            EXPECT_GE(sig.features[f], 0.0);
            EXPECT_LE(sig.features[f], 1.0);
        }
        EXPECT_GT(sig.distinctPages, 0u);
    }
}

TEST(IntervalSignature, DistinctPhaseMixesSeparateInFeatureSpace)
{
    // A sequential-scan interval and a pointer-chase interval must not
    // look alike — clustering quality rests on this.
    auto seq = extractIntervalSignatures(
        synthTrace(20000, 100, 0, 0, 0), 20000);
    auto chase = extractIntervalSignatures(
        synthTrace(20000, 0, 0, 0, 100), 20000);
    ASSERT_EQ(seq.size(), 1u);
    ASSERT_EQ(chase.size(), 1u);
    double dist = 0.0;
    for (std::size_t f = 0; f < IntervalSignature::kFeatures; ++f) {
        double d = seq[0].features[f] - chase[0].features[f];
        dist += d * d;
    }
    EXPECT_GT(dist, 0.1);
}

TEST(IntervalSignature, ColumnarSpansMatchMaterializedTrace)
{
    auto trace = synthTrace(30000, 10, 20, 10, 60);

    // Re-encode into the packed SoA layout of the TraceStore columns,
    // and extract through the span overload.
    std::vector<VirtAddr> vaddr;
    std::vector<std::uint32_t> meta;
    for (const auto &rec : trace.records()) {
        vaddr.push_back(rec.vaddr);
        std::uint32_t m = rec.gap;
        if (rec.isWrite)
            m |= traceStoreWriteBit;
        if (rec.dependsOnPrev)
            m |= traceStoreDependsBit;
        meta.push_back(m);
    }

    auto from_trace = extractIntervalSignatures(trace, 4096);
    auto from_spans = extractIntervalSignatures(
        std::span<const VirtAddr>(vaddr),
        std::span<const std::uint32_t>(meta), 4096);
    ASSERT_EQ(from_trace.size(), from_spans.size());
    for (std::size_t i = 0; i < from_trace.size(); ++i) {
        EXPECT_EQ(from_trace[i].begin, from_spans[i].begin);
        EXPECT_EQ(from_trace[i].end, from_spans[i].end);
        EXPECT_EQ(from_trace[i].distinctPages,
                  from_spans[i].distinctPages);
        for (std::size_t f = 0; f < IntervalSignature::kFeatures; ++f) {
            EXPECT_EQ(from_trace[i].features[f],
                      from_spans[i].features[f])
                << "interval " << i << " feature " << f;
        }
    }
}

TEST(IntervalSignature, ReuseLooksAcrossIntervalBoundaries)
{
    // Two intervals touching the same single page: the second
    // interval's references must all be reuses (no cold-bucket mass),
    // proving last-touch state survives the boundary.
    MemoryTrace trace;
    for (int i = 0; i < 200; ++i)
        trace.add(0x4000000000ULL, 1, false);
    auto sigs = extractIntervalSignatures(trace, 100);
    ASSERT_EQ(sigs.size(), 2u);
    constexpr std::size_t cold = IntervalSignature::kReuseBuckets - 1;
    EXPECT_GT(sigs[0].features[cold], 0.0); // the first touch
    EXPECT_EQ(sigs[1].features[cold], 0.0);
    EXPECT_EQ(sigs[1].distinctPages, 1u);
}

TEST(IntervalSignature, DeterministicAcrossCalls)
{
    auto trace = synthTrace(25000, 10, 10, 70, 10);
    auto a = extractIntervalSignatures(trace, 5000);
    auto b = extractIntervalSignatures(trace, 5000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t f = 0; f < IntervalSignature::kFeatures; ++f)
            EXPECT_EQ(a[i].features[f], b[i].features[f]);
    }
}
