/**
 * @file
 * Tests for the benchmark surrogates and the registry.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "trace/miss_profile.hh"
#include "workloads/gapbs.hh"
#include "workloads/graph500.hh"
#include "workloads/gups.hh"
#include "workloads/registry.hh"
#include "workloads/spec.hh"
#include "workloads/xsbench.hh"

using namespace mosaic;
using namespace mosaic::workloads;

namespace
{

/** Tiny variants so tests run in milliseconds. */
GupsParams
tinyGups()
{
    GupsParams params;
    params.tableBytes = 16_MiB;
    params.updates = 5000;
    return params;
}

GapbsParams
tinyGapbs(GapbsKernel kernel)
{
    GapbsParams params;
    params.kernel = kernel;
    params.graph = twitterGraph(1u << 14);
    params.refBudget = 20000;
    return params;
}

/** The registry's graph workloads, by label. */
std::vector<const RegistryEntry *>
graphEntries()
{
    std::vector<const RegistryEntry *> out;
    for (const auto &entry : workloadRegistry()) {
        auto workload = entry.make();
        if (dynamic_cast<const Graph500Workload *>(workload.get()) ||
            dynamic_cast<const GapbsWorkload *>(workload.get()))
            out.push_back(&entry);
    }
    return out;
}

/** The primary pool size as every call used to work it out: over a
 *  freshly built graph. */
Bytes
freshGraphPoolSize(const Workload &workload)
{
    const auto *g500 = dynamic_cast<const Graph500Workload *>(&workload);
    const auto *gapbs = dynamic_cast<const GapbsWorkload *>(&workload);
    SyntheticGraph graph(g500 ? g500->graphParams()
                              : gapbs->params().graph);
    const Bytes props = graph.numVertices() * 8 * (g500 ? 1 : 2) +
                        graph.numVertices() / 8;
    return alignUp(graph.offsetsBytes() + graph.adjacencyBytes() + props +
                       4_MiB,
                   2_MiB);
}

} // namespace

TEST(GraphPoolSize, FirstAskedFromManyThreadsMatchesAFreshGraph)
{
    const auto entries = graphEntries();
    ASSERT_EQ(entries.size(), 9u);
    for (const RegistryEntry *entry : entries) {
        auto workload = entry->make();
        const Bytes expected = freshGraphPoolSize(*workload);
        const std::uint64_t graphs = SyntheticGraph::built();
        std::vector<Bytes> sizes(4);
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            threads.emplace_back(
                [&, i] { sizes[i] = workload->primaryPoolSize(); });
        }
        for (auto &thread : threads)
            thread.join();
        for (Bytes size : sizes)
            EXPECT_EQ(size, expected) << entry->label;
        EXPECT_EQ(workload->primaryPoolSize(), expected) << entry->label;
        // However many threads ask, and however often, one graph.
        EXPECT_EQ(SyntheticGraph::built() - graphs, 1u) << entry->label;
    }
}

TEST(GraphPoolSize, SizedByGenerateTraceMatchesAFreshGraph)
{
    const auto entries = graphEntries();
    ASSERT_EQ(entries.size(), 9u);
    for (const RegistryEntry *entry : entries) {
        auto workload = entry->make();
        // What a campaign asks before its cells run: the trace, then
        // the pool size three times for the layouts. generateTrace()
        // sizes the pool from the graph it builds, so that is the only
        // graph, and no second one is built while it is alive.
        const std::uint64_t graphs = SyntheticGraph::built();
        const auto trace = workload->generateTrace();
        for (int i = 0; i < 3; ++i)
            workload->primaryPoolSize();
        EXPECT_EQ(SyntheticGraph::built() - graphs, 1u) << entry->label;

        EXPECT_EQ(workload->primaryPoolSize(),
                  freshGraphPoolSize(*workload))
            << entry->label;
        // The trace stays inside the pool it was sized for.
        const VirtAddr base = workload->primaryPoolBase();
        const VirtAddr end = base + workload->primaryPoolSize();
        for (const auto &record : trace.records()) {
            ASSERT_GE(record.vaddr, base) << entry->label;
            ASSERT_LT(record.vaddr, end) << entry->label;
        }
    }
}

TEST(Registry, NineteenPaperBenchmarks)
{
    auto labels = workloadLabels();
    EXPECT_EQ(labels.size(), 19u);
    // Spot-check the Table 5 entries.
    for (const char *expected :
         {"gups/8GB", "gups/16GB", "gups/32GB", "graph500/2GB",
          "spec06/mcf", "spec06/omnetpp", "spec17/omnetpp_s",
          "spec17/xalancbmk_s", "xsbench/16GB", "gapbs/bc-twitter",
          "gapbs/pr-twitter", "gapbs/bfs-road", "gapbs/sssp-web"}) {
        EXPECT_NE(std::find(labels.begin(), labels.end(), expected),
                  labels.end())
            << expected;
    }
}

TEST(Registry, MakeWorkloadByLabel)
{
    auto workload = makeWorkload("spec06/mcf");
    EXPECT_EQ(workload->info().label(), "spec06/mcf");
    EXPECT_THROW(makeWorkload("nosuch/bench"), std::runtime_error);
}

TEST(Registry, FindWorkloadNamesAnUnknownLabel)
{
    auto found = findWorkload("gups/8GB");
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value()->info().label(), "gups/8GB");

    auto missing = findWorkload("nope/none");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().category(), ErrorCategory::Config);
    EXPECT_EQ(missing.error().message(), "unknown workload 'nope/none'");
}

TEST(Registry, LabelsMatchConstructedInfo)
{
    for (const auto &entry : workloadRegistry()) {
        auto workload = entry.make();
        EXPECT_EQ(workload->info().label(), entry.label);
    }
}

TEST(Gups, TraceIsDeterministicAndInPool)
{
    GupsWorkload gups(tinyGups());
    auto t1 = gups.generateTrace();
    auto t2 = gups.generateTrace();
    ASSERT_EQ(t1.size(), t2.size());
    EXPECT_EQ(t1.records()[100].vaddr, t2.records()[100].vaddr);

    VirtAddr base = gups.primaryPoolBase();
    Bytes size = gups.primaryPoolSize();
    for (const auto &record : t1.records()) {
        ASSERT_GE(record.vaddr, base);
        ASSERT_LT(record.vaddr, base + size);
    }
}

TEST(Gups, LoadStorePairsAtSameAddress)
{
    GupsWorkload gups(tinyGups());
    auto trace = gups.generateTrace();
    ASSERT_EQ(trace.size(), 2 * tinyGups().updates);
    for (std::size_t i = 0; i + 1 < trace.size(); i += 2) {
        EXPECT_FALSE(trace.records()[i].isWrite);
        EXPECT_TRUE(trace.records()[i + 1].isWrite);
        EXPECT_EQ(trace.records()[i].vaddr,
                  trace.records()[i + 1].vaddr);
    }
}

TEST(Gups, SpreadsAcrossTheTable)
{
    GupsWorkload gups(tinyGups());
    auto trace = gups.generateTrace();
    // With 5000 random updates over 16 MiB, at least a quarter of the
    // 4096 pages should be touched.
    EXPECT_GT(trace.uniquePages4k(), 1000u);
}

TEST(Graph500, UsesAnonPoolViaMmap)
{
    Graph500Params params;
    params.numVertices = 1u << 14;
    params.refBudget = 20000;
    Graph500Workload workload(params);
    EXPECT_EQ(workload.primaryPool(), PoolKind::Anon);

    auto trace = workload.generateTrace();
    EXPECT_GE(trace.size(), params.refBudget);
    VirtAddr base = alloc::PoolAddresses::anonBase;
    VirtAddr end = base + workload.anonPoolSize();
    for (const auto &record : trace.records()) {
        ASSERT_GE(record.vaddr, base);
        ASSERT_LT(record.vaddr, end);
    }
}

TEST(Graph500, BuildPhaseWritesSequentially)
{
    Graph500Params params;
    params.numVertices = 1u << 14;
    params.refBudget = 20000;
    Graph500Workload workload(params);
    auto trace = workload.generateTrace();
    // The first records are the CSR streaming stores.
    EXPECT_TRUE(trace.records()[0].isWrite);
    EXPECT_TRUE(trace.records()[1].isWrite);
    EXPECT_LT(trace.records()[0].vaddr, trace.records()[1].vaddr);
}

TEST(Gapbs, AllKernelsProduceBudgetedTraces)
{
    for (auto kernel : {GapbsKernel::Pr, GapbsKernel::Bfs,
                        GapbsKernel::Sssp, GapbsKernel::Bc}) {
        GapbsWorkload workload(tinyGapbs(kernel));
        auto trace = workload.generateTrace();
        EXPECT_GE(trace.size(), 15000u)
            << gapbsKernelName(kernel);
        EXPECT_LE(trace.size(), 25000u)
            << gapbsKernelName(kernel);
    }
}

TEST(Gapbs, LabelsMatchPaper)
{
    EXPECT_EQ(GapbsWorkload(gapbsPrTwitter()).info().label(),
              "gapbs/pr-twitter");
    EXPECT_EQ(GapbsWorkload(gapbsBfsRoad()).info().label(),
              "gapbs/bfs-road");
    EXPECT_EQ(GapbsWorkload(gapbsSsspWeb()).info().label(),
              "gapbs/sssp-web");
}

TEST(Gapbs, TraceWithinHeapPool)
{
    GapbsWorkload workload(tinyGapbs(GapbsKernel::Pr));
    auto trace = workload.generateTrace();
    VirtAddr base = workload.primaryPoolBase();
    Bytes size = workload.primaryPoolSize();
    for (const auto &record : trace.records()) {
        ASSERT_GE(record.vaddr, base);
        ASSERT_LT(record.vaddr, base + size);
    }
}

TEST(XsBench, BinarySearchPattern)
{
    XsBenchParams params;
    params.footprint = 16_MiB;
    params.refBudget = 10000;
    XsBenchWorkload workload(params);
    auto trace = workload.generateTrace();
    EXPECT_GE(trace.size(), params.refBudget);
    // Lookups include stores (the accumulator update).
    EXPECT_GT(trace.size() - trace.numLoads(), 0u);
}

TEST(Spec, McfChasesWholeArcArray)
{
    McfParams params;
    params.arcsBytes = 8_MiB;
    params.nodesBytes = 2_MiB;
    params.refBudget = 40000;
    McfWorkload workload(params);
    auto trace = workload.generateTrace();
    // The permutation walk should touch most arc pages.
    EXPECT_GT(trace.uniquePages4k(), 1500u);
}

TEST(Spec, OmnetppSuitesDiffer)
{
    OmnetppWorkload w06(spec06Omnetpp());
    OmnetppWorkload w17(spec17OmnetppS());
    EXPECT_EQ(w06.info().label(), "spec06/omnetpp");
    EXPECT_EQ(w17.info().label(), "spec17/omnetpp_s");
    EXPECT_GT(w17.heapPoolSize(), w06.heapPoolSize());
}

TEST(Spec, XalancHasHotTreeTop)
{
    XalancParams params;
    params.nodeArenaBytes = 16_MiB;
    params.stringBytes = 2_MiB;
    params.refBudget = 60000;
    XalancWorkload workload(params);
    auto trace = workload.generateTrace();

    // The DOM root's page is touched by every descent: it must be one
    // of the most frequent pages.
    std::uint64_t root_page = trace.records()[0].vaddr >> 12;
    std::uint64_t root_hits = 0;
    for (const auto &record : trace.records())
        root_hits += (record.vaddr >> 12) == root_page;
    EXPECT_GT(root_hits, trace.size() / 100);
}

TEST(Workload, MakeAllocConfigPlacesLayoutOnPrimaryPool)
{
    GupsWorkload gups(tinyGups());
    auto layout = alloc::MosaicLayout::uniform(gups.primaryPoolSize(),
                                               alloc::PageSize::Page2M);
    auto config = gups.makeAllocConfig(layout);
    EXPECT_GT(config.heapLayout.hugeCoverage(), 0.99);
    EXPECT_DOUBLE_EQ(config.anonLayout.hugeCoverage(), 0.0);

    Graph500Params g500;
    g500.numVertices = 1u << 14;
    Graph500Workload graph(g500);
    auto glayout = alloc::MosaicLayout::uniform(
        graph.primaryPoolSize(), alloc::PageSize::Page2M);
    auto gconfig = graph.makeAllocConfig(glayout);
    EXPECT_GT(gconfig.anonLayout.hugeCoverage(), 0.99);
    EXPECT_DOUBLE_EQ(gconfig.heapLayout.hugeCoverage(), 0.0);
}

TEST(Graph, DegreesMatchKind)
{
    SyntheticGraph road(roadGraph(1u << 12));
    for (std::uint64_t u = 0; u < road.numVertices(); u += 97)
        EXPECT_LE(road.degree(u), 4u);

    SyntheticGraph twitter(twitterGraph(1u << 14));
    // Power-law: maximum degree far above the mean.
    std::uint32_t max_degree = 0;
    for (std::uint64_t u = 0; u < twitter.numVertices(); ++u)
        max_degree = std::max(max_degree, twitter.degree(u));
    double avg = static_cast<double>(twitter.numEdges()) /
                 static_cast<double>(twitter.numVertices());
    EXPECT_GT(max_degree, avg * 10);
    EXPECT_NEAR(avg, twitter.params().avgDegree, 8.0);
}

TEST(Graph, NeighborsDeterministicAndInRange)
{
    SyntheticGraph graph(twitterGraph(1u << 14));
    for (std::uint64_t u = 0; u < graph.numVertices(); u += 311) {
        for (std::uint32_t i = 0; i < std::min(graph.degree(u), 8u);
             ++i) {
            std::uint64_t v1 = graph.neighbor(u, i);
            std::uint64_t v2 = graph.neighbor(u, i);
            EXPECT_EQ(v1, v2);
            EXPECT_LT(v1, graph.numVertices());
        }
    }
}

TEST(Graph, OffsetsArePrefixSums)
{
    SyntheticGraph graph(webGraph(1u << 12));
    std::uint64_t acc = 0;
    for (std::uint64_t u = 0; u < graph.numVertices(); ++u) {
        EXPECT_EQ(graph.offset(u), acc);
        acc += graph.degree(u);
    }
    EXPECT_EQ(graph.numEdges(), acc);
}

TEST(Graph, RoadNeighborsAreGridAdjacent)
{
    SyntheticGraph road(roadGraph(1u << 12));
    std::uint64_t width = 0;
    // Recover the grid width from vertex 0's second neighbour.
    for (std::uint32_t i = 0; i < road.degree(0); ++i) {
        std::uint64_t v = road.neighbor(0, i);
        if (v > 1)
            width = v;
    }
    ASSERT_GT(width, 0u);
    for (std::uint64_t u = width + 1; u < road.numVertices() - width - 1;
         u += 131) {
        for (std::uint32_t i = 0; i < road.degree(u); ++i) {
            std::uint64_t v = road.neighbor(u, i);
            std::uint64_t diff = v > u ? v - u : u - v;
            EXPECT_TRUE(diff == 1 || diff == width)
                << "u=" << u << " v=" << v;
        }
    }
}
