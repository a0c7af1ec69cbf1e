#include "cpu/platform.hh"

#include "support/logging.hh"

namespace mosaic::cpu
{

namespace
{

/** Shared L1-TLB geometry: identical across all five generations. */
vm::L1TlbConfig
standardL1Tlb()
{
    vm::L1TlbConfig l1;
    l1.entries4k = 64;
    l1.ways4k = 4;
    l1.entries2m = 32;
    l1.ways2m = 4;
    l1.entries1g = 4;
    l1.ways1g = 4; // fully associative
    return l1;
}

/** Per-core L1/L2 caches are 32KB/256KB on every modelled part. */
mem::HierarchyConfig
baseHierarchy(Bytes l3_scaled, Cycles l3_lat, Cycles dram_lat)
{
    mem::HierarchyConfig config;
    config.l1 = {"L1d", 32_KiB, 8, 64};
    config.l2 = {"L2", 256_KiB, 8, 64};
    config.l3 = {"L3", l3_scaled, 16, 64};
    config.latencies.l1 = 4;
    config.latencies.l2 = 12;
    config.latencies.l3 = l3_lat;
    config.latencies.dram = dram_lat;
    return config;
}

} // namespace

PlatformSpec
sandyBridge()
{
    PlatformSpec spec;
    spec.name = "SandyBridge";
    spec.processor = "Xeon E5-2420";
    spec.year = 2011;
    spec.ghz = 1.9;
    spec.coresPerSocket = 6;
    spec.sockets = 2;
    spec.nominalMainMemory = 96_GiB;
    spec.nominalL3 = 15_MiB;
    // L3 scaled 1/16 of nominal, matching the footprint scale, so the
    // page-table working set straddles the L3 exactly as on the real
    // machines (see DESIGN.md).
    spec.hierarchy = baseHierarchy(1_MiB, 38, 200);

    spec.mmu.l1Tlb = standardL1Tlb();
    spec.mmu.l2Tlb.entries = 512;
    spec.mmu.l2Tlb.ways = 4;
    spec.mmu.l2Tlb.shares2m = false; // 4KB translations only
    spec.mmu.l2Tlb.entries1g = 0;
    spec.mmu.numWalkers = 1;
    spec.mmu.pwc = {2, 4, 32};

    spec.core.baseCpi = 0.50;
    spec.core.maxOutstanding = 10;
    spec.core.robInstructions = 168;
    return spec;
}

PlatformSpec
ivyBridge()
{
    PlatformSpec spec = sandyBridge();
    spec.name = "IvyBridge";
    spec.processor = "Xeon E5-2450 v2";
    spec.year = 2012;
    spec.ghz = 2.1;
    return spec;
}

PlatformSpec
haswell()
{
    PlatformSpec spec;
    spec.name = "Haswell";
    spec.processor = "Xeon E7-4830 v3";
    spec.year = 2013;
    spec.ghz = 2.1;
    spec.coresPerSocket = 12;
    spec.sockets = 2;
    spec.nominalMainMemory = 128_GiB;
    spec.nominalL3 = 30_MiB;
    spec.hierarchy = baseHierarchy(2_MiB, 42, 210);

    spec.mmu.l1Tlb = standardL1Tlb();
    spec.mmu.l2Tlb.entries = 1024;
    spec.mmu.l2Tlb.ways = 8;
    spec.mmu.l2Tlb.shares2m = true; // shared 4KB+2MB array
    spec.mmu.l2Tlb.entries1g = 0;
    spec.mmu.numWalkers = 1;
    spec.mmu.pwc = {2, 4, 32};

    spec.core.baseCpi = 0.45;
    spec.core.maxOutstanding = 10;
    spec.core.robInstructions = 192;
    return spec;
}

PlatformSpec
broadwell()
{
    PlatformSpec spec;
    spec.name = "Broadwell";
    spec.processor = "Xeon E7-8890 v4";
    spec.year = 2014;
    spec.ghz = 2.2;
    spec.coresPerSocket = 24;
    spec.sockets = 4;
    spec.nominalMainMemory = 512_GiB;
    spec.nominalL3 = 60_MiB;
    // Faster 2.4GHz memory: lower effective DRAM latency (Table 3).
    spec.hierarchy = baseHierarchy(4_MiB, 46, 170);

    spec.mmu.l1Tlb = standardL1Tlb();
    spec.mmu.l2Tlb.entries = 1536;
    spec.mmu.l2Tlb.ways = 12;
    spec.mmu.l2Tlb.shares2m = true;
    spec.mmu.l2Tlb.entries1g = 16;
    spec.mmu.numWalkers = 2; // second walker from Broadwell on
    spec.mmu.pwc = {2, 4, 32};

    spec.core.baseCpi = 0.42;
    spec.core.maxOutstanding = 12;
    spec.core.robInstructions = 192;
    return spec;
}

PlatformSpec
skylake()
{
    PlatformSpec spec = broadwell();
    spec.name = "Skylake";
    spec.processor = "Xeon Gold 6130";
    spec.year = 2015;
    spec.ghz = 2.1;
    spec.core.robInstructions = 224;
    return spec;
}

std::vector<PlatformSpec>
paperPlatforms()
{
    return {broadwell(), haswell(), sandyBridge()};
}

std::vector<PlatformSpec>
allPlatforms()
{
    return {sandyBridge(), ivyBridge(), haswell(), broadwell(), skylake()};
}

Result<PlatformSpec>
findPlatform(const std::string &name)
{
    for (auto &spec : allPlatforms()) {
        if (spec.name == name)
            return spec;
    }
    return configError("unknown platform '" + name + "'");
}

PlatformSpec
platformByName(const std::string &name)
{
    auto found = findPlatform(name);
    if (!found.ok())
        mosaic_fatal(found.error().message());
    return found.value();
}

} // namespace mosaic::cpu
