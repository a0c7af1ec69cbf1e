/**
 * @file
 * Platform presets mirroring Tables 3 and 4 of the paper.
 *
 * Three platforms are measured in the paper (SandyBridge, Haswell,
 * Broadwell Xeons); IvyBridge and Skylake presets are provided as well
 * since Table 4 documents them. Cache capacities at the L3 are scaled
 * down by the same factor as workload footprints (see DESIGN.md) so
 * the cacheability regimes match; the nominal paper values are kept
 * for reporting.
 */

#ifndef MOSAIC_CPU_PLATFORM_HH
#define MOSAIC_CPU_PLATFORM_HH

#include <string>
#include <vector>

#include "cpu/core.hh"
#include "memhier/hierarchy.hh"
#include "support/error.hh"
#include "vm/mmu.hh"

namespace mosaic::cpu
{

/** A complete machine description. */
struct PlatformSpec
{
    std::string name;      ///< microarchitecture, e.g. "SandyBridge"
    std::string processor; ///< e.g. "Xeon E5-2420"
    int year = 0;
    double ghz = 0.0;
    int coresPerSocket = 0;
    int sockets = 0;
    Bytes nominalMainMemory = 0; ///< Table 3 value
    Bytes nominalL3 = 0;         ///< Table 3 value (unscaled)

    mem::HierarchyConfig hierarchy;
    vm::MmuConfig mmu;
    CoreParams core;
};

/** 2011 Xeon E5-2420: 512-entry 4KB-only L2 TLB, one walker. */
PlatformSpec sandyBridge();

/** 2012 refresh of SandyBridge (identical TLBs, Table 4). */
PlatformSpec ivyBridge();

/** 2013 Xeon E7-4830 v3: 1024 shared 4KB+2MB entries, one walker. */
PlatformSpec haswell();

/** 2014 Xeon E7-8890 v4: 1536 shared + 16 x 1GB, two walkers. */
PlatformSpec broadwell();

/** 2015 generation: same TLB organization as Broadwell (Table 4). */
PlatformSpec skylake();

/** The three platforms the paper measures (Table 3). */
std::vector<PlatformSpec> paperPlatforms();

/** All five generations of Table 4. */
std::vector<PlatformSpec> allPlatforms();

/** Look up a platform by (case-sensitive) name; an unknown name is a
 *  Config error naming it. */
Result<PlatformSpec> findPlatform(const std::string &name);

/** findPlatform(), fatal if the name is unknown. */
PlatformSpec platformByName(const std::string &name);

} // namespace mosaic::cpu

#endif // MOSAIC_CPU_PLATFORM_HH
