/**
 * @file
 * The tiny TLB-sensitive workload the campaign and serve tests share,
 * and the quiet campaign config that runs it through CampaignRunner,
 * so the 54-layout orchestration is exercised in milliseconds.
 */

#ifndef MOSAIC_TESTS_COMMON_TINY_WORKLOAD_HH
#define MOSAIC_TESTS_COMMON_TINY_WORKLOAD_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/campaign.hh"
#include "support/random.hh"

namespace mosaic::test
{

/** "test/tiny": 12000 random reads over a 24 MiB heap pool. */
class TinyWorkload : public workloads::Workload
{
  public:
    workloads::WorkloadInfo
    info() const override
    {
        return {"test", "tiny"};
    }

    Bytes heapPoolSize() const override { return 24_MiB; }

    trace::MemoryTrace
    generateTrace() const override
    {
        trace::MemoryTrace trace;
        Rng rng(99);
        VirtAddr base = alloc::PoolAddresses::heapBase;
        for (int i = 0; i < 12000; ++i)
            trace.add(base + alignDown(rng.nextBounded(24_MiB), 8), 2,
                      false);
        return trace;
    }
};

/** Builds TinyWorkload for "test/tiny"; any other label throws. */
inline std::unique_ptr<workloads::Workload>
tinyFactory(const std::string &label)
{
    if (label != "test/tiny")
        throw std::runtime_error("unknown test workload: " + label);
    return std::make_unique<TinyWorkload>();
}

/** A quiet campaign of "test/tiny" on @p platforms (empty: the
 *  paper's three). */
inline exp::CampaignConfig
tinyCampaign(std::vector<cpu::PlatformSpec> platforms = {})
{
    exp::CampaignConfig config;
    config.verbose = false;
    config.workloads = {"test/tiny"};
    config.platforms = std::move(platforms);
    config.workloadFactory = tinyFactory;
    return config;
}

} // namespace mosaic::test

#endif // MOSAIC_TESTS_COMMON_TINY_WORKLOAD_HH
