/**
 * @file
 * Tests for the deterministic fault injector.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "support/fault_injector.hh"

using namespace mosaic;

namespace
{

/** Reset the process-wide injector around every test. */
class FaultInjectorTest : public ::testing::Test
{
  protected:
    void SetUp() override { faults().reset(); }
    void TearDown() override { faults().reset(); }
};

} // namespace

TEST_F(FaultInjectorTest, DisarmedSitesNeverFire)
{
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(faults().shouldFail(FaultSite::StoreOpen));
    // Unarmed sites take the cheap path and do not count hits.
    EXPECT_EQ(faults().hits(FaultSite::StoreOpen), 0u);
}

TEST_F(FaultInjectorTest, ArmedSitesCountHits)
{
    faults().arm(FaultSite::StoreOpen, 5);
    (void)faults().shouldFail(FaultSite::StoreOpen);
    (void)faults().shouldFail(FaultSite::StoreOpen);
    EXPECT_EQ(faults().hits(FaultSite::StoreOpen), 2u);
}

TEST_F(FaultInjectorTest, FiresOnNthHitOnly)
{
    faults().arm(FaultSite::CsvOpen, 3);
    EXPECT_FALSE(faults().shouldFail(FaultSite::CsvOpen)); // 1st
    EXPECT_FALSE(faults().shouldFail(FaultSite::CsvOpen)); // 2nd
    EXPECT_TRUE(faults().shouldFail(FaultSite::CsvOpen));  // 3rd fires
    EXPECT_FALSE(faults().shouldFail(FaultSite::CsvOpen)); // 4th
}

TEST_F(FaultInjectorTest, ZeroMeansEveryHit)
{
    faults().arm(FaultSite::LassoNan, 0);
    EXPECT_TRUE(faults().shouldFail(FaultSite::LassoNan));
    EXPECT_TRUE(faults().shouldFail(FaultSite::LassoNan));
}

TEST_F(FaultInjectorTest, SitesAreIndependent)
{
    faults().arm(FaultSite::StoreOpen, 1);
    EXPECT_FALSE(faults().shouldFail(FaultSite::StoreCorrupt));
    EXPECT_TRUE(faults().shouldFail(FaultSite::StoreOpen));
}

TEST_F(FaultInjectorTest, ResetDisarmsAndClearsCounters)
{
    faults().arm(FaultSite::StoreOpen, 1);
    (void)faults().shouldFail(FaultSite::StoreOpen);
    faults().reset();
    EXPECT_EQ(faults().hits(FaultSite::StoreOpen), 0u);
    EXPECT_FALSE(faults().shouldFail(FaultSite::StoreOpen));
}

TEST_F(FaultInjectorTest, SiteNamesRoundTrip)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(FaultSite::NumSites); ++i) {
        auto site = static_cast<FaultSite>(i);
        auto parsed = faultSiteByName(faultSiteName(site));
        ASSERT_TRUE(parsed.ok()) << faultSiteName(site);
        EXPECT_EQ(parsed.value(), site);
    }
    EXPECT_FALSE(faultSiteByName("no-such-site").ok());
    EXPECT_EQ(faultSiteByName("bogus").error().category(),
              ErrorCategory::Config);
}

TEST_F(FaultInjectorTest, ConfigureParsesSpec)
{
    auto result = faults().configure("store-open:3,csv-truncate:*,seed:9");
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(faults().shouldFail(FaultSite::StoreOpen)); // 1st of 3
    EXPECT_TRUE(faults().shouldFail(FaultSite::CsvTruncate)); // every
    EXPECT_TRUE(faults().shouldFail(FaultSite::CsvTruncate));
}

TEST_F(FaultInjectorTest, ConfigureRejectsGarbage)
{
    EXPECT_FALSE(faults().configure("not-a-site:1").ok());
    EXPECT_FALSE(faults().configure("store-open").ok());
    EXPECT_FALSE(faults().configure("store-open:abc").ok());
    EXPECT_TRUE(faults().configure("").ok());
}

TEST_F(FaultInjectorTest, ConcurrentHittersNeverLoseCountsAndFireOnce)
{
    // Campaign workers hammer shared fault sites concurrently; the
    // lock-free hit path must not lose counts, and "fire on the nth
    // hit" must fire for exactly one of the racing threads.
    constexpr int threads = 8;
    constexpr std::uint64_t perThread = 20000;
    constexpr std::uint64_t fireOn = threads * perThread / 2;
    faults().arm(FaultSite::StoreOpen, fireOn);

    std::atomic<std::uint64_t> fired{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::uint64_t i = 0; i < perThread; ++i) {
                if (faults().shouldFail(FaultSite::StoreOpen))
                    fired.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : pool)
        thread.join();

    EXPECT_EQ(faults().hits(FaultSite::StoreOpen),
              static_cast<std::uint64_t>(threads) * perThread);
    EXPECT_EQ(fired.load(), 1u);
}

TEST_F(FaultInjectorTest, ConcurrentEveryHitModeFiresForAllThreads)
{
    constexpr int threads = 4;
    constexpr std::uint64_t perThread = 5000;
    faults().arm(FaultSite::CsvOpen, 0); // every hit fires

    std::atomic<std::uint64_t> fired{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::uint64_t i = 0; i < perThread; ++i) {
                if (faults().shouldFail(FaultSite::CsvOpen))
                    fired.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : pool)
        thread.join();

    EXPECT_EQ(fired.load(),
              static_cast<std::uint64_t>(threads) * perThread);
    EXPECT_EQ(faults().hits(FaultSite::CsvOpen),
              static_cast<std::uint64_t>(threads) * perThread);
}

TEST_F(FaultInjectorTest, CorruptBufferIsDeterministicPerSeed)
{
    std::uint8_t a[64], b[64], c[64];
    std::memset(a, 0xAA, sizeof(a));
    std::memcpy(b, a, sizeof(a));
    std::memcpy(c, a, sizeof(a));

    faults().setSeed(7);
    faults().corruptBuffer(a, sizeof(a));
    faults().setSeed(7);
    faults().corruptBuffer(b, sizeof(b));
    faults().setSeed(8);
    faults().corruptBuffer(c, sizeof(c));

    EXPECT_EQ(std::memcmp(a, b, sizeof(a)), 0); // same seed, same damage
    std::uint8_t clean[64];
    std::memset(clean, 0xAA, sizeof(clean));
    EXPECT_NE(std::memcmp(a, clean, sizeof(a)), 0); // damage happened
    EXPECT_NE(std::memcmp(a, c, sizeof(a)), 0);     // seed matters
}
