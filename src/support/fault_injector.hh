/**
 * @file
 * Deterministic fault injection for exercising recovery paths.
 *
 * Every recovery path in the campaign engine — corrupt-store
 * regeneration, CSV row skipping, open retries, Lasso degradation —
 * is driven by tests through this hook rather than assumed to work.
 * Faults are armed per site, fire on the N-th hit of that site (or on
 * every hit), and all randomness (corruption offsets, bit picks) comes
 * from a seeded generator so failures reproduce exactly.
 *
 * Configuration is programmatic (tests) or via the MOSAIC_FAULTS
 * environment variable (whole-binary runs), e.g.:
 *
 *   MOSAIC_FAULTS="store-open:3,store-corrupt:1,seed:42"
 *
 * fails the 3rd trace-store open and corrupts the 1st store written,
 * with corruption offsets drawn from seed 42. A count of "*" arms the
 * site for every hit. An unset/empty spec disables all sites, which is
 * the production default — every check is a single relaxed branch.
 */

#ifndef MOSAIC_SUPPORT_FAULT_INJECTOR_HH
#define MOSAIC_SUPPORT_FAULT_INJECTOR_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "support/error.hh"

namespace mosaic
{

/** Instrumented failure points. */
enum class FaultSite : std::size_t
{
    CsvTruncate,  ///< a dataset CSV row is emitted half-written
    CsvOpen,      ///< open of the dataset CSV reports failure
    LassoNan,     ///< a NaN is injected into the Lasso design matrix
    SimLane,      ///< building one simulation lane (cell/layout) fails
    StoreOpen,    ///< open/mmap of a columnar trace store fails
    StoreCorrupt, ///< bytes of a written store column are flipped
    StoreCommit,  ///< a store is published without its commit marker
    ShardWrite,   ///< writing a shard CSV reports failure
    MergeRead,    ///< reading a shard CSV during merge fails
    NumSites
};

/** Parse "store-open" etc.; Config error for unknown names. */
Result<FaultSite> faultSiteByName(const std::string &name);

/** Inverse of faultSiteByName(). */
const char *faultSiteName(FaultSite site);

/**
 * Process-wide registry of armed faults. Thread-safe: campaign workers
 * hit sites concurrently and counters must not be lost. Hit counting
 * is lock-free (atomic fetch-add), so an "nth hit" fault fires exactly
 * once no matter how many workers race through the site, and a site
 * that was never armed really does cost a single relaxed load on the
 * hot path. Configuration (arm/reset/seed) takes a mutex; it happens
 * at test setup, never while the replay loop runs.
 */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /** Disarm every site and reset hit counters and the RNG. */
    void reset();

    /**
     * Arm @p site to fire on its @p nth hit (1-based). @p nth == 0
     * fires on every hit.
     */
    void arm(FaultSite site, std::uint64_t nth);

    /** Seed for corruption-offset randomness (default 1). */
    void setSeed(std::uint64_t seed);

    /**
     * Parse a "site:count,site:count,seed:N" spec. Returns a Config
     * error on unknown site names or malformed counts; sites parsed
     * before the error remain armed.
     */
    Result<void> configure(const std::string &spec);

    /** configure() from $MOSAIC_FAULTS if set; ignores empty. */
    void configureFromEnv();

    /**
     * Record a hit at @p site and report whether the armed fault
     * fires. Sites that were never armed cost one load and compare.
     */
    bool shouldFail(FaultSite site);

    /** Total hits recorded at @p site (fired or not). */
    std::uint64_t hits(FaultSite site) const;

    /** Deterministically flip a few bits of @p data. */
    void corruptBuffer(void *data, std::size_t size);

  private:
    FaultInjector() = default;

    struct SiteState
    {
        /** Armed flag, released after fireOn is in place (arm()). */
        std::atomic<bool> armed{false};

        std::atomic<std::uint64_t> fireOn{0}; ///< 0 = every hit
        std::atomic<std::uint64_t> hits{0};
    };

    /** Serializes configuration and the corruption RNG, not hits. */
    mutable std::mutex mutex_;

    std::array<SiteState, static_cast<std::size_t>(FaultSite::NumSites)>
        sites_;
    std::uint64_t rngState_ = 1;
};

/** Shorthand for FaultInjector::instance(). */
inline FaultInjector &
faults()
{
    return FaultInjector::instance();
}

} // namespace mosaic

#endif // MOSAIC_SUPPORT_FAULT_INJECTOR_HH
