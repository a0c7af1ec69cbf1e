#include "support/fault_injector.hh"

#include <cstdlib>

#include "support/str.hh"

namespace mosaic
{

namespace
{

constexpr const char *siteNames[] = {
    "csv-truncate", "csv-open",      "lasso-nan",    "sim-lane",
    "store-open",   "store-corrupt", "store-commit",
};

static_assert(sizeof(siteNames) / sizeof(siteNames[0]) ==
                  static_cast<std::size_t>(FaultSite::NumSites),
              "site name table out of sync");

/** xorshift64: small, fast, and plenty for picking corruption bits. */
std::uint64_t
nextRandom(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

} // namespace

Result<FaultSite>
faultSiteByName(const std::string &name)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(FaultSite::NumSites); ++i) {
        if (name == siteNames[i])
            return static_cast<FaultSite>(i);
    }
    return configError("unknown fault site '" + name + "'");
}

const char *
faultSiteName(FaultSite site)
{
    return siteNames[static_cast<std::size_t>(site)];
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &site : sites_) {
        site.armed.store(false, std::memory_order_release);
        site.fireOn.store(0, std::memory_order_relaxed);
        site.hits.store(0, std::memory_order_relaxed);
    }
    rngState_ = 1;
}

void
FaultInjector::arm(FaultSite site, std::uint64_t nth)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &state = sites_[static_cast<std::size_t>(site)];
    // fireOn/hits must be in place before the armed flag is visible:
    // a worker that observes armed==true (acquire) must never read the
    // previous arming's trigger or count.
    state.fireOn.store(nth, std::memory_order_relaxed);
    state.hits.store(0, std::memory_order_relaxed);
    state.armed.store(true, std::memory_order_release);
}

void
FaultInjector::setSeed(std::uint64_t seed)
{
    std::lock_guard<std::mutex> lock(mutex_);
    rngState_ = seed ? seed : 1; // xorshift dies on zero state
}

Result<void>
FaultInjector::configure(const std::string &spec)
{
    for (const auto &entry : splitString(spec, ',')) {
        std::string item = trimString(entry);
        if (item.empty())
            continue;
        auto fields = splitString(item, ':');
        if (fields.size() != 2) {
            return configError("bad fault spec entry '" + item +
                              "' (want site:count)");
        }
        std::string key = trimString(fields[0]);
        std::string count = trimString(fields[1]);
        if (key == "seed") {
            try {
                setSeed(std::stoull(count));
            } catch (const std::exception &) {
                return configError("bad fault seed '" + count + "'");
            }
            continue;
        }
        auto site = faultSiteByName(key);
        if (!site.ok())
            return site.error();
        std::uint64_t nth = 0;
        if (count != "*") {
            try {
                nth = std::stoull(count);
            } catch (const std::exception &) {
                return configError("bad fault count '" + count + "' for " +
                                  key);
            }
        }
        arm(site.value(), nth);
    }
    return {};
}

void
FaultInjector::configureFromEnv()
{
    if (const char *env = std::getenv("MOSAIC_FAULTS")) {
        auto result = configure(env);
        if (!result.ok()) {
            // A bad spec must not silently disable injection the user
            // asked for; surface it loudly at startup.
            throw std::runtime_error("MOSAIC_FAULTS: " +
                                     result.error().str());
        }
    }
}

bool
FaultInjector::shouldFail(FaultSite site)
{
    auto &state = sites_[static_cast<std::size_t>(site)];
    if (!state.armed.load(std::memory_order_acquire))
        return false;
    // fetch_add hands every racing worker a distinct hit number, so an
    // "nth hit" fault fires in exactly one of them and the hit tally
    // never loses increments under parallel workers.
    std::uint64_t hit =
        state.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t fire_on = state.fireOn.load(std::memory_order_relaxed);
    return fire_on == 0 || hit == fire_on;
}

std::uint64_t
FaultInjector::hits(FaultSite site) const
{
    return sites_[static_cast<std::size_t>(site)].hits.load(
        std::memory_order_relaxed);
}

void
FaultInjector::corruptBuffer(void *data, std::size_t size)
{
    if (size == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto *bytes = static_cast<unsigned char *>(data);
    // Flip one bit in each of up to 4 deterministic positions.
    for (int i = 0; i < 4; ++i) {
        std::uint64_t r = nextRandom(rngState_);
        bytes[r % size] ^= static_cast<unsigned char>(1u << (r >> 32) % 8);
    }
}

} // namespace mosaic
