#include "memhier/cache.hh"

#include "support/logging.hh"

namespace mosaic::mem
{

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    mosaic_assert(isPowerOfTwo(config.lineSize), "line size must be 2^n");
    mosaic_assert(config.ways >= 1, "need at least one way");
    mosaic_assert(config.ways <= lru::kMaxWays,
                  "packed LRU stack caps associativity at ",
                  lru::kMaxWays, " in ", config.name);
    Bytes lines = config.capacity / config.lineSize;
    mosaic_assert(lines % config.ways == 0,
                  "capacity/line/ways mismatch in ", config.name);
    numSets_ = lines / config.ways;
    mosaic_assert(isPowerOfTwo(numSets_),
                  "set count must be a power of two in ", config.name);
    setMask_ = numSets_ - 1;
    lineShift_ = floorLog2(config.lineSize);
    setShift_ = floorLog2(numSets_);
    numWays_ = config.ways;
    // Tags are stored 32-bit. For the unrolled fast arms (8/16 ways —
    // every cache a modelled platform instantiates), prove here, once,
    // that any address the FramePool can mint (< kMaxSimPhysAddr, asserted
    // per allocation) tags below the empty-way sentinel, so the replay
    // access path needs no per-access range check. Other
    // associativities take the generic arm, which checks the tag per
    // access instead — tiny test geometries (e.g. a 2-set L1) cannot
    // satisfy the structural bound but also never see such addresses.
    if (numWays_ == 8 || numWays_ == 16) {
        mosaic_assert(
            (kMaxSimPhysAddr >> lineShift_ >> setShift_) < kEmptyTag,
            "32-bit tags cannot span kMaxSimPhysAddr in ",
            config.name);
    }
    tags_.assign(numSets_ * config.ways, kEmptyTag);
    lruStack_.assign(numSets_, lru::kSeed);
}

void
Cache::flush()
{
    tags_.assign(tags_.size(), kEmptyTag);
    lruStack_.assign(lruStack_.size(), lru::kSeed);
}

} // namespace mosaic::mem
