#include "vm/frame_pool.hh"

#include <algorithm>
#include <string>

#include "mosalloc/mosalloc.hh"
#include "support/error.hh"
#include "support/logging.hh"
#include "vm/page_table.hh"

namespace mosaic::vm
{

FramePool::FramePool(const OsConfig &os)
    : os_(os)
{
    if (os_.paged())
        policy_ = makeReplacementPolicy(os_.policy);
}

PhysAddr
FramePool::allocPageTableNode()
{
    PhysAddr addr = pageTableBase + ptNodes_ * 4_KiB;
    if (addr + 4_KiB > pageTableBase + pageTableRegion)
        throw ResourceError("page-table region exhausted after " +
                            std::to_string(ptNodes_) + " nodes");
    ++ptNodes_;
    return addr;
}

PhysAddr
FramePool::allocDataFrame(alloc::PageSize size)
{
    auto &recycled = freeFrames_[static_cast<std::size_t>(size)];
    if (!recycled.empty()) {
        PhysAddr addr = recycled.back();
        recycled.pop_back();
        return addr;
    }
    Bytes frame = alloc::pageBytes(size);
    Bytes cursor = alignUp(dataCursor_, frame);
    PhysAddr addr = dataBase + cursor;
    if (addr + frame > maxPhysAddr)
        throw ResourceError(
            "simulated physical memory exhausted: allocating a " +
            std::string(alloc::pageSizeName(size)) + " frame at " +
            std::to_string(addr) + " exceeds maxPhysAddr");
    dataCursor_ = cursor + frame;
    return addr;
}

FramePool::TenantId
FramePool::registerTenant(PageTable &pt, ShootdownSink &sink)
{
    mosaic_assert(os_.paged(),
                  "registerTenant on an unbounded frame pool");
    Tenant tenant;
    tenant.pageTable = &pt;
    tenant.sink = &sink;
    tenants_.push_back(tenant);
    return static_cast<TenantId>(tenants_.size() - 1);
}

void
FramePool::addTenantPages(TenantId tenant_id,
                          const alloc::Mosalloc &allocator)
{
    mosaic_assert(tenant_id < tenants_.size(), "unknown tenant ",
                  tenant_id);
    Tenant &tenant = tenants_[tenant_id];
    allocator.forEachPageMapping([&](const alloc::PageMapping &mapping) {
        if (alloc::pageBytes(mapping.pageSize) > budgetBytes())
            throw ResourceError(
                "frame pool of " + std::to_string(os_.memFrames) +
                " frames cannot hold one " +
                std::string(alloc::pageSizeName(mapping.pageSize)) +
                " page");
        Page page;
        page.vbase = mapping.virtBase;
        page.tenant = tenant_id;
        page.size = mapping.pageSize;
        pages_.push_back(page);
        tenant.pagesByVaddr.push_back(
            static_cast<std::uint32_t>(pages_.size() - 1));
    });
    std::sort(tenant.pagesByVaddr.begin(), tenant.pagesByVaddr.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return pages_[a].vbase < pages_[b].vbase;
              });
}

std::uint32_t
FramePool::findPage(TenantId tenant_id, VirtAddr vaddr)
{
    Tenant &tenant = tenants_[tenant_id];
    if (tenant.lastPage != ~0u) {
        const Page &memo = pages_[tenant.lastPage];
        if (vaddr >= memo.vbase &&
            vaddr - memo.vbase < alloc::pageBytes(memo.size))
            return tenant.lastPage;
    }
    auto it = std::upper_bound(
        tenant.pagesByVaddr.begin(), tenant.pagesByVaddr.end(), vaddr,
        [this](VirtAddr addr, std::uint32_t id) {
            return addr < pages_[id].vbase;
        });
    mosaic_assert(it != tenant.pagesByVaddr.begin(),
                  "access to undeclared address ", vaddr);
    std::uint32_t id = *(it - 1);
    const Page &page = pages_[id];
    mosaic_assert(vaddr - page.vbase < alloc::pageBytes(page.size),
                  "access to undeclared address ", vaddr);
    tenant.lastPage = id;
    return id;
}

void
FramePool::evict(std::uint32_t victim_id, FaultOutcome &out)
{
    Page &victim = pages_[victim_id];
    mosaic_assert(victim.resident, "evicting a non-resident page");
    Tenant &owner = tenants_[victim.tenant];

    // Shootdown ordering: unmap the leaf entry first, then invalidate
    // the owner's TLBs, and only then recycle the frame — no window
    // where a cached translation could still name a reused frame.
    // The page-walk caches need no invalidation: they hold only
    // non-leaf entries, and intermediate nodes are never freed (see
    // DESIGN.md, "OS layer").
    owner.pageTable->unmap(victim.vbase, victim.size);
    owner.sink->shootdown(victim.vbase, victim.size);
    if (victim.dirty) {
        out.swapCycles += os_.writebackCycles;
        ++out.writebacks;
        ++writebacks_;
        victim.dirty = false;
    }
    freeFrames_[static_cast<std::size_t>(victim.size)].push_back(
        victim.phys);
    victim.resident = false;
    residentBytes_ -= alloc::pageBytes(victim.size);
    if (owner.lastPage == victim_id)
        owner.lastPage = ~0u;
    ++out.evictions;
    ++evictions_;
}

FramePool::FaultOutcome
FramePool::touch(TenantId tenant_id, VirtAddr vaddr, bool is_write)
{
    FaultOutcome out;
    std::uint32_t id = findPage(tenant_id, vaddr);
    Page &page = pages_[id];
    if (page.resident) {
        if (is_write)
            page.dirty = true;
        policy_->touch(id);
        return out;
    }

    Bytes need = alloc::pageBytes(page.size);
    // addTenantPages rejected pages larger than the whole budget, so
    // the eviction loop below always terminates with room to spare.
    while (residentBytes_ + need > budgetBytes())
        evict(policy_->victim(), out);

    page.phys = allocDataFrame(page.size);
    tenants_[page.tenant].pageTable->map(page.vbase, page.size,
                                         page.phys);
    page.resident = true;
    page.dirty = is_write;
    residentBytes_ += need;
    policy_->insert(id);
    out.majorFault = true;
    out.swapCycles += os_.majorFaultCycles;
    ++majorFaults_;
    return out;
}

} // namespace mosaic::vm
