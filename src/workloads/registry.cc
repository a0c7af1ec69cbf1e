#include "workloads/registry.hh"

#include "support/logging.hh"
#include "workloads/gapbs.hh"
#include "workloads/graph500.hh"
#include "workloads/gups.hh"
#include "workloads/spec.hh"
#include "workloads/xsbench.hh"

namespace mosaic::workloads
{

namespace
{

template <typename W, typename P>
RegistryEntry
entry(const std::string &label, P params)
{
    return RegistryEntry{
        label, [params] { return std::make_unique<W>(params); }};
}

std::vector<RegistryEntry>
buildRegistry()
{
    std::vector<RegistryEntry> registry;
    // Order follows the Figure 5 x-axis (bottom-up in the chart).
    registry.push_back(entry<GupsWorkload>("gups/32GB", gupsLarge()));
    registry.push_back(entry<GupsWorkload>("gups/16GB", gupsMedium()));
    registry.push_back(entry<GupsWorkload>("gups/8GB", gupsSmall()));
    registry.push_back(
        entry<Graph500Workload>("graph500/8GB", graph500Large()));
    registry.push_back(
        entry<Graph500Workload>("graph500/4GB", graph500Medium()));
    registry.push_back(
        entry<Graph500Workload>("graph500/2GB", graph500Small()));
    registry.push_back(entry<McfWorkload>("spec06/mcf", spec06Mcf()));
    registry.push_back(
        entry<OmnetppWorkload>("spec06/omnetpp", spec06Omnetpp()));
    registry.push_back(
        entry<OmnetppWorkload>("spec17/omnetpp_s", spec17OmnetppS()));
    registry.push_back(
        entry<XalancWorkload>("spec17/xalancbmk_s", spec17XalancbmkS()));
    registry.push_back(
        entry<XsBenchWorkload>("xsbench/16GB", xsbenchLarge()));
    registry.push_back(
        entry<XsBenchWorkload>("xsbench/8GB", xsbenchMedium()));
    registry.push_back(
        entry<XsBenchWorkload>("xsbench/4GB", xsbenchSmall()));
    registry.push_back(
        entry<GapbsWorkload>("gapbs/sssp-web", gapbsSsspWeb()));
    registry.push_back(
        entry<GapbsWorkload>("gapbs/bfs-twitter", gapbsBfsTwitter()));
    registry.push_back(
        entry<GapbsWorkload>("gapbs/bc-twitter", gapbsBcTwitter()));
    registry.push_back(
        entry<GapbsWorkload>("gapbs/sssp-twitter", gapbsSsspTwitter()));
    registry.push_back(
        entry<GapbsWorkload>("gapbs/pr-twitter", gapbsPrTwitter()));
    registry.push_back(
        entry<GapbsWorkload>("gapbs/bfs-road", gapbsBfsRoad()));
    return registry;
}

} // namespace

const std::vector<RegistryEntry> &
workloadRegistry()
{
    static const std::vector<RegistryEntry> registry = buildRegistry();
    return registry;
}

std::vector<std::string>
workloadLabels()
{
    std::vector<std::string> labels;
    for (const auto &item : workloadRegistry())
        labels.push_back(item.label);
    return labels;
}

Result<std::unique_ptr<Workload>>
findWorkload(const std::string &label)
{
    for (const auto &item : workloadRegistry()) {
        if (item.label == label)
            return item.make();
    }
    return configError("unknown workload '" + label + "'");
}

std::unique_ptr<Workload>
makeWorkload(const std::string &label)
{
    auto found = findWorkload(label);
    if (!found.ok())
        mosaic_fatal(found.error().message());
    return std::move(found.value());
}

} // namespace mosaic::workloads
