/**
 * @file
 * The benchmark registry: all 19 TLB-sensitive workloads of Table 5 /
 * Figure 5, constructible by paper label.
 */

#ifndef MOSAIC_WORKLOADS_REGISTRY_HH
#define MOSAIC_WORKLOADS_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/error.hh"
#include "workloads/workload.hh"

namespace mosaic::workloads
{

/** Factory entry for one benchmark. */
struct RegistryEntry
{
    std::string label; ///< "suite/name" as in the paper's figures
    std::function<std::unique_ptr<Workload>()> make;
};

/** All 19 benchmarks, in the order of the paper's Figure 5 x-axis. */
const std::vector<RegistryEntry> &workloadRegistry();

/** Paper labels only, in registry order. */
std::vector<std::string> workloadLabels();

/** Construct a workload by its paper label; an unknown label is a
 *  Config error naming it. */
Result<std::unique_ptr<Workload>> findWorkload(const std::string &label);

/** findWorkload(), fatal if the label is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &label);

} // namespace mosaic::workloads

#endif // MOSAIC_WORKLOADS_REGISTRY_HH
