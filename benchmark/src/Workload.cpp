#include "Workload.h"

namespace c4cam::bench {

void
Workload::servingCounters(MetricSet &out) const
{
    out.set("core.fused_windows", 0.0, "count");
    out.set("core.single_dispatches", 0.0, "count");
    out.set("core.mean_fused_k", 0.0, "queries");
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "hdc-closed", "knn-shard", "dse-sweep", "dtree-acam"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const RunConfig &config)
{
    if (name == "dse-sweep")
        return makeDseWorkload(config);
    if (name == "dtree-acam")
        return makeDtreeWorkload(config);
    for (const std::string &known : workloadNames())
        if (known == name)
            return makeServingWorkload(name, config);
    return nullptr;
}

} // namespace c4cam::bench
