#ifndef C4CAM_BENCHMARK_COMPARE_H
#define C4CAM_BENCHMARK_COMPARE_H

#include <string>
#include <vector>

namespace c4cam::bench {

/**
 * Quartiles of @p values by the "exclusive" method of Python's
 * statistics.quantiles(values, n=4): {q1, median, q3}.
 */
std::vector<double> quartiles(std::vector<double> values);

/**
 * c4cam_bench --compare: compare two sets of untraced runs (JSON arrays
 * of run records written with --json-out) metric by metric and
 * workload by workload, using the end-to-end metrics, directions and
 * bounds of @p bounds_path (BENCHMARK.json). Prints each side's median
 * and quartiles and a verdict: better, same, worse, or unresolved when
 * a side's quartile spread exceeds the bound. @return 1 when any pair
 * is worse or a file cannot be read, else 0.
 */
int runCompare(const std::string &a_path, const std::string &b_path,
               const std::string &bounds_path);

} // namespace c4cam::bench

#endif // C4CAM_BENCHMARK_COMPARE_H
