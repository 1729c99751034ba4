#include "Compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "Workload.h"
#include "support/Error.h"
#include "support/Json.h"

namespace c4cam::bench {

std::vector<double>
quartiles(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const auto ld = static_cast<long>(values.size());
    if (ld == 0)
        return {0.0, 0.0, 0.0};
    if (ld == 1)
        return {values[0], values[0], values[0]};
    const long n = 4;
    const long m = ld + 1;
    std::vector<double> out;
    for (long i = 1; i < n; ++i) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        long delta = i * m - j * n;
        out.push_back((values[static_cast<std::size_t>(j - 1)] *
                           static_cast<double>(n - delta) +
                       values[static_cast<std::size_t>(j)] *
                           static_cast<double>(delta)) /
                      static_cast<double>(n));
    }
    return out;
}

namespace {

struct Bound
{
    std::string name;
    bool lowerIsBetter = true;
    double bound = 0.0;
};

/** metric -> workload -> values, over the untraced runs of one set. */
using Samples = std::map<std::string, std::map<std::string, std::vector<double>>>;

Samples
loadSet(const std::string &path, std::size_t &runs)
{
    Samples samples;
    JsonValue doc = parseJsonFile(path);
    runs = 0;
    for (const JsonValue &run : doc.asArray()) {
        if (run.getBool("traced", false))
            continue;
        ++runs;
        const std::string workload = run.getString("workload", "");
        const JsonValue *metrics = run.find("metrics");
        if (!metrics)
            continue;
        for (const auto &[name, m] : metrics->asObject())
            samples[name][workload].push_back(m.getNumber("value", 0.0));
    }
    return samples;
}

double
relative(double value, double base)
{
    if (base != 0.0)
        return value / std::abs(base);
    return value == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
}

} // namespace

int
runCompare(const std::string &a_path, const std::string &b_path,
           const std::string &bounds_path)
{
    std::vector<Bound> bounds;
    Samples a;
    Samples b;
    std::size_t a_runs = 0;
    std::size_t b_runs = 0;
    try {
        JsonValue spec = parseJsonFile(bounds_path);
        const JsonValue *end_to_end = spec.find("end_to_end");
        C4CAM_CHECK(end_to_end, bounds_path << " has no \"end_to_end\" list");
        for (const JsonValue &m : end_to_end->asArray())
            bounds.push_back({m.getString("name", ""),
                              m.getString("better", "lower") == "lower",
                              m.getNumber("bound", 0.0)});
        a = loadSet(a_path, a_runs);
        b = loadSet(b_path, b_runs);
    } catch (const CompilerError &err) {
        std::fprintf(stderr, "c4cam_bench --compare: %s\n", err.what());
        return 1;
    }

    std::printf("A: %s (%zu runs)\nB: %s (%zu runs)\n", a_path.c_str(),
                a_runs, b_path.c_str(), b_runs);
    std::printf("%-16s %-16s %6s  %-34s %-34s %8s  %s\n", "workload",
                "metric", "bound", "A median [q1, q3]", "B median [q1, q3]",
                "B vs A", "verdict");
    int worse = 0;
    int unresolved = 0;
    for (const std::string &workload : workloadNames()) {
        for (const Bound &bound : bounds) {
            const std::vector<double> &av = a[bound.name][workload];
            const std::vector<double> &bv = b[bound.name][workload];
            if (av.empty() && bv.empty())
                continue;
            if (av.empty() || bv.empty()) {
                std::printf("%-16s %-16s %6.3f  missing on one side\n",
                            workload.c_str(), bound.name.c_str(),
                            bound.bound);
                ++unresolved;
                continue;
            }
            std::vector<double> qa = quartiles(av);
            std::vector<double> qb = quartiles(bv);
            const double spread_a = relative(qa[2] - qa[0], qa[1]);
            const double spread_b = relative(qb[2] - qb[0], qb[1]);
            const double delta = relative(qb[1] - qa[1], qa[1]);
            const double worsening = bound.lowerIsBetter ? delta : -delta;
            const char *verdict = "same";
            if (spread_a > bound.bound || spread_b > bound.bound) {
                // Too noisy to call, unless every B run beats every A run.
                auto [a_lo, a_hi] = std::minmax_element(av.begin(), av.end());
                auto [b_lo, b_hi] = std::minmax_element(bv.begin(), bv.end());
                bool all_better = bound.lowerIsBetter ? *b_hi < *a_lo
                                                      : *b_lo > *a_hi;
                verdict = all_better ? "better" : "unresolved";
            } else if (worsening > bound.bound) {
                verdict = "worse";
            } else if (-worsening > bound.bound) {
                verdict = "better";
            }
            char a_text[64];
            char b_text[64];
            std::snprintf(a_text, sizeof a_text, "%.6g [%.6g, %.6g]", qa[1],
                          qa[0], qa[2]);
            std::snprintf(b_text, sizeof b_text, "%.6g [%.6g, %.6g]", qb[1],
                          qb[0], qb[2]);
            std::printf("%-16s %-16s %6.3f  %-34s %-34s %+7.2f%%  %s\n",
                        workload.c_str(), bound.name.c_str(), bound.bound,
                        a_text, b_text, delta * 100.0, verdict);
            worse += std::string(verdict) == "worse";
            unresolved += std::string(verdict) == "unresolved";
        }
    }
    std::printf("%d worse, %d unresolved\n", worse, unresolved);
    return worse > 0 ? 1 : 0;
}

} // namespace c4cam::bench
