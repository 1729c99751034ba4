#ifndef C4CAM_BENCH_BENCHUTILS_H
#define C4CAM_BENCH_BENCHUTILS_H

/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Simulated latency/energy are deterministic functions of the workload
 * and architecture, so each bench executes a reduced query batch and
 * scales the latency/energy to the paper's full query count (power and
 * all ratios are unaffected by the scaling). Wall-clock measurement is
 * only meaningful for the compiler itself (see compiler_throughput).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/Hdc.h"
#include "apps/Workloads.h"
#include "core/Compiler.h"
#include "sim/Timing.h"
#include "support/Json.h"

namespace c4cam::bench {

/**
 * Machine-readable bench results: every bench_* binary accepts
 * `--json-out FILE` and writes its headline metrics as one JSON
 * object, so CI can archive the perf trajectory (BENCH_*.json
 * artifacts) instead of scraping stdout tables.
 *
 * Emission goes through support::Json (JsonValue::dump), never
 * hand-rolled string concatenation: dump() escapes quotes, backslashes
 * and control characters, so a kernel name or file path containing any
 * of them still produces valid BENCH_*.json.
 *
 *   bench::JsonOut jout;
 *   // inside the arg loop:
 *   if (jout.tryParseArg(argc, argv, i)) continue;
 *   ...
 *   jout.set("wall_qps", qps);
 *   jout.set("session", total.toJson());
 *   return jout.write() ? 0 : 1;
 */
class JsonOut
{
  public:
    /**
     * Consume `--json-out FILE` at position @p i of argv (mutating
     * @p i past the value). @return true when the flag was consumed.
     */
    bool
    tryParseArg(int argc, char **argv, int &i)
    {
        if (std::strcmp(argv[i], "--json-out") != 0)
            return false;
        if (i + 1 >= argc) {
            std::fprintf(stderr, "--json-out requires a file path\n");
            std::exit(2);
        }
        path_ = argv[++i];
        return true;
    }

    bool enabled() const { return !path_.empty(); }

    void
    set(const std::string &key, double value)
    {
        obj_.set(key, JsonValue(value));
    }

    void
    set(const std::string &key, const std::string &value)
    {
        obj_.set(key, JsonValue(value));
    }

    /** Nest @p value (a PerfReport's toJson(), one leg of a
     *  multi-leg bench, ...) under @p key. */
    void
    set(const std::string &key, JsonValue value)
    {
        obj_.set(key, std::move(value));
    }

    /**
     * Write the collected object to the `--json-out` path. No-op
     * (returning true) when the flag was not given; prints a
     * diagnostic and returns false when the file cannot be written.
     */
    bool
    write() const
    {
        if (!enabled())
            return true;
        std::ofstream out(path_);
        if (!out.good()) {
            std::fprintf(stderr, "cannot write --json-out file '%s'\n",
                         path_.c_str());
            return false;
        }
        out << obj_.dump(2) << "\n";
        return out.good();
    }

  private:
    std::string path_;
    JsonValue obj_ = JsonValue::makeObject();
};

/** One measured configuration, scaled to @p scaled_queries. */
struct Measurement
{
    sim::PerfReport perf;        ///< raw (reduced-batch) report
    double scale = 1.0;          ///< query-count scale factor

    double latencyMs() const
    {
        return perf.queryLatencyNs * scale * 1e-6;
    }
    double latencyNsPerQuery(std::int64_t queries) const
    {
        return perf.queryLatencyNs / double(queries);
    }
    double energyUj() const { return perf.queryEnergyPj * scale * 1e-6; }
    double energyPjPerQuery(std::int64_t queries) const
    {
        return perf.queryEnergyPj / double(queries);
    }
    double powerMw() const { return perf.avgPowerMw(); }
    double edpNJs() const
    {
        return (perf.queryEnergyPj * scale * 1e-3) *
               (perf.queryLatencyNs * scale * 1e-9);
    }
};

/** Compile the HDC dot kernel for @p spec and run @p workload. */
inline Measurement
runHdcOnCam(const arch::ArchSpec &spec, const apps::HdcWorkload &workload,
            std::size_t run_queries, double scaled_queries)
{
    std::vector<std::vector<float>> queries(
        workload.queryHvs.begin(),
        workload.queryHvs.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(run_queries, workload.queryHvs.size())));

    core::CompilerOptions options;
    options.spec = spec;
    core::Compiler compiler(options);
    const std::string source =
        workload.bits == 1
            ? apps::dotSimilaritySource(
                  static_cast<std::int64_t>(queries.size()),
                  workload.numClasses, workload.dimensions, 1)
            : apps::knnEuclideanSource(
                  static_cast<std::int64_t>(queries.size()),
                  workload.numClasses, workload.dimensions, 1);
    core::CompiledKernel kernel = compiler.compileTorchScript(source);
    core::ExecutionResult result =
        kernel.run({rt::Buffer::fromMatrix(queries),
                    rt::Buffer::fromMatrix(workload.classHvs)});

    Measurement m;
    m.perf = result.perf;
    m.scale = scaled_queries / double(queries.size());
    return m;
}

/** printf a separator line of the given width. */
inline void
rule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

} // namespace c4cam::bench

#endif // C4CAM_BENCH_BENCHUTILS_H
