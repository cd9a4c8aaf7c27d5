/**
 * @file
 * One benchmark run: set-up processes, the time-bounded loop of
 * units, the correctness check and the metrics it reports.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "workloads.hh"

namespace perfbench
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Metrics of an untraced run (BENCHMARK.json end_to_end). */
const std::vector<MetricDef> &endToEndMetrics();

/**
 * Metrics of a traced run (BENCHMARK.json per_layer). Every workload
 * reports all of them; a layer the workload does not drive reads 0.
 */
const std::vector<MetricDef> &perLayerMetrics();

struct Options
{
    std::string workload;
    std::uint64_t seed = kGoldenSeed;
    double seconds = 20.0;
    bool trace = false;
    /** Scratch directory for journals and the span log. */
    std::string workdir = ".";
    /** golden.json; empty skips the golden comparison. */
    std::string golden;
    /** This benchmark's executable, spawned for set-up timing. */
    std::string exe;
    std::string gitRev = "unknown";
    Sizes sizes;
};

struct Report
{
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> failures;
    std::map<std::string, double> metrics;
    /** Sample counts behind the medians and percentiles. */
    std::map<std::string, double> samples;
    /** Measured seconds of every untraced unit, in run order. */
    std::vector<double> unitSeconds;

    bool correct() const { return failed == 0 && attempted > 0; }

    /** The result document: correct/attempted/failed/metrics plus
     *  the sample counts, failures and the build stamp. */
    afcsim::JsonValue toJson(const Options &o) const;
};

/** Run the workload as `o` says. */
Report runBenchmark(const Options &o);

/**
 * Set-up time of one fresh process: the host seconds from spawning
 * `o.exe --setup-only` to the moment its first simulated cycle could
 * start.
 */
double spawnSetup(const Options &o);

/** Build stamp: nproc, git revision, build type, compiler. */
afcsim::JsonValue stamp(const Options &o);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
