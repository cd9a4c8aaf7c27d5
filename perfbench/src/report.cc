#include "report.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hh"
#include "stats.hh"

extern char **environ;

namespace perfbench
{

using afcsim::JsonValue;

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"sim_cycles_per_s", "1/s"},
        {"router_cycles_per_s", "1/s"},
        {"batch_ms_p50", "ms"},
        {"batch_ms_p90", "ms"},
        {"peak_rss_mb", "MiB"},
        {"ok_frac", "ratio"},
        {"sim_pkt_latency_cyc", "cycles"},
        {"sim_pj_per_flit", "pJ"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"network.setup_s", "s"},
        {"network.step_ns_per_router_cycle", "ns"},
        {"network.ns_per_flit_hop", "ns"},
        {"network.shard_speedup", "ratio"},
        {"network.flit_hops", "count"},
        {"network.flits_delivered", "count"},
        {"network.packets_delivered", "count"},
        {"router.step_ns_low_load", "ns"},
        {"router.step_ns_high_load", "ns"},
        {"router.bp_fraction", "ratio"},
        {"router.forward_switches", "count"},
        {"router.reverse_switches", "count"},
        {"router.gossip_switches", "count"},
        {"router.deflections", "count"},
        {"router.credit_stalls", "count"},
        {"traffic.tick_ns_per_cycle", "ns"},
        {"traffic.flits_offered", "count"},
        {"sim.step_ns_per_router_cycle", "ns"},
        {"sim.transactions", "count"},
        {"sim.tx_latency_cyc", "cycles"},
        {"search.probes", "count"},
        {"search.probe_cycles", "cycles"},
        {"search.probe_ms_p50", "ms"},
        {"search.probe_ms_p90", "ms"},
        {"search.final_run_ms", "ms"},
        {"exp.worker_idle_frac", "ratio"},
        {"exp.journal_overhead_frac", "ratio"},
        {"ckpt.bytes_written", "bytes"},
        {"fault.corruptions", "count"},
        {"fault.flits_retransmitted", "count"},
        {"fault.packets_failed", "count"},
        {"fault.probe_ms_p50", "ms"},
        {"bench.trace_overhead_frac", "ratio"},
    };
    return defs;
}

namespace
{

/**
 * Fresh processes spawned before each unit; setup_s is the median of
 * all of them. Spreading the spawns over the run keeps one short
 * hiccup of the host from moving the median.
 */
constexpr int kSetupSpawnsPerUnit = 3;

JsonValue
loadGolden(const Options &o)
{
    if (o.golden.empty() || o.seed != kGoldenSeed || !o.sizes.isDefault())
        return JsonValue();
    std::ifstream in(o.golden);
    if (!in)
        AFCSIM_CONFIG_ERROR("cannot read golden file '", o.golden, "'");
    std::stringstream ss;
    ss << in.rdbuf();
    std::string error;
    JsonValue doc = JsonValue::parse(ss.str(), &error);
    if (!error.empty() || !doc.isObject())
        AFCSIM_CONFIG_ERROR("malformed golden file '", o.golden, "': ", error);
    return doc;
}

void
checkAll(Checker &checker, const std::vector<Operation> &ops, Report &r)
{
    for (const Operation &op : ops) {
        std::string why = checker.check(op);
        if (!why.empty())
            r.failures.push_back(op.id + ": " + why);
    }
}

} // namespace

double
spawnSetup(const Options &o)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);

    std::string seed = std::to_string(o.seed);
    std::vector<std::string> args = {o.exe, "--setup-only", "--workload",
                                     o.workload, "--seed", seed,
                                     "--workdir", o.workdir};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_t pid = 0;
    std::int64_t t0 = nowNs();
    int rc = posix_spawn(&pid, o.exe.c_str(), &actions, nullptr,
                         argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        throw std::runtime_error("cannot spawn '" + o.exe +
                                 "': " + std::strerror(rc));
    }
    std::string out;
    char buf[256];
    for (;;) {
        ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    long long firstCycle = 0;
    std::istringstream lines(out);
    std::string line;
    while (std::getline(lines, line))
        std::sscanf(line.c_str(), "first_cycle_ns %lld", &firstCycle);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || firstCycle == 0)
        throw std::runtime_error("set-up process failed: " + out);
    return static_cast<double>(firstCycle - t0) * 1e-9;
}

JsonValue
stamp(const Options &o)
{
    JsonValue s = JsonValue::object();
    s.set("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
    s.set("git_rev", o.gitRev);
    s.set("build_type", PERFBENCH_BUILD_TYPE);
    s.set("compiler", PERFBENCH_COMPILER);
    return s;
}

Report
runBenchmark(const Options &o)
{
    Report r;
    std::unique_ptr<Workload> w =
        makeWorkload(o.workload, o.seed, o.sizes, o.workdir);
    JsonValue golden = loadGolden(o);
    const JsonValue *section = golden.isObject() ? golden.find(o.workload)
                                                 : nullptr;
    if (golden.isObject() && section == nullptr)
        AFCSIM_CONFIG_ERROR("golden file has no '", o.workload, "' section");
    Checker checker(section);

    std::vector<double> setups;
    SpanLog off(false);
    SpanLog on(true);
    std::vector<Unit> untraced, traced;
    double peakRss = 0.0;
    std::int64_t t0 = nowNs();
    do {
        if (!o.trace) {
            for (int i = 0; i < kSetupSpawnsPerUnit; ++i)
                setups.push_back(spawnSetup(o));
        }
        untraced.push_back(w->run(off));
        // One unit's footprint: later units only add allocator drift.
        if (untraced.size() == 1)
            peakRss = peakRssMiB();
        if (o.trace)
            traced.push_back(w->run(on));
    } while (secondsSince(t0) < o.seconds);

    for (const std::vector<Unit> *units : {&untraced, &traced}) {
        for (const Unit &u : *units)
            checkAll(checker, u.ops, r);
    }

    std::vector<double> batches, cps, rcps;
    for (const Unit &u : untraced) {
        r.unitSeconds.push_back(u.seconds);
        batches.insert(batches.end(), u.batchMs.begin(), u.batchMs.end());
        if (u.seconds > 0.0) {
            cps.push_back(u.simCycles / u.seconds);
            rcps.push_back(u.routerCycles / u.seconds);
        }
    }
    r.samples["units"] = static_cast<double>(untraced.size());
    r.samples["batch_ms"] = static_cast<double>(batches.size());
    r.samples["setup_s"] = static_cast<double>(setups.size());

    if (o.trace) {
        for (const MetricDef &d : perLayerMetrics())
            r.metrics[d.name] = 0.0;
        std::vector<Operation> companions;
        for (const auto &[k, v] :
             w->layerMetrics(untraced, traced, on, companions))
            r.metrics[k] = v;
        checkAll(checker, companions, r);
        on.write(o.workdir + "/spans-" + o.workload + "-seed" +
                 std::to_string(o.seed) + ".json");
    } else {
        r.metrics["wall_s"] = median(r.unitSeconds);
        r.metrics["setup_s"] = median(setups);
        r.metrics["sim_cycles_per_s"] = median(cps);
        r.metrics["router_cycles_per_s"] = median(rcps);
        r.metrics["batch_ms_p50"] = quantile(batches, 0.5);
        r.metrics["batch_ms_p90"] = quantile(batches, 0.9);
        r.metrics["peak_rss_mb"] = peakRss;
        r.metrics["sim_pkt_latency_cyc"] = untraced.front().pktLatencyCyc;
        r.metrics["sim_pj_per_flit"] = untraced.front().pjPerFlit;
    }
    r.attempted = checker.attempted();
    r.failed = checker.failed();
    if (!o.trace) {
        r.metrics["ok_frac"] = r.attempted > 0
            ? static_cast<double>(r.attempted - r.failed) / r.attempted
            : 0.0;
    }
    return r;
}

JsonValue
Report::toJson(const Options &o) const
{
    JsonValue doc = JsonValue::object();
    doc.set("correct", correct());
    doc.set("attempted", attempted);
    doc.set("failed", failed);
    JsonValue m = JsonValue::object();
    const auto &defs = o.trace ? perLayerMetrics() : endToEndMetrics();
    for (const MetricDef &d : defs) {
        JsonValue v = JsonValue::object();
        v.set("value", metrics.at(d.name));
        v.set("unit", d.unit);
        m.set(d.name, std::move(v));
    }
    doc.set("metrics", std::move(m));
    JsonValue s = JsonValue::object();
    for (const auto &[k, v] : samples)
        s.set(k, v);
    doc.set("samples", std::move(s));
    JsonValue units = JsonValue::array();
    for (double t : unitSeconds)
        units.push(t);
    doc.set("unit_s", std::move(units));
    JsonValue f = JsonValue::array();
    for (const std::string &why : failures)
        f.push(why);
    doc.set("failures", std::move(f));
    doc.set("stamp", stamp(o));
    doc.set("workload", o.workload);
    doc.set("seed", o.seed);
    return doc;
}

} // namespace perfbench
