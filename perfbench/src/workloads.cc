#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "ckpt/serial.hh"
#include "common/error.hh"
#include "exp/experiments.hh"
#include "exp/journal.hh"
#include "exp/runner.hh"
#include "network/network.hh"
#include "search/search.hh"
#include "sim/closedloop.hh"
#include "stats.hh"
#include "traffic/injector.hh"
#include "traffic/patterns.hh"

namespace perfbench
{

using afcsim::Cycle;
using afcsim::FlowControl;
using afcsim::JsonValue;
using afcsim::NetworkConfig;

namespace
{

/** Set-ups timed per traced run for network.setup_s. */
constexpr int kNetworkSetups = 3;

/** noc3x3_afc_steps: flits each node is offered per batch, so a batch
 *  lasts kNocBatchFlits / rate cycles. */
constexpr double kNocBatchFlits = 1000.0;

/** mesh16_ocean: simulated cycles per batch. */
constexpr Cycle kOceanBatchCycles = 16;

double
count(std::uint64_t v)
{
    return static_cast<double>(v);
}

/** Flits are conserved: the watchdog's books, read from outside. */
void
checkConservation(const afcsim::Network &net,
                  std::vector<std::string> &violations)
{
    std::uint64_t in = 0, out = 0;
    for (afcsim::NodeId n = 0; n < net.mesh().numNodes(); ++n) {
        const auto &life = net.nic(n).lifetime();
        in += life.flitsInjected + life.flitsRetransmitted;
        out += life.flitsDelivered + life.flitsCorrupted +
               life.flitsDuplicate + net.nic(n).queuedFlits();
    }
    out += net.flitsInFlight();
    if (in != out) {
        violations.push_back("flits not conserved: " +
                             std::to_string(in) + " in, " +
                             std::to_string(out) + " accounted");
    }
}

/** Router-side counters shared by the two kernel workloads. */
void
putRouterCounters(const afcsim::RouterStats &rs, Fingerprint &fp)
{
    fp["bp_fraction"] = rs.backpressuredFraction();
    fp["forward_switches"] = count(rs.forwardSwitches);
    fp["reverse_switches"] = count(rs.reverseSwitches);
    fp["gossip_switches"] = count(rs.gossipSwitches);
    fp["deflections"] = count(rs.flitsDeflected);
    fp["credit_stalls"] = count(rs.creditStalls);
}

void
putNetCounters(const afcsim::NetStats &st, Fingerprint &fp)
{
    fp["flits_delivered"] = count(st.flitsDelivered);
    fp["packets_delivered"] = count(st.packetsDelivered);
    fp["flit_hops"] = std::round(st.hops.sum());
}

/** Median host seconds of constructing `cfg`'s bare network. */
double
networkSetupSeconds(const NetworkConfig &cfg, SpanLog &spans)
{
    std::vector<double> s;
    for (int i = 0; i < kNetworkSetups; ++i) {
        std::int64_t t0 = nowNs();
        int id = spans.open("network.setup");
        {
            afcsim::Network net(cfg, FlowControl::Afc);
            spans.close(id);
            s.push_back(secondsSince(t0));
        }
    }
    return median(s);
}

/** Busy time of spans named `name` whose ancestor satisfies `pred`. */
template <typename Pred>
std::pair<double, double>
busyUnder(const std::vector<Span> &spans, const std::string &name,
          Pred pred)
{
    double busy = 0.0, calls = 0.0;
    for (const Span &s : spans) {
        if (s.name != name)
            continue;
        for (int p = s.parent; p >= 0; p = spans[p].parent) {
            if (pred(spans[p])) {
                busy += static_cast<double>(s.busyNs);
                calls += static_cast<double>(s.calls);
                break;
            }
        }
    }
    return {busy, calls};
}

std::pair<double, double>
busyOf(const std::vector<Span> &spans, const std::string &name)
{
    double busy = 0.0, calls = 0.0;
    for (const Span &s : spans) {
        if (s.name == name) {
            busy += static_cast<double>(s.busyNs);
            calls += static_cast<double>(s.calls);
        }
    }
    return {busy, calls};
}

/** A fingerprint entry, 0 when the operation failed before it. */
double
entry(const Fingerprint &fp, const std::string &key)
{
    auto it = fp.find(key);
    return it == fp.end() ? 0.0 : it->second;
}

/** The fingerprint of a unit's first operation. */
const Fingerprint &
firstFingerprint(const std::vector<Unit> &units)
{
    static const Fingerprint none;
    return units.empty() || units.front().ops.empty()
        ? none : units.front().ops.front().fingerprint;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<double>
unitSeconds(const std::vector<Unit> &units)
{
    std::vector<double> s;
    for (const Unit &u : units)
        s.push_back(u.seconds);
    return s;
}

double
traceOverhead(const std::vector<Unit> &untraced,
              const std::vector<Unit> &traced)
{
    return ratio(median(unitSeconds(traced)),
                 median(unitSeconds(untraced))) - 1.0;
}

/** Copy the counters every workload reports from a fingerprint. */
void
putLayerCounters(const Fingerprint &fp, std::map<std::string, double> &m)
{
    static const std::pair<const char *, const char *> kMap[] = {
        {"flit_hops", "network.flit_hops"},
        {"flits_delivered", "network.flits_delivered"},
        {"packets_delivered", "network.packets_delivered"},
        {"bp_fraction", "router.bp_fraction"},
        {"forward_switches", "router.forward_switches"},
        {"reverse_switches", "router.reverse_switches"},
        {"gossip_switches", "router.gossip_switches"},
        {"deflections", "router.deflections"},
        {"credit_stalls", "router.credit_stalls"},
    };
    for (const auto &[from, to] : kMap) {
        auto it = fp.find(from);
        if (it != fp.end())
            m[to] = it->second;
    }
}

Operation
failedOperation(const std::string &id, const std::string &what)
{
    Operation op;
    op.id = id;
    op.violations.push_back(what);
    return op;
}

// ---------------------------------------------------------------------
// noc3x3_afc_steps
// ---------------------------------------------------------------------

/**
 * The paper's 3x3 AFC mesh under uniform open-loop traffic with 35%
 * data packets. One unit steps the offered load through five equal
 * phases; the 0.5 phase crosses AFC's forward thresholds and the
 * 0.1 phases after it cross back, so both modes and both switch
 * directions run. Every phase's injector draws from the seed's
 * stream afresh (OpenLoopInjector seeds from the network config).
 */
class NocLoadSteps : public Workload
{
  public:
    static constexpr double kRates[5] = {0.1, 0.3, 0.5, 0.3, 0.1};

    NocLoadSteps(std::uint64_t seed, const Sizes &sizes) : sizes_(sizes)
    {
        cfg_.seed = seed; // Table II defaults: 3x3, AFC shape
    }

    std::int64_t
    setUp() override
    {
        Rig rig(cfg_);
        return nowNs();
    }

    Unit
    run(SpanLog &spans) override
    {
        return loadSteps(spans, cfg_, sizes_.phaseCycles, "loadsteps");
    }

    std::map<std::string, double>
    layerMetrics(const std::vector<Unit> &untraced,
                 const std::vector<Unit> &traced, const SpanLog &log,
                 std::vector<Operation> &companionOps) override
    {
        SpanLog spans(true);
        std::map<std::string, double> m;
        m["network.setup_s"] = networkSetupSeconds(cfg_, spans);

        // Shard companion: a tenth of a unit at shards 1 and 2.
        SpanLog off(false);
        Cycle shortPhase = std::max<Cycle>(sizes_.phaseCycles / 10, 1);
        NetworkConfig two = cfg_;
        two.shards = 2;
        Unit s1 = loadSteps(off, cfg_, shortPhase, "loadsteps.short");
        Unit s2 = loadSteps(off, two, shortPhase, "loadsteps.short");
        m["network.shard_speedup"] = ratio(s1.seconds, s2.seconds);
        for (Unit *u : {&s1, &s2})
            companionOps.insert(companionOps.end(), u->ops.begin(),
                                u->ops.end());

        std::vector<Span> all = log.spans();
        double routers = cfg_.numNodes();
        auto [stepNs, stepCalls] = busyOf(all, "network.step");
        auto [tickNs, tickCalls] = busyOf(all, "traffic.tick");
        m["network.step_ns_per_router_cycle"] =
            ratio(stepNs, stepCalls * routers);
        m["traffic.tick_ns_per_cycle"] = ratio(tickNs, tickCalls);
        for (auto [rate, key] : {std::pair{0.1, "router.step_ns_low_load"},
                                 std::pair{0.5, "router.step_ns_high_load"}}) {
            std::string phase = phaseName(rate);
            auto [ns, calls] = busyUnder(
                all, "network.step",
                [&](const Span &s) { return s.name == phase; });
            m[key] = ratio(ns, calls * routers);
        }

        const Fingerprint &fp = firstFingerprint(traced);
        putLayerCounters(fp, m);
        m["traffic.flits_offered"] = entry(fp, "flits_offered");
        m["network.ns_per_flit_hop"] =
            ratio(stepNs, entry(fp, "flit_hops") * count(traced.size()));
        m["bench.trace_overhead_frac"] = traceOverhead(untraced, traced);
        return m;
    }

  private:
    /** Everything the first simulated cycle needs. */
    struct Rig
    {
        explicit Rig(const NetworkConfig &cfg)
            : net(cfg, FlowControl::Afc),
              pattern(afcsim::makePattern("uniform", net.mesh()))
        {
            for (double rate : kRates) {
                phases.push_back(std::make_unique<afcsim::OpenLoopInjector>(
                    net, *pattern, rate, 0.35));
            }
        }

        afcsim::Network net;
        std::unique_ptr<afcsim::TrafficPattern> pattern;
        std::vector<std::unique_ptr<afcsim::OpenLoopInjector>> phases;
    };

    static std::string
    phaseName(double rate)
    {
        std::ostringstream os;
        os << "phase " << rate;
        return os.str();
    }

    Unit
    loadSteps(SpanLog &spans, const NetworkConfig &cfg, Cycle phaseCycles,
              const std::string &id) const
    {
        Unit u;
        try {
            Rig rig(cfg);
            afcsim::Network &net = rig.net;
            int unitSpan = spans.open("noc3x3.unit");
            std::int64_t t0 = nowNs();
            for (std::size_t ph = 0; ph < rig.phases.size(); ++ph) {
                afcsim::OpenLoopInjector &inj = *rig.phases[ph];
                // Equal offered traffic per batch keeps the batch times
                // of all phases in one population, so the percentiles
                // never sit on the edge between two phases.
                const Cycle batch = std::max<Cycle>(
                    1, std::llround(kNocBatchFlits / kRates[ph]));
                int phaseSpan = spans.open(phaseName(kRates[ph]), unitSpan);
                for (Cycle done = 0; done < phaseCycles;) {
                    Cycle n = std::min(batch, phaseCycles - done);
                    std::int64_t b0 = nowNs();
                    if (spans.enabled()) {
                        std::int64_t tick = 0, step = 0;
                        for (Cycle k = 0; k < n; ++k) {
                            std::int64_t a = nowNs();
                            inj.tick(net.now());
                            std::int64_t b = nowNs();
                            net.step();
                            std::int64_t c = nowNs();
                            tick += b - a;
                            step += c - b;
                        }
                        std::int64_t b1 = nowNs();
                        int id = spans.fold("batch", phaseSpan, b0, b1, n,
                                            b1 - b0);
                        spans.fold("traffic.tick", id, b0, b1, n, tick);
                        spans.fold("network.step", id, b0, b1, n, step);
                    } else {
                        for (Cycle k = 0; k < n; ++k) {
                            inj.tick(net.now());
                            net.step();
                        }
                    }
                    if (n == batch)
                        u.batchMs.push_back(
                            static_cast<double>(nowNs() - b0) * 1e-6);
                    done += n;
                }
                spans.close(phaseSpan);
            }
            u.seconds = secondsSince(t0);
            spans.close(unitSpan);

            u.simCycles = count(net.now());
            u.routerCycles = u.simCycles * net.mesh().numNodes();
            Operation op;
            op.id = id;
            Fingerprint &fp = op.fingerprint;
            afcsim::NetStats st = net.aggregateStats();
            afcsim::RouterStats rs = net.aggregateRouterStats();
            std::uint64_t offered = 0;
            for (const auto &inj : rig.phases)
                offered += inj->offeredFlits();
            fp["flits_offered"] = count(offered);
            putNetCounters(st, fp);
            putRouterCounters(rs, fp);
            fp["pkt_latency_cyc"] = st.packetLatency.mean();
            fp["pj_per_flit"] =
                ratio(net.aggregateEnergy().total(), count(st.flitsDelivered));
            u.pktLatencyCyc = fp["pkt_latency_cyc"];
            u.pjPerFlit = fp["pj_per_flit"];

            checkConservation(net, op.violations);
            std::uint64_t injected = 0;
            for (afcsim::NodeId n = 0; n < net.mesh().numNodes(); ++n)
                injected += net.nic(n).lifetime().flitsInjected;
            if (injected != offered)
                op.violations.push_back("offered flits never reached the "
                                        "NICs");
            if (rs.forwardSwitches == 0 || rs.reverseSwitches == 0)
                op.violations.push_back("AFC did not switch modes in both "
                                        "directions");
            if (st.flitsDelivered == 0)
                op.violations.push_back("no flits delivered");
            u.ops.push_back(std::move(op));
        } catch (const std::exception &e) {
            u.ops.push_back(failedOperation(id, e.what()));
        }
        return u;
    }

    NetworkConfig cfg_;
    Sizes sizes_;
};

// ---------------------------------------------------------------------
// mesh16_ocean
// ---------------------------------------------------------------------

/**
 * Closed-loop SPLASH-2 ocean on a 16x16 mesh (256 cores + L2 banks),
 * AFC, sim.shards = 1. One unit builds the system (timed as set-up,
 * outside the measured part) and runs it to a fixed transaction
 * budget. The timed units run one shard because two shards wait on
 * each other at every phase barrier: when another tenant of the host
 * takes one vCPU, both stall, and the unit's time doubles. The mesh
 * is 16x16, not 64x64, because a 64x64 system (225 MiB) does not stay
 * in cache, and its time then follows the other tenants' memory
 * traffic: one-shard units took 9.5 s in one run and 13 s in the
 * next.
 */
class OceanMesh : public Workload
{
  public:
    OceanMesh(std::uint64_t seed, const Sizes &sizes) : sizes_(sizes)
    {
        cfg_.width = cfg_.height = sizes.oceanMesh;
        cfg_.shards = sizes.oceanShards;
        cfg_.seed = seed;
        profile_ = afcsim::oceanWorkload();
        profile_.measureTransactions = static_cast<std::uint64_t>(
            std::llround(profile_.measureTransactions * sizes.oceanScale));
        profile_.warmupTransactions = static_cast<std::uint64_t>(
            std::llround(profile_.warmupTransactions * sizes.oceanScale));
    }

    std::int64_t
    setUp() override
    {
        afcsim::ClosedLoopSystem sys(cfg_, FlowControl::Afc, profile_);
        return nowNs();
    }

    Unit
    run(SpanLog &spans) override
    {
        return ocean(spans, cfg_);
    }

    std::map<std::string, double>
    layerMetrics(const std::vector<Unit> &untraced,
                 const std::vector<Unit> &traced, const SpanLog &log,
                 std::vector<Operation> &companionOps) override
    {
        SpanLog spans(true);
        std::map<std::string, double> m;
        m["network.setup_s"] = networkSetupSeconds(cfg_, spans);

        // Shard companion: the same unit at shards = 2.
        SpanLog off(false);
        NetworkConfig two = cfg_;
        two.shards = 2;
        Unit s2 = ocean(off, two);
        m["network.shard_speedup"] =
            ratio(median(unitSeconds(untraced)), s2.seconds);
        companionOps.insert(companionOps.end(), s2.ops.begin(),
                            s2.ops.end());

        std::vector<Span> all = log.spans();
        auto [stepNs, stepCalls] = busyOf(all, "sim.step");
        m["sim.step_ns_per_router_cycle"] =
            ratio(stepNs, stepCalls * cfg_.numNodes());

        const Fingerprint &fp = firstFingerprint(traced);
        putLayerCounters(fp, m);
        m["sim.transactions"] = entry(fp, "transactions");
        m["sim.tx_latency_cyc"] = entry(fp, "tx_latency_cyc");
        m["bench.trace_overhead_frac"] = traceOverhead(untraced, traced);
        return m;
    }

  private:
    Unit
    ocean(SpanLog &spans, const NetworkConfig &cfg) const
    {
        Unit u;
        try {
            int unitSpan = spans.open("mesh64.unit");
            int setupSpan = spans.open("sim.setup", unitSpan);
            afcsim::ClosedLoopSystem sys(cfg, FlowControl::Afc, profile_);
            spans.close(setupSpan);

            const Cycle batch = kOceanBatchCycles;
            std::int64_t t0 = nowNs();
            while (!sys.done()) {
                Cycle c0 = sys.cycle();
                std::int64_t b0 = nowNs();
                std::int64_t busy = 0;
                std::uint64_t calls = 0;
                for (Cycle k = 0; k < batch && !sys.done(); ++k) {
                    std::int64_t a = spans.enabled() ? nowNs() : 0;
                    sys.step();
                    if (spans.enabled()) {
                        busy += nowNs() - a;
                        ++calls;
                    }
                }
                std::int64_t b1 = nowNs();
                spans.fold("sim.step", unitSpan, b0, b1, calls, busy);
                if (sys.cycle() - c0 == batch)
                    u.batchMs.push_back(static_cast<double>(b1 - b0) * 1e-6);
            }
            int finishSpan = spans.open("sim.finish", unitSpan);
            afcsim::ClosedLoopResult r = sys.finish();
            spans.close(finishSpan);
            u.seconds = secondsSince(t0);
            spans.close(unitSpan);

            afcsim::Network &net = sys.network();
            u.simCycles = count(sys.cycle());
            u.routerCycles = u.simCycles * net.mesh().numNodes();
            Operation op;
            op.id = "ocean";
            Fingerprint &fp = op.fingerprint;
            fp["cycles"] = count(sys.cycle());
            fp["runtime_cyc"] = count(r.runtime);
            fp["transactions"] = count(r.transactions);
            fp["tx_latency_cyc"] = r.avgTxLatency;
            putNetCounters(r.net, fp);
            putRouterCounters(net.aggregateRouterStats(), fp);
            fp["pkt_latency_cyc"] = r.avgPacketLatency;
            fp["pj_per_flit"] =
                ratio(r.energy.total(), count(r.net.flitsDelivered));
            u.pktLatencyCyc = fp["pkt_latency_cyc"];
            u.pjPerFlit = fp["pj_per_flit"];

            checkConservation(net, op.violations);
            if (r.transactions < profile_.measureTransactions)
                op.violations.push_back("transaction budget not reached");
            if (r.net.flitsDelivered == 0)
                op.violations.push_back("no flits delivered");
            u.ops.push_back(std::move(op));
        } catch (const std::exception &e) {
            u.ops.push_back(failedOperation("ocean", e.what()));
        }
        return u;
    }

    NetworkConfig cfg_;
    afcsim::WorkloadProfile profile_;
    Sizes sizes_;
};

// ---------------------------------------------------------------------
// search8x8_faults
// ---------------------------------------------------------------------

/** What the probe hook saw of one probe or final run. */
struct ProbeCall
{
    double ms = 0.0;
    double cycles = 0.0;
    double rate = 0.0;
    bool final = false;
    std::string error;
    double avgPacketLatency = 0.0;
    std::uint64_t packetsDelivered = 0;
    double energyTotal = 0.0;
    std::uint64_t flitsDelivered = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t flitsRetransmitted = 0;
    std::uint64_t packetsFailed = 0;
};

/**
 * Saturation search (bracketing + bisection) on an 8x8 mesh with
 * uniform traffic over {bp, bpl, afc} x corruption {0, 0.005};
 * reliability is armed for the faulted cells. One unit is the whole
 * grid on 2 workers, journaled into a directory that is created
 * fresh for the unit and removed after it: a reused directory would
 * load done markers back and skip the simulation.
 *
 * A batch is one probe. The final runs are four times longer; mixed
 * in, they would put the 90th percentile on the edge between the two
 * populations. They count in the unit's time and in
 * search.final_run_ms.
 */
class SearchGrid : public Workload
{
  public:
    using SearchResult = afcsim::search::SearchResult;

    static constexpr int kWorkers = 2;

    SearchGrid(std::uint64_t seed, const Sizes &sizes, std::string workdir)
        : spec_(searchSpec(seed, sizes)), workdir_(std::move(workdir))
    {
        finalMeasure_ = spec_.search.finalMeasure > 0
            ? spec_.search.finalMeasure : spec_.measureCycles;
        AFCSIM_ASSERT(finalMeasure_ != spec_.search.probeMeasure,
                      "probe and final budgets must differ");
    }

    std::int64_t
    setUp() override
    {
        std::vector<afcsim::exp::RunPoint> cells = spec_.expand();
        std::string dir = freshDir();
        afcsim::exp::Journal journal(dir);
        journal.open(kSearchTool, spec_);
        std::int64_t t = nowNs();
        std::filesystem::remove_all(dir);
        return t;
    }

    Unit
    run(SpanLog &spans) override
    {
        return grid(spans, true);
    }

    std::map<std::string, double>
    layerMetrics(const std::vector<Unit> &untraced,
                 const std::vector<Unit> &traced, const SpanLog &log,
                 std::vector<Operation> &companionOps) override
    {
        SpanLog spans(true);
        std::map<std::string, double> m;
        afcsim::exp::RunPoint cell = spec_.expand().front();
        NetworkConfig cfg = cell.cfg;
        m["network.setup_s"] = networkSetupSeconds(cfg, spans);

        // Journal companion: the same grid without a journal.
        SpanLog off(false);
        Unit bare = grid(off, false);
        m["exp.journal_overhead_frac"] =
            ratio(median(unitSeconds(untraced)), bare.seconds) - 1.0;
        companionOps.insert(companionOps.end(), bare.ops.begin(),
                            bare.ops.end());

        std::vector<Span> all = log.spans();
        std::vector<double> probes = log.durationsMs("search.probe");
        std::vector<double> faulted = log.durationsMs("search.probe.faulted");
        probes.insert(probes.end(), faulted.begin(), faulted.end());
        m["search.probe_ms_p50"] = quantile(probes, 0.5);
        m["search.probe_ms_p90"] = quantile(probes, 0.9);
        m["fault.probe_ms_p50"] = quantile(faulted, 0.5);
        m["search.final_run_ms"] = median(log.durationsMs("search.final"));

        // Tail imbalance: the share of the workers' window in which a
        // worker had no cell left to search.
        double window = 0.0, busy = 0.0;
        for (const Span &s : all) {
            if (s.name == "search.workers")
                window += static_cast<double>(s.endNs - s.startNs);
            else if (s.name == "search.cell")
                busy += static_cast<double>(s.endNs - s.startNs);
        }
        m["exp.worker_idle_frac"] = 1.0 - ratio(busy, kWorkers * window);

        for (const auto &[k, v] : counters_)
            m[k] = v;
        m["bench.trace_overhead_frac"] = traceOverhead(untraced, traced);
        return m;
    }

  private:
    /** A journal directory that did not exist before this call. */
    std::string
    freshDir()
    {
        std::filesystem::create_directories(workdir_);
        for (;;) {
            std::string dir = journalDir(workdir_, serial_++);
            if (std::filesystem::create_directory(dir))
                return dir;
        }
    }

    /**
     * One cell against the journal, as the program's journaled grid
     * does it: a done marker loads back instead of searching, a cell
     * whose attempts ran out degrades, and a finished search lands
     * as a done marker.
     */
    SearchResult
    searchJournaled(const afcsim::search::SearchController &controller,
                    const afcsim::exp::RunPoint &cell,
                    const afcsim::exp::Journal &journal, SpanLog &spans,
                    int parent, int worker)
    {
        std::string path = journal.resultPath(cell.index);
        if (std::filesystem::exists(path)) {
            try {
                afcsim::ckpt::Reader r(
                    afcsim::ckpt::readFile(
                        path, afcsim::ckpt::Kind::SearchResult),
                    path);
                SearchResult out;
                afcsim::search::getSearchResult(r, out);
                r.finish();
                out.point = cell;
                return out;
            } catch (const afcsim::Error &) {
                // A marker that fails verification re-searches.
            }
        }
        SearchResult out;
        if (journal.beginAttempt(cell.index) > journal.maxAttempts()) {
            out.point = cell;
            out.error = "degraded: attempts ran out";
        } else {
            out = controller.search(cell);
        }
        ScopedSpan w(spans, "ckpt.write", parent, worker);
        afcsim::ckpt::Writer wr;
        afcsim::search::putSearchResult(wr, out);
        afcsim::ckpt::writeFile(path, afcsim::ckpt::Kind::SearchResult,
                                wr.bytes());
        journal.clearPointScratch(cell.index);
        return out;
    }

    static std::string
    cellId(const afcsim::exp::RunPoint &cell)
    {
        std::ostringstream os;
        os << afcsim::toString(cell.fc)
           << "/fault=" << cell.cfg.faults.corruptRate;
        return os.str();
    }

    static double
    dirBytes(const std::string &dir)
    {
        double bytes = 0.0;
        for (const auto &e :
             std::filesystem::recursive_directory_iterator(dir)) {
            if (e.is_regular_file())
                bytes += static_cast<double>(e.file_size());
        }
        return bytes;
    }

    Unit
    grid(SpanLog &spans, bool journaled)
    {
        Unit u;
        using afcsim::exp::RunPoint;
        using afcsim::exp::RunResult;

        int gridSpan = spans.open(journaled ? "search.grid"
                                            : "search.grid.nojournal");
        std::int64_t t0 = nowNs();
        int setupSpan = spans.open("search.setup", gridSpan);
        std::vector<RunPoint> cells;
        std::unique_ptr<afcsim::exp::Journal> journal;
        std::string dir;
        try {
            cells = spec_.expand();
            if (journaled) {
                dir = freshDir();
                journal = std::make_unique<afcsim::exp::Journal>(dir);
                journal->open(kSearchTool, spec_);
            }
        } catch (const std::exception &e) {
            spans.close(setupSpan);
            spans.close(gridSpan);
            u.ops.push_back(failedOperation("grid", e.what()));
            return u;
        }
        spans.close(setupSpan);

        std::vector<SearchResult> results(cells.size());
        std::vector<std::vector<ProbeCall>> calls(cells.size());
        std::vector<std::string> errors(cells.size());
        std::atomic<std::size_t> cursor{0};
        auto work = [&](int worker) {
            for (;;) {
                std::size_t i = cursor.fetch_add(1);
                if (i >= cells.size())
                    return;
                ScopedSpan cellSpan(spans, "search.cell", gridSpan, worker);
                bool faulted = cells[i].cfg.faults.corruptRate > 0.0;
                afcsim::search::ProbeFn probe =
                    [&, i, faulted, worker](const RunPoint &p) {
                        ProbeCall c;
                        c.final = p.ol.measureCycles == finalMeasure_;
                        const char *name = c.final ? "search.final"
                            : faulted ? "search.probe.faulted"
                                      : "search.probe";
                        ScopedSpan s(spans, name, cellSpan.id(), worker);
                        std::int64_t a = nowNs();
                        RunResult r = afcsim::exp::executeRun(p);
                        c.ms = static_cast<double>(nowNs() - a) * 1e-6;
                        c.cycles = count(p.ol.warmupCycles +
                                         p.ol.measureCycles);
                        c.rate = p.rate;
                        c.error = r.error;
                        c.avgPacketLatency = r.avgPacketLatency;
                        c.packetsDelivered = r.net.packetsDelivered;
                        c.energyTotal = r.energyTotal;
                        c.flitsDelivered = r.net.flitsDelivered;
                        c.corruptions = r.faults.corruptions;
                        c.flitsRetransmitted = r.net.flitsRetransmitted;
                        c.packetsFailed = r.net.packetsFailed;
                        calls[i].push_back(std::move(c));
                        return r;
                    };
                try {
                    afcsim::search::SearchController controller(spec_.search,
                                                                probe);
                    results[i] = journal
                        ? searchJournaled(controller, cells[i], *journal,
                                          spans, cellSpan.id(), worker)
                        : controller.search(cells[i]);
                } catch (const std::exception &e) {
                    errors[i] = e.what();
                }
            }
        };
        {
            ScopedSpan workers(spans, "search.workers", gridSpan);
            std::vector<std::thread> pool;
            for (int t = 0; t < kWorkers; ++t)
                pool.emplace_back(work, t);
            for (auto &t : pool)
                t.join();
        }
        u.seconds = secondsSince(t0);
        spans.close(gridSpan);

        std::map<std::string, double> counters;
        double mesh2 = 0.0, latSum = 0.0, packets = 0.0, energy = 0.0,
               flits = 0.0, bpSum = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            mesh2 = count(cells[i].cfg.numNodes());
            bool faulted = cells[i].cfg.faults.corruptRate > 0.0;
            Operation op;
            op.id = cellId(cells[i]);
            const SearchResult &r = results[i];
            if (!errors[i].empty())
                op.violations.push_back(errors[i]);
            for (const ProbeCall &c : calls[i]) {
                u.simCycles += c.cycles;
                u.routerCycles += c.cycles * mesh2;
                if (!c.final) {
                    u.batchMs.push_back(c.ms);
                    counters["search.probes"] += 1.0;
                    counters["search.probe_cycles"] += c.cycles;
                }
                if (!c.final && c.rate == spec_.search.seedRate) {
                    latSum += c.avgPacketLatency * count(c.packetsDelivered);
                    packets += count(c.packetsDelivered);
                    energy += c.energyTotal;
                    flits += count(c.flitsDelivered);
                }
                if (!c.error.empty())
                    op.violations.push_back("run raised: " + c.error);
                if (faulted) {
                    counters["fault.corruptions"] += count(c.corruptions);
                    counters["fault.flits_retransmitted"] +=
                        count(c.flitsRetransmitted);
                    counters["fault.packets_failed"] += count(c.packetsFailed);
                }
            }
            const RunResult &fin = r.finalRun;
            Fingerprint &fp = op.fingerprint;
            fp["optimum"] = r.optimumRate;
            fp["bracket_lo"] = r.bracketLo;
            fp["bracket_hi"] = r.bracketHi;
            fp["converged"] = r.converged ? 1.0 : 0.0;
            fp["probes"] = count(r.probes.size());
            fp["final_pkt_latency_cyc"] = fin.avgPacketLatency;
            fp["final_pj_per_flit"] = fin.energyPerFlit;
            fp["final_flits_delivered"] = count(fin.net.flitsDelivered);
            fp["final_flits_retransmitted"] = count(fin.net.flitsRetransmitted);
            fp["final_corruptions"] = count(fin.faults.corruptions);
            if (errors[i].empty()) {
                if (!r.error.empty())
                    op.violations.push_back("search failed: " + r.error);
                if (!r.converged)
                    op.violations.push_back("search did not converge");
                if (r.optimumRate < r.bracketLo ||
                    r.optimumRate > r.bracketHi)
                    op.violations.push_back("optimum outside its bracket");
                if (r.bracketHi - r.bracketLo >
                    spec_.search.rateTolerance + 1e-12)
                    op.violations.push_back("bracket wider than tolerance");
            }
            bpSum += fin.bpFraction;
            counters["network.flits_delivered"] += count(fin.net.flitsDelivered);
            counters["network.packets_delivered"] +=
                count(fin.net.packetsDelivered);
            counters["network.flit_hops"] += std::round(fin.net.hops.sum());
            // Open-loop results export no mode-switch counts.
            counters["router.deflections"] += count(fin.net.totalDeflections);
            u.ops.push_back(std::move(op));
        }
        counters["router.bp_fraction"] = ratio(bpSum, count(cells.size()));
        u.pktLatencyCyc = ratio(latSum, packets);
        u.pjPerFlit = ratio(energy, flits);
        if (journal) {
            counters["ckpt.bytes_written"] = dirBytes(dir);
            std::filesystem::remove_all(dir);
        }
        if (journaled)
            counters_ = counters;
        return u;
    }

    afcsim::exp::ExperimentSpec spec_;
    Cycle finalMeasure_ = 0;
    std::string workdir_;
    int serial_ = 0;
    /** Deterministic per-layer counts of the latest journaled unit. */
    std::map<std::string, double> counters_;
};

} // namespace

afcsim::exp::ExperimentSpec
searchSpec(std::uint64_t seed, const Sizes &sizes)
{
    afcsim::exp::ExperimentSpec spec =
        afcsim::exp::saturationSearchExperiment();
    spec.faultRates = {0.0, 0.005};
    spec.baseSeed = seed;
    if (sizes.quickSearch) {
        spec.meshSizes = {4};
        spec.warmupCycles = 400;
        spec.measureCycles = 1200;
        spec.search.probeWarmup = 200;
        spec.search.probeMeasure = 600;
        spec.search.rateTolerance = 0.01;
    }
    return spec;
}

std::string
journalDir(const std::string &workdir, int serial)
{
    return workdir + "/journal-" + std::to_string(::getpid()) + "-" +
           std::to_string(serial);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "noc3x3_afc_steps", "mesh16_ocean", "search8x8_faults"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const Sizes &sizes, const std::string &workdir)
{
    if (name == "noc3x3_afc_steps")
        return std::make_unique<NocLoadSteps>(seed, sizes);
    if (name == "mesh16_ocean")
        return std::make_unique<OceanMesh>(seed, sizes);
    if (name == "search8x8_faults")
        return std::make_unique<SearchGrid>(seed, sizes, workdir);
    AFCSIM_CONFIG_ERROR("unknown workload '", name, "'");
}

std::string
Checker::check(const Operation &op)
{
    ++attempted_;
    std::string why;
    if (!op.violations.empty())
        why = op.violations.front();
    auto seen = seen_.find(op.id);
    if (why.empty() && seen != seen_.end() &&
        seen->second != op.fingerprint)
        why = "simulated results differ from the first run of '" + op.id +
              "'";
    if (why.empty() && golden_ != nullptr) {
        const JsonValue *g = golden_->find(op.id);
        if (g == nullptr) {
            why = "no golden fingerprint for '" + op.id + "'";
        } else {
            for (const auto &[key, value] : g->members()) {
                auto it = op.fingerprint.find(key);
                if (it == op.fingerprint.end() ||
                    it->second != value.asDouble()) {
                    why = "'" + op.id + "' " + key + " differs from golden";
                    break;
                }
            }
        }
    }
    if (seen == seen_.end() && op.violations.empty())
        seen_.emplace(op.id, op.fingerprint);
    if (!why.empty())
        ++failed_;
    return why;
}

JsonValue
fingerprintsToJson(const std::vector<Operation> &ops)
{
    JsonValue out = JsonValue::object();
    for (const Operation &op : ops) {
        JsonValue fp = JsonValue::object();
        for (const auto &[k, v] : op.fingerprint)
            fp.set(k, v);
        out.set(op.id, std::move(fp));
    }
    return out;
}

} // namespace perfbench
