/**
 * @file
 * The benchmark's workloads. Each drives only the simulator's public
 * entry points (Network, OpenLoopInjector, ClosedLoopSystem,
 * search::SearchController, exp::Journal and the ckpt container),
 * times those calls from outside, and reads the counters they export.
 *
 *  - noc3x3_afc_steps: the paper's 3x3 AFC mesh, open loop, offered
 *    load stepping 0.1 -> 0.3 -> 0.5 -> 0.3 -> 0.1 (router-bound).
 *  - mesh16_ocean: closed-loop ocean on a 16x16 mesh at
 *    sim.shards = 1 (core/L2 ticks plus the network); its traced run
 *    times a sim.shards = 2 companion.
 *  - search8x8_faults: saturation search on an 8x8 mesh over
 *    {bp, bpl, afc} x corruption {0, 0.005} on 2 workers, journaled
 *    into a fresh directory (many short runs).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "exp/spec.hh"
#include "spans.hh"

namespace perfbench
{

/** Seed whose simulated results golden.json pins. */
constexpr std::uint64_t kGoldenSeed = 1;

/** Simulated statistics of one operation; deterministic per seed. */
using Fingerprint = std::map<std::string, double>;

/**
 * One correctness-checked operation: a load-step run, a closed-loop
 * run, or one grid cell's search.
 */
struct Operation
{
    std::string id; ///< stable key into golden.json
    Fingerprint fingerprint;
    /** Seed-independent invariants that failed, or the error raised. */
    std::vector<std::string> violations;
};

/** One measured unit of work: whatever the workload repeats. */
struct Unit
{
    double seconds = 0.0; ///< host time of the measured part
    /** Batch times: fixed cycle blocks, or one search probe. */
    std::vector<double> batchMs;
    double simCycles = 0.0;
    double routerCycles = 0.0;
    /** Modelled average packet latency and energy per delivered
     *  flit (search: over the probes at the fixed seed rate, since
     *  the optimum sits on the latency knee). */
    double pktLatencyCyc = 0.0;
    double pjPerFlit = 0.0;
    std::vector<Operation> ops;
};

/**
 * Workload sizes. The defaults are the benchmark; the tests shrink
 * them. golden.json holds fingerprints for the defaults only.
 */
struct Sizes
{
    /** noc3x3_afc_steps: cycles per load phase. */
    std::uint64_t phaseCycles = 100000;
    /** mesh16_ocean: mesh edge, shard count, share of ocean's
     *  transaction budget. */
    int oceanMesh = 16;
    int oceanShards = 1;
    double oceanScale = 1.0;
    /** search8x8_faults: shrink the search to a 4x4 mesh and short
     *  probes (tests only). */
    bool quickSearch = false;

    /** The shard count is left out: it never changes the results. */
    bool
    isDefault() const
    {
        Sizes d;
        return phaseCycles == d.phaseCycles && oceanMesh == d.oceanMesh &&
               oceanScale == d.oceanScale && quickSearch == d.quickSearch;
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Set up as a unit would and return the steady-clock time (ns)
     * at which the first simulated cycle could start (--setup-only).
     */
    virtual std::int64_t setUp() = 0;

    /** Run one unit; spans are recorded only when `spans` is on. */
    virtual Unit run(SpanLog &spans) = 0;

    /**
     * Traced run only: run the companions (shards = 1, journal-less)
     * and derive the per-layer metrics from the spans and counters.
     * `untraced`/`traced` are the units of the traced run measured
     * with the span log off and on.
     */
    virtual std::map<std::string, double>
    layerMetrics(const std::vector<Unit> &untraced,
                 const std::vector<Unit> &traced, const SpanLog &spans,
                 std::vector<Operation> &companionOps) = 0;
};

const std::vector<std::string> &workloadNames();

/** Tool name search8x8_faults stamps its journals with. */
constexpr const char *kSearchTool = "afcsim-perfbench";

/** The grid search8x8_faults searches. */
afcsim::exp::ExperimentSpec searchSpec(std::uint64_t seed,
                                       const Sizes &sizes);

/**
 * The `serial`-th journal directory name a search8x8_faults unit
 * tries under `workdir`. A unit takes the first name that does not
 * exist yet, so it never opens another unit's journal.
 */
std::string journalDir(const std::string &workdir, int serial);

/**
 * Build a workload. `workdir` receives the search journals (each
 * unit creates and removes a fresh directory under it).
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const Sizes &sizes,
                                       const std::string &workdir);

/**
 * Checks operations against the golden fingerprints (when given) and
 * against the first operation seen with the same id, so every repeat
 * of a unit in a run must reproduce the same simulated results.
 */
class Checker
{
  public:
    /** `golden`: the workload's section of golden.json, or nullptr
     *  when the seed or sizes are not the pinned ones. */
    explicit Checker(const afcsim::JsonValue *golden) : golden_(golden) {}

    /** Returns the failure, empty when the operation passes. */
    std::string check(const Operation &op);

    int attempted() const { return attempted_; }
    int failed() const { return failed_; }

  private:
    const afcsim::JsonValue *golden_;
    std::map<std::string, Fingerprint> seen_;
    int attempted_ = 0;
    int failed_ = 0;
};

/** Fingerprints of `ops` as a JSON object keyed by operation id. */
afcsim::JsonValue fingerprintsToJson(const std::vector<Operation> &ops);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
