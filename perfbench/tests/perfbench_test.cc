/**
 * @file
 * Tests of the benchmark itself: the metrics it names, the checks
 * behind ok_frac, the shard-invariance of its fingerprints, and the
 * fresh journal of the search workload. Shrunk sizes keep them fast.
 */

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>
#include <unistd.h>

#include "exp/journal.hh"
#include "report.hh"
#include "search/search.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

namespace fs = std::filesystem;
using afcsim::JsonValue;

Sizes
shrunk()
{
    Sizes s;
    s.phaseCycles = 4000;
    s.oceanMesh = 12;
    s.oceanScale = 0.05;
    s.quickSearch = true;
    return s;
}

JsonValue
readJson(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string error;
    JsonValue doc = JsonValue::parse(ss.str(), &error);
    EXPECT_TRUE(error.empty()) << path << ": " << error;
    return doc;
}

/** A scratch directory removed when the test ends. */
struct TempDir
{
    TempDir()
        : path(fs::temp_directory_path() /
               ("perfbench-test-" + std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    fs::path path;
};

Options
options(const std::string &workload, const TempDir &dir, bool trace)
{
    Options o;
    o.workload = workload;
    o.seconds = 0.0; // one unit
    o.trace = trace;
    o.workdir = dir.path.string();
    o.exe = PERFBENCH_EXE;
    o.sizes = shrunk();
    return o;
}

TEST(Metrics, EveryNamedMetricIsReportedWithItsUnit)
{
    JsonValue spec = readJson(PERFBENCH_SPEC);
    ASSERT_TRUE(spec.isObject());
    for (bool trace : {false, true}) {
        const JsonValue &declared =
            spec.at(trace ? "per_layer" : "end_to_end");
        for (const std::string &w : workloadNames()) {
            TempDir dir;
            Options o = options(w, dir, trace);
            Report r = runBenchmark(o);
            EXPECT_TRUE(r.correct()) << w;
            JsonValue doc = r.toJson(o);
            const JsonValue &metrics = doc.at("metrics");
            EXPECT_EQ(metrics.size(), declared.size()) << w;
            for (std::size_t i = 0; i < declared.size(); ++i) {
                const std::string &name = declared.at(i).at("name").asString();
                const JsonValue *m = metrics.find(name);
                ASSERT_NE(m, nullptr) << w << " lacks " << name;
                EXPECT_TRUE(m->at("value").isNumber()) << name;
                EXPECT_EQ(m->at("unit").asString(),
                          declared.at(i).at("unit").asString())
                    << name;
            }
            if (!trace) {
                EXPECT_EQ(metrics.at("ok_frac").at("value").asDouble(), 1.0);
                EXPECT_GT(metrics.at("setup_s").at("value").asDouble(), 0.0);
                EXPECT_GT(doc.at("samples").at("batch_ms").asDouble(), 0.0);
            }
        }
    }
}

TEST(Fingerprints, OceanIsIdenticalAtOneAndTwoShards)
{
    TempDir dir;
    Sizes one = shrunk();
    one.oceanShards = 1;
    Sizes two = shrunk();
    two.oceanShards = 2;
    SpanLog off(false);
    Unit a = makeWorkload("mesh16_ocean", 3, one, dir.path)->run(off);
    Unit b = makeWorkload("mesh16_ocean", 3, two, dir.path)->run(off);
    ASSERT_EQ(a.ops.size(), 1u);
    ASSERT_EQ(b.ops.size(), 1u);
    EXPECT_TRUE(a.ops[0].violations.empty());
    EXPECT_GT(a.ops[0].fingerprint.at("transactions"), 0.0);
    EXPECT_EQ(a.ops[0].fingerprint, b.ops[0].fingerprint);
}

TEST(Checker, RepeatsMustMatchTheFirstRun)
{
    TempDir dir;
    SpanLog off(false);
    Unit u = makeWorkload("noc3x3_afc_steps", 5, shrunk(), dir.path)->run(off);
    Checker checker(nullptr);
    EXPECT_EQ(checker.check(u.ops[0]), "");
    Operation changed = u.ops[0];
    changed.fingerprint["flits_delivered"] += 1.0;
    EXPECT_NE(checker.check(changed), "");
    EXPECT_EQ(checker.attempted(), 2);
    EXPECT_EQ(checker.failed(), 1);
}

TEST(Checker, PerturbedGoldenValueDrivesOkFracBelowOne)
{
    TempDir dir;
    Options o;
    o.workload = "noc3x3_afc_steps";
    o.seconds = 0.0;
    o.workdir = dir.path.string();
    o.exe = PERFBENCH_EXE;
    o.golden = PERFBENCH_GOLDEN;
    Report good = runBenchmark(o);
    EXPECT_EQ(good.metrics.at("ok_frac"), 1.0);

    // Same golden file with one simulated value nudged.
    std::ifstream in(PERFBENCH_GOLDEN);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    std::string key = "\"pkt_latency_cyc\": ";
    std::size_t at = text.find(key);
    ASSERT_NE(at, std::string::npos);
    text.insert(at + key.size(), "1");
    o.golden = (dir.path / "perturbed.json").string();
    std::ofstream(o.golden) << text;
    Report bad = runBenchmark(o);
    EXPECT_LT(bad.metrics.at("ok_frac"), 1.0);
    EXPECT_FALSE(bad.correct());
}

TEST(Golden, FaultFreeOptimaMatchTheGoldenBracketTest)
{
    JsonValue golden = readJson(PERFBENCH_GOLDEN);
    const JsonValue &cells = golden.at("search8x8_faults");
    const std::pair<const char *, double> pinned[] = {
        {"backpressured/fault=0", 0.3875},
        {"backpressureless/fault=0", 0.2875},
        {"afc/fault=0", 0.3688},
    };
    for (const auto &[cell, optimum] : pinned) {
        ASSERT_NE(cells.find(cell), nullptr) << cell;
        EXPECT_NEAR(cells.at(cell).at("optimum").asDouble(), optimum,
                    5e-5 + 1e-12) // the pinned values have 4 decimals
            << cell;
    }
    for (const std::string &w : workloadNames())
        EXPECT_TRUE(golden.has(w)) << w;
}

TEST(Journal, UnitsNeverReuseAnExistingJournal)
{
    TempDir dir;
    Sizes sizes = shrunk();
    afcsim::exp::ExperimentSpec spec = searchSpec(1, sizes);

    // A finished journal where the next unit would put its own. Were
    // the unit to open it, every cell would load its done marker back
    // and no probe would run.
    std::string stale = journalDir(dir.path.string(), 0);
    afcsim::exp::Journal journal(stale);
    journal.open(kSearchTool, spec);
    std::vector<afcsim::search::SearchResult> done =
        afcsim::search::runSearchGrid(spec, 2, {}, &journal);
    std::size_t probes = 0;
    for (const auto &r : done) {
        ASSERT_TRUE(r.error.empty()) << r.error;
        probes += r.probes.size();
    }
    ASSERT_GT(probes, 0u);
    std::set<fs::path> staleFiles;
    for (const auto &e : fs::recursive_directory_iterator(stale))
        staleFiles.insert(e.path());

    SpanLog off(false);
    auto w = makeWorkload("search8x8_faults", 1, sizes, dir.path);
    for (int unit = 0; unit < 2; ++unit) {
        Unit u = w->run(off);
        EXPECT_EQ(u.batchMs.size(), probes) << "unit " << unit;
        ASSERT_EQ(u.ops.size(), done.size());
        for (std::size_t i = 0; i < done.size(); ++i) {
            const Operation &op = u.ops[i];
            EXPECT_TRUE(op.violations.empty()) << op.violations.front();
            // The benchmark's grid finds what the program's grid finds.
            EXPECT_EQ(op.fingerprint.at("optimum"), done[i].optimumRate);
            EXPECT_EQ(op.fingerprint.at("probes"),
                      static_cast<double>(done[i].probes.size()));
        }
    }

    // The stale journal is untouched, and each unit removed its own.
    std::set<fs::path> after;
    for (const auto &e : fs::recursive_directory_iterator(dir.path))
        after.insert(e.path());
    staleFiles.insert(stale);
    EXPECT_EQ(after, staleFiles);
}

} // namespace
} // namespace perfbench
