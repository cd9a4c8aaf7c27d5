/**
 * @file
 * afcsim-perfbench: runs one benchmark workload and prints its
 * metrics. perfbench/run.py builds this binary and drives it; see
 * perfbench/README.md.
 *
 *   afcsim-perfbench --workload <name> [--seed N] [--seconds S]
 *                    [--trace 0|1] [--workdir DIR] [--golden FILE]
 *                    [--git-rev REV]
 *   afcsim-perfbench --setup-only --workload <name> [--seed N] ...
 *   afcsim-perfbench --fingerprints --workload <name> [--seed N] ...
 *
 * The last line of standard output is the result document (JSON).
 * Exit status: 0 when the run's simulated results are correct, 1 when
 * they are not, 2 on a usage or set-up error.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include <unistd.h>

#include "common/error.hh"
#include "report.hh"
#include "spans.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

int
usage(const std::string &why)
{
    std::cerr << "afcsim-perfbench: " << why << "\n"
              << "usage: afcsim-perfbench --workload <";
    for (const std::string &n : workloadNames())
        std::cerr << n << (n == workloadNames().back() ? "" : "|");
    std::cerr << "> [--seed N] [--seconds S] [--trace 0|1] [--workdir DIR]"
                 " [--golden FILE] [--git-rev REV] [--setup-only]"
                 " [--fingerprints]\n";
    return 2;
}

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

} // namespace

int
main(int argc, char **argv)
{
    std::int64_t entered = nowNs();
    Options o;
    o.exe = selfExe();
    bool setupOnly = false, fingerprints = false;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--workdir")
                o.workdir = value();
            else if (a == "--golden")
                o.golden = value();
            else if (a == "--git-rev")
                o.gitRev = value();
            else if (a == "--setup-only")
                setupOnly = true;
            else if (a == "--fingerprints")
                fingerprints = true;
            else
                return usage("unknown argument '" + a + "'");
        }
    } catch (const std::exception &e) {
        return usage(e.what());
    }
    if (o.workload.empty())
        return usage("--workload is required");

    try {
        if (setupOnly) {
            auto w = makeWorkload(o.workload, o.seed, o.sizes, o.workdir);
            std::int64_t first = w->setUp();
            std::printf("main_ns %lld\nfirst_cycle_ns %lld\n",
                        static_cast<long long>(entered),
                        static_cast<long long>(first));
            return 0;
        }
        if (fingerprints) {
            auto w = makeWorkload(o.workload, o.seed, o.sizes, o.workdir);
            SpanLog off(false);
            Unit u = w->run(off);
            afcsim::JsonValue doc = afcsim::JsonValue::object();
            doc.set(o.workload, fingerprintsToJson(u.ops));
            std::cout << doc.dump(2) << "\n";
            return 0;
        }
        Report r = runBenchmark(o);
        for (const std::string &why : r.failures)
            std::cerr << "afcsim-perfbench: check failed: " << why << "\n";
        std::cout << r.toJson(o).dump() << "\n";
        return r.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "afcsim-perfbench: " << e.what() << "\n";
        return 2;
    }
}
