#!/usr/bin/env python3
"""Build and run the afcsim benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload noc3x3_afc_steps --seed 1 \
        --seconds 20 --trace 0

builds perfbench/ (and the simulator sources it includes) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload and prints its metrics. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.

Steadiness report:
    python3 perfbench/run.py --report 10 [--sets 2] [--workload NAME]

runs each workload N times per set (seeds 1..N), prints every
end-to-end metric's median, quartiles and min/max, its spread
(interquartile range over median) against the bound in BENCHMARK.json
and, with two sets, how far the second set's median moved.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["noc3x3_afc_steps", "mesh16_ocean", "search8x8_faults"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build afcsim-perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("run.py: simulator sources not found under %s"
                         % ROOT)
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.is_file() and \
            "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in cache.read_text():
        shutil.rmtree(out)  # configured from another checkout
    if not cache.is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "2", "--target",
                    "afcsim-perfbench"], check=True, stdout=sys.stderr)
    return out / "afcsim-perfbench"


def git_rev():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                            "HEAD"], capture_output=True, text=True,
                           timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_once(exe, workload, seed, seconds, trace, rev):
    """Run one workload; returns the binary's result document."""
    workdir = build_dir() / "runs" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--golden", str(HERE / "golden.json"),
           "--git-rev", rev]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        for spans in workdir.glob("spans-*.json"):
            (build_dir() / "spans").mkdir(exist_ok=True)
            spans.replace(build_dir() / "spans" / spans.name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit("run.py: %s failed with exit status %d"
                         % (workload, proc.returncode))
    return json.loads(lines[-1])


def single(args):
    exe = build()
    doc = run_once(exe, args.workload, args.seed, args.seconds, args.trace,
                   git_rev())
    for why in doc["failures"]:
        log("check failed:", why)
    print("stamp", json.dumps(doc["stamp"], sort_keys=True))
    print("samples", json.dumps(doc["samples"], sort_keys=True))
    for name, m in doc["metrics"].items():
        print("%-36s %18.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({k: doc[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if doc["correct"] else 1


def spread_of(values):
    """Interquartile range over median, as the acceptance check takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def report(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds
    exe = build()
    rev = git_rev()
    workloads = [args.workload] if args.workload else WORKLOADS
    ok = True
    summary = {}
    for w in workloads:
        sets = []
        for s in range(args.sets):
            values = {}
            for seed in range(1, args.report + 1):
                doc = run_once(exe, w, seed, seconds, 0, rev)
                if not doc["correct"]:
                    ok = False
                    log(w, "seed", seed, "incorrect:", doc["failures"])
                for name, m in doc["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                log("%s set %d seed %d done" % (w, s + 1, seed))
            sets.append(values)
        print("== %s  stamp %s" % (w, json.dumps(doc["stamp"],
                                                  sort_keys=True)))
        print("%-22s %12s %12s %12s %12s %12s %8s %8s %8s" %
              ("metric", "median", "q1", "q3", "min", "max", "spread",
               "shift", "bound"))
        summary[w] = {}
        for name in sets[0]:
            first = sets[0][name]
            q1, med, q3 = statistics.quantiles(first, n=4)
            spread = max(spread_of(values[name]) for values in sets)
            shift = 0.0
            if len(sets) > 1:
                med2 = statistics.median(sets[1][name])
                shift = (med2 - med) / med if med else 0.0
            bound = bounds.get(name, 0.0)
            worst = max(abs(shift), spread)
            flag = "" if worst <= bound else "  OVER BOUND"
            if flag:
                ok = False
            print("%-22s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %8.4f %8.3f%s"
                  % (name, med, q1, q3, min(first), max(first), spread,
                     shift, bound, flag))
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "min": min(first), "max": max(first),
                                "spread": spread, "shift": shift}
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else {}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=spec.get("run_seconds", 20))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", type=int, metavar="N",
                   help="steadiness report: N runs per workload and set")
    p.add_argument("--sets", type=int, default=2)
    args = p.parse_args()
    if args.report:
        return report(args)
    if not args.workload:
        p.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
