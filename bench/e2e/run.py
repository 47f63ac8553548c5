#!/usr/bin/env python3
"""End-to-end benchmark runner: builds bench_e2e, runs workloads, compares.

Run from the repository root (paths below are relative to it):

  python3 bench/e2e/run.py                      # all workloads, seed 1
  python3 bench/e2e/run.py --workload train --seed 3 --seconds 10 --trace 0
  python3 bench/e2e/run.py --traced             # per-layer metrics
  python3 bench/e2e/run.py --smoke              # 2 s runs
  python3 bench/e2e/run.py --repeat 5 --out a.json
  python3 bench/e2e/run.py compare a.json b.json
  python3 bench/e2e/run.py --self-test

Every workload runs in a fresh process. With exactly one workload and one
repetition the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
full per-run results, every metric bench_e2e measured included, go to
--out (default build-e2e/results/last.json).
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE_DIR = os.path.join("bench", "e2e")
BUILD_DIR = "build-e2e"
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
RUN_TIMEOUT_S = 175


class BenchError(Exception):
    pass


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds bench_e2e; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("the repository sources (src/) are missing; "
                         "run from a full checkout")
    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    log_path = os.path.join(ROOT, BUILD_DIR, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(ROOT, BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                      "-j", jobs])
        with open(log_path, "w") as log:
            for cmd in steps:
                if subprocess.run(cmd, cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT).returncode != 0:
                    with open(log_path) as f:
                        tail = f.read()[-3000:]
                    raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")


def clean_env():
    """The process environment minus every NMCDR_* knob, so runs are
    reproducible whatever the caller's shell sets."""
    return {k: v for k, v in os.environ.items() if not k.startswith("NMCDR_")}


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns its result object."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmp", os.path.join(BUILD_DIR, "tmp")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload}: bench_e2e exited {proc.returncode} "
                         f"without a result\n{proc.stdout[-2000:]}"
                         f"{proc.stderr[-2000:]}")
    for line in lines[:-1]:
        print(line)
    return result


def metric_specs(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def result_object(bench, result, trace):
    """Reduces a bench_e2e result to the benchmark's result object."""
    metrics = {}
    correct = bool(result["correct"])
    for spec in metric_specs(bench, trace):
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        if got is None:
            if not trace:
                print(f"FAIL: end-to-end metric {name} was not reported")
                correct = False
                continue
            # A layer this workload does not exercise did no work.
            got = {"value": 0.0, "unit": unit, "n": 0}
        if got["unit"] != unit:
            raise BenchError(f"{name}: bench_e2e reports unit {got['unit']}, "
                             f"BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def print_metrics(bench, result, trace):
    print(f"\n{result['workload']} (seed {result['seed']}, "
          f"{result['seconds']} s, trace {trace}, nproc {result['nproc']}, "
          f"pool {result['pool_threads']}):")
    for spec in metric_specs(bench, trace):
        got = result["metrics"].get(spec["name"])
        if got is None:
            print(f"  {spec['name']:<44} {'-':>14}  {spec['unit']}")
        else:
            print(f"  {spec['name']:<44} {got['value']:>14.6g}  "
                  f"{spec['unit']:<8} n={got['n']}")
    if not result.get("valid", True):
        print("  (generator ran late: this run is marked invalid)")


def write_results(path, runs):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"runs": runs}, f, indent=1)


def cmd_run(args, bench):
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    known = {w["name"] for w in bench["workloads"]}
    for w in workloads:
        if w not in known:
            raise BenchError(f"unknown workload {w}; have {sorted(known)}")
    seconds = args.seconds
    if seconds is None:
        seconds = 2 if args.smoke else bench["run_seconds"]
    trace = 1 if args.traced else args.trace
    build()
    runs = []
    for _ in range(args.repeat):
        for w in workloads:
            result = run_workload(w, args.seed, seconds, trace)
            runs.append(result)
            print_metrics(bench, result, trace)
    write_results(args.out, runs)
    objects = [result_object(bench, r, trace) for r in runs]
    ok = all(o["correct"] for o in objects)
    if len(runs) == 1:
        print(json.dumps(objects[0]))
    else:
        merged = {f"{r['workload']}/{name}": m
                  for r, o in zip(runs, objects)
                  for name, m in o["metrics"].items()}
        print(json.dumps({"correct": ok,
                          "attempted": sum(o["attempted"] for o in objects),
                          "failed": sum(o["failed"] for o in objects),
                          "metrics": merged}))
    return 0 if ok else 1


# --- compare ----------------------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare_sets(bench, runs_a, runs_b):
    """Rows of (workload, metric, stats..., verdict, gain) for every
    end-to-end metric both sets report. Verdicts: "regressed" when B's
    median is worse than A's by more than the bound; "unresolved" when
    either side's IQR exceeds the bound (unless every B run beats every A
    run); "ok" otherwise. "gain" applies the rule for claiming an
    improvement: at least 10 pairs, B wins at least 90% of them, and the
    medians differ by more than A's IQR."""
    rows = []
    for w in [w["name"] for w in bench["workloads"]]:
        for spec in bench["end_to_end"]:
            name, lower = spec["name"], spec["better"] == "lower"

            def values(runs):
                return [r["metrics"][name]["value"] for r in runs
                        if r["workload"] == w and not r["trace"]
                        and name in r["metrics"]]

            a, b = values(runs_a), values(runs_b)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            med_a, med_b = qa[1], qb[1]
            scale = abs(med_a) if med_a else 1.0
            spread_a = (qa[2] - qa[0]) / scale
            spread_b = (qb[2] - qb[0]) / (abs(med_b) if med_b else 1.0)
            change = (med_b - med_a) / scale
            worse = change if lower else -change

            def better(x, y):
                return x < y if lower else x > y

            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if better(y, x))
            all_better = all(better(y, x) for x in a for y in b)
            all_worse = all(better(x, y) for x in a for y in b)
            bound = spec["bound"]
            if worse > bound and (max(spread_a, spread_b) <= bound or all_worse):
                verdict = "regressed"
            elif max(spread_a, spread_b) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                    and better(med_b, med_a)
                    and abs(med_b - med_a) > qa[2] - qa[0])
            rows.append({"workload": w, "metric": name, "a": qa, "b": qb,
                         "change": change, "spread_a": spread_a,
                         "spread_b": spread_b, "bound": bound,
                         "wins": wins, "pairs": len(pairs),
                         "verdict": verdict, "gain": gain})
    return rows


def print_rows(rows):
    print(f"{'workload':<12} {'metric':<17} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>8} {'IQR A/B':>13} "
          f"{'bound':>6} {'wins':>6}  verdict")
    for r in rows:
        fa = "{:.5g} [{:.5g}, {:.5g}]".format(r["a"][1], r["a"][0], r["a"][2])
        fb = "{:.5g} [{:.5g}, {:.5g}]".format(r["b"][1], r["b"][0], r["b"][2])
        spreads = f"{100 * r['spread_a']:.1f}/{100 * r['spread_b']:.1f}%"
        print(f"{r['workload']:<12} {r['metric']:<17} {fa:<34} {fb:<34} "
              f"{100 * r['change']:>+7.1f}% {spreads:>13} "
              f"{100 * r['bound']:>5.0f}% {r['wins']:>2}/{r['pairs']:<3}  "
              f"{r['verdict']}{' (gain)' if r['gain'] else ''}")
    order = {"ok": 0, "unresolved": 1, "regressed": 2}
    for w in sorted({r["workload"] for r in rows}):
        worst = max((r["verdict"] for r in rows if r["workload"] == w),
                    key=order.get)
        print(f"{w:<12} overall: {worst}")


def load_runs(path):
    try:
        with open(path) as f:
            return json.load(f)["runs"]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"cannot read results {path}: {e}")


def cmd_compare(args, bench):
    rows = compare_sets(bench, load_runs(args.a), load_runs(args.b))
    if not rows:
        raise BenchError("the two result sets share no (workload, metric)")
    print_rows(rows)
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def compare_self_test(bench):
    """Identity must compare "ok" everywhere; a run set 2x worse on every
    metric must compare "regressed" everywhere."""
    def fake_runs(factor):
        runs = []
        for i in range(10):
            for w in bench["workloads"]:
                metrics = {}
                for j, spec in enumerate(bench["end_to_end"]):
                    base = (1 + j) * (1 + 0.01 * ((i * 7) % 5))
                    worse = factor if spec["better"] == "lower" else 1 / factor
                    metrics[spec["name"]] = {"value": base * worse,
                                             "unit": spec["unit"], "n": 1}
                runs.append({"workload": w["name"], "trace": 0,
                             "metrics": metrics})
        return runs

    parent = fake_runs(1.0)
    same = compare_sets(bench, parent, fake_runs(1.0))
    degraded = compare_sets(bench, parent, fake_runs(2.0))
    expected = len(bench["workloads"]) * len(bench["end_to_end"])
    failures = []
    if len(same) != expected or any(r["verdict"] != "ok" for r in same):
        failures.append("identity did not compare ok everywhere")
    if len(degraded) != expected or any(r["verdict"] != "regressed"
                                        for r in degraded):
        failures.append("a 2x-degraded set did not compare regressed")
    if any(r["gain"] for r in same + degraded):
        failures.append("a gain was claimed where there is none")
    for f in failures:
        print(f"FAIL: {f}")
    print(f"compare self-test: {'ok' if not failures else 'FAILED'}")
    return not failures


def cmd_self_test(bench):
    build()
    program = subprocess.run([BINARY, "--self-test"], cwd=ROOT, env=clean_env())
    return 0 if compare_self_test(bench) and program.returncode == 0 else 1


def main(argv):
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", nargs="?", help="parent (baseline) results")
        parser.add_argument("b", nargs="?", help="change results")
        parser.add_argument("--self-test", action="store_true")
        args = parser.parse_args(argv[1:])
        bench = load_benchmark()
        if args.self_test:
            return 0 if compare_self_test(bench) else 1
        if not args.a or not args.b:
            parser.error("compare needs two result files")
        return cmd_compare(args, bench)

    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="2 s runs")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out",
                        default=os.path.join(ROOT, BUILD_DIR, "results",
                                             "last.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.self_test:
        return cmd_self_test(bench)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return cmd_run(args, bench)


if __name__ == "__main__":
    os.chdir(ROOT)
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
