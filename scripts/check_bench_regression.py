#!/usr/bin/env python3
"""Compares a bench JSON run against the checked-in CI baseline.

Usage: check_bench_regression.py CURRENT BASELINE [--tolerance 0.25]
       check_bench_regression.py --self-test

Four document kinds are auto-detected:

* Kernel throughput (BENCH_kernels.json, `kernels[]` entries): per-kernel
  gate on `serial_gflops` (the one implementation of a kernel outside
  the KernelBackend seam, such as the fused epilogue) and, for the GEMM
  family, `vector_gflops` (reported as `Name[vector]`) — the run FAILS
  when any entry drops below `baseline * (1 - tolerance)`. Higher is
  better. On top of the baseline trajectory, one machine-relative
  absolute floor gates within the current run alone (no baseline
  needed, so it holds on any hardware): the vector MatMul must stay
  >= 3x its own serial GFLOP/s.
* Trainer fusion speedup (BENCH_trainer.json, `trainer[]` entries): per-run
  gate on `fused_speedup` (fused epoch time vs eager epoch time) — the run
  FAILS when the ratio drops below `baseline * (1 - tolerance)`. Higher is
  better. A speedup is a ratio of two runs on the same machine, so it is
  far less noise-prone than an absolute time; bitwise equality and the
  zero-alloc steady state are asserted inside bench_trainer itself and
  never reach this gate.
* Quantized-serving accuracy (BENCH_quant.json, `quant{}` block): gate on
  `overlap_at_10` / `overlap_at_50` — quantized-vs-fp-exact top-K
  agreement. Higher is better, compared against the baseline AND against
  absolute floors (overlap@10 >= 0.99 full / 0.95 smoke, overlap@50 >=
  0.98 full / 0.90 smoke) so a drifting baseline can never launder an
  accuracy loss.
* Latency summaries (BENCH_serving.json / BENCH_cluster.json, obs-exporter
  `gauges{}` docs): per-gauge gate on every gauge whose name contains
  `p99` and ends in `_ms` — the run FAILS when the current value exceeds
  `baseline * (1 + tolerance) + slack`. Lower is better. The absolute
  slack (--latency-slack-ms, default 0.5) keeps sub-millisecond baselines
  from tripping on scheduler jitter alone. Non-p99 gauges (p50, QPS, shed
  counts) are informational context, never gated.

The default 25% tolerance absorbs shared-runner noise (the CI smoke run
times each kernel for only ~10ms); latency gates are noisier still, so CI
passes a wider --tolerance for those. Tighten locally when hunting a
specific regression. Entries present in only one file are reported but
never fail the gate, so adding or renaming a kernel/gauge doesn't require
a baseline update in the same commit — regenerate afterwards:

    build/bench/bench_kernels --smoke            # warm-up run, discarded
    build/bench/bench_kernels --smoke
    cp BENCH_kernels.json bench/baselines/ci_baseline.json
    build/bench/bench_serving                    # NMCDR_BENCH_SCALE=smoke
    cp BENCH_serving.json bench/baselines/serving_baseline.json
    build/bench/bench_cluster --smoke
    cp BENCH_cluster.json bench/baselines/cluster_baseline.json
    build/bench/bench_trainer --smoke
    cp BENCH_trainer.json bench/baselines/trainer_baseline.json
    build/bench/bench_quant --smoke
    cp BENCH_quant.json bench/baselines/quant_baseline.json

(The checked-in ci_baseline.json damps the `[vector]` entries below the
machine they were measured on: absolute vector throughput varies with the
runner's SIMD width and clocks, and the machine-relative >= 3x floor is
the real vectorization gate. Keep the damping when regenerating.)

`--self-test` verifies the gate itself trips in every mode: a baseline
inflated 2x above a throughput run must fail, a latency run inflated 2x
above its baseline must fail, degraded quantized overlap must fail both
the baseline and the absolute gate, a vector MatMul under 3x serial must
trip the kernel floor, and identical pairs must pass. CI runs this before
the real comparisons so a parsing bug can't silently turn the gate green.

Exit codes: 0 pass, 1 regression (or self-test failure), 2 usage/IO error.
"""

import argparse
import json
import sys


def load_entries(path):
    """Returns (kind, {name: value}, doc) from a bench JSON.

    kind is "kernels", "trainer", "quant", or "latency"; the raw doc rides
    along for the machine-relative absolute floors.
    """
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    # Obs-exporter docs also carry a "kernels" section (per-kernel trace
    # stats, a different shape), so detect by schema first: gauge docs are
    # latency summaries, and only BENCH_kernels.json's list-of-dicts with
    # serial_gflops is a kernel-throughput doc.
    gauges = doc.get("gauges")
    if isinstance(gauges, dict):
        latencies = {name: float(value) for name, value in gauges.items()
                     if "p99" in name and name.endswith("_ms")}
        if latencies:
            return "latency", latencies, doc
        raise ValueError(f"{path}: gauge doc has no *p99*_ms gauges")
    quant = doc.get("quant")
    if isinstance(quant, dict):
        return "quant", {name: float(quant[name])
                         for name in ("overlap_at_10", "overlap_at_50")
                         if name in quant}, doc
    runs = doc.get("trainer", [])
    if isinstance(runs, list) and runs:
        return "trainer", {entry["name"]: float(entry["fused_speedup"])
                           for entry in runs}, doc
    kernels = {}
    entries = doc.get("kernels", [])
    if isinstance(entries, list):
        for entry in entries:
            kernels[entry["name"]] = float(entry["serial_gflops"])
            if "vector_gflops" in entry:
                kernels[entry["name"] + "[vector]"] = float(
                    entry["vector_gflops"])
    if kernels:
        return "kernels", kernels, doc
    raise ValueError(f"{path}: no kernels[], no trainer[], no quant{{}}, "
                     "and no *p99*_ms gauges")


def compare(current, baseline, tolerance, unit="gflops"):
    """Higher-is-better gate (throughput, speedups): (failures, lines)."""
    failures = []
    lines = []
    for name in sorted(set(current) | set(baseline)):
        if name not in baseline:
            lines.append(f"  NEW      {name:24s} {current[name]:8.3f} {unit} "
                         "(not in baseline, not gated)")
            continue
        if name not in current:
            lines.append(f"  MISSING  {name:24s} baseline "
                         f"{baseline[name]:8.3f} {unit} (not in current run, "
                         "not gated)")
            continue
        floor = baseline[name] * (1.0 - tolerance)
        ratio = current[name] / baseline[name] if baseline[name] > 0 else 1.0
        verdict = "ok" if current[name] >= floor else "REGRESSED"
        lines.append(f"  {verdict:8s} {name:24s} {current[name]:8.3f} vs "
                     f"baseline {baseline[name]:8.3f} {unit} "
                     f"({ratio:6.1%}, floor {floor:.3f})")
        if current[name] < floor:
            failures.append(name)
    return failures, lines


def compare_latency(current, baseline, tolerance, slack_ms):
    """Latency gate (lower is better): (failures, lines)."""
    failures = []
    lines = []
    for name in sorted(set(current) | set(baseline)):
        if name not in baseline:
            lines.append(f"  NEW      {name:40s} {current[name]:9.3f} ms "
                         "(not in baseline, not gated)")
            continue
        if name not in current:
            lines.append(f"  MISSING  {name:40s} baseline "
                         f"{baseline[name]:9.3f} ms (not in current run, "
                         "not gated)")
            continue
        ceiling = baseline[name] * (1.0 + tolerance) + slack_ms
        ratio = current[name] / baseline[name] if baseline[name] > 0 else 1.0
        verdict = "ok" if current[name] <= ceiling else "REGRESSED"
        lines.append(f"  {verdict:8s} {name:40s} {current[name]:9.3f} vs "
                     f"baseline {baseline[name]:9.3f} ms "
                     f"({ratio:6.1%}, ceiling {ceiling:.3f})")
        if current[name] > ceiling:
            failures.append(name)
    return failures, lines


# Machine-relative floors applied to the CURRENT doc alone (no baseline):
# a drifting or regenerated baseline can never relax these.
VECTOR_MATMUL_MIN_RATIO = 3.0
QUANT_FLOORS = {"full": (0.99, 0.98), "smoke": (0.95, 0.90)}


def absolute_floors(kind, doc):
    """Within-run floors for kernels/quant docs: (failures, lines)."""
    failures = []
    lines = []
    smoke = bool(doc.get("smoke", False))
    budget = "smoke" if smoke else "full"
    if kind == "kernels":
        for entry in doc.get("kernels", []):
            name = entry["name"]
            serial = float(entry["serial_gflops"])
            if name == "MatMul" and "vector_gflops" in entry and serial > 0:
                ratio = float(entry["vector_gflops"]) / serial
                verdict = ("ok" if ratio >= VECTOR_MATMUL_MIN_RATIO
                           else "BELOW FLOOR")
                lines.append(f"  {verdict:11s} {name}[vector] {ratio:5.2f}x "
                             f"serial (floor {VECTOR_MATMUL_MIN_RATIO:.1f}x)")
                if ratio < VECTOR_MATMUL_MIN_RATIO:
                    failures.append(f"{name}[vector]/serial")
    elif kind == "quant":
        floor10, floor50 = QUANT_FLOORS[budget]
        quant = doc.get("quant", {})
        for name, floor in (("overlap_at_10", floor10),
                            ("overlap_at_50", floor50)):
            if name not in quant:
                continue
            value = float(quant[name])
            verdict = "ok" if value >= floor else "BELOW FLOOR"
            lines.append(f"  {verdict:11s} {name} {value:7.4f} "
                         f"(floor {floor:.2f}, {budget})")
            if value < floor:
                failures.append(name)
    return failures, lines


def self_test(tolerance, slack_ms):
    """Every gate must fail on a degraded run and pass on identity."""
    run = {"MatMulAccumInto": 10.0, "Add": 25.0, "SpMM": 4.0}
    inflated = {k: 2.0 * v for k, v in run.items()}
    failures, _ = compare(run, inflated, tolerance)
    if sorted(failures) != sorted(run):
        print("self-test FAILED: 2x-inflated baseline did not trip the gate "
              f"(failures={failures})")
        return 1
    failures, _ = compare(run, dict(run), tolerance)
    if failures:
        print(f"self-test FAILED: identical run flagged ({failures})")
        return 1
    # A drop inside tolerance must pass; one outside must fail.
    shaved = {k: v * (1.0 - tolerance * 0.5) for k, v in run.items()}
    failures, _ = compare(shaved, run, tolerance)
    if failures:
        print(f"self-test FAILED: in-tolerance drop flagged ({failures})")
        return 1
    dropped = {k: v * (1.0 - tolerance * 1.5) for k, v in run.items()}
    failures, _ = compare(dropped, run, tolerance)
    if sorted(failures) != sorted(run):
        print("self-test FAILED: out-of-tolerance drop not flagged "
              f"(failures={failures})")
        return 1

    # Vector entries ride the kernels gate under their [vector] suffix; a
    # vector-only regression must trip even when serial holds.
    vec_base = {"MatMul": 3.0, "MatMul[vector]": 12.0}
    vec_run = {"MatMul": 3.0, "MatMul[vector]": 12.0 * (1.0 - tolerance * 1.5)}
    failures, _ = compare(vec_run, vec_base, tolerance)
    if failures != ["MatMul[vector]"]:
        print("self-test FAILED: vector-only regression not isolated "
              f"(failures={failures})")
        return 1

    # Trainer speedups ride the same higher-is-better gate; check the
    # realistic failure shape (fusion quietly losing its edge).
    speedups = {"NMCDR Music-Movie": 1.6}
    stalled = {k: 1.0 for k in speedups}
    failures, _ = compare(stalled, speedups, tolerance, unit="x")
    if sorted(failures) != sorted(speedups):
        print("self-test FAILED: fused speedup collapsing to 1.0x did not "
              f"trip the gate (failures={failures})")
        return 1
    failures, _ = compare(dict(speedups), speedups, tolerance, unit="x")
    if failures:
        print(f"self-test FAILED: identical speedup run flagged ({failures})")
        return 1

    # Latency mode: direction is inverted, and the absolute slack must
    # shield tiny baselines but not large ones.
    lat = {"serving.batch8.p99_ms": 5.0, "cluster.swap.after_p99_ms": 40.0}
    doubled = {k: 2.0 * v for k, v in lat.items()}
    failures, _ = compare_latency(doubled, lat, tolerance, slack_ms)
    if sorted(failures) != sorted(lat):
        print("self-test FAILED: 2x-slower latency run did not trip the gate "
              f"(failures={failures})")
        return 1
    failures, _ = compare_latency(lat, dict(lat), tolerance, slack_ms)
    if failures:
        print(f"self-test FAILED: identical latency run flagged ({failures})")
        return 1
    tiny = {"serving.batch1.p99_ms": 0.01}
    jittered = {"serving.batch1.p99_ms": 0.01 * (1.0 + tolerance) + slack_ms * 0.9}
    failures, _ = compare_latency(jittered, tiny, tolerance, slack_ms)
    if failures:
        print("self-test FAILED: sub-slack jitter on a tiny baseline flagged "
              f"({failures})")
        return 1
    faster = {k: v * 0.25 for k, v in lat.items()}
    failures, _ = compare_latency(faster, lat, tolerance, slack_ms)
    if failures:
        print(f"self-test FAILED: faster latency run flagged ({failures})")
        return 1

    # Quantized accuracy: baseline trajectory plus absolute floors.
    quant_good = {"overlap_at_10": 0.999, "overlap_at_50": 0.995}
    quant_bad = {k: v * 0.5 for k, v in quant_good.items()}
    failures, _ = compare(quant_bad, quant_good, tolerance, unit="overlap")
    if sorted(failures) != sorted(quant_good):
        print("self-test FAILED: halved quantized overlap did not trip the "
              f"baseline gate (failures={failures})")
        return 1
    good_doc = {"smoke": False, "quant": dict(quant_good)}
    failures, _ = absolute_floors("quant", good_doc)
    if failures:
        print(f"self-test FAILED: passing quant doc hit floors ({failures})")
        return 1
    bad_doc = {"smoke": False,
               "quant": {"overlap_at_10": 0.97, "overlap_at_50": 0.995}}
    failures, _ = absolute_floors("quant", bad_doc)
    if failures != ["overlap_at_10"]:
        print("self-test FAILED: overlap@10 below the full floor not caught "
              f"(failures={failures})")
        return 1
    smoke_doc = {"smoke": True,
                 "quant": {"overlap_at_10": 0.97, "overlap_at_50": 0.92}}
    failures, _ = absolute_floors("quant", smoke_doc)
    if failures:
        print("self-test FAILED: smoke floors applied full thresholds "
              f"({failures})")
        return 1

    # Kernel absolute floor: the vector MatMul >= 3x its serial GFLOP/s.
    kdoc = {"smoke": False, "kernels": [
        {"name": "MatMul", "serial_gflops": 3.0, "vector_gflops": 12.0},
        {"name": "ScatterAddRows", "serial_gflops": 0.3},
    ]}
    failures, _ = absolute_floors("kernels", kdoc)
    if failures:
        print(f"self-test FAILED: passing kernel doc hit floors ({failures})")
        return 1
    slow_vector = {"smoke": True, "kernels": [
        {"name": "MatMul", "serial_gflops": 3.0, "vector_gflops": 6.0}]}
    failures, _ = absolute_floors("kernels", slow_vector)
    if failures != ["MatMul[vector]/serial"]:
        print("self-test FAILED: vector MatMul below 3x serial not caught "
              f"(failures={failures})")
        return 1

    # Missing/new entries warn but never gate, in either direction: renaming
    # a kernel or adding a gauge must not force a same-commit baseline bump.
    skewed_run = dict(run)
    skewed_run.pop("SpMM")
    skewed_run["BrandNewKernel"] = 0.001
    failures, lines = compare(skewed_run, run, tolerance)
    if failures:
        print(f"self-test FAILED: missing/new kernel entries gated ({failures})")
        return 1
    if not any("MISSING" in l for l in lines) or not any("NEW" in l for l in lines):
        print("self-test FAILED: missing/new kernel entries not reported")
        return 1
    skewed_lat = dict(lat)
    skewed_lat.pop("serving.batch8.p99_ms")
    skewed_lat["brand.new.p99_ms"] = 1e9
    failures, lines = compare_latency(skewed_lat, lat, tolerance, slack_ms)
    if failures:
        print(f"self-test FAILED: missing/new latency gauges gated ({failures})")
        return 1
    if not any("MISSING" in l for l in lines) or not any("NEW" in l for l in lines):
        print("self-test FAILED: missing/new latency gauges not reported")
        return 1
    print(f"self-test passed (tolerance {tolerance:.0%}, "
          f"latency slack {slack_ms:.2f} ms)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("current", nargs="?",
                        help="BENCH_*.json from this run")
    parser.add_argument("baseline", nargs="?",
                        help="matching file under bench/baselines/")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional change (default 0.25): "
                             "throughput drop for kernels, p99 increase for "
                             "latency docs")
    parser.add_argument("--latency-slack-ms", type=float, default=0.5,
                        help="absolute ms added to every latency ceiling "
                             "(default 0.5) so sub-ms baselines don't trip "
                             "on scheduler jitter")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every gate trips on a degraded run")
    args = parser.parse_args(argv)

    if not 0.0 < args.tolerance < 10.0:
        print(f"tolerance must be in (0, 10), got {args.tolerance}")
        return 2
    if args.latency_slack_ms < 0.0:
        print(f"latency slack must be >= 0, got {args.latency_slack_ms}")
        return 2
    if args.self_test:
        return self_test(args.tolerance, args.latency_slack_ms)
    if args.current is None or args.baseline is None:
        parser.print_usage()
        return 2

    try:
        current_kind, current, current_doc = load_entries(args.current)
        baseline_kind, baseline, _ = load_entries(args.baseline)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}")
        return 2
    if current_kind != baseline_kind:
        print(f"error: {args.current} is a {current_kind} doc but "
              f"{args.baseline} is a {baseline_kind} doc")
        return 2

    if current_kind == "kernels":
        failures, lines = compare(current, baseline, args.tolerance)
        unit, direction = "kernels", "regressed more than"
    elif current_kind == "trainer":
        failures, lines = compare(current, baseline, args.tolerance, unit="x")
        unit, direction = "trainer speedups", "regressed more than"
    elif current_kind == "quant":
        failures, lines = compare(current, baseline, args.tolerance,
                                  unit="overlap")
        unit, direction = "quant metrics", "regressed more than"
    else:
        failures, lines = compare_latency(current, baseline, args.tolerance,
                                          args.latency_slack_ms)
        unit, direction = "p99 gauges", "slowed more than"
    print(f"perf gate [{current_kind}]: {args.current} vs {args.baseline} "
          f"(tolerance {args.tolerance:.0%})")
    print("\n".join(lines))
    floor_failures, floor_lines = absolute_floors(current_kind, current_doc)
    if floor_lines:
        print("absolute floors (machine-relative, baseline-independent):")
        print("\n".join(floor_lines))
    if failures or floor_failures:
        if failures:
            print(f"\nFAIL: {len(failures)} {unit} {direction} "
                  f"{args.tolerance:.0%}: {', '.join(failures)}")
        if floor_failures:
            print(f"\nFAIL: {len(floor_failures)} absolute floor(s) broken: "
                  f"{', '.join(floor_failures)}")
        return 1
    print(f"\nPASS: {len(current)} {unit} within {args.tolerance:.0%} of "
          "baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
