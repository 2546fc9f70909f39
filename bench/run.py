"""Sweep benchmark for `purcell_lab`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 bench/run.py --check-configs

Workloads (see `workloads.WORKLOADS`): `thermal-sweep`, `drive-sweep-jobs2`
and `crosscheck`.  A run repeats rounds of its workload on inputs drawn
from the seed until `--seconds` have passed, checks every point against
`references.json`, and prints each metric by name with its unit.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the exit code is 1 when any point
fails the gate.

`--trace 0` measures with no wrappers installed and reports the end-to-end
metrics:

- `setup_s`: median over fresh processes of the time from process start
  until the workload is ready to run (imports, references, input
  generation);
- `s_per_point`: round wall time (precheck and CSV write included) per
  point that passed the gate;
- `point_s_p50`: median per-point time (`SweepRow.wall_time_s`, or one
  `rate_report` call);
- `peak_rss_mb`: peak resident memory of the process;
- `ok_ratio`: points that passed over points attempted.

`--trace 1` runs each round twice, untraced and then traced, checks that
both give identical rows, writes the spans to `bench/out/trace-*.jsonl`,
and reports per-layer figures of one round (median over the traced rounds)
plus `trace.overhead_ratio`, the median traced-over-untraced round wall
time.

`--workload all` runs every workload in its own process and prints their
metrics side by side; its last line sums the counts and names each metric
`<workload>.<metric>`.

`--check-configs` runs the four example configs (untimed) and compares
their CSVs byte for byte with `bench/golden/`.

Results, with the environment record, are also written to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_PROBES = 3
E2E_UNITS = {"setup_s": "s", "s_per_point": "s", "point_s_p50": "s",
             "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def import_library():
    """Put this checkout's `src/` first on the path and import from it."""
    init = ROOT / "src" / "purcell_lab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import purcell_lab

    if Path(purcell_lab.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: purcell_lab imported from {purcell_lab.__file__}")


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_max"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure_setup(args) -> float:
    """Median wall time of fresh processes that only set up the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def more_rounds(walls, start, seconds) -> bool:
    """Start another round unless it would end more than half a round past
    the deadline.  A run measures at least two rounds, so its peak memory
    always includes a second round's (new pool threads, reused buffers)."""
    if len(walls) < 2:
        return True
    return time.perf_counter() - start + statistics.mean(walls) / 2 < seconds


def run_untraced(wl, workload, stream, refs, seconds, csv_dir):
    walls, times, verdicts = [], [], []
    start = time.perf_counter()
    while more_rounds(walls, start, seconds):
        result = wl.run_round(workload, next(stream), csv_dir)
        walls.append(result.wall_s)
        times.extend(result.point_times)
        verdicts.extend(wl.check_round(result, refs))
    passed = sum(v is None for v in verdicts)
    metrics = {
        "s_per_point": sum(walls) / max(passed, 1),
        "point_s_p50": statistics.median(times) if times else sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": passed / len(verdicts),
    }
    notes = {"round_s": walls, "point_samples": len(times)}
    return metrics, verdicts, notes


def run_traced(wl, tracer_mod, workload, stream, refs, seconds, csv_dir, trace_path):
    tracer = tracer_mod.Tracer()
    pairs, ratios, per_round, verdicts = [], [], [], []
    start = time.perf_counter()
    while more_rounds(pairs, start, seconds):
        inputs = next(stream)
        plain = wl.run_round(workload, inputs, csv_dir)
        first = len(tracer.spans)
        with tracer, tracer.span("bench.round", point=f"round{len(pairs)}"):
            traced = wl.run_round(workload, inputs, csv_dir, tracer)
        pairs.append(plain.wall_s + traced.wall_s)
        ratios.append(traced.wall_s / plain.wall_s)
        per_round.append(tracer_mod.layer_metrics(tracer.spans[first:]))
        verdicts.extend(wl.check_round(plain, refs))
        for verdict, a, b in zip(wl.check_round(traced, refs), plain.rows, traced.rows):
            verdicts.append(verdict or (None if a == b else "traced row differs"))
    tracer.write_jsonl(trace_path)
    metrics = {
        name: statistics.median(r[name] for r in per_round) for name in per_round[0]
    }
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    notes = {"rounds": len(ratios), "spans": len(tracer.spans),
             "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, verdicts, notes


def run_all(args, names) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            raise SystemExit(f"error: {name} exited {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<18} {metric:<34} {entry['value']:.6g} {entry['unit']}")
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def check_configs(wl) -> int:
    out_dir = OUT / "configs"
    golden = wl.BENCH_DIR / "golden"
    written = {p.name: p for p in wl.write_example_csvs(ROOT / "configs", out_dir)}
    expected = {p.name: p for p in golden.glob("*.csv")}
    ok = written.keys() == expected.keys()
    for name in sorted(written.keys() | expected.keys()):
        same = (name in written and name in expected
                and written[name].read_bytes() == expected[name].read_bytes())
        ok = ok and same
        print(f"{name}: {'identical' if same else 'DIFFERS'}")
    print("configs:", "all CSVs identical to golden" if ok else "MISMATCH")
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="purcell_lab sweep benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-configs", action="store_true",
                        help="compare the example configs' CSVs with bench/golden")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # the set-up probe of measure_setup
    args = parser.parse_args(argv)
    if not args.check_configs and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from bench import envinfo, tracer
    from bench import workloads as wl

    if args.check_configs:
        return check_configs(wl)
    if args.workload == "all":
        return run_all(args, list(wl.WORKLOADS))
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    refs = wl.load_references()[workload.name]
    stream = wl.rounds(workload, args.seed)
    if args.setup_only:
        next(stream)
        return 0

    env = envinfo.environment(workload.jobs)
    csv_dir = OUT / "csv" / workload.name
    csv_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, verdicts, notes = run_traced(
            wl, tracer, workload, stream, refs, args.seconds, csv_dir,
            OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
    else:
        setup_s = measure_setup(args)
        metrics, verdicts, notes = run_untraced(
            wl, workload, stream, refs, args.seconds, csv_dir)
        metrics = {"setup_s": setup_s, **metrics}

    failures = [v for v in verdicts if v is not None]
    result = {
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**result, "env": env, "notes": notes, "failures": failures[:20]},
                   indent=1) + "\n", encoding="utf-8")
    print("env", json.dumps(env, sort_keys=True))
    print("notes", json.dumps(notes, sort_keys=True))
    for reason in failures[:5]:
        print("FAILED", reason)
    for name, value in metrics.items():
        samples = f"  (n={notes['point_samples']})" if name == "point_s_p50" else ""
        print(f"{name} = {value:.6g} {unit_of(name)}{samples}")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
