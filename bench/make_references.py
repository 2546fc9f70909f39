"""Regenerate the benchmark's stored references.

    python3 bench/make_references.py [--only NAME ...]

Writes `bench/references.json` (the expected row of every lattice point of
every workload) and `bench/golden/*.csv` (the example configs' CSVs).  Run
it only when the benchmark's inputs change: the references are the
correctness gate for later changes to the library, so regenerating them to
absorb a numerical change defeats the gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import purcell_lab.cli as cli  # noqa: E402
import purcell_lab.perturbation as perturbation  # noqa: E402

from bench import workloads as wl  # noqa: E402

GOLDEN = "golden"


def sweep_refs(configs) -> dict:
    refs = {}
    for config_dict in configs:
        (key,) = wl.sweep_keys(config_dict)
        rows, _ = cli.run_scenario(cli.config_from_dict(config_dict), jobs=1)
        refs[key] = wl.sweep_row(rows[0])
        print(key, refs[key], flush=True)
    return refs


def crosscheck_refs(workload) -> dict:
    refs = {}
    for sign in wl.SIGNS:
        for nbar in wl.OCCUPANCIES:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                bundle = wl.crosscheck_bundle(sign, nbar, workload.cutoff)
                report = perturbation.rate_report(bundle)
            key = wl.thermal_key(sign, nbar)
            refs[key] = wl.report_row(report, caught)
            print(key, refs[key], flush=True)
    return refs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="*", default=None,
                        help="workloads to regenerate ('golden' for the CSVs)")
    args = parser.parse_args()
    only = set(args.only) if args.only else set(wl.WORKLOADS) | {GOLDEN}
    refs = wl.load_references() if wl.REFERENCES.exists() else {}

    w = wl.WORKLOADS["thermal-sweep"]
    if w.name in only:
        refs[w.name] = sweep_refs(
            wl.thermal_config(s, [v], w.cutoff) for s in wl.SIGNS for v in wl.OCCUPANCIES
        )
    w = wl.WORKLOADS["drive-sweep-jobs2"]
    if w.name in only:
        refs[w.name] = sweep_refs(wl.drive_config([v], w.cutoff) for v in wl.PHOTONS)
    w = wl.WORKLOADS["crosscheck"]
    if w.name in only:
        refs[w.name] = crosscheck_refs(w)

    bad = [
        (name, key) for name, table in refs.items() for key, row in table.items()
        if any(f.startswith("error:") for f in row["flags"])
    ]
    if bad:
        print(f"reference points with error flags: {bad}", file=sys.stderr)
        return 1
    wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    if GOLDEN in only:
        wl.write_example_csvs(ROOT / "configs", wl.BENCH_DIR / GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main())
