"""Seeded inputs, workload rounds, and the reference gate.

Each workload runs in rounds.  A round is one unit of work on inputs drawn
from the seed's stream: the sweeps run `run_scenario` on fresh grids and
write their CSVs, `crosscheck` runs one `rate_report`.  Grid values come
from fixed lattices, and `references.json` holds the expected row of every
lattice point, so any seed's output can be checked.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import random
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import purcell_lab.cli as cli
import purcell_lab.liouvillian as liouvillian
import purcell_lab.model as model
import purcell_lab.perturbation as perturbation
from purcell_lab.fockspace import TruncatedSpace

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
# The refactor gate: every rate within 1e-9 relative of its reference.
RATE_RTOL = 1e-9
PRECHECK_PREFIX = "truncation-precheck"

SIGNS = (1, -1)
OCCUPANCIES = tuple(round(0.01 * i, 2) for i in range(16))  # 0 .. 0.15
PHOTONS = tuple(0.5 * i for i in range(21))  # 0 .. 10
THERMAL_MODEL = {"omega_c": 0.0, "g": 0.1, "U": 0.01, "kappa_a": 0.0, "kappa_c": 0.01}
DRIVE_MODEL = {"omega_a": 1.0, "omega_c": 0.0, "g": 0.1, "U": 0.1,
               "kappa_a": 0.0, "kappa_c": 0.01}
DRIVE_OMEGA_D = -0.1
SWEEP_RATES = ("gamma_diag", "gamma_fit", "gamma_analytic_total",
               "base", "nc_nc", "nc_cd", "cd_cd")


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    cutoff: tuple[int, int]
    points: int  # grid points per sweep, or rate reports per round


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("thermal-sweep", jobs=1, cutoff=(8, 6), points=4),
        Workload("drive-sweep-jobs2", jobs=2, cutoff=(8, 6), points=6),
        Workload("crosscheck", jobs=1, cutoff=(6, 5), points=1),
    )
}


def thermal_config(sign: int, grid, cutoff) -> dict:
    return {
        "name": f"thermal_{'pos' if sign > 0 else 'neg'}",
        "model": {"omega_a": float(sign), **THERMAL_MODEL},
        "sweep": {"variable": "nbar_c0", "grid": list(grid)},
        "truncation": list(cutoff),
        "protocol": {"rates": "diag"},
    }


def drive_config(grid, cutoff) -> dict:
    return {
        "name": "drive",
        "model": dict(DRIVE_MODEL),
        "sweep": {"variable": "drive_photons", "grid": list(grid)},
        "truncation": list(cutoff),
        "drive": {"omega_D": DRIVE_OMEGA_D},
        "protocol": {"rates": "diag"},
    }


def thermal_key(sign: int, nbar: float) -> str:
    return f"{sign:+d}/{nbar:.2f}"


def drive_key(photons: float) -> str:
    return f"{photons:.1f}"


# -- inputs -----------------------------------------------------------------


def rounds(workload: Workload, seed: int):
    """Endless stream of round inputs; the same seed gives the same stream.

    Sweep rounds are lists of config dicts.  Every grid spans the whole
    range, from zero (the slope reference of `compare_report`) to the
    largest lattice value (where the precheck runs), and the seed draws
    the points in between.  Crosscheck rounds are (sign, occupancy) points
    whose sign alternates, so every run covers both detuning signs.
    """
    rng = random.Random(seed)

    def grid(lattice):
        inner = sorted(rng.sample(lattice[1:-1], workload.points - 2))
        return [lattice[0], *inner, lattice[-1]]

    for index in itertools.count():
        if workload.name == "thermal-sweep":
            yield [thermal_config(s, grid(OCCUPANCIES), workload.cutoff) for s in SIGNS]
        elif workload.name == "drive-sweep-jobs2":
            yield [drive_config(grid(PHOTONS), workload.cutoff)]
        else:
            yield [(SIGNS[index % 2], rng.choice(OCCUPANCIES))
                   for _ in range(workload.points)]


# -- running a round ----------------------------------------------------------


@dataclass
class RoundResult:
    wall_s: float
    point_times: list[float]
    rows: list[dict]  # one normalized row per attempted point, in order
    keys: list[str]  # reference key of each row
    tops: list[str | None]  # reference key of the sweep's top grid point


def sweep_row(row) -> dict:
    return {
        "rates": {c: getattr(row, c) for c in SWEEP_RATES},
        "converged": row.converged,
        "flags": list(row.flags),
    }


def report_row(report, caught) -> dict:
    a = report.gamma_analytic
    return {
        "rates": {
            "gamma_diag": report.gamma_diag,
            "gamma_fit": report.gamma_fit,
            "gamma_pt_numeric": report.gamma_pt_numeric,
            "gamma_analytic_total": a.total,
            "base": a.base,
            "nc_nc": a.nc_nc,
            "nc_cd": a.nc_cd,
            "cd_cd": a.cd_cd,
        },
        "flags": ["warn: " + " ".join(str(w.message).split()) for w in caught],
    }


def sweep_keys(config: dict) -> list[str]:
    grid = config["sweep"]["grid"]
    if config["sweep"]["variable"] == "drive_photons":
        return [drive_key(v) for v in grid]
    sign = int(config["model"]["omega_a"])
    return [thermal_key(sign, v) for v in grid]


def crosscheck_bundle(sign: int, nbar: float, cutoff):
    params = model.SystemParams(omega_a=float(sign), nbar_c0=nbar, **THERMAL_MODEL)
    return liouvillian.build_blackbox(
        model.polariton_frame(params), params, TruncatedSpace(cutoff)
    )


def run_round(workload: Workload, inputs, out_dir: Path, tracer=None) -> RoundResult:
    """Run one round through the public API and collect its rows.

    With a tracer, each sweep and each report runs inside a `bench.*` span
    that names its grid point.  Library calls are looked up on their
    modules at call time, so an installed tracer sees them.
    """
    def span(name, point):
        return tracer.span(name, point) if tracer else contextlib.nullcontext()

    result = RoundResult(0.0, [], [], [], [])
    start = time.perf_counter()
    for item in inputs:
        if workload.name == "crosscheck":
            sign, nbar = item
            key = thermal_key(sign, nbar)
            t0 = time.perf_counter()
            try:
                with span("bench.point", key), warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    bundle = crosscheck_bundle(sign, nbar, workload.cutoff)
                    report = perturbation.rate_report(bundle)
                result.rows.append(report_row(report, caught))
                result.point_times.append(time.perf_counter() - t0)
            except Exception as err:  # a lost point is a gate failure, not a crash
                result.rows.append({"error": f"{type(err).__name__}: {err}"})
            result.keys.append(key)
            result.tops.append(None)
            continue
        keys = sweep_keys(item)
        try:
            with span("bench.sweep", item["name"]):
                config = cli.config_from_dict(item)
                rows, _ = cli.run_scenario(config, jobs=workload.jobs)
                cli.write_rows(rows, config, out_dir / config.csv_name)
            result.rows.extend(sweep_row(r) for r in rows)
            result.point_times.extend(r.wall_time_s for r in rows)
        except Exception as err:  # every point of the grid is lost
            result.rows.extend({"error": f"{type(err).__name__}: {err}"} for _ in keys)
        result.keys.extend(keys)
        result.tops.extend(keys[-1] for _ in keys)
    result.wall_s = time.perf_counter() - start
    return result


# -- the gate -------------------------------------------------------------


def load_references(path: Path = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rate_matches(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if got == want:
        return True
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    return abs(got - want) <= RATE_RTOL * max(abs(got), abs(want))


def expected_row(refs: dict, key: str, top: str | None) -> dict:
    """Reference row of a lattice point.  In a sweep, the precheck runs at
    the top of the grid, so `converged` and the precheck flag come from
    the top point's reference."""
    want = refs[key]
    if top is None:
        return want
    top_ref = refs[top]
    return {
        "rates": want["rates"],
        "converged": top_ref["converged"],
        "flags": [f for f in top_ref["flags"] if f.startswith(PRECHECK_PREFIX)]
        + [f for f in want["flags"] if not f.startswith(PRECHECK_PREFIX)],
    }


def check_row(row: dict, refs: dict, key: str, top: str | None) -> str | None:
    """None when the row passes the gate, else why it fails."""
    if "error" in row:
        return row["error"]
    if key not in refs or (top is not None and top not in refs):
        return f"no reference for {key}"
    want = expected_row(refs, key, top)
    if any(f.startswith("error:") for f in row["flags"]):
        return f"error flag: {row['flags']}"
    if row["flags"] != want["flags"]:
        return f"flags {row['flags']} != {want['flags']}"
    if row.get("converged") != want.get("converged"):
        return f"converged {row.get('converged')} != {want.get('converged')}"
    for col, ref in want["rates"].items():
        if not _rate_matches(row["rates"].get(col), ref):
            return f"{col} {row['rates'].get(col)!r} != {ref!r}"
    return None


def check_round(result: RoundResult, refs: dict) -> list[str | None]:
    return [
        check_row(row, refs, key, top)
        for row, key, top in zip(result.rows, result.keys, result.tops)
    ]


# -- example configs ------------------------------------------------------


def write_example_csvs(configs_dir: Path, out_dir: Path) -> list[Path]:
    """Run every example config serially and write its results CSV."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for path in sorted(configs_dir.glob("*.json")):
        config = cli.load_config(path)
        rows, _ = cli.run_scenario(config, jobs=1)
        cli.write_rows(rows, config, out_dir / config.csv_name)
        written.append(out_dir / config.csv_name)
    return written
