"""Config-driven scenario runner.

Sweeps one knob (cavity bath occupancy, coherent drive photons, or the
detuning sign) over a grid, extracts the slow qubit relaxation rate per
point through the selected protocols, evaluates the matching analytic
formula alongside, and writes a versioned CSV.  A second pass turns a
finished CSV into a rate cross-check report (numeric vs analytic slope,
protocol discrepancies, accumulated guard flags) as JSON.

The CSV is byte-deterministic for a given config: fixed column order,
fixed float formatting, ``\\n`` line endings, and no timestamps.  Wall
times are kept on the in-memory rows and reported on stdout only.
"""

from __future__ import annotations

import argparse
import contextvars
import ctypes
import json
import math
import os
import re
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy
import scipy

from .fockspace import TruncatedSpace
from .liouvillian import (
    GeneratorBundle,
    TermToggles,
    build_bare,
    build_blackbox,
    build_displaced,
)
from .model import (
    DriveParams,
    SystemParams,
    displaced_frame,
    displacement,
    polariton_frame,
)
from .perturbation import (
    Gamma2Breakdown,
    diagnostics,
    gamma_coherent_analytic,
    gamma_jc_analytic,
    gamma_thermal_analytic,
)
from .spectral import FIT_WINDOW, block_labels, spectrum, t1_rate_diag, t1_rate_fit

CSV_SCHEMA = "purcell-lab/sweep-v1"
SWEEP_VARIABLES = ("nbar_c0", "drive_photons", "detuning_sign")
# Relative drift of the diag rate under a +2 bump of every cutoff, checked
# once at the most demanding grid point: the bumped solve runs before the
# points (or beside them with --jobs > 1), and its rate is compared with the
# top row's.
CONVERGENCE_RTOL = 1e-3

_MODEL_FIELDS = tuple(f.name for f in fields(SystemParams))
_TOGGLE_FIELDS = tuple(f.name for f in fields(TermToggles))


class ConfigError(ValueError):
    """A scenario config that does not satisfy the published schema."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (see the schema walk-through in the
    README; configs are plain JSON)."""

    name: str
    params: SystemParams
    variable: str
    grid: tuple[float, ...]
    truncation: tuple[int, int]
    toggles: TermToggles
    rates: str  # "diag" | "fit" | "both"
    fit_horizon: float | None
    fit_window: tuple[float, float]
    comparison: str  # "blackbox" | "jc"
    drive_omega_D: float | None
    csv_name: str


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a finished sweep; its fields in order are the CSV
    columns.  ``flags`` accumulates every guard breach and warning raised
    while the point ran; an empty tuple means a clean point.  ``wall_time_s``
    is excluded from the CSV so identical configs produce identical bytes.
    """

    value: float
    gamma_diag: float
    gamma_fit: float | None
    gamma_analytic_total: float
    base: float
    nc_nc: float
    nc_cd: float
    cd_cd: float
    converged: bool
    flags: tuple[str, ...]
    wall_time_s: float


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow) if f.name != "wall_time_s")


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _is_number(value) -> bool:
    """A JSON number; true/false are booleans, not 1/0."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario config JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ScenarioConfig:
    _require(isinstance(raw, dict), "config root must be a JSON object")
    known = {
        "name",
        "model",
        "sweep",
        "truncation",
        "toggles",
        "protocol",
        "comparison",
        "drive",
        "output",
        "units",
    }
    extra = set(raw) - known
    _require(not extra, f"unknown config keys: {sorted(extra)}")

    name = raw.get("name")
    _require(
        isinstance(name, str) and re.fullmatch(r"[A-Za-z0-9_-]+", name),
        "name must be a nonempty string of [A-Za-z0-9_-]",
    )

    model = raw.get("model")
    _require(isinstance(model, dict), "model block is required")
    extra = set(model) - set(_MODEL_FIELDS)
    _require(not extra, f"unknown model keys: {sorted(extra)}")
    missing = {"omega_a", "omega_c", "g", "kappa_c"} - set(model)
    _require(not missing, f"model block missing {sorted(missing)}")
    for key, val in model.items():
        _require(
            _is_number(val) and math.isfinite(val),
            f"model.{key} must be a finite number",
        )
    try:
        params = SystemParams(
            **{"U": 0.0, "kappa_a": 0.0, **{k: float(v) for k, v in model.items()}}
        )
    except ValueError as err:
        raise ConfigError(f"model block rejected: {err}") from err

    sweep = raw.get("sweep")
    _require(isinstance(sweep, dict), "sweep block is required")
    _require(
        set(sweep) == {"variable", "grid"},
        "sweep block must have exactly the keys 'variable' and 'grid'",
    )
    variable = sweep["variable"]
    _require(
        variable in SWEEP_VARIABLES,
        f"sweep.variable must be one of {SWEEP_VARIABLES}, got {variable!r}",
    )
    grid_raw = sweep["grid"]
    _require(
        isinstance(grid_raw, list) and len(grid_raw) > 0,
        "sweep.grid must be a non-empty list",
    )
    _require(
        all(_is_number(v) and math.isfinite(v) for v in grid_raw),
        "sweep.grid entries must be finite numbers",
    )
    grid = tuple(float(v) for v in grid_raw)
    _require(
        all(b > a for a, b in zip(grid, grid[1:])),
        "sweep.grid must be strictly increasing",
    )
    if variable == "nbar_c0":
        _require(grid[0] >= 0.0, "bath occupancies must be nonnegative")
    elif variable == "drive_photons":
        _require(grid[0] >= 0.0, "drive photon numbers must be nonnegative")
    else:  # detuning_sign
        _require(
            all(v in (-1.0, 1.0) for v in grid),
            "detuning_sign grid entries must be -1 or +1",
        )

    trunc_raw = raw.get("truncation")
    _require(
        isinstance(trunc_raw, list)
        and len(trunc_raw) == 2
        and all(isinstance(d, int) and d >= 2 for d in trunc_raw),
        "truncation must be [d_cavity, d_qubit] with integers >= 2",
    )
    truncation = (trunc_raw[0], trunc_raw[1])

    toggles_raw = raw.get("toggles", {})
    _require(isinstance(toggles_raw, dict), "toggles must be an object")
    extra = set(toggles_raw) - set(_TOGGLE_FIELDS)
    _require(not extra, f"unknown toggle keys: {sorted(extra)}")
    _require(
        all(isinstance(v, bool) for v in toggles_raw.values()),
        "toggle values must be booleans",
    )
    toggles = TermToggles(**toggles_raw)

    protocol = raw.get("protocol", {})
    _require(isinstance(protocol, dict), "protocol must be an object")
    extra = set(protocol) - {"rates", "fit_horizon", "fit_window"}
    _require(not extra, f"unknown protocol keys: {sorted(extra)}")
    rates = protocol.get("rates", "diag")
    _require(
        rates in ("diag", "fit", "both"),
        f"protocol.rates must be diag|fit|both, got {rates!r}",
    )
    fit_horizon = protocol.get("fit_horizon")
    _require(
        fit_horizon is None
        or (
            _is_number(fit_horizon)
            and math.isfinite(fit_horizon)
            and fit_horizon > 0
        ),
        "protocol.fit_horizon must be a positive finite number or null",
    )
    window_raw = protocol.get("fit_window", list(FIT_WINDOW))
    _require(
        isinstance(window_raw, list)
        and len(window_raw) == 2
        and all(_is_number(v) for v in window_raw)
        and 0.0 <= window_raw[0] < window_raw[1] <= 1.0,
        "protocol.fit_window must be [lo, hi] with 0 <= lo < hi <= 1",
    )

    comparison = raw.get("comparison", "blackbox")
    _require(
        comparison in ("blackbox", "jc"),
        f"comparison must be blackbox|jc, got {comparison!r}",
    )
    if comparison == "jc":
        _require(
            truncation[1] == 2,
            "the two-level comparison model needs truncation [d_cavity, 2]",
        )
        _require(
            params.kappa_a == 0.0,
            "the two-level comparison model assumes model.kappa_a = 0",
        )
        _require(
            variable != "drive_photons",
            "the two-level comparison model has no drive sweep",
        )

    drive_raw = raw.get("drive")
    if variable == "drive_photons":
        _require(
            isinstance(drive_raw, dict) and set(drive_raw) == {"omega_D"},
            "drive sweeps need a drive block with exactly the key omega_D",
        )
        omega_d = drive_raw["omega_D"]
        _require(
            _is_number(omega_d) and math.isfinite(omega_d),
            "drive.omega_D must be a finite number",
        )
        _require(
            params.nbar_c0 == 0.0 and params.nbar_a0 == 0.0,
            "drive sweeps assume zero-temperature baths",
        )
        drive_omega_D = float(omega_d)
    else:
        _require(drive_raw is None, "drive block is only valid for drive sweeps")
        drive_omega_D = None

    output = raw.get("output", {})
    _require(isinstance(output, dict), "output must be an object")
    extra = set(output) - {"csv"}
    _require(not extra, f"unknown output keys: {sorted(extra)}")
    csv_name = output.get("csv", f"{name}.csv")
    _require(
        isinstance(csv_name, str) and csv_name.endswith(".csv") and "/" not in csv_name,
        "output.csv must be a bare *.csv file name",
    )

    units = raw.get("units", {})
    _require(isinstance(units, dict), "units must be an object")
    extra = set(units) - {"delta_over_2pi_GHz"}
    _require(not extra, f"unknown units keys: {sorted(extra)}")
    ghz = units.get("delta_over_2pi_GHz")
    _require(
        ghz is None or (_is_number(ghz) and math.isfinite(ghz) and ghz > 0),
        "units.delta_over_2pi_GHz must be a positive finite number",
    )

    return ScenarioConfig(
        name=name,
        params=params,
        variable=variable,
        grid=grid,
        truncation=truncation,
        toggles=toggles,
        rates=rates,
        fit_horizon=None if fit_horizon is None else float(fit_horizon),
        fit_window=(float(window_raw[0]), float(window_raw[1])),
        comparison=comparison,
        drive_omega_D=drive_omega_D,
        csv_name=csv_name,
    )


def _point_params(config: ScenarioConfig, value: float) -> SystemParams:
    """System parameters with the sweep variable substituted in; always a
    fresh instance, so each point flags its own validation warnings."""
    p = config.params
    if config.variable == "nbar_c0":
        return replace(p, nbar_c0=value)
    if config.variable == "detuning_sign":
        return replace(p, omega_a=p.omega_c + value * abs(p.delta))
    return replace(p)


def _drive_for_photons(
    params: SystemParams, omega_d: float, photons: float
) -> DriveParams:
    """Drive amplitude that puts `photons` coherent photons in the cavity.

    The displacement problem is linear in f_c, so one unit-amplitude solve
    fixes the scale.
    """
    if photons == 0.0:
        return DriveParams(f_c=0.0, omega_D=omega_d)
    alpha_c, _, _ = displacement(params, DriveParams(f_c=1.0, omega_D=omega_d))
    return DriveParams(f_c=math.sqrt(photons) / abs(alpha_c), omega_D=omega_d)


def _build_point(
    config: ScenarioConfig, value: float, truncation: tuple[int, int]
) -> tuple[GeneratorBundle, Gamma2Breakdown, tuple[str, ...]]:
    """Bundle, matching analytic rate, and regime flags for one grid point.

    The two-level comparison model reports its golden-rule rate as both the
    base and the total, with zero channels, and gets no regime diagnostics
    (there is no dressed frame to diagnose).
    """
    space = TruncatedSpace(truncation)
    params = _point_params(config, value)
    if config.variable == "drive_photons":
        frame = polariton_frame(params)
        drive = _drive_for_photons(params, config.drive_omega_D, value)
        dframe = displaced_frame(params, drive)
        bundle = build_displaced(dframe, params, space, config.toggles)
        analytic = gamma_coherent_analytic(dframe, frame)
        regime = diagnostics(frame).flags
    elif config.comparison == "jc":
        bundle = build_bare(params, space)
        r = gamma_jc_analytic(params)
        analytic = Gamma2Breakdown(base=r, nc_nc=0.0, nc_cd=0.0, cd_cd=0.0)
        regime = ()
    else:
        frame = polariton_frame(params)
        bundle = build_blackbox(frame, params, space, config.toggles)
        analytic = gamma_thermal_analytic(frame)
        regime = diagnostics(frame).flags
    return bundle, analytic, regime


def _flag_text(message) -> str:
    """One warning/error as a CSV-safe flag token.

    Whitespace runs collapse to one space; the CSV field separator "," and
    the flag separator ";" both become "|", so a flag reads back as written.
    """
    text = " ".join(str(message).split())
    return text.replace(",", "|").replace(";", "|")


# Warnings of the grid point running in this context; None outside a point.
# A context variable, not a thread-local, so a solver's helper thread that
# runs in a copy of the point's context records into the point's list.
_point_warnings: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "_point_warnings", default=None
)


def _record_warning(message, *_):
    caught = _point_warnings.get()
    if caught is not None:
        caught.append(message)


def _run_point(config: ScenarioConfig, value: float) -> SweepRow:
    """One grid point: regime flags, then an ``error:`` flag, then the
    ``warn:`` flags of the warnings it raised.  `run_scenario` sets
    ``converged`` and adds the precheck note."""
    start = time.perf_counter()
    flags: list[str] = []
    caught: list = []
    token = _point_warnings.set(caught)
    gamma_fit = None
    try:
        bundle, analytic, regime = _build_point(config, value, config.truncation)
        flags.extend(regime)
        diag = t1_rate_diag(bundle)
        gamma_diag = diag.gamma
        if config.rates in ("fit", "both"):
            gamma_fit = t1_rate_fit(
                bundle, diag.rho_ss, config.fit_horizon, config.fit_window
            ).gamma
        total, base = analytic.total, analytic.base
        nc_nc, nc_cd, cd_cd = analytic.nc_nc, analytic.nc_cd, analytic.cd_cd
    except (ValueError, RuntimeError) as err:
        flags.append("error: " + _flag_text(err))
        gamma_diag = total = base = nc_nc = nc_cd = cd_cd = math.nan
        gamma_fit = None
    finally:
        _point_warnings.reset(token)
    flags.extend("warn: " + _flag_text(m) for m in caught)
    return SweepRow(
        value=value,
        gamma_diag=gamma_diag,
        gamma_fit=gamma_fit,
        gamma_analytic_total=total,
        base=base,
        nc_nc=nc_nc,
        nc_cd=nc_cd,
        cd_cd=cd_cd,
        converged=False,
        flags=tuple(flags),
        wall_time_s=time.perf_counter() - start,
    )


def _convergence_precheck(config: ScenarioConfig) -> float:
    """Diag rate at the top of the grid with every cutoff bumped by 2.

    The qubit cutoff is pinned at 2 for the two-level comparison model
    (the model is defined there, not truncated there).
    """
    d_c, d_a = config.truncation
    bumped = (d_c + 2, d_a if config.comparison == "jc" else d_a + 2)
    return t1_rate_diag(_build_point(config, config.grid[-1], bumped)[0]).gamma


def _precheck_verdict(
    top: SweepRow, wide: float, failure: str
) -> tuple[bool, float, str]:
    """(converged, drift, note) from the top row and the bumped rate.

    A failed top row outranks a failed bumped solve, which outranks the
    drift; the note is empty for a converged sweep.
    """
    for flag in top.flags:
        if flag.startswith("error: "):
            failure = flag[len("error: "):]
            break
    if failure:
        return False, math.nan, "truncation-precheck-failed: " + failure
    base = top.gamma_diag
    if not math.isfinite(base) or not math.isfinite(wide):
        return False, math.nan, "truncation-precheck-exceeded"
    drift = float(abs(wide - base) / max(abs(wide), 1e-300))
    converged = drift <= CONVERGENCE_RTOL
    return converged, drift, "" if converged else "truncation-precheck-exceeded"


def _openblas_threads() -> list[tuple]:
    """(get, set) thread-count functions of each OpenBLAS copy that numpy
    and scipy bundle and this process has loaded.

    The two wheels ship separate copies in `<package>.libs/` (numpy's with
    64-bit integer symbols).  A copy that is absent, not loaded, or lacks
    the functions is left out, so the list may be empty.
    """
    controls = []
    for package in (numpy, scipy):
        name = package.__name__
        libs = Path(package.__file__).resolve().parent.parent / f"{name}.libs"
        for path in sorted(libs.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            except OSError:  # not loaded by this process
                continue
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                    put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


def _with_one_blas_thread(fn, *args):
    """``fn(*args)`` with every bundled OpenBLAS copy at one thread.

    The previous counts come back afterwards, also when `fn` raises; with
    no copy found this is a plain call.
    """
    blas = [(put, get()) for get, put in _openblas_threads()]
    try:
        for put, _ in blas:
            put(1)
        return fn(*args)
    finally:
        for put, threads in reversed(blas):
            put(threads)


def _precheck_outcome(config: ScenarioConfig) -> tuple[float, str]:
    """The bumped rate and an empty failure note, or NaN and the note of
    the guard or solver failure that stopped the precheck."""
    try:
        return _convergence_precheck(config), ""
    except (ValueError, RuntimeError) as err:
        # a guard or solver failure at the largest grid point is a
        # per-point matter; the sweep itself proceeds and flags each row
        return math.nan, _flag_text(err)


def _solve_grid(
    config: ScenarioConfig, jobs: int
) -> tuple[list[SweepRow], float, str]:
    """Rows of every grid point, plus the bumped rate and failure note of
    the precheck.  With one job the precheck runs before the points; with
    more it is the first task of their pool, so it runs beside them."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _record_warning
        jobs = max(1, min(jobs, len(config.grid) + 1))  # +1: the precheck
        if jobs == 1:
            wide, failure = _precheck_outcome(config)
            rows = [_run_point(config, v) for v in config.grid]
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                # the precheck is the longest task, so it goes first; its
                # thread records no warnings outside `_run_point`
                precheck = pool.submit(_precheck_outcome, config)
                futures = [pool.submit(_run_point, config, v) for v in config.grid]
                try:
                    for done in as_completed([precheck, *futures]):
                        done.result()  # the first uncaught failure raises here
                except BaseException:  # Ctrl-C too: drop the queued points
                    pool.shutdown(cancel_futures=True)
                    raise
                rows = [f.result() for f in futures]
                wide, failure = precheck.result()
    return rows, wide, failure


def run_scenario(
    config: ScenarioConfig, jobs: int = 1
) -> tuple[list[SweepRow], dict]:
    """Execute every grid point and assemble the run summary.

    Every point is solved once, and the top row doubles as the base rate
    of the bumped-cutoff precheck.  With jobs = 1 the precheck runs first;
    with jobs > 1 it is one more task on the thread pool that runs the
    points (the heavy numerics release the GIL), submitted first so it runs
    beside them.  Each point records the warnings its own thread raised, so
    rows (and CSV bytes) do not depend on `jobs`; warnings of the precheck
    are dropped.  Row order always follows the grid.  The summary's
    ``wall_time_s`` covers the whole call, precheck included.

    The precheck and the points run with both bundled OpenBLAS copies at
    one thread, so pool workers do not oversubscribe the cores and the
    rates do not depend on the caller's BLAS thread count; the caller's
    counts are restored on return, also when a point raises.
    """
    start = time.perf_counter()
    rows, wide, failure = _with_one_blas_thread(_solve_grid, config, jobs)
    converged, drift, note = _precheck_verdict(rows[-1], wide, failure)
    prefix = (note,) if note else ()
    rows = [replace(row, converged=converged, flags=prefix + row.flags) for row in rows]
    summary = {
        "scenario": config.name,
        "points": len(rows),
        "converged": converged,
        "precheck_drift": drift,
        "hard_errors": sum(
            any(f.startswith("error:") for f in row.flags) for row in rows
        ),
        "wall_time_s": time.perf_counter() - start,
    }
    return rows, summary


def _format_field(column: str, value) -> str:
    if column == "converged":
        return "true" if value else "false"
    if column == "flags":
        return ";".join(value)
    return "" if value is None else f"{value:.14e}"


def _parse_field(column: str, text: str):
    if column == "converged":
        return text == "true"
    if column == "flags":
        return tuple(f for f in text.split(";") if f)
    if column == "gamma_fit" and not text:
        return None
    return float(text)  # an empty rate outside gamma_fit raises ValueError


def write_rows(rows: list[SweepRow], config: ScenarioConfig, path: Path) -> None:
    """Write the versioned, byte-deterministic results CSV."""
    lines = [
        f"#schema={CSV_SCHEMA}",
        f"#scenario={config.name}",
        f"#variable={config.variable}",
        ",".join(CSV_COLUMNS),
    ]
    for row in rows:
        lines.append(",".join(_format_field(c, getattr(row, c)) for c in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_rows(path: str | Path) -> list[SweepRow]:
    """Read a results CSV back into rows (wall times are not stored)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != f"#schema={CSV_SCHEMA}":
        raise ValueError(
            f"not a {CSV_SCHEMA} file: missing or wrong #schema header"
        )
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0] != ",".join(CSV_COLUMNS):
        raise ValueError("unexpected CSV column header")
    rows = []
    for line in body[1:]:
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"malformed CSV row: {line!r}")
        cells = {c: _parse_field(c, t) for c, t in zip(CSV_COLUMNS, parts)}
        rows.append(SweepRow(**cells, wall_time_s=0.0))
    return rows


def compare_report(rows: list[SweepRow]) -> dict:
    """Numeric-vs-analytic cross-checks over a finished sweep.

    The slope ratio is a finite difference over the first two grid points,
    so for occupancy/drive sweeps starting at 0 it is the zero-temperature
    (zero-drive) slope ratio.
    """
    if len(rows) < 2:
        raise ValueError("compare_report needs at least 2 rows")
    dv = rows[1].value - rows[0].value
    slope_num = (rows[1].gamma_diag - rows[0].gamma_diag) / dv
    slope_ana = (rows[1].gamma_analytic_total - rows[0].gamma_analytic_total) / dv
    ratio = slope_num / slope_ana if slope_ana != 0.0 else math.nan
    fit_rel = [
        abs(r.gamma_fit - r.gamma_diag) / abs(r.gamma_diag)
        for r in rows
        if r.gamma_fit is not None and r.gamma_diag != 0.0
    ]
    return {
        "n_rows": len(rows),
        "slope_numeric": slope_num,
        "slope_analytic": slope_ana,
        "slope_ratio": ratio,
        # NaN from an error: row propagates through the max like the mean
        "fit_vs_diag_max": float(numpy.max(fit_rel)) if fit_rel else None,
        "fit_vs_diag_mean": (sum(fit_rel) / len(fit_rel)) if fit_rel else None,
        "flags": sorted({f for r in rows for f in r.flags}),
    }


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    rows, summary = run_scenario(config, jobs=args.jobs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / config.csv_name
    write_rows(rows, config, out_path)
    for row in rows:
        note = "" if not row.flags else f"  [{'; '.join(row.flags)}]"
        fit = "" if row.gamma_fit is None else f"  fit={row.gamma_fit:.6e}"
        print(
            f"{config.variable}={row.value:g}  diag={row.gamma_diag:.6e}"
            f"{fit}  analytic={row.gamma_analytic_total:.6e}"
            f"  ({row.wall_time_s:.2f} s){note}"
        )
    print(
        f"wrote {out_path}  ({summary['points']} points, "
        f"{summary['wall_time_s']:.1f} s total, "
        f"precheck drift {summary['precheck_drift']:.2e})"
    )
    if summary["hard_errors"]:
        print(f"[error] {summary['hard_errors']} grid point(s) failed")
        return 1
    return 0


def _cmd_compare(args) -> int:
    rows = read_rows(args.rows)
    report = compare_report(rows)
    # strict JSON has no NaN: the NaN rates of an error: row become null
    strict = {k: None if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in report.items()}
    out = Path(args.out)
    out.write_text(
        json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {out}  (slope ratio {report['slope_ratio']:.4f})")
    return 0


def _cmd_spectrum(args) -> int:
    config = load_config(args.config)
    bundle, _, _ = _build_point(config, config.grid[-1], config.truncation)
    modes = block_labels(bundle, spectrum(bundle, count=args.count))
    print(f"# {config.name}: {config.variable}={config.grid[-1]:g}, "
          f"{len(modes)} slowest modes")
    print(f"{'Re lambda':>24}  {'Im lambda':>24}  label")
    for mode in modes:
        label = mode.label
        if label.kind == "mixed":
            tag = f"(mixed,k={label.k})"
        else:
            tag = f"({label.m_c:+d},{label.m_a:+d},k={label.k}) {label.kind}"
        print(f"{mode.lam.real:+.16e}  {mode.lam.imag:+.16e}  {tag}")
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    print(f"ok: {config.name} ({config.variable} sweep, "
          f"{len(config.grid)} points)")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purcell-lab",
        description="Sweep dressed-qubit relaxation rates and cross-check "
        "numeric extraction against the analytic formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a scenario and write the results CSV")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker threads (>= 1); the CSV does not depend on it")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="cross-check report from a results CSV")
    p.add_argument("--rows", required=True, help="results CSV from `sweep`")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "spectrum", help="print the slowest generator modes at the last grid point"
    )
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--count", type=_positive_int, default=10,
                   help="modes to print (>= 1)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("validate", help="schema-check a config and exit")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"[error] {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
