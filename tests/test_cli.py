"""Tests for the scenario runner: schema, sweeps, CSV determinism, reports."""

import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import purcell_lab.cli
import purcell_lab.liouvillian
import purcell_lab.spectral
from purcell_lab.cli import (
    ConfigError,
    SweepRow,
    _flag_text,
    _openblas_threads,
    _with_one_blas_thread,
    compare_report,
    config_from_dict,
    load_config,
    main,
    read_rows,
    run_scenario,
    write_rows,
)
from purcell_lab.fockspace import TruncatedSpace
from purcell_lab.liouvillian import build_bare, build_blackbox
from purcell_lab.model import DriveParams, SystemParams, displaced_frame, polariton_frame
from purcell_lab.perturbation import gamma_jc_analytic, gamma_thermal_analytic
from purcell_lab.spectral import steady_state, t1_rate_diag, t1_rate_fit

BASE_CONFIG = {
    "name": "unit",
    "model": {
        "omega_a": 1.0,
        "omega_c": 0.0,
        "g": 0.1,
        "U": 0.01,
        "kappa_a": 0.0,
        "kappa_c": 0.01,
    },
    "sweep": {"variable": "nbar_c0", "grid": [0.0, 0.02]},
    "truncation": [6, 4],
    "protocol": {"rates": "diag"},
}


def make_config(**over):
    raw = json.loads(json.dumps(BASE_CONFIG))
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(raw.get(key), dict):
            raw[key].update(val)
        else:
            raw[key] = val
    return raw


def write_config(tmp_path, **over):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_config(**over)), encoding="utf-8")
    return path


class TestConfigSchema:
    def test_minimal_config_defaults(self):
        config = config_from_dict(make_config())
        assert config.name == "unit"
        assert config.comparison == "blackbox"
        assert config.rates == "diag"
        assert config.csv_name == "unit.csv"
        assert config.toggles.include_nc and config.toggles.include_cd
        assert config.fit_window == (0.95, 1.0)

    @pytest.mark.parametrize(
        "over,match",
        [
            ({"sweep": {"grid": []}}, "non-empty"),
            ({"sweep": {"grid": [0.1, 0.1]}}, "strictly increasing"),
            ({"sweep": {"variable": "kappa_c"}}, "sweep.variable"),
            ({"truncation": [6]}, "truncation"),
            ({"truncation": [6, 1]}, "truncation"),
            ({"protocol": {"rates": "euler"}}, "protocol.rates"),
            ({"bogus": 1}, "unknown config keys"),
            ({"model": {"flux": 0.3}}, "unknown model keys"),
            ({"toggles": {"include_nc": 1}}, "booleans"),
            ({"output": {"csv": "../escape.csv"}}, "bare"),
            # names are ASCII, although str.isalnum accepts these
            ({"name": "tüst"}, "name must be"),
            ({"name": "x²"}, "name must be"),
            ({"name": "٣"}, "name must be"),
            # JSON booleans are not numbers
            ({"model": {"kappa_c": True}}, "model.kappa_c"),
            ({"sweep": {"grid": [False, True]}}, "sweep.grid"),
            ({"protocol": {"fit_horizon": True}}, "fit_horizon"),
            ({"protocol": {"fit_window": [False, True]}}, "fit_window"),
            (
                {
                    "sweep": {"variable": "drive_photons", "grid": [0.0, 1.0]},
                    "drive": {"omega_D": True},
                },
                "omega_D",
            ),
            ({"units": {"delta_over_2pi_GHz": True}}, "delta_over_2pi_GHz"),
            # Python's json parses Infinity
            ({"protocol": {"fit_horizon": float("inf")}}, "fit_horizon"),
            ({"units": {"delta_over_2pi_GHz": float("inf")}}, "delta_over_2pi_GHz"),
        ],
    )
    def test_schema_violations(self, over, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(make_config(**over))

    def test_optional_model_fields_default_to_zero(self, tmp_path):
        raw = make_config()
        del raw["model"]["U"], raw["model"]["kappa_a"]
        config = config_from_dict(raw)
        assert (config.params.U, config.params.kappa_a) == (0.0, 0.0)
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 0

    @pytest.mark.parametrize(
        "over", [{}, {"truncation": [6, 2], "model": {"kappa_a": 0.001}}]
    )
    def test_jc_requires_two_level_qubit(self, over):
        # a qubit cutoff of 2 and no intrinsic qubit loss define the model
        with pytest.raises(ConfigError, match="two-level"):
            config_from_dict(make_config(comparison="jc", **over))
        config_from_dict(make_config(comparison="jc", truncation=[6, 2]))

    def test_drive_block_rules(self):
        with pytest.raises(ConfigError, match="drive block"):
            config_from_dict(
                make_config(sweep={"variable": "drive_photons", "grid": [0.0, 1.0]})
            )
        with pytest.raises(ConfigError, match="only valid for drive sweeps"):
            config_from_dict(make_config(drive={"omega_D": -0.1}))
        with pytest.raises(ConfigError, match="zero-temperature"):
            config_from_dict(
                make_config(
                    model={"nbar_c0": 0.05},
                    sweep={"variable": "drive_photons", "grid": [0.0, 1.0]},
                    drive={"omega_D": -0.1},
                )
            )

    def test_detuning_grid_must_be_signs(self):
        with pytest.raises(ConfigError, match="-1 or \\+1"):
            config_from_dict(
                make_config(sweep={"variable": "detuning_sign", "grid": [-1.0, 0.5]})
            )
        config_from_dict(
            make_config(sweep={"variable": "detuning_sign", "grid": [-1.0, 1.0]})
        )

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestRunScenario:
    def test_thermal_rows_match_direct_computation(self):
        config = config_from_dict(
            make_config(truncation=[8, 6], sweep={"grid": [0.0, 0.05]})
        )
        rows, summary = run_scenario(config)
        assert summary["converged"] is True and summary["hard_errors"] == 0
        space = TruncatedSpace((8, 6))
        for row in rows:
            params = SystemParams(**{**BASE_CONFIG["model"], "nbar_c0": row.value})
            frame = polariton_frame(params)
            # at the one BLAS thread the sweep runs with
            direct = _with_one_blas_thread(
                t1_rate_diag, build_blackbox(frame, params, space)
            ).gamma
            assert row.gamma_diag == direct
            assert row.gamma_analytic_total == gamma_thermal_analytic(frame).total
            assert row.converged is True
            assert row.gamma_fit is None

    def test_parallel_matches_serial(self, monkeypatch):
        # the bumped-cutoff precheck is deterministic and dominates a sweep
        # of the (4, 3) grid (dense (6, 5) solve), so repeats reuse it
        precheck, memo = purcell_lab.cli._convergence_precheck, {}

        def reused(config):
            if config not in memo:
                memo[config] = precheck(config)
            return memo[config]

        monkeypatch.setattr(purcell_lab.cli, "_convergence_precheck", reused)
        quiet = config_from_dict(make_config(sweep={"grid": [0.0, 0.01, 0.02]}))
        # every point of this grid warns (occupancy above the formulas'
        # validity), so the rows show whose warnings each point recorded
        warning = config_from_dict(
            make_config(
                truncation=[4, 3],
                sweep={"grid": [0.25, 0.3, 0.35, 0.4, 0.45, 0.5]},
            )
        )
        for config, jobs, repeats in ((quiet, 3, 1), (warning, 2, 5)):
            serial = [replace(r, wall_time_s=0.0) for r in run_scenario(config)[0]]
            if config is warning:
                assert all(any(f.startswith("warn:") for f in r.flags) for r in serial)
            for _ in range(repeats):
                threaded, _ = run_scenario(config, jobs=jobs)
                assert [replace(r, wall_time_s=0.0) for r in threaded] == serial

    def test_sweep_solves_each_point_once(self, monkeypatch):
        # one diag solve per grid point plus the bumped-cutoff precheck;
        # the precheck's base rate is the top row's
        solve = purcell_lab.cli.t1_rate_diag
        calls = []

        def counted(bundle, *args, **kwargs):
            calls.append(bundle.space.dims)
            return solve(bundle, *args, **kwargs)

        monkeypatch.setattr(purcell_lab.cli, "t1_rate_diag", counted)
        config = config_from_dict(
            make_config(truncation=[3, 2], sweep={"grid": [0.0, 0.01, 0.02]})
        )
        rows, summary = run_scenario(config)
        assert calls == [(5, 4), (3, 2), (3, 2), (3, 2)]
        direct = solve(purcell_lab.cli._build_point(config, 0.02, (5, 4))[0]).gamma
        drift = abs(direct - rows[-1].gamma_diag) / abs(direct)
        assert summary["precheck_drift"] == drift

    def test_sweep_builds_one_term_table_per_cutoff(self, monkeypatch):
        # only the coefficients change along a grid, so the grid cutoff and
        # the bumped precheck cutoff each build one layout and one block
        # layout
        built = {"_build_layout": [], "_build_block_layout": []}
        for name, spaces in built.items():
            def counted(space, build=getattr(purcell_lab.liouvillian, name),
                        spaces=spaces):
                spaces.append(space.dims)
                return build(space)

            monkeypatch.setattr(purcell_lab.liouvillian, name, counted)
        monkeypatch.setattr(purcell_lab.liouvillian, "_TERM_TABLES", {})
        monkeypatch.setattr(purcell_lab.liouvillian, "_BLOCK_TABLES", {})
        config = config_from_dict(
            make_config(truncation=[3, 2], sweep={"grid": [0.0, 0.01, 0.02, 0.03]})
        )
        serial, _ = run_scenario(config)
        for spaces in built.values():
            assert sorted(spaces) == [(3, 2), (5, 4)]
        monkeypatch.setattr(purcell_lab.liouvillian, "_TERM_TABLES", {})
        monkeypatch.setattr(purcell_lab.liouvillian, "_BLOCK_TABLES", {})
        threaded, _ = run_scenario(config, jobs=2)
        assert [replace(r, wall_time_s=0.0) for r in threaded] == [
            replace(r, wall_time_s=0.0) for r in serial
        ]

    def test_closed_sweep_assembles_no_full_generator(self, monkeypatch):
        # above the dense limit a diag-only thermal point and the precheck
        # search the population block, summed over the block layout
        assemble, assembled = purcell_lab.liouvillian._generator, []

        def counted(space, coeffs):
            assembled.append(space.dims)
            return assemble(space, coeffs)

        monkeypatch.setattr(purcell_lab.liouvillian, "_generator", counted)
        config = config_from_dict(
            make_config(truncation=[8, 6], sweep={"grid": [0.0, 0.05]})
        )
        rows, summary = run_scenario(config)
        assert summary["converged"] is True and summary["hard_errors"] == 0
        assert assembled == []

    def test_sweep_solves_each_steady_state_once(self, monkeypatch):
        # both protocols of a point share one steady state; the bumped
        # precheck solves its own.  Every solve here is the full dense eig of
        # a closed generator under the dense limit, the only full-space eig.
        config = config_from_dict(
            make_config(
                truncation=[3, 2],
                protocol={"rates": "both"},
                sweep={"grid": [0.0, 0.02]},
            )
        )
        expected = []
        for value in config.grid:
            bundle = purcell_lab.cli._build_point(config, value, (3, 2))[0]
            rho_ss = steady_state(bundle)
            expected.append((t1_rate_diag(bundle).gamma, t1_rate_fit(bundle, rho_ss).gamma))
        eig, sizes = np.linalg.eig, []

        def counted(a):
            sizes.append(a.shape[0])
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        rows, _ = run_scenario(config)
        assert sorted(sizes) == [36] * len(config.grid) + [400]
        assert [(r.gamma_diag, r.gamma_fit) for r in rows] == expected

    def test_top_row_fit_failure_fails_the_precheck(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("injected fit failure")

        monkeypatch.setattr(purcell_lab.cli, "t1_rate_fit", fail)
        config = config_from_dict(
            make_config(protocol={"rates": "both"}, sweep={"grid": [0.0, 0.02]})
        )
        rows, summary = run_scenario(config)
        assert summary["converged"] is False and math.isnan(summary["precheck_drift"])
        for row in rows:
            assert row.flags == (
                "truncation-precheck-failed: injected fit failure",
                "error: injected fit failure",
            )

    def test_precheck_failure_flags_every_row(self):
        config = config_from_dict(
            make_config(truncation=[4, 3], sweep={"grid": [0.0, 0.15]})
        )
        rows, summary = run_scenario(config)
        assert summary["converged"] is False
        assert summary["hard_errors"] == 0
        assert all("truncation-precheck-exceeded" in row.flags for row in rows)
        assert all(math.isfinite(row.gamma_diag) for row in rows)

    def test_guard_error_becomes_row_flag(self):
        # Delta = U puts the channel formulas on their pole at every point
        config = config_from_dict(
            make_config(
                model={"omega_a": 0.01, "g": 0.001, "U": 0.01},
                sweep={"grid": [0.0, 0.02]},
            )
        )
        rows, summary = run_scenario(config)
        assert summary["hard_errors"] == len(rows)
        for row in rows:
            assert any(f.startswith("error:") for f in row.flags)
            assert math.isnan(row.gamma_diag)

    def test_missing_zero_mode_becomes_row_flag(self, monkeypatch):
        # a shift near i * |Delta| puts the sparse window of every solve, the
        # precheck's included, among the qubit coherences, far from lambda = 0
        monkeypatch.setattr(purcell_lab.spectral, "_DENSE_LIMIT", 0)
        monkeypatch.setattr(purcell_lab.spectral, "SPARSE_SHIFT", 1e4j)
        config = config_from_dict(
            make_config(
                model={"U": 0.1},
                sweep={"variable": "drive_photons", "grid": [1.0]},
                drive={"omega_D": -0.1},
                truncation=[3, 3],
            )
        )
        rows, summary = run_scenario(config)
        (row,) = rows
        errors = [f for f in row.flags if f.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: no zero mode in the window")
        assert "Traceback" not in errors[0]
        assert math.isnan(row.gamma_diag) and summary["hard_errors"] == 1
        assert summary["converged"] is False

    def test_summary_time_covers_the_precheck(self):
        config = config_from_dict(make_config(truncation=[3, 2], sweep={"grid": [0.0]}))
        rows, summary = run_scenario(config)
        assert summary["wall_time_s"] > sum(row.wall_time_s for row in rows)

    def test_detuning_sign_sweep(self):
        config = config_from_dict(
            make_config(
                truncation=[8, 6],
                model={"nbar_c0": 0.05},
                sweep={"variable": "detuning_sign", "grid": [-1.0, 1.0]},
            )
        )
        rows, _ = run_scenario(config)
        for row, sign in zip(rows, (-1.0, 1.0)):
            params = SystemParams(**{**BASE_CONFIG["model"], "omega_a": sign,
                                     "nbar_c0": 0.05})
            frame = polariton_frame(params)
            # at the one BLAS thread the sweep runs with
            direct = _with_one_blas_thread(
                t1_rate_diag, build_blackbox(frame, params, TruncatedSpace((8, 6)))
            ).gamma
            assert row.gamma_diag == direct
        # thermal correction raises the rate above detuning, lowers it below
        assert rows[1].gamma_diag > rows[1].base
        assert rows[0].gamma_diag < rows[0].base

    def test_jc_rows_use_exchange_model(self):
        config = config_from_dict(
            make_config(
                comparison="jc",
                truncation=[8, 2],
                model={"g": 0.05},
                sweep={"grid": [0.0, 0.1]},
            )
        )
        rows, summary = run_scenario(config)
        assert summary["hard_errors"] == 0
        for row in rows:
            params = SystemParams(**{**BASE_CONFIG["model"], "g": 0.05,
                                     "nbar_c0": row.value})
            assert row.gamma_analytic_total == gamma_jc_analytic(params)
            # the golden-rule rate is both base and total, with zero channels
            assert row.base == row.gamma_analytic_total
            assert row.nc_nc == row.nc_cd == row.cd_cd == 0.0
            direct = t1_rate_diag(
                build_bare(params, TruncatedSpace((8, 2)))
            ).gamma
            assert row.gamma_diag == direct

    def test_drive_sweep_hits_requested_photon_number(self):
        # the driven steady state overlaps the qubit coherence modes, which
        # sit near the shift; only population modes are rate candidates
        config = config_from_dict(
            make_config(
                truncation=[6, 4],
                model={"U": 0.1},
                sweep={"variable": "drive_photons", "grid": [0.0, 2.0]},
                drive={"omega_D": -0.1},
            )
        )
        rows, summary = run_scenario(config)
        assert summary["hard_errors"] == 0
        assert rows[1].gamma_diag > rows[0].gamma_diag  # Delta > 0: drive heats
        assert rows[1].gamma_analytic_total == pytest.approx(
            rows[1].gamma_diag, rel=1e-2
        )
        # the amplitude solve is linear, so the target photon number is exact
        params = SystemParams(**{**BASE_CONFIG["model"], "U": 0.1})
        from purcell_lab.cli import _drive_for_photons

        drive = _drive_for_photons(params, -0.1, 2.0)
        dframe = displaced_frame(params, drive)
        assert abs(dframe.alpha_c) ** 2 == pytest.approx(2.0, rel=1e-12)


class TestOverlappedPrecheck:
    """With jobs > 1 the precheck is one more pool task; rows and summary
    are those of the serial sweep."""

    CONFIG = make_config(truncation=[3, 2], sweep={"grid": [0.0, 0.01, 0.02]})

    def sweep(self, jobs):
        rows, summary = run_scenario(config_from_dict(self.CONFIG), jobs)
        del summary["wall_time_s"]
        return [replace(r, wall_time_s=0.0) for r in rows], summary

    def test_precheck_runs_beside_the_points(self, monkeypatch):
        precheck = purcell_lab.cli._convergence_precheck
        run_point = purcell_lab.cli._run_point
        point_started = threading.Event()
        seen = []

        def waits_for_a_point(config):
            seen.append(point_started.wait(timeout=20))
            return precheck(config)

        def spy(config, value):
            point_started.set()
            return run_point(config, value)

        monkeypatch.setattr(purcell_lab.cli, "_convergence_precheck", waits_for_a_point)
        monkeypatch.setattr(purcell_lab.cli, "_run_point", spy)
        self.sweep(2)
        assert seen == [True]

    def test_failed_precheck_gives_the_serial_rows(self, monkeypatch):
        def fail(config):
            raise RuntimeError("injected precheck failure")

        monkeypatch.setattr(purcell_lab.cli, "_convergence_precheck", fail)
        serial, summary = self.sweep(1)
        assert summary["converged"] is False and math.isnan(summary["precheck_drift"])
        assert all(
            r.flags[0] == "truncation-precheck-failed: injected precheck failure"
            for r in serial
        )
        threaded, threaded_summary = self.sweep(2)
        assert threaded == serial
        assert math.isnan(threaded_summary.pop("precheck_drift"))
        del summary["precheck_drift"]
        assert threaded_summary == summary

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_precheck_warning_leaves_no_row_flag(self, monkeypatch, jobs):
        precheck = purcell_lab.cli._convergence_precheck

        def warns(config):
            warnings.warn("injected precheck warning")
            return precheck(config)

        clean = self.sweep(1)
        monkeypatch.setattr(purcell_lab.cli, "_convergence_precheck", warns)
        rows, summary = self.sweep(jobs)
        assert not any(f.startswith("warn:") for r in rows for f in r.flags)
        assert (rows, summary) == clean

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_other_precheck_errors_propagate(self, monkeypatch, jobs):
        def fail(config):
            raise KeyError("injected")

        monkeypatch.setattr(purcell_lab.cli, "_convergence_precheck", fail)
        with pytest.raises(KeyError, match="injected"):
            self.sweep(jobs)

    @pytest.mark.parametrize("failing", ["point", "precheck"])
    def test_failure_stops_the_queued_points(self, monkeypatch, failing):
        # an uncaught failure cancels the points still queued: only those
        # already running when it raised finish
        jobs, started = 2, []

        def fail(*args):
            raise KeyError("injected")

        def point(config, value):
            started.append(value)
            if failing == "point" and value == config.grid[0]:
                fail()
            time.sleep(0.2)

        monkeypatch.setattr(purcell_lab.cli, "_run_point", point)
        if failing == "precheck":
            monkeypatch.setattr(purcell_lab.cli, "_convergence_precheck", fail)
        grid = [0.01 * i for i in range(8)]
        config = config_from_dict(make_config(truncation=[3, 2], sweep={"grid": grid}))
        with pytest.raises(KeyError, match="injected"):
            run_scenario(config, jobs)
        assert len(started) <= 1 + jobs


class TestOverlappedSolves:
    """A driven (8, 6) point searches its full generator, above the dense
    limit, so its adjoint ARPACK solve runs on a helper thread beside the
    forward one at any ``jobs``; rows do not depend on that."""

    def sweep(self, jobs, grid):
        config = make_config(
            truncation=[8, 6],
            model={"U": 0.1},
            sweep={"variable": "drive_photons", "grid": grid},
            drive={"omega_D": -0.1},
        )
        rows, _ = run_scenario(config_from_dict(config), jobs)
        return [replace(r, wall_time_s=0.0) for r in rows]

    def test_rows_do_not_depend_on_jobs(self):
        serial = self.sweep(1, [0.0, 10.0])
        assert serial[0].converged
        flags = [f for r in serial for f in r.flags]
        assert not any(f.startswith(("error:", "warn:")) for f in flags)
        assert self.sweep(2, [0.0, 10.0]) == serial

    def test_helper_thread_warnings_reach_the_row(self, monkeypatch):
        # the (10, 8) precheck solves above the limit too, but its warnings
        # are dropped; it is solved once and reused
        precheck, memo = purcell_lab.cli._convergence_precheck, {}

        def reused(config):
            if config not in memo:
                memo[config] = precheck(config)
            return memo[config]

        eigs = purcell_lab.spectral.spla.eigs
        on_caller = []

        def adjoint_warns(a, **kwargs):
            adjoint = isinstance(a, purcell_lab.spectral.spla.LinearOperator)
            if adjoint:
                warnings.warn("injected adjoint warning")
            on_caller.append((adjoint, threading.current_thread() is caller))
            return eigs(a, **kwargs)

        monkeypatch.setattr(purcell_lab.cli, "_convergence_precheck", reused)
        monkeypatch.setattr(purcell_lab.spectral.spla, "eigs", adjoint_warns)
        caller = threading.current_thread()
        runs = {jobs: self.sweep(jobs, [10.0]) for jobs in (1, 2)}
        # at jobs 1 the point's forward solve ran here, its adjoint did not
        assert (True, True) not in on_caller and (False, True) in on_caller
        monkeypatch.setattr(purcell_lab.spectral, "_DENSE_LIMIT", 2305)
        on_caller.clear()
        serial_path = self.sweep(1, [10.0])
        assert (True, True) in on_caller
        assert runs[1] == runs[2] == serial_path
        (row,) = serial_path
        assert [f for f in row.flags if f.startswith("warn:")] == [
            "warn: injected adjoint warning"
        ]


def blas_counts() -> list[int]:
    return [get() for get, _ in _openblas_threads()]


def set_blas_counts(counts) -> None:
    for (_, put), count in zip(_openblas_threads(), counts):
        put(count)


class TestBlasThreads:
    """Sweeps run both bundled OpenBLAS copies at one thread and give the
    caller's counts back."""

    @pytest.fixture
    def two_threads(self):
        # a known count other than the pinned one, restored afterwards
        before = blas_counts()
        if not before:
            pytest.skip("no bundled OpenBLAS loaded")
        set_blas_counts([2] * len(before))
        yield [2] * len(before)
        set_blas_counts(before)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_points_run_at_one_thread_and_counts_come_back(
        self, monkeypatch, two_threads, jobs
    ):
        run_point, seen = purcell_lab.cli._run_point, []

        def spy(config, value):
            seen.append(blas_counts())
            return run_point(config, value)

        monkeypatch.setattr(purcell_lab.cli, "_run_point", spy)
        config = config_from_dict(
            make_config(truncation=[3, 2], sweep={"grid": [0.0, 0.01]})
        )
        run_scenario(config, jobs=jobs)
        assert seen == [[1] * len(two_threads)] * 2
        assert blas_counts() == two_threads

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counts_come_back_when_a_point_raises(
        self, monkeypatch, two_threads, jobs
    ):
        def fail(config, value):
            raise KeyError("injected")

        monkeypatch.setattr(purcell_lab.cli, "_run_point", fail)
        config = config_from_dict(
            make_config(truncation=[3, 2], sweep={"grid": [0.0, 0.01]})
        )
        with pytest.raises(KeyError, match="injected"):
            run_scenario(config, jobs=jobs)
        assert blas_counts() == two_threads

    def test_no_openblas_found_is_a_plain_call(
        self, monkeypatch, tmp_path, two_threads
    ):
        loaded = _openblas_threads()
        for name in ("numpy", "scipy"):
            package = SimpleNamespace(
                __name__=name, __file__=str(tmp_path / name / "__init__.py")
            )
            monkeypatch.setattr(purcell_lab.cli, name, package)
        assert _openblas_threads() == []
        inside = _with_one_blas_thread(lambda: [get() for get, _ in loaded])
        assert inside == two_threads

    def test_unloaded_library_is_left_out(self, monkeypatch, two_threads):
        def not_loaded(*args, **kwargs):
            raise OSError("not loaded")

        run_point, loaded, seen = purcell_lab.cli._run_point, _openblas_threads(), []

        def spy(config, value):
            seen.append([get() for get, _ in loaded])
            return run_point(config, value)

        monkeypatch.setattr(purcell_lab.cli, "_run_point", spy)
        monkeypatch.setattr(purcell_lab.cli.ctypes, "CDLL", not_loaded)
        assert _openblas_threads() == []
        config = config_from_dict(make_config(truncation=[3, 2], sweep={"grid": [0.0]}))
        rows, summary = run_scenario(config)
        assert summary["hard_errors"] == 0 and len(rows) == 1
        assert seen == [two_threads]

    def test_csv_bytes_do_not_depend_on_blas_threads_or_jobs(self, tmp_path):
        # at the dense (6, 5) cutoff an unpinned gamma_diag moves in its
        # last printed digits between 1 and 2 BLAS threads
        config_path = write_config(tmp_path, truncation=[6, 5],
                                   sweep={"grid": [0.0, 0.05]})
        src = str(Path(purcell_lab.cli.__file__).resolve().parents[1])
        outputs = {}
        for threads in ("1", "2"):
            for jobs in ("1", "2"):
                path = filter(None, (src, os.environ.get("PYTHONPATH")))
                env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                       "PYTHONPATH": os.pathsep.join(path)}
                out = tmp_path / f"t{threads}-j{jobs}"
                subprocess.run(
                    [sys.executable, "-m", "purcell_lab.cli", "sweep",
                     "--config", str(config_path), "--out", str(out),
                     "--jobs", jobs],
                    env=env, check=True, capture_output=True, timeout=300,
                )
                outputs[threads, jobs] = (out / "unit.csv").read_bytes()
        assert len(set(outputs.values())) == 1, outputs


class TestCsvRoundTrip:
    def test_byte_determinism(self, tmp_path):
        config_path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", str(config_path), "--out", str(out_b)]) == 0
        bytes_a = (out_a / "unit.csv").read_bytes()
        assert bytes_a == (out_b / "unit.csv").read_bytes()
        assert bytes_a.startswith(b"#schema=purcell-lab/sweep-v1\n")
        assert b"\r" not in bytes_a

    def test_round_trip_preserves_rows(self, tmp_path):
        config = config_from_dict(make_config())
        rows, _ = run_scenario(config)
        path = tmp_path / "roundtrip.csv"
        write_rows(rows, config, path)
        back = read_rows(path)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            # 15 significant digits in the CSV, so equal to formatting
            # precision rather than bit-exact
            assert b.value == a.value
            assert b.gamma_diag == pytest.approx(a.gamma_diag, rel=1e-14)
            assert b.gamma_analytic_total == pytest.approx(
                a.gamma_analytic_total, rel=1e-14
            )
            assert b.converged is a.converged
            assert b.flags == a.flags

    def test_fit_column_round_trip(self, tmp_path):
        config = config_from_dict(
            make_config(protocol={"rates": "both"}, sweep={"grid": [0.02]})
        )
        rows, _ = run_scenario(config)
        assert rows[0].gamma_fit is not None
        path = tmp_path / "fit.csv"
        write_rows(rows, config, path)
        assert read_rows(path)[0].gamma_fit == pytest.approx(
            rows[0].gamma_fit, rel=1e-13
        )

    @given(st.lists(st.text(), min_size=1, max_size=4))
    def test_flags_read_back_as_written(self, tmp_path_factory, messages):
        flags = tuple("warn: " + _flag_text(m) for m in messages)
        config = config_from_dict(make_config())
        path = tmp_path_factory.mktemp("flags") / "flags.csv"
        write_rows([make_row(0.0, 1.0, 1.0, flags=flags)], config, path)
        assert read_rows(path)[0].flags == flags

    def test_header_is_pinned(self, tmp_path):
        # reordering SweepRow fields must not silently change sweep-v1
        path = tmp_path / "header.csv"
        write_rows([], config_from_dict(make_config()), path)
        assert path.read_text(encoding="utf-8").splitlines()[3] == (
            "value,gamma_diag,gamma_fit,gamma_analytic_total,"
            "base,nc_nc,nc_cd,cd_cd,converged,flags"
        )

    def test_every_column_round_trips(self, tmp_path):
        clean = replace(
            make_row(0.5, 1.5e-3, 1.25e-3, fit=1.75e-3, flags=("a", "b")),
            base=1.0e-3,
            nc_nc=2.5e-4,
            nc_cd=-3.75e-6,
            cd_cd=1.0e-9,
            converged=np.bool_(True),
        )
        no_fit = replace(clean, value=1.0, gamma_fit=None, flags=())
        failed = SweepRow(
            value=2.0,
            gamma_diag=math.nan,
            gamma_fit=None,
            gamma_analytic_total=math.nan,
            base=math.nan,
            nc_nc=math.nan,
            nc_cd=math.nan,
            cd_cd=math.nan,
            converged=np.bool_(False),
            flags=("error: boom",),
            wall_time_s=0.0,
        )
        path = tmp_path / "columns.csv"
        write_rows([clean, no_fit, failed], config_from_dict(make_config()), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[4].endswith(",true,a;b")
        assert lines[5].split(",")[2] == ""
        assert lines[6].endswith(",false,error: boom")
        back = read_rows(path)
        for a, b in zip((clean, no_fit), back):
            assert b == replace(a, converged=bool(a.converged))
        assert back[2].gamma_fit is None
        assert back[2].converged is False
        assert back[2].flags == ("error: boom",)
        assert all(
            math.isnan(getattr(back[2], c))
            for c in ("gamma_diag", "gamma_analytic_total", "base", "nc_nc",
                      "nc_cd", "cd_cd")
        )

    def test_empty_rate_outside_the_fit_column_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_rows([make_row(0.0, 1.0, 1.0)], config_from_dict(make_config()), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[4].split(",")
        cells[1] = ""  # gamma_diag
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_rows(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("value,gamma\n0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="#schema"):
            read_rows(path)


def make_row(value, diag, analytic, fit=None, flags=()):
    return SweepRow(
        value=value,
        gamma_diag=diag,
        gamma_fit=fit,
        gamma_analytic_total=analytic,
        base=analytic,
        nc_nc=0.0,
        nc_cd=0.0,
        cd_cd=0.0,
        converged=True,
        flags=tuple(flags),
        wall_time_s=0.0,
    )


class TestCompareReport:
    def test_slope_ratio_from_first_interval(self):
        rows = [
            make_row(0.0, 1.0, 1.0),
            make_row(1.0, 1.2, 1.1, flags=("warn: a",)),
            make_row(2.0, 9.9, 9.9, flags=("warn: b",)),
        ]
        report = compare_report(rows)
        assert report["slope_numeric"] == pytest.approx(0.2)
        assert report["slope_analytic"] == pytest.approx(0.1)
        assert report["slope_ratio"] == pytest.approx(2.0)
        assert report["flags"] == ["warn: a", "warn: b"]
        assert report["fit_vs_diag_max"] is None

    def test_fit_discrepancy_stats(self):
        rows = [
            make_row(0.0, 1.0, 1.0, fit=1.01),
            make_row(1.0, 2.0, 2.0, fit=1.96),
        ]
        report = compare_report(rows)
        assert report["fit_vs_diag_max"] == pytest.approx(0.02)
        assert report["fit_vs_diag_mean"] == pytest.approx(0.015)

    @pytest.mark.parametrize("failed", [0, 1, 2])
    def test_error_row_makes_fit_stats_nan_in_any_position(self, failed):
        rows = [make_row(float(i), 1.0, 1.0, fit=1.02) for i in range(3)]
        nan = math.nan
        rows[failed] = make_row(float(failed), nan, nan, fit=nan,
                                flags=("error: RuntimeError: x",))
        report = compare_report(rows)
        assert math.isnan(report["fit_vs_diag_max"])
        assert math.isnan(report["fit_vs_diag_mean"])

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            compare_report([make_row(0.0, 1.0, 1.0)])

    def test_compare_end_to_end(self, tmp_path):
        config_path = write_config(tmp_path, truncation=[8, 6],
                                   sweep={"grid": [0.0, 0.05]})
        assert main(["sweep", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["compare", "--rows", str(tmp_path / "unit.csv"),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert 0.9 <= report["slope_ratio"] <= 1.1
        assert report["n_rows"] == 2

    def test_error_row_writes_strict_json(self, tmp_path, capsys):
        nan = math.nan
        rows = [
            make_row(0.0, nan, nan, fit=nan, flags=("error: RuntimeError: x",)),
            make_row(1.0, 1.2, 1.1, fit=1.2),
        ]
        rows_path = tmp_path / "rows.csv"
        write_rows(rows, config_from_dict(make_config()), rows_path)
        report_path = tmp_path / "report.json"
        assert main(["compare", "--rows", str(rows_path),
                     "--out", str(report_path)]) == 0
        assert "wrote" in capsys.readouterr().out

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        report = json.loads(report_path.read_text(encoding="utf-8"),
                            parse_constant=reject)
        assert report["slope_numeric"] is None
        assert report["slope_ratio"] is None
        assert report["n_rows"] == 2


class TestCliEntry:
    def test_validate_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path)
        assert main(["validate", "--config", str(good)]) == 0
        assert "ok: unit" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(make_config(sweep={"grid": []})),
                       encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2

    def test_empty_grid_writes_nothing(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(make_config(sweep={"grid": []})),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_guard_error_gives_nonzero_exit(self, tmp_path):
        config_path = write_config(
            tmp_path, model={"omega_a": 0.01, "g": 0.001, "U": 0.01}
        )
        assert main(["sweep", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 1

    def test_solver_runtime_error_gives_nonzero_exit(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("injected solver failure")

        monkeypatch.setattr(purcell_lab.cli, "t1_rate_diag", fail)
        config_path = write_config(tmp_path)
        assert main(["sweep", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 1
        rows = read_rows(tmp_path / "unit.csv")
        assert len(rows) == 2
        for row in rows:
            assert "truncation-precheck-failed: injected solver failure" in row.flags
            assert "error: injected solver failure" in row.flags
            assert math.isnan(row.gamma_diag)

    @pytest.mark.parametrize(
        "command,option,value",
        [
            ("spectrum", "--count", "-250"),
            ("spectrum", "--count", "0"),
            ("sweep", "--jobs", "-5"),
            ("sweep", "--jobs", "0"),
        ],
    )
    def test_counts_below_one_are_usage_errors(
        self, tmp_path, capsys, command, option, value
    ):
        config_path = write_config(tmp_path)
        argv = [command, "--config", str(config_path), option, value]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert ">= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_spectrum_prints_labeled_ladder(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert main(["spectrum", "--config", str(config_path),
                     "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "Re lambda" in out
