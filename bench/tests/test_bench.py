"""Tests of the benchmark itself: inputs, metric names, the gate, tracing."""

import dataclasses
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

import numpy  # noqa: E402
import purcell_lab.cli  # noqa: E402
import purcell_lab.spectral  # noqa: E402

from bench import run, tracer  # noqa: E402
from bench import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Small cutoffs keep these runs (precheck included) well under a second.
SMALL = {
    "thermal-sweep": dataclasses.replace(wl.WORKLOADS["thermal-sweep"], cutoff=(3, 2), points=2),
    "drive-sweep-jobs2": dataclasses.replace(wl.WORKLOADS["drive-sweep-jobs2"], cutoff=(3, 2), points=3),
    "crosscheck": dataclasses.replace(wl.WORKLOADS["crosscheck"], cutoff=(3, 3)),
}


def take(workload, seed, n=5):
    return list(itertools.islice(wl.rounds(workload, seed), n))


def round_keys(workload, inputs):
    if workload.name == "crosscheck":
        return [wl.thermal_key(s, v) for s, v in inputs]
    return [k for config in inputs for k in wl.sweep_keys(config)]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_gives_same_inputs_on_the_reference_lattice(name):
    workload = wl.WORKLOADS[name]
    refs = wl.load_references()[name]
    first = take(workload, 7)
    assert first == take(workload, 7)
    assert first != take(workload, 8)
    for inputs in first:
        for key in round_keys(workload, inputs):
            assert key in refs


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = set(tracer.layer_metrics([])) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert metric["unit"] == run.unit_of(metric["name"])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_gate_rejects_a_1e8_relative_deviation(name):
    refs = wl.load_references()[name]
    key = sorted(refs)[1]
    top = None if name == "crosscheck" else key
    row = json.loads(json.dumps(wl.expected_row(refs, key, top)))
    assert wl.check_row(row, refs, key, top) is None
    row["rates"]["gamma_diag"] *= 1 + 1e-10
    assert wl.check_row(row, refs, key, top) is None
    row["rates"]["gamma_diag"] *= 1 + 1e-8
    assert "gamma_diag" in wl.check_row(row, refs, key, top)
    row = wl.expected_row(refs, key, top)
    assert wl.check_row({**row, "flags": row["flags"] + ["warn: x"]}, refs, key, top)


def test_gate_counts_an_escaping_runtime_error(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise RuntimeError("injected solver failure")

    monkeypatch.setattr(purcell_lab.cli, "t1_rate_diag", fail)
    workload = SMALL["thermal-sweep"]
    inputs = take(workload, 1, 1)[0]
    result = wl.run_round(workload, inputs, tmp_path)
    verdicts = wl.check_round(result, wl.load_references()[workload.name])
    assert len(verdicts) == 2 * workload.points
    assert all("injected solver failure" in v for v in verdicts)


def test_lattice_point_outside_the_references_fails():
    refs = wl.load_references()["thermal-sweep"]
    row = wl.expected_row(refs, "+1/0.05", "+1/0.05")
    assert "no reference" in wl.check_row(row, refs, "+1/0.055", "+1/0.05")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_rows_match_untraced_rows(name, tmp_path):
    workload = SMALL[name]
    inputs = take(workload, 3, 1)[0]
    plain = wl.run_round(workload, inputs, tmp_path)
    spans = tracer.Tracer()
    with spans:
        traced = wl.run_round(workload, inputs, tmp_path, spans)
    assert traced.rows == plain.rows
    for module in (m for n, m in sys.modules.items() if n.startswith("purcell_lab")):
        assert not any(hasattr(f, "__wrapped__") for f in vars(module).values())
    assert purcell_lab.spectral.np is numpy

    metrics = tracer.layer_metrics(spans.spans)
    assert metrics["spectral.steady_state_calls"] >= len(plain.rows)
    assert metrics["liouvillian.build_calls"] >= len(plain.rows)
    assert metrics["liouvillian.nnz_max"] > 0
    assert all(s.end is not None and s.point for s in spans.spans)
    if name == "crosscheck":
        assert metrics["spectral.expm_calls"] >= 1
        assert metrics["perturbation.pt_s"] > 0
    else:
        points = [s for s in spans.spans if s.name == "cli.point"]
        sweeps = {s.id for s in spans.spans if s.name == "cli.run_scenario"}
        assert len(points) == len(plain.rows)
        assert all(p.parent in sweeps for p in points)
        assert metrics["cli.precheck_s"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracer.Span(0, "cli.run_scenario", 0.0, 10.0, None, "p", 1),
        tracer.Span(1, "cli.point", 2.0, 6.0, 0, "p/1", 2),
        tracer.Span(2, "cli.point", 4.0, 8.0, 0, "p/2", 3),
        tracer.Span(3, "spectral.t1_rate_diag", 2.5, 5.5, 1, "p/1", 2),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 4.0, 1: 1.0, 2: 4.0, 3: 3.0}
