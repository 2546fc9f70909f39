"""In-memory span recorder that times `purcell_lab` from the outside.

`Tracer.install()` replaces every public function of the package's layer
modules (`cli`, `model`, `fockspace`, `liouvillian`, `spectral`,
`perturbation`) by a timing wrapper, in each package namespace that holds
a binding to it, so calls made through `from .x import f` are seen too.
It also wraps the per-point boundary `purcell_lab.cli._run_point` and the
dense/sparse solver calls `spectral` makes (`np.linalg.eig`,
`spla.eigs`, `sla.expm`), through proxies that replace `spectral`'s own
`np`, `spla` and `sla` bindings, so no other caller of numpy or scipy is
affected.
`Tracer.uninstall()` puts every original binding back; nothing under
`src/` is edited.

A span records its name, start and end (`perf_counter` seconds), the span
that caused it, the grid point it belongs to, its thread, and a few facts
(matrix dimension, bytes, nonzeros).  Spans opened on a worker thread with
nothing open on that thread take the innermost open span of the
installing thread as parent, so the points of a parallel sweep hang under
its `run_scenario` span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "model", "fockspace", "liouvillian", "spectral", "perturbation")
# Private per-point boundary of a sweep; the one non-public name traced.
POINT_BOUNDARY = ("purcell_lab.cli", "_run_point")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    point: str | None
    thread: int
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class _Proxy:
    """Stands in for a module: listed attributes are replaced, the rest
    are looked up on the wrapped module."""

    def __init__(self, target, overrides):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._target, name)


def _dense_facts(args, kwargs, out):
    n = args[0].shape[0]
    return {"dim": n, "bytes": 16 * n * n}


def _sparse_facts(args, kwargs, out):
    return {"dim": args[0].shape[0]}


def _nnz(obj) -> int | None:
    """Stored nonzeros of a generator, superoperator, or sparse matrix."""
    obj = getattr(obj, "superop", obj)
    obj = getattr(obj, "data", obj)
    if hasattr(obj, "nnz"):
        return int(obj.nnz)
    return None


def _build_facts(args, kwargs, out):
    values = out.values() if isinstance(out, dict) else (out,)
    counts = [n for n in map(_nnz, values) if n is not None]
    return {"nnz": max(counts)} if counts else {}


def _rows_facts(args, kwargs, out):
    rows = out[0]
    return {"row_time_s": sum(row.wall_time_s for row in rows)}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, point: str | None) -> Span:
        stack = self._stack()
        home = self._home_stack
        parent = stack[-1] if stack else (home[-1] if home else None)
        if parent is not None and parent.point is not None:
            point = parent.point if point is None else f"{parent.point}/{point}"
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=None,
            parent=None if parent is None else parent.id,
            point=point,
            thread=threading.get_ident(),
        )
        self.spans.append(span)
        stack.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, point: str | None = None):
        """Record the enclosed block as a span; `point` names its grid
        point, relative to the point of the enclosing span."""
        span = self._open(name, point)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack().pop()

    def wrap(self, fn, name, facts=None, point_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, None if point_of is None else point_of(args)) as span:
                out = fn(*args, **kwargs)
                if facts is not None:
                    span.facts.update(facts(args, kwargs, out))
                return out

        return traced

    # -- installing wrappers ------------------------------------------------

    def _set(self, namespace, attr, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        import numpy
        import scipy.linalg
        import scipy.sparse.linalg

        import purcell_lab.cli  # noqa: F401  (loads every layer module)

        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._home_stack = self._stack()
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "purcell_lab" or name.startswith("purcell_lab.")
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"purcell_lab.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                facts = None
                if layer == "liouvillian":
                    facts = _build_facts
                elif attr == "run_scenario":
                    facts = _rows_facts
                wrappers[fn] = self.wrap(fn, f"{layer}.{attr}", facts)

        module_name, attr = POINT_BOUNDARY
        boundary = getattr(sys.modules[module_name], attr)
        wrappers[boundary] = self.wrap(
            boundary, "cli.point", point_of=lambda args: f"{args[1]:g}"
        )

        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(ns, attr, wrappers[obj])

        spectral = sys.modules["purcell_lab.spectral"]
        eig = self.wrap(numpy.linalg.eig, "solver.eig", _dense_facts)
        eigs = self.wrap(scipy.sparse.linalg.eigs, "solver.eigs", _sparse_facts)
        expm = self.wrap(scipy.linalg.expm, "solver.expm", _dense_facts)
        proxies = {
            numpy: _Proxy(numpy, {"linalg": _Proxy(numpy.linalg, {"eig": eig})}),
            scipy.sparse.linalg: _Proxy(scipy.sparse.linalg, {"eigs": eigs}),
            scipy.linalg: _Proxy(scipy.linalg, {"expm": expm}),
        }
        for attr, obj in list(vars(spectral).items()):
            if inspect.ismodule(obj) and obj in proxies:
                self._set(spectral, attr, proxies[obj])

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap (points of a parallel sweep), so the covered
    part is the length of the union of the child intervals.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced round (seconds, counts, bytes).

    `_s` figures are inclusive span time unless named `self_s`.  The
    precheck is the part of `run_scenario` before its first point starts;
    `cli.points_s` sums the rows' own wall times.  A build is any outermost
    `liouvillian` call, `blackbox_perturbation_parts` included.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def outermost(layer, names=None):
        # spans of the group that have no ancestor in the group
        group = [
            s for s in spans
            if s.layer == layer and (names is None or s.name in names)
        ]
        ids = {s.id for s in group}

        def nested(span):
            while span.parent is not None:
                if span.parent in ids:
                    return True
                span = by_id[span.parent]
            return False

        return [s for s in group if not nested(s)]

    def total(group):
        return sum(s.duration for s in group)

    def fact_max(group, key):
        return max((s.facts[key] for s in group if key in s.facts), default=0)

    solver = [s for s in spans if s.layer == "solver"]
    dense = named("solver.eig", "solver.expm")
    builds = outermost("liouvillian")
    frames = named("model.polariton_frame", "model.displaced_frame")
    catalog = ("perturbation.unperturbed_modes", "perturbation.decoupled_block")
    analytic = tuple(
        f"perturbation.{n}"
        for n in ("gamma_thermal_analytic", "gamma_coherent_analytic",
                  "gamma_jc_analytic", "diagnostics")
    )

    precheck = 0.0
    for sweep in named("cli.run_scenario"):
        starts = [s.start for s in spans if s.parent == sweep.id and s.name == "cli.point"]
        precheck += min(starts, default=sweep.end) - sweep.start

    metrics = {
        "cli.precheck_s": precheck,
        "cli.points_s": sum(s.facts.get("row_time_s", 0.0)
                            for s in named("cli.run_scenario")),
        "cli.csv_write_s": total(named("cli.write_rows")),
        "model.frame_s": total(frames),
        "model.frame_calls": len(frames),
        "fockspace.ladder_operators_s": total(named("fockspace.ladder_operators")),
        "fockspace.ladder_operators_calls": len(named("fockspace.ladder_operators")),
        "fockspace.lindblad_s": total(named("fockspace.lindblad_superoperator")),
        "liouvillian.build_s": total(builds),
        "liouvillian.build_calls": len(builds),
        "liouvillian.nnz_max": fact_max(builds, "nnz"),
        "spectral.steady_state_s": total(named("spectral.steady_state")),
        "spectral.steady_state_calls": len(named("spectral.steady_state")),
        "spectral.spectrum_s": total(named("spectral.spectrum")),
        "spectral.evolve_s": total(named("spectral.evolve")),
        "spectral.t1_rate_diag_self_s": sum(
            own[s.id] for s in named("spectral.t1_rate_diag")),
        "spectral.t1_rate_fit_self_s": sum(
            own[s.id] for s in named("spectral.t1_rate_fit")),
        "spectral.arpack_calls": len(named("solver.eigs")),
        "spectral.arpack_s": total(named("solver.eigs")),
        "spectral.dense_eig_calls": len(named("solver.eig")),
        "spectral.dense_eig_s": total(named("solver.eig")),
        "spectral.expm_calls": len(named("solver.expm")),
        "spectral.expm_s": total(named("solver.expm")),
        "spectral.solve_dim_max": fact_max(solver, "dim"),
        "spectral.dense_bytes_max": fact_max(dense, "bytes"),
        "perturbation.catalog_s": total(outermost("perturbation", catalog)),
        "perturbation.pt_s": total(named("perturbation.gamma_thermal_pt")),
        "perturbation.analytic_s": total(outermost("perturbation", analytic)),
    }
    for layer in LAYERS + ("solver",):
        metrics[f"{layer}.self_s"] = sum(
            own[s.id] for s in spans if s.layer == layer)
    return metrics
