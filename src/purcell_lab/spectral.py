"""Steady states, generator spectra, sector labeling, and the two
relaxation-rate extraction protocols.

Both rate protocols start from the steady state with one extra qubit
excitation injected (``rho0 ~ a_dag rho_ss a``): `t1_rate_diag` reads the
rate off the slowest excited eigenmode, `t1_rate_fit` fits the tail of a
time evolution.  Agreement between the two is itself a physics check, so
they share as little code as possible.  One rule picks the T1 solvers: a
generator that leaves its population block closed, with a superoperator
dimension up to ``_DENSE_LIMIT``, has that block searched by a dense
``eig`` and its steady state solved by one full dense ``eig``.  Every other
search, each driven point at any size included, is shift-invert ARPACK
from a 6-mode window, widened only when the window cannot answer the
selection (no adjoint partner, no zero mode, or no excited population mode
above ``WEIGHT_FLOOR``), and that window's zero mode is the steady state.
Its one LU per shift is of the shifted generator in reverse Cuthill-McKee
order, with threshold partial pivoting, and serves the forward and the
adjoint window of each round; above ``_DENSE_LIMIT`` the two ARPACK solves
run at once, the adjoint one on a helper thread.  Every ARPACK solve of a
``k``-mode window builds a ``2k + 1``-vector Krylov basis and stops when its
Ritz estimates reach ``ARPACK_TOL`` (1e-12) relative, which leaves a window
eigenvalue within about 1e-11 of the rate, far inside the 1e-9 rate gate
(see ``ARPACK_TOL``).  `spectrum` also returns
T2 modes, so it keeps the full generator: dense up to the limit, above it a
``max(count + 4, 12)`` window.
"""

from __future__ import annotations

import contextvars
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .fockspace import (
    TruncatedSpace,
    ladder_operators,
    trace_functional,
    unvectorize,
    vectorize,
)
from .liouvillian import GeneratorBundle, _block_table, _term_sum

# Superoperator dimension up to which a closed population block is searched,
# and its steady state solved, by dense eigensolvers, and up to which
# `spectrum` decomposes the full generator; other searches are shift-invert.
# A shift-invert search of a matrix larger than this runs its forward and
# adjoint ARPACK solves at once on two threads; smaller ones (the closed
# population blocks, 218 and 472 components at (8,6) and (10,8)) gain less
# from the overlap than a thread costs, and run them in turn.
_DENSE_LIMIT = 1300
# Relative eigenvalue spacing below which modes are treated as one
# near-degenerate cluster during biorthonormalization.
_CLUSTER_RTOL = 1e-9
# Default mode count of the sparse path, and its shift in units of
# bundle.t1_rate_scale (favoring the slow relaxation ladder).
SPARSE_COUNT = 12
SPARSE_SHIFT = -0.5
# Ritz-estimate tolerance of every shift-invert ARPACK solve.  ARPACK
# converges theta = 1 / (lambda - sigma) to ARPACK_TOL * |theta|, so a window
# eigenvalue errs by about ARPACK_TOL * |lambda - sigma|; in the driven (10,8)
# window |lambda - sigma| is at most about 15 gamma, an error of ~1.5e-11
# gamma, far inside the 1e-9 rate gate.  scipy's default, 0, runs every
# estimate down to machine precision.
ARPACK_TOL = 1e-12
# Steady-state eigenvalue below which the null vector is not a physical state.
PSD_FLOOR = -1e-10
# Weight floor for the excited-mode search in the eigenmode rate protocol.
WEIGHT_FLOOR = 1e-8
# Share of a mode's weight that one coherence sector must hold to label it.
SUPPORT_FRACTION = 0.9
# Relative trace drift at which `evolve` gives up.
TRACE_TOL = 1e-9
# Time steps, fractional tail window and rejection residual of `t1_rate_fit`.
FIT_STEPS = 400
FIT_WINDOW = (0.95, 1.0)
FIT_RESIDUAL_TOL = 1e-2


@dataclass
class ModeLabel:
    """Coherence-sector label (m_c, m_a), intra-sector rank k, and kind.

    kind is "T1" when m_c = m_a = 0 (population sector), "T2" for any
    definite nonzero sector, and "mixed" when no single sector holds the
    required fraction of the mode's weight (m_c and m_a are then None).
    """

    m_c: int | None
    m_a: int | None
    k: int
    kind: str


@dataclass
class SpectralMode:
    """One eigenmode of a generator: eigenvalue plus right/left vectors."""

    lam: complex
    right: np.ndarray
    left: np.ndarray
    label: ModeLabel | None = None
    weight: complex | None = None


@dataclass(frozen=True)
class FitResult:
    """Outcome of an exponential-tail fit."""

    gamma: float
    amplitude: float
    fit_window: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class T1DiagResult:
    """Eigenmode-protocol rate under both selection criteria.

    Both criteria choose among excited population (M = 0) modes.
    gamma/mode come from the slowest decaying one with weight above the
    floor; gamma_by_weight/mode_by_weight from the one with the largest
    weight.  agree is False when the two disagree.
    rho_ss is the steady state the excitation was injected on.
    """

    gamma: float
    mode: SpectralMode
    gamma_by_weight: float
    mode_by_weight: SpectralMode
    agree: bool
    rho_ss: np.ndarray


def coherence_sectors(space: TruncatedSpace) -> np.ndarray:
    """Per-component coherence numbers of vectorized operators.

    Returns an integer array of shape (total_dim**2, n_modes): component v
    of a vectorized operator is the matrix element (row, col) =
    (v % N, v // N), and its sector for mode j is
    occupations(row)[j] - occupations(col)[j].
    """
    n = space.total_dim
    occ = np.array([space.occupations(i) for i in range(n)], dtype=int)
    rows = np.tile(np.arange(n), n)
    cols = np.repeat(np.arange(n), n)
    return occ[rows] - occ[cols]


def _shift_invert(mat, sigma):
    """``eigs(k)``: the ``k``-mode shift-invert ARPACK windows near
    ``sigma`` of ``mat`` and of its adjoint, ``(wr, vr, wl, vl)``.

    One sparse LU of ``mat - sig I`` serves both solves (the adjoint at
    ``conj(sig)``) and every later call at the same shift.  The generator
    couples each component only to its neighbours on the grid of Fock
    indices, so the LU is of the shifted matrix in reverse Cuthill-McKee
    order, ``P (mat - sig I) P^T``, factored in that column order with
    SuperLU's threshold partial pivoting (a diagonal pivot within a factor
    10 of the column's largest entry is kept); on a driven generator the
    bandwidth-reducing order leaves about a third less fill than scipy's
    default column order, and the threshold a little less again.  The
    permutation comes from the pattern of ``mat + mat^T`` once per call,
    since a shift changes only the diagonal, and a solve permutes in and
    out, which is exact for the adjoint too.  Above ``_DENSE_LIMIT`` the
    adjoint solve runs on one helper thread, in a copy of the caller's
    context, while the forward solve runs on the caller, both on the same
    read-only LU (SuperLU's solve releases the GIL); smaller matrices solve
    in turn, since a thread costs more than the overlap saves there.  Both
    solves build a ``min(2k + 1, dim)``-vector Krylov basis (the ARPACK
    Users' Guide recommends at least 2k; scipy's default is 20 vectors up
    to k = 9) and stop when the Ritz estimates reach ``ARPACK_TOL``
    relative, not machine precision: an eigenvalue then errs by about
    ``ARPACK_TOL * |lambda - sig|``, at most ~1.5e-11 of the rate in the
    driven (10,8) window, far inside the 1e-9 rate gate.  A
    singular LU or an ARPACK failure in either direction nudges the shift
    off the real axis, factors again and reruns both; three failures in
    one call raise.
    """
    dim = mat.shape[0]
    v0 = np.ones(dim) / np.sqrt(dim)
    pattern = abs(mat)
    perm = reverse_cuthill_mckee((pattern + pattern.T).tocsr(), symmetric_mode=True)
    inv = np.argsort(perm)
    mat_h = spla.aslinearoperator(mat).H
    sig, lu = sigma, None

    def window(factor, a, shift, trans, k):
        op = spla.LinearOperator(
            mat.shape, lambda x: factor.solve(x[perm], trans)[inv], dtype=mat.dtype
        )
        return spla.eigs(
            a, k=k, sigma=shift, v0=v0, OPinv=op, ncv=min(2 * k + 1, dim),
            tol=ARPACK_TOL,
        )

    def eigs(k):
        nonlocal sig, lu
        for _ in range(3):
            try:
                if lu is None:
                    shifted = (mat - sig * sp.eye(dim)).tocsc()
                    lu = spla.splu(
                        shifted[perm][:, perm], permc_spec="NATURAL",
                        diag_pivot_thresh=0.1,
                    )
                right = (lu, mat, sig, "N", k)
                left = (lu, mat_h, np.conj(sig), "H", k)
                if dim <= _DENSE_LIMIT:
                    return (*window(*right), *window(*left))
                # the helper runs in a copy of this context, so the caller's
                # warning capture sees its warnings; leaving the block waits
                # for it, so a retry never refactors under a running solve
                with ThreadPoolExecutor(max_workers=1) as helper:
                    run = contextvars.copy_context().run
                    future = helper.submit(run, window, *left)
                    return (*window(*right), *future.result())
            except (RuntimeError, spla.ArpackError, np.linalg.LinAlgError) as exc:
                last, lu = exc, None
                sig = sig * (1 + 1e-3) + 1e-3j * max(abs(sigma), 1e-12)
        raise RuntimeError(f"sparse eigensolver failed near shift {sigma!r}: {last}")

    return eigs


class _NarrowWindow(RuntimeError):
    """The mode search's window cannot answer its caller; a wider one may."""


def _zero_mode_state(bundle: GeneratorBundle, lams, rights, idx=None) -> np.ndarray:
    """`steady_state`'s checks on the zero mode among ``lams``; column
    ``rights[:, i]`` is the right vector of ``lams[i]``, on the block ``idx``
    when given."""
    scale = bundle.t1_rate_scale
    zero = np.abs(lams) < 1e-6 * scale
    if zero.sum() != 1:
        error, what = (
            (RuntimeError, "degenerate steady space") if zero.any()
            else (_NarrowWindow, "no zero mode in the window")
        )
        raise error(
            f"{what}: {zero.sum()} eigenvalues within 1e-6 * {scale:.3e} of zero"
        )
    vec = _embed(rights[:, np.argmax(zero)], idx, bundle.space.total_dim ** 2)
    rho = unvectorize(vec, bundle.space)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-12 * max(np.max(np.abs(rho)), 1e-300):
        raise RuntimeError("steady null vector is traceless")
    rho = rho / tr
    evals, evecs = np.linalg.eigh(rho)
    if evals.min() < PSD_FLOOR:
        raise RuntimeError(
            f"steady state is not positive semidefinite: min eigenvalue "
            f"{evals.min():.3e} below floor {PSD_FLOOR:.1e}"
        )
    if evals.min() < -1e-14:
        warnings.warn(
            "steady state has small negative populations within tolerance; "
            "clipping and renormalizing"
        )
        evals = np.clip(evals, 0.0, None)
        rho = (evecs * evals) @ evecs.conj().T
        rho = rho / np.trace(rho).real
    return rho


def steady_state(bundle: GeneratorBundle) -> np.ndarray:
    """Unique trace-1 steady density matrix of the generator: the zero mode
    of `t1_rate_diag`'s mode search, except where that search is a dense
    ``eig`` of a closed population block (superoperator dimension up to
    ``_DENSE_LIMIT``): there the null vector of one full dense ``eig``,
    which the search takes from here.  Raises RuntimeError when no
    eigenvalue, or more than one, lies within 1e-6 * t1_rate_scale of zero,
    or when the state is not physical (eigenvalues below ``PSD_FLOOR``);
    small negative populations above the floor are clipped with a warning.
    """
    if _population_block(bundle)[1]:
        w, v = np.linalg.eig(bundle.superop.data.toarray())
        return _zero_mode_state(bundle, w, v)
    return _t1_modes(bundle)[-1]


def _biorthonormalize(lams, lefts, rights, mag: float) -> None:
    """In place on the columns: unit-norm lefts, rights rescaled so
    <l_i, r_j> = delta_ij.

    Near-degenerate eigenvalues (within _CLUSTER_RTOL * mag) are handled
    as a block via a pseudo-inverse of the cluster Gram matrix.
    """
    # A defective generator's lefts can overflow the norm; the checks below
    # raise, and the warning would be a sweep flag (errstate is context-local).
    with np.errstate(over="ignore"):
        for i in range(len(lams)):
            lefts[:, i] /= np.linalg.norm(lefts[:, i])
    used = np.zeros(len(lams), dtype=bool)
    for i in range(len(lams)):
        if used[i]:
            continue
        cluster = np.flatnonzero(
            (~used) & (np.abs(lams - lams[i]) < _CLUSTER_RTOL * mag)
        )
        used[cluster] = True
        if len(cluster) == 1:
            ip = np.vdot(lefts[:, i], rights[:, i])
            if abs(ip) < 1e-12:
                raise RuntimeError(
                    f"defective eigenpair at lambda={lams[i]:.6e}: left/right "
                    "vectors are numerically orthogonal"
                )
            rights[:, i] /= ip
        else:
            lmat, rmat = lefts[:, cluster], rights[:, cluster]
            gram = lmat.conj().T @ rmat
            rmat = rmat @ np.linalg.pinv(gram, rcond=1e-12)
            if np.max(np.abs(lmat.conj().T @ rmat - np.eye(len(cluster)))) > 1e-9:
                raise RuntimeError(
                    f"defective near-degenerate cluster at lambda={lams[i]:.6e}"
                )
            rights[:, cluster] = rmat


def _checked_modes(lop, lams, lefts, rights, mag: float, keep=None):
    """``(lams, lefts, rights)``, cut to the columns that ``keep(lams,
    rights)`` marks when given, after the residual check on the raw
    vectors, biorthonormalized, and after the Gram check."""
    if keep is not None:
        kept = keep(lams, rights)
        lams, lefts, rights = lams[kept], lefts[:, kept], rights[:, kept]
    # defectiveness / convergence check on the raw (unit-norm-ish) vectors
    res = lop @ rights
    res -= rights * lams
    res = np.linalg.norm(res, axis=0)
    bad = res > 1e-8 * mag * np.linalg.norm(rights, axis=0)
    if bad.any():
        i = np.argmax(bad)
        raise RuntimeError(
            f"eigenpair residual {res[i]:.3e} at lambda={lams[i]:.6e}; "
            "generator may be defective or the solver did not converge"
        )

    _biorthonormalize(lams, lefts, rights, mag)
    n = len(lams) if len(lams) <= 300 else 50
    gram = lefts[:, :n].conj().T @ rights[:, :n]
    distinct = np.abs(lams[:n, None] - lams[None, :n]) >= _CLUSTER_RTOL * mag
    gram[distinct] = 0.0  # cross terms between distinct eigenvalues are exact zeros in theory
    if np.max(np.abs(gram - np.eye(n))) > 1e-9:
        raise RuntimeError("biorthonormalization failed beyond 1e-9")
    return lams, lefts, rights


def _slowest(lams: np.ndarray, count: int | None, pairs_first: bool) -> np.ndarray:
    """Indices of the ``count`` slowest of ``lams``, by |Re lambda| ascending
    with ties in order; with ``pairs_first``, two neighbours that are a
    conjugate pair with |Re lambda| equal to 1e-12 relative come Im lambda
    > 0 first, so roundoff in Re lambda cannot swap them."""
    order = np.argsort(np.abs(lams.real), kind="stable")
    if pairs_first:
        a, b = lams[order[:-1]], lams[order[1:]]
        swap = np.flatnonzero(
            (a.imag < 0) & (b.imag > 0) & (np.abs(a.imag + b.imag) <= 1e-12 * b.imag)
            & (np.abs(np.abs(a.real) - np.abs(b.real)) <= 1e-12 * np.abs(b.real))
        )
        order[swap], order[swap + 1] = order[swap + 1], order[swap]
    return order[:count]


def _eigenmodes(
    bundle: GeneratorBundle, lop, dense: bool, count: int | None,
    k: int | None = None, select=lambda *modes: modes, pairs_first: bool = False,
    keep=None,
):
    """Slowest biorthonormalized eigenmodes of ``lop``, the generator of
    ``bundle`` or a closed block of it (square CSR), as the solver's arrays
    ``(lams, lefts, rights)``: eigenvalues sorted by |Re lambda| ascending,
    and column i of ``lefts`` and ``rights`` the vectors of ``lams[i]``.
    ``select`` turns those arrays into the result returned (by default it
    returns them as they are); ``keep``, when given, marks the modes that
    are checked and passed on (`_checked_modes`).

    The body of `spectrum`, shared with `t1_rate_diag`'s search; each caller
    says whether to decompose ``lop`` densely.  The tolerances scale with
    the largest entry of ``lop``, which for a block is never above the
    full generator's, so a block is checked at least as strictly as the
    whole; the sparse shift comes from the bundle.  ``pairs_first`` is
    `_slowest`'s, applied before the ``count`` cut.  The sparse path asks
    ARPACK for ``k`` modes (default ``max(count + 4, 12)``) and keeps the
    ``count`` slowest.  It doubles ``k`` (up to ``dim - 2``) for at most two
    more rounds while a kept forward eigenvalue has no adjoint partner or
    ``select`` raises `_NarrowWindow`, and factors ``lop - sigma I`` once
    for the forward and adjoint solves of every round; each round takes
    both windows from one `_shift_invert` call, which solves them at once
    when ``lop`` is larger than ``_DENSE_LIMIT``.
    """
    dim = lop.shape[0]
    mag = float(np.max(np.abs(lop.data))) if lop.nnz else 0.0
    if dense:
        # scipy.linalg runs on the same bundled OpenBLAS copy as ARPACK, so
        # the mode search uses one copy on either path.
        w, vecs = sla.eig(lop.toarray())
        # The inverse goes through LAPACK directly: `sla.inv` warns on an
        # ill-conditioned eigenvector matrix, that warning would reach the
        # CSV flags with a BLAS-dependent rcond, and a warnings filter here
        # would change process-wide state from sweep worker threads.  The
        # residual and Gram checks below report defectiveness instead.
        getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (vecs,))
        lu, piv, info = getrf(vecs)
        if info == 0:
            inv, info = getrs(lu, piv, np.eye(dim, dtype=vecs.dtype))
        if info != 0:
            raise RuntimeError("singular eigenvector matrix; generator is defective")
        kept = _slowest(w, count, pairs_first)
        # the lefts are the conjugated rows of the inverse; the full-size
        # arrays go before the checks, which keeps the peak memory down
        lams, rights, lefts = w[kept], vecs[:, kept], inv[kept].T
        del vecs, lu, inv
        np.conjugate(lefts, out=lefts)
        return select(*_checked_modes(lop, lams, lefts, rights, mag, keep))

    count = SPARSE_COUNT if count is None else count
    k = max(count + 4, 12) if k is None else k
    eigs = _shift_invert(lop.tocsc(), SPARSE_SHIFT * bundle.t1_rate_scale)
    # The forward and adjoint solver windows may disagree on which
    # eigenvalues sit at their outer edge, and a small window may miss the
    # modes the caller needs; widen both until neither happens.
    for last in (False, False, True):
        wr, vr, wl, vl = eigs(k)
        kept = _slowest(wr, count, pairs_first)
        lams = wr[kept]
        gap = np.abs(np.conj(wl)[None, :] - lams[:, None])
        partner = np.argmin(gap, axis=1)
        miss = gap.min(axis=1) > 1e-8 * np.maximum(1.0, np.abs(lams))
        if not miss.any():
            modes = _checked_modes(lop, lams, vl[:, partner], vr[:, kept], mag, keep)
            try:
                return select(*modes)
            except _NarrowWindow:
                if last:
                    raise
        elif last:
            raise RuntimeError(
                f"no adjoint eigenvalue matches lambda={lams[np.argmax(miss)]:.6e} "
                "even after widening the solver window; move the shift"
            )
        k = min(2 * k, dim - 2)  # scipy needs k < dim - 1


def spectrum(
    bundle: GeneratorBundle, count: int | None = None
) -> list[SpectralMode]:
    """Slowest eigenmodes of the generator, sorted by |Re lambda| ascending
    (a conjugate pair of equal |Re lambda| with its Im lambda > 0 member
    first), biorthonormalized.

    The modes include T2 modes, so the full generator is searched, open or
    closed: superoperators up to ``_DENSE_LIMIT`` are diagonalized in full,
    larger ones go through shift-invert ARPACK at ``SPARSE_SHIFT *
    bundle.t1_rate_scale``.  ``count`` is the number of modes to return
    (None = all computed; the sparse path defaults to ``SPARSE_COUNT`` and
    asks ARPACK for ``max(count + 4, 12)``, a wider window than
    `t1_rate_diag` starts from).  Each mode wraps one column of the
    solver's arrays.
    """
    data = bundle.superop.data
    lams, lefts, rights = _eigenmodes(
        bundle, data, data.shape[0] <= _DENSE_LIMIT, count, pairs_first=True
    )
    return [
        SpectralMode(lam=lam, right=rights[:, i], left=lefts[:, i])
        for i, lam in enumerate(lams)
    ]


def block_labels(
    bundle: GeneratorBundle, modes: list[SpectralMode]
) -> list[SpectralMode]:
    """Label modes by coherence sector; returns the modes with label set.

    A mode gets the (m_c, m_a) sector holding at least ``SUPPORT_FRACTION``
    of its right vector's weight, or a "mixed" label otherwise.  k ranks
    modes within each sector by |Re lambda| ascending.
    """
    sectors = coherence_sectors(bundle.space)
    uniq, inv = np.unique(sectors, axis=0, return_inverse=True)
    assignments = []
    for mode in modes:
        p = np.abs(mode.right) ** 2
        w = np.bincount(inv, weights=p, minlength=len(uniq))
        best = int(np.argmax(w))
        if w[best] >= SUPPORT_FRACTION * p.sum():
            m_c, m_a = int(uniq[best][0]), int(uniq[best][1])
            kind = "T1" if (m_c == 0 and m_a == 0) else "T2"
            assignments.append((m_c, m_a, kind))
        else:
            assignments.append((None, None, "mixed"))
    ranks: dict[tuple, int] = {}
    for idx in np.argsort([abs(m.lam.real) for m in modes], kind="stable"):
        key = assignments[idx]
        k = ranks.get(key, 0)
        ranks[key] = k + 1
        m_c, m_a, kind = key
        modes[idx].label = ModeLabel(m_c=m_c, m_a=m_a, k=k, kind=kind)
    return modes


# Cutoff constants of the T1 protocols, built on the first call for a space
# and shared, read-only, by every later generator of that space: the qubit
# raise operator, its adjoint and the dense qubit number operator.  A
# concurrent miss only builds them twice.
_T1_CONSTANTS: dict[TruncatedSpace, tuple] = {}


def _t1_constants(space: TruncatedSpace) -> tuple:
    """(qubit raise operator, its adjoint, dense qubit number operator) of
    ``space``."""
    consts = _T1_CONSTANTS.get(space)
    if consts is None:
        _, a_raise, number = ladder_operators(space, 1)
        a_lower = a_raise.conj().T
        consts = (a_raise, a_lower, number.toarray())
        for arr in (a_raise.data, a_raise.indices, a_raise.indptr, a_lower.data,
                    a_lower.indices, a_lower.indptr, consts[2]):
            arr.flags.writeable = False
        _T1_CONSTANTS[space] = consts
    return consts


def _injected_excitation(bundle: GeneratorBundle, rho_ss: np.ndarray) -> np.ndarray:
    """Normalized rho_ss with one extra qubit excitation added."""
    a_raise, a_lower, _ = _t1_constants(bundle.space)
    rho0 = a_raise @ rho_ss @ a_lower
    tr = np.trace(rho0).real
    if tr <= 0:
        raise RuntimeError("cannot inject an excitation: zero-weight result")
    return rho0 / tr


def _embed(vec: np.ndarray, idx: np.ndarray | None, dim: int) -> np.ndarray:
    """Full-length copy of ``vec``, a vector on the block ``idx`` if given."""
    if idx is None:
        return vec.copy()
    full = np.zeros(dim, dtype=vec.dtype)
    full[idx] = vec
    return full


def _population_block(bundle: GeneratorBundle) -> tuple[bool, bool]:
    """Whether the generator leaves its population block M = 0 closed (no
    term with a nonzero coefficient joins it to the rest, per the block
    table), and whether its T1 search and steady state go dense: a closed
    block with a superoperator dimension up to ``_DENSE_LIMIT``.  Flags
    only; nothing is summed here."""
    joining = _block_table(bundle.space)[1]
    closed = not any(c != 0 and key in joining for key, c in bundle.coeffs.items())
    return closed, closed and bundle.space.total_dim ** 2 <= _DENSE_LIMIT


def _t1_modes(bundle: GeneratorBundle):
    """`t1_rate_diag`'s candidate modes, the excited population modes, as
    `_eigenmodes`' arrays ``lams, lefts, rights``, then the indices of the
    M = 0 block they are restricted to (None when the generator joins it to
    the rest), their weights in the injected excitation, and the steady
    state.  Bare and blackbox generators conserve excitation number, so
    the steady state, the injected excitation and every population mode
    live in that closed block; its one sum over the block layout is here,
    and the full generator is not assembled.  On an open block (a driven
    generator) the full generator is searched, and only the zero mode and
    the population modes, whose right vector holds at least
    ``SUPPORT_FRACTION`` of its weight in M = 0, are checked and kept: the
    driven steady state carries coherences, a drive near the qubit puts
    qubit coherence modes near the shift, and those of a near-harmonic
    qubit can form clusters too close to biorthonormalize.

    One flag picks the solver and the steady state: a closed block with a
    superoperator dimension up to ``_DENSE_LIMIT`` is searched by a dense
    ``eig``, and its steady state is `steady_state`'s full dense ``eig``.
    Every other search starts from a 6-mode shift-invert window, widened
    while it holds no zero mode or no candidate with weight above
    ``WEIGHT_FLOOR`` (besides `_eigenmodes`' own adjoint check), and the
    window's zero mode is the steady state.
    """
    layout, _, population = _block_table(bundle.space)
    closed, dense_block = _population_block(bundle)
    zero = 1e-6 * bundle.t1_rate_scale
    keep = idx = None
    if closed:
        idx, lop = np.flatnonzero(population), _term_sum(layout, bundle.coeffs)
    else:
        lop = bundle.superop.data

        def keep(lams, rights):  # the zero mode and the population modes
            p = np.abs(rights) ** 2
            return (np.abs(lams) < zero) | (
                p[population].sum(0) >= SUPPORT_FRACTION * p.sum(0))

    def select(lams, lefts, rights):
        if dense_block:
            rho_ss = steady_state(bundle)
        else:
            rho_ss = _zero_mode_state(bundle, lams, rights, idx)
        excited = np.abs(lams) > zero
        lams, lefts, rights = lams[excited], lefts[:, excited], rights[:, excited]
        v0 = vectorize(_injected_excitation(bundle, rho_ss))
        weights = lefts.conj().T @ (v0 if idx is None else v0[idx])
        if not np.any(np.abs(weights) > WEIGHT_FLOOR):
            raise _NarrowWindow(
                f"no excited population mode carries weight above {WEIGHT_FLOOR:.1e}"
            )
        return lams, lefts, rights, idx, weights, rho_ss

    return _eigenmodes(bundle, lop, dense_block, None, k=6, select=select, keep=keep)


def t1_rate_diag(bundle: GeneratorBundle) -> T1DiagResult:
    """Eigenmode readout of the slow qubit relaxation rate.

    Searches the generator's slowest modes, restricted to the population
    (M = 0) block when the generator leaves it closed: a dense ``eig`` of a
    closed block when the full superoperator dimension is at most
    ``_DENSE_LIMIT``, otherwise (every driven point included) shift-invert
    ARPACK from a 6-mode window, widened only while that window cannot
    answer the selection (see `_t1_modes`).  Injects one qubit excitation
    on the steady state (``rho_ss``: the search's zero mode, or for the
    dense block the full dense ``eig`` of `steady_state`), computes every
    mode weight w = <l, rho0> from the lefts' columns at once, and selects
    among the excited population modes (all of a closed block's; on an open
    block those with ``SUPPORT_FRACTION`` of their weight in M = 0) by two
    criteria (slowest decaying above ``WEIGHT_FLOOR``; largest weight).
    Their disagreement is flagged in the result and as a warning.  Only
    the selected modes become `SpectralMode` objects; their vectors are
    full-length copies.
    """
    lams, lefts, rights, idx, weights, rho_ss = _t1_modes(bundle)
    # the modes are sorted by |Re lambda|, and one clears the floor
    slowest = np.flatnonzero(np.abs(weights) > WEIGHT_FLOOR)[0]
    heaviest = np.argmax(np.abs(weights))
    dim = bundle.space.total_dim ** 2
    picked = {  # both criteria may pick the same mode; wrap it once
        i: SpectralMode(lams[i], _embed(rights[:, i], idx, dim),
                        _embed(lefts[:, i], idx, dim), weight=complex(weights[i]))
        for i in {slowest, heaviest}
    }
    gamma = -lams[slowest].real
    gamma_w = -lams[heaviest].real
    agree = bool(np.isclose(gamma, gamma_w, rtol=1e-9, atol=1e-15))
    if not agree:
        warnings.warn(
            f"rate criteria disagree: slowest-excited {gamma:.6e} vs "
            f"largest-weight {gamma_w:.6e}"
        )
    return T1DiagResult(
        gamma=gamma,
        mode=picked[slowest],
        gamma_by_weight=gamma_w,
        mode_by_weight=picked[heaviest],
        agree=agree,
        rho_ss=rho_ss,
    )


def evolve(bundle: GeneratorBundle, rho0: np.ndarray, times) -> np.ndarray:
    """Propagate rho0 through the generator; returns (len(times), N, N).

    Uses one dense matrix exponential per distinct time step (steps equal
    to within 1e-9 relative are grouped), then repeated matrix-vector
    products.  Relative trace drift beyond ``TRACE_TOL`` raises.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d grid")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be sorted and non-negative")
    dim = bundle.superop.data.shape[0]
    if dim > 4096:
        raise RuntimeError(
            f"dense propagation infeasible at superoperator dim {dim}"
        )
    dense = bundle.superop.data.toarray()
    t_func = trace_functional(bundle.space)
    v = vectorize(np.asarray(rho0, dtype=complex))
    tr0 = t_func @ v

    dts = np.diff(np.concatenate([[0.0], times]))
    dt_max = max(dts.max(), 1e-300)
    keys = np.round(dts / dt_max, 9)
    props: dict[float, np.ndarray] = {}
    for key in np.unique(keys):
        if key == 0.0:
            continue
        dt = dts[keys == key].mean()
        props[key] = sla.expm(dense * dt)

    out = np.empty((times.size, bundle.space.total_dim, bundle.space.total_dim), dtype=complex)
    for i, key in enumerate(keys):
        if key != 0.0:
            v = props[key] @ v
        drift = abs(t_func @ v - tr0)
        if drift > TRACE_TOL * max(1.0, abs(tr0)):
            raise RuntimeError(
                f"trace drift {drift:.3e} at t={times[i]:.6e} exceeds {TRACE_TOL:.1e}"
            )
        out[i] = unvectorize(v, bundle.space)
    return out


def fit_exponential_tail(
    times: np.ndarray,
    values: np.ndarray,
    ss_value: float,
    window: tuple[float, float] = FIT_WINDOW,
) -> FitResult:
    """Fit values(t) - ss_value ~ A exp(-gamma t) on a fractional window.

    The residual is the RMS relative misfit on the window; callers decide
    whether to reject.  Raises when the window has fewer than three
    samples, the signal sits at the numerical floor, or it changes sign
    (a sign change means the window still contains non-exponential
    transients or noise).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    horizon = times[-1]
    t_lo, t_hi = window[0] * horizon, window[1] * horizon
    pad = 1e-12 * max(horizon, 1.0)
    mask = (times >= t_lo - pad) & (times <= t_hi + pad)
    if mask.sum() < 3:
        raise ValueError(
            f"fit window [{t_lo:.3e}, {t_hi:.3e}] contains fewer than 3 samples"
        )
    y = values[mask] - ss_value
    amp0 = max(abs(values[0] - ss_value), 1e-300)
    if np.min(np.abs(y)) < 1e-13 * amp0:
        raise RuntimeError(
            "observable is at the numerical floor inside the fit window"
        )
    if not (np.all(y > 0) or np.all(y < 0)):
        raise RuntimeError("observable crosses its steady value in the window")
    ts = times[mask]
    slope, intercept = np.polyfit(ts, np.log(np.abs(y)), 1)
    gamma = -float(slope)
    amplitude = float(np.sign(y[0]) * np.exp(intercept))
    model = amplitude * np.exp(slope * ts)
    residual = float(np.sqrt(np.mean(((y - model) / y) ** 2)))
    return FitResult(
        gamma=gamma,
        amplitude=amplitude,
        fit_window=(float(t_lo), float(t_hi)),
        residual=residual,
    )


def t1_rate_fit(
    bundle: GeneratorBundle,
    rho_ss: np.ndarray,
    horizon: float | None = None,
    window: tuple[float, float] = FIT_WINDOW,
) -> FitResult:
    """Time-domain readout of the slow qubit relaxation rate.

    Evolves the steady state ``rho_ss`` (as `t1_rate_diag` returns it) with
    one qubit excitation injected on a uniform grid of ``FIT_STEPS`` steps
    out to ``horizon`` (default 20 / t1_rate_scale, late enough for fast
    modes to die), then fits the tail of <n_qubit>(t).  A fit residual above
    ``FIT_RESIDUAL_TOL`` rejects the fit.
    """
    scale = bundle.t1_rate_scale
    horizon = horizon if horizon is not None else 20.0 / scale
    rho0 = _injected_excitation(bundle, rho_ss)
    _, _, n_qubit = _t1_constants(bundle.space)
    times = np.linspace(0.0, horizon, FIT_STEPS + 1)
    traj = evolve(bundle, rho0, times)
    nvals = np.einsum("tij,ji->t", traj, n_qubit).real
    n_ss = float(np.trace(n_qubit @ rho_ss).real)
    result = fit_exponential_tail(times, nvals, n_ss, window)
    if result.residual > FIT_RESIDUAL_TOL:
        raise RuntimeError(
            f"fit rejected: relative residual {result.residual:.3e} exceeds "
            f"{FIT_RESIDUAL_TOL:.1e} (window likely contains transients)"
        )
    return result
