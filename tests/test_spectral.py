"""Tests for steady states, spectra, labels, and the two rate protocols."""

import dataclasses
import json
import threading
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import purcell_lab.spectral
from purcell_lab.cli import _build_point, _with_one_blas_thread, config_from_dict
from purcell_lab.fockspace import (
    Superoperator,
    TruncatedSpace,
    ladder_operators,
    unvectorize,
    vectorize,
)
from purcell_lab.liouvillian import (
    TermToggles,
    build_bare,
    build_blackbox,
    build_displaced,
)
from purcell_lab.model import (
    DriveParams,
    SystemParams,
    displaced_frame,
    polariton_frame,
)
from purcell_lab.perturbation import rate_report
from purcell_lab.spectral import (
    ARPACK_TOL,
    PSD_FLOOR,
    SUPPORT_FRACTION,
    ModeLabel,
    SpectralMode,
    _t1_modes,
    _zero_mode_state,
    block_labels,
    coherence_sectors,
    evolve,
    fit_exponential_tail,
    spectrum,
    steady_state,
    t1_rate_diag,
    t1_rate_fit,
)
from reference import (
    coupled_mode_complex_frequencies,
    lindblad_superoperator,
    max_abs,
    shift_invert_steady_state,
)

ALL_OFF = TermToggles(False, False, False, False)
DENSE_LIMIT = purcell_lab.spectral._DENSE_LIMIT
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def make_params(**over):
    base = dict(omega_a=1.0, omega_c=0.0, g=0.1, U=0.01, kappa_a=0.0, kappa_c=0.01)
    base.update(over)
    return SystemParams(**base)


def blackbox(dims, toggles=None, **over):
    params = make_params(**over)
    frame = polariton_frame(params)
    return build_blackbox(
        frame, params, TruncatedSpace(dims), toggles or TermToggles()
    )


def manual_bundle(superop):
    """A hand-made superoperator with the two bundle attributes that
    `spectrum`'s dense path and `evolve` read."""
    return types.SimpleNamespace(**{"superop": superop, "space": superop.space})


class TestSteadyState:
    def test_decoupled_thermal_cavity_is_geometric(self):
        # detailed balance holds pairwise below the cutoff, so the truncated
        # steady state is the renormalized geometric distribution exactly
        params = make_params(g=0.0, kappa_a=0.02, nbar_c0=0.1)
        frame = polariton_frame(params)
        space = TruncatedSpace((8, 2))
        rho = steady_state(build_blackbox(frame, params, space))
        q = 0.1 / 1.1
        w = q ** np.arange(8)
        w = w / w.sum()
        expected = np.kron(np.diag(w), np.diag([1.0, 0.0]))
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_zero_temperature_vacuum(self):
        rho = steady_state(blackbox((5, 4)))
        expected = np.zeros((20, 20))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_qubit_population_matches_dressed_occupancy(self):
        # deviation is O(g^2 U / Delta^3) = 1e-4 at these parameters;
        # superop dim 2304 is above the dense limit, so the state is the zero
        # mode of the population block's shift-invert search (block dim 218)
        bundle = blackbox((8, 6), nbar_c0=0.1)
        rho = steady_state(bundle)
        n_a = ladder_operators(bundle.space, 1)[2].toarray()
        pop = np.trace(n_a @ rho).real
        assert pop == pytest.approx(bundle.frame.n_a_t, abs=1e-4)

    def test_degenerate_steady_space_rejected(self):
        # g = 0 and kappa_a = 0 leave the qubit undamped
        with pytest.raises(RuntimeError, match="degenerate"):
            steady_state(blackbox((2, 2), g=0.0, kappa_a=0.0))

    def test_trace_one_hermitian_psd(self):
        rho = steady_state(blackbox((4, 3), nbar_c0=0.12, kappa_a=0.001))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(rho).min() >= -1e-14


class TestSpectrum:
    # closed-form targets are exact only on the untruncated space; the
    # truncation tails scale like (n/(1+n))^(cutoff-k), hence the
    # occupancy-dependent tolerances below
    @pytest.mark.parametrize(
        "nbar,kmax,tol", [(0.05, 3, 1e-9), (0.15, 2, 5e-9)]
    )
    def test_thermal_oscillator_population_ladder(self, nbar, kmax, tol):
        bundle = blackbox((14, 2), toggles=ALL_OFF, nbar_c0=nbar)
        kc = bundle.frame.kappa_c_t
        lams = np.array([m.lam for m in spectrum(bundle)])
        for k in range(kmax + 1):
            assert np.min(np.abs(lams - (-k * kc))) < tol

    @pytest.mark.parametrize("nbar", [0.05, 0.15])
    def test_cavity_coherence_modes(self, nbar):
        bundle = blackbox((14, 2), toggles=ALL_OFF, nbar_c0=nbar)
        frame = bundle.frame
        lams = np.array([m.lam for m in spectrum(bundle)])
        for m_c, k in ((1, 0), (1, 1), (2, 0)):
            want = -1j * m_c * frame.omega_c_t - 0.5 * frame.kappa_c_t * (
                abs(m_c) + 2 * k
            )
            assert np.min(np.abs(lams - want)) < 5e-9
            assert np.min(np.abs(lams - np.conj(want))) < 5e-9

    def test_modes_sorted_and_biorthonormal(self):
        modes = spectrum(blackbox((4, 3), nbar_c0=0.1))
        res = [abs(m.lam.real) for m in modes]
        # sorted, except that a conjugate pair of equal |Re lambda| (to
        # 1e-12 relative) puts its Im lambda > 0 member first
        for i, (a, b) in enumerate(zip(modes, modes[1:])):
            if res[i + 1] < res[i]:
                assert a.lam.imag > 0 > b.lam.imag
                assert abs(a.lam - np.conj(b.lam)) <= 1e-12 * abs(a.lam)
        lmat = np.column_stack([m.left for m in modes])
        rmat = np.column_stack([m.right for m in modes])
        for m in modes:
            assert np.linalg.norm(m.left) == pytest.approx(1.0, abs=1e-12)
        gram = lmat.conj().T @ rmat
        assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-9

    def test_sparse_finds_slow_ladder(self, monkeypatch):
        # the sparse path is shift-local: it recovers modes near the target
        # rate (the relaxation ladder), not fast-oscillating coherences
        # whose real parts happen to be small
        bundle = blackbox((5, 4), nbar_c0=0.08)
        dense_all = np.array([m.lam for m in spectrum(bundle)])
        monkeypatch.setattr(purcell_lab.spectral, "_DENSE_LIMIT", 0)  # force ARPACK
        sparse = spectrum(bundle, count=8)
        for m in sparse:
            assert np.min(np.abs(dense_all - m.lam)) < 1e-9 * max(1.0, abs(m.lam))
        real_sparse = sorted(
            abs(m.lam.real) for m in sparse if abs(m.lam.imag) < 1e-10
        )
        reals = dense_all[np.abs(dense_all.imag) < 1e-10].real
        real_dense = np.sort(np.abs(reals))
        assert np.allclose(real_sparse[:4], real_dense[:4], atol=1e-10)
        lmat = np.column_stack([m.left for m in sparse])
        rmat = np.column_stack([m.right for m in sparse])
        gram = lmat.conj().T @ rmat
        assert np.max(np.abs(gram - np.eye(len(sparse)))) < 1e-9

    def test_eigenvalue_conjugate_pairs(self):
        lams = np.array(
            [m.lam for m in spectrum(blackbox((4, 3), nbar_c0=0.1))]
        )
        for lam in lams:
            if abs(lam.imag) > 1e-12:
                assert np.min(np.abs(lams - np.conj(lam))) < 1e-10 * max(
                    1.0, abs(lam)
                )

    def test_defective_generator_detected(self):
        space = TruncatedSpace((2, 2))
        m = sp.lil_matrix((16, 16), dtype=complex)
        m[0, 1] = 1.0  # Jordan block; not diagonalizable
        bundle = manual_bundle(Superoperator(space, m.tocsr()))
        # no conditioning or overflow warning either: it would become a CSV
        # flag, and the rcond digits depend on the BLAS
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="defective"):
                spectrum(bundle)

    def test_degenerate_clusters_are_biorthonormalized(self, monkeypatch):
        # with the interaction terms off the dressed modes decouple, and equal
        # linewidths make their decay ladders coincide in pairs
        pinv, clusters = np.linalg.pinv, []

        def counted_pinv(a, **kwargs):
            clusters.append(a.shape[0])
            return pinv(a, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
        bundle = blackbox((4, 3), ALL_OFF, U=0.05, kappa_a=0.01, kappa_c=0.01)
        modes = spectrum(bundle)
        assert clusters.count(2) >= 2
        lmat = np.array([m.left for m in modes]).T
        rmat = np.array([m.right for m in modes]).T
        assert np.max(np.abs(lmat.conj().T @ rmat - np.eye(len(modes)))) < 1e-9
        assert t1_rate_diag(bundle).gamma == pytest.approx(0.01, rel=1e-12)

    def test_eigenpair_residual_detected(self, monkeypatch):
        # the perturbed rights are no eigenvectors; the error names the first
        # failing mode in |Re lambda| order
        eig, named = scipy.linalg.eig, []

        def perturbed_eig(a):
            w, v = eig(a)
            order = np.argsort(np.abs(w.real), kind="stable")
            rng = np.random.default_rng(0)
            for i in order[[2, 5]]:
                v[:, i] += 1e-3 * rng.standard_normal(len(w))
            named.append(w[order[2]])
            return w, v

        monkeypatch.setattr(scipy.linalg, "eig", perturbed_eig)
        with pytest.raises(RuntimeError, match="eigenpair residual") as err:
            spectrum(blackbox((3, 2), nbar_c0=0.1))
        assert f"lambda={named[0]:.6e}" in str(err.value)

    def test_singular_eigenvector_matrix_detected(self, monkeypatch):
        def singular_eig(a):
            return np.zeros(len(a), dtype=complex), np.zeros(a.shape, dtype=complex)

        monkeypatch.setattr(scipy.linalg, "eig", singular_eig)
        with pytest.raises(RuntimeError, match="singular eigenvector matrix"):
            spectrum(blackbox((2, 2)))


def drive_sweep_point(photons, dims):
    config = config_from_dict(json.loads((CONFIGS / "drive_sweep.json").read_text()))
    return _build_point(config, photons, dims)[0]


def driven_bundle():
    # the drive opens the population block, so `spectrum` and `t1_rate_diag`
    # both solve the full dim-256 generator; the tests ask for the 8 modes
    # nearest the shift, where ARPACK's vectors hold the Gram matrix to 1e-9
    params = make_params(U=0.1)
    frame = displaced_frame(params, DriveParams(0.05, -0.1))
    return build_displaced(frame, params, TruncatedSpace((4, 4)))


def is_adjoint(a):
    """Whether an `eigs` operand is the sparse path's adjoint operator (a
    LinearOperator) rather than the sparse matrix of the forward solve."""
    return isinstance(a, scipy.sparse.linalg.LinearOperator)


class TestShiftInvert:
    """The sparse path factors each shift once for the forward and the
    adjoint solve, and factors again only at a nudged shift.  With the
    dense limit at 0 the two solves of a round run at once, so a test tells
    them apart by the operator each runs on, not by call order."""

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        """Counted `splu` and `eigs` of the sparse path, with the dense path
        switched off; `splu` records each matrix and its factor in `lu`, and
        `fail` makes that many next `splu` calls raise.  Each `eigs` entry is
        the call's keyword arguments plus ``adjoint``, whether it ran on the
        adjoint operator."""
        spla = purcell_lab.spectral.spla
        splu, eigs = spla.splu, spla.eigs
        calls = {"splu": [], "lu": [], "eigs": [], "fail": 0}

        def counted_splu(mat, **kwargs):
            calls["splu"].append(mat)
            if calls["fail"]:
                calls["fail"] -= 1
                raise RuntimeError("Factor is exactly singular")
            calls["lu"].append(splu(mat, **kwargs))
            return calls["lu"][-1]

        def counted_eigs(a, **kwargs):
            calls["eigs"].append(dict(kwargs, adjoint=is_adjoint(a)))
            return eigs(a, **kwargs)

        monkeypatch.setattr(spla, "splu", counted_splu)
        monkeypatch.setattr(spla, "eigs", counted_eigs)
        monkeypatch.setattr(purcell_lab.spectral, "_DENSE_LIMIT", 0)
        return calls

    @staticmethod
    def by_direction(eigs_calls):
        """The recorded forward calls, then the adjoint ones, each in order."""
        return (
            [c for c in eigs_calls if not c["adjoint"]],
            [c for c in eigs_calls if c["adjoint"]],
        )

    @staticmethod
    def windows(eigs_calls):
        """``(k, ncv)`` of each recorded call, after checking that every call
        stops at ``ARPACK_TOL``."""
        assert [c["tol"] for c in eigs_calls] == [ARPACK_TOL] * len(eigs_calls)
        return [(c["k"], c["ncv"]) for c in eigs_calls]

    @staticmethod
    def assert_matches_dense(modes, bundle):
        dense = scipy.linalg.eigvals(bundle.superop.data.toarray())
        for m in modes:
            assert np.min(np.abs(dense - m.lam)) <= 1e-9 * max(1.0, abs(m.lam))
        lmat = np.column_stack([m.left for m in modes])
        rmat = np.column_stack([m.right for m in modes])
        gram = lmat.conj().T @ rmat
        assert np.max(np.abs(gram - np.eye(len(modes)))) <= 1e-9

    def test_one_factorization_serves_forward_and_adjoint(self, solver_calls):
        bundle = driven_bundle()
        sparse = spectrum(bundle, count=8)
        assert len(solver_calls["splu"]) == 1
        assert len(solver_calls["eigs"]) == 2
        (forward,), (adjoint,) = self.by_direction(solver_calls["eigs"])
        assert adjoint["sigma"] == np.conj(forward["sigma"])
        self.assert_matches_dense(sparse, bundle)

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_window_matches_scipy_shift_invert(self, adjoint):
        # the LU is of the reordered shifted matrix, so a solve permutes in
        # and out; the T1 search's 6-mode forward and adjoint ("H") windows
        # must still be scipy's own shift-invert eigenpairs of mat and of
        # mat^H.  ARPACK converges theta = 1 / (lambda - sigma), relative to
        # the largest |theta|, so the eigenvalues are compared there.
        mat = driven_bundle().superop.data.tocsc()
        sig = purcell_lab.spectral.SPARSE_SHIFT * 1e-4
        v0 = np.ones(mat.shape[0]) / np.sqrt(mat.shape[0])
        wr, vr, wl, vl = purcell_lab.spectral._shift_invert(mat, sig)(k=6)
        w, v = (wl, vl) if adjoint else (wr, vr)
        ref, ref_sig = (mat.conj().T.tocsc(), np.conj(sig)) if adjoint else (mat, sig)
        w_ref, v_ref = scipy.sparse.linalg.eigs(ref, k=6, sigma=ref_sig, v0=v0)
        theta, theta_ref = 1 / (w - ref_sig), 1 / (w_ref - ref_sig)
        for j, vec in enumerate(v.T):
            i = np.argmin(np.abs(theta_ref - theta[j]))
            assert abs(theta_ref[i] - theta[j]) <= 1e-12 * np.abs(theta_ref).max()
            vec = vec / np.linalg.norm(vec)
            vec_ref = v_ref[:, i] / np.linalg.norm(v_ref[:, i])
            phase = np.vdot(vec_ref, vec)
            assert np.linalg.norm(vec - phase / abs(phase) * vec_ref) <= 1e-9

    def test_reverse_cuthill_mckee_order_cuts_the_fill(self, solver_calls):
        # the generator's graph is a grid of Fock indices, so the
        # bandwidth-reducing order leaves well under scipy's default fill
        bundle = drive_sweep_point(10.0, (6, 5))
        t1_rate_diag(bundle)
        (lu,) = solver_calls["lu"]
        dim = bundle.superop.data.shape[0]
        sig = purcell_lab.spectral.SPARSE_SHIFT * bundle.t1_rate_scale
        default = scipy.sparse.linalg.splu(
            (bundle.superop.data - sig * sp.eye(dim)).tocsc()
        )
        assert lu.L.nnz + lu.U.nnz <= 0.8 * (default.L.nnz + default.U.nnz)

    def test_widening_round_reuses_the_factorization(self, solver_calls, monkeypatch):
        eigs = purcell_lab.spectral.spla.eigs

        missed = []

        def first_adjoint_misses(a, **kwargs):
            w, v = eigs(a, **kwargs)
            if is_adjoint(a) and not missed:  # the first adjoint solve
                missed.append(True)
                w = w + 1.0
            return w, v

        monkeypatch.setattr(purcell_lab.spectral.spla, "eigs", first_adjoint_misses)
        bundle = driven_bundle()
        sparse = spectrum(bundle, count=8)
        assert len(solver_calls["splu"]) == 1
        assert self.windows(solver_calls["eigs"]) == [(12, 25)] * 2 + [(24, 49)] * 2
        self.assert_matches_dense(sparse, bundle)

    def test_unmatched_adjoint_raises_after_three_rounds(
        self, solver_calls, monkeypatch
    ):
        eigs = purcell_lab.spectral.spla.eigs
        forward = []

        def every_adjoint_misses(a, **kwargs):
            w, v = eigs(a, **kwargs)
            if is_adjoint(a):
                w = w + 1.0
            else:
                forward.append(w)
            return w, v

        monkeypatch.setattr(purcell_lab.spectral.spla, "eigs", every_adjoint_misses)
        with pytest.raises(RuntimeError, match="no adjoint eigenvalue matches") as err:
            spectrum(driven_bundle(), count=8)
        assert self.windows(solver_calls["eigs"]) == (
            [(12, 25)] * 2 + [(24, 49)] * 2 + [(48, 97)] * 2
        )
        # the message names the slowest forward eigenvalue of the last round
        last = forward[-1]
        named = last[np.argmin(np.abs(last.real))]
        assert f"lambda={named:.6e}" in str(err.value)

    @pytest.mark.parametrize("dense_limit", [0, DENSE_LIMIT])
    def test_steady_state_factors_once(self, solver_calls, monkeypatch, dense_limit):
        # a driven steady state is the zero mode of the shift-invert window
        # at any size, so the dim-256 generator factors one LU either way
        monkeypatch.setattr(purcell_lab.spectral, "_DENSE_LIMIT", dense_limit)
        bundle = driven_bundle()
        rho = steady_state(bundle)
        assert len(solver_calls["splu"]) == 1
        residual = np.linalg.norm(bundle.superop.data @ vectorize(rho))
        assert residual < 1e-10 * max_abs(bundle.superop)

    def test_driven_diag_factors_once(self, solver_calls):
        # the steady state is the zero mode of the forward window, so the
        # mode search's one LU and its two ARPACK solves serve the point
        t1_rate_diag(driven_bundle())
        assert len(solver_calls["splu"]) == 1
        (forward,), (adjoint,) = self.by_direction(solver_calls["eigs"])
        assert adjoint["sigma"] == np.conj(forward["sigma"])

    @pytest.mark.parametrize("dims,dense_limit", [((8, 6), 0), ((6, 5), DENSE_LIMIT)])
    def test_driven_diag_asks_for_the_small_window(
        self, solver_calls, monkeypatch, dims, dense_limit
    ):
        # the 6-mode window of a drive-sweep point holds the zero mode and
        # the weighted slow population modes, so it is never widened; a
        # driven generator is searched this way at any size, so the dim-900
        # point under the dense limit runs no dense eig either
        monkeypatch.setattr(purcell_lab.spectral, "_DENSE_LIMIT", dense_limit)
        sizes = []

        def spy(eig):
            def wrapped(a):
                sizes.append(a.shape[0])
                return eig(a)
            return wrapped

        monkeypatch.setattr(np.linalg, "eig", spy(np.linalg.eig))
        monkeypatch.setattr(scipy.linalg, "eig", spy(scipy.linalg.eig))
        t1_rate_diag(drive_sweep_point(10.0, dims))
        assert len(solver_calls["splu"]) == 1
        assert self.windows(solver_calls["eigs"]) == [(6, 13), (6, 13)]
        assert sizes == []

    @pytest.mark.parametrize("count,k", [(8, 12), (None, 16)])
    def test_spectrum_keeps_its_window(self, solver_calls, count, k):
        spectrum(driven_bundle(), count=count)
        assert self.windows(solver_calls["eigs"]) == [(k, 2 * k + 1)] * 2

    def test_window_without_population_modes_widens_once(
        self, solver_calls, monkeypatch
    ):
        bundle = driven_bundle()
        want = t1_rate_diag(bundle)
        solver_calls["splu"].clear()
        solver_calls["eigs"].clear()
        eigs = purcell_lab.spectral.spla.eigs
        population = coherence_sectors(bundle.space).sum(1) == 0
        dropped = []

        def first_forward_drops_population(a, **kwargs):
            w, v = eigs(a, **kwargs)
            if not is_adjoint(a) and not dropped:  # the first forward solve
                p = np.abs(v) ** 2
                drop = (np.abs(w) > 1e-6 * bundle.t1_rate_scale) & (
                    p[population].sum(0) >= SUPPORT_FRACTION * p.sum(0)
                )
                dropped.append(drop.sum())
                w, v = w[~drop], v[:, ~drop]
            return w, v

        monkeypatch.setattr(
            purcell_lab.spectral.spla, "eigs", first_forward_drops_population
        )
        got = t1_rate_diag(bundle)
        assert dropped[0] > 0
        assert len(solver_calls["splu"]) == 1
        assert self.windows(solver_calls["eigs"]) == [(6, 13)] * 2 + [(12, 25)] * 2
        assert got.gamma == pytest.approx(want.gamma, rel=1e-12)
        assert got.gamma_by_weight == pytest.approx(want.gamma_by_weight, rel=1e-12)
        assert got.agree == want.agree

    @pytest.mark.parametrize("dims,block", [((8, 6), 218), ((6, 5), None)])
    def test_blackbox_diag_factors_by_the_full_dimension(
        self, solver_calls, monkeypatch, dims, block
    ):
        # the limit is compared to the superoperator dimension, not the
        # block's: dim 2304 factors its 218-component population block once
        # for the forward and the adjoint solve, dim 900 factors nothing
        monkeypatch.setattr(purcell_lab.spectral, "_DENSE_LIMIT", DENSE_LIMIT)
        t1_rate_diag(blackbox(dims, nbar_c0=0.15))
        if block is None:
            assert solver_calls["splu"] == [] and solver_calls["eigs"] == []
        else:
            assert [lu.shape for lu in solver_calls["splu"]] == [(block, block)]
            (forward,), (adjoint,) = self.by_direction(solver_calls["eigs"])
            assert adjoint["sigma"] == np.conj(forward["sigma"])

    def test_precheck_window_stops_within_its_solve_budget(self, monkeypatch):
        # the driven (10,8) 10-photon point is the drive sweep's convergence
        # precheck search; on a 2k+1 basis stopped at ARPACK_TOL each 6-mode
        # window takes 22 OPinv solves, where scipy's 20-vector default run
        # to machine precision took 30 on the adjoint side
        eigs = purcell_lab.spectral.spla.eigs
        solves = {False: [], True: []}

        def counted_eigs(a, **kwargs):
            op, done = kwargs["OPinv"], solves[is_adjoint(a)]

            def solve(x):
                done.append(None)
                return op.matvec(x)

            kwargs["OPinv"] = scipy.sparse.linalg.LinearOperator(
                op.shape, solve, dtype=op.dtype
            )
            return eigs(a, **kwargs)

        monkeypatch.setattr(purcell_lab.spectral.spla, "eigs", counted_eigs)
        t1_rate_diag(drive_sweep_point(10.0, (10, 8)))
        budget = 2 * (2 * 6 + 1)
        assert 0 < len(solves[False]) <= budget
        assert 0 < len(solves[True]) <= budget

    def test_failed_factorization_moves_the_shift(self, solver_calls):
        solver_calls["fail"] = 1
        bundle = driven_bundle()
        sparse = spectrum(bundle, count=8)
        sig = purcell_lab.spectral.SPARSE_SHIFT * bundle.t1_rate_scale
        nudged = sig * (1 + 1e-3) + 1e-3j * abs(sig)
        first, second = solver_calls["splu"]
        shift = (first - second).diagonal()
        assert np.allclose(shift, nudged - sig, rtol=0, atol=1e-15)
        forward, adjoint = self.by_direction(solver_calls["eigs"])
        assert [kwargs["sigma"] for kwargs in forward + adjoint] == [
            nudged, np.conj(nudged)
        ]
        self.assert_matches_dense(sparse, bundle)

    def test_three_failures_raise(self, solver_calls):
        solver_calls["fail"] = 3
        with pytest.raises(RuntimeError, match="sparse eigensolver failed near shift"):
            spectrum(driven_bundle(), count=8)
        assert len(solver_calls["splu"]) == 3
        assert solver_calls["eigs"] == []

    def test_overlapped_and_serial_solves_give_the_same_bits(self, monkeypatch):
        # above the dense limit the adjoint solve runs on a helper thread;
        # with the limit raised past the dimension (an open generator never
        # goes dense) the two solves run in turn on the caller, on an LU of
        # the same bits, so every number of the point is bit-identical
        bundle = drive_sweep_point(10.0, (8, 6))
        eigs = purcell_lab.spectral.spla.eigs
        threads = []

        def spy(a, **kwargs):
            threads.append((is_adjoint(a), threading.get_ident()))
            return eigs(a, **kwargs)

        monkeypatch.setattr(purcell_lab.spectral.spla, "eigs", spy)
        results = {}
        for path, limit in (("overlapped", DENSE_LIMIT), ("serial", 2305)):
            monkeypatch.setattr(purcell_lab.spectral, "_DENSE_LIMIT", limit)
            threads.clear()
            results[path] = t1_rate_diag(bundle)
            ran_on = {adjoint: ident for adjoint, ident in threads}
            assert len(threads) == 2 and set(ran_on) == {False, True}
            assert ran_on[False] == threading.get_ident()
            assert (ran_on[True] == ran_on[False]) == (path == "serial")
        overlapped, serial = results["overlapped"], results["serial"]
        assert overlapped.gamma == serial.gamma
        assert overlapped.gamma_by_weight == serial.gamma_by_weight
        assert overlapped.agree == serial.agree
        for got, want in ((overlapped.mode, serial.mode),
                          (overlapped.mode_by_weight, serial.mode_by_weight)):
            assert got.lam == want.lam and got.weight == want.weight
            assert np.array_equal(got.right, want.right)
            assert np.array_equal(got.left, want.left)
        assert np.array_equal(overlapped.rho_ss, serial.rho_ss)

    def test_helper_failure_is_retried_at_the_nudged_shift(
        self, solver_calls, monkeypatch
    ):
        eigs = purcell_lab.spectral.spla.eigs
        raised_on = []

        def first_adjoint_fails(a, **kwargs):
            if is_adjoint(a) and not raised_on:
                raised_on.append(threading.get_ident())
                raise scipy.sparse.linalg.ArpackError(-9999)
            return eigs(a, **kwargs)

        monkeypatch.setattr(purcell_lab.spectral.spla, "eigs", first_adjoint_fails)
        bundle = driven_bundle()
        sparse = spectrum(bundle, count=8)
        (helper,) = raised_on
        assert helper != threading.get_ident()
        sig = purcell_lab.spectral.SPARSE_SHIFT * bundle.t1_rate_scale
        nudged = sig * (1 + 1e-3) + 1e-3j * abs(sig)
        assert len(solver_calls["splu"]) == 2
        forward, adjoint = self.by_direction(solver_calls["eigs"])
        assert [kwargs["sigma"] for kwargs in forward] == [sig, nudged]
        assert [kwargs["sigma"] for kwargs in adjoint] == [np.conj(nudged)]
        self.assert_matches_dense(sparse, bundle)

    def test_three_helper_failures_raise(self, solver_calls, monkeypatch):
        eigs = purcell_lab.spectral.spla.eigs

        def every_adjoint_fails(a, **kwargs):
            if is_adjoint(a):
                raise scipy.sparse.linalg.ArpackError(-9999)
            return eigs(a, **kwargs)

        monkeypatch.setattr(purcell_lab.spectral.spla, "eigs", every_adjoint_fails)
        with pytest.raises(
            RuntimeError, match="sparse eigensolver failed near shift.*-9999"
        ):
            spectrum(driven_bundle(), count=8)
        assert len(solver_calls["splu"]) == 3
        forward, adjoint = self.by_direction(solver_calls["eigs"])
        assert len(forward) == 3 and adjoint == []


class TestBlockLabels:
    def test_fock_projector_is_population_sector(self):
        space = TruncatedSpace((2, 2))
        bundle = blackbox((2, 2))
        proj = np.zeros((4, 4))
        proj[3, 3] = 1.0
        mode = SpectralMode(lam=0.0, right=vectorize(proj), left=vectorize(proj))
        labeled = block_labels(bundle, modes=[mode])
        assert (labeled[0].label.m_c, labeled[0].label.m_a) == (0, 0)
        assert labeled[0].label.kind == "T1"

    def test_qubit_coherence_sector(self):
        bundle = blackbox((2, 2))
        x = np.zeros((4, 4))
        x[1, 0] = 1.0  # |n_c=0, n_a=1><n_c=0, n_a=0|
        mode = SpectralMode(lam=0.0, right=vectorize(x), left=vectorize(x))
        labeled = block_labels(bundle, modes=[mode])
        assert (labeled[0].label.m_c, labeled[0].label.m_a) == (0, 1)
        assert labeled[0].label.kind == "T2"

    def test_mixed_label_when_no_dominant_sector(self):
        bundle = blackbox((2, 2))
        x = np.zeros((4, 4))
        x[3, 3] = 0.7  # population component
        x[1, 0] = 0.7  # comparable coherence component
        mode = SpectralMode(lam=0.0, right=vectorize(x), left=vectorize(x))
        labeled = block_labels(bundle, modes=[mode])
        assert labeled[0].label.kind == "mixed"
        assert labeled[0].label.m_c is None

    def test_slowest_population_mode_is_first_excited(self):
        # the qubit coherence (m_a = +-1) modes decay slower than the
        # population mode at these parameters, but they are orthogonal to
        # any population-sector initial state; within the m = 0 sector the
        # first excited mode carries the relaxation rate
        bundle = blackbox((5, 4), nbar_c0=0.1)
        modes = block_labels(bundle, modes=spectrum(bundle, count=8))
        t1 = [m for m in modes if m.label.kind == "T1"]
        assert t1[0].label.k == 0
        assert abs(t1[0].lam) < 1e-6 * bundle.frame.kappa_a_t
        assert t1[1].label.k == 1
        diag = t1_rate_diag(bundle)
        assert -t1[1].lam.real == pytest.approx(diag.gamma, rel=1e-9)


class TestT1RateDiag:
    def test_decoupled_qubit_rate_exact(self):
        bundle = blackbox((2, 6), toggles=ALL_OFF)
        res = t1_rate_diag(bundle)
        assert res.gamma == pytest.approx(bundle.frame.kappa_a_t, rel=1e-9)
        assert res.agree
        assert res.mode is res.mode_by_weight

    def test_thermal_point_matches_rate_formula(self):
        # correction slopes per unit thermal occupancy at these parameters
        # (cross-channel and conversion-channel contributions); residual
        # deviation is the higher-order dressing of the splitting
        bundle = blackbox((8, 6), nbar_c0=0.1)
        expected = 1e-4 + (4.040404040404041e-6 + 2.040608e-8) * 0.1
        res = t1_rate_diag(bundle)
        assert res.gamma == pytest.approx(expected, rel=2e-3)
        assert res.gamma > bundle.frame.kappa_a_t
        assert res.agree

    def test_jc_rate_near_closed_form(self):
        params = make_params(U=0.0, nbar_c0=0.05)
        res = t1_rate_diag(build_bare(params, TruncatedSpace((8, 2))))
        assert res.gamma == pytest.approx(1.1e-4, rel=5e-2)

    def test_weight_floor_error(self, monkeypatch):
        bundle = blackbox((2, 4), toggles=ALL_OFF)
        monkeypatch.setattr(purcell_lab.spectral, "WEIGHT_FLOOR", 2.0)
        with pytest.raises(RuntimeError, match="weight"):
            t1_rate_diag(bundle)

    @pytest.mark.parametrize(
        "dims,dense_limit",
        [((4, 3), None), ((4, 3), 0), ((8, 6), None), ("driven", 0), ("driven", None)],
    )
    def test_returns_the_steady_state(self, monkeypatch, dims, dense_limit):
        # dim 144 by a full dense eig; above the limit the zero mode of the
        # mode search: dims 144 and 2304 by block ARPACK.  The driven dim-256
        # generator is the zero mode of the full shift-invert window at
        # either limit.
        if dense_limit is not None:
            monkeypatch.setattr(purcell_lab.spectral, "_DENSE_LIMIT", dense_limit)
        if dims == "driven":
            bundle = driven_bundle()
        else:
            bundle = blackbox(dims, nbar_c0=0.12, kappa_a=0.001)
        rho = t1_rate_diag(bundle).rho_ss
        assert np.array_equal(rho, steady_state(bundle))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14

    @pytest.mark.parametrize("case", ["driven 10 photons", "blackbox nbar 0.15"])
    def test_steady_state_matches_shift_invert_reference(self, case):
        # both superoperators are dim 2304, above the dense limit
        if case.startswith("driven"):
            bundle = drive_sweep_point(10.0, (8, 6))
        else:
            bundle = blackbox((8, 6), nbar_c0=0.15)
        rho = t1_rate_diag(bundle).rho_ss
        assert np.max(np.abs(rho - shift_invert_steady_state(bundle))) <= 1e-10

    def test_no_zero_mode_in_the_window(self, monkeypatch):
        # a shift near i * |Delta| puts the window among the qubit coherences;
        # the error comes after the window has been widened twice
        eigs, windows = scipy.sparse.linalg.eigs, []

        def counted_eigs(a, **kwargs):
            windows.append((kwargs["k"], kwargs["ncv"], kwargs["tol"]))
            return eigs(a, **kwargs)

        monkeypatch.setattr(purcell_lab.spectral.spla, "eigs", counted_eigs)
        monkeypatch.setattr(purcell_lab.spectral, "_DENSE_LIMIT", 0)
        monkeypatch.setattr(purcell_lab.spectral, "SPARSE_SHIFT", 1e4j)
        with pytest.raises(RuntimeError, match="no zero mode in the window"):
            t1_rate_diag(driven_bundle())
        assert windows == [
            (k, 2 * k + 1, ARPACK_TOL) for k in (6, 6, 12, 12, 24, 24)
        ]


@st.composite
def small_generators(draw):
    """One of the four generator kinds at README-regime parameters, at
    cutoffs whose population block is large enough for block ARPACK."""
    kind = draw(st.sampled_from(["bare", "blackbox", "jc", "displaced"]))
    params = make_params(
        omega_a=draw(st.sampled_from([1.0, -1.0])),
        g=draw(st.floats(0.02, 0.15)),
        U=draw(st.floats(0.0, 0.1)),
        kappa_a=draw(st.floats(0.0, 0.002)),
        kappa_c=draw(st.floats(0.005, 0.02)),
        nbar_c0=draw(st.floats(0.0, 0.15)),
    )
    n_c = draw(st.integers(4, 5))
    if kind == "jc":  # the two-level comparison model
        return build_bare(replace(params, kappa_a=0.0), TruncatedSpace((n_c + 2, 2)))
    space = TruncatedSpace((n_c, 3))
    if kind == "bare":
        return build_bare(params, space)
    if kind == "blackbox":
        return build_blackbox(polariton_frame(params), params, space)
    cold = replace(params, nbar_c0=0.0)
    drive = DriveParams(draw(st.floats(0.005, 0.05)), draw(st.floats(-0.5, -0.1)))
    return build_displaced(displaced_frame(cold, drive), cold, space)


class TestSteadyStateFromModes:
    @settings(max_examples=20)
    @given(small_generators())
    # block dim 37: the window widens until k is capped below the dimension
    @example(
        build_bare(
            make_params(omega_a=-1.0, g=0.125, U=0.0625, kappa_c=0.015625),
            TruncatedSpace((5, 3)),
        )
    )
    def test_zero_mode_is_the_physical_steady_state(self, bundle):
        # the reference is the null vector of a full dense eig for every kind;
        # `steady_state` solves a driven generator by the shift-invert window
        w, v = np.linalg.eig(bundle.superop.data.toarray())
        dense = _zero_mode_state(bundle, w, v)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(purcell_lab.spectral, "_DENSE_LIMIT", 0)
            rho = steady_state(bundle)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(rho).min() >= PSD_FLOOR
        residual = np.linalg.norm(bundle.superop.data @ vectorize(rho))
        assert residual <= 1e-10 * max_abs(bundle.superop)
        assert np.max(np.abs(rho - dense)) <= 1e-9


def diag_on_both_paths(bundle):
    """`t1_rate_diag` at the dense limit and with every search sparse; a
    driven generator is searched sparse under either limit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a criteria disagreement is compared below
        dense = t1_rate_diag(bundle)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(purcell_lab.spectral, "_DENSE_LIMIT", 0)
            sparse = t1_rate_diag(bundle)
    return dense, sparse


def near_harmonic_driven_point():
    """A driven (4,3) point with U far below roundoff: its drive coefficient
    is nonzero, so the search runs on the full generator, where the qubit
    coherence modes of the near-harmonic ladder form near-degenerate
    clusters that cannot be biorthonormalized; none is a rate candidate."""
    params = make_params(omega_a=-1.0, g=0.02, U=1e-300, kappa_a=0.002, kappa_c=0.0124)
    frame = displaced_frame(params, DriveParams(0.005, -0.5))
    return build_displaced(frame, params, TruncatedSpace((4, 3)))


class TestPathIndependence:
    """The rate and `agree` do not depend on which eigensolver path ran, and
    the rate is the one the full dense spectrum gives."""

    @settings(max_examples=20)
    @given(small_generators())
    @example(near_harmonic_driven_point())
    def test_diag_matches_across_paths(self, bundle):
        dense, sparse = diag_on_both_paths(bundle)
        gamma, gamma_w = reference_diag(bundle)
        for res in (dense, sparse):
            assert res.gamma == pytest.approx(gamma, rel=1e-9)
            assert res.gamma_by_weight == pytest.approx(gamma_w, rel=1e-9)
        assert sparse.agree == dense.agree

    @pytest.mark.parametrize("photons", [2.0, 10.0])
    @pytest.mark.parametrize("dims", [(4, 4), (5, 5), (6, 5)])
    def test_driven_drive_sweep_points(self, dims, photons):
        # every driven search is the shift-invert window, so the reference is
        # the full dense spectrum.  The driven steady state carries
        # coherences, so the qubit coherence modes (Im lambda ~ +-1.1,
        # decaying at Gamma_1 / 2) take some of the injected weight there,
        # and only population modes may be picked.
        bundle = drive_sweep_point(photons, dims)
        res = t1_rate_diag(bundle)
        gamma, gamma_w = reference_diag(bundle)
        assert res.gamma == pytest.approx(gamma, rel=1e-9)
        assert res.gamma_by_weight == pytest.approx(gamma_w, rel=1e-9)
        assert res.agree

    def test_driven_fit_matches_diag(self):
        bundle = drive_sweep_point(10.0, (5, 5))
        diag = t1_rate_diag(bundle)
        fit = t1_rate_fit(bundle, diag.rho_ss)
        assert fit.gamma == pytest.approx(diag.gamma, rel=1e-2)


class TestArpackTolerance:
    """Shift-invert windows on a 2k+1 basis stopped at ``ARPACK_TOL`` pick
    the modes, rates and ``agree`` that scipy's default basis, run to
    machine precision, picks."""

    @staticmethod
    def assert_sized_matches_machine_precision(bundle):
        eigs = scipy.sparse.linalg.eigs

        def machine_precision(a, ncv, tol, **kwargs):
            return eigs(a, **kwargs)

        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("ignore")  # a criteria disagreement is compared
            mp.setattr(purcell_lab.spectral, "_DENSE_LIMIT", 0)
            sized = t1_rate_diag(bundle)
            mp.setattr(purcell_lab.spectral.spla, "eigs", machine_precision)
            full = t1_rate_diag(bundle)
        assert sized.gamma == pytest.approx(full.gamma, rel=1e-12)
        assert sized.gamma_by_weight == pytest.approx(full.gamma_by_weight, rel=1e-12)
        assert sized.agree == full.agree
        for got, want in ((sized.mode, full.mode),
                          (sized.mode_by_weight, full.mode_by_weight)):
            assert abs(got.lam - want.lam) <= 1e-12 * abs(want.lam)

    @settings(max_examples=20)
    @given(small_generators())
    def test_small_generators(self, bundle):
        self.assert_sized_matches_machine_precision(bundle)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: drive_sweep_point(2.0, (8, 6)),
            lambda: drive_sweep_point(10.0, (8, 6)),
            # the thermal sweep's model; its population block is searched
            lambda: blackbox((10, 8), nbar_c0=0.15),
        ],
        ids=["driven (8,6) 2 photons", "driven (8,6) 10 photons",
             "thermal (10,8) nbar 0.15"],
    )
    def test_sweep_points(self, build):
        self.assert_sized_matches_machine_precision(build())


def reference_diag(bundle, rho_ss=None):
    """t1_rate_diag's two selection rules applied to the population modes
    (at least ``SUPPORT_FRACTION`` of their weight in M = 0) of the full
    dense spectrum, injecting on ``rho_ss`` (default: that spectrum's zero
    mode)."""
    modes = spectrum(bundle)  # the full generator, under the dense limit
    if rho_ss is None:
        rho_ss = unvectorize(min(modes, key=lambda m: abs(m.lam)).right, bundle.space)
        rho_ss = 0.5 * (rho_ss + rho_ss.conj().T)
        rho_ss = rho_ss / np.trace(rho_ss)
    _, a_raise, _ = ladder_operators(bundle.space, 1)
    rho0 = a_raise @ rho_ss @ a_raise.conj().T
    v0 = vectorize(rho0 / np.trace(rho0).real)
    scale = bundle.t1_rate_scale
    population = coherence_sectors(bundle.space).sum(1) == 0
    excited = [
        (m.lam, abs(np.vdot(m.left, v0)))
        for m in modes
        if abs(m.lam) > 1e-6 * scale
        and np.sum(np.abs(m.right[population]) ** 2)
        >= SUPPORT_FRACTION * np.sum(np.abs(m.right) ** 2)
    ]
    slowest = min(
        (e for e in excited if e[1] > purcell_lab.spectral.WEIGHT_FLOOR),
        key=lambda e: abs(e[0].real),
    )
    heaviest = max(excited, key=lambda e: e[1])
    return -slowest[0].real, -heaviest[0].real


def sector_bundles():
    params = make_params(kappa_a=0.001, nbar_c0=0.1)
    space = TruncatedSpace((4, 3))
    return {
        "bare": build_bare(params, space),
        "blackbox+": blackbox((4, 3), kappa_a=0.001, nbar_c0=0.1),
        "blackbox-": blackbox((4, 3), omega_a=-1.0, kappa_a=0.001, nbar_c0=0.1),
        "jc": build_bare(make_params(U=0.0, nbar_c0=0.05), TruncatedSpace((6, 2))),
    }


class TestPopulationSector:
    @pytest.mark.parametrize("dense_limit", [None, 0])
    @pytest.mark.parametrize("name", ["bare", "blackbox+", "blackbox-", "jc"])
    def test_diag_matches_full_space_reference(self, monkeypatch, name, dense_limit):
        bundle = sector_bundles()[name]
        rho_ss = steady_state(bundle)
        gamma, gamma_w = reference_diag(bundle, rho_ss)
        monkeypatch.setattr(purcell_lab.spectral, "steady_state", lambda b: rho_ss)
        if dense_limit is not None:  # the block goes through ARPACK
            monkeypatch.setattr(purcell_lab.spectral, "_DENSE_LIMIT", dense_limit)
        res = t1_rate_diag(bundle)
        assert res.gamma == pytest.approx(gamma, rel=1e-9)
        assert res.gamma_by_weight == pytest.approx(gamma_w, rel=1e-9)

    @pytest.mark.parametrize("name", ["bare", "blackbox+", "blackbox-", "jc"])
    def test_returned_modes_are_full_length(self, name):
        bundle = sector_bundles()[name]
        lop = bundle.superop.data
        res = t1_rate_diag(bundle)
        for mode in (res.mode, res.mode_by_weight):
            assert mode.right.shape == mode.left.shape == (lop.shape[0],)
            r = mode.right
            resid = np.linalg.norm(lop @ r - mode.lam * r)
            assert resid <= 1e-8 * max_abs(bundle.superop) * np.linalg.norm(r)

    def test_builders_give_the_population_indices(self):
        for name, bundle in sector_bundles().items():
            want = np.flatnonzero(coherence_sectors(bundle.space).sum(1) == 0)
            assert np.array_equal(_t1_modes(bundle)[3], want), name

    def test_driven_displaced_block_is_open(self):
        params = make_params(U=0.1)
        space = TruncatedSpace((4, 4))
        driven = displaced_frame(params, DriveParams(0.05, -0.1))
        assert _t1_modes(build_displaced(driven, params, space))[3] is None
        undriven = displaced_frame(params, DriveParams(0.0, -0.1))
        assert _t1_modes(build_displaced(undriven, params, space))[3] is not None

    def test_diag_diagonalizes_only_the_block(self, monkeypatch):
        # the mode search decomposes the 110-component population block; the
        # one full-dimension eig is the steady state of the dim-900 generator
        bundle = blackbox((6, 5), nbar_c0=0.05)
        sizes = {"search": [], "steady": []}

        def spy(eig, key):
            def wrapped(a):
                sizes[key].append(a.shape[0])
                return eig(a)
            return wrapped

        monkeypatch.setattr(np.linalg, "eig", spy(np.linalg.eig, "steady"))
        monkeypatch.setattr(scipy.linalg, "eig", spy(scipy.linalg.eig, "search"))
        t1_rate_diag(bundle)
        assert sizes == {"search": [110], "steady": [900]}


def bits(result):
    """A rate result with every array as its bytes and every number as its
    exact repr."""
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if dataclasses.is_dataclass(result):
        result = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    if isinstance(result, dict):
        return {key: bits(value) for key, value in result.items()}
    return repr(result)


class TestLazyAssembly:
    @pytest.mark.parametrize("dims", [(6, 5), (8, 6)])
    def test_diag_is_bitwise_equal_with_the_superop_forced(self, dims):
        # the block comes from the block layout either way, and every
        # tolerance from the block, so an assembled generator changes nothing
        lazy, forced = (blackbox(dims, kappa_a=0.001, nbar_c0=0.05) for _ in range(2))
        forced.superop
        got = _with_one_blas_thread(t1_rate_diag, lazy)
        assert bits(got) == bits(_with_one_blas_thread(t1_rate_diag, forced))
        assert (lazy._superop is not None) == (dims == (6, 5))  # dense steady state

    def test_rate_report_is_bitwise_equal_with_the_superop_forced(self):
        # the crosscheck benchmark's point
        lazy, forced = (blackbox((6, 5), nbar_c0=0.05) for _ in range(2))
        forced.superop
        got = _with_one_blas_thread(rate_report, lazy)
        assert bits(got) == bits(_with_one_blas_thread(rate_report, forced))


class TestSpectrumOrder:
    def test_equal_decay_conjugate_pair_puts_positive_imaginary_first(self):
        lams = np.array([
            -1e-3,
            -2e-3 - 0.7j, -2e-3 * (1 + 1e-14) + 0.7j,  # a roundoff tie: swapped
            -3e-3 - 0.5j, -3e-3 * (1 + 1e-9) + 0.5j,  # distinct decay: kept
            -4e-3 - 0.2j, -4e-3 + 0.3j,  # not a conjugate pair: kept
        ])
        slowest = purcell_lab.spectral._slowest
        assert slowest(lams, None, False).tolist() == [0, 1, 2, 3, 4, 5, 6]
        assert slowest(lams, None, True).tolist() == [0, 2, 1, 3, 4, 5, 6]
        # the pair is ordered before the cut
        assert slowest(lams, 2, True).tolist() == [0, 2]

    def test_config_spectrum_prints_each_pair_positive_first(self):
        config = config_from_dict(
            json.loads((CONFIGS / "thermal_sweep_intrinsic.json").read_text())
        )
        bundle = _build_point(config, config.grid[-1], config.truncation)[0]
        lams = np.array([m.lam for m in spectrum(bundle, count=10)])
        default = purcell_lab.spectral._eigenmodes(bundle, bundle.superop.data, False, 10)[0]
        # the same eigenvalues, bit for bit; only tied pairs move
        assert sorted(lams.tobytes()[i:i + 16] for i in range(0, 160, 16)) == sorted(
            default.tobytes()[i:i + 16] for i in range(0, 160, 16)
        )
        pairs = np.flatnonzero(np.abs(lams[1:] - np.conj(lams[:-1])) < 1e-12)
        assert len(pairs) == 2
        assert np.all(lams[pairs].imag > 0)


class TestCutoffConstants:
    @pytest.mark.parametrize("kind", ["blackbox", "displaced"])
    def test_rates_are_bitwise_equal_on_cold_and_warm_constants(self, monkeypatch, kind):
        # the qubit operators and the population mask come from a per-space
        # dict; the first call of a space builds them, later calls reuse them
        if kind == "blackbox":
            bundle = blackbox((4, 3), kappa_a=0.001, nbar_c0=0.1)
        else:
            params = make_params(U=0.1)
            driven = displaced_frame(params, DriveParams(0.05, -0.1))
            bundle = build_displaced(driven, params, TruncatedSpace((4, 3)))
        monkeypatch.setattr(purcell_lab.spectral, "_T1_CONSTANTS", {})
        runs = []
        for _ in range(2):
            diag = t1_rate_diag(bundle)
            fit = t1_rate_fit(bundle, diag.rho_ss)
            runs.append((diag, fit))
            assert list(purcell_lab.spectral._T1_CONSTANTS) == [bundle.space]
        (cold_diag, cold_fit), (warm_diag, warm_fit) = runs
        for got, want in (
            (warm_diag.rho_ss, cold_diag.rho_ss),
            (warm_diag.mode.right, cold_diag.mode.right),
            (warm_diag.mode.left, cold_diag.mode.left),
        ):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert (warm_diag.gamma, warm_diag.gamma_by_weight) == (
            cold_diag.gamma, cold_diag.gamma_by_weight
        )
        assert warm_fit == cold_fit

    def test_fit_reads_the_cached_number_operator(self, monkeypatch):
        bundle = blackbox((4, 3), kappa_a=0.001, nbar_c0=0.1)
        rho_ss = t1_rate_diag(bundle).rho_ss

        def no_ladder(space, mode):
            raise AssertionError("qubit operators built again")

        monkeypatch.setattr(purcell_lab.spectral, "ladder_operators", no_ladder)
        fit = t1_rate_fit(bundle, rho_ss)
        number = purcell_lab.spectral._t1_constants(bundle.space)[2]
        assert np.array_equal(number, ladder_operators(bundle.space, 1)[2].toarray())
        assert fit.gamma > 0


class TestEvolve:
    def test_single_mode_decay(self):
        space = TruncatedSpace((2, 3))
        a, _, n_op = ladder_operators(space, 1)
        h = a @ a.conj().T * 0.0
        kappa = 0.37
        superop = lindblad_superoperator(space, h, [(kappa, a)])
        bundle = manual_bundle(superop)
        rho0 = np.zeros((6, 6), dtype=complex)
        rho0[1, 1] = 1.0  # |n_c=0, n_a=1>
        times = np.array([0.0, 0.3 / kappa, 1.0 / kappa])
        traj = evolve(bundle, rho0, times)
        for t, rho in zip(times, traj):
            n_val = np.trace(n_op.toarray() @ rho).real
            assert n_val == pytest.approx(np.exp(-kappa * t), abs=1e-10)

    def test_unitary_number_conservation(self):
        space = TruncatedSpace((2, 2))
        omega = 0.9
        _, _, n_op = ladder_operators(space, 1)
        superop = lindblad_superoperator(space, n_op * omega, [])
        bundle = manual_bundle(superop)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = rho0[1, 1] = 0.5
        rho0[0, 1] = rho0[1, 0] = 0.5
        times = np.array([0.0, 1.7, 5.3])
        traj = evolve(bundle, rho0, times)
        for t, rho in zip(times, traj):
            assert rho[0, 0].real == pytest.approx(0.5, abs=1e-12)
            assert rho[1, 1].real == pytest.approx(0.5, abs=1e-12)
            assert rho[0, 1] == pytest.approx(0.5 * np.exp(1j * omega * t), abs=1e-10)

    def test_trace_drift_raises(self):
        space = TruncatedSpace((2, 2))
        grower = Superoperator(space, sp.identity(16, format="csr") * 0.1)
        bundle = manual_bundle(grower)
        rho0 = np.eye(4, dtype=complex) / 4.0
        with pytest.raises(RuntimeError, match="trace drift"):
            evolve(bundle, rho0, np.array([0.0, 1.0]))

    def test_times_validation(self):
        bundle = blackbox((2, 2))
        rho0 = np.eye(4, dtype=complex) / 4.0
        with pytest.raises(ValueError):
            evolve(bundle, rho0, np.array([0.0, -1.0]))
        with pytest.raises(ValueError):
            evolve(bundle, rho0, np.array([1.0, 0.5]))

    def test_spectral_resolution_matches_evolve(self):
        bundle = blackbox((6, 5), nbar_c0=0.1)
        rho_ss = steady_state(bundle)
        a_raise = ladder_operators(bundle.space, 1)[1].toarray()
        rho0 = a_raise @ rho_ss @ a_raise.conj().T
        rho0 /= np.trace(rho0).real
        modes = spectrum(bundle)
        v0 = vectorize(rho0)
        kappa = bundle.frame.kappa_a_t
        times = np.array([0.0, 0.3 / kappa, 1.0 / kappa, 3.0 / kappa])
        traj = evolve(bundle, rho0, times)
        for i, t in enumerate(times):
            acc = np.zeros_like(v0)
            for m in modes:
                acc += np.vdot(m.left, v0) * np.exp(m.lam * t) * m.right
            assert np.max(np.abs(acc - vectorize(traj[i]))) < 1e-8


class TestT1RateFit:
    def test_synthetic_exact_recovery(self):
        gamma, amp, ss = 2.5e-4, 0.3, 0.07
        times = np.linspace(0.0, 4e4, 200)
        values = amp * np.exp(-gamma * times) + ss
        res = fit_exponential_tail(times, values, ss)
        assert res.gamma == pytest.approx(gamma, rel=1e-9)
        assert res.amplitude == pytest.approx(amp, rel=1e-6)
        assert res.residual < 1e-9

    def test_fit_matches_diag(self):
        bundle = blackbox((6, 5), nbar_c0=0.1)
        rho_ss = steady_state(bundle)
        fit = t1_rate_fit(bundle, rho_ss)
        diag = t1_rate_diag(bundle)
        assert fit.gamma == pytest.approx(diag.gamma, rel=1e-2)
        assert fit.residual < 1e-3

    def test_biased_window_flagged(self):
        kappa = 1e-4
        times = np.linspace(0.0, 0.3 / kappa, 300)
        values = np.exp(-kappa * times) + 0.5 * np.exp(-20 * kappa * times)
        biased = fit_exponential_tail(times, values, 0.0, window=(0.0, 1.0))
        assert biased.residual > 1e-2
        clean = fit_exponential_tail(times, values, 0.0, window=(0.95, 1.0))
        assert clean.residual < 1e-3
        assert clean.gamma == pytest.approx(kappa, rel=5e-2)

    def test_floor_error(self):
        times = np.linspace(0.0, 10.0, 50)
        with pytest.raises(RuntimeError, match="floor"):
            fit_exponential_tail(times, np.full(50, 0.2), 0.2)

    def test_sign_crossing_error(self):
        times = np.linspace(0.0, 10.0, 50)
        values = np.linspace(-0.2, 0.2, 50)
        with pytest.raises(RuntimeError, match="crosses"):
            fit_exponential_tail(times, values, 0.0, window=(0.0, 1.0))


class TestClassicalTwoMode:
    def test_energy_decay_expansion(self):
        # energy decay rate of the qubit-like branch expands as
        # kappa_a + 4 r gamma / dw + (r^2 - gamma^2)(kappa_c - kappa_a)/dw^2
        wc, wa, kc, ka, r, gam = 0.0, 1.0, 1e-2, 1e-4, 1e-3, 1e-5
        _, qubit_like = coupled_mode_complex_frequencies(wc, wa, kc, ka, r, gam)
        exact = -2.0 * qubit_like.imag
        dw = wa - wc
        expansion = ka + 4 * r * gam / dw + (r**2 - gam**2) * (kc - ka) / dw**2
        assert exact == pytest.approx(expansion, rel=1e-6)
        # amplitude convention carries half of each correction
        amp_rate = -qubit_like.imag
        assert amp_rate == pytest.approx(0.5 * expansion, rel=1e-6)

    def test_purely_coherent_coupling_gives_filter_rate(self):
        _, qubit_like = coupled_mode_complex_frequencies(
            0.0, 1.0, 0.01, 0.0, 0.1, 0.0
        )
        exact = -2.0 * qubit_like.imag
        assert exact == pytest.approx(1e-4, rel=3e-2)


class TestInvariants:
    def test_m0_sector_insensitive_to_self_kerr(self):
        space = TruncatedSpace((2, 10))
        sectors = coherence_sectors(space)
        idx = np.flatnonzero((sectors[:, 0] == 0) & (sectors[:, 1] == 0))
        spectra = []
        for u in (0.01, 0.03):
            bundle = blackbox((2, 10), toggles=ALL_OFF, U=u, nbar_c0=0.06)
            sub = bundle.superop.data.toarray()[np.ix_(idx, idx)]
            spectra.append(np.sort_complex(np.linalg.eigvals(sub)))
        assert np.allclose(spectra[0], spectra[1], atol=1e-10)

    def test_weight_completeness(self):
        rng = np.random.default_rng(11)
        bundle = blackbox((4, 3), nbar_c0=0.1)
        n = bundle.space.total_dim
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho0 = m @ m.conj().T
        rho0 /= np.trace(rho0)
        v0 = vectorize(rho0)
        modes = spectrum(bundle)
        acc = np.zeros_like(v0)
        for mode in modes:
            acc += np.vdot(mode.left, v0) * mode.right
        assert np.max(np.abs(acc - v0)) < 1e-8

    def test_basis_equivalence_rates(self):
        # intrinsic qubit loss keeps the dressed-splitting corrections
        # subleading; the bound does not hold at kappa_a = 0
        params = make_params(g=0.05, kappa_a=0.001)
        space = TruncatedSpace((4, 4))
        g_bare = t1_rate_diag(build_bare(params, space)).gamma
        g_bb = t1_rate_diag(
            build_blackbox(polariton_frame(params), params, space)
        ).gamma
        assert abs(g_bare - g_bb) / g_bb <= 10 * 0.05**3
