"""Tests for the closed-form catalog, perturbation engine, and rate formulas."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from purcell_lab.fockspace import (
    Superoperator,
    TruncatedSpace,
    ladder_operators,
    vectorize,
)
from purcell_lab.liouvillian import (
    blackbox_perturbation_parts,
    build_bare,
    build_blackbox,
)
from purcell_lab.model import DriveParams, SystemParams, displaced_frame, polariton_frame
from purcell_lab.perturbation import (
    DiagnosticsReport,
    RateReport,
    UnperturbedModeSet,
    _coherence_left,
    _coherence_right,
    _edge_mask,
    _population_left,
    _population_right,
    _single_mode_factor,
    decoupled_block,
    diagnostics,
    gamma_coherent_analytic,
    gamma_jc_analytic,
    gamma_thermal_analytic,
    gamma_thermal_pt,
    pt_corrections,
    rate_report,
    unperturbed_modes,
)
from purcell_lab.spectral import (
    ModeLabel,
    SpectralMode,
    steady_state,
    t1_rate_diag,
    t1_rate_fit,
)
from reference import lindblad_superoperator

T1_LABEL = ModeLabel(m_c=0, m_a=0, k=1, kind="T1")


def make_params(**over):
    base = dict(omega_a=1.0, omega_c=0.0, g=0.1, U=0.01, kappa_a=0.0, kappa_c=0.01)
    base.update(over)
    return SystemParams(**base)


def thermal_frame(**over):
    params = make_params(**over)
    return params, polariton_frame(params)


def masked_residuals(block, lam, right, left, dim):
    mask = _edge_mask(dim)
    rv, lv = vectorize(right), vectorize(left)
    res_r = np.linalg.norm(((block @ rv) - lam * rv)[mask]) / np.linalg.norm(rv)
    res_l = np.linalg.norm(
        ((block.conj().T @ lv) - np.conj(lam) * lv)[mask]
    ) / np.linalg.norm(lv)
    return res_r, res_l


class TestClosedFormFamilies:
    def test_k1_population_mode_matches_reference_form(self):
        dim, nbar = 10, 0.07
        q = nbar / (1.0 + nbar)
        n = np.arange(dim, dtype=float)
        # reference single-excitation relaxation mode, lowest nontrivial rank
        ref_right = -(n - nbar) / (1.0 + nbar) * q ** (n - 1)
        ref_left = (-n + nbar) / (1.0 + nbar) ** 2
        mine_r = _population_right(1, dim, nbar)
        mine_l = _population_left(1, dim, nbar)
        assert np.allclose(mine_r, ref_right * (mine_r[0] / ref_right[0]), atol=1e-15)
        assert np.allclose(mine_l, ref_left * (mine_l[0] / ref_left[0]), atol=1e-12)

    def test_k0_population_mode_is_thermal_state(self):
        dim, nbar = 8, 0.12
        q = nbar / (1.0 + nbar)
        right = _population_right(0, dim, nbar)
        assert np.allclose(right, q ** np.arange(dim) / (1.0 + nbar))
        assert np.allclose(_population_left(0, dim, nbar), np.ones(dim))

    @pytest.mark.parametrize("nbar", [0.05, 0.15])
    def test_population_modes_solve_decoupled_block(self, nbar):
        dim, kappa = 12, 3e-4
        block = decoupled_block(dim, 0.7, -0.05, kappa, nbar)
        scale = np.abs(np.diag(block)).max()
        for k in range(4):
            lam, right, left = _single_mode_factor(0, k, dim, 0.7, -0.05, kappa, nbar)
            assert lam == -k * kappa
            res_r, res_l = masked_residuals(block, lam, right, left, dim)
            assert res_r <= 1e-8 * scale
            assert res_l <= 1e-8 * scale

    @pytest.mark.parametrize("nbar", [0.05, 0.15])
    @pytest.mark.parametrize("m", [1, -1])
    def test_harmonic_coherence_modes_solve_decoupled_block(self, nbar, m):
        dim, omega, kappa = 12, 0.99, 9.9e-3
        block = decoupled_block(dim, omega, 0.0, kappa, nbar)
        scale = np.abs(np.diag(block)).max()
        lam, right, left = _single_mode_factor(m, 0, dim, omega, 0.0, kappa, nbar)
        assert lam == -1j * m * omega - 0.5 * kappa
        res_r, res_l = masked_residuals(block, lam, right, left, dim)
        assert res_r <= 1e-8 * scale
        assert res_l <= 1e-8 * scale

    @pytest.mark.parametrize("nbar", [0.05, 0.15])
    def test_anharmonic_coherence_modes_perturbative_residual(self, nbar):
        # Vectors are zeroth order in the linewidth, so their residual is
        # O(kappa); at kappa = 1e-9 they solve the block to well below 1e-8.
        dim, omega, u, kappa = 12, 1.01, 0.1, 1e-9
        block = decoupled_block(dim, omega, -u / 2, kappa, nbar)
        for k in range(4):
            lam, right, left = _single_mode_factor(1, k, dim, omega, -u / 2, kappa, nbar)
            expect = -1j * (omega - u * k) - 0.5 * kappa * (
                nbar * (2 * k + 3) + (1.0 + nbar) * (2 * k + 1)
            )
            assert lam == pytest.approx(expect, abs=0)
            res_r, res_l = masked_residuals(block, lam, right, left, dim)
            assert max(res_r, res_l) <= 2e-8

    def test_anharmonic_eigenvalues_match_brute_force(self):
        # At kappa = 3e-6 the closed-form eigenvalues still track the exact
        # block spectrum far below the linewidth scale.
        dim, omega, u, kappa, nbar = 12, 1.01, 0.1, 3e-6, 0.05
        block = decoupled_block(dim, omega, -u / 2, kappa, nbar)
        evals = np.linalg.eigvals(block)
        for k in range(4):
            lam, _, _ = _single_mode_factor(1, k, dim, omega, -u / 2, kappa, nbar)
            assert np.min(np.abs(evals - lam)) <= 1e-9

    @pytest.mark.parametrize("kerr", [0.0, -0.05])
    @pytest.mark.parametrize(
        "kappa, nbar", [(3e-3, 0.0), (3e-3, 0.12), (0.0, 0.0), (0.0, 0.1)]
    )
    def test_decoupled_block_matches_independent_build(self, kerr, kappa, nbar):
        dim, omega = 7, 0.9
        space = TruncatedSpace((dim,))
        a, ad, n = ladder_operators(space, 0)
        h = omega * n + kerr * (ad @ ad @ a @ a)
        channels = [(kappa * (1.0 + nbar), a), (kappa * nbar, ad)]
        want = lindblad_superoperator(space, h, channels).data.toarray()
        got = decoupled_block(dim, omega, kerr, kappa, nbar)
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_coherence_coefficient_shapes(self):
        assert _coherence_right(6, 0.0)[1:] == pytest.approx(np.zeros(4))
        assert _coherence_left(6) == pytest.approx(np.sqrt(np.arange(1.0, 6.0)))


class TestUnperturbedModes:
    def test_steady_and_coherence_eigenvalues(self):
        params, frame = thermal_frame(nbar_c0=0.05)
        mset = unperturbed_modes(frame, (8, 6), [(0, 0, 0), (0, 1, 0), (-1, 0, 0)])
        lam = {(m.label.m_c, m.label.m_a, m.label.k): m.lam for m in mset.modes}
        assert lam[(0, 0, 0)] == 0.0
        expect_qubit = -1j * frame.omega_a_t - 0.5 * frame.kappa_a_t * (
            3 * frame.n_a_t + (1 + frame.n_a_t)
        )
        assert lam[(0, 1, 0)] == pytest.approx(expect_qubit, abs=0)
        expect_cavity = 1j * frame.omega_c_t - 0.5 * frame.kappa_c_t
        assert lam[(-1, 0, 0)] == pytest.approx(expect_cavity, abs=0)

    def test_biorthonormal_at_cutoff_12(self):
        _, frame = thermal_frame(nbar_c0=0.01)
        mset = unperturbed_modes(frame, (2, 12), [(0, 0, k) for k in range(5)])
        for i, a in enumerate(mset.modes):
            for j, b in enumerate(mset.modes):
                ip = np.vdot(a.left, b.right)
                expect = 1.0 if i == j else 0.0
                assert abs(ip - expect) <= 1e-10

    def test_left_vectors_unit_norm(self):
        _, frame = thermal_frame(nbar_c0=0.05)
        mset = unperturbed_modes(frame, (6, 5), [(0, 0, 1), (1, -1, 2)])
        for mode in mset.modes:
            assert np.linalg.norm(mode.left) == pytest.approx(1.0, rel=1e-12)
            assert np.vdot(mode.left, mode.right) == pytest.approx(1.0, rel=1e-12)

    def test_sector_validation(self):
        _, frame = thermal_frame()
        space = TruncatedSpace((6, 4))
        with pytest.raises(ValueError, match="outside the qubit truncation"):
            unperturbed_modes(frame, space, [(0, 0, 4)])
        with pytest.raises(ValueError, match="outside the qubit truncation"):
            unperturbed_modes(frame, space, [(0, 1, 3)])
        with pytest.raises(ValueError, match="no closed form"):
            unperturbed_modes(frame, space, [(2, 0, 0)])
        with pytest.raises(ValueError, match="nonnegative"):
            unperturbed_modes(frame, space, [(0, 0, -1)])
        with pytest.raises(ValueError, match="two-mode"):
            unperturbed_modes(frame, TruncatedSpace((6,)), [(0, 0, 0)])

    def test_anharmonicity_guard_for_coherence_sectors(self):
        _, frame = thermal_frame(kappa_a=0.001)  # kappa_a_t = 1.09e-3 > U/10
        with pytest.raises(ValueError, match="perturbative in the linewidth"):
            unperturbed_modes(frame, (6, 4), [(0, 1, 0)])
        # population sectors are unaffected by the guard
        unperturbed_modes(frame, (6, 4), [(0, 0, 1)])

    def test_find_missing_label(self):
        _, frame = thermal_frame()
        mset = unperturbed_modes(frame, (6, 4), [(0, 0, 1)])
        with pytest.raises(ValueError, match="no cataloged mode"):
            mset.find(ModeLabel(m_c=-1, m_a=1, k=0, kind="T2"))


class TestPtCorrections:
    @staticmethod
    def engine_inputs(nbar=0.05, **over):
        params, frame = thermal_frame(nbar_c0=nbar, **over)
        space = TruncatedSpace((8, 6))
        sectors = [(0, 0, 1)]
        for mc, ma in ((-1, 1), (1, -1)):
            sectors += [(mc, ma, k) for k in range(5)]
        modes = unperturbed_modes(frame, space, sectors)
        parts = blackbox_perturbation_parts(frame, space)
        return frame, space, modes, parts

    def test_cross_kerr_gives_no_correction(self):
        _, _, modes, parts = self.engine_inputs()
        res = pt_corrections(modes, parts["crs"], T1_LABEL)
        assert abs(res.lambda1) <= 1e-12
        assert abs(res.lambda2) <= 1e-12

    def test_first_order_absent_for_all_terms(self):
        _, _, modes, parts = self.engine_inputs()
        for name in ("nc", "cd"):
            res = pt_corrections(modes, parts[name], T1_LABEL)
            assert abs(res.lambda1) <= 1e-12

    def test_degenerate_target_rejected(self):
        _, frame = thermal_frame()
        space = TruncatedSpace((4, 3))
        base = unperturbed_modes(frame, space, [(0, 0, 1)]).modes[0]
        twin = SpectralMode(
            lam=base.lam,
            right=base.right.copy(),
            left=base.left.copy(),
            label=ModeLabel(m_c=0, m_a=0, k=2, kind="T1"),
        )
        mset = UnperturbedModeSet(
            space=space, frame=frame, modes=(base, twin), scale=1.0
        )
        parts = blackbox_perturbation_parts(frame, space)
        with pytest.raises(ValueError, match="degenerate"):
            pt_corrections(mset, parts["nc"], T1_LABEL)

    def test_space_mismatch_rejected(self):
        _, frame = thermal_frame()
        modes = unperturbed_modes(frame, (6, 4), [(0, 0, 1)])
        parts = blackbox_perturbation_parts(frame, TruncatedSpace((8, 6)))
        with pytest.raises(ValueError, match="different spaces"):
            pt_corrections(modes, parts["nc"], T1_LABEL)

    def test_coverage_warning_when_sectors_undersupplied(self):
        frame, space, _, parts = self.engine_inputs()
        small = unperturbed_modes(frame, space, [(0, 0, 1), (-1, 1, 0), (1, -1, 0)])
        with pytest.warns(UserWarning, match="outside the supplied mode set"):
            pt_corrections(small, parts["nc"], T1_LABEL)

    def test_zero_perturbation_short_circuits(self):
        frame, space, modes, _ = self.engine_inputs()
        n2 = space.total_dim**2
        zero = Superoperator(space, sp.csr_matrix((n2, n2), dtype=complex))
        res = pt_corrections(modes, zero, T1_LABEL)
        assert res.lambda1 == 0.0 and res.lambda2 == 0.0 and res.channels == {}


class TestThermalEngine:
    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    @pytest.mark.parametrize("nbar,u", [(0.02, 0.01), (0.05, 0.01), (0.05, 0.02)])
    def test_channel_sum_matches_formula_within_5pct(self, sign, nbar, u):
        params, frame = thermal_frame(omega_a=sign, U=u, nbar_c0=nbar)
        engine = gamma_thermal_pt(frame, TruncatedSpace((8, 6)))
        formula = gamma_thermal_analytic(frame)
        got = engine.nc_nc + engine.nc_cd
        want = formula.nc_nc + formula.nc_cd
        assert abs(got - want) <= 0.05 * abs(want)

    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    def test_dissipation_cross_channel_within_5pct(self, sign):
        params, frame = thermal_frame(omega_a=sign, nbar_c0=0.05)
        engine = gamma_thermal_pt(frame, TruncatedSpace((8, 6)))
        formula = gamma_thermal_analytic(frame)
        assert abs(engine.nc_cd - formula.nc_cd) <= 0.05 * abs(formula.nc_cd)

    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    def test_population_channel_exceeds_leading_order_at_005(self, sign):
        # The closed-form population channel is the leading order in the
        # dressed occupancies; the full second-order sum exceeds it by an
        # O(occupancy) fraction.  Characterized, not hidden.
        params, frame = thermal_frame(omega_a=sign, nbar_c0=0.05)
        engine = gamma_thermal_pt(frame, TruncatedSpace((8, 6)))
        formula = gamma_thermal_analytic(frame)
        rel = engine.nc_nc / formula.nc_nc - 1.0
        assert 0.05 < rel < 0.25

    def test_population_channel_converges_at_low_occupancy(self):
        params, frame = thermal_frame(nbar_c0=0.02)
        engine = gamma_thermal_pt(frame, TruncatedSpace((8, 6)))
        formula = gamma_thermal_analytic(frame)
        assert abs(engine.nc_nc - formula.nc_nc) <= 0.05 * abs(formula.nc_nc)

    def test_dissipation_self_channel_negligible(self):
        params, frame = thermal_frame(nbar_c0=0.05)
        engine = gamma_thermal_pt(frame, TruncatedSpace((8, 6)))
        assert abs(engine.cd_cd) <= 0.03 * abs(engine.nc_cd)

    def test_total_tracks_brute_force_rate(self):
        params, frame = thermal_frame(nbar_c0=0.1)
        space = TruncatedSpace((8, 6))
        engine = gamma_thermal_pt(frame, space)
        bundle = build_blackbox(frame, params, space)
        diag = t1_rate_diag(bundle)
        assert abs(engine.total - diag.gamma) <= 1e-3 * diag.gamma

    def test_k_max_restriction_and_validation(self):
        params, frame = thermal_frame(nbar_c0=0.05)
        space = TruncatedSpace((8, 6))
        full = gamma_thermal_pt(frame, space)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # restricted set is incomplete
            low = gamma_thermal_pt(frame, space, k_max=1)
        assert low.nc_nc < full.nc_nc
        with pytest.raises(ValueError, match="k_max"):
            gamma_thermal_pt(frame, space, k_max=7)

    def test_breakdown_metadata(self):
        params, frame = thermal_frame(nbar_c0=0.05)
        engine = gamma_thermal_pt(frame, TruncatedSpace((8, 6)))
        assert engine.meta["dominant_intermediate"] in engine.meta["channels"]
        assert engine.meta["lambda1"]["nc"] == 0.0
        assert engine.total == pytest.approx(
            engine.base + engine.nc_nc + engine.nc_cd + engine.cd_cd, rel=1e-12
        )


class TestGammaThermalAnalytic:
    def test_reference_point_values(self):
        _, frame = thermal_frame(nbar_c0=0.05)
        out = gamma_thermal_analytic(frame)
        assert out.base == pytest.approx(1e-4, rel=1e-12)
        assert out.nc_cd == pytest.approx(2.0202020202020204e-07, rel=1e-9)
        assert out.nc_nc == pytest.approx(1.0203040506070911e-09, rel=1e-9)
        _, frame_m = thermal_frame(omega_a=-1.0, nbar_c0=0.05)
        out_m = gamma_thermal_analytic(frame_m)
        assert out_m.nc_cd == pytest.approx(-1.9801980198019803e-07, rel=1e-9)
        assert out_m.nc_nc == pytest.approx(9.802960494069208e-10, rel=1e-9)

    def test_zero_temperature_nullity_exact(self):
        _, frame = thermal_frame()
        out = gamma_thermal_analytic(frame)
        assert out.nc_nc == 0.0
        assert out.nc_cd == 0.0
        assert out.total == frame.kappa_a_t

    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    @pytest.mark.parametrize("kappa_a", [0.0, 0.001, 0.02])
    @pytest.mark.parametrize("nbar_a0", [0.0, 0.1])
    def test_cross_channel_sign_law(self, sign, kappa_a, nbar_a0):
        params, frame = thermal_frame(
            omega_a=sign, kappa_a=kappa_a, nbar_a0=nbar_a0, nbar_c0=0.06
        )
        out = gamma_thermal_analytic(frame)
        bracket = 8.0 * (params.kappa_c - params.kappa_a) * frame.n_a_t - 4.0 * (
            params.kappa_c * params.nbar_c0 - params.kappa_a * params.nbar_a0
        )
        expect = np.sign(params.delta - params.U) * np.sign(bracket)
        if expect != 0:
            assert np.sign(out.nc_cd) == expect

    def test_limiting_regimes_and_slope_flip(self):
        params, frame = thermal_frame(nbar_c0=0.05)
        out = gamma_thermal_analytic(frame)
        limit = 4.0 * params.g**2 * params.U * params.kappa_c * 0.05 / (
            params.delta**2 * (params.delta - params.U)
        )
        assert out.meta["regime"] == "converter_loss_dominant"
        assert out.meta["limit_correction_converter_dominant"] == pytest.approx(limit)
        assert out.meta["limit_correction_intrinsic_dominant"] == pytest.approx(-limit)
        # with dominant intrinsic loss the thermal correction flips sign
        params_b, frame_b = thermal_frame(kappa_a=0.001, nbar_c0=0.05)
        out_b = gamma_thermal_analytic(frame_b)
        assert out_b.meta["regime"] == "intrinsic_loss_dominant"
        assert out.total - out.base > 0
        assert out_b.total - out_b.base < 0

    def test_occupancy_warning(self):
        _, frame = thermal_frame(nbar_c0=0.25)
        with pytest.warns(UserWarning, match="low-temperature"):
            gamma_thermal_analytic(frame)

    def test_conversion_resonance_rejected(self):
        params = SystemParams(
            omega_a=0.01, omega_c=0.0, g=0.001, U=0.01, kappa_a=0.0, kappa_c=1e-4
        )
        frame = polariton_frame(params)
        with pytest.raises(ValueError, match="resonance"):
            gamma_thermal_analytic(frame)


class TestGammaCoherentAnalytic:
    FIG_DRIVE = dict(U=0.1, kappa_a=0.0, kappa_c=0.01)

    def drive_point(self, sign, f_c):
        params = make_params(omega_a=sign, **self.FIG_DRIVE)
        frame = polariton_frame(params)
        drive = DriveParams(f_c=f_c, omega_D=params.omega_c - 0.1)
        dframe = displaced_frame(params, drive)
        return params, frame, dframe

    def test_zero_drive_is_base_rate_exactly(self):
        _, frame, dframe = self.drive_point(+1.0, 0.0)
        out = gamma_coherent_analytic(dframe, frame)
        assert out.total == frame.kappa_a_t
        assert out.nc_nc == 0.0

    @pytest.mark.parametrize(
        "sign,expect", [(+1.0, 3.8039407881708204e-05), (-1.0, -4.196059211829179e-05)]
    )
    def test_drive_slope_matches_reference(self, sign, expect):
        _, frame, d1 = self.drive_point(sign, 0.02)
        _, _, d2 = self.drive_point(sign, 0.04)
        g1 = gamma_coherent_analytic(d1, frame)
        g2 = gamma_coherent_analytic(d2, frame)
        n1, n2 = g1.meta["drive_photons"], g2.meta["drive_photons"]
        slope = (g2.total - g1.total) / (n2 - n1)
        assert slope == pytest.approx(expect, rel=0.02)

    def test_non_markovian_substitution_scales_sideband(self):
        params, frame, dframe = self.drive_point(+1.0, 0.03)
        plain = gamma_coherent_analytic(dframe, frame)
        sub = gamma_coherent_analytic(dframe, frame, kappa_c_at_qubit=0.02)
        factor = (params.g**2 / params.delta**2) * 0.02 / frame.kappa_a_t
        assert sub.meta["sideband"] == pytest.approx(
            plain.meta["sideband"] * factor, rel=1e-12
        )
        assert sub.meta["non_markovian"] is True
        assert sub.meta["hybridization"] == plain.meta["hybridization"]

    def test_narrow_sideband_detuning_warns(self):
        params = make_params(**self.FIG_DRIVE)
        frame = polariton_frame(params)
        omega_d = frame.omega_a_t - params.U - 5 * frame.kappa_a_t
        dframe = displaced_frame(params, DriveParams(f_c=1e-4, omega_D=omega_d))
        with pytest.warns(UserWarning, match="linewidths"):
            gamma_coherent_analytic(dframe, frame)

    def test_sideband_resonance_rejected(self):
        params = make_params(**self.FIG_DRIVE)
        frame = polariton_frame(params)
        omega_d = frame.omega_a_t - params.U
        dframe = displaced_frame(params, DriveParams(f_c=1e-4, omega_D=omega_d))
        with pytest.raises(ValueError, match="resonance"):
            gamma_coherent_analytic(dframe, frame)

    def test_thermal_input_rejected(self):
        # the displaced frame is cold; the undriven frame handed in is thermal
        _, _, dframe = self.drive_point(+1.0, 0.02)
        frame = polariton_frame(make_params(nbar_c0=0.05, **self.FIG_DRIVE))
        with pytest.raises(ValueError, match="zero-temperature"):
            gamma_coherent_analytic(dframe, frame)


class TestGammaJcAnalytic:
    def test_plug_in_values(self):
        assert gamma_jc_analytic(make_params()) == pytest.approx(1e-4, rel=1e-12)
        assert gamma_jc_analytic(make_params(nbar_c0=0.1)) == pytest.approx(
            1.2e-4, rel=1e-12
        )

    def test_even_in_detuning(self):
        plus = gamma_jc_analytic(make_params(omega_a=1.0, nbar_c0=0.07))
        minus = gamma_jc_analytic(make_params(omega_a=-1.0, nbar_c0=0.07))
        assert plus == minus

    def test_intrinsic_loss_rejected(self):
        with pytest.raises(ValueError, match="intrinsic"):
            gamma_jc_analytic(make_params(kappa_a=0.001))


class TestDiagnostics:
    def test_flag_raised_for_large_anharmonicity(self):
        _, frame = thermal_frame(U=0.1)
        report = diagnostics(frame)
        assert "analytic-formula-degraded" in report.flags

    def test_flag_clear_in_formula_regime(self):
        params, frame = thermal_frame(nbar_c0=0.05)
        report = diagnostics(frame)
        assert report.flags == ()
        formula = gamma_thermal_analytic(frame)
        # the resonantly enhanced fourth-order estimate stays below the
        # second-order channels it could contaminate
        assert report.gamma4_estimate < formula.nc_nc
        assert report.gamma4_estimate <= 0.01 * abs(formula.nc_cd)

    def test_flag_clear_when_intrinsic_loss_dominates(self):
        _, frame = thermal_frame(U=0.1, kappa_a=0.02)
        assert diagnostics(frame).flags == ()

    def test_quartic_coupling_scaling_without_enhancement(self):
        # couplings small enough that the dressed linewidths and occupancies
        # barely move, exposing the bare g**4 law
        _, f1 = thermal_frame(g=0.01, kappa_a=0.012, nbar_c0=0.05)
        _, f2 = thermal_frame(g=0.02, kappa_a=0.012, nbar_c0=0.05)
        ratio = diagnostics(f2).gamma4_estimate / diagnostics(f1).gamma4_estimate
        assert ratio == pytest.approx(16.0, rel=0.01)

    def test_lossless_system_estimate_is_zero(self):
        _, frame = thermal_frame(kappa_a=0.0, kappa_c=0.0, nbar_c0=0.05)
        assert diagnostics(frame).gamma4_estimate == 0.0

    def test_conversion_resonance_rejected(self):
        params = SystemParams(
            omega_a=0.01, omega_c=0.0, g=0.001, U=0.01, kappa_a=0.0, kappa_c=1e-4
        )
        with pytest.raises(ValueError, match="resonance"):
            diagnostics(polariton_frame(params))


class TestRateReport:
    def test_blackbox_report_cross_checks(self):
        params, frame = thermal_frame(nbar_c0=0.05)
        space = TruncatedSpace((6, 4))
        bundle = build_blackbox(frame, params, space)
        report = rate_report(bundle)
        assert report.gamma_diag > 0 and report.gamma_fit > 0
        assert set(report.discrepancies) == {
            "fit_vs_diag",
            "analytic_vs_diag",
            "pt_vs_diag",
        }
        assert abs(report.discrepancies["fit_vs_diag"]) <= 2e-2
        assert abs(report.discrepancies["pt_vs_diag"]) <= 1e-3
        assert abs(report.discrepancies["analytic_vs_diag"]) <= 1e-3

    def test_one_steady_state_solve(self, monkeypatch):
        # the dim-144 generator is closed and under the dense limit, so its
        # steady state is the one full dense eig
        params, frame = thermal_frame(nbar_c0=0.05)
        bundle = build_blackbox(frame, params, TruncatedSpace((4, 3)))
        rho_ss = steady_state(bundle)
        expected = (t1_rate_diag(bundle).gamma, t1_rate_fit(bundle, rho_ss).gamma)
        eig, sizes = np.linalg.eig, []

        def counted(a):
            sizes.append(a.shape[0])
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        report = rate_report(bundle)
        assert sizes == [144]
        # sharing the state leaves both protocols' rates bit for bit as is
        assert (report.gamma_diag, report.gamma_fit) == expected

    def test_non_blackbox_basis_rejected(self):
        params = make_params()
        bundle = build_bare(params, TruncatedSpace((6, 2)))
        with pytest.raises(ValueError, match="dressed-frame"):
            rate_report(bundle)

    def test_positive_rate_invariant(self):
        good = gamma_thermal_analytic(thermal_frame(nbar_c0=0.05)[1])
        with pytest.raises(ValueError, match="not a positive rate"):
            RateReport(
                gamma_diag=-1e-4,
                gamma_fit=1e-4,
                gamma_analytic=good,
                gamma_pt_numeric=1e-4,
                discrepancies={},
            )
