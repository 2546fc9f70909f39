import warnings

import numpy as np
import pytest

from purcell_lab.fockspace import TruncatedSpace
from purcell_lab.model import (
    SystemParams,
    DriveParams,
    polariton_frame,
    displaced_frame,
    displacement,
)
from reference import bare_hamiltonian


def make_params(**over):
    base = dict(
        omega_a=1.0, omega_c=0.0, g=0.1, U=0.01,
        kappa_a=0.0, kappa_c=0.01, nbar_a0=0.0, nbar_c0=0.0,
    )
    base.update(over)
    return SystemParams(**base)


class TestSystemParams:
    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            make_params(omega_a=0.0, omega_c=0.0)

    def test_dispersive_guard(self):
        with pytest.raises(ValueError):
            make_params(g=0.6)
        with pytest.warns(UserWarning):
            make_params(g=0.4)

    def test_negative_rates_rejected(self):
        for field in ("U", "kappa_a", "kappa_c", "nbar_a0", "nbar_c0"):
            with pytest.raises(ValueError):
                make_params(**{field: -0.1})

    def test_delta(self):
        assert make_params(omega_a=5.0, omega_c=4.0).delta == pytest.approx(1.0)
        assert make_params(omega_a=4.0, omega_c=5.0).delta == pytest.approx(-1.0)


class TestBareHamiltonian:
    def test_decoupled_is_diagonal(self):
        params = make_params(g=0.0, U=0.0, omega_a=1.3, omega_c=0.7)
        space = TruncatedSpace((3, 3))
        h = bare_hamiltonian(params, space).toarray()
        assert np.allclose(h, np.diag(np.diag(h)))
        expected = [nc * 0.7 + na * 1.3 for nc in range(3) for na in range(3)]
        assert np.allclose(np.diag(h).real, expected)

    def test_single_excitation_coupling(self):
        params = make_params()
        space = TruncatedSpace((2, 2))
        h = bare_hamiltonian(params, space).toarray()
        # flat order: |n_c n_a> = |00>, |01>, |10>, |11>
        assert h[1, 2] == pytest.approx(params.g)
        assert h[2, 1] == pytest.approx(params.g)

    def test_single_excitation_eigenvalues(self):
        params = make_params(omega_a=1.2, omega_c=0.3, g=0.17)
        space = TruncatedSpace((2, 2))
        h = bare_hamiltonian(params, space).toarray()
        block = h[1:3, 1:3]
        evals = np.sort(np.linalg.eigvalsh(block))
        mean = (params.omega_a + params.omega_c) / 2
        split = np.sqrt(params.delta**2 / 4 + params.g**2)
        assert np.allclose(evals, [mean - split, mean + split], atol=1e-14)

    def test_kerr_term(self):
        params = make_params(g=0.0, U=0.4, omega_a=0.0, omega_c=1.0)
        space = TruncatedSpace((2, 4))
        h = bare_hamiltonian(params, space).toarray()
        # qubit-only energies: -(U/2) n(n-1)
        for na in range(4):
            assert h[na, na].real == pytest.approx(-0.2 * na * (na - 1))

    def test_mode_count_checked(self):
        with pytest.raises(ValueError):
            bare_hamiltonian(make_params(), TruncatedSpace((4,)))

    def test_hermitian(self):
        h = bare_hamiltonian(make_params(U=0.1), TruncatedSpace((4, 3))).toarray()
        assert np.allclose(h, h.conj().T)


class TestPolaritonFrame:
    def test_no_hybridization_limit(self):
        frame = polariton_frame(make_params(g=0.0, kappa_a=0.002, nbar_a0=0.07))
        assert frame.kappa_a_t == pytest.approx(0.002)
        assert frame.kappa_P == 0.0
        assert frame.n_a_t == pytest.approx(0.07)
        assert frame.gamma_up == 0.0
        assert frame.gamma_down == 0.0

    def test_purcell_rate_reference_point(self):
        # g = 0.1|Delta|, kappa_c = 0.01|Delta|, kappa_a = 0
        frame = polariton_frame(make_params())
        assert frame.kappa_a_t == pytest.approx(1.0e-4, rel=1e-12)

    def test_occupancy_inherits_cavity_bath(self):
        frame = polariton_frame(make_params(nbar_c0=0.1))
        assert frame.n_a_t == pytest.approx(0.1, rel=1e-12)

    def test_dressed_frequencies_and_nonlinearities(self):
        p = make_params(U=0.02)
        frame = polariton_frame(p)
        assert frame.omega_a_t == pytest.approx(1.0 + 0.01)
        assert frame.omega_c_t == pytest.approx(-0.01)
        assert frame.chi_aa == pytest.approx(-0.01 * (1 - 0.005))
        assert frame.chi_ca == pytest.approx(-2 * 0.01 * 0.02)
        assert frame.chi_t == pytest.approx(0.1 * 0.02)

    def test_correlated_rates(self):
        p = make_params(kappa_a=0.001, nbar_a0=0.05, nbar_c0=0.2)
        frame = polariton_frame(p)
        assert frame.gamma_down == pytest.approx(0.1 * (0.01 * 1.2 - 0.001 * 1.05))
        assert frame.gamma_up == pytest.approx(0.1 * (0.01 * 0.2 - 0.001 * 0.05))
        # invariant: gamma_down - gamma_up = (g/Delta)(kappa_c - kappa_a)
        assert frame.gamma_down - frame.gamma_up == pytest.approx(0.1 * 0.009)

    def test_exchange_symmetry(self):
        p = make_params(kappa_a=0.003, kappa_c=0.012, nbar_a0=0.04, nbar_c0=0.11)
        swapped = SystemParams(
            omega_a=p.omega_c, omega_c=p.omega_a, g=p.g, U=p.U,
            kappa_a=p.kappa_c, kappa_c=p.kappa_a,
            nbar_a0=p.nbar_c0, nbar_c0=p.nbar_a0,
        )
        f, fs = polariton_frame(p), polariton_frame(swapped)
        assert fs.kappa_a_t == pytest.approx(f.kappa_c_t, rel=1e-12)
        assert fs.n_a_t == pytest.approx(f.n_c_t, rel=1e-12)

    @pytest.mark.parametrize("kappa_a", [0.0, 0.001])
    def test_sign_covariance(self, kappa_a):
        p_plus = make_params(kappa_a=kappa_a, nbar_c0=0.1)
        p_minus = make_params(omega_a=-1.0, kappa_a=kappa_a, nbar_c0=0.1)
        fp, fm = polariton_frame(p_plus), polariton_frame(p_minus)
        assert fm.chi_t == pytest.approx(-fp.chi_t)
        assert fm.gamma_up == pytest.approx(-fp.gamma_up)
        assert fm.gamma_down == pytest.approx(-fp.gamma_down)
        assert fm.kappa_a_t == pytest.approx(fp.kappa_a_t)
        assert fm.kappa_P == pytest.approx(fp.kappa_P)

    def test_zero_dressed_rate_falls_back_to_own_bath(self):
        frame = polariton_frame(make_params(g=0.0, kappa_a=0.0, nbar_a0=0.3))
        assert frame.n_a_t == pytest.approx(0.3)


class TestDisplacedFrame:
    def drive(self, f_c, omega_c=0.0):
        return DriveParams(f_c=f_c, omega_D=omega_c - 0.1)

    def test_undriven_limit(self):
        p = make_params(U=0.1)
        dframe = displaced_frame(p, self.drive(0.0))
        frame = polariton_frame(p)
        assert dframe.alpha_c == 0 and dframe.alpha_a == 0
        assert dframe.dressed == frame

    def test_displacement_ratio_reference_point(self):
        # exact 2x2 solve vs the leading-order ratio g^2/(omega_a - omega_D)^2
        p = make_params(U=0.1)
        dframe = displaced_frame(p, self.drive(0.05))
        ratio = abs(dframe.alpha_a) ** 2 / abs(dframe.alpha_c) ** 2
        assert ratio == pytest.approx(0.01 / 1.1**2, rel=1e-9)
        assert ratio == pytest.approx(8.3e-3, rel=5e-3)

    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    def test_drive_dressed_rate_slope(self, sign):
        # d(dressed.kappa_a_t)/d|alpha_a|^2 -> (g^2/Delta^2)(4U/Delta)(kappa_c - kappa_a)
        p = make_params(omega_a=sign, U=0.1)
        expected = 0.01 * (0.4 / sign) * 0.01
        d0 = displaced_frame(p, DriveParams(0.0, -0.1))
        d1 = displaced_frame(p, DriveParams(0.03, -0.1))
        n1 = abs(d1.alpha_a) ** 2
        assert n1 > 0
        slope = (d1.dressed.kappa_a_t - d0.dressed.kappa_a_t) / n1
        assert slope == pytest.approx(expected, rel=2e-3)
        assert np.sign(slope) == sign

    def test_continuity_to_polariton_frame(self):
        p = make_params(U=0.05, kappa_a=0.001)
        frame = polariton_frame(p)
        dframe = displaced_frame(p, DriveParams(1e-8, -0.1))
        assert abs(dframe.dressed.kappa_a_t - frame.kappa_a_t) < 1e-12
        assert abs(dframe.dressed.delta - frame.delta) < 1e-12
        assert abs(dframe.dressed.omega_a_t - frame.omega_a_t) < 1e-12
        assert abs(dframe.dressed.omega_c_t - frame.omega_c_t) < 1e-12

    def test_near_singular_solve_rejected(self):
        p = make_params(kappa_c=0.0)
        # drive exactly on the bare cavity resonance of a lossless cavity is
        # still fine (g lifts it); hit the dressed resonance instead
        evals = np.linalg.eigvalsh(np.array([[0.0, p.g], [p.g, p.delta]]))
        with pytest.raises(ValueError, match="condition number"):
            displaced_frame(p, DriveParams(0.1, float(evals[0])))

    def test_large_displacement_warns(self):
        p = make_params(U=0.1)
        with pytest.warns(UserWarning, match="alpha_a"):
            displaced_frame(p, DriveParams(6.0, -0.1))

    def test_displacement_matches_frame_without_warning(self):
        # the unit-amplitude scale probe of a drive sweep: |alpha_a|^2 is
        # far above the frame's warning threshold, yet the bare solve is quiet
        p = make_params(U=0.1)
        drive = DriveParams(6.0, -0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha_c, alpha_a, cond = displacement(p, drive)
        with pytest.warns(UserWarning, match="alpha_a"):
            dframe = displaced_frame(p, drive)
        assert (complex(alpha_c), complex(alpha_a)) == (dframe.alpha_c, dframe.alpha_a)
        assert cond == dframe.condition_number

    def test_thermal_bath_rejected(self):
        p = make_params(U=0.1, nbar_a0=0.05)
        with pytest.raises(ValueError, match="zero-temperature"):
            displaced_frame(p, self.drive(0.05))

    def test_drive_coeff(self):
        p = make_params(U=0.1)
        dframe = displaced_frame(p, self.drive(0.05))
        assert dframe.drive_coeff == pytest.approx(-0.1 * dframe.alpha_a)
