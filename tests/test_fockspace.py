import numpy as np
import pytest
import scipy.sparse as sp

from purcell_lab.fockspace import (
    TruncatedSpace,
    Superoperator,
    ladder_operators,
    vectorize,
    unvectorize,
    trace_functional,
)
from reference import (
    heisenberg_superoperator,
    lindblad_superoperator,
    trace_preservation_residual,
)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def random_density(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


class TestTruncatedSpace:
    def test_total_dim_is_product(self):
        space = TruncatedSpace((4, 3, 2))
        assert space.total_dim == 24
        assert space.n_modes == 3

    def test_rejects_cutoff_below_two(self):
        with pytest.raises(ValueError):
            TruncatedSpace((4, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TruncatedSpace(())

    def test_occupations_roundtrip(self):
        space = TruncatedSpace((4, 3))
        # flat index n0 * d1 + n1
        assert space.occupations(0) == (0, 0)
        assert space.occupations(3 * 3 + 2) == (3, 2)


class TestLadderOperators:
    def test_lower_smallest_truncation(self):
        space = TruncatedSpace((2,))
        lower, _, _ = ladder_operators(space, 0)
        assert np.array_equal(lower.toarray(), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_number_diagonal(self):
        space = TruncatedSpace((5,))
        _, _, number = ladder_operators(space, 0)
        assert np.allclose(number.toarray(), np.diag(np.arange(5, dtype=complex)))

    def test_commutator_at_cutoff_5(self):
        # [lower, raise] = identity except at the top truncation level
        space = TruncatedSpace((5,))
        lower, raise_, _ = ladder_operators(space, 0)
        comm = lower @ raise_ - raise_ @ lower
        expected = np.eye(5, dtype=complex)
        expected[4, 4] = -4.0
        assert np.allclose(comm.toarray(), expected, atol=1e-14)

    def test_embedding_two_modes(self):
        space = TruncatedSpace((3, 2))
        lower_c, _, number_c = ladder_operators(space, 0)
        _, _, number_q = ladder_operators(space, 1)
        # number operators are diagonal in the flat basis n_c * d_a + n_a
        diag_c = [space.occupations(i)[0] for i in range(6)]
        diag_q = [space.occupations(i)[1] for i in range(6)]
        assert np.allclose(np.diag(number_c.toarray()).real, diag_c)
        assert np.allclose(np.diag(number_q.toarray()).real, diag_q)
        # lowering the cavity connects (1, n_a) -> (0, n_a) only
        assert lower_c.toarray()[0, 2] == pytest.approx(1.0)
        assert lower_c.toarray()[1, 3] == pytest.approx(1.0)

    @pytest.mark.parametrize("dims, mode", [((3, 2), 0), ((3, 2), 1), ((4, 3, 2), 2)])
    def test_csr_matches_dense_kron(self, dims, mode):
        low = np.diag(np.sqrt(np.arange(1, dims[mode])), k=1)
        expected = np.ones((1, 1))
        for i, d in enumerate(dims):
            expected = np.kron(expected, low if i == mode else np.eye(d))
        lower, raise_, number = ladder_operators(TruncatedSpace(dims), mode)
        for op in (lower, raise_, number):
            assert sp.issparse(op) and op.format == "csr"
        assert np.array_equal(lower.toarray(), expected)
        assert np.array_equal(raise_.toarray(), expected.T)
        assert np.array_equal(number.toarray(), expected.T @ expected)

    def test_invalid_mode_index(self):
        space = TruncatedSpace((3, 2))
        with pytest.raises(ValueError):
            ladder_operators(space, 2)


class TestVectorize:
    def test_column_stacking_definition(self):
        v = vectorize(np.array([[1, 2], [3, 4]]))
        assert np.array_equal(v, np.array([1, 3, 2, 4], dtype=complex))

    def test_identity_positions(self):
        d = 4
        v = vectorize(np.eye(d))
        hot = np.nonzero(v)[0]
        assert np.array_equal(hot, np.arange(d) * (d + 1))
        assert np.allclose(v[hot], 1.0)

    def test_roundtrip_random_hermitian(self):
        rng = np.random.default_rng(7)
        rho = random_hermitian(rng, 6)
        assert np.array_equal(unvectorize(vectorize(rho)), rho)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            vectorize(np.ones((2, 3)))
        with pytest.raises(ValueError):
            unvectorize(np.ones(5))
        with pytest.raises(ValueError):
            unvectorize(np.ones(4), TruncatedSpace((3,)))


class TestLindbladSuperoperator:
    def test_vacuum_is_dark_state_of_decay(self):
        space = TruncatedSpace((3,))
        lower, _, _ = ladder_operators(space, 0)
        gen = lindblad_superoperator(space, np.zeros((3, 3)), [(0.4, lower)])
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[0, 0] = 1.0
        assert np.allclose(gen.data @ vectorize(rho0), 0.0, atol=1e-14)

    def test_single_photon_decay(self):
        kappa = 0.37
        space = TruncatedSpace((3,))
        lower, _, _ = ladder_operators(space, 0)
        gen = lindblad_superoperator(space, np.zeros((3, 3)), [(kappa, lower)])
        rho1 = np.zeros((3, 3), dtype=complex)
        rho1[1, 1] = 1.0
        deriv = unvectorize(gen.data @ vectorize(rho1))
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 0] = kappa
        expected[1, 1] = -kappa
        assert np.allclose(deriv, expected, atol=1e-14)

    def test_trace_preservation_random_cutoff_4(self):
        rng = np.random.default_rng(11)
        space = TruncatedSpace((4,))
        h = random_hermitian(rng, 4)
        ch1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ch2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        gen = lindblad_superoperator(space, h, [(0.3, ch1), (1.2, ch2)])
        assert trace_preservation_residual(gen) <= 1e-12

    @pytest.mark.parametrize("dims", [(5,), (4, 3), (8,), (3, 2, 2)])
    def test_trace_preservation_various_spaces(self, dims):
        rng = np.random.default_rng(sum(dims))
        space = TruncatedSpace(dims)
        n = space.total_dim
        h = random_hermitian(rng, n)
        lower0, raise0, _ = ladder_operators(space, 0)
        chans = [(0.2, lower0), (0.05, raise0)]
        gen = lindblad_superoperator(space, h, chans)
        assert trace_preservation_residual(gen) <= 1e-12

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(3)
        space = TruncatedSpace((4, 2))
        n = space.total_dim
        h = random_hermitian(rng, n)
        lower, _, _ = ladder_operators(space, 1)
        gen = lindblad_superoperator(space, h, [(0.7, lower)])
        rho = random_density(rng, n)
        deriv = unvectorize(gen.data @ vectorize(rho))
        assert np.max(np.abs(deriv - deriv.conj().T)) <= 1e-12

    def test_negative_rate_rejected(self):
        space = TruncatedSpace((3,))
        lower, _, _ = ladder_operators(space, 0)
        with pytest.raises(ValueError):
            lindblad_superoperator(space, np.eye(3), [(-0.1, lower)])

    def test_space_mismatch_rejected(self):
        space_a = TruncatedSpace((3,))
        space_b = TruncatedSpace((4,))
        lower_b, _, _ = ladder_operators(space_b, 0)
        with pytest.raises(ValueError):
            lindblad_superoperator(space_a, np.eye(3), [(0.1, lower_b)])
        with pytest.raises(ValueError, match="Hamiltonian"):
            lindblad_superoperator(space_a, np.eye(4), [])

    def test_rejects_dense_data(self):
        space = TruncatedSpace((3,))
        lower, _, _ = ladder_operators(space, 0)
        gen = lindblad_superoperator(space, np.zeros((3, 3)), [(1.0, lower)])
        assert sp.issparse(gen.data) and gen.data.format == "csr"
        with pytest.raises(ValueError):
            Superoperator(space, np.zeros((9, 9)))


class TestAdjointConsistency:
    def test_adjoint_is_matrix_dagger(self):
        rng = np.random.default_rng(17)
        space = TruncatedSpace((4,))
        h = random_hermitian(rng, 4)
        lower, raise_, _ = ladder_operators(space, 0)
        chans = [(0.8, lower), (0.1, raise_)]
        schro = lindblad_superoperator(space, h, chans)
        heis = heisenberg_superoperator(space, h, chans)
        assert np.max(np.abs((heis.data - schro.data.conj().T).toarray())) <= 1e-12

    def test_pairing_identity_on_random_pairs(self):
        # <L^dag(A), rho> = <A, L(rho)> with <A, B> = Tr[A^dag B]
        rng = np.random.default_rng(23)
        space = TruncatedSpace((3, 2))
        n = space.total_dim
        h = random_hermitian(rng, n)
        lower, _, _ = ladder_operators(space, 0)
        schro = lindblad_superoperator(space, h, [(0.5, lower)])
        heis = heisenberg_superoperator(space, h, [(0.5, lower)])
        for _ in range(5):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = random_density(rng, n)
            lhs = np.vdot(heis.data @ vectorize(a), vectorize(rho))
            rhs = np.vdot(vectorize(a), schro.data @ vectorize(rho))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_trace_functional():
    rng = np.random.default_rng(2)
    space = TruncatedSpace((4,))
    rho = random_density(rng, 4)
    t = trace_functional(space)
    assert t @ vectorize(rho) == pytest.approx(1.0)
