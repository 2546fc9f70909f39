"""Independent references the tests check the package against.

Each helper is built separately from the code under test, so agreement
is evidence rather than a tautology.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from purcell_lab.fockspace import (
    Superoperator,
    TruncatedSpace,
    ladder_operators,
    left_mult,
    right_mult,
    sandwich,
    trace_functional,
    unvectorize,
)
from purcell_lab.model import SystemParams


def bare_hamiltonian(params: SystemParams, space: TruncatedSpace) -> sp.csr_matrix:
    """Lab-frame Hamiltonian on a (cavity, qubit) space, as a CSR matrix.

    H = omega_a a^dag a + g (a^dag c + h.c.) + omega_c c^dag c
        - (U/2) a^dag a^dag a a
    """
    if space.n_modes != 2:
        raise ValueError(f"expected a two-mode (cavity, qubit) space, got {space.n_modes} modes")
    c, cd, nc = ladder_operators(space, 0)
    a, ad, na = ladder_operators(space, 1)
    return (
        params.omega_a * na
        + params.omega_c * nc
        + params.g * (ad @ c + cd @ a)
        - 0.5 * params.U * (ad @ ad @ a @ a)
    )


def term_sum(table, coeffs: dict[str, complex]) -> sp.csr_matrix:
    """sum_k c_k S_k over a table of unit terms, ``(operators,
    superoperators)`` as `liouvillian._unit_terms` gives them, in the order
    of ``coeffs``, added term by term in scipy.sparse: the reference for
    `liouvillian._term_sum`, which must give the same CSR arrays bit for bit.

    The Hamiltonian part is taken as -i[sum_k c_k O_k, .], equal to
    sum_k c_k S_k by linearity but rounded like the operator-level
    Hamiltonian of the frame.  Zero coefficients are skipped.
    """
    operators, superoperators = table
    n = next(iter(operators.values())).shape[0]
    h = sp.csr_matrix((n, n), dtype=complex)
    for key, coeff in coeffs.items():
        if coeff != 0 and key in operators:
            h = h + coeff * operators[key]
    gen = -1j * (left_mult(h) - right_mult(h))
    for key, coeff in coeffs.items():
        if coeff != 0 and key in superoperators:
            gen = gen + coeff * superoperators[key]
    return gen


def lindblad_superoperator(space: TruncatedSpace, h, channels) -> Superoperator:
    """Schrodinger-picture generator -i[H, .] + sum_k rate_k D[L_k], with
    D[L] rho = L rho L^dag - (1/2){L^dag L, rho}.

    ``channels`` is a list of (rate, L); a negative rate or an operator
    whose shape does not match ``space`` raises ValueError, a zero rate is
    skipped.
    """
    n = space.total_dim
    hs = sp.csr_matrix(h)
    if hs.shape != (n, n):
        raise ValueError(
            f"Hamiltonian shape {hs.shape} does not match space dimension {n}"
        )
    gen = -1j * (left_mult(hs) - right_mult(hs))
    for rate, l_op in channels:
        if rate < 0:
            raise ValueError(f"negative dissipation rate {rate}")
        if l_op.shape != (n, n):
            raise ValueError(
                f"channel operator shape {l_op.shape} does not match space dimension {n}"
            )
        if rate == 0.0:
            continue
        ls = sp.csr_matrix(l_op)
        ldl = (ls.conj().T @ ls).tocsr()
        gen = gen + rate * (
            sandwich(ls, ls.conj().T) - 0.5 * left_mult(ldl) - 0.5 * right_mult(ldl)
        )
    return Superoperator(space, gen)


def heisenberg_superoperator(space: TruncatedSpace, h, channels) -> Superoperator:
    """Adjoint (Heisenberg-picture) generator, built independently.

    L^dag A = +i[H, A] + sum_k rate_k (L_k^dag A L_k - (1/2){L_k^dag L_k, A}),
    so that <L^dag(A), rho> = <A, L(rho)> with <A, B> = Tr[A^dag B].
    """
    hs = sp.csr_matrix(h)
    gen = 1j * (left_mult(hs) - right_mult(hs))
    for rate, l_op in channels:
        ls = sp.csr_matrix(l_op)
        ldl = (ls.conj().T @ ls).tocsr()
        gen = gen + rate * (
            sandwich(ls.conj().T, ls) - 0.5 * left_mult(ldl) - 0.5 * right_mult(ldl)
        )
    return Superoperator(space, gen)


def shift_invert_steady_state(bundle) -> np.ndarray:
    """Trace-1 steady state from its own shift-invert ARPACK solve.

    The two eigenvalues nearest ``0.1 * t1_rate_scale`` of the full
    generator; the one nearest zero gives the state, made Hermitian, of
    unit trace, and with small negative populations clipped away as
    `steady_state` clips them.
    """
    mat = bundle.superop.data.tocsc()
    dim = mat.shape[0]
    v0 = np.ones(dim) / np.sqrt(dim)
    w, v = spla.eigs(mat, k=2, sigma=0.1 * bundle.t1_rate_scale, v0=v0)
    rho = unvectorize(v[:, np.argmin(np.abs(w))], bundle.space)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho)
    evals, evecs = np.linalg.eigh(rho)
    if evals.min() < -1e-14:
        evals = np.clip(evals, 0.0, None)
        rho = (evecs * evals) @ evecs.conj().T
        rho = rho / np.trace(rho).real
    return rho


def max_abs(superop: Superoperator) -> float:
    """max|L| over the stored entries of L (0 if L is empty)."""
    return float(np.max(np.abs(superop.data.data))) if superop.data.nnz else 0.0


def trace_preservation_residual(superop: Superoperator) -> float:
    """max|vec(I)^dag L|, normalized by max|L| (0 if L is empty)."""
    t = trace_functional(superop.space)
    resid = float(np.max(np.abs(t @ superop.data)))
    scale = max_abs(superop)
    return resid / scale if scale > 0 else resid


def coupled_mode_complex_frequencies(
    omega_c: float,
    omega_a: float,
    kappa_c: float,
    kappa_a: float,
    coherent: float,
    dissipative: float,
) -> tuple[complex, complex]:
    """Normal-mode complex frequencies of two linearly coupled damped modes.

    Amplitude equations: i d/dt (b_c, b_a) = M (b_c, b_a) with
    M = [[omega_c - i kappa_c/2, coherent - i dissipative],
    [coherent - i dissipative, omega_a - i kappa_a/2]].  Returns
    (cavity_like, qubit_like); the energy decay rate of a branch is
    -2 Im(mu).
    """
    m = np.array(
        [
            [omega_c - 0.5j * kappa_c, coherent - 1j * dissipative],
            [coherent - 1j * dissipative, omega_a - 0.5j * kappa_a],
        ]
    )
    mu = np.linalg.eigvals(m)
    if abs(mu[0].real - omega_a) < abs(mu[1].real - omega_a):
        mu = mu[::-1]
    return complex(mu[0]), complex(mu[1])
