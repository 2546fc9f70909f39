"""Independent references the tests check the package against.

Each helper is built separately from the code under test, so agreement
is evidence rather than a tautology.
"""

import numpy as np
import scipy.sparse as sp

from purcell_lab.fockspace import (
    Superoperator,
    TruncatedSpace,
    left_mult,
    right_mult,
    sandwich,
    trace_functional,
)


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


def trace_preservation_residual(superop: Superoperator) -> float:
    """max|vec(I)^dag L|, normalized by max|L| (0 if L is empty)."""
    t = trace_functional(superop.space)
    resid = float(np.max(np.abs(t @ superop.data)))
    scale = superop.max_abs()
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
