"""Truncated Fock-space operator algebra and superoperator building blocks.

Conventions fixed repo-wide:

* Density matrices are vectorized by column stacking, so that
  vec(A X B) = (B^T kron A) vec(X).
* Multi-mode operators live on the tensor product in the order given by
  ``TruncatedSpace.dims``; the flat Fock index of occupations (n_0, n_1, ...)
  is n_0 * d_1 * d_2 * ... + n_1 * d_2 * ... + ...
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class TruncatedSpace:
    """Tensor product of truncated bosonic modes.

    Parameters
    ----------
    dims : sequence of int
        Per-mode Fock cutoffs (each >= 2).  Mode ordering is fixed for the
        lifetime of the space; operators reference modes by index into it.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0:
            raise ValueError("TruncatedSpace needs at least one mode")
        if any(d < 2 for d in dims):
            raise ValueError(f"every Fock cutoff must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def occupations(self, flat_index: int) -> tuple[int, ...]:
        """Per-mode occupation numbers of a flat Fock index."""
        occ = []
        rem = int(flat_index)
        for d in reversed(self.dims):
            occ.append(rem % d)
            rem //= d
        if rem:
            raise ValueError(f"flat index {flat_index} outside space")
        return tuple(reversed(occ))


@dataclass(frozen=True)
class Superoperator:
    """A sparse matrix acting on column-stacked vectorized operators.

    ``data`` is a complex CSR matrix of shape (N^2, N^2) with
    N = ``space.total_dim``.  A trace-preserving generator satisfies
    vec(I)^dag @ data = 0 to numerical tolerance.
    """

    space: TruncatedSpace
    data: sp.csr_matrix

    def __post_init__(self):
        n2 = self.space.total_dim ** 2
        if not sp.issparse(self.data):
            raise ValueError("superoperator data must be a scipy sparse matrix")
        data = self.data.tocsr().astype(complex)
        if data.shape != (n2, n2):
            raise ValueError(
                f"superoperator shape {data.shape} does not match {(n2, n2)}"
            )
        object.__setattr__(self, "data", data)


def ladder_operators(
    space: TruncatedSpace, mode: int
) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """Lowering, raising, and number operators for one mode, embedded.

    The returned CSR matrices act on the full tensor space with identities
    on all other modes.  ``lower`` annihilates the mode's ground Fock state,
    ``raise = lower^dag``, ``number = raise @ lower``.
    """
    if not 0 <= mode < space.n_modes:
        raise ValueError(f"mode index {mode} out of range for {space.n_modes} modes")
    d = space.dims[mode]
    low = sp.diags(np.sqrt(np.arange(1, d, dtype=float)), 1, dtype=complex)
    lower = sp.identity(1, dtype=complex, format="csr")
    for i, di in enumerate(space.dims):
        factor = low if i == mode else sp.identity(di, dtype=complex)
        lower = sp.kron(lower, factor, format="csr")
    raise_ = lower.conj().T.tocsr()
    number = raise_ @ lower
    return lower, raise_, number


def vectorize(rho) -> np.ndarray:
    """Column-stack a density matrix (or any operator) into a vector."""
    data = np.asarray(rho, dtype=complex)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {data.shape}")
    return data.flatten(order="F")


def unvectorize(v: np.ndarray, space: TruncatedSpace | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`; returns a plain ndarray."""
    v = np.asarray(v, dtype=complex).ravel()
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    if space is not None and n != space.total_dim:
        raise ValueError(
            f"vector length {v.size} does not match space dimension {space.total_dim}"
        )
    return v.reshape((n, n), order="F")


def trace_functional(space: TruncatedSpace) -> np.ndarray:
    """Row vector t with t @ vec(rho) = Tr(rho)."""
    return vectorize(np.eye(space.total_dim))


# Superoperator building blocks (column-stacking convention).

def left_mult(x: np.ndarray) -> sp.csr_matrix:
    """Superoperator of rho -> X rho."""
    x = sp.csr_matrix(x)
    return sp.kron(sp.identity(x.shape[0], dtype=complex, format="csr"), x, format="csr")


def right_mult(x: np.ndarray) -> sp.csr_matrix:
    """Superoperator of rho -> rho X."""
    x = sp.csr_matrix(x)
    return sp.kron(x.T, sp.identity(x.shape[0], dtype=complex, format="csr"), format="csr")


def sandwich(a: np.ndarray, b: np.ndarray) -> sp.csr_matrix:
    """Superoperator of rho -> A rho B."""
    a = sp.csr_matrix(a)
    b = sp.csr_matrix(b)
    return sp.kron(b.T, a, format="csr")


def _dissipator(l_op: sp.csr_matrix) -> sp.csr_matrix:
    """D[L] rho = L rho L^dag - (1/2){L^dag L, rho} as a sparse superoperator."""
    ldl = (l_op.conj().T @ l_op).tocsr()
    return (
        sandwich(l_op, l_op.conj().T)
        - 0.5 * left_mult(ldl)
        - 0.5 * right_mult(ldl)
    )
