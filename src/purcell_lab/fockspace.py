"""Truncated Fock-space operator algebra and Lindblad superoperator assembly.

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
class OperatorMatrix:
    """A complex matrix acting on a :class:`TruncatedSpace`."""

    space: TruncatedSpace
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        n = self.space.total_dim
        if data.shape != (n, n):
            raise ValueError(
                f"operator shape {data.shape} does not match space dimension {n}"
            )
        object.__setattr__(self, "data", data)

    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.data.conj().T)

    def _check_same_space(self, other: "OperatorMatrix") -> None:
        if self.space.dims != other.space.dims:
            raise ValueError("operators live on different spaces")

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_space(other)
        return OperatorMatrix(self.space, self.data @ other.data)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_space(other)
        return OperatorMatrix(self.space, self.data + other.data)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_space(other)
        return OperatorMatrix(self.space, self.data - other.data)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.data * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, -self.data)


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

    def as_dense(self) -> np.ndarray:
        return self.data.toarray()

    def apply(self, vec_rho: np.ndarray) -> np.ndarray:
        return self.data @ vec_rho

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data.data))) if self.data.nnz else 0.0


def identity(space: TruncatedSpace) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.total_dim, dtype=complex))


def ladder_operators(
    space: TruncatedSpace, mode: int
) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Lowering, raising, and number operators for one mode, embedded.

    The returned operators act on the full tensor space with identities on
    all other modes.  ``lower`` annihilates the mode's ground Fock state,
    ``raise = lower^dag``, ``number = raise @ lower``.
    """
    if not 0 <= mode < space.n_modes:
        raise ValueError(f"mode index {mode} out of range for {space.n_modes} modes")
    d = space.dims[mode]
    if d < 2:
        raise ValueError(f"cutoff {d} < 2")  # unreachable via TruncatedSpace
    low = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)
    full = np.array([[1.0 + 0j]])
    for i, di in enumerate(space.dims):
        factor = low if i == mode else np.eye(di, dtype=complex)
        full = np.kron(full, factor)
    lower = OperatorMatrix(space, full)
    raise_ = lower.dag()
    number = raise_ @ lower
    return lower, raise_, number


def vectorize(rho) -> np.ndarray:
    """Column-stack a density matrix (or any operator) into a vector."""
    data = rho.data if isinstance(rho, OperatorMatrix) else np.asarray(rho)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {data.shape}")
    return np.asarray(data, dtype=complex).flatten(order="F")


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
    return vectorize(identity(space)).conj()


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


def lindblad_superoperator(
    h: OperatorMatrix,
    channels: list[tuple[float, OperatorMatrix]],
) -> Superoperator:
    """Assemble -i[H, .] + sum_k rate_k D[L_k] under column stacking.

    Parameters
    ----------
    h : OperatorMatrix
        Hamiltonian (Hermitian not enforced; the caller owns that).
    channels : list of (rate, L)
        Non-negative rates with their jump operators, all on ``h.space``.
    """
    space = h.space
    hs = sp.csr_matrix(h.data)
    gen = -1j * (left_mult(hs) - right_mult(hs))
    for rate, l_opm in channels:
        if rate < 0:
            raise ValueError(f"negative dissipation rate {rate}")
        if l_opm.space.dims != space.dims:
            raise ValueError("channel operator lives on a different space")
        if rate == 0.0:
            continue
        gen = gen + rate * _dissipator(sp.csr_matrix(l_opm.data))
    return Superoperator(space, gen)


def heisenberg_superoperator(
    h: OperatorMatrix,
    channels: list[tuple[float, OperatorMatrix]],
) -> Superoperator:
    """Adjoint (Heisenberg-picture) generator, built independently.

    L^dag A = +i[H, A] + sum_k rate_k (L_k^dag A L_k - (1/2){L_k^dag L_k, A}),
    so that <L^dag(A), rho> = <A, L(rho)> with <A, B> = Tr[A^dag B].
    """
    space = h.space
    hs = sp.csr_matrix(h.data)
    gen = 1j * (left_mult(hs) - right_mult(hs))
    for rate, l_opm in channels:
        if rate < 0:
            raise ValueError(f"negative dissipation rate {rate}")
        if l_opm.space.dims != space.dims:
            raise ValueError("channel operator lives on a different space")
        if rate == 0.0:
            continue
        ls = sp.csr_matrix(l_opm.data)
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
