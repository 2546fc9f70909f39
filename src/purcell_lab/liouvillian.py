"""Generator (Liouvillian) builders for the four model variants.

Each builder returns a :class:`GeneratorBundle` whose superoperator is
assembled under the repo-wide column-stacking convention.  The hybridized
("blackbox") builder works directly in the dressed basis: the dressed mode
ladder operators ARE the mode operators of the space, and the basis change
is absorbed entirely into the frame constants.  This avoids double-counting
the O(g/Delta) basis rotation.

Every generator is a sum  L = sum_k c_k S_k  over one table of
unit-coefficient sparse terms (Hamiltonian terms with S_k = -i[O_k, .],
dissipators, correlated-dissipation pieces).  The builders differ only in
the coefficient map c_k they take from their frame; term toggles drop keys
from that map, and the perturbation parts are partial sums of it.

The table depends only on the cutoff, so it is built once per
:class:`TruncatedSpace` per process and kept as a layout: one sorted
sparsity pattern for every term, each term as positions and real values
on it (:func:`_build_layout`).  The sum over it (:func:`_term_sum`) is a
few scatter-adds on one data vector, in the same order for every
generator, and gives the same CSR arrays, bit for bit, as adding the
terms as sparse matrices one by one.  A second layout per cutoff is the
first restricted to the population block M = 0 (M is the ket's excitation
number minus the bra's), with the keys of the terms that join it to the
rest and its mask (:func:`_build_block_layout`); the same sum over it
gives the block of a generator whose nonzero terms leave it closed, bit
for bit the slice of the full generator.  A bundle keeps its coefficient
map and assembles the full generator on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fockspace import (
    Superoperator,
    TruncatedSpace,
    _dissipator,
    ladder_operators,
    left_mult,
    right_mult,
    sandwich,
)
from .model import DisplacedFrame, PolaritonFrame, SystemParams, polariton_frame


@dataclass(frozen=True)
class TermToggles:
    """Book-keeping switches for the interaction and dissipation terms.

    include_crs : cross-Kerr density-density coupling
    include_nc : nonlinear (excitation-number-dependent) conversion
    include_cd : correlated dissipation coupling the two dressed modes
    include_drive : residual nonlinear drive (displaced builder only)
    """

    include_crs: bool = True
    include_nc: bool = True
    include_cd: bool = True
    include_drive: bool = True


class GeneratorBundle:
    """A builder's generator plus the context it was built in.

    basis is one of "bare", "blackbox", "displaced".  frame is the
    PolaritonFrame (bare/blackbox) or DisplacedFrame (displaced) whose
    constants parameterize the generator.  The bundle holds its space and
    coefficient map ``coeffs`` and assembles ``superop``, the sum over the
    space's layout, on first access.
    """

    def __init__(self, frame: object, basis: str, params: SystemParams,
                 space: TruncatedSpace, coeffs: dict[str, complex]):
        self.frame, self.basis, self.params = frame, basis, params
        self.space, self.coeffs = space, coeffs
        self._superop = None

    @property
    def superop(self) -> Superoperator:
        # a concurrent first access only assembles the same generator twice
        if self._superop is None:
            self._superop = _generator(self.space, self.coeffs)
        return self._superop

    @property
    def t1_rate_scale(self) -> float:
        """Characteristic slow relaxation rate used for eigensolver shifts."""
        frame = self.frame
        if isinstance(frame, DisplacedFrame):
            frame = frame.dressed
        scale = frame.kappa_a_t
        if scale <= 0:
            scale = 1e-3 * max(
                self.params.kappa_a, self.params.kappa_c, 1e-9
            )
        return scale


# Table keys each toggle (and each perturbation part) covers.
_TOGGLED_TERMS = {
    "crs": ("cross_kerr",),
    "nc": ("conversion",),
    "cd": ("cd_anticommutator", "cd_down", "cd_up"),
    "drive": ("drive", "drive_dag"),
}


def _mode_terms(
    ladder: tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix], tag: str
) -> tuple[dict[str, sp.csr_matrix], dict[str, sp.csr_matrix]]:
    """Unit-coefficient terms local to one mode, given its (lower, raise,
    number) operators: n ("n_<tag>"), a^dag a^dag a a ("kerr_<tag>"), D[a]
    ("decay_<tag>") and D[a^dag] ("heat_<tag>")."""
    lower, raise_, number = ladder
    return (
        {f"n_{tag}": number, f"kerr_{tag}": raise_ @ raise_ @ lower @ lower},
        {f"decay_{tag}": _dissipator(lower), f"heat_{tag}": _dissipator(raise_)},
    )


# One layout per cutoff (:func:`_build_layout`), shared by every generator
# built in the process.  Unbounded: a layout holds 0.55 MB at (8, 6) and
# 1.6 MB at (10, 8), and a sweep touches two cutoffs (its grid's and the
# bumped precheck's).  A concurrent miss only builds an identical layout
# twice; the store is one dict assignment, so no lock is needed.
_TERM_TABLES: dict[TruncatedSpace, tuple] = {}


def _term_table(space: TruncatedSpace) -> tuple:
    """The layout of ``space``, built on the first call for that space and
    shared afterwards; its arrays are read-only."""
    layout = _TERM_TABLES.get(space)
    if layout is None:
        layout = _TERM_TABLES[space] = _build_layout(space)
    return layout


def _unit_terms(
    space: TruncatedSpace,
) -> tuple[dict[str, sp.csr_matrix], dict[str, sp.csr_matrix]]:
    """Unit-coefficient terms of every generator: (operators, superoperators).

    Hamiltonian terms are kept as operators O_k; their superoperators are
    S_k = -i[O_k, .].  Dissipative terms are superoperators S_k.  A
    one-mode space has only its mode's local terms (:func:`_mode_terms`,
    tag "m").  On two modes each contributes its local terms (tags "c" and
    "a"); the two share n_c n_a ("cross_kerr"), a^dag c + c^dag a
    ("exchange"), a^dag a^dag a c + h.c. ("conversion"), a^dag a^dag a
    ("drive") and its adjoint ("drive_dag"), and the three pieces of the
    correlated dissipation between the two dressed modes,

        L_cd rho = -((gamma_up + gamma_down)/2) {a^dag c + c^dag a, rho}
                   + gamma_down (a rho c^dag + c rho a^dag)
                   + gamma_up   (a^dag rho c + c^dag rho a),

    keyed "cd_anticommutator", "cd_down" and "cd_up"; L_cd is
    trace-preserving for any real gamma_up, gamma_down.
    """
    if space.n_modes == 1:
        return _mode_terms(ladder_operators(space, 0), "m")
    cavity, qubit = ladder_operators(space, 0), ladder_operators(space, 1)
    (c, cd, nc), (a, ad, na) = cavity, qubit
    exchange = ad @ c + cd @ a
    conversion = ad @ ad @ a @ c
    drive = ad @ ad @ a
    (ops_c, sops_c), (ops_a, sops_a) = _mode_terms(cavity, "c"), _mode_terms(qubit, "a")
    operators = {
        **ops_c,
        **ops_a,
        "cross_kerr": nc @ na,
        "exchange": exchange,
        "conversion": conversion + conversion.conj().T,
        "drive": drive,
        "drive_dag": drive.conj().T,
    }
    superoperators = {
        **sops_c,
        **sops_a,
        "cd_anticommutator": -0.5 * (left_mult(exchange) + right_mult(exchange)),
        "cd_down": sandwich(a, cd) + sandwich(c, ad),
        "cd_up": sandwich(ad, c) + sandwich(cd, a),
    }
    return operators, superoperators


def _build_layout(space: TruncatedSpace) -> tuple:
    """The terms of :func:`_unit_terms` on one sparsity pattern:
    ``(indptr, indices, lift, operators, superoperators)``.

    ``indptr``/``indices`` are the sorted CSR union pattern of every
    superoperator term and of -i[h, .] for h on the union pattern of the
    operator terms.  Each term maps to ``(positions, values)``: int32
    positions into its pattern and float64 values (every term is real).
    ``lift`` is ``(entries, index, left, right)``: h has ``entries``
    entries, and entry ``index[j]`` sits at ``left[i, j]`` in the left
    multiplication 1 (x) h and at ``right[i, j]`` in the right one
    h^T (x) 1 (here ``index`` is every entry and ``left``/``right`` have
    shape (N, entries)).
    """
    n = space.total_dim
    n2 = n * n

    def frozen(arr):
        arr.flags.writeable = False
        return arr

    def entries(mat, width):  # linear keys and values, in CSR order
        coo = mat.tocoo()
        return coo.row * np.int64(width) + coo.col, frozen(coo.data.real.copy())

    def placed(keys, pattern):
        return frozen(np.searchsorted(pattern, keys).astype(np.int32))

    # the sparse terms are dropped as soon as their entries are read
    ops, sops = (
        {key: entries(mat, width) for key, mat in terms.items()}
        for terms, width in zip(_unit_terms(space), (n, n2))
    )
    h_pattern = np.unique(np.concatenate([k for k, _ in ops.values()]))
    rows, cols = np.divmod(h_pattern, n)
    # entry (r, c) of h sits at (i n + r, i n + c) and (c n + i, r n + i)
    block = np.arange(n)[:, None] * (n2 + 1)
    lift = (block * n + rows * n2 + cols, block + (cols * n2 + rows) * n)
    pattern = np.concatenate([*lift, *(k for k, _ in sops.values())], axis=None)
    pattern.sort()  # in place: np.unique would sort a copy
    pattern = pattern[np.concatenate(([True], pattern[1:] != pattern[:-1]))]
    index = frozen(np.arange(len(h_pattern), dtype=np.int32))
    return (
        placed(np.arange(n2 + 1) * n2, pattern),
        frozen((pattern % n2).astype(np.int32)),
        (len(h_pattern), index, *(placed(k, pattern) for k in lift)),
        {key: (placed(k, h_pattern), v) for key, (k, v) in ops.items()},
        {key: (placed(k, pattern), v) for key, (k, v) in sops.items()},
    )


# The block layout of each cutoff (:func:`_build_block_layout`), kept like
# ``_TERM_TABLES``: 0.1 MB at (8, 6) and 0.2 MB at (10, 8).
_BLOCK_TABLES: dict[TruncatedSpace, tuple] = {}


def _block_table(space: TruncatedSpace) -> tuple:
    """(block layout, joining keys, population mask) of ``space``, built on
    the first call for that space and shared afterwards, read-only."""
    table = _BLOCK_TABLES.get(space)
    if table is None:
        table = _BLOCK_TABLES[space] = _build_block_layout(space)
    return table


def _build_block_layout(space: TruncatedSpace) -> tuple:
    """The layout of :func:`_term_table` restricted to the rows and columns
    of the population block M = 0, in their order, the keys of the terms
    with an entry joining that block to the rest, and the mask of that
    block over the generator's components (the one definition of M = 0).

    Its ``lift`` keeps, flat, the (component, entry of h) pairs that fall
    in the block; the operator terms, and so h, are shared.  Each kept
    entry gets the sums of the full layout in the same order, so
    :func:`_term_sum` over it gives the slice of the full generator.
    """
    indptr, indices, (entries, index, left, right), operators, superoperators = (
        _term_table(space)
    )
    excitations = [sum(space.occupations(i)) for i in range(space.total_dim)]
    population = np.equal.outer(excitations, excitations).ravel()
    rows = np.repeat(population, np.diff(indptr))  # of each stored entry
    inside, joins = rows & population[indices], rows != population[indices]
    at = np.concatenate(([0], np.cumsum(inside))).astype(np.int32)  # block position
    # h's entry (r, c) at component i is in the block when r, c and i have
    # one excitation number, on the left and on the right alike
    kept = inside[left]
    layout = (
        at[indptr[np.append(np.flatnonzero(population), len(population))]],
        (np.cumsum(population) - 1)[indices[inside]].astype(np.int32),
        (entries, np.broadcast_to(index, left.shape)[kept], at[left[kept]],
         at[right[kept]]),
        operators,
        {key: (at[pos[inside[pos]]], values[inside[pos]])
         for key, (pos, values) in superoperators.items()},
    )
    terms = [arr for term in layout[4].values() for arr in term]
    for arr in (*layout[:2], *layout[2][1:], *terms, population):
        arr.flags.writeable = False
    joining = {key for key, (pos, _) in superoperators.items() if joins[pos].any()}
    joining.update(key for key, (pos, _) in operators.items()
                   if joins[left[:, pos]].any() or joins[right[:, pos]].any())
    return layout, frozenset(joining), population


def _term_sum(layout: tuple, coeffs: dict[str, complex]) -> sp.csr_matrix:
    """sum_k c_k S_k over the layout (or the block layout), in the order of
    ``coeffs``.

    The Hamiltonian part is taken as -i[sum_k c_k O_k, .], equal to
    sum_k c_k S_k by linearity but rounded like the operator-level
    Hamiltonian of the frame.  The time-domain rate fit is that sensitive
    to generator roundoff (a last-bit change moves its rate by 0.3% at
    cutoff (6, 5)), so the order of the floating-point sums is part of the
    result.  Zero coefficients are skipped.  The sums run on one data vector
    over the layout's pattern and give the values, signed zeros and pattern
    of the same sums taken term by term in scipy.sparse.
    """
    indptr, indices, (entries, index, left, right), operators, superoperators = layout
    h = np.zeros(entries, dtype=complex)
    for key, coeff in coeffs.items():
        if coeff != 0 and key in operators:
            pos, values = operators[key]
            h[pos] += coeff * values
    h = h[index]
    data = np.zeros(len(indices), dtype=complex)
    data[left] += h
    data[right] -= h
    data *= -1j
    dissipative = False
    for key, coeff in coeffs.items():
        if coeff != 0 and key in superoperators:
            pos, values = superoperators[key]
            data[pos] += coeff * values
            dissipative = True
    if dissipative:  # as a sparse addition does, make every exact zero part +0
        data += 0.0
    keep = data != 0  # exact zeros are dropped, as sparse additions drop them
    return sp.csr_matrix(
        (data[keep], indices[keep], np.searchsorted(np.flatnonzero(keep), indptr)),
        shape=(len(indptr) - 1,) * 2,
    )


def _generator(space: TruncatedSpace, coeffs: dict[str, complex]) -> Superoperator:
    return Superoperator(space, _term_sum(_term_table(space), coeffs))


def _toggled(coeffs: dict[str, complex], toggles: TermToggles) -> dict[str, complex]:
    """The coefficient map without the keys of switched-off terms."""
    dropped = {
        key
        for name, keys in _TOGGLED_TERMS.items()
        if not getattr(toggles, f"include_{name}")
        for key in keys
    }
    return {k: v for k, v in coeffs.items() if k not in dropped}


def _bath_coefficients(mode: str, kappa: float, nbar: float) -> dict[str, float]:
    return {f"decay_{mode}": kappa * (1.0 + nbar), f"heat_{mode}": kappa * nbar}


def _bare_coefficients(params: SystemParams) -> dict[str, complex]:
    """Lab-frame Hamiltonian omega_a n_a + omega_c n_c + g (a^dag c + h.c.)
    - (U/2) a^dag a^dag a a plus the independent thermal baths."""
    return {
        "n_a": params.omega_a,
        "n_c": params.omega_c,
        "exchange": params.g,
        "kerr_a": -0.5 * params.U,
        **_bath_coefficients("c", params.kappa_c, params.nbar_c0),
        **_bath_coefficients("a", params.kappa_a, params.nbar_a0),
    }


def _polariton_coefficients(frame: PolaritonFrame) -> dict[str, complex]:
    return {
        "n_c": frame.omega_c_t,
        "n_a": frame.omega_a_t,
        "kerr_a": frame.chi_aa,
        "cross_kerr": frame.chi_ca,
        "conversion": frame.chi_t,
        **_bath_coefficients("c", frame.kappa_c_t, frame.n_c_t),
        **_bath_coefficients("a", frame.kappa_a_t, frame.n_a_t),
        "cd_anticommutator": frame.gamma_up + frame.gamma_down,
        "cd_down": frame.gamma_down,
        "cd_up": frame.gamma_up,
    }


def _displaced_coefficients(dframe: DisplacedFrame) -> dict[str, complex]:
    """The polariton frame at the drive-shifted detuning, rotating at the
    drive frequency, plus the residual drive V = drive_coeff * a^dag a^dag a
    + h.c.  The frame's baths are at zero temperature, so its heat_* and
    cd_up coefficients are zero and drop out of the sum."""
    coeffs = _polariton_coefficients(dframe.dressed)
    coeffs["n_c"] -= dframe.drive.omega_D
    coeffs["n_a"] -= dframe.drive.omega_D
    coeffs["drive"] = dframe.drive_coeff
    coeffs["drive_dag"] = np.conj(dframe.drive_coeff)
    return coeffs


def build_bare(params: SystemParams, space: TruncatedSpace) -> GeneratorBundle:
    """Lab-frame generator: bare Hamiltonian plus independent thermal baths."""
    return GeneratorBundle(
        polariton_frame(params), "bare", params, space, _bare_coefficients(params)
    )


def build_blackbox(
    frame: PolaritonFrame,
    params: SystemParams,
    space: TruncatedSpace,
    toggles: TermToggles = TermToggles(),
) -> GeneratorBundle:
    """Dressed-basis generator: independent dressed baths + optional couplings.

    Always includes the dressed harmonic part and the qubit self-Kerr;
    cross-Kerr, nonlinear conversion, and correlated dissipation follow the
    toggles.
    """
    coeffs = _toggled(_polariton_coefficients(frame), toggles)
    return GeneratorBundle(frame, "blackbox", params, space, coeffs)


def blackbox_perturbation_parts(
    frame: PolaritonFrame, space: TruncatedSpace
) -> dict[str, Superoperator]:
    """The three interaction terms as separate superoperators.

    Keys: "crs" (cross-Kerr commutator), "nc" (nonlinear conversion
    commutator), "cd" (correlated dissipation).  Their sum is exactly the
    difference between the full dressed generator and the decoupled one.
    """
    table = _term_table(space)
    coeffs = _polariton_coefficients(frame)
    return {
        name: Superoperator(
            space, _term_sum(table, {k: coeffs[k] for k in _TOGGLED_TERMS[name]})
        )
        for name in ("crs", "nc", "cd")
    }


def build_displaced(
    dframe: DisplacedFrame,
    params: SystemParams,
    space: TruncatedSpace,
    toggles: TermToggles = TermToggles(),
) -> GeneratorBundle:
    """Displaced rotating-frame generator (zero-temperature baths only)."""
    if params.nbar_a0 > 0 or params.nbar_c0 > 0:
        raise ValueError(
            "the displaced generator is derived for zero-temperature baths; "
            "got nbar_a0={}, nbar_c0={}".format(params.nbar_a0, params.nbar_c0)
        )
    coeffs = _toggled(_displaced_coefficients(dframe), toggles)
    return GeneratorBundle(dframe, "displaced", params, space, coeffs)
