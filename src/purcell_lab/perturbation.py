"""Closed-form mode catalog and second-order rate corrections.

The decoupled dressed-frame generator factorizes into single-mode blocks
whose eigenmodes are known in closed form: thermal-oscillator population
modes, damped-oscillator coherence modes, and anharmonic (Kerr) coherence
modes that are perturbative in the linewidth.  This module builds that
catalog, runs a label-driven second-order perturbation engine over the
coupling superoperators, and evaluates the analytic decay-rate formulas
with a per-channel breakdown plus validity diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .fockspace import (
    Superoperator,
    TruncatedSpace,
    vectorize,
)
from .liouvillian import (
    GeneratorBundle,
    _bath_coefficients,
    _generator,
    blackbox_perturbation_parts,
)
from .model import DisplacedFrame, PolaritonFrame, SystemParams
from .spectral import ModeLabel, SpectralMode, t1_rate_diag, t1_rate_fit

# Relative gap below which the perturbation target counts as degenerate.
DEGENERACY_RTOL = 1e-9
# Relative reconstruction error above which the intermediate-sector set is
# reported as incomplete.
COVERAGE_WARN = 1e-6
# Closed-form modes must satisfy the decoupled block to this relative
# residual (truncation-edge rows excluded).
RESIDUAL_RTOL = 1e-8
# Anharmonic coherence modes are perturbative in the linewidth; reject
# catalogs where the anharmonicity does not dominate it by this factor.
KERR_GUARD_FACTOR = 10.0
# Occupancy above which the low-temperature rate formulas degrade.
THERMAL_OCC_WARN = 0.2
# Detuning-to-linewidth ratio below which the sideband formula degrades.
SIDEBAND_RATIO_MIN = 10.0


# ---------------------------------------------------------------------------
# closed-form coefficient families
# ---------------------------------------------------------------------------


def _population_right(k: int, dim: int, nbar: float) -> np.ndarray:
    """Diagonal of the k-th population-relaxation right mode (decay -k*kappa)."""
    q = nbar / (1.0 + nbar)
    out = np.zeros(dim)
    for n in range(dim):
        acc = 0.0
        for j in range(0, min(k, n) + 1):
            acc += comb(k, j) * (-1.0) ** j * comb(n - j + k, k) * q ** (n - j)
        out[n] = acc / (1.0 + nbar) ** (k + 1)
    return out


def _population_left(k: int, dim: int, nbar: float) -> np.ndarray:
    """Diagonal of the k-th population-relaxation left mode."""
    out = np.zeros(dim)
    for n in range(dim):
        acc = 0.0
        for j in range(0, k + 1):
            acc += comb(k, j) * (1.0 + nbar) ** j * (-nbar) ** (k - j) * comb(
                n - j + k, k
            )
        out[n] = acc
    return out


def _coherence_right(dim: int, nbar: float) -> np.ndarray:
    """Single-quantum coherence right-mode coefficients of a damped oscillator."""
    q = nbar / (1.0 + nbar)
    n = np.arange(dim - 1)
    return q**n * np.sqrt(n + 1.0)


def _coherence_left(dim: int) -> np.ndarray:
    """Left-mode partner of :func:`_coherence_right` (occupancy independent)."""
    return np.sqrt(np.arange(1.0, dim))


def _single_mode_factor(
    m: int, k: int, dim: int, omega: float, kerr: float, kappa: float, nbar: float
) -> tuple[complex, np.ndarray, np.ndarray]:
    """Closed-form factor mode (eigenvalue, right matrix, left matrix).

    m = 0 selects the k-th population-relaxation mode; m = +/-1 selects the
    single-quantum coherence family: the geometric damped-oscillator mode
    when kerr == 0 (k must be 0), or the Fock outer product |k+m><k| with
    the linewidth-perturbative eigenvalue when kerr != 0.
    """
    if m == 0:
        lam = complex(-k * kappa)
        right = np.diag(_population_right(k, dim, nbar)).astype(complex)
        left = np.diag(_population_left(k, dim, nbar)).astype(complex)
        return lam, right, left
    if abs(m) != 1:
        raise ValueError(f"no closed form for coherence order m = {m}")
    if kerr == 0.0:
        if k != 0:
            raise ValueError(
                "harmonic coherence vectors are cataloged only for the lowest "
                f"family member (k = 0), got k = {k}"
            )
        lam = -1j * m * omega - 0.5 * kappa
        right = np.diag(_coherence_right(dim, nbar), k=-m).astype(complex)
        left = np.diag(_coherence_left(dim), k=-m).astype(complex)
        return lam, right, left
    lam = -1j * m * (omega + 2.0 * kerr * k) - 0.5 * kappa * (
        nbar * (2 * k + 3) + (1.0 + nbar) * (2 * k + 1)
    )
    right = np.zeros((dim, dim), dtype=complex)
    if m == 1:
        right[k + 1, k] = 1.0
    else:
        right[k, k + 1] = 1.0
    return lam, right, right.copy()


def decoupled_block(
    dim: int, omega: float, kerr: float, kappa: float, nbar: float
) -> np.ndarray:
    """Dense generator of a single damped (an)harmonic mode.

    Used as the brute-force reference the closed-form catalog is validated
    against: ``-i[omega n + kerr a^dag a^dag a a, .]`` plus a thermal bath
    of rate ``kappa`` and occupancy ``nbar``, summed over the layout of the
    one-mode space ``TruncatedSpace((dim,))`` the way the model generators
    are summed over theirs (built once per ``dim`` and shared).
    """
    coeffs = {"n_m": omega, "kerr_m": kerr, **_bath_coefficients("m", kappa, nbar)}
    return _generator(TruncatedSpace((dim,)), coeffs).data.toarray()


def _edge_mask(dim: int) -> np.ndarray:
    """Vectorized-component mask keeping bra/ket occupations below dim - 2."""
    idx = np.arange(dim * dim)
    row, col = idx % dim, idx // dim
    return (row < dim - 2) & (col < dim - 2)


def _kerr_residual_bound(k: int, nbar: float, kappa: float) -> tuple[float, float]:
    """Residual envelope of the linewidth-perturbative coherence vectors."""
    r = (1.0 + nbar) ** 2 * k * (k + 1) + nbar**2 * (k + 1) * (k + 2)
    l = nbar**2 * k * (k + 1) + (1.0 + nbar) ** 2 * (k + 1) * (k + 2)
    return 3.0 * kappa * np.sqrt(r), 3.0 * kappa * np.sqrt(l)


# ---------------------------------------------------------------------------
# mode-set assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnperturbedModeSet:
    """Closed-form product eigenmodes of the decoupled generator.

    Each mode is a cavity factor times a qubit factor: the cavity
    contributes its steady population mode (m_c = 0) or its lowest
    coherence mode (m_c = +/-1), the qubit contributes the k-th member of
    its population (m_a = 0) or anharmonic coherence (m_a = +/-1) family.
    Vectors follow the reporting convention: left modes have unit Frobenius
    norm and right modes satisfy <l, r> = 1.  ``scale`` is a magnitude
    proxy for the decoupled generator used in degeneracy checks.
    """

    space: TruncatedSpace
    frame: PolaritonFrame
    modes: tuple[SpectralMode, ...]
    scale: float

    def find(self, label: ModeLabel) -> SpectralMode:
        """Return the mode whose label matches (m_c, m_a, k)."""
        for mode in self.modes:
            lab = mode.label
            if (lab.m_c, lab.m_a, lab.k) == (label.m_c, label.m_a, label.k):
                return mode
        raise ValueError(
            f"no cataloged mode with label ({label.m_c}, {label.m_a}, {label.k})"
        )


def _validate_factor(
    side: str,
    block: np.ndarray,
    mask: np.ndarray,
    lam: complex,
    right: np.ndarray,
    left: np.ndarray,
    tol_r: float,
    tol_l: float,
) -> None:
    rv, lv = vectorize(right), vectorize(left)
    res_r = np.linalg.norm(((block @ rv) - lam * rv)[mask]) / np.linalg.norm(rv)
    res_l = np.linalg.norm(
        ((block.conj().T @ lv) - np.conj(lam) * lv)[mask]
    ) / np.linalg.norm(lv)
    if res_r > tol_r or res_l > tol_l:
        raise ValueError(
            f"closed-form {side} factor failed brute-force validation: "
            f"residuals ({res_r:.3e}, {res_l:.3e}) exceed ({tol_r:.3e}, {tol_l:.3e})"
        )


def unperturbed_modes(
    frame: PolaritonFrame,
    cutoffs,
    sectors,
) -> UnperturbedModeSet:
    """Assemble closed-form product modes for the requested sectors.

    Parameters
    ----------
    frame : PolaritonFrame
        Dressed constants of the decoupled generator.
    cutoffs : TruncatedSpace or (int, int)
        Cavity and qubit Fock cutoffs.
    sectors : iterable of (m_c, m_a, k)
        Coherence sector of each requested mode plus the qubit family index
        k.  The cavity factor is its steady mode for m_c = 0 and its lowest
        coherence mode for m_c = +/-1; k indexes the qubit family.

    Every distinct factor mode is checked against a brute-force single-mode
    block to ``RESIDUAL_RTOL``, excluding the top two Fock levels.

    Returns
    -------
    UnperturbedModeSet

    Raises
    ------
    ValueError
        For sectors outside the truncation, coherence orders without a
        closed form, or an anharmonicity too small for the perturbative
        coherence vectors (U < 10 kappa_a_t).
    """
    space = cutoffs if isinstance(cutoffs, TruncatedSpace) else TruncatedSpace(
        tuple(cutoffs)
    )
    if space.n_modes != 2:
        raise ValueError("the mode catalog expects a two-mode (cavity, qubit) space")
    d_c, d_a = space.dims
    u = frame.params.U

    seen: list[tuple[int, int, int]] = []
    for sector in sectors:
        mc, ma, k = (int(x) for x in sector)
        if (mc, ma, k) in seen:
            continue
        if abs(mc) > 1 or abs(ma) > 1:
            raise ValueError(f"no closed form for sector (m_c, m_a) = ({mc}, {ma})")
        if k < 0:
            raise ValueError(f"family index k = {k} must be nonnegative")
        k_top = d_a - 1 if ma == 0 else d_a - 2
        if k > k_top:
            raise ValueError(
                f"sector ({mc}, {ma}, {k}) outside the qubit truncation {d_a}"
            )
        if ma != 0 and u < KERR_GUARD_FACTOR * frame.kappa_a_t:
            raise ValueError(
                "anharmonic coherence modes are perturbative in the linewidth "
                f"and need U >= {KERR_GUARD_FACTOR:g} kappa_a_t; got U = {u:g}, "
                f"kappa_a_t = {frame.kappa_a_t:g}"
            )
        seen.append((mc, ma, k))

    kerr = -0.5 * u
    factors: dict[tuple[str, int, int], tuple[complex, np.ndarray, np.ndarray]] = {}
    for mc, ma, k in seen:
        if ("c", mc, 0) not in factors:
            factors[("c", mc, 0)] = _single_mode_factor(
                mc, 0, d_c, frame.omega_c_t, 0.0, frame.kappa_c_t, frame.n_c_t
            )
        if ("a", ma, k) not in factors:
            factors[("a", ma, k)] = _single_mode_factor(
                ma, k, d_a, frame.omega_a_t, kerr, frame.kappa_a_t, frame.n_a_t
            )

    blocks = {
        "c": decoupled_block(d_c, frame.omega_c_t, 0.0, frame.kappa_c_t, frame.n_c_t),
        "a": decoupled_block(d_a, frame.omega_a_t, kerr, frame.kappa_a_t, frame.n_a_t),
    }
    masks = {"c": _edge_mask(d_c), "a": _edge_mask(d_a)}
    for (side, m, k), (lam, right, left) in factors.items():
        scale = float(np.abs(np.diag(blocks[side])).max())
        tol = RESIDUAL_RTOL * scale
        tol_r = tol_l = tol
        if side == "a" and m != 0:
            bound_r, bound_l = _kerr_residual_bound(k, frame.n_a_t, frame.kappa_a_t)
            tol_r, tol_l = tol + bound_r, tol + bound_l
        _validate_factor(
            side, blocks[side], masks[side], lam, right, left, tol_r, tol_l
        )

    modes = []
    for mc, ma, k in seen:
        lam_c, right_c, left_c = factors[("c", mc, 0)]
        lam_a, right_a, left_a = factors[("a", ma, k)]
        lam = lam_c + lam_a
        right = vectorize(np.kron(right_c, right_a))
        left = vectorize(np.kron(left_c, left_a))
        left = left / np.linalg.norm(left)
        right = right / np.vdot(left, right)
        kind = "T1" if (mc, ma) == (0, 0) else "T2"
        modes.append(
            SpectralMode(
                lam=lam,
                right=right,
                left=left,
                label=ModeLabel(m_c=mc, m_a=ma, k=k, kind=kind),
            )
        )

    scale = d_c * abs(frame.omega_c_t) + d_a * abs(frame.omega_a_t)
    scale = max(scale, frame.kappa_a_t, frame.kappa_c_t)
    return UnperturbedModeSet(
        space=space, frame=frame, modes=tuple(modes), scale=float(scale)
    )


# ---------------------------------------------------------------------------
# perturbation engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationResult:
    """Eigenvalue corrections of a target mode under one coupling term.

    channels maps each intermediate-mode label (m_c, m_a, k) to its
    additive second-order contribution; lambda2 is their sum.
    """

    lambda1: complex
    lambda2: complex
    channels: dict[tuple[int, int, int], complex]


def pt_corrections(
    modes: UnperturbedModeSet, L1: Superoperator, target: ModeLabel
) -> PerturbationResult:
    """First- and second-order eigenvalue corrections of the target mode.

    Implements nondegenerate perturbation theory over the supplied catalog:
    lambda1 = <l_t, L1 r_t> and lambda2 = -sum_b <l_t, L1 r_b><l_b, L1 r_t>
    / (lambda_b - lambda_t), summed over the cataloged intermediates.  The
    coupling terms only connect sectors differing by (m_c, m_a) ->
    (m_c -/+ 1, m_a +/- 1), so a catalog holding those sectors is complete;
    a reconstruction check warns when the perturbed vector leaks outside
    the supplied set.

    Raises
    ------
    ValueError
        If the target label is not in the catalog, the spaces disagree, or
        the target is degenerate within the set.
    """
    if L1.space.dims != modes.space.dims:
        raise ValueError("perturbation and mode catalog live on different spaces")
    tgt = modes.find(target)
    others = [m for m in modes.modes if m is not tgt]
    if others:
        gap = min(abs(m.lam - tgt.lam) for m in others)
        if gap < DEGENERACY_RTOL * modes.scale:
            raise ValueError(
                f"target mode is degenerate within the supplied set "
                f"(gap {gap:.3e} < {DEGENERACY_RTOL:g} * scale {modes.scale:.3e})"
            )

    mat = L1.data
    v = mat @ tgt.right
    vnorm = np.linalg.norm(v)
    if vnorm == 0.0:
        return PerturbationResult(0.0 + 0.0j, 0.0 + 0.0j, {})
    lambda1 = complex(np.vdot(tgt.left, v))
    u = mat.conj().T @ tgt.left

    channels: dict[tuple[int, int, int], complex] = {}
    recon = np.vdot(tgt.left, v) * tgt.right
    for mode in others:
        amp_in = np.vdot(mode.left, v)
        amp_out = np.vdot(u, mode.right)
        lab = mode.label
        channels[(lab.m_c, lab.m_a, lab.k)] = complex(
            -amp_out * amp_in / (mode.lam - tgt.lam)
        )
        recon = recon + amp_in * mode.right
    coverage = np.linalg.norm(v - recon) / vnorm
    if coverage > COVERAGE_WARN:
        warnings.warn(
            f"perturbation reaches sectors outside the supplied mode set "
            f"(unreconstructed fraction {coverage:.2e}); second-order sum "
            "is incomplete"
        )
    lambda2 = complex(sum(channels.values())) if channels else 0.0 + 0.0j
    return PerturbationResult(lambda1, lambda2, channels)


# ---------------------------------------------------------------------------
# rate breakdowns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gamma2Breakdown:
    """Qubit decay rate split into base and second-order coupling channels.

    base is the dressed linewidth; nc_nc and nc_cd are the
    conversion-conversion and conversion-dissipation channels; cd_cd is
    reported for completeness but expected negligible.  meta carries
    builder-specific context (dominant intermediates, limiting forms,
    regime tags).
    """

    base: float
    nc_nc: float
    nc_cd: float
    cd_cd: float
    meta: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        """base + nc_nc + nc_cd + cd_cd, summed in that order."""
        return self.base + self.nc_nc + self.nc_cd + self.cd_cd


def _check_conversion_resonance(p: SystemParams, what: str) -> None:
    """Raise ValueError at the conversion resonance Delta = U, where the
    (Delta - U) denominators of `what` vanish."""
    if abs(p.delta - p.U) <= 1e-12 * max(abs(p.delta), abs(p.U), 1.0):
        raise ValueError(f"conversion resonance Delta = U: {what} diverge")


def gamma_thermal_analytic(frame: PolaritonFrame) -> Gamma2Breakdown:
    """Leading-order thermal decay rate with per-channel breakdown.

    Evaluates the closed-form second-order channels of the undriven
    dressed model.  meta carries the two limiting-regime approximations of
    the total correction (converter-mediated loss dominant vs intrinsic
    qubit loss dominant) and which regime the supplied frame is in.

    Raises
    ------
    ValueError
        At the conversion resonance Delta = U, where the second-order
        denominators vanish.
    """
    p = frame.params
    d, g, u = p.delta, p.g, p.U
    _check_conversion_resonance(p, "second-order channel formulas")
    if max(p.nbar_c0, p.nbar_a0) > THERMAL_OCC_WARN:
        warnings.warn(
            f"bath occupancy above {THERMAL_OCC_WARN} is outside the "
            "low-temperature validity of the channel formulas"
        )
    pref = g**2 / d**2
    nc_cd = (
        pref
        * u
        / (d - u)
        * (
            8.0 * (p.kappa_c - p.kappa_a) * frame.n_a_t
            - 4.0 * (p.kappa_c * p.nbar_c0 - p.kappa_a * p.nbar_a0)
        )
    )
    nc_nc = (
        pref
        * u**2
        / (d - u) ** 2
        * (frame.kappa_a_t + frame.kappa_c_t)
        * (4.0 * frame.n_a_t - 2.0 * frame.n_c_t)
    )
    base = frame.kappa_a_t
    limit = 4.0 * g**2 * u * p.kappa_c * p.nbar_c0 / (d**2 * (d - u))
    kp = frame.kappa_P
    if kp >= 10.0 * p.kappa_a:
        regime = "converter_loss_dominant"
    elif p.kappa_a >= 10.0 * abs(kp):
        regime = "intrinsic_loss_dominant"
    else:
        regime = "mixed"
    meta = {
        "limit_correction_converter_dominant": +limit,
        "limit_correction_intrinsic_dominant": -limit,
        "regime": regime,
    }
    return Gamma2Breakdown(
        base=base,
        nc_nc=nc_nc,
        nc_cd=nc_cd,
        cd_cd=0.0,
        meta=meta,
    )


def gamma_thermal_pt(
    frame: PolaritonFrame, space: TruncatedSpace, k_max: int | None = None
) -> Gamma2Breakdown:
    """Numeric second-order decay rate from the perturbation engine.

    Runs :func:`pt_corrections` on the slow population mode with the
    conversion and correlated-dissipation superoperators, separately and
    combined, and attributes -Re lambda2 to the three channels.  The
    intermediate catalog holds both single-quantum coherence sectors with
    qubit family indices up to ``k_max`` (default: the truncation limit).
    """
    d_a = space.dims[1]
    k_hi = d_a - 2 if k_max is None else int(k_max)
    if not 0 <= k_hi <= d_a - 2:
        raise ValueError(f"k_max = {k_hi} outside the qubit truncation {d_a}")
    sectors = [(0, 0, 1)]
    for mc, ma in ((-1, 1), (1, -1)):
        sectors += [(mc, ma, k) for k in range(k_hi + 1)]
    modes = unperturbed_modes(frame, space, sectors)
    target = ModeLabel(m_c=0, m_a=0, k=1, kind="T1")

    parts = blackbox_perturbation_parts(frame, space)
    both = Superoperator(space, parts["nc"].data + parts["cd"].data)
    res_nc = pt_corrections(modes, parts["nc"], target)
    res_cd = pt_corrections(modes, parts["cd"], target)
    res_both = pt_corrections(modes, both, target)

    nc_nc = -res_nc.lambda2.real
    cd_cd = -res_cd.lambda2.real
    nc_cd = -(res_both.lambda2 - res_nc.lambda2 - res_cd.lambda2).real
    base = frame.kappa_a_t
    dominant = None
    if res_both.channels:
        dominant = max(res_both.channels, key=lambda lab: abs(res_both.channels[lab]))
    meta = {
        "dominant_intermediate": dominant,
        "channels": res_both.channels,
        "lambda1": {"nc": res_nc.lambda1, "cd": res_cd.lambda1},
        "k_max": k_hi,
    }
    return Gamma2Breakdown(
        base=base,
        nc_nc=nc_nc,
        nc_cd=nc_cd,
        cd_cd=cd_cd,
        meta=meta,
    )


def gamma_coherent_analytic(
    dframe: DisplacedFrame,
    frame: PolaritonFrame,
    kappa_c_at_qubit: float | None = None,
) -> Gamma2Breakdown:
    """Drive-dependent decay rate at zero temperature.

    Two conversion-channel effects enter: the drive-modified hybridization
    shifts the dressed linewidth to that of the polariton frame at the
    drive-shifted detuning Delta' = Delta - 2U|alpha_a|^2
    (dframe.dressed.kappa_a_t - frame.kappa_a_t), and the
    conversion sideband removes -2 U^2 / (omega_a_t - omega_D - U)^2 *
    kappa * |alpha_a|^2.  Passing ``kappa_c_at_qubit`` (the cavity bath
    density at the qubit frequency) replaces the sideband's dressed
    linewidth by (g/Delta)^2 * kappa_c_at_qubit for structured baths.
    meta splits the two effects.

    Raises
    ------
    ValueError
        For thermal inputs (the formula assumes zero temperature) or at
        the sideband resonance omega_a_t - omega_D = U.
    """
    p = frame.params
    if p.nbar_c0 != 0.0 or p.nbar_a0 != 0.0:
        raise ValueError("the drive-rate formula assumes zero-temperature baths")
    detune = frame.omega_a_t - dframe.drive.omega_D - p.U
    if abs(detune) <= 1e-12 * max(abs(frame.omega_a_t), abs(p.U), 1.0):
        raise ValueError(
            "sideband resonance: dressed qubit frequency minus drive equals "
            "the anharmonicity"
        )
    if frame.kappa_a_t > 0 and abs(detune) < SIDEBAND_RATIO_MIN * frame.kappa_a_t:
        warnings.warn(
            f"sideband detuning is within {SIDEBAND_RATIO_MIN:g} linewidths; "
            "the adiabatic-elimination formula degrades"
        )
    kap_eff = frame.kappa_a_t
    if kappa_c_at_qubit is not None:
        kap_eff = (p.g**2 / p.delta**2) * kappa_c_at_qubit
    n_drive = abs(dframe.alpha_a) ** 2
    hybridization = dframe.dressed.kappa_a_t - frame.kappa_a_t
    sideband = -2.0 * p.U**2 / detune**2 * kap_eff * n_drive
    nc_nc = hybridization + sideband
    base = frame.kappa_a_t
    meta = {
        "hybridization": hybridization,
        "sideband": sideband,
        "drive_photons": n_drive,
        "detune": detune,
        "non_markovian": kappa_c_at_qubit is not None,
    }
    return Gamma2Breakdown(
        base=base,
        nc_nc=nc_nc,
        nc_cd=0.0,
        cd_cd=0.0,
        meta=meta,
    )


def gamma_jc_analytic(params: SystemParams) -> float:
    """Golden-rule decay rate of the linear exchange model.

    Always increases with cavity occupancy and is even in the detuning;
    assumes no intrinsic qubit loss.
    """
    if params.kappa_a != 0.0:
        raise ValueError(
            "the exchange-model rate formula assumes no intrinsic qubit loss"
        )
    return (params.g**2 / params.delta**2) * params.kappa_c * (
        1.0 + 2.0 * params.nbar_c0
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    """Validity indicators of the analytic channel formulas.

    gamma4_estimate is the order-of-magnitude fourth-order correction with
    its resonant base-rate enhancement; flags lists raised regime flags.
    """

    gamma4_estimate: float
    flags: tuple[str, ...]


def diagnostics(frame: PolaritonFrame) -> DiagnosticsReport:
    """Regime diagnostics for the analytic rate formulas.

    Raises the "analytic-formula-degraded" flag when the converter-mediated
    loss dominates the intrinsic one while the anharmonicity is large
    (kappa_a < kappa_P and U >= 0.05 |Delta|), the corner where
    higher-order corrections grow.
    """
    p = frame.params
    d, g, u = p.delta, p.g, p.U
    _check_conversion_resonance(p, "diagnostics denominators")
    numerator = (
        (g**4 / d**4) * u**2 / (d - u) ** 2 * (p.kappa_c - p.kappa_a) ** 2 * frame.n_c_t
    )
    if frame.kappa_a_t > 0:
        gamma4 = numerator / frame.kappa_a_t
    else:
        gamma4 = np.inf if numerator > 0 else 0.0
    flags = []
    if p.kappa_a < frame.kappa_P and u >= 0.05 * abs(d):
        flags.append("analytic-formula-degraded")
    return DiagnosticsReport(gamma4_estimate=float(gamma4), flags=tuple(flags))


@dataclass(frozen=True)
class RateReport:
    """Cross-validated decay rate of one parameter point.

    Collects the eigenmode rate (reference), the time-domain fit, the
    analytic breakdown, and the perturbation-engine rate, with relative
    discrepancies of each against the eigenmode rate.
    """

    gamma_diag: float
    gamma_fit: float
    gamma_analytic: Gamma2Breakdown
    gamma_pt_numeric: float
    discrepancies: dict[str, float]

    def __post_init__(self):
        rates = {
            "gamma_diag": self.gamma_diag,
            "gamma_fit": self.gamma_fit,
            "gamma_analytic.total": self.gamma_analytic.total,
            "gamma_pt_numeric": self.gamma_pt_numeric,
        }
        for name, value in rates.items():
            if not value > 0:
                raise ValueError(f"{name} = {value!r} is not a positive rate")


def rate_report(bundle: GeneratorBundle) -> RateReport:
    """Full rate cross-check of one dressed-model generator.

    Runs the eigenmode protocol, the time-domain fit (default horizon and
    ``spectral.FIT_WINDOW``), the analytic formulas, and the perturbation
    engine on the same bundle.  Only meaningful for the dressed-frame
    ("blackbox") basis, whose analytic formulas these are.  The fit starts
    from the steady state the eigenmode protocol returns.
    """
    if bundle.basis != "blackbox":
        raise ValueError(
            f"rate_report needs a dressed-frame generator, got basis "
            f"{bundle.basis!r}"
        )
    diag = t1_rate_diag(bundle)
    gamma_diag = diag.gamma
    gamma_fit = t1_rate_fit(bundle, diag.rho_ss).gamma
    analytic = gamma_thermal_analytic(bundle.frame)
    pt = gamma_thermal_pt(bundle.frame, bundle.space)
    discrepancies = {
        "fit_vs_diag": (gamma_fit - gamma_diag) / gamma_diag,
        "analytic_vs_diag": (analytic.total - gamma_diag) / gamma_diag,
        "pt_vs_diag": (pt.total - gamma_diag) / gamma_diag,
    }
    return RateReport(
        gamma_diag=gamma_diag,
        gamma_fit=gamma_fit,
        gamma_analytic=analytic,
        gamma_pt_numeric=pt.total,
        discrepancies=discrepancies,
    )
