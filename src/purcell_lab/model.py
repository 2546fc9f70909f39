"""System parameters and frame transformations.

All frequencies and rates are expressed in units of the qubit-cavity
detuning magnitude |Delta| (any CLI-level conversion from physical units
happens outside this module).

Three frames are provided:

* the bare frame (lab basis, no approximation beyond truncation),
* the hybridized ("blackbox") frame: normal modes of the quadratic
  Hamiltonian to second order in g/Delta, with dressed frequencies,
  nonlinearities, decay rates, occupancies, and the correlated-dissipation
  rates coupling the two dressed modes,
* the displaced frame for a coherently driven cavity: coherent
  displacements that remove the linear drive, the polariton frame at the
  drive-shifted detuning Delta' = Delta - 2U|alpha_a|^2, and a residual
  nonlinear drive; its generator rotates at the drive frequency.

The dressed constants are implemented exactly at the truncated order in
g/Delta at which the downstream rate formulas are derived, so analytic
formulas and numerics share one frame definition (square-root-exact
diagonalization of the quadratic part is deliberately NOT used).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

DISPERSIVE_ERROR = 0.5
DISPERSIVE_WARN = 0.3
DISPLACEMENT_WARN = 0.2  # |alpha_a|^2 above which the expansion is suspect
COND_LIMIT = 1e8  # condition number above which displacement() refuses


@dataclass(frozen=True)
class SystemParams:
    """Bare model constants, in units of |Delta|.

    omega_a, omega_c : bare qubit / cavity frequencies (their difference is
        the detuning Delta = omega_a - omega_c, which must be nonzero)
    g : transverse coupling
    U : self-Kerr (anharmonicity) of the qubit mode, >= 0
    kappa_a, kappa_c : bare energy decay rates
    nbar_a0, nbar_c0 : bare bath thermal occupancies
    """

    omega_a: float
    omega_c: float
    g: float
    U: float
    kappa_a: float
    kappa_c: float
    nbar_a0: float = 0.0
    nbar_c0: float = 0.0

    def __post_init__(self):
        if self.delta == 0.0:
            raise ValueError("detuning omega_a - omega_c must be nonzero")
        for name in ("U", "kappa_a", "kappa_c", "nbar_a0", "nbar_c0"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        ratio = abs(self.g / self.delta)
        if ratio >= DISPERSIVE_ERROR:
            raise ValueError(
                f"|g/Delta| = {ratio:.3g} is outside the dispersive regime "
                f"(limit {DISPERSIVE_ERROR})"
            )
        if ratio > DISPERSIVE_WARN:
            warnings.warn(
                f"|g/Delta| = {ratio:.3g} > {DISPERSIVE_WARN}: dressed-frame "
                "expansions are marginal",
                stacklevel=2,
            )

    @property
    def delta(self) -> float:
        return self.omega_a - self.omega_c


@dataclass(frozen=True)
class DriveParams:
    """Coherent cavity drive: amplitude f_c (complex) at frequency omega_D."""

    f_c: complex
    omega_D: float

    def __post_init__(self):
        if not (np.isfinite(self.f_c) and np.isfinite(self.omega_D)):
            raise ValueError("drive parameters must be finite")


@dataclass(frozen=True)
class PolaritonFrame:
    """Dressed-frame constants of the hybridized (undriven) system.

    Frequencies omega_*_t, nonlinear coefficients chi_*, dressed decay
    rates kappa_*_t, dressed occupancies n_*_t, the cavity-induced decay
    kappa_P, and the correlated-dissipation rates gamma_up / gamma_down
    that couple the two dressed modes through the shared baths.
    """

    delta: float
    omega_a_t: float
    omega_c_t: float
    chi_aa: float
    chi_ca: float
    chi_t: float
    kappa_a_t: float
    kappa_c_t: float
    kappa_P: float
    n_a_t: float
    n_c_t: float
    gamma_up: float
    gamma_down: float
    params: SystemParams


@dataclass(frozen=True)
class DisplacedFrame:
    """Drive-dressed constants in the displaced rotating frame.

    alpha_c, alpha_a solve the classical displacement problem.  dressed is
    the polariton frame at the drive-shifted detuning
    Delta' = Delta - 2U|alpha_a|^2, with the qubit frequency shifted by the
    same -2U|alpha_a|^2; its frequencies are lab-frame, and the displaced
    generator rotates them at drive.omega_D.  drive_coeff = -U * alpha_a
    multiplies the residual nonlinear single-photon drive
    (a'^dag a'^dag a' + h.c.).
    """

    alpha_c: complex
    alpha_a: complex
    dressed: PolaritonFrame
    drive_coeff: complex
    condition_number: float
    params: SystemParams
    drive: DriveParams


def polariton_frame(params: SystemParams) -> PolaritonFrame:
    """Dressed constants of the hybridized frame, to second order in g/Delta."""
    return _dressed(params, params.omega_a, params.delta)


def _dressed(params: SystemParams, omega_a: float, d: float) -> PolaritonFrame:
    """Polariton-frame constants for qubit frequency omega_a and detuning d;
    every other constant comes from params."""
    g, u = params.g, params.U
    ka, kc = params.kappa_a, params.kappa_c
    na0, nc0 = params.nbar_a0, params.nbar_c0
    s = (g / d) ** 2

    kappa_p = s * (kc - ka)
    kappa_a_t = ka + kappa_p
    kappa_c_t = kc + s * (ka - kc)

    # dressed occupancies: rate-weighted mixtures of the two baths; the 0/0
    # case (vanishing dressed rate) falls back to the mode's own bath
    num_a = ka * na0 + s * (kc * nc0 - ka * na0)
    n_a_t = num_a / kappa_a_t if kappa_a_t > 0 else na0
    num_c = kc * nc0 + s * (ka * na0 - kc * nc0)
    n_c_t = num_c / kappa_c_t if kappa_c_t > 0 else nc0

    return PolaritonFrame(
        delta=d,
        omega_a_t=omega_a + g**2 / d,
        omega_c_t=params.omega_c - g**2 / d,
        chi_aa=-(u / 2.0) * (1.0 - g**2 / (2.0 * d**2)),
        chi_ca=-2.0 * g**2 * u / d**2,
        chi_t=g * u / d,
        kappa_a_t=kappa_a_t,
        kappa_c_t=kappa_c_t,
        kappa_P=kappa_p,
        n_a_t=n_a_t,
        n_c_t=n_c_t,
        gamma_up=(g / d) * (kc * nc0 - ka * na0),
        gamma_down=(g / d) * (kc * (1.0 + nc0) - ka * (1.0 + na0)),
        params=params,
    )


def displacement(
    params: SystemParams, drive: DriveParams
) -> tuple[complex, complex, float]:
    """Coherent displacements and the condition number of their solve.

    The displacements satisfy the linear 2x2 system

        [[omega_c - omega_D - i kappa_c/2,  g                              ]
         [g,                                omega_a - omega_D - i kappa_a/2]]
        @ (alpha_c, alpha_a)^T = (-f_c, 0)^T.

    Returns (alpha_c, alpha_a, condition number).  Raises ValueError when
    the condition number exceeds ``COND_LIMIT``; emits no warning, so it
    also serves as a scale probe at unphysical amplitudes.
    """
    m = np.array(
        [
            [params.omega_c - drive.omega_D - 0.5j * params.kappa_c, params.g],
            [params.g, params.omega_a - drive.omega_D - 0.5j * params.kappa_a],
        ],
        dtype=complex,
    )
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ValueError(
            f"displacement solve is near-singular (condition number {cond:.3g}); "
            "the drive sits too close to a dressed resonance"
        )
    alpha_c, alpha_a = np.linalg.solve(m, np.array([-drive.f_c, 0.0], dtype=complex))
    return alpha_c, alpha_a, cond


def displaced_frame(params: SystemParams, drive: DriveParams) -> DisplacedFrame:
    """Solve the displacement problem and dress the frame at the drive.

    The displacements come from `displacement`; the dressed constants are
    the polariton frame's with Delta -> Delta' = Delta - 2U|alpha_a|^2 and
    omega_a -> omega_a - 2U|alpha_a|^2.  Only zero-temperature baths are
    supported.
    """
    if params.nbar_a0 > 0 or params.nbar_c0 > 0:
        raise ValueError("the displaced frame assumes zero-temperature baths")
    alpha_c, alpha_a, cond = displacement(params, drive)

    n_drive = float(abs(alpha_a) ** 2)
    if n_drive > DISPLACEMENT_WARN:
        warnings.warn(
            f"|alpha_a|^2 = {n_drive:.3g} > {DISPLACEMENT_WARN}: the displaced "
            "expansion keeps only leading drive terms",
            stacklevel=2,
        )

    u = params.U
    dprime = params.delta - 2.0 * u * n_drive
    if dprime == 0.0:
        raise ValueError("drive-shifted detuning Delta' vanished")

    return DisplacedFrame(
        alpha_c=complex(alpha_c),
        alpha_a=complex(alpha_a),
        dressed=_dressed(params, params.omega_a - 2.0 * u * n_drive, dprime),
        drive_coeff=-u * complex(alpha_a),
        condition_number=cond,
        params=params,
        drive=drive,
    )
