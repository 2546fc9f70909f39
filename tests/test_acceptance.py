"""End-to-end acceptance checks for the assembled package.

Each test prints exactly one line of the form

    ACCEPTANCE <n>: PASS|FAIL -- <measured values at the stated tolerances>

(run ``pytest tests/test_acceptance.py -s`` to see every line).  Two checks
record known accuracy limits of the leading-order analytic rates against
converged numerics and are expected to FAIL honestly; their printed lines and
the README carry the measurements.  No expected value here is frozen without
an independent source: targets are either the analytic formulas under test or
brute-force diagonalization computed in place.
"""

import math
import time
import warnings

import numpy as np
import pytest

from purcell_lab.cli import config_from_dict, run_scenario, write_rows
from purcell_lab.fockspace import TruncatedSpace, unvectorize, vectorize
from purcell_lab.liouvillian import (
    blackbox_perturbation_parts,
    build_bare,
    build_blackbox,
    build_displaced,
)
from purcell_lab.model import DriveParams, SystemParams, displaced_frame, polariton_frame
from purcell_lab.perturbation import (
    _edge_mask,
    _single_mode_factor,
    decoupled_block,
    diagnostics,
    gamma_coherent_analytic,
    gamma_thermal_analytic,
    gamma_thermal_pt,
    pt_corrections,
    unperturbed_modes,
)
from purcell_lab.spectral import (
    ModeLabel,
    steady_state,
    t1_rate_diag,
    t1_rate_fit,
    trace_functional,
)

OCC_GRID = (0.0, 0.05, 0.10, 0.15)


def make_params(**over):
    base = dict(omega_a=1.0, omega_c=0.0, g=0.1, U=0.01, kappa_a=0.0, kappa_c=0.01)
    base.update(over)
    return SystemParams(**base)


def _report(num, ok, details):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {details}"
    print(line)
    return line


def _runtime(wall, limit, digits):
    """Runtime clause of a report line, marked when the limit is broken."""
    clause = f"runtime {wall:.{digits}f}s"
    if wall < limit:
        return f"{clause} < {limit:g}s"
    return f"{clause} over limit {limit:g}s"


def test_c01_dispersive_rate_baseline():
    # Relaxation rate at zero temperature against the dispersive expression
    # kappa_a + (g/Delta)^2 (kappa_c - kappa_a), tolerance max(1%, 10 (g/Delta)^3).
    start = time.perf_counter()
    space = TruncatedSpace((8, 6))
    ok = True
    details = []
    for g in (0.05, 0.1):
        for kappa_a in (0.0, 0.001):
            params = make_params(g=g, kappa_a=kappa_a)
            gamma = t1_rate_diag(build_blackbox(polariton_frame(params), params, space)).gamma
            target = kappa_a + g**2 * (params.kappa_c - kappa_a)
            tol = max(0.01, 10.0 * g**3)
            rel = abs(gamma - target) / target
            ok = ok and rel <= tol
            details.append(f"g={g} ka={kappa_a}: rel {rel:.1e} (tol {tol:.1e})")
    wall = time.perf_counter() - start
    ok = ok and wall < 10.0
    line = _report(1, ok, "; ".join(details) + "; " + _runtime(wall, 10.0, 1))
    assert ok, line


def _thermal_slopes(sign, kappa_a, space):
    gammas, totals = [], []
    for nbar in OCC_GRID:
        params = make_params(omega_a=sign, kappa_a=kappa_a, nbar_c0=nbar)
        frame = polariton_frame(params)
        gammas.append(t1_rate_diag(build_blackbox(frame, params, space)).gamma)
        totals.append(gamma_thermal_analytic(frame).total)
    return np.polyfit(OCC_GRID, gammas, 1)[0], np.polyfit(OCC_GRID, totals, 1)[0]


def test_c02_thermal_slope_and_sign():
    # Least-squares slope of the relaxation rate over cavity occupancy against
    # the analytic slope (5%), opposite slope signs for opposite detunings, and
    # the slope-sign flip when the qubit gains a small intrinsic loss channel.
    start = time.perf_counter()
    space = TruncatedSpace((10, 8))
    ok = True
    parts = []
    numeric_a = {}
    for sign in (1.0, -1.0):
        s_num, s_ana = _thermal_slopes(sign, 0.0, space)
        ratio = s_num / s_ana
        within = abs(ratio - 1.0) <= 0.05
        ok = ok and within
        numeric_a[sign] = s_num
        parts.append(
            f"(a) D={sign:+.0f}: slope {s_num:.3e} vs {s_ana:.3e}, "
            f"ratio {ratio:.4f} [{'ok' if within else 'outside 5%'}]"
        )
    opposite = numeric_a[1.0] > 0.0 > numeric_a[-1.0]
    ok = ok and opposite
    parts.append(f"opposite signs: {'yes' if opposite else 'NO'}")
    for sign in (1.0, -1.0):
        s_num_b, _ = _thermal_slopes(sign, 0.001, space)
        flipped = (s_num_b > 0.0) != (numeric_a[sign] > 0.0)
        ok = ok and flipped
        parts.append(f"(b) D={sign:+.0f}: slope {s_num_b:.3e}, flips (a): {'yes' if flipped else 'NO'}")
    wall = time.perf_counter() - start
    ok = ok and wall < 120.0
    line = _report(2, ok, "; ".join(parts) + "; " + _runtime(wall, 120.0, 0))
    if not ok:
        pytest.fail(
            line + " | known limit: at D=+1 the converged numeric slope sits 5.4-5.7% below "
            "the leading-order analytic slope (occupancy corrections plus higher-order "
            "dressing), just outside the 5% tolerance; see README",
            pytrace=False,
        )


def test_c03_zero_temperature_floor():
    # With both baths at zero occupancy the rate equals the dressed qubit
    # linewidth to 1e-3 across the detuning / intrinsic-loss grid.
    space = TruncatedSpace((8, 6))
    worst = 0.0
    details = []
    for sign in (1.0, -1.0):
        for kappa_a in (0.0, 0.001):
            params = make_params(omega_a=sign, kappa_a=kappa_a)
            frame = polariton_frame(params)
            gamma = t1_rate_diag(build_blackbox(frame, params, space)).gamma
            rel = abs(gamma - frame.kappa_a_t) / frame.kappa_a_t
            worst = max(worst, rel)
            details.append(f"D={sign:+.0f} ka={kappa_a}: {rel:.1e}")
    ok = worst <= 1e-3
    line = _report(3, ok, ", ".join(details) + " (tol 1e-3)")
    assert ok, line


def test_c04_drive_sign_dependence():
    # Numeric rate-vs-drive-occupancy slope matches the analytic coherent-drive
    # correction within 10%, increasing for D>0 and decreasing for D<0.
    start = time.perf_counter()
    space = TruncatedSpace((8, 6))
    ok = True
    details = []
    for sign in (1.0, -1.0):
        params = make_params(omega_a=sign, U=0.1)
        frame = polariton_frame(params)
        gammas, totals, occs = [], [], []
        for target in (0.5, 1.0):
            with warnings.catch_warnings():
                # unit-amplitude probe fixes the drive scale; not a physical point
                warnings.simplefilter("ignore")
                unit = displaced_frame(params, DriveParams(f_c=1.0, omega_D=-0.1))
            amp = math.sqrt(target) / abs(unit.alpha_c)
            frame_d = displaced_frame(params, DriveParams(f_c=amp, omega_D=-0.1))
            gammas.append(t1_rate_diag(build_displaced(frame_d, params, space)).gamma)
            totals.append(gamma_coherent_analytic(frame_d, frame).total)
            occs.append(abs(frame_d.alpha_a) ** 2)
        s_num = (gammas[1] - gammas[0]) / (occs[1] - occs[0])
        s_ana = (totals[1] - totals[0]) / (occs[1] - occs[0])
        rel = abs(s_num - s_ana) / abs(s_ana)
        sign_ok = (s_num > 0.0) if sign > 0.0 else (s_num < 0.0)
        ok = ok and rel <= 0.10 and sign_ok
        details.append(
            f"D={sign:+.0f}: slope {s_num:.3e} vs {s_ana:.3e} "
            f"(rel {rel:.1%}, sign {'ok' if sign_ok else 'WRONG'})"
        )
    wall = time.perf_counter() - start
    ok = ok and wall < 120.0
    line = _report(4, ok, "; ".join(details) + "; " + _runtime(wall, 120.0, 0))
    assert ok, line


def test_c05_protocol_cross_check():
    # Time-domain fit protocol against spectral protocol, 1% across the
    # occupancy grid in the strong-nonlinearity regime.
    start = time.perf_counter()
    space = TruncatedSpace((8, 6))
    worst = 0.0
    details = []
    for nbar in OCC_GRID:
        params = make_params(omega_a=-1.0, U=0.1, nbar_c0=nbar)
        bundle = build_blackbox(polariton_frame(params), params, space)
        diag = t1_rate_diag(bundle)
        g_diag = diag.gamma
        g_fit = t1_rate_fit(bundle, diag.rho_ss).gamma
        rel = abs(g_fit - g_diag) / g_diag
        worst = max(worst, rel)
        details.append(f"nbar={nbar}: {rel:.1e}")
    wall = time.perf_counter() - start
    ok = worst <= 0.01 and wall < 300.0
    line = _report(5, ok, ", ".join(details) + " (tol 1e-2); " + _runtime(wall, 300.0, 0))
    assert ok, line


def test_c06_two_level_reference_contrast():
    # Two-level reference model: rate matches (g/Delta)^2 kappa_c (1 + 2 nbar)
    # within 3% and always increases with occupancy, for both detuning signs.
    space = TruncatedSpace((8, 2))
    ok = True
    details = []
    for sign in (1.0, -1.0):
        gammas = []
        worst = 0.0
        for nbar in (0.0, 0.05, 0.10):
            params = make_params(omega_a=sign, g=0.05, nbar_c0=nbar)
            gamma = t1_rate_diag(build_bare(params, space)).gamma
            target = params.g**2 * params.kappa_c * (1.0 + 2.0 * nbar)
            worst = max(worst, abs(gamma - target) / target)
            gammas.append(gamma)
        increasing = gammas[0] < gammas[1] < gammas[2]
        ok = ok and worst <= 0.03 and increasing
        details.append(
            f"D={sign:+.0f}: max rel {worst:.1%} (tol 3%), "
            f"slope positive: {'yes' if increasing else 'NO'}"
        )
    line = _report(6, ok, "; ".join(details))
    assert ok, line


def _brute_match(vals, vecs, lam, vec):
    """Distances of one closed-form eigenpair from the nearest brute-force pair."""
    idx = int(np.argmin(np.abs(vals - lam)))
    brute = vecs[:, idx]
    mine = vec / np.linalg.norm(vec)
    phase = np.vdot(brute, mine)
    brute = brute * (phase / abs(phase))
    return abs(vals[idx] - lam), float(np.linalg.norm(brute - mine)), vals[idx]


def test_c07_closed_form_eigenmode_oracle():
    # Every closed-form eigenpair of the decoupled single-mode generator —
    # population family k <= 4, single-quantum coherence (m = +/-1, k = 0),
    # anharmonic dephasing family k <= 3 — against brute-force
    # diagonalization at two occupancies: the eigenvalue must appear in the
    # brute spectrum and the (summable) right vector must match the brute
    # eigenvector globally.  The left functionals grow polynomially, so away
    # from the truncation edge they are checked as adjoint-block residuals
    # on interior rows — the catalog's stated domain of validity.
    worst_lam = worst_right = worst_left = 0.0
    rate_by_k = {}
    for nbar in (0.05, 0.15):
        cases = [
            # (dim, omega, kerr, kappa, [(m, k), ...])
            (24, 0.7, -0.05, 0.01, [(0, k) for k in range(5)]),
            (24, 0.99, 0.0, 9.9e-3, [(1, 0), (-1, 0)]),
            # dephasing-mode vectors are exact only at vanishing linewidth;
            # the weak-damping point probes exactly their stated content
            (16, 1.01, -0.05, 1e-12, [(1, k) for k in range(4)]),
        ]
        for dim, omega, kerr, kappa, members in cases:
            block = decoupled_block(dim, omega, kerr, kappa, nbar)
            vals, vecs = np.linalg.eig(block)
            adjoint = block.conj().T
            mask = _edge_mask(dim)
            scale = float(np.abs(np.diag(block)).max())
            for m, k in members:
                lam, right, left = _single_mode_factor(m, k, dim, omega, kerr, kappa, nbar)
                dlam, dvec, brute_lam = _brute_match(vals, vecs, lam, vectorize(right))
                lvec = vectorize(left)
                res_left = np.linalg.norm(
                    (adjoint @ lvec - np.conj(lam) * lvec)[mask]
                ) / np.linalg.norm(lvec)
                worst_lam = max(worst_lam, dlam)
                worst_right = max(worst_right, dvec)
                worst_left = max(worst_left, res_left / scale)
                if m == 0:
                    rate_by_k.setdefault(k, []).append(brute_lam)
    spread = max(abs(pair[0] - pair[1]) for pair in rate_by_k.values())
    fixed = max(abs(lam + k * 0.01) for k, pair in rate_by_k.items() for lam in pair)
    ok = max(worst_lam, worst_right, worst_left, spread, fixed) <= 1e-8
    line = _report(
        7,
        ok,
        f"max eigenvalue distance {worst_lam:.1e}, right-vector distance "
        f"{worst_right:.1e}, left interior residual {worst_left:.1e} (tols 1e-8); "
        f"population rates occupancy-independent to {spread:.1e} and equal to "
        f"-k*kappa to {fixed:.1e}",
    )
    assert ok, line


def test_c08_perturbation_engine_channels():
    # Second-order engine against the analytic channel breakdown at
    # occupancy 0.05: interference and occupancy-flow channels within 5%,
    # cross-Kerr contributions and every first-order correction exactly
    # zero; the correlated-dissipation self-channel is reported but not
    # asserted (expected tiny).
    space = TruncatedSpace((8, 6))
    target = ModeLabel(m_c=0, m_a=0, k=1, kind="T1")
    sectors = [(0, 0, 1)]
    for m_c, m_a in ((-1, 1), (1, -1)):
        sectors += [(m_c, m_a, k) for k in range(5)]
    ok = True
    parts = []
    for sign in (1.0, -1.0):
        params = make_params(omega_a=sign, nbar_c0=0.05)
        frame = polariton_frame(params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            engine = gamma_thermal_pt(frame, space)
            modes = unperturbed_modes(frame, space, sectors)
        cross_kerr = pt_corrections(
            modes, blackbox_perturbation_parts(frame, space)["crs"], target
        )
        formula = gamma_thermal_analytic(frame)
        rel_cd = abs(engine.nc_cd - formula.nc_cd) / abs(formula.nc_cd)
        rel_nc = abs(engine.nc_nc - formula.nc_nc) / abs(formula.nc_nc)
        zeros = max(
            abs(cross_kerr.lambda1),
            abs(cross_kerr.lambda2),
            abs(engine.meta["lambda1"]["nc"]),
            abs(engine.meta["lambda1"]["cd"]),
        )
        sum_rel = abs(
            (engine.nc_cd + engine.nc_nc + engine.cd_cd) - (formula.nc_cd + formula.nc_nc)
        ) / abs(formula.nc_cd + formula.nc_nc)
        good = rel_cd <= 0.05 and rel_nc <= 0.05 and zeros <= 1e-12
        ok = ok and good
        parts.append(
            f"D={sign:+.0f}: interference rel {rel_cd:.1%} "
            f"[{'ok' if rel_cd <= 0.05 else 'outside 5%'}], occupancy-flow rel {rel_nc:.1%} "
            f"[{'ok' if rel_nc <= 0.05 else 'outside 5%'}], cross-Kerr and first-order "
            f"{zeros:.1e}, dissipation self-channel {engine.cd_cd:.1e} (reported), "
            f"channel sum rel {sum_rel:.1%}"
        )
    line = _report(8, ok, "; ".join(parts))
    if not ok:
        pytest.fail(
            line + " | known limit: the exact second-order occupancy-flow channel exceeds "
            "its leading-order analytic value by ~11-12% at this occupancy while the "
            "channel sum stays within ~2%; see README",
            pytrace=False,
        )


def test_c09_degradation_regime_flag():
    # Strong nonlinearity at negative detuning: the analytic slope is off
    # (ratio outside [0.95, 1.05]) but keeps the right sign, and the
    # diagnostics report flags the regime.
    space = TruncatedSpace((8, 6))
    gammas, totals = [], []
    for nbar in (0.0, 0.05):
        params = make_params(omega_a=-1.0, U=0.1, nbar_c0=nbar)
        frame = polariton_frame(params)
        gammas.append(t1_rate_diag(build_blackbox(frame, params, space)).gamma)
        totals.append(gamma_thermal_analytic(frame).total)
    s_num = (gammas[1] - gammas[0]) / 0.05
    s_th = (totals[1] - totals[0]) / 0.05
    ratio = s_num / s_th
    flags = diagnostics(polariton_frame(make_params(omega_a=-1.0, U=0.1))).flags
    outside = not 0.95 <= ratio <= 1.05
    sign_ok = (s_num < 0.0) == (s_th < 0.0)
    flagged = "analytic-formula-degraded" in flags
    ok = outside and sign_ok and flagged
    line = _report(
        9,
        ok,
        f"slope ratio {ratio:.3f} outside [0.95, 1.05]: {'yes' if outside else 'NO'}; "
        f"sign agreement: {'yes' if sign_ok else 'NO'}; "
        f"degraded-regime flag fired: {'yes' if flagged else 'NO'}",
    )
    assert ok, line


def test_c10_generator_hygiene_and_determinism(tmp_path):
    # Structural checks on every builder plus byte-determinism of CSV output.
    rng = np.random.default_rng(7)
    space = TruncatedSpace((8, 6))
    thermal = make_params(nbar_c0=0.05)
    driven = make_params(U=0.1)
    frame_d = displaced_frame(driven, DriveParams(f_c=0.02, omega_D=-0.1))
    bundles = [
        ("bare", build_bare(thermal, space)),
        ("blackbox", build_blackbox(polariton_frame(thermal), thermal, space)),
        ("displaced", build_displaced(frame_d, driven, space)),
        ("jc", build_bare(make_params(g=0.05), TruncatedSpace((8, 2)))),
    ]
    ok = True
    parts = []
    for name, bundle in bundles:
        mat = bundle.superop.data.toarray()
        dim = int(round(math.sqrt(mat.shape[0])))
        scale = np.abs(mat).max()
        trace_res = np.abs(trace_functional(bundle.space) @ mat).max() / scale
        rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = rho + rho.conj().T
        image = unvectorize(mat @ vectorize(rho), bundle.space)
        herm_res = np.linalg.norm(image - image.conj().T) / np.linalg.norm(image)
        vals = np.linalg.eigvals(mat)
        conj_res = np.abs(vals[:, None] - vals.conj()[None, :]).min(axis=1).max()
        # pairing noise of the dense nonsymmetric eigensolver; the structural
        # symmetry behind the pairing is already pinned at machine precision
        # by the Hermiticity-image check above
        conj_tol = 1e-8 * max(1.0, float(np.abs(vals).max()))
        rho_ss = steady_state(bundle)
        floor = float(np.linalg.eigvalsh(rho_ss).min())
        psd = floor >= -1e-10 and abs(np.trace(rho_ss).real - 1.0) <= 1e-10
        good = trace_res <= 1e-12 and herm_res <= 1e-12 and conj_res <= conj_tol and psd
        ok = ok and good
        parts.append(
            f"{name}: trace {trace_res:.0e}, herm {herm_res:.0e}, "
            f"conj-pairs {conj_res:.0e} (tol {conj_tol:.0e}), "
            f"steady-state floor {floor:.0e}"
        )
    raw = {
        "name": "accept-det",
        "model": {
            "omega_a": 1.0,
            "omega_c": 0.0,
            "g": 0.1,
            "U": 0.01,
            "kappa_a": 0.0,
            "kappa_c": 0.01,
        },
        "sweep": {"variable": "nbar_c0", "grid": [0.0, 0.05]},
        "truncation": [8, 6],
        "protocol": {"rates": "diag"},
        "output": {"csv": "accept.csv"},
    }
    config = config_from_dict(raw)
    blobs = []
    for tag in ("first", "second"):
        rows, _ = run_scenario(config, jobs=1)
        path = tmp_path / f"{tag}.csv"
        write_rows(rows, config, path)
        blobs.append(path.read_bytes())
    deterministic = blobs[0] == blobs[1]
    ok = ok and deterministic
    parts.append(f"CSV determinism: {'byte-identical' if deterministic else 'MISMATCH'}")
    line = _report(10, ok, "; ".join(parts))
    assert ok, line
