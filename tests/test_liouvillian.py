from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import purcell_lab.liouvillian as liouvillian
import purcell_lab.spectral as spectral
from purcell_lab.fockspace import (
    TruncatedSpace,
    ladder_operators,
    trace_functional,
    unvectorize,
    vectorize,
)
from purcell_lab.liouvillian import (
    TermToggles,
    build_bare,
    build_blackbox,
    build_displaced,
    blackbox_perturbation_parts,
)
from purcell_lab.model import (
    DriveParams,
    SystemParams,
    displaced_frame,
    polariton_frame,
)
from purcell_lab.perturbation import decoupled_block
from purcell_lab.spectral import coherence_sectors, t1_rate_diag, t1_rate_fit
from reference import (
    bare_hamiltonian,
    lindblad_superoperator,
    term_sum,
    trace_preservation_residual,
)


def make_params(**over):
    base = dict(
        omega_a=1.0, omega_c=0.0, g=0.1, U=0.01,
        kappa_a=0.0, kappa_c=0.01, nbar_a0=0.0, nbar_c0=0.0,
    )
    base.update(over)
    return SystemParams(**base)


def vacuum(space):
    rho = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


ALL_OFF = TermToggles(False, False, False, False)


class TestBuildBare:
    def test_qubit_block_spectrum_decoupled(self):
        # g = 0, zero temperature: spectrum contains -kappa_a * k
        params = make_params(g=0.0, omega_a=1.0, kappa_a=0.02, kappa_c=0.0)
        space = TruncatedSpace((2, 5))
        bundle = build_bare(params, space)
        evals = np.linalg.eigvals(bundle.superop.data.toarray())
        for k in range(5):
            target = -0.02 * k
            assert np.min(np.abs(evals - target)) < 1e-10

    def test_vacuum_steady_at_zero_temperature(self):
        params = make_params(kappa_a=0.001)
        space = TruncatedSpace((3, 3))
        bundle = build_bare(params, space)
        assert np.allclose(
            bundle.superop.data @ vectorize(vacuum(space)), 0.0, atol=1e-14
        )

    def test_trace_preservation(self):
        params = make_params(kappa_a=0.001, nbar_a0=0.05, nbar_c0=0.1)
        bundle = build_bare(params, TruncatedSpace((6, 5)))
        assert trace_preservation_residual(bundle.superop) <= 1e-12

    def test_bundle_metadata(self):
        params = make_params()
        space = TruncatedSpace((3, 2))
        bundle = build_bare(params, space)
        assert bundle.basis == "bare"
        assert bundle.space is space
        assert bundle.t1_rate_scale == pytest.approx(1e-4)


class TestBuildBlackbox:
    def test_decoupled_qubit_block_eigenvalues(self):
        # all couplings off, zero temperature: -k * kappa_a_t appear
        params = make_params(nbar_c0=0.0)
        frame = polariton_frame(params)
        space = TruncatedSpace((2, 5))
        bundle = build_blackbox(frame, params, space, ALL_OFF)
        evals = np.linalg.eigvals(bundle.superop.data.toarray())
        for k in range(5):
            assert np.min(np.abs(evals - (-frame.kappa_a_t * k))) < 1e-12

    def test_eigenvalues_independent_of_occupancy(self):
        # the population-sector ladder does not move with thermal occupancy
        # (exact on the untruncated space; cutoff tails scale like
        # q^(cutoff - k) with q = n/(1+n), so test deep below the edge)
        space = TruncatedSpace((2, 12))
        lams = []
        for nbar in (0.0, 0.04):
            params = make_params(nbar_c0=nbar)
            frame = polariton_frame(params)
            bundle = build_blackbox(frame, params, space, ALL_OFF)
            evals = np.linalg.eigvals(bundle.superop.data.toarray())
            lams.append(
                [evals[np.argmin(np.abs(evals - (-frame.kappa_a_t * k)))] for k in range(4)]
            )
        assert np.allclose(lams[0], lams[1], atol=1e-11)

    def test_cd_vanishes_without_coupling(self):
        params = make_params(g=0.0)
        frame = polariton_frame(params)
        space = TruncatedSpace((3, 3))
        cd_only = TermToggles(include_crs=False, include_nc=False, include_cd=True)
        with_cd = build_blackbox(frame, params, space, cd_only)
        without = build_blackbox(frame, params, space, ALL_OFF)
        diff = (with_cd.superop.data - without.superop.data)
        assert np.max(np.abs(diff.toarray())) == 0.0

    def test_trace_and_hermiticity_preservation(self):
        rng = np.random.default_rng(4)
        params = make_params(kappa_a=0.001, nbar_c0=0.1, nbar_a0=0.02)
        frame = polariton_frame(params)
        space = TruncatedSpace((5, 4))
        bundle = build_blackbox(frame, params, space)
        assert trace_preservation_residual(bundle.superop) <= 1e-12
        n = space.total_dim
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        deriv = unvectorize(bundle.superop.data @ vectorize(rho))
        assert np.max(np.abs(deriv - deriv.conj().T)) <= 1e-12

    def test_perturbation_parts_sum_to_full(self):
        params = make_params(kappa_a=0.001, nbar_c0=0.08)
        frame = polariton_frame(params)
        space = TruncatedSpace((4, 4))
        full = build_blackbox(frame, params, space)
        bare0 = build_blackbox(frame, params, space, ALL_OFF)
        parts = blackbox_perturbation_parts(frame, space)
        total = bare0.superop.data + sum(p.data for p in parts.values())
        assert np.max(np.abs((full.superop.data - total).toarray())) < 1e-14

    def test_correlated_dissipation_trace_preserving(self):
        params = make_params(kappa_a=0.003, nbar_c0=0.1, nbar_a0=0.05)
        frame = polariton_frame(params)
        assert frame.gamma_down != 0.0 and frame.gamma_up != 0.0
        space = TruncatedSpace((4, 3))
        gen = blackbox_perturbation_parts(frame, space)["cd"].data
        t = trace_functional(space)
        assert np.max(np.abs(t @ gen.toarray())) <= 1e-15


class TestBuildDisplaced:
    def test_undriven_equals_blackbox_in_rotating_frame(self):
        omega_d = -0.1
        params = make_params(U=0.1)
        dframe = displaced_frame(params, DriveParams(0.0, omega_d))
        space = TruncatedSpace((4, 4))
        displaced = build_displaced(dframe, params, space)
        rotated = SystemParams(
            omega_a=params.omega_a - omega_d,
            omega_c=params.omega_c - omega_d,
            g=params.g, U=params.U,
            kappa_a=params.kappa_a, kappa_c=params.kappa_c,
        )
        blackbox = build_blackbox(polariton_frame(rotated), rotated, space)
        diff = displaced.superop.data - blackbox.superop.data
        assert np.max(np.abs(diff.toarray())) < 1e-13

    def test_drive_term_keeps_trace_preservation(self):
        params = make_params(U=0.1)
        dframe = displaced_frame(params, DriveParams(0.05, -0.1))
        bundle = build_displaced(dframe, params, TruncatedSpace((5, 4)))
        assert trace_preservation_residual(bundle.superop) <= 1e-12

    def test_drive_toggle(self):
        params = make_params(U=0.1)
        dframe = displaced_frame(params, DriveParams(0.05, -0.1))
        space = TruncatedSpace((3, 3))
        on = build_displaced(dframe, params, space)
        off = build_displaced(dframe, params, space, TermToggles(include_drive=False))
        # reference: -i[V, .] with V = drive_coeff a^dag a^dag a + h.c.
        a, ad, _ = ladder_operators(space, 1)
        v = dframe.drive_coeff * (ad @ ad @ a)
        drive = lindblad_superoperator(space, v + v.conj().T, [])
        diff = (on.superop.data - off.superop.data) - drive.data
        assert np.max(np.abs(diff.toarray())) < 1e-15

    def test_thermal_bath_rejected(self):
        params = make_params(U=0.1, nbar_c0=0.05)
        dframe = displaced_frame(make_params(U=0.1), DriveParams(0.05, -0.1))
        with pytest.raises(ValueError, match="zero-temperature"):
            build_displaced(dframe, params, TruncatedSpace((3, 3)))


class TestTwoLevelModel:
    # the CLI's two-level comparison model is the bare generator at (d_c, 2)
    # with kappa_a = 0; the CLI config check enforces both
    def test_decoupled_qubit_population_conserved(self):
        params = make_params(g=0.0, nbar_c0=0.1)
        space = TruncatedSpace((4, 2))
        bundle = build_bare(params, space)
        _, _, na = ladder_operators(space, 1)
        rho = np.zeros((8, 8), dtype=complex)
        rho[1, 1] = 1.0  # |0_c, 1_a>
        deriv = unvectorize(bundle.superop.data @ vectorize(rho))
        assert abs(np.trace(na.toarray() @ deriv)) < 1e-14

    def test_trace_preservation(self):
        bundle = build_bare(make_params(nbar_c0=0.1), TruncatedSpace((6, 2)))
        assert trace_preservation_residual(bundle.superop) <= 1e-12


@st.composite
def dispersive_cases(draw):
    """Random dispersive parameters, term toggles and a cutoff <= (4, 3)."""
    rate = st.floats(0.0, 0.05)
    occupancy = st.floats(0.0, 0.3)
    params = SystemParams(
        omega_a=draw(st.sampled_from([1.0, -1.0])),
        omega_c=0.0,
        g=draw(st.floats(0.0, 0.25)),
        U=draw(st.floats(0.0, 0.2)),
        kappa_a=draw(rate),
        kappa_c=draw(rate),
        nbar_a0=draw(occupancy),
        nbar_c0=draw(occupancy),
    )
    toggles = TermToggles(*(draw(st.booleans()) for _ in range(4)))
    drive = DriveParams(draw(st.floats(0.0, 0.05)), draw(st.floats(-0.5, -0.2)))
    space = TruncatedSpace((draw(st.integers(2, 4)), draw(st.integers(2, 3))))
    return params, toggles, drive, space


def all_builders(params, toggles, drive, space):
    cold = replace(params, nbar_a0=0.0, nbar_c0=0.0)
    return {
        "bare": build_bare(params, space),
        "blackbox": build_blackbox(polariton_frame(params), params, space, toggles),
        "displaced": build_displaced(
            displaced_frame(cold, drive), cold, space, toggles
        ),
    }


class TestGeneratorProperties:
    # each example builds three generators; 25 examples keep each test near
    # 2.5 s
    @settings(max_examples=25)
    @given(dispersive_cases())
    def test_every_builder_preserves_trace_hermiticity_and_blocks(self, case):
        rng = np.random.default_rng(0)
        for basis, bundle in all_builders(*case).items():
            assert trace_preservation_residual(bundle.superop) <= 1e-12, basis
            n = bundle.space.total_dim
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            deriv = unvectorize(bundle.superop.data @ vectorize(m + m.conj().T))
            assert np.max(np.abs(deriv - deriv.conj().T)) <= 1e-12, basis
            if basis == "displaced":
                continue  # the residual drive breaks the U(1) symmetry
            # no entry couples different ket-minus-bra excitation numbers
            sector = coherence_sectors(bundle.space).sum(axis=1)
            gen = bundle.superop.data.tocoo()
            hot = gen.data != 0
            assert np.array_equal(sector[gen.row[hot]], sector[gen.col[hot]]), basis

    @settings(max_examples=25)
    @given(dispersive_cases())
    def test_table_sums_match_references(self, case):
        params, _, _, space = case
        frame = polariton_frame(params)
        full = build_blackbox(frame, params, space).superop.data
        total = build_blackbox(frame, params, space, ALL_OFF).superop.data
        for part in blackbox_perturbation_parts(frame, space).values():
            total = total + part.data
        assert np.max(np.abs((full - total).toarray())) < 1e-14

        c, cd, _ = ladder_operators(space, 0)
        a, ad, _ = ladder_operators(space, 1)
        channels = [
            (params.kappa_c * (1.0 + params.nbar_c0), c),
            (params.kappa_c * params.nbar_c0, cd),
            (params.kappa_a * (1.0 + params.nbar_a0), a),
            (params.kappa_a * params.nbar_a0, ad),
        ]
        reference = lindblad_superoperator(
            space, bare_hamiltonian(params, space), channels
        )
        diff = build_bare(params, space).superop.data - reference.data
        assert np.max(np.abs(diff.toarray())) < 1e-14


def every_generator(case):
    """The superoperator matrices of every builder and perturbation part."""
    params, _, _, space = case
    mats = {basis: b.superop.data for basis, b in all_builders(*case).items()}
    parts = blackbox_perturbation_parts(polariton_frame(params), space)
    mats.update({f"part {name}": part.data for name, part in parts.items()})
    return mats


def csr_arrays(mat):
    return mat.data, mat.indices, mat.indptr


def csr_bits(mat):
    """The CSR arrays, with the values as raw bits so signed zeros count."""
    return mat.indptr, mat.indices, mat.data.view(np.uint64)


def layout_arrays(layout, tag=""):
    """Every array of a layout or block layout, by name."""
    indptr, indices, (_, index, left, right), operators, superoperators = layout
    arrays = {"indptr": indptr, "indices": indices, "index": index,
              "left": left, "right": right}
    for terms in (operators, superoperators):
        for key, (positions, values) in terms.items():
            arrays[f"{key} positions"], arrays[f"{key} values"] = positions, values
    return {f"{tag}{name}": arr for name, arr in arrays.items()}


def shared_arrays(space):
    """Every array of the per-cutoff objects shared by the generators and
    the T1 protocols of ``space``: the layout, the block layout, the qubit
    operators and the population mask."""
    a_raise, a_lower, number = spectral._t1_constants(space)
    block, _, population = liouvillian._block_table(space)
    arrays = {
        **layout_arrays(liouvillian._term_table(space)),
        **layout_arrays(block, "block "),
        "number": number, "population": population,
    }
    for name, op in (("raise", a_raise), ("lower", a_lower)):
        for part, arr in zip(("data", "indices", "indptr"), csr_arrays(op)):
            arrays[f"{name} {part}"] = arr
    return arrays


class TestSharedTermTable:
    # each layout here goes into a fresh dict; the process's own cache is
    # never cleared

    @settings(max_examples=25)
    @given(dispersive_cases())
    def test_shared_table_gives_bit_identical_generators(self, case):
        def no_build(space):
            raise AssertionError(f"layout of {space} built again")

        build, built = liouvillian._build_layout, []

        def counted(space):
            built.append(space)
            return build(space)

        with pytest.MonkeyPatch.context() as mp:
            names = list(every_generator(case))
            mp.setattr(liouvillian, "_build_layout", counted)
            cold = {}
            for name in names:
                mp.setattr(liouvillian, "_TERM_TABLES", {})
                cold[name] = every_generator(case)[name]
            # one layout build per fresh dict, whatever the generator kinds
            assert built == [case[-1]] * len(names)
            # the last dict holds the layout every kind has now read
            mp.setattr(liouvillian, "_build_layout", no_build)
            warm = every_generator(case)
        assert warm.keys() == cold.keys()
        for name, mat in warm.items():
            for got, want in zip(csr_bits(mat), csr_bits(cold[name])):
                assert np.array_equal(got, want), name

    def test_consumers_leave_the_shared_table_unchanged(self, monkeypatch):
        monkeypatch.setattr(liouvillian, "_TERM_TABLES", {})
        monkeypatch.setattr(liouvillian, "_BLOCK_TABLES", {})
        monkeypatch.setattr(spectral, "_T1_CONSTANTS", {})
        params = make_params(kappa_a=0.002, nbar_c0=0.08, nbar_a0=0.02)
        case = (params, TermToggles(), DriveParams(0.03, -0.3), TruncatedSpace((4, 3)))
        table = liouvillian._term_table(case[-1])
        block = liouvillian._block_table(case[-1])
        constants = spectral._t1_constants(case[-1])
        shared = shared_arrays(case[-1])
        assert not [key for key, arr in shared.items() if arr.flags.writeable]
        before = {key: arr.copy() for key, arr in shared.items()}
        for bundle in all_builders(*case).values():
            t1_rate_fit(bundle, t1_rate_diag(bundle).rho_ss)
        blackbox_perturbation_parts(polariton_frame(params), case[-1])
        assert liouvillian._term_table(case[-1]) is table
        assert liouvillian._block_table(case[-1]) is block
        assert spectral._t1_constants(case[-1]) is constants
        after = shared_arrays(case[-1])
        assert after.keys() == before.keys()
        for key, arr in after.items():
            assert np.array_equal(arr, before[key]), key
        with pytest.raises(ValueError, match="read-only"):
            shared["n_a values"][0] = 2.0


def variants(case):
    """The coefficient maps of every generator kind around one drawn case,
    each with the generator the package builds from it: both detuning
    signs, the drawn and zero bath occupancies (so heat terms drop out),
    the drawn toggles and each toggle switched off alone, and the three
    perturbation parts."""
    params, toggles, drive, space = case
    off = [replace(TermToggles(), **{f"include_{name}": False})
           for name in ("crs", "nc", "cd", "drive")]
    for omega_a in (params.omega_a, -params.omega_a):
        signed = replace(params, omega_a=omega_a)
        cold = replace(signed, nbar_a0=0.0, nbar_c0=0.0)
        dframe = displaced_frame(cold, drive)
        for p in (signed, cold):
            frame = polariton_frame(p)
            yield "bare", liouvillian._bare_coefficients(p), build_bare(p, space)
            full = liouvillian._polariton_coefficients(frame)
            for t in (toggles, *off):
                yield (f"blackbox {t}", liouvillian._toggled(full, t),
                       build_blackbox(frame, p, space, t))
            parts = blackbox_perturbation_parts(frame, space)
            for name, part in parts.items():
                keys = liouvillian._TOGGLED_TERMS[name]
                yield f"part {name}", {k: full[k] for k in keys}, part
        for t in (toggles, *off):
            yield (f"displaced {t}",
                   liouvillian._toggled(liouvillian._displaced_coefficients(dframe), t),
                   build_displaced(dframe, cold, space, t))


class TestLayoutSum:
    # the reference adds the same unit terms as sparse matrices, term by
    # term; 20 examples of about 80 generators each keep this near 3 s
    @settings(max_examples=20, deadline=None)
    @given(dispersive_cases())
    def test_layout_sum_matches_sparse_sum_bit_for_bit(self, case):
        space = case[-1]
        table = liouvillian._unit_terms(space)
        for name, coeffs, built in variants(case):
            want = term_sum(table, coeffs)
            got = built.data if name.startswith("part") else built.superop.data
            for g, w in zip(csr_bits(got), csr_bits(want)):
                assert np.array_equal(g, w), name
        frame = polariton_frame(case[0])
        for dim, omega, kerr, kappa, nbar in (
            (space.dims[0], frame.omega_c_t, 0.0, frame.kappa_c_t, frame.n_c_t),
            (space.dims[1], frame.omega_a_t, frame.chi_aa, frame.kappa_a_t, frame.n_a_t),
        ):
            one_mode = liouvillian._unit_terms(TruncatedSpace((dim,)))
            coeffs = {"n_m": omega, "kerr_m": kerr,
                      **liouvillian._bath_coefficients("m", kappa, nbar)}
            want = term_sum(one_mode, coeffs).toarray()
            got = decoupled_block(dim, omega, kerr, kappa, nbar)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), dim

    @pytest.mark.parametrize("dissipators", [{}, {"decay_c": 0.01}, {"heat_a": 0.001}])
    def test_signed_zeros_of_an_imaginary_drive(self, dissipators):
        # a drive coefficient with no real part leaves -0 imaginary parts in
        # -i[h, .]; the first sparse addition of a dissipator turns them to +0
        space = TruncatedSpace((3, 3))
        coeffs = {"n_a": 0.3, "drive": 0.02j, "drive_dag": -0.02j, **dissipators}
        got = liouvillian._term_sum(liouvillian._term_table(space), coeffs)
        want = term_sum(liouvillian._unit_terms(space), coeffs)
        for g, w in zip(csr_bits(got), csr_bits(want)):
            assert np.array_equal(g, w)
        negative_zeros = np.signbit(want.data.imag[want.data.imag == 0]).sum()
        assert (negative_zeros > 0) == (not dissipators)

    def test_every_unit_term_is_real(self):
        for dims in ((2, 2), (4, 3), (3,)):
            for terms in liouvillian._unit_terms(TruncatedSpace(dims)):
                for key, mat in terms.items():
                    assert not np.any(mat.data.imag), (dims, key)


def block_variants(case):
    """Bundles of every builder around one drawn case: bare and blackbox
    at the drawn and at zero occupancy (blackbox with the drawn toggles and
    with each toggle off alone), and displaced with zero and with the drawn
    drive."""
    params, toggles, drive, space = case
    off = [replace(TermToggles(), **{f"include_{name}": False})
           for name in ("crs", "nc", "cd", "drive")]
    cold = replace(params, nbar_a0=0.0, nbar_c0=0.0)
    for p in (params, cold):
        frame = polariton_frame(p)
        yield "bare", build_bare(p, space)
        for t in (toggles, *off):
            yield f"blackbox {t}", build_blackbox(frame, p, space, t)
    for d in (replace(drive, f_c=0.0), drive):
        yield f"displaced {d}", build_displaced(displaced_frame(cold, d), cold, space)


class _Searched(Exception):
    """Carries the matrix `_t1_modes` hands to its mode search."""


def searched_matrix(bundle):
    """The matrix that `_t1_modes` would search for ``bundle``; the search
    itself is not run."""
    def stop(_, lop, *args, **kwargs):
        raise _Searched(lop)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_eigenmodes", stop)
        with pytest.raises(_Searched) as caught:
            spectral._t1_modes(bundle)
    return caught.value.args[0]


class TestBlockLayout:
    # 14 generators per example, compared bit for bit and against a scan
    @settings(max_examples=20, deadline=None)
    @given(dispersive_cases())
    def test_block_sum_is_the_slice_of_the_full_generator(self, case):
        space = case[-1]
        population = coherence_sectors(space).sum(1) == 0
        layout, _, mask = liouvillian._block_table(space)
        assert np.array_equal(mask, population)
        idx = np.flatnonzero(population)
        for name, bundle in block_variants(case):
            flag, _ = spectral._population_block(bundle)
            block = searched_matrix(bundle) if flag else None
            assert bundle._superop is None, name  # nothing assembled
            full = bundle.superop.data
            got = liouvillian._term_sum(layout, bundle.coeffs)
            for g, w in zip(csr_bits(got), csr_bits(full[idx][:, idx])):
                assert np.array_equal(g, w), name
            # the term-based flag against a scan of the stored entries
            coo = full.tocoo()
            closed = np.array_equal(population[coo.row], population[coo.col])
            assert flag == closed, name
            if closed:
                for g, w in zip(csr_bits(block), csr_bits(got)):
                    assert np.array_equal(g, w), name

    def test_only_the_drive_joins_the_block(self, monkeypatch):
        monkeypatch.setattr(liouvillian, "_BLOCK_TABLES", {})
        # a two-level qubit has no a^dag a^dag a, so nothing joins there
        for dims, want in (((2, 2), set()), ((3, 3), {"drive", "drive_dag"})):
            _, joining, _ = liouvillian._block_table(TruncatedSpace(dims))
            assert joining == want, dims
