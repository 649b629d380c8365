import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import risloc.localizer as localizer
import risloc.ris_optimizer as ris_optimizer
from risloc import ArraySpec, BeamformedData, LocalizerConfig, steering_vector
from risloc.signal_model import complex_normal
from risloc.ris_optimizer import (PhaseShiftMatrix, _chirp_columns, beampattern,
                                  beampattern_db, orthogonal_projector,
                                  solve_phase_shifts, suppression_db,
                                  suppression_target)

from conftest import make_scene


def random_unit_vector(seed, m):
    r = np.random.default_rng(seed)
    v = r.standard_normal(m) + 1j * r.standard_normal(m)
    return v


# ----------------------------------------------------------- containers

def test_phase_matrix_accepts_unit_modulus(rng):
    mat = np.exp(1j * rng.uniform(0, 2 * np.pi, (5, 8)))
    p = PhaseShiftMatrix(mat)
    assert p.n_epoch == 5 and p.m_elements == 8


def test_phase_matrix_rejects_non_unit_entries():
    bad = np.ones((3, 4), dtype=complex)
    bad[1, 2] = 0.9
    with pytest.raises(ValueError):
        PhaseShiftMatrix(bad)
    with pytest.raises(ValueError):
        PhaseShiftMatrix(np.ones(4, dtype=complex))
    # NaN compares False against any tolerance, so it needs its own rejection
    with pytest.raises(ValueError, match="unit modulus"):
        PhaseShiftMatrix([[1.0, np.nan], [1j, 1.0]])
    for shape in ((0, 4), (3, 0)):
        with pytest.raises(ValueError, match="at least one epoch and one element"):
            PhaseShiftMatrix(np.ones(shape, dtype=complex))


# ----------------------------------------------------------- projector

def test_projector_on_first_basis_vector():
    p = orthogonal_projector(np.array([1.0, 0.0, 0.0], dtype=complex))
    np.testing.assert_allclose(p, np.diag([0.0, 1.0, 1.0]), atol=1e-12)


def test_projector_rejects_zero_vector():
    with pytest.raises(ValueError):
        orthogonal_projector(np.zeros(4, dtype=complex))


@given(seed=st.integers(0, 2 ** 31), m=st.integers(min_value=2, max_value=24))
@settings(max_examples=50, deadline=None)
def test_projector_annihilates_and_is_idempotent(seed, m):
    a = random_unit_vector(seed, m)
    p = orthogonal_projector(a)
    assert np.linalg.norm(p @ a) <= 1e-10 * np.linalg.norm(a)
    np.testing.assert_allclose(p @ p, p, atol=1e-10)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-12)


# ----------------------------------------------------------- phase design

def test_solver_output_is_unit_modulus(rng):
    a = random_unit_vector(0, 16)
    v = solve_phase_shifts(a, 20, rng)
    assert v.matrix.shape == (20, 16)
    np.testing.assert_allclose(np.abs(v.matrix), 1.0, atol=1e-12)


@pytest.mark.parametrize("init", ["gaussian", "chirp"])
def test_solver_deterministic_given_seed(init):
    a = random_unit_vector(1, 12)
    v1 = solve_phase_shifts(a, 10, np.random.default_rng(9), init=init)
    v2 = solve_phase_shifts(a, 10, np.random.default_rng(9), init=init)
    np.testing.assert_array_equal(v1.matrix, v2.matrix)


def test_solver_rejects_unknown_init(rng):
    with pytest.raises(ValueError):
        solve_phase_shifts(random_unit_vector(2, 8), 4, rng, init="hadamard")


def test_unit_phases_maps_zero_to_one_and_keeps_nan():
    got = ris_optimizer._unit_phases(np.array([[0.0, np.nan, -2.0, 3j, 1e-300 - 1e-300j]],
                                              dtype=complex))
    assert got[0, 0] == 1.0
    assert np.isnan(got[0, 1])
    np.testing.assert_array_equal(got[0, 2:4], [-1.0, 1j])
    np.testing.assert_allclose(got[0, 4], (1 - 1j) / np.sqrt(2), rtol=1e-15)


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 64), n_epoch=st.integers(1, 120),
       init=st.sampled_from(["gaussian", "chirp"]), refine_rounds=st.integers(0, 3))
@example(seed=0, m=64, n_epoch=90, init="chirp", refine_rounds=2)
@settings(max_examples=60, deadline=None)
def test_solver_rounds_equal_the_dense_projector_reference(seed, m, n_epoch, init,
                                                           refine_rounds):
    # each round of the solver, fed the solver's own previous round (the seed
    # rows Gamma^T first), is the literal round exp(1j * angle(v @ P)). The
    # rank-one projection differs from v @ P by about (M + 1) eps ||v|| per
    # entry at most, and the phase of an entry x moves by that over |x|, so
    # the tolerance scales with 1/|x| of each pre-restore entry
    a = random_unit_vector(seed, m)
    r = np.random.default_rng(seed)
    gamma = (complex_normal((m, n_epoch), r) if init == "gaussian"
             else _chirp_columns(m, n_epoch, r))
    proj, eps = orthogonal_projector(a), np.finfo(float).eps
    prev = gamma.T
    for k in range(refine_rounds + 1):
        got = solve_phase_shifts(a, n_epoch, np.random.default_rng(seed), init=init,
                                 refine_rounds=k).matrix
        x = prev @ proj
        with np.errstate(divide="ignore"):
            tol = (8 * (m + 1) * eps * np.linalg.norm(prev, axis=1, keepdims=True)
                   / np.abs(x) + 8 * eps)
        err = np.abs(got - np.exp(1j * np.angle(x)))
        assert np.all(err <= tol), (k, np.max(err / tol))
        prev = got


def test_single_element_array_cannot_suppress(rng):
    # with M = 1 the projector is the zero map and the phases fall back to 1
    a = np.array([1.0 + 0j])
    v = solve_phase_shifts(a, 3, rng)
    np.testing.assert_allclose(np.abs(v.matrix), 1.0, atol=1e-12)
    assert abs(suppression_db(v, a)) < 1e-9


@pytest.mark.parametrize("init", ["gaussian", "chirp"])
@pytest.mark.parametrize("m", [16, 32, 64])
def test_suppression_beats_unprojected_phases_by_10db(m, init):
    scene = make_scene()
    ris = ArraySpec(m)
    a = suppression_target(scene, ris)
    v = solve_phase_shifts(a, 100, np.random.default_rng(33), init=init)
    raw = PhaseShiftMatrix(np.exp(
        1j * np.random.default_rng(34).uniform(0, 2 * np.pi, (100, m))))
    assert suppression_db(v, a) <= suppression_db(raw, a) - 10.0


def test_suppression_example_large_array():
    scene = make_scene()
    ris = ArraySpec(64)
    a = suppression_target(scene, ris)
    v = solve_phase_shifts(a, 100, np.random.default_rng(0))
    assert suppression_db(v, a) <= -12.0


def test_refinement_deepens_the_notch():
    a = random_unit_vector(4, 32)
    d1 = suppression_db(solve_phase_shifts(a, 50, np.random.default_rng(5),
                                           refine_rounds=1), a)
    d4 = suppression_db(solve_phase_shifts(a, 50, np.random.default_rng(5),
                                           refine_rounds=4), a)
    assert d4 < d1


def test_suppression_target_composition():
    scene = make_scene()
    ris = ArraySpec(8)
    want = (steering_vector(ris, scene.aod_ris_pr)
            * steering_vector(ris, scene.aoa_ap_ris))
    np.testing.assert_allclose(suppression_target(scene, ris), want, atol=1e-12)


def test_chirp_columns_orthogonal_over_complete_orbit(rng):
    m = 8
    c = _chirp_columns(m, m, rng)
    np.testing.assert_allclose(np.abs(c), 1.0, atol=1e-12)
    np.testing.assert_allclose(c @ c.conj().T, m * np.eye(m), atol=1e-9)


def chirp_columns_reference(m_elements, n_epoch, rng):
    """_chirp_columns one column at a time, drawing from rng in its order:
    each column as the literal root-table lookup, as one exp of its full
    phase argument, and that argument."""
    m = np.arange(m_elements)
    roots = np.exp(1j * np.pi * np.arange(2 * m_elements) / m_elements)
    table, direct, args = [], [], []
    rates = list(rng.permutation(np.arange(1, 2 * m_elements, 2)))
    while len(table) < n_epoch:
        if not rates:
            rates = list(rng.permutation(np.arange(1, 2 * m_elements, 2)))
        q = rates.pop()
        need = n_epoch - len(table)
        if need >= m_elements:
            shifts = np.arange(m_elements)
        else:
            shifts = np.round(np.arange(need) * m_elements / need).astype(int)
        glob = 2 * np.pi * rng.uniform()
        for r in shifts:
            j = (q * m * m + 2 * r * m) % (2 * m_elements)
            table.append(roots[j] * np.exp(1j * glob))
            args.append(np.pi * q * m * m / m_elements + 2 * np.pi * r * m / m_elements + glob)
            direct.append(np.exp(1j * args[-1]))
    return tuple(np.stack(c, axis=1) for c in (table, direct, args))


@st.composite
def chirp_shapes(draw):
    m = draw(st.integers(1, 64))
    # half the draws run past M orbits, so the rates are permuted again
    n = draw(st.one_of(st.integers(1, m * m + m), st.integers(m * m + 1, m * m + m)))
    return m, n


@given(shape=chirp_shapes(), seed=st.integers(0, 2 ** 32 - 1))
@example(shape=(1, 2), seed=0)
@example(shape=(3, 12), seed=1)
@example(shape=(64, 90), seed=2)
@settings(max_examples=60, deadline=None)
def test_chirp_columns_match_per_column_reference(shape, seed):
    # the orbit's table lookup gives the per-column lookup's bits and consumes
    # the generator in the same order: one permutation, one uniform per orbit,
    # and a new permutation when the rates run out. The phase argument of one
    # exp per column reaches 2*pi*M^2 (about 2.5e4 rad at M = 64), where that
    # exp is itself only good to about eps * |argument|; the lookup is within
    # 16 eps (1 + |argument|) of it, the 1 for the rounding of exp and the
    # product at a small argument.
    m, n = shape
    r_got, r_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _chirp_columns(m, n, r_got)
    table, direct, args = chirp_columns_reference(m, n, r_ref)
    assert got.shape == table.shape == (m, n)
    assert np.array_equal(got.view(float), table.view(float))
    assert np.all(np.abs(got - direct) <= 16 * np.finfo(float).eps * (1 + np.abs(args)))
    assert r_got.bit_generator.state == r_ref.bit_generator.state


# ----------------------------------------------------------- beampattern

def test_beampattern_all_ones_points_broadside():
    ris = ArraySpec(16)
    ones = PhaseShiftMatrix(np.ones((1, 16), dtype=complex))
    grid = np.arange(-80.0, 80.5, 0.5)
    pat = beampattern(ones, 0.0, ris, grid)
    assert grid[np.argmax(pat)] == 0.0
    np.testing.assert_allclose(pat.max(), 16.0 ** 2, rtol=1e-9)


def test_beampattern_db_peaks_at_zero(rng):
    ris = ArraySpec(16)
    phases = PhaseShiftMatrix(np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 16))))
    db = beampattern_db(phases, 10.0, ris, np.arange(-60.0, 60.5, 0.5))
    assert abs(db.max()) < 1e-12
    assert np.all(db <= 0.0)


def test_beampattern_equals_epoch_sum_per_angle(rng):
    ris = ArraySpec(12)
    phases = PhaseShiftMatrix(np.exp(1j * rng.uniform(0, 2 * np.pi, (7, 12))))
    grid = np.arange(-80.0, 80.5, 2.5)
    b = steering_vector(ris, -25.0)
    ref = np.array([sum(abs(np.sum(b * v_n * steering_vector(ris, t))) ** 2
                        for v_n in phases.matrix) for t in grid])
    got = beampattern(phases, -25.0, ris, grid)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


def test_beampattern_and_spectrum_share_one_dictionary(monkeypatch, rng):
    # the pattern and the NLMS scan of the same array, grid and aod read the
    # same cached array, not two equal copies
    seen = {}

    def recorder(module):
        original = module.steering_dictionary

        def record(*args, **kwargs):
            out = original(*args, **kwargs)
            seen.setdefault(module.__name__, []).append(out)
            return out
        return record

    for module in (ris_optimizer, localizer):
        monkeypatch.setattr(module, "steering_dictionary", recorder(module))
    ris, aod = ArraySpec(8), 15.0
    cfg = LocalizerConfig(grid=np.arange(-60.0, 60.5, 1.0))
    phases = PhaseShiftMatrix(np.exp(1j * rng.uniform(0, 2 * np.pi, (10, 8))))
    data = BeamformedData(rng.standard_normal((10, 6)) + 1j * rng.standard_normal((10, 6)))
    localizer.spectrum(data, cfg, phases, ris, aod)
    beampattern(phases, aod, ris, cfg.grid)
    assert seen["risloc.ris_optimizer"][0] is seen["risloc.localizer"][0]


def test_optimized_beampattern_notches_the_ap_direction():
    scene = make_scene()
    ris = ArraySpec(64)
    a = suppression_target(scene, ris)
    v = solve_phase_shifts(a, 100, np.random.default_rng(2))
    grid = np.arange(-89.5, 90.0, 0.5)
    db = beampattern_db(v, scene.aod_ris_pr, ris, grid)
    notch = db[np.argmin(np.abs(grid - scene.aoa_ap_ris))]
    off = db[np.abs(grid - scene.aoa_ap_ris) > 3.0]
    assert notch <= -10.0
    assert np.median(off) > notch + 5.0
