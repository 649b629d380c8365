import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import risloc.signal_model as sm
from risloc import (ArraySpec, NoiseModel, Waveform,
                    generate_waveform, pr_received, rician_channel,
                    ris_incident, ris_reflect, simulate_epochs,
                    steering_matrix, steering_vector)
from risloc.ris_optimizer import PhaseShiftMatrix
from risloc.signal_model import dictionary_power, steering_dictionary

from conftest import make_scene

angles = st.floats(min_value=-89.9, max_value=89.9,
                   allow_nan=False, allow_infinity=False)


# ------------------------------------------------------------- steering

def test_steering_broadside_is_all_ones():
    a = steering_vector(ArraySpec(5), 0.0)
    np.testing.assert_allclose(a, np.ones(5))


def test_steering_two_element_30deg():
    # sin(30) = 1/2, spacing 1/2 -> phase step pi/2
    a = steering_vector(ArraySpec(2), 30.0)
    np.testing.assert_allclose(a, [1.0, 1.0j], atol=1e-12)


def test_steering_explicit_four_element():
    th = 48.59  # sin ~ 0.75 -> step 3pi/4
    step = np.exp(1j * np.pi * np.sin(np.deg2rad(th)))
    a = steering_vector(ArraySpec(4), th)
    np.testing.assert_allclose(a, [1, step, step ** 2, step ** 3], rtol=1e-12)


def test_steering_custom_spacing():
    a = steering_vector(ArraySpec(3, spacing=0.25), 30.0)
    np.testing.assert_allclose(a, [1, np.exp(1j * np.pi / 4), np.exp(1j * np.pi / 2)],
                               atol=1e-12)


@pytest.mark.parametrize("bad", [90.0, -90.0, 95.0, -180.0])
def test_steering_rejects_out_of_domain(bad):
    with pytest.raises(ValueError):
        steering_vector(ArraySpec(4), bad)


@given(theta=angles, m=st.integers(min_value=1, max_value=32))
@settings(max_examples=50, deadline=None)
def test_steering_unit_modulus_and_symmetry(theta, m):
    spec = ArraySpec(m)
    a = steering_vector(spec, theta)
    assert a[0] == 1.0 + 0j
    np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
    np.testing.assert_allclose(steering_vector(spec, -theta), np.conj(a), atol=1e-12)


def test_steering_matrix_stacks_columns():
    spec = ArraySpec(6)
    ang = [-40.0, 0.0, 15.0]
    mat = steering_matrix(spec, ang)
    assert mat.shape == (6, 3)
    for j, th in enumerate(ang):
        np.testing.assert_array_equal(mat[:, j], steering_vector(spec, th))
    assert steering_matrix(spec, []).shape == (6, 0)


@pytest.mark.parametrize("spacing", [0.5, 0.37])
def test_steering_matrix_matches_stacked_vectors(spacing):
    spec = ArraySpec(64, spacing)
    ang = np.concatenate([np.arange(-89.5, 89.75, 0.5),
                          np.random.default_rng(3).uniform(-89.99, 89.99, 200)])
    ref = np.stack([steering_vector(spec, t) for t in ang], axis=1)
    np.testing.assert_allclose(steering_matrix(spec, ang), ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [[90.0], [-90.0], [0.0, 10.0, -90.0], [0.0, np.nan]])
def test_steering_matrix_rejects_endfire(bad):
    with pytest.raises(ValueError, match=r"\|angle\| < 90"):
        steering_matrix(ArraySpec(4), bad)


def test_array_spec_validation():
    with pytest.raises(ValueError):
        ArraySpec(0)
    with pytest.raises(ValueError):
        ArraySpec(4, spacing=0.0)
    # a fractional or boolean size, or a non-finite spacing, fails at
    # construction instead of sizing arrays with np.arange(8.5)
    for elements in (8.5, 8.0, True, "8"):
        with pytest.raises(ValueError, match="elements must be an integer"):
            ArraySpec(elements)
    for spacing in (float("inf"), float("nan"), True, "0.5"):
        with pytest.raises(ValueError, match="spacing must be finite"):
            ArraySpec(4, spacing)
    spec = ArraySpec(np.int64(4), np.float32(0.25))
    assert steering_vector(spec, 30.0).shape == (4,)


def test_cached_coefficients_are_keyed_on_values():
    # same-size grids with different angles, and two taper angles, must each
    # get their own dictionary; without the taper, aod is not part of the key
    ris = ArraySpec(4)
    for grid, aod in (([-30.0, 0.0, 30.0], 20.0), ([-20.0, 5.0, 40.0], 20.0),
                      ([-20.0, 5.0, 40.0], -35.0)):
        ref = np.stack([steering_vector(ris, t) for t in grid], axis=1)
        np.testing.assert_array_equal(steering_dictionary(ris, grid), ref)
        np.testing.assert_array_equal(steering_dictionary(ris, grid, aod, tapered=True),
                                      ref * steering_vector(ris, aod)[:, None])
    cached = steering_dictionary(ris, [-20.0, 5.0, 40.0], -35.0, tapered=True)
    assert cached is steering_dictionary(ris, np.array([-20.0, 5.0, 40.0]), -35.0, True)
    assert cached is not steering_dictionary(ArraySpec(4, 0.25), [-20.0, 5.0, 40.0], -35.0,
                                             True)
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0] = 0.0
    untapered = steering_dictionary(ris, [-20.0, 5.0, 40.0], 20.0, tapered=False)
    assert untapered is steering_dictionary(ris, [-20.0, 5.0, 40.0], -35.0, tapered=False)


@st.composite
def power_cases(draw):
    m, n, stack = draw(st.integers(1, 64)), draw(st.integers(1, 6)), draw(st.integers(0, 3))
    spacing = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0]))
    grid = sorted(draw(st.lists(angles, min_size=1, max_size=40, unique=True)))
    kind = draw(st.sampled_from(["gaussian", "coherent", "null", "ones", "zero"]))
    return (m, n, stack, spacing, grid, draw(angles), draw(st.booleans()), kind,
            draw(st.integers(0, 2 ** 32 - 1)))


@given(case=power_cases())
@example(case=(1, 1, 0, 0.5, [-30.0, 0.0], 10.0, False, "gaussian", 0))
@example(case=(64, 90, 0, 0.5, [-89.5, -20.0, 0.25, 89.5], 12.0, True, "coherent", 1))
@example(case=(16, 1, 2, 2.0, [-60.0, 45.0], -30.0, True, "ones", 2))
@example(case=(8, 3, 2, 0.5, [-10.0, 10.0], 0.0, False, "zero", 3))
@example(case=(32, 4, 0, 0.5, [-40.0, 7.5, 33.0], 20.0, True, "null", 4))
@settings(max_examples=200, deadline=None)
def test_dictionary_power_equals_the_literal_quadratic_form(case):
    # the lag polynomial against sum_n |x_n^T c|^2 written out. The literal
    # form is good to about eps * M * sum|x|^2; the kernel also reads row k
    # of the dictionary as u^k, true to the rounding of the phases, which
    # grows as eps * spacing * M. Bound: 8 eps M (1 + spacing M) sum|x|^2
    # (over 3,000 random, all-ones and coherent draws the largest error was
    # 2.0 eps M (1 + spacing M) sum|x|^2).
    m, n, stack, spacing, grid, aod, tapered, kind, seed = case
    r = np.random.default_rng(seed)
    coeff = steering_dictionary(ArraySpec(m, spacing), grid, aod, tapered)
    shape = (stack, n, m) if stack else (n, m)
    if kind == "gaussian":
        rows = r.standard_normal(shape) + 1j * r.standard_normal(shape)
    elif kind == "coherent":  # each row matched to a grid column: the power peaks there
        rows = coeff.T.conj()[r.integers(len(grid), size=shape[:-1])] * r.uniform(0.5, 2, shape)
    elif kind == "null":  # every row with x^T c = 0 for the first column: a zero of the power
        rows = r.standard_normal(shape) + 1j * r.standard_normal(shape)
        rows -= (rows @ coeff[:, :1]) * coeff[:, 0].conj() / m
    else:
        rows = np.full(shape, 1.0 if kind == "ones" else 0.0, dtype=complex)
    got = dictionary_power(rows, coeff)
    ref = np.sum(np.abs(rows @ coeff) ** 2, axis=-2)
    assert got.shape == ref.shape == shape[:-2] + (len(grid),)
    bound = 8 * np.finfo(float).eps * m * (1 + spacing * m) * np.sum(np.abs(rows) ** 2,
                                                                     axis=(-2, -1))
    assert np.all(np.abs(got - ref) <= np.asarray(bound)[..., None])
    assert np.all(got >= 0) and not np.signbit(got).any()
    if kind == "zero":
        assert np.array_equal(got, np.zeros_like(got))
    for i in range(stack):  # a slice of a stack is the call on that slice, bit for bit
        assert np.array_equal(got[i], dictionary_power(rows[i], coeff))


# ------------------------------------------------------------- channels

def test_rician_huge_kappa_is_los(rng):
    spec = ArraySpec(8)
    h = rician_channel(spec, 17.0, 1e12, rng)
    np.testing.assert_allclose(h, steering_vector(spec, 17.0), atol=1e-5)


def test_rician_zero_kappa_statistics(rng):
    spec = ArraySpec(4)
    draws = np.array([rician_channel(spec, 0.0, 0.0, rng) for _ in range(10000)])
    power = np.mean(np.abs(draws) ** 2, axis=0)
    np.testing.assert_allclose(power, 1.0, rtol=0.05)
    assert np.max(np.abs(draws.mean(axis=0))) < 0.05


def test_rician_unit_kappa_mean(rng):
    spec = ArraySpec(4)
    draws = np.array([rician_channel(spec, -25.0, 1.0, rng) for _ in range(10000)])
    expected = np.sqrt(0.5) * steering_vector(spec, -25.0)
    np.testing.assert_allclose(draws.mean(axis=0), expected, atol=0.05)


def test_rician_rejects_negative_kappa(rng):
    with pytest.raises(ValueError):
        rician_channel(ArraySpec(4), 0.0, -0.1, rng)


# ------------------------------------------------------------- waveforms

def test_waveform_lengths_and_determinism():
    s1 = generate_waveform(64, np.random.default_rng(3))
    s2 = generate_waveform(64, np.random.default_rng(3))
    assert s1.samples.size == 64
    np.testing.assert_array_equal(s1.samples, s2.samples)


def test_gaussian_waveform_unit_power(rng):
    s = generate_waveform(100000, rng)
    assert abs(s.power - 1.0) < 0.05


def test_waveform_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        generate_waveform(0, rng)
    with pytest.raises(ValueError):
        Waveform(np.zeros(4))


# ------------------------------------------------------------- RIS hop

def test_ris_incident_direct_ray_only(rng):
    scene = make_scene(k=0, gain_ap_ris=2.0 + 0j)
    ris = ArraySpec(8)
    wf = generate_waveform(16, rng)
    got = ris_incident(scene, wf, ris)
    want = 2.0 * np.outer(steering_vector(ris, scene.aoa_ap_ris), wf.samples)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ris_incident_single_target(rng):
    scene = make_scene(k=1, gain_targets=[0.5 + 0j], gain_ap_ris=0.0 + 0j)
    ris = ArraySpec(8)
    wf = generate_waveform(16, rng)
    got = ris_incident(scene, wf, ris)
    want = 0.5 * np.outer(steering_vector(ris, 10.0), wf.samples)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ris_incident_superposition(rng):
    ris = ArraySpec(8)
    wf = generate_waveform(16, rng)
    full = ris_incident(make_scene(), wf, ris)
    only_targets = ris_incident(make_scene(gain_ap_ris=0j), wf, ris)
    only_ap = ris_incident(make_scene(gain_targets=[0j, 0j]), wf, ris)
    np.testing.assert_allclose(full, only_targets + only_ap, atol=1e-12)


def test_ris_reflect_small_example():
    incident = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    out = ris_reflect(incident, np.array([1.0, -1.0]), 0.0, ArraySpec(2))
    np.testing.assert_allclose(out, [-2.0, -2.0])


def test_ris_reflect_rejects_non_unit_modulus():
    incident = np.ones((2, 3), dtype=complex)
    with pytest.raises(ValueError):
        ris_reflect(incident, np.array([0.5, 1.0]), 0.0, ArraySpec(2))
    with pytest.raises(ValueError):
        ris_reflect(incident, np.ones(3), 0.0, ArraySpec(2))


def test_ris_reflect_matches_quadratic_form(rng):
    ris = ArraySpec(6)
    incident = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    v = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    b = steering_vector(ris, 20.0)
    want = b @ (np.diag(v) @ incident)
    np.testing.assert_allclose(ris_reflect(incident, v, 20.0, ris), want, atol=1e-10)


# ------------------------------------------------------------- receiver

def test_pr_received_ris_path_only(rng):
    scene = make_scene(gain_ap_pr=0j, gain_targets_pr=[0j, 0j],
                       gain_ris_pr=1.0 + 0j, aoa_ris_pr=0.0)
    pr = ArraySpec(4)
    wf = generate_waveform(8, rng)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    y = pr_received(scene, wf, x, pr, NoiseModel(0.0), rng)
    for row in y:
        np.testing.assert_allclose(row, x, atol=1e-12)


def test_pr_received_noise_statistics(rng):
    scene = make_scene(gain_ap_pr=0j, gain_targets_pr=[0j, 0j], gain_ris_pr=0j)
    pr = ArraySpec(16)
    wf = generate_waveform(1000, rng)
    y = pr_received(scene, wf, np.zeros(1000), pr, NoiseModel(2.0), rng)
    assert abs(np.mean(np.abs(y) ** 2) - 2.0) < 0.1


# ------------------------------------------------------------- acquisition

def _unit_phases_matrix(rng, n, m):
    return PhaseShiftMatrix(np.exp(1j * rng.uniform(0, 2 * np.pi, (n, m))))


def test_simulate_epochs_shapes(rng, scene):
    ris, pr = ArraySpec(8), ArraySpec(4)
    wf = generate_waveform(10, rng)
    phases = _unit_phases_matrix(rng, 3, 8)
    t = simulate_epochs(scene, wf, phases, pr, ris, NoiseModel(0.0), rng)
    assert t.shape == (3, 4, 10)


def test_simulate_epochs_deterministic(scene):
    ris, pr = ArraySpec(8), ArraySpec(4)
    wf = generate_waveform(10, np.random.default_rng(5))
    phases = _unit_phases_matrix(np.random.default_rng(6), 4, 8)
    t1 = simulate_epochs(scene, wf, phases, pr, ris, NoiseModel(0.5),
                         np.random.default_rng(7))
    t2 = simulate_epochs(scene, wf, phases, pr, ris, NoiseModel(0.5),
                         np.random.default_rng(7))
    np.testing.assert_array_equal(t1, t2)


def test_simulate_epochs_noiseless_direct_free_epochs_follow_phases(rng):
    # without fading or noise the epoch matrices depend on v_n alone
    scene = make_scene(gain_ap_pr=0j, gain_targets_pr=[0j, 0j])
    ris, pr = ArraySpec(8), ArraySpec(4)
    wf = generate_waveform(10, rng)
    row = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    phases = PhaseShiftMatrix(np.stack([row, row, -row]))
    t = simulate_epochs(scene, wf, phases, pr, ris, NoiseModel(0.0), rng)
    np.testing.assert_allclose(t[0], t[1], atol=1e-12)
    np.testing.assert_allclose(t[0], -t[2], atol=1e-12)


def test_simulate_epochs_gain_linearity(rng):
    base = make_scene(gain_ap_pr=0j, gain_targets_pr=[0j, 0j])
    scaled = make_scene(gain_ap_pr=0j, gain_targets_pr=[0j, 0j],
                        gain_targets=[0.15 + 0j, 0.15 + 0j],
                        gain_ap_ris=0.3 + 0j)
    ris, pr = ArraySpec(8), ArraySpec(4)
    wf = generate_waveform(10, np.random.default_rng(1))
    phases = _unit_phases_matrix(np.random.default_rng(2), 3, 8)
    t1 = simulate_epochs(base, wf, phases, pr, ris, NoiseModel(0.0),
                         np.random.default_rng(3))
    t2 = simulate_epochs(scaled, wf, phases, pr, ris, NoiseModel(0.0),
                         np.random.default_rng(3))
    np.testing.assert_allclose(t2, 3.0 * t1, atol=1e-12)


def test_simulate_epochs_builds_incident_field_once(rng, scene, monkeypatch):
    calls = {"n": 0}
    real = sm.ris_incident

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(sm, "ris_incident", counting)
    wf = generate_waveform(10, rng)
    phases = _unit_phases_matrix(rng, 5, 8)
    simulate_epochs(scene, wf, phases, ArraySpec(4), ArraySpec(8),
                    NoiseModel(0.0), rng)
    assert calls["n"] == 1


# ------------------------------------------------------------- validation

def test_scene_rejects_mismatched_target_lists():
    with pytest.raises(ValueError):
        make_scene(target_aoas_pr=[0.0])
    with pytest.raises(ValueError):
        make_scene(gain_targets=[0.1 + 0j])


def test_scene_rejects_bad_rician_and_gains():
    with pytest.raises(ValueError):
        make_scene(rician_ap_pr=-1.0)
    with pytest.raises(ValueError):
        make_scene(gain_ap_pr=np.inf + 0j)
    # an infinite K-factor gives NaN channels; steering is undefined at +-90,
    # even on a zero-gain direct path that is never steered
    with pytest.raises(ValueError, match="rician_ap_pr"):
        make_scene(rician_ap_pr=np.inf)
    for overrides in ({"aoa_ris_pr": 90.0}, {"aoa_ap_pr": -95.0, "gain_ap_pr": 0j},
                      {"target_aoas_pr": [10.0, -90.0]}):
        with pytest.raises(ValueError, match=r"\|angle\| < 90"):
            make_scene(**overrides)


def test_noise_model_rejects_negative_variance():
    with pytest.raises(ValueError):
        NoiseModel(-0.5)
