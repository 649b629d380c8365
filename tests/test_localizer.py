import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from risloc import (ArraySpec, BeamformedData, LocalizerConfig, default_grid,
                    detect_peaks, nlms_run, no_ris_localize, scan_vector, spectrum,
                    steering_vector)
from risloc.experiments import _scan_products
from risloc.localizer import _peak_indices, _step_denominator, nlms_adapt
from risloc.ris_optimizer import PhaseShiftMatrix
from risloc.signal_model import dictionary_power, steering_dictionary


def unit_phases(seed, n, m):
    r = np.random.default_rng(seed)
    return PhaseShiftMatrix(np.exp(1j * r.uniform(0, 2 * np.pi, (n, m))))


def coarse_cfg(**kw):
    kw.setdefault("grid", np.arange(-60.0, 61.0, 5.0))
    return LocalizerConfig(**kw)


def rank_one_data(phases, ris, theta, aod, seed=0, n_samples=200, scale=1.0):
    """Noiseless single-source epochs: z_l = scale * u(theta) * s_l.

    The signature is normalized to unit norm so mu stays inside the
    stability region (the step contracts by 1 - mu*||z|| per snapshot).
    NLMS only rescales a_hat along u, so the normalized spectrum of this
    data depends on neither n_samples nor scale.
    """
    r = np.random.default_rng(seed)
    s = (r.standard_normal(n_samples) + 1j * r.standard_normal(n_samples)) / np.sqrt(2)
    d = scan_vector(theta, phases, ris, aod)
    return BeamformedData(scale * np.outer(d / np.linalg.norm(d), s))


# --------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        LocalizerConfig(mu=-0.1)
    with pytest.raises(ValueError):
        LocalizerConfig(threshold=0.0)
    with pytest.raises(ValueError):
        LocalizerConfig(threshold=1.0)
    with pytest.raises(ValueError):
        LocalizerConfig(epsilon=-1e-9)
    with pytest.raises(ValueError):
        LocalizerConfig(grid=[3.0, 2.0, 1.0])
    # NaN or infinite step settings would write an all-NaN spectrum
    for kw in ({"mu": np.nan}, {"mu": np.inf}, {"epsilon": np.nan}, {"epsilon": np.inf}):
        with pytest.raises(ValueError, match="finite"):
            LocalizerConfig(**kw)
    for grid in ([[10.0, 20.0, 30.0]], 5.0):
        with pytest.raises(ValueError, match="1-D"):
            LocalizerConfig(grid=grid)
    LocalizerConfig(mu=0.0)  # frozen recursion is allowed


@pytest.mark.parametrize("grid", [[-90.0, 0.0, 45.0], [0.0, 90.0], [-95.0, -90.0, 0.0],
                                  [0.0, np.nan]])
def test_config_rejects_grid_outside_open_interval(grid):
    # steering is undefined at +-90, so the grid fails at load, not at scan
    # time; the error names the bad angles alone
    bad = [a for a in grid if not -90.0 < a < 90.0]
    with pytest.raises(ValueError, match=r"grid must satisfy \|angle\| < 90.*got "
                                         + re.escape(str(bad)) + "$"):
        LocalizerConfig(grid=grid)


def test_default_grid_spans_open_interval():
    g = default_grid()
    assert g[0] == -89.5 and g[-1] == 89.5
    assert g.size == 359
    np.testing.assert_allclose(np.diff(g), 0.5)


# --------------------------------------------------------------- scan vectors

def test_scan_vector_all_ones_broadside():
    ris = ArraySpec(8)
    ones = PhaseShiftMatrix(np.ones((1, 8), dtype=complex))
    np.testing.assert_allclose(
        scan_vector(0.0, ones, ris, 0.0, include_b=True), [8.0], atol=1e-12)
    np.testing.assert_allclose(
        scan_vector(0.0, ones, ris, 35.0, include_b=False), [8.0], atol=1e-12)


def test_scan_vector_taper_toggle(rng):
    from risloc import steering_vector
    ris = ArraySpec(6)
    phases = unit_phases(1, 4, 6)
    a = steering_vector(ris, 12.0)
    b = steering_vector(ris, -20.0)
    np.testing.assert_allclose(scan_vector(12.0, phases, ris, -20.0, False),
                               phases.matrix @ a, atol=1e-12)
    np.testing.assert_allclose(scan_vector(12.0, phases, ris, -20.0, True),
                               phases.matrix @ (a * b), atol=1e-12)


# --------------------------------------------------------------- recursion

def test_zero_step_size_keeps_estimate_at_zero(rng):
    ris = ArraySpec(8)
    phases = unit_phases(2, 5, 8)
    data = BeamformedData(rng.standard_normal((5, 20))
                          + 1j * rng.standard_normal((5, 20)))
    out = nlms_run(data, 10.0, coarse_cfg(mu=0.0), phases, ris, 20.0)
    np.testing.assert_array_equal(out, np.zeros(5))


def test_single_snapshot_closed_form(rng):
    ris = ArraySpec(8)
    phases = unit_phases(3, 5, 8)
    cfg = coarse_cfg(mu=0.2)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    data = BeamformedData(z[:, None])
    d = scan_vector(-15.0, phases, ris, 20.0)
    want = (0.2 / (np.linalg.norm(z) + cfg.epsilon)) * np.conj(np.vdot(d, z)) * z
    np.testing.assert_allclose(nlms_run(data, -15.0, cfg, phases, ris, 20.0),
                               want, atol=1e-12)


def test_textbook_normalization_single_snapshot(rng):
    ris = ArraySpec(8)
    phases = unit_phases(3, 5, 8)
    cfg = coarse_cfg(mu=0.2, textbook_norm=True)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    d = scan_vector(-15.0, phases, ris, 20.0)
    want = (0.2 / (np.linalg.norm(z) ** 2 + cfg.epsilon)) * np.conj(np.vdot(d, z)) * z
    np.testing.assert_allclose(
        nlms_run(BeamformedData(z[:, None]), -15.0, cfg, phases, ris, 20.0),
        want, atol=1e-12)


def test_recursion_matches_independent_transcription(rng):
    # reference loop written out term by term, no shared helpers
    ris = ArraySpec(8)
    phases = unit_phases(4, 6, 8)
    cfg = coarse_cfg(mu=0.15)
    data = BeamformedData(rng.standard_normal((6, 40))
                          + 1j * rng.standard_normal((6, 40)))
    d = scan_vector(25.0, phases, ris, 20.0)

    a_ref = np.zeros(6, dtype=complex)
    for ell in range(40):
        z = data.z[:, ell]
        p = np.conj(d) @ z
        e = p - np.conj(a_ref) @ z
        a_ref = a_ref + cfg.mu / (np.sqrt(np.sum(np.abs(z) ** 2)) + cfg.epsilon) \
            * np.conj(e) * z
    got = nlms_run(data, 25.0, cfg, phases, ris, 20.0)
    np.testing.assert_allclose(got, a_ref, atol=1e-12)


def test_step_denominator_forms(rng):
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cfg = coarse_cfg()
    assert abs(_step_denominator(z, cfg)
               - (np.linalg.norm(z) + cfg.epsilon)) < 1e-15
    cfg2 = coarse_cfg(textbook_norm=True)
    assert abs(_step_denominator(z, cfg2)
               - (np.linalg.norm(z) ** 2 + cfg2.epsilon)) < 1e-15


# --------------------------------------------------------------- spectrum

def test_batch_spectrum_equals_per_angle_runs(rng):
    ris = ArraySpec(12)
    phases = unit_phases(5, 8, 12)
    cfg = coarse_cfg(mu=0.3)
    data = BeamformedData(rng.standard_normal((8, 30))
                          + 1j * rng.standard_normal((8, 30)))
    res = spectrum(data, cfg, phases, ris, 20.0)
    for i, theta in enumerate(cfg.grid):
        a_hat = nlms_run(data, theta, cfg, phases, ris, 20.0)
        np.testing.assert_allclose(res.power[i], np.sum(np.abs(a_hat) ** 2),
                                   atol=1e-10, rtol=1e-10)


def _random_snapshots(seed, n, n_samples):
    r = np.random.default_rng(seed)
    return r.standard_normal((n, n_samples)) + 1j * r.standard_normal((n, n_samples))


def _block_examples(**fixed):
    """@example at n_samples 1 (one block), 36 (six exact 6 x 6 blocks), 37 (a
    one-row last block) and 40 (a four-row last block) of nlms_adapt's
    blocked substitution, with the other arguments fixed."""
    def apply(test):
        for n_samples in (1, 36, 37, 40):
            test = example(n_samples=n_samples, **fixed)(test)
        return test
    return apply


# Below the normal range (powers under 2.2e-308) doubles are spaced
# smallest_subnormal (4.9e-324) apart whatever their size, so a relative
# bound smaller than one spacing cannot hold there: each rounding into that
# range costs up to half a spacing, absolutely. A power passes through a few
# dozen such roundings (squares and sums over N <= 12 rows, a 2M-point
# inverse FFT and an M-term sum in dictionary_power; N squares in the
# reference). The largest excess over the relative bound in 3,000 draws with
# mu from 1e-166 to 1e-150 was 11 spacings. 64 spacings (3.2e-322) cover it,
# and are under 1.5e-4 of the relative term at any normal-range power.
SUBNORMAL_STEPS = 64


def _power_bound(ref):
    return 1e-10 * np.max(ref) + SUBNORMAL_STEPS * np.finfo(float).smallest_subnormal


_kernel_cases = dict(
    n=st.integers(1, 12), n_samples=st.integers(1, 40),
    grid=st.lists(st.floats(-89.0, 89.0), min_size=1, max_size=15, unique=True),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), textbook=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1))


@given(m=st.integers(1, 8), aod=st.floats(-60.0, 60.0), **_kernel_cases)
@_block_examples(n=12, m=8, grid=[-30.0, 0.0, 45.0], mu=0.5, textbook=False, seed=3,
                 aod=20.0)
# a power of 36 subnormal spacings (1.8e-322) that the kernel gets one spacing off
@example(n=1, m=1, n_samples=1, grid=[1.0], mu=7.273384533823699e-161, textbook=False,
         seed=0, aod=20.0)
@settings(max_examples=150, deadline=None)
def test_spectrum_equals_per_angle_nlms_runs_property(n, m, n_samples, grid, mu,
                                                      textbook, seed, aod):
    # grid sizes 1..15 against N up to 12 cover both N > grid and N < grid
    ris = ArraySpec(m)
    phases = unit_phases(seed, n, m)
    cfg = LocalizerConfig(mu=mu, grid=sorted(grid), textbook_norm=textbook)
    data = BeamformedData(_random_snapshots(seed, n, n_samples))
    ref = np.array([np.sum(np.abs(nlms_run(data, t, cfg, phases, ris, aod)) ** 2)
                    for t in cfg.grid])
    got = spectrum(data, cfg, phases, ris, aod).power
    assert np.max(np.abs(got - ref)) <= _power_bound(ref)


@given(**_kernel_cases)
# a power of 606 subnormal spacings (3.0e-321) that the kernel gets one spacing off
@example(n=2, n_samples=1, grid=[1.0], mu=7.273384533823699e-161, textbook=False, seed=0)
@settings(max_examples=150, deadline=None)
def test_no_ris_equals_per_angle_runs_property(n, n_samples, grid, mu, textbook, seed):
    pr = ArraySpec(n)
    cfg = LocalizerConfig(mu=mu, grid=sorted(grid), textbook_norm=textbook)
    y = _random_snapshots(seed, n, n_samples)
    ref = []
    for theta in cfg.grid:
        d = steering_vector(pr, theta)
        a_hat = np.zeros(n, dtype=complex)
        for ell in range(n_samples):
            z = y[:, ell]
            err = np.vdot(d, z) - np.vdot(a_hat, z)
            a_hat = a_hat + (cfg.mu / _step_denominator(z, cfg)) * np.conj(err) * z
        ref.append(np.sum(np.abs(a_hat) ** 2))
    ref = np.array(ref)
    got = no_ris_localize(y, cfg, pr).power
    assert np.max(np.abs(got - ref)) <= _power_bound(ref)


@given(n=st.integers(1, 12), m=st.integers(1, 8), n_samples=st.integers(1, 40),
       mu=st.floats(0.5, 1.0), textbook=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(n=12, m=8, n_samples=40, mu=1.0, textbook=False, seed=2)  # the largest steps
@_block_examples(n=12, m=8, mu=1.0, textbook=False, seed=3)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_extended_precision_recursion(n, m, n_samples, mu, textbook, seed):
    # mu >= 0.5 with the plain norm makes step factors mu*||z_l|| up to ~6, where
    # the recursion diverges and the rounding of the kernel's form shows; the
    # reference is the recursion X <- X + c_l z_l (z_l^H B - z_l^H X) in
    # clongdouble (plain double on platforms without extended precision)
    cfg = LocalizerConfig(mu=mu, textbook_norm=textbook)
    z = _random_snapshots(seed, n, n_samples)
    basis = unit_phases(seed, n, m).matrix
    zl, bl = z.astype(np.clongdouble), basis.astype(np.clongdouble)
    x = np.zeros((n, m), dtype=np.clongdouble)
    for ell in range(n_samples):
        nrm = np.sqrt(np.sum(np.abs(zl[:, ell]) ** 2))
        den = (nrm * nrm if textbook else nrm) + np.longdouble(cfg.epsilon)
        step = np.longdouble(mu) / den
        x = x + step * np.outer(zl[:, ell], zl[:, ell].conj() @ (bl - x))
    ref = x.astype(complex)
    got = nlms_adapt(z, basis, cfg)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@given(stack=st.integers(1, 5), m=st.integers(1, 8), **_kernel_cases)
@example(stack=3, m=4, n=5, n_samples=12, grid=[0.0], mu=0.0, textbook=False, seed=1)
@example(stack=3, m=4, n=5, n_samples=12, grid=[0.0], mu=0.5, textbook=True, seed=1)
@_block_examples(stack=3, m=4, n=5, grid=[0.0], mu=0.5, textbook=False, seed=1)
# the shipped L = 100 (10 x 10 blocks): from blocks of about 8 rows, a block
# product that leaves BLAS on a strided slice shows as a slice that differs
@example(stack=3, m=4, n=5, n_samples=100, grid=[0.0], mu=0.5, textbook=False, seed=1)
@settings(max_examples=100, deadline=None)
def test_stacked_kernel_equals_per_slice_calls(stack, n, m, n_samples, grid, mu,
                                               textbook, seed):
    # a stack of snapshot sets is adapted in one pass; each slice must be bit
    # for bit the 2-D call, the form localizer.spectrum runs
    cfg = LocalizerConfig(mu=mu, textbook_norm=textbook)
    z = np.stack([_random_snapshots(seed + i, n, n_samples) for i in range(stack)])
    basis = unit_phases(seed, n, m).matrix
    got = nlms_adapt(z, basis, cfg)
    assert got.shape == (stack, n, m)
    for zs, xs in zip(z, got):
        assert np.array_equal(xs, nlms_adapt(zs, basis, cfg))
    if mu == 0.0:
        assert not np.any(got)


def test_noiseless_single_source_dominates(rng):
    ris = ArraySpec(32)
    phases = unit_phases(7, 48, 32)
    cfg = coarse_cfg(mu=0.5)
    data = rank_one_data(phases, ris, 10.0, 20.0)
    res = spectrum(data, cfg, phases, ris, 20.0)
    assert res.grid[np.argmax(res.power)] == 10.0
    assert res.peaks == [10.0]
    assert res.normalized[np.argmax(res.power)] == 1.0


def test_two_sources_both_detected(rng):
    ris = ArraySpec(32)
    phases = unit_phases(8, 64, 32)
    cfg = coarse_cfg(mu=0.3, threshold=0.3)
    r = np.random.default_rng(11)
    s1 = (r.standard_normal(300) + 1j * r.standard_normal(300)) / np.sqrt(2)
    s2 = (r.standard_normal(300) + 1j * r.standard_normal(300)) / np.sqrt(2)
    u1 = scan_vector(-20.0, phases, ris, 20.0)
    u2 = scan_vector(25.0, phases, ris, 20.0)
    z = np.outer(u1 / np.linalg.norm(u1), s1) + np.outer(u2 / np.linalg.norm(u2), s2)
    res = spectrum(BeamformedData(z), cfg, phases, ris, 20.0)
    assert res.peaks == [-20.0, 25.0]


def test_longer_adaptation_sharpens_contrast():
    ris = ArraySpec(32)
    phases = unit_phases(9, 48, 32)
    cfg = coarse_cfg(mu=0.2)
    # unit-norm, non-orthogonal signatures: strong at 10 deg, 10 dB weaker at -20
    r = np.random.default_rng(0)
    s = (r.standard_normal((2, 400)) + 1j * r.standard_normal((2, 400))) / np.sqrt(2)
    u = np.stack([scan_vector(t, phases, ris, 20.0) for t in (10.0, -20.0)], axis=1)
    z = (u / np.linalg.norm(u, axis=0)) @ (np.array([[1.0], [10 ** -0.5]]) * s)
    weak = np.flatnonzero(cfg.grid == -20.0)[0]
    short = spectrum(BeamformedData(z[:, :10]), cfg, phases, ris, 20.0)
    long = spectrum(BeamformedData(z), cfg, phases, ris, 20.0)
    # the weak source only clears the threshold once NLMS has adapted along it
    assert short.peaks == [10.0]
    assert long.peaks == [-20.0, 10.0]
    assert long.normalized[weak] > 2.0 * short.normalized[weak]

    # control: with rank-one data the normalized spectrum does not depend on L
    short = spectrum(rank_one_data(phases, ris, 10.0, 20.0, n_samples=10),
                     cfg, phases, ris, 20.0)
    long = spectrum(rank_one_data(phases, ris, 10.0, 20.0, n_samples=400),
                    cfg, phases, ris, 20.0)
    np.testing.assert_allclose(long.normalized, short.normalized, atol=1e-12)


@given(n=st.integers(1, 12), m=st.integers(1, 8), n_samples=st.integers(1, 40),
       mu=st.floats(1e-3, 1.0), epsilon=st.floats(0.0, 1.0), aod=st.floats(-60.0, 60.0),
       include_b=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_noise_free_spectrum_is_bartlett_of_g(n, m, n_samples, mu, epsilon, aod,
                                              include_b, seed):
    # for z = g s^T each NLMS step scales the part of d - a_hat along g by
    # f_l = 1 - c_l |s_l|^2 ||g||^2 and keeps the rest, so from a_hat = 0,
    # a_hat_L(d) = kappa g g^H d / ||g||^2 with kappa = 1 - prod f_l for every
    # d: the normalized spectrum is |g^H V c(theta)|^2 over its maximum, the
    # Bartlett beamformer of g on the virtual array, whatever L, mu and
    # epsilon. The kernel's rounding grows with the largest partial product
    # of |f_l| and with 1 / |kappa|; the largest error over 4,000 draws was
    # 2.2 eps (M + L growth / |kappa|)
    r = np.random.default_rng(seed)
    g, s = [(r.standard_normal(k) + 1j * r.standard_normal(k)) / np.sqrt(2)
            for k in (n, n_samples)]
    cfg = coarse_cfg(mu=mu, epsilon=epsilon, include_b=include_b)
    f = 1 - mu * np.abs(s) ** 2 * np.vdot(g, g).real / (np.linalg.norm(g) * np.abs(s) + epsilon)
    kappa = 1 - np.prod(f)
    assume(kappa != 0)  # a_hat stays at 0
    growth = max(1.0, np.max(np.cumprod(np.abs(f))), np.max(np.cumprod(np.abs(f[::-1]))))
    ris, phases = ArraySpec(m), unit_phases(seed, n, m)
    coeff = steering_dictionary(ris, cfg.grid, aod, include_b)
    bartlett = dictionary_power((g.conj() @ phases.matrix)[None], coeff)
    got = spectrum(BeamformedData(np.outer(g, s)), cfg, phases, ris, aod).normalized
    assert (np.max(np.abs(got - bartlett / bartlett.max()))
            <= 16 * np.finfo(float).eps * (m + n_samples * growth / abs(kappa)))


@pytest.mark.parametrize("scale", [2.0, 0.5j])
def test_peak_locations_survive_input_scaling(scale):
    ris = ArraySpec(32)
    phases = unit_phases(10, 48, 32)
    cfg = coarse_cfg(mu=0.2)
    base = spectrum(rank_one_data(phases, ris, -35.0, 20.0), cfg, phases, ris, 20.0)
    scaled = spectrum(rank_one_data(phases, ris, -35.0, 20.0, scale=scale),
                      cfg, phases, ris, 20.0)
    assert base.peaks == scaled.peaks


def test_all_zero_input_is_degenerate():
    ris = ArraySpec(8)
    phases = unit_phases(12, 4, 8)
    res = spectrum(BeamformedData(np.zeros((4, 10), dtype=complex)),
                   coarse_cfg(), phases, ris, 20.0)
    assert res.degenerate
    assert res.peaks == []
    np.testing.assert_array_equal(res.normalized, 0.0)


# --------------------------------------------------------------- peaks

def test_detect_peaks_simple_example():
    grid = np.array([0.0, 1.0, 2.0])
    assert detect_peaks(np.array([0.1, 0.9, 0.2]), grid, 0.5) == [1.0]


def test_detect_peaks_threshold_filters():
    grid = np.array([0.0, 1.0, 2.0])
    assert detect_peaks(np.array([0.1, 0.4, 0.1]), grid, 0.5) == []


def test_detect_peaks_monotone_ramp_has_none():
    grid = np.arange(5.0)
    assert detect_peaks(np.array([0.1, 0.3, 0.5, 0.7, 0.9]), grid, 0.2) == []


def test_detect_peaks_endpoints_excluded():
    grid = np.arange(3.0)
    assert detect_peaks(np.array([1.0, 0.5, 0.1]), grid, 0.2) == []
    assert detect_peaks(np.array([0.1, 0.5, 1.0]), grid, 0.2) == []


def test_detect_peaks_plateau_leftmost():
    grid = np.arange(5.0)
    vals = np.array([0.1, 0.8, 0.8, 0.8, 0.2])
    assert detect_peaks(vals, grid, 0.5) == [1.0]


def test_detect_peaks_multiple():
    grid = np.arange(7.0)
    vals = np.array([0.0, 0.9, 0.1, 0.7, 0.1, 0.8, 0.0])
    assert detect_peaks(vals, grid, 0.5) == [1.0, 3.0, 5.0]


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=40),
       st.floats(min_value=0.05, max_value=0.9),
       st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=100, deadline=None)
def test_detect_peaks_monotone_in_threshold(values, phi_a, phi_b):
    vals = np.asarray(values)
    grid = np.arange(float(vals.size))
    lo, hi = sorted((phi_a, phi_b))
    assert set(detect_peaks(vals, grid, hi)) <= set(detect_peaks(vals, grid, lo))


def _peak_indices_loop(values, phi=-np.inf):
    """Reference scan: walk each plateau, keep its first index if it rises
    above both neighbours and phi and touches neither end."""
    values = np.asarray(values)
    n = values.size
    out = []
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if (j + 1 < n and values[i] > phi
                and values[i] > values[i - 1]
                and values[i] > values[j + 1]):
            out.append(i)
        i = j + 1
    return out


@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, np.nan]), max_size=30),
       st.one_of(st.just(-np.inf), st.floats(-0.1, 1.1)))
@settings(max_examples=300, deadline=None)
@example([], -np.inf)
@example([1.0], -np.inf)
@example([0.0, 1.0], -np.inf)
@example([0.5, 0.5, 1.0, 1.0, 0.0, 0.75, 0.75], 0.1)
@example([0.0, np.nan, 1.0, np.nan, 0.0], -np.inf)
def test_peak_indices_equal_the_plateau_walk(values, phi):
    # few distinct values: plateaus, plateaus at either end, NaNs, sizes 0-2
    assert _peak_indices(np.array(values), phi) == _peak_indices_loop(values, phi)


SCAN_PRODUCTS_RTOL = 1e-12  # allowed |power difference| / max power, see below


@given(n=st.integers(1, 16), m=st.integers(1, 64), n_samples=st.sampled_from([1, 36, 37, 100]),
       scales=st.lists(st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e), min_size=1,
                       max_size=3).map(lambda s: [0.0] + s),
       mu=st.floats(0.0, 1.0), textbook=st.booleans(), aod=st.floats(-60.0, 60.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=12, m=64, n_samples=100, scales=[0.0, 1e-4, 1e4], mu=1.0, textbook=False,
         aod=20.0, seed=1)
@settings(max_examples=150, deadline=None)
def test_spectrum_from_scan_products_equals_plain_call(n, m, n_samples, scales, mu, textbook,
                                                       aod, seed):
    # the sweep's snapshots z = g s^T + c E, with unit-variance entries in g,
    # s and E, at scales c of 0 (noise-free) and 1e-4 to 1e4 (+-80 dB), with
    # Z^H Z and Z^H V built from per-trial pieces, against the call that forms
    # both from z: the same picks, and power within SCAN_PRODUCTS_RTOL of the
    # peak. The pieces' Gram matrix differs from Z^H Z by rounding of the size
    # of Z^H Z's own; the largest difference over 3,000 draws was 2.5e-15 of
    # the peak. With the plain norm, mu is divided by the largest ||z_l||, so
    # that no step diverges
    r = np.random.default_rng(seed)
    g, s = [(r.standard_normal(k) + 1j * r.standard_normal(k)) / np.sqrt(2)
            for k in (n, n_samples)]
    noise = (r.standard_normal((n, n_samples))
             + 1j * r.standard_normal((n, n_samples))) / np.sqrt(2)
    ris, phases = ArraySpec(m), unit_phases(seed, n, m)
    for c, products in zip(scales, _scan_products(g, s, noise, phases.matrix, scales)):
        z = np.outer(g, s) + c * noise
        step = mu if textbook else mu / np.max(np.linalg.norm(z, axis=0))
        cfg = LocalizerConfig(mu=step, textbook_norm=textbook)
        ref = spectrum(BeamformedData(z), cfg, phases, ris, aod)
        got = spectrum(BeamformedData(z), cfg, phases, ris, aod, products=products)
        assert got.peaks == ref.peaks
        assert (np.max(np.abs(got.power - ref.power))
                <= SCAN_PRODUCTS_RTOL * np.max(ref.power))
