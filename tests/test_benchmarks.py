import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risloc import (MISS_ERROR_DEG, ArraySpec, BeamformedData, LocalizerConfig,
                    SpectrumResult, music_estimate,
                    no_ris_localize, select_estimates, steering_vector,
                    trial_error)
from risloc.benchmarks import _signal_fraction, _signal_subspaces, _top_eigenvalues
from risloc.localizer import scan_vector
from risloc.ris_optimizer import PhaseShiftMatrix
from risloc.signal_model import dictionary_power, steering_dictionary


def unit_phases(seed, n, m):
    r = np.random.default_rng(seed)
    return PhaseShiftMatrix(np.exp(1j * r.uniform(0, 2 * np.pi, (n, m))))


def source_data(phases, ris, thetas, aod, seed=0, n_samples=120, coherent=False):
    # coherent: every source carries the first waveform, so z is rank one
    return BeamformedData(_sources(phases, ris, thetas, aod, seed, n_samples, coherent)[0])


def _sources(phases, ris, thetas, aod, seed, n_samples, coherent):
    """source_data's z, and the factors (g, s) of z = g s^T, to rounding, when
    coherent (else None)."""
    r = np.random.default_rng(seed)
    z = np.zeros((phases.n_epoch, n_samples), dtype=complex)
    for i, theta in enumerate(thetas):
        if i == 0 or not coherent:
            s = (r.standard_normal(n_samples)
                 + 1j * r.standard_normal(n_samples)) / np.sqrt(2)
        z += np.outer(scan_vector(theta, phases, ris, aod), s)
    g = sum(scan_vector(theta, phases, ris, aod) for theta in thetas)
    return z, ((g, s) if coherent else None)


GRID = np.arange(-60.0, 61.0, 5.0)
CFG = LocalizerConfig(grid=GRID)


# ------------------------------------------------------------------ MUSIC

def test_music_single_source_exact():
    ris = ArraySpec(16)
    phases = unit_phases(0, 12, 16)
    data = source_data(phases, ris, [25.0], 20.0)
    assert music_estimate(data, 1, CFG, phases, ris, 20.0) == [25.0]


def test_music_two_sources_exact():
    ris = ArraySpec(16)
    phases = unit_phases(1, 12, 16)
    data = source_data(phases, ris, [-40.0, 15.0], 20.0)
    assert music_estimate(data, 2, CFG, phases, ris, 20.0) == [-40.0, 15.0]


def test_music_scale_invariant():
    ris = ArraySpec(16)
    phases = unit_phases(2, 10, 16)
    data = source_data(phases, ris, [-40.0, 15.0], 20.0)
    scaled = BeamformedData(7.5 * data.z)
    assert (music_estimate(data, 2, CFG, phases, ris, 20.0)
            == music_estimate(scaled, 2, CFG, phases, ris, 20.0))


def test_music_validates_model_order():
    ris = ArraySpec(8)
    phases = unit_phases(3, 4, 8)
    data = source_data(phases, ris, [0.0], 20.0)
    with pytest.raises(ValueError):
        music_estimate(data, 0, CFG, phases, ris, 20.0)
    with pytest.raises(ValueError):
        music_estimate(data, 4, CFG, phases, ris, 20.0)
    # scales without noise, noise without scales, or noise of another shape
    # than data.z, fail with a message naming them rather than being ignored,
    # returning no estimates or failing in matmul
    with pytest.raises(ValueError, match="scales .*noise=None"):
        music_estimate(data, 1, CFG, phases, ris, 20.0, scales=[0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="scales must have at least one entry"):
        music_estimate(data, 1, CFG, phases, ris, 20.0, noise=np.zeros(data.z.shape), scales=())
    for noise in (np.zeros((4, 7)), np.zeros(data.z.shape[1]), np.zeros(data.z.shape[::-1])):
        with pytest.raises(ValueError, match=rf"noise must have the shape \(4, 120\) .*"
                                             rf"{re.escape(str(noise.shape))}"):
            music_estimate(data, 1, CFG, phases, ris, 20.0, noise=noise, scales=[1.0])


def test_music_always_returns_requested_count():
    # coherent pair: the covariance is rank one, the second angle must be
    # supplemented rather than dropped
    ris = ArraySpec(16)
    phases = unit_phases(4, 10, 16)
    r = np.random.default_rng(5)
    s = (r.standard_normal(100) + 1j * r.standard_normal(100)) / np.sqrt(2)
    z = (np.outer(scan_vector(-30.0, phases, ris, 20.0), s)
         + np.outer(scan_vector(10.0, phases, ris, 20.0), s))
    est = music_estimate(BeamformedData(z), 2, CFG, phases, ris, 20.0)
    assert len(est) == 2
    assert est == sorted(est)


def test_music_agrees_with_principal_direction_search():
    # small-epoch check against an independently computed best-match angle
    ris = ArraySpec(12)
    phases = unit_phases(6, 6, 12)
    data = source_data(phases, ris, [10.0], 20.0)
    got = music_estimate(data, 1, CFG, phases, ris, 20.0)

    r = data.z @ data.z.conj().T / data.n_samples
    vals, vecs = np.linalg.eigh(r)
    principal = vecs[:, -1]
    scores = []
    for theta in GRID:
        u = scan_vector(theta, phases, ris, 20.0)
        scores.append(abs(np.vdot(u / np.linalg.norm(u), principal)))
    assert got == [GRID[int(np.argmax(scores))]]


@given(n=st.integers(2, 12), m=st.integers(1, 8), k=st.integers(1, 11),
       grid=st.lists(st.floats(-89.0, 89.0), min_size=1, max_size=15, unique=True),
       aod=st.floats(-60.0, 60.0), include_b=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_factored_music_denominator_equals_explicit_form(n, m, k, grid, aod,
                                                        include_b, seed):
    # N up to 12 against M up to 8 draws both N > M and N <= M for the basis B = V
    k = min(k, n - 1)
    grid = sorted(grid)
    ris = ArraySpec(m)
    phases = unit_phases(seed, n, m)
    r = np.random.default_rng(seed)
    q, _ = np.linalg.qr(r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)))
    # the MUSIC denominator as 1 - q, with the signal-subspace fraction
    # q = ||S^H d||^2 / ||d||^2, against the explicit ||E^H d||^2 / ||d||^2,
    # with E and S complementary columns of one unitary
    noise_sub, signal_sub = q[:, : n - k], q[:, n - k:]
    d = np.stack([scan_vector(t, phases, ris, aod, include_b) for t in grid], axis=1)
    d = d / np.linalg.norm(d, axis=0)
    ref = np.sum(np.abs(noise_sub.conj().T @ d) ** 2, axis=0)
    coeff = steering_dictionary(ris, grid, aod, include_b)
    got = 1.0 - _signal_fraction(signal_sub, phases.matrix, coeff,
                                 dictionary_power(phases.matrix, coeff))
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(ref)


def explicit_music(z, k, cfg, phases, ris, aod):
    """MUSIC written out: noise subspace E of the loaded sample covariance,
    pseudospectrum 1 / ||E^H d||^2 over explicit unit-norm scan vectors."""
    n, n_samples = z.shape
    r = z @ z.conj().T / n_samples
    r = r + 1e-10 * np.trace(r).real / n * np.eye(n)
    noise_sub = np.linalg.eigh(r)[1][:, : n - k]
    d = np.stack([scan_vector(t, phases, ris, aod, cfg.include_b) for t in cfg.grid], axis=1)
    d = d / np.linalg.norm(d, axis=0)
    pseudo = 1.0 / np.maximum(np.sum(np.abs(noise_sub.conj().T @ d) ** 2, axis=0), 1e-300)
    peaks = [i for i in range(1, pseudo.size - 1)
             if pseudo[i - 1] < pseudo[i] > pseudo[i + 1]]
    return sorted(float(cfg.grid[i]) for i in sorted(peaks, key=lambda i: -pseudo[i])[:k])


@given(n=st.integers(6, 12), m=st.integers(8, 16), seed=st.integers(0, 2 ** 32 - 1),
       thetas=st.sampled_from([[25.0], [-40.0, 15.0], [-45.0, -10.0, 30.0]]),
       scales=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4),
       coherent=st.booleans())
@settings(max_examples=60, deadline=None)
@example(n=10, m=8, seed=91, thetas=[-45.0, -10.0, 30.0], scales=[8.0],
         coherent=False)  # a fill-in
def test_music_over_scales_equals_one_call_per_acquisition(n, m, seed, thetas, scales,
                                                           coherent):
    # the sweep's form: one call for the acquisitions z0 + s * noise, with the
    # noise-free s = 0 (an SNR of +inf) first; its picks must be those of one
    # call per acquisition, and of the explicit noise-subspace form. With
    # fewer than k interior maxima the explicit form returns those alone, and
    # music_estimate fills in from the other grid points. A coherent z0 is
    # rank one, as the sweep's is, and with its factors the call takes the
    # rank-two update
    ris = ArraySpec(m)
    phases = unit_phases(seed, n, m)
    z0, factors = _sources(phases, ris, thetas, 20.0, seed, 60, coherent)
    r = np.random.default_rng(seed + 1)
    noise = (r.standard_normal(z0.shape) + 1j * r.standard_normal(z0.shape)) / np.sqrt(2)
    scales = [0.0] + scales
    k = len(thetas)
    got = music_estimate(BeamformedData(z0), k, CFG, phases, ris, 20.0,
                         noise=noise, scales=scales, factors=factors)
    assert len(got) == len(scales)
    for s, est in zip(scales, got):
        acquisition = z0 + s * noise
        assert est == music_estimate(BeamformedData(acquisition), k, CFG, phases, ris, 20.0)
        lam = np.linalg.eigvalsh(acquisition @ acquisition.conj().T)
        if lam[n - k] - lam[n - k - 1] <= 1e-9 * lam[-1]:
            continue  # the k leading eigenvectors are not unique (coherent, s = 0)
        ref = explicit_music(acquisition, k, CFG, phases, ris, 20.0)
        if len(ref) == k:
            assert est == ref
        else:
            assert len(est) == k and set(ref) < set(est)
    if not coherent:
        assert got[0] == sorted(thetas)


RANK_TWO_C = 1e3  # allowed projector error, in units of eps ||G|| / (lambda_k - lambda_k+1)
TOP_EIGENVALUE_C = 64  # allowed eigenvalue error, in units of eps ||G||


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# unit-scale draws, and draws over decades, where ||g|| / ||noise conj(t)||
# reaches 1e3 and s^2 ||C|| / ||U D U^H|| reaches 1e14, either way up
_rank_one_cases = dict(
    n=st.integers(3, 12), l=st.integers(1, 24), k=st.integers(1, 11),
    seed=st.integers(0, 2 ** 32 - 1),
    g_norm=st.one_of(st.just(1.0), _decades(-3.0, 3.0)),
    scales=st.lists(st.one_of(st.floats(1e-3, 10.0), _decades(-4.0, 4.0)),
                    min_size=1, max_size=4))


def rank_one_draw(n, l, seed, g_norm):
    """z0 = g t^T as in the sweep, its factors (g, t), ||g|| about g_norm,
    unit noise (N x L), and the function that drew them, for further draws."""
    r = np.random.default_rng(seed)

    def cn(*shape):
        return (r.standard_normal(shape) + 1j * r.standard_normal(shape)) / np.sqrt(2)

    g, t = g_norm * cn(n), cn(l)
    return np.outer(g, t), (g, t), cn(n, l), cn


@given(m=st.integers(4, 12), **_rank_one_cases)
@settings(max_examples=150, deadline=None)
def test_rank_two_update_matches_eigh(n, l, k, m, seed, g_norm, scales):
    # z0 = g t^T as in the sweep, with L up to 2N, so C = noise noise^H is
    # singular when L < N. The structured path's projector S S^H is held to
    # eigh's within RANK_TWO_C eps ||G|| / gap, the size of eigh's own error
    l, k = min(l, 2 * n), min(k, n - 1)
    z0, factors, noise, cn = rank_one_draw(n, l, seed, g_norm)
    a = z0 @ z0.conj().T
    b = z0 @ noise.conj().T
    b += b.conj().T
    c = noise @ noise.conj().T
    for s, sub in zip(scales, _signal_subspaces(z0, k, noise, scales, factors)):
        gram = a + s * (b + s * c)
        lam, vecs = np.linalg.eigh(gram)
        err = np.linalg.norm(sub @ sub.conj().T - vecs[:, n - k:] @ vecs[:, n - k:].conj().T, 2)
        # err * gap, so that a gap of 0 needs no division
        assert (err * (lam[n - k] - lam[n - k - 1])
                <= RANK_TWO_C * np.finfo(float).eps * np.linalg.norm(gram, 2))
        if k > l:  # rank(gram) <= L, so lambda_k = 0 is a pole: eigh is kept
            assert np.array_equal(sub, vecs[:, n - k:])

    # noise=None and a scale of 0 give the dense path's picks (eigh of every
    # Gram matrix) exactly; without factors, the rank-one z0 and a rank-two
    # z2 take the dense path at every scale
    ris, phases = ArraySpec(m), unit_phases(seed, n, m)
    z2 = z0 + np.outer(cn(n), cn(l))
    scales = [0.0] + scales

    def picks(z, **kw):
        return music_estimate(BeamformedData(z), k, CFG, phases, ris, 20.0, **kw)

    with mock.patch("risloc.benchmarks._top_eigenvalues",
                    side_effect=AssertionError("rank-two update without factors")):
        dense = [picks(z, noise=noise, scales=scales) for z in (z0, z2)]
    assert (picks(z0) == picks(z0, noise=noise, scales=scales, factors=factors)[0]
            == dense[0][0])
    assert picks(z2, noise=noise, scales=scales) == dense[1]


@given(m=st.integers(1, 16), **_rank_one_cases)
@settings(max_examples=150, deadline=None)
def test_music_with_acquisition_factors_picks_as_dense(n, l, k, m, seed, g_norm, scales):
    # the sweep's call, with the factors (g, t) of z0 = g t^T, against the one
    # without them, which takes eigh at every scale: wherever the eigengap
    # lambda_K - lambda_K+1 is clear of the rank-two path's projector error
    # (RANK_TWO_C eps ||G|| / gap), both pick the same grid angles
    l, k = min(l, 2 * n), min(k, n - 1)
    z0, factors, noise, _ = rank_one_draw(n, l, seed, g_norm)
    ris, phases = ArraySpec(m), unit_phases(seed, n, m)
    call = dict(k_true=k, cfg=CFG, phases=phases, ris=ris, aod_ris_pr=20.0, noise=noise,
                scales=scales)
    got = music_estimate(BeamformedData(z0), factors=factors, **call)
    dense = music_estimate(BeamformedData(z0), **call)
    for s, est, ref in zip(scales, got, dense):
        lam = np.linalg.eigvalsh((z0 + s * noise) @ (z0 + s * noise).conj().T)
        if lam[n - k] - lam[n - k - 1] >= 1e-6 * lam[-1]:
            assert est == ref


@given(**_rank_one_cases)
@settings(max_examples=150, deadline=None)
# a bracket [p_(j) - rho, p_(j) + rho] would start this draw with x on a pole
@example(n=3, l=1, k=1, seed=0, g_norm=1.0, scales=[1.0])
def test_top_eigenvalues_match_eigvalsh(n, l, k, seed, g_norm, scales):
    # _top_eigenvalues' k largest eigenvalues of s^2 C + U D U^H, against
    # eigvalsh of the Gram matrix, where no eigenvalue sits on a pole: with
    # K <= L, lambda_K > 0 is not one of the N - L zero eigenvalues of C
    l = min(l, 2 * n)
    k = min(k, n - 1, l)
    z0, (g, t), noise, _ = rank_one_draw(n, l, seed, g_norm)
    lam, q = np.linalg.eigh(noise @ noise.conj().T)
    w = q.conj().T @ np.stack([g, noise @ t.conj()], axis=1)
    mu = _top_eigenvalues(lam, w, np.vdot(t, t).real, np.asarray(scales), k)
    assert mu.shape == (len(scales), k)
    for s, got in zip(scales, mu):
        gram = (z0 + s * noise) @ (z0 + s * noise).conj().T
        assert (np.max(np.abs(got - np.linalg.eigvalsh(gram)[n - k:]))
                <= TOP_EIGENVALUE_C * np.finfo(float).eps * np.linalg.norm(gram, 2))


def top_eigenvalues_by_bisection(lam, w, tt, scales, k):
    """_top_eigenvalues by plain bisection from the Weyl bracket
    [p_min - rho, p_max + rho] of every row, halved until its midpoint stops
    moving: the reference for the interlacing brackets and Newton finish."""
    n = lam.size
    w0, w1 = w.T
    cross = np.abs(np.outer(w0, w1) - np.outer(w1, w0)) ** 2  # zero diagonal
    kernel = np.column_stack([0.5 * cross, np.abs(w0) ** 2, (w0.conj() * w1).real])
    n0, n1 = np.linalg.norm(w, axis=0)
    s = np.repeat(scales, k)  # one row per (scale, rank)
    rank = np.tile(np.arange(k, 0, -1), scales.size)  # the rank-th largest
    poles = (s * s)[:, None] * lam
    rho = tt * n0 * n0 + 2 * np.abs(s) * n0 * n1
    lo, hi = poles[:, 0] - rho, poles[:, -1] + rho
    mid = 0.5 * (lo + hi)
    active = (lo < mid) & (mid < hi)
    with np.errstate(all="ignore"):  # x on or within a few ulps of a pole
        while active.any():
            r = 1.0 / (poles - mid[:, None])
            prod = r @ kernel
            a, b_re = prod[:, n], prod[:, n + 1]
            det = s * s * np.sum(prod[:, :n] * r, axis=1) - tt * a - 2 * s * b_re - 1
            positive = np.where(det < 0, 1, np.where(a < 0, 2, 0))
            above = np.count_nonzero(r > 0, axis=1) + positive - 1 >= rank
            lo = np.where(active & above, mid, lo)
            hi = np.where(active & ~above, mid, hi)
            mid = 0.5 * (lo + hi)
            active = (lo < mid) & (mid < hi)
    return mid.reshape(scales.size, k)


@given(**_rank_one_cases)
@settings(max_examples=150, deadline=None)
def test_top_eigenvalues_match_bisection_reference(n, l, k, seed, g_norm, scales):
    # the interlacing brackets and the Newton finish against plain bisection
    # from the Weyl bracket: each is within TOP_EIGENVALUE_C eps ||G|| of the
    # exact eigenvalue, so they are within twice that of each other
    l = min(l, 2 * n)
    k = min(k, n - 1, l)
    z0, (g, t), noise, _ = rank_one_draw(n, l, seed, g_norm)
    lam, q = np.linalg.eigh(noise @ noise.conj().T)
    w = q.conj().T @ np.stack([g, noise @ t.conj()], axis=1)
    args = lam, w, np.vdot(t, t).real, np.asarray(scales), k
    for s, got, ref in zip(scales, _top_eigenvalues(*args), top_eigenvalues_by_bisection(*args)):
        gram = (z0 + s * noise) @ (z0 + s * noise).conj().T
        assert (np.max(np.abs(got - ref))
                <= 2 * TOP_EIGENVALUE_C * np.finfo(float).eps * np.linalg.norm(gram, 2))


@given(m=st.integers(4, 12), **_rank_one_cases)
@settings(max_examples=60, deadline=None)
def test_zero_noise_takes_the_noise_free_subspace(n, l, k, m, seed, g_norm, scales):
    # all-zero noise leaves every acquisition z0, so every scale gets the
    # picks of noise=None, with no bisection
    k = min(k, n - 1)
    z0, factors, noise, _ = rank_one_draw(n, l, seed, g_norm)
    ris, phases = ArraySpec(m), unit_phases(seed, n, m)
    scales = [0.0] + scales
    with mock.patch("risloc.benchmarks._top_eigenvalues",
                    side_effect=AssertionError("bisection on zero noise")):
        got = music_estimate(BeamformedData(z0), k, CFG, phases, ris, 20.0,
                             noise=np.zeros_like(noise), scales=scales, factors=factors)
    assert got == [music_estimate(BeamformedData(z0), k, CFG, phases, ris, 20.0)] * len(scales)


# ------------------------------------------------------------------ no-RIS

def test_no_ris_single_source_found(rng):
    pr = ArraySpec(8)
    cfg = LocalizerConfig(mu=0.2, grid=GRID)
    s = (rng.standard_normal(300) + 1j * rng.standard_normal(300)) / np.sqrt(2)
    y = np.outer(steering_vector(pr, -45.0), s)
    res = no_ris_localize(y, cfg, pr)
    assert res.grid[np.argmax(res.power)] == -45.0
    assert -45.0 in res.peaks


def test_no_ris_zero_input_degenerate():
    pr = ArraySpec(8)
    cfg = LocalizerConfig(mu=0.2, grid=GRID)
    res = no_ris_localize(np.zeros((8, 50), dtype=complex), cfg, pr)
    assert res.degenerate and res.peaks == []


def test_no_ris_rejects_wrong_shape():
    pr = ArraySpec(8)
    cfg = LocalizerConfig(mu=0.2, grid=GRID)
    with pytest.raises(ValueError):
        no_ris_localize(np.zeros((4, 50), dtype=complex), cfg, pr)


@given(stack=st.integers(1, 5), n=st.integers(1, 8), n_samples=st.integers(1, 40),
       mu=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), textbook=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_stacked_no_ris_equals_per_epoch_calls(stack, n, n_samples, mu, textbook, seed):
    # the sweep scans every SNR point's epoch in one call; a zero epoch in
    # the stack stays degenerate on its own
    pr = ArraySpec(n)
    cfg = LocalizerConfig(mu=mu, grid=GRID, textbook_norm=textbook)
    r = np.random.default_rng(seed)
    y = r.standard_normal((stack, n, n_samples)) + 1j * r.standard_normal((stack, n, n_samples))
    y[0] = 0.0
    got = no_ris_localize(y, cfg, pr)
    assert len(got) == stack
    for epoch, res in zip(y, got):
        ref = no_ris_localize(epoch, cfg, pr)
        assert np.array_equal(res.power, ref.power)
        assert np.array_equal(res.normalized, ref.normalized)
        assert res.peaks == ref.peaks and res.degenerate == ref.degenerate
    assert got[0].degenerate


# ------------------------------------------------------------------ scoring

def make_result(peaks, heights):
    grid = np.asarray(sorted(peaks))
    normalized = np.asarray([heights[p] for p in grid])
    return SpectrumResult(grid=grid, power=normalized.copy(),
                          normalized=normalized, peaks=list(grid))


def test_select_estimates_prefers_strong_peaks():
    res = make_result([-10.0, 5.0, 40.0], {-10.0: 0.9, 5.0: 1.0, 40.0: 0.6})
    assert select_estimates(res, 2) == [-10.0, 5.0]
    assert select_estimates(res, 1) == [5.0]
    # at most k peaks: all of them, ascending, in whatever order they came
    res.peaks.reverse()
    assert select_estimates(res, 3) == select_estimates(res, 5) == [-10.0, 5.0, 40.0]
    assert select_estimates(res, 2) == [-10.0, 5.0]


@given(grid=st.lists(st.integers(-170, 170), min_size=1, max_size=20, unique=True),
       heights=st.lists(st.sampled_from([0.2, 0.5, 0.5, 1.0]), min_size=20, max_size=20),
       picks=st.lists(st.integers(0, 19), max_size=8, unique=True),
       offset=st.sampled_from([0.0, 0.125, -0.125, 0.5]), k=st.integers(0, 9))
@settings(max_examples=200, deadline=None)
def test_select_estimates_equals_a_search_per_peak(grid, heights, picks, offset, k):
    # peaks on the grid, off it, or halfway between two grid points (where
    # argmin takes the lower one), with tied heights: the one vectorized
    # lookup must rank as one argmin(|grid - t|) per peak did
    grid = np.sort(np.asarray(grid, dtype=float)) / 2.0
    if offset == 0.5:  # the midpoints
        peaks = [float(grid[i] + grid[i + 1]) / 2 for i in picks if i + 1 < grid.size]
    else:
        peaks = [float(grid[i]) + offset for i in picks if i < grid.size]
    res = SpectrumResult(grid=grid, power=np.asarray(heights[: grid.size]),
                         normalized=np.asarray(heights[: grid.size]), peaks=peaks)
    ranked = sorted(peaks, key=lambda t: -res.normalized[int(np.argmin(np.abs(grid - t)))])
    assert select_estimates(res, k) == sorted(ranked[:k])


def trial_error_by_combinations(true_aoas, estimates):
    """trial_error's search over every choice of covered truths, for full
    and short estimate lists alike."""
    truths = np.sort(np.asarray(true_aoas, dtype=float))
    est = np.sort(np.asarray(estimates, dtype=float))
    k = truths.size
    best = np.inf
    for covered in itertools.combinations(range(k), est.size):
        errs = np.full(k, MISS_ERROR_DEG)
        errs[list(covered)] = np.abs(truths[list(covered)] - est)
        best = min(best, float(np.mean(errs ** 2)))
    return best, est.size < k


_angles = st.one_of(st.sampled_from([0.0, -0.0, 5.0, -5.0, 25.0]), st.floats(-89.0, 89.0))


@given(truths=st.lists(_angles, min_size=1, max_size=9), data=st.data())
@settings(max_examples=300, deadline=None)
def test_trial_error_equals_the_combination_search(truths, data):
    # K up to 9, so that numpy's sum of 8 or more squares runs in partial
    # sums; full lists take the one pairing directly, short ones the search.
    # Ties and signed zeros come from the sampled angles
    size = data.draw(st.one_of(st.just(len(truths)), st.integers(0, len(truths))))
    est = data.draw(st.lists(_angles, min_size=size, max_size=size))
    mse, flagged = trial_error(truths, est)
    ref, ref_flagged = trial_error_by_combinations(truths, est)
    assert flagged == ref_flagged == (size < len(truths))
    assert mse.hex() == ref.hex()


def test_trial_error_exact_pairing():
    mse, flagged = trial_error([10.0, 30.0], [31.0, 9.0])
    assert not flagged
    assert mse == pytest.approx(1.0)


def test_trial_error_pads_missing_detections():
    mse, flagged = trial_error([10.0, 30.0], [10.0])
    assert flagged
    assert mse == pytest.approx(MISS_ERROR_DEG ** 2 / 2.0)


def test_trial_error_all_missing():
    mse, flagged = trial_error([10.0, 30.0], [])
    assert flagged and mse == pytest.approx(MISS_ERROR_DEG ** 2)


def test_trial_error_rejects_surplus():
    with pytest.raises(ValueError):
        trial_error([10.0], [5.0, 15.0])


def test_trial_error_no_targets():
    mse, flagged = trial_error([], [])
    assert mse == 0.0 and not flagged


def test_trial_error_short_trial_takes_cheapest_cover():
    # sorted pairing charges 25 against 5 (400 + 90^2); covering 25 costs 90^2
    mse, flagged = trial_error([5.0, 25.0], [25.0])
    assert flagged
    assert mse == 4050.0


@st.composite
def separated_angles_with_noise(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    gaps = draw(st.lists(st.floats(min_value=6.0, max_value=25.0),
                         min_size=k, max_size=k))
    start = draw(st.floats(min_value=-80.0, max_value=-40.0))
    truths = np.cumsum([start] + gaps[1:])
    offsets = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                            min_size=k, max_size=k))
    perm = draw(st.permutations(range(k)))
    est = (truths + np.asarray(offsets))[list(perm)]
    return list(truths), list(est)


@given(separated_angles_with_noise())
@settings(max_examples=100, deadline=None)
def test_sorted_pairing_is_optimal_for_separated_targets(case):
    truths, est = case
    mse, flagged = trial_error(truths, est)
    assert not flagged
    best = min(np.mean((np.asarray(truths)
                        - np.asarray(p)) ** 2)
               for p in itertools.permutations(est))
    assert mse == pytest.approx(float(best))
