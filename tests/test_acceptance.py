"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS line with the measured
numbers when it succeeds (run with -s to see them alongside -v status).
"""

import itertools
import os
import time

import numpy as np
import pytest

from risloc import (ArraySpec, BeamformedData, LocalizerConfig, detect_peaks,
                    load_config, matched_weight, music_estimate, nlms_run,
                    orthogonal_projector, run_beampattern, run_mse_sweep,
                    run_spectrum, scan_vector, solve_phase_shifts,
                    steering_vector, trial_error)
from risloc.localizer import spectrum as spectrum_scan
from risloc.ris_optimizer import PhaseShiftMatrix

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs")


def shipped(name):
    return load_config(os.path.join(CONFIG_DIR, name))


# -------------------------------------------------------------- criterion 1

def test_criterion_1_four_target_spectrum(tmp_path):
    cfg = shipped("spectrum.yaml")
    truths = np.sort(np.asarray(cfg.scene_spec["target_aoas_ris"], dtype=float))
    assert truths.size == 4

    t0 = time.monotonic()
    hits = 0
    for seed in range(10):
        res = run_spectrum(cfg, seed=seed, out_dir=str(tmp_path / f"s{seed}"))
        if res.k_hat == truths.size:
            err = np.abs(np.sort(np.asarray(res.peaks)) - truths)
            hits += bool(np.all(err <= 1.0))
    elapsed = time.monotonic() - t0

    assert hits >= 9, f"only {hits}/10 seeds recovered all four targets"
    assert elapsed <= 60.0, f"took {elapsed:.1f}s (limit 60s)"
    print(f"PASS criterion 1: four-target spectrum, {hits}/10 seeds, "
          f"{elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_beampattern_notch(tmp_path):
    cfg = shipped("beampattern.yaml")
    t0 = time.monotonic()
    summary = run_beampattern(cfg, out_dir=str(tmp_path))
    elapsed = time.monotonic() - t0

    assert [e["aoa_ap_ris"] for e in summary] == [-30.0, -10.0, 10.0, 30.0]
    for e in summary:
        assert e["notch_db"] <= -11.0, e
        assert e["off_notch_median_db"] >= -3.0, e
    assert elapsed <= 10.0, f"took {elapsed:.1f}s (limit 10s)"
    worst = max(e["notch_db"] for e in summary)
    print(f"PASS criterion 2: beampattern notch worst {worst:.1f} dB, "
          f"{elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3

@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    cfg = shipped("mse_sweep.yaml")
    t0 = time.monotonic()
    rows = run_mse_sweep(cfg, out_dir=str(tmp_path_factory.mktemp("sweep")))
    return cfg, rows, time.monotonic() - t0


def curve(rows, method, m):
    sel = sorted((r for r in rows if r["method"] == method
                  and r["m_elements"] == m), key=lambda r: r["snr_db"])
    return (np.array([r["snr_db"] for r in sel]),
            np.array([r["mse_deg2"] for r in sel]))


def test_criterion_3_mse_sweep_trends(sweep):
    cfg, rows, elapsed = sweep
    m_list = list(cfg.m_sweep)
    assert elapsed <= 900.0, f"sweep took {elapsed:.0f}s (limit 900s)"

    # (a) non-increasing NLMS curves; one inversion tolerated, where an
    # inversion is a relative increase above the Monte-Carlo jitter (3%)
    for m in m_list:
        snrs, mse = curve(rows, "nlms_ris", m)
        assert snrs.size == 12
        inversions = int(np.sum(mse[1:] > mse[:-1] * 1.03))
        assert inversions <= 1, f"M={m}: {inversions} inversions in {mse}"

    # (b) strict ordering with array size at a mid-transition SNR: one grid
    # step above the lowest SNR at which every curve is already below 1 deg^2
    curves = {m: curve(rows, "nlms_ris", m) for m in m_list}
    snrs = curves[m_list[0]][0]
    all_low = [all(curves[m][1][i] < 1.0 for m in m_list)
               for i in range(snrs.size)]
    assert any(all_low), "no SNR with every NLMS curve below 1 deg^2"
    star = int(np.argmax(all_low))
    cmp_idx = min(star + 1, snrs.size - 1)
    m16, m32, m64 = (curves[m][1][cmp_idx] for m in m_list)
    assert m16 > m32 > m64, \
        f"ordering at {snrs[cmp_idx]} dB: {m16:.4g} / {m32:.4g} / {m64:.4g}"

    # (c) known-order subspace method dominates the adaptive scan above the
    # transition (ties at zero allowed)
    for m in m_list:
        _, nlms = curve(rows, "nlms_ris", m)
        _, music = curve(rows, "music_ris", m)
        for i in range(cmp_idx, snrs.size):
            assert music[i] <= nlms[i] + 1e-9, \
                f"M={m} at {snrs[i]} dB: music {music[i]:.4g} > nlms {nlms[i]:.4g}"

    # (d) the RIS path reaches the MSE target at least 10 dB earlier than
    # the no-RIS baseline
    target = cfg.mse_target_deg2
    _, ris64 = curve(rows, "nlms_ris", m_list[-1])
    _, nr64 = curve(rows, "nlms_no_ris", m_list[-1])
    ris_cross = next((snrs[i] for i in range(snrs.size) if ris64[i] <= target), None)
    assert ris_cross is not None, "RIS curve never reaches the MSE target"
    nr_cross = next((snrs[i] for i in range(snrs.size) if nr64[i] <= target), None)
    if nr_cross is None:
        nr_cross = snrs[-1] + (snrs[1] - snrs[0])  # lower bound
    gap = nr_cross - ris_cross
    assert gap >= 10.0, f"SNR advantage only {gap:.1f} dB"

    print(f"PASS criterion 3: sweep trends (ordering at {snrs[cmp_idx]:+.0f} dB: "
          f"{m16:.3g}>{m32:.3g}>{m64:.3g}; RIS advantage {gap:.0f} dB; "
          f"{elapsed:.0f}s)")


# -------------------------------------------------------------- criterion 4

def test_criterion_4_invariant_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)

    # projector annihilation + idempotence
    for _ in range(50):
        m = int(rng.integers(2, 64))
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        p = orthogonal_projector(a)
        assert np.linalg.norm(p @ a) <= 1e-10 * np.linalg.norm(a)
        assert np.max(np.abs(p @ p - p)) <= 1e-10

    # unit-modulus of solved phases, both initializations
    a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    for init in ("gaussian", "chirp"):
        v = solve_phase_shifts(a, 40, rng, init=init)
        assert np.max(np.abs(np.abs(v.matrix) - 1.0)) <= 1e-12

    # beamformer distortionless passthrough
    for theta in np.linspace(-80.0, 80.0, 17):
        pr = ArraySpec(8)
        w = matched_weight(pr, theta)
        assert abs(np.vdot(w, steering_vector(pr, theta)) - 1.0) <= 1e-10

    # NLMS recursion fidelity against a literal step-by-step transcription
    ris = ArraySpec(8)
    phases = PhaseShiftMatrix(np.exp(1j * rng.uniform(0, 2 * np.pi, (6, 8))))
    cfg = LocalizerConfig(mu=0.15, grid=np.arange(-60.0, 61.0, 5.0))
    z = rng.standard_normal((6, 50)) + 1j * rng.standard_normal((6, 50))
    data = BeamformedData(z)
    d = scan_vector(10.0, phases, ris, 20.0)
    a_ref = np.zeros(6, dtype=complex)
    for ell in range(50):
        zl = z[:, ell]
        p_l = np.conj(d) @ zl
        e_l = p_l - np.conj(a_ref) @ zl
        a_ref = a_ref + cfg.mu / (np.sqrt(np.sum(np.abs(zl) ** 2)) + cfg.epsilon) \
            * np.conj(e_l) * zl
    got = nlms_run(data, 10.0, cfg, phases, ris, 20.0)
    assert np.max(np.abs(got - a_ref)) <= 1e-12

    # perfect estimates score zero error
    mse, flagged = trial_error([-10.0, 5.0, 40.0], [40.0, -10.0, 5.0])
    assert mse == 0.0 and not flagged

    # peak count is non-increasing in the threshold
    for _ in range(200):
        vals = rng.uniform(0.0, 1.0, int(rng.integers(3, 30)))
        grid = np.arange(float(vals.size))
        counts = [len(detect_peaks(vals, grid, phi))
                  for phi in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))

    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0, f"invariant suite took {elapsed:.1f}s (limit 30s)"
    print(f"PASS criterion 4: invariant suite, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 5

def _synthetic_sources(phases, ris, thetas, aod, seed, n_samples=64):
    r = np.random.default_rng(seed)
    z = np.zeros((phases.n_epoch, n_samples), dtype=complex)
    for theta in thetas:
        s = (r.standard_normal(n_samples)
             + 1j * r.standard_normal(n_samples)) / np.sqrt(2)
        z += np.outer(scan_vector(theta, phases, ris, aod), s)
    return BeamformedData(z)


def test_criterion_5_small_instance_oracles():
    grid = np.arange(-60.0, 61.0, 5.0)
    cfg = LocalizerConfig(grid=grid)
    rng = np.random.default_rng(99)

    # subspace estimates equal exhaustive grid search on noiseless data
    for n_epoch in (6, 8):
        ris = ArraySpec(16)
        phases = PhaseShiftMatrix(
            np.exp(1j * rng.uniform(0, 2 * np.pi, (n_epoch, 16))))
        dictionary = {t: scan_vector(t, phases, ris, 20.0) for t in grid}

        data = _synthetic_sources(phases, ris, [25.0], 20.0, seed=n_epoch)
        scores = [np.linalg.norm(dictionary[t].conj() @ data.z)
                  / np.linalg.norm(dictionary[t]) for t in grid]
        best = [float(grid[int(np.argmax(scores))])]
        assert music_estimate(data, 1, cfg, phases, ris, 20.0) == best == [25.0]

        data2 = _synthetic_sources(phases, ris, [-40.0, 15.0], 20.0,
                                   seed=n_epoch + 50)
        best_pair, best_res = None, np.inf
        for ti, tj in itertools.combinations(grid, 2):
            q, _ = np.linalg.qr(np.stack([dictionary[ti], dictionary[tj]], axis=1))
            res = np.linalg.norm(data2.z - q @ (q.conj().T @ data2.z))
            if res < best_res:
                best_pair, best_res = sorted((float(ti), float(tj))), res
        assert best_pair == [-40.0, 15.0]
        assert music_estimate(data2, 2, cfg, phases, ris, 20.0) == best_pair

    # sorted pairing equals brute-force min-cost assignment when targets are
    # separated by more than 5 degrees
    for _ in range(300):
        k = int(rng.integers(1, 5))
        gaps = rng.uniform(5.5, 25.0, k)
        truths = rng.uniform(-80.0, -40.0) + np.cumsum(gaps) - gaps[0]
        est = truths + rng.uniform(-2.0, 2.0, k)
        rng.shuffle(est)
        mse, flagged = trial_error(list(truths), list(est))
        assert not flagged
        best = min(float(np.mean((truths - np.asarray(p)) ** 2))
                   for p in itertools.permutations(est))
        assert mse == pytest.approx(best)

    print("PASS criterion 5: small-instance oracle equivalence")
