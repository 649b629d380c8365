"""Tests of the benchmark itself: span counts, tracing transparency, checks.

    python3 -m pytest -q risbench/tests
"""

from __future__ import annotations

import csv
import filecmp
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
from risloc import experiments, localizer  # noqa: E402
from risloc.experiments import config_from_dict  # noqa: E402
from risloc.localizer import LocalizerConfig, detect_peaks, nlms_run  # noqa: E402
from risloc.pr_beamformer import BeamformedData  # noqa: E402
from risloc.ris_optimizer import PhaseShiftMatrix  # noqa: E402
from risloc.signal_model import ArraySpec  # noqa: E402
from tracing import Tracer  # noqa: E402

K, N_EPOCH, GRID = 1, 6, 5  # targets, epochs, grid points of the tiny config


def tiny_config(**overrides):
    d = {
        "scene": {
            "target_aoas_ris": [10.0], "target_aoas_pr": [-30.0],
            "aoa_ap_ris": -10.0, "aoa_ris_pr": -40.0, "aod_ris_pr": 20.0,
            "aoa_ap_pr": 55.0,
            "gain_targets": [{"db": -6.0, "phase_deg": None}],
            "gain_ap_ris": {"db": -20.0, "phase_deg": 0.0},
            "gain_ris_pr": {"db": 0.0, "phase_deg": 0.0},
            "gain_ap_pr": {"db": -40.0, "phase_deg": 0.0},
            "gain_targets_pr": [{"db": -10.0, "phase_deg": None}],
        },
        "ris": {"elements": 8}, "pr": {"elements": 4},
        "localizer": {"grid": {"start": -60.0, "stop": 60.0, "step": 30.0}},
        "n_epoch": N_EPOCH, "n_samples": 5, "snr_db": 10.0,
        "snr_sweep_db": [0.0, 10.0], "trials": 1, "m_sweep": [4, 8],
        "beampattern_placements": [-30.0, 30.0], "ris_init": "chirp",
    }
    d.update(overrides)
    return config_from_dict(d)


def traced_counts(run_name, cfg, out_dir):
    with Tracer() as tracer:
        # looked up inside the context, where the name is bound to the wrapper
        getattr(experiments, run_name)(cfg, seed=3, out_dir=str(out_dir))
    return {name: rec["calls"] for name, rec in tracer.summary().items()}


def test_spectrum_counts_match_hand_count(tmp_path):
    calls = traced_counts("run_spectrum", tiny_config(), tmp_path)
    # steering: 2 (suppression target) + (K+1) (incident for the SNR power)
    # + 1 (reflect taper) + (K+1) (incident in simulate_epochs)
    # + N_EPOCH * (1 ris_reflect + 1 RIS path at the PR + (1+K) Rician draws)
    # + 1 (matched weight) + GRID + 1 (scan matrix with taper)
    assert calls["signal_model.steering_vector"] == (
        2 + (K + 1) + 1 + (K + 1) + N_EPOCH * (2 + 1 + K) + 1 + GRID + 1)
    assert calls["signal_model.rician_channel"] == N_EPOCH * (1 + K)
    assert calls["signal_model.ris_incident"] == 2
    assert calls["signal_model.pr_received"] == N_EPOCH
    assert calls["signal_model.simulate_epochs"] == 1
    assert calls["pr_beamformer.beamform"] == 1
    assert calls["ris_optimizer.solve_phase_shifts"] == 1
    assert calls["localizer.spectrum"] == 1
    assert calls["localizer.detect_peaks"] == 1
    assert calls["experiments.run"] == 1
    assert calls["benchmarks.trial_error"] == 0


def test_beampattern_counts_match_hand_count(tmp_path):
    calls = traced_counts("run_beampattern", tiny_config(), tmp_path)
    # per placement: 2 (suppression target) + (GRID + 1) (pattern over the
    # grid) + 2 (pattern at the placement)
    assert calls["signal_model.steering_vector"] == 2 * (2 + GRID + 1 + 2)
    assert calls["ris_optimizer.beampattern"] == 4
    assert calls["ris_optimizer.solve_phase_shifts"] == 2
    assert calls["localizer.spectrum"] == 0


def test_sweep_counts_match_hand_count(tmp_path):
    calls = traced_counts("run_mse_sweep", tiny_config(), tmp_path)
    snrs, trials = 2, 2  # two SNR points; one trial for each of two sizes
    # per trial: 2 (suppression target) + (K+1) (incident) + 1 (taper)
    # + 1 (matched weight) + N_EPOCH*(1+K) (Rician) + 1 (RIS path)
    # + (1+K) (no-RIS epoch); per SNR: NLMS and MUSIC scan matrices
    # (GRID + 1 each) and the no-RIS steering matrix (GRID)
    per_trial = (2 + (K + 1) + 1 + 1 + N_EPOCH * (1 + K) + 1 + (1 + K)
                 + snrs * (2 * (GRID + 1) + GRID))
    assert calls["signal_model.steering_vector"] == trials * per_trial
    assert calls["signal_model.rician_channel"] == trials * (N_EPOCH + 1) * (1 + K)
    assert calls["localizer.spectrum"] == trials * snrs
    assert calls["benchmarks.music_estimate"] == trials * snrs
    assert calls["benchmarks.no_ris_localize"] == trials * snrs
    assert calls["benchmarks.trial_error"] == trials * snrs * 3
    assert calls["signal_model.simulate_epochs"] == 0


@pytest.mark.parametrize("run_name", ["run_spectrum", "run_mse_sweep", "run_beampattern"])
def test_traced_item_writes_identical_files(tmp_path, run_name):
    cfg = tiny_config()
    getattr(experiments, run_name)(cfg, seed=11, out_dir=str(tmp_path / "plain"))
    with Tracer() as tracer:
        getattr(experiments, run_name)(cfg, seed=11, out_dir=str(tmp_path / "traced"))
    assert tracer.summary()["experiments.run"]["calls"] == 1
    names = sorted(os.listdir(tmp_path / "plain"))
    assert names == sorted(os.listdir(tmp_path / "traced"))
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "plain", tmp_path / "traced",
                                           names, shallow=False)
    assert mismatch == [] and errors == []


def test_tracer_restores_every_binding():
    before = (experiments.steering_vector, localizer.steering_vector, localizer.spectrum,
              experiments.spectrum)
    with Tracer():
        assert experiments.steering_vector is localizer.steering_vector
        assert experiments.steering_vector is not before[0]
    assert (experiments.steering_vector, localizer.steering_vector, localizer.spectrum,
            experiments.spectrum) == before


def test_self_time_subtracts_children():
    tracer = Tracer(traced=())
    tracer.names = ["outer", "inner"]
    # outer 0..100 with two children 10..30 and 50..60; inner's child 12..20
    tracer.spans = [(0, 0, 100, -1, 1, 0), (1, 10, 30, 0, 1, 0),
                    (1, 12, 20, 1, 1, 0), (1, 50, 60, 0, 1, 0)]
    s = tracer.summary()
    assert s["outer"] == {"calls": 1, "total_ns": 100, "self_ns": 70, "work": 0}
    assert s["inner"] == {"calls": 3, "total_ns": 38, "self_ns": 30, "work": 0}


def _run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "risbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["spectrum", "beampattern", "sweep"])
def test_traced_counts_repeat_across_runs(workload):
    results = []
    for seed in (1, 2):
        proc = _run_bench(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0.5", "--trace", "1"])
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for res in results:
        assert res["correct"] and res["failed"] == 0
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
              for r in results]
    assert counts[0] == counts[1]


def test_result_line_names_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = _run_bench(["--workload", "beampattern", "--seed", "5", "--seconds", "0.5",
                       "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    import run
    assert [(m, u) for m, _, _, u in run.PER_LAYER] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "risbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench(["--workload", "spectrum", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------- checks

def test_strict_peaks_agrees_with_detect_peaks():
    rng = np.random.default_rng(0)
    grid = np.arange(40, dtype=float)
    for _ in range(300):
        vals = rng.integers(0, 6, size=40) / 5.0  # many plateaus and ties
        want = [int(t) for t in detect_peaks(vals, grid, 0.3)]
        assert checks.strict_peaks(vals, 0.3) == want


@pytest.mark.parametrize("textbook", [False, True])
def test_transcription_matches_nlms_run(textbook):
    rng = np.random.default_rng(4)
    ris = ArraySpec(6)
    v = np.exp(2j * np.pi * rng.uniform(size=(5, 6)))
    z = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    cfg = LocalizerConfig(mu=0.3, grid=np.array([-40.0, 0.0, 25.0]),
                          textbook_norm=textbook)
    phases, data = PhaseShiftMatrix(v), BeamformedData(z)
    ref = checks.nlms_power_transcribed(z, cfg.grid, v, ris.spacing, 20.0, cfg.mu,
                                        cfg.epsilon, cfg.include_b, textbook)
    oracle = [np.sum(np.abs(nlms_run(data, t, cfg, phases, ris, 20.0)) ** 2)
              for t in cfg.grid]
    np.testing.assert_allclose(ref, oracle, rtol=1e-12)
    result = localizer.spectrum(data, cfg, phases, ris, 20.0)
    args = {"data": data, "cfg": cfg, "phases": phases, "ris": ris, "aod_ris_pr": 20.0}
    assert checks.check_nlms_kernel(args, result) == []
    result.power = result.power * (1 + 1e-8)
    assert checks.check_nlms_kernel(args, result) != []


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def test_spectrum_check_passes_and_catches_a_moved_peak(tmp_path):
    cfg = experiments.load_config(os.path.join(ROOT, "scripts", "configs", "spectrum.yaml"))
    result = experiments.run_spectrum(cfg, seed=1, out_dir=str(tmp_path))
    truths = cfg.scene_spec["target_aoas_ris"]
    assert checks.check_spectrum(str(tmp_path), result, truths, 0.5) == []
    assert checks.check_spectrum(str(tmp_path), result, [t + 2 for t in truths], 0.5)

    def shift_first_peak(rows):
        i = next(i for i, r in enumerate(rows) if r["is_peak"] == "1")
        rows[i]["is_peak"], rows[i + 1]["is_peak"] = "0", "1"
    _rewrite_csv(tmp_path / "spectrum.csv", shift_first_peak)
    assert checks.check_spectrum(str(tmp_path), result, truths, 0.5)


def test_beampattern_check_passes_and_catches_a_shallow_notch(tmp_path):
    cfg = experiments.load_config(os.path.join(ROOT, "scripts", "configs",
                                               "beampattern.yaml"))
    summary = experiments.run_beampattern(cfg, seed=1, out_dir=str(tmp_path))
    assert checks.check_beampattern(str(tmp_path), cfg.beampattern_placements) == []
    place = summary[0]["aoa_ap_ris"]

    def shallow(rows):
        for r in rows:
            if float(r["theta_deg"]) == place:
                r["b_normalized_db"] = "-12"
    _rewrite_csv(tmp_path / summary[0]["csv"], shallow)
    summary[0]["notch_db"] = -12.0
    with open(tmp_path / "beampattern_summary.json", "w") as fh:
        json.dump({"seed": 1, "placements": summary}, fh)
    errors = checks.check_beampattern(str(tmp_path), cfg.beampattern_placements)
    assert any("notch" in e for e in errors)


def test_sweep_checks_catch_a_wrong_mean_and_a_small_margin(tmp_path):
    cfg = tiny_config(snr_sweep_db=[-20.0, 0.0, 3.0], trials=2)
    experiments.run_mse_sweep(cfg, seed=2, out_dir=str(tmp_path))
    errors, rows = checks.check_sweep_item(str(tmp_path), 2 * 2 * 3 * 3)
    assert not [e for e in errors if "mse_sweep.csv" in e]

    def bump(rows):
        rows[0]["mse_deg2"] = str(float(rows[0]["mse_deg2"]) + 1.0)
    _rewrite_csv(tmp_path / "mse_sweep.csv", bump)
    errors, _ = checks.check_sweep_item(str(tmp_path), 2 * 2 * 3 * 3)
    assert any("mse_sweep.csv" in e for e in errors)

    def row(method, snr, mse):
        return {"method": method, "m_elements": "64", "snr_db": str(snr),
                "mse_deg2": str(mse)}
    far = [row("nlms_ris", s, 0.0 if s >= -21 else 900.0) for s in range(-30, 4, 3)]
    far += [row("nlms_no_ris", s, 1.0 if s >= -3 else 900.0) for s in range(-30, 4, 3)]
    assert checks.check_sweep_run(far, 10.0) == []
    assert checks.target_snr(far, "nlms_ris", 64, 10.0) == -21.0
    assert checks.target_snr(far, "nlms_no_ris", 64, 10.0) == -3.0
    near = [row("nlms_ris", s, 0.0 if s >= -12 else 900.0) for s in range(-30, 4, 3)] + [
        r for r in far if r["method"] == "nlms_no_ris"]
    assert checks.check_sweep_run(near, 10.0) != []
    # at high SNR one trial may be off, but not the run's median
    shaky = far + [row("music_ris", 0, mse) for mse in (98.5, 0.0, 0.25)]
    assert checks.check_sweep_run(shaky, 10.0) == []
    shaky += [row("music_ris", 0, 6.0), row("music_ris", 0, 6.0)]
    assert any("median MSE" in e for e in checks.check_sweep_run(shaky, 10.0))
    # a baseline that never reaches the target leaves any NLMS reach in margin
    never = [r for r in far if r["method"] == "nlms_ris"]
    assert checks.target_snr(never, "nlms_no_ris", 64, 10.0) == float("inf")
    assert checks.check_sweep_run(never, 10.0) == []
