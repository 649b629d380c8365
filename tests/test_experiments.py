import json
import os

import numpy as np
import pytest
import yaml

from risloc import (ArraySpec, NoiseModel, beamform, cli, generate_waveform,
                    matched_weight, ris_incident, ris_reflect, simulate_epochs)
from risloc.experiments import (TRIALS_CSV_HEADER, _parse_gain, beamformed_epochs,
                                config_from_dict, load_config, noise_variance_for_snr,
                                run_beampattern, run_mse_sweep, run_spectrum,
                                trial_rng)
from risloc.ris_optimizer import PhaseShiftMatrix

from conftest import make_scene

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs")


def tiny_config_dict(**overrides):
    d = {
        "scene": {
            "target_aoas_ris": [5.0, 25.0],
            "target_aoas_pr": [-50.0, 30.0],
            "aoa_ap_ris": -10.0,
            "aoa_ris_pr": -40.0,
            "aod_ris_pr": 20.0,
            "aoa_ap_pr": 55.0,
            "gain_targets": [{"db": -20.0, "phase_deg": None}] * 2,
            "gain_ap_ris": {"db": -20.0, "phase_deg": 0.0},
            "gain_ris_pr": {"db": 0.0, "phase_deg": 0.0},
            "gain_ap_pr": {"db": -40.0, "phase_deg": 0.0},
            "gain_targets_pr": [{"db": -10.0, "phase_deg": None}] * 2,
            "rician_ap_pr": 10.0,
        },
        "ris": {"elements": 8, "spacing": 0.5},
        "pr": {"elements": 4, "spacing": 0.5},
        "localizer": {"mu": 0.1, "threshold": 0.3,
                      "grid": {"start": -60.0, "stop": 60.0, "step": 5.0}},
        "n_epoch": 12,
        "n_samples": 30,
        "snr_db": 10.0,
        "snr_sweep_db": [-5.0, 10.0],
        "trials": 2,
        "seed": 77,
        "out_dir": "unused",
        "ris_init": "gaussian",
        "refine_rounds": 1,
        "m_sweep": [8],
        "methods": ["nlms_ris", "music_ris", "nlms_no_ris"],
    }
    d.update(overrides)
    return d


# ---------------------------------------------------------------- parsing

def test_parse_gain_forms(rng):
    assert _parse_gain(0.25, None) == 0.25 + 0j
    g = _parse_gain({"db": -20.0, "phase_deg": 90.0}, None)
    assert g == pytest.approx(0.1j)
    with pytest.raises(ValueError):
        _parse_gain({"db": 0.0, "phase_deg": None}, None)
    r1 = _parse_gain({"db": 0.0, "phase_deg": None}, np.random.default_rng(4))
    r2 = _parse_gain({"db": 0.0, "phase_deg": None}, np.random.default_rng(4))
    assert r1 == r2 and abs(abs(r1) - 1.0) < 1e-12


def test_config_round_trip(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(tiny_config_dict()))
    cfg = load_config(path)
    assert cfg.n_epoch == 12 and cfg.trials == 2
    assert cfg.ris.elements == 8 and cfg.pr.elements == 4
    np.testing.assert_allclose(cfg.localizer.grid,
                               np.arange(-60.0, 61.0, 5.0))
    scene = cfg.make_scene(np.random.default_rng(0))
    assert scene.n_targets == 2
    assert abs(scene.gain_ap_ris - 0.1) < 1e-12


def test_load_config_reports_missing_keys(tmp_path):
    d = tiny_config_dict()
    del d["scene"]["aoa_ris_pr"]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(d))
    with pytest.raises(ValueError, match="aoa_ris_pr"):
        load_config(path)
    for section in ("scene", "ris", "pr"):
        d = tiny_config_dict()
        del d[section]
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ValueError, match=f"bad.yaml.*missing required keys: {section}"):
            load_config(path)


def test_shipped_configs_load():
    for name in ("spectrum.yaml", "mse_sweep.yaml", "beampattern.yaml"):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        scene = cfg.make_scene(np.random.default_rng(1))
        assert scene.n_targets >= 0
        assert np.all(np.abs(cfg.localizer.grid) < 90.0)


def test_unknown_config_keys_fail_at_load(tmp_path):
    with open(os.path.join(CONFIG_DIR, "mse_sweep.yaml")) as fh:
        shipped = yaml.safe_load(fh)
    misspelt = dict(shipped, trails=5)
    path = tmp_path / "misspelt.yaml"
    path.write_text(yaml.safe_dump(misspelt))
    with pytest.raises(ValueError, match="trails"):
        load_config(path)
    d = tiny_config_dict()
    d["scene"]["carrier_hz"] = 1e9
    with pytest.raises(ValueError, match="carrier_hz"):
        config_from_dict(d)
    for section, key in (("ris", "elemnts"), ("pr", "spaceing"), ("localizer", "muu")):
        d = tiny_config_dict()
        d[section][key] = 1
        with pytest.raises(ValueError, match=f"unknown {section} keys: {key}"):
            config_from_dict(d)
    # a misspelt gain spec, a short per-target list or a bad methods list
    # fails while loading, not inside the first run
    scene = tiny_config_dict()["scene"]
    for overrides, match in (
            ({"scene": dict(scene, gain_ap_ris={"dB": -20.0})}, "gain_ap_ris"),
            ({"scene": dict(scene, gain_targets=[0.1])}, "per-target lists"),
            ({"methods": ["nlms_ris", "musik_ris"]}, "unknown methods: musik_ris"),
            ({"methods": []}, "methods must be non-empty"),
            ({"waveform_kind": "gausian"}, "unknown waveform_kind: gausian"),
            ({"ris_init": "chrip"}, "unknown ris_init: chrip"),
            ({"m_sweep": [16, 0]}, "m_sweep"),
            ({"m_sweep": [16, 2.5]}, "m_sweep"),
            ({"m_sweep": []}, "m_sweep")):
        path.write_text(yaml.safe_dump(tiny_config_dict(**overrides)))
        with pytest.raises(ValueError, match=f"misspelt.yaml: .*{match}"):
            load_config(path)


def test_scene_gain_phases_follow_field_order():
    # random phases are drawn in SceneConfig's field order, not the key order
    d = tiny_config_dict()
    shuffled = dict(reversed(list(d["scene"].items())))
    a = config_from_dict(d).make_scene(np.random.default_rng(5))
    b = config_from_dict(dict(d, scene=shuffled)).make_scene(np.random.default_rng(5))
    assert a == b


def test_noise_variance_matches_definition():
    scene = make_scene(gain_ris_pr=0.5 + 0j)
    # SNR = |rho|^2 * xbar / sigma^2
    var = noise_variance_for_snr(scene, 4.0, 10.0)
    assert var == pytest.approx(0.25 * 4.0 / 10.0)


def test_trial_rng_streams_are_stable():
    a = trial_rng(9, 0, 3).standard_normal(4)
    b = trial_rng(9, 0, 3).standard_normal(4)
    c = trial_rng(9, 0, 4).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


# ---------------------------------------------------------------- drivers

@pytest.mark.parametrize("overrides", [{}, {"gain_ap_pr": 0j}])
def test_beamformed_epochs_equal_the_per_epoch_chain(overrides):
    # a direct path with zero gain is skipped by pr_received together with its
    # fading draw, so the chain must skip the draw too to stay on one stream
    scene = make_scene(**overrides)
    ris, pr = ArraySpec(8), ArraySpec(4)
    setup = np.random.default_rng(3)
    phases = PhaseShiftMatrix(np.exp(2j * np.pi * setup.uniform(size=(6, ris.elements))))
    wf = generate_waveform(20, setup)
    w = matched_weight(pr, scene.aoa_ris_pr)
    chain_rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
    z0, x_power = beamformed_epochs(scene, wf, phases, ris, pr, w, chain_rng)
    ref = beamform(simulate_epochs(scene, wf, phases, pr, ris, NoiseModel(0.0),
                                   oracle_rng), w).z
    assert np.max(np.abs(z0 - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert chain_rng.standard_normal() == oracle_rng.standard_normal()
    incident = ris_incident(scene, wf, ris)
    x = np.stack([ris_reflect(incident, v, scene.aod_ris_pr, ris) for v in phases.matrix])
    assert x_power == pytest.approx(float(np.mean(np.abs(x) ** 2)), rel=1e-12)


def test_spectrum_run_reproducible_bytes(tmp_path):
    cfg = config_from_dict(tiny_config_dict())
    r1 = run_spectrum(cfg, out_dir=str(tmp_path / "a"))
    r2 = run_spectrum(cfg, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "spectrum.csv").read_bytes() \
        == (tmp_path / "b" / "spectrum.csv").read_bytes()
    assert r1.peaks == r2.peaks
    head = (tmp_path / "a" / "spectrum.csv").read_text().split("\n")[0]
    assert head == "theta_deg,power,normalized,is_peak"
    summary = json.loads((tmp_path / "a" / "spectrum_summary.json").read_text())
    assert summary["k_hat"] == len(summary["peaks"])


def test_spectrum_degenerate_scene_reports_nothing(tmp_path):
    d = tiny_config_dict()
    d["scene"]["target_aoas_ris"] = []
    d["scene"]["target_aoas_pr"] = []
    d["scene"]["gain_targets"] = []
    d["scene"]["gain_targets_pr"] = []
    d["scene"]["gain_ap_ris"] = 0.0
    d["scene"]["gain_ap_pr"] = 0.0
    cfg = config_from_dict(d)
    res = run_spectrum(cfg, out_dir=str(tmp_path))
    assert res.degenerate and res.k_hat == 0
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["peaks"] == []


def test_sweep_outputs_and_reproducibility(tmp_path):
    cfg = config_from_dict(tiny_config_dict())
    rows1 = run_mse_sweep(cfg, out_dir=str(tmp_path / "a"))
    run_mse_sweep(cfg, out_dir=str(tmp_path / "b"))
    t1 = (tmp_path / "a" / "trials.csv").read_bytes()
    t2 = (tmp_path / "b" / "trials.csv").read_bytes()
    assert t1 == t2
    assert (tmp_path / "a" / "mse_sweep.csv").read_bytes() \
        == (tmp_path / "b" / "mse_sweep.csv").read_bytes()

    lines = t1.decode().strip().split("\n")
    assert lines[0] == TRIALS_CSV_HEADER
    # 1 array size x 2 trials x 2 SNRs x 3 methods
    assert len(lines) == 1 + 12
    agg_head = (tmp_path / "a" / "mse_sweep.csv").read_text().split("\n")[0]
    assert agg_head == "snr_db,method,m_elements,mse_deg2,flagged_fraction"
    assert len(rows1) == 6


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = config_from_dict(tiny_config_dict())
    run_mse_sweep(cfg, out_dir=str(tmp_path / "ser"), parallel=1)
    run_mse_sweep(cfg, out_dir=str(tmp_path / "par"), parallel=2)
    assert (tmp_path / "ser" / "trials.csv").read_bytes() \
        == (tmp_path / "par" / "trials.csv").read_bytes()


def test_sweep_noiseless_strong_targets_hit_grid(tmp_path):
    # noise-free single trial with strong, LoS-dominated paths: every method
    # must land within one grid step of the truth. The shared waveform makes
    # all noiseless paths coherent (rank-one covariance), so the epoch count
    # and array size need to be large enough for the scan cross-terms to
    # stay below one grid step; the full-size geometry is exact here.
    d = tiny_config_dict()
    d["scene"]["gain_targets"] = [{"db": -20.0, "phase_deg": None}] * 2
    d["scene"]["gain_targets_pr"] = [{"db": -10.0, "phase_deg": None}] * 2
    d["scene"]["rician_ap_pr"] = 1e12
    d["scene"]["rician_targets_pr"] = [1e12, 1e12]
    d["ris"] = {"elements": 64, "spacing": 0.5}
    d["m_sweep"] = [64]
    d["snr_sweep_db"] = [float("inf")]
    d["trials"] = 1
    d["n_epoch"] = 100
    d["n_samples"] = 100
    d["localizer"] = {"mu": 0.1, "threshold": 0.3,
                      "grid": {"start": -60.0, "stop": 60.0, "step": 0.5}}
    cfg = config_from_dict(d)
    rows = run_mse_sweep(cfg, out_dir=str(tmp_path))
    assert len(rows) == 3
    for row in rows:
        assert row["mse_deg2"] < 0.5 ** 2, row
        assert row["flagged_fraction"] == 0.0


def test_beampattern_outputs(tmp_path):
    d = tiny_config_dict()
    d["beampattern_placements"] = [-30.0, 10.0]
    d["ris"] = {"elements": 32, "spacing": 0.5}
    d["n_epoch"] = 40
    d["refine_rounds"] = 2
    cfg = config_from_dict(d)
    summary = run_beampattern(cfg, out_dir=str(tmp_path))
    assert [e["aoa_ap_ris"] for e in summary] == [-30.0, 10.0]
    for e in summary:
        assert e["notch_db"] < -8.0
        csv_path = tmp_path / e["csv"]
        head = csv_path.read_text().split("\n")[0]
        assert head == "theta_deg,b_normalized_db"
    blob = json.loads((tmp_path / "beampattern_summary.json").read_text())
    assert len(blob["placements"]) == 2


def test_beampattern_requires_placements(tmp_path):
    cfg = config_from_dict(tiny_config_dict())
    with pytest.raises(ValueError):
        run_beampattern(cfg, out_dir=str(tmp_path))


# ---------------------------------------------------------------- CLI

def test_cli_spectrum_smoke(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(tiny_config_dict()))
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "spectrum.csv").exists()


def test_cli_seed_override_changes_run(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(tiny_config_dict()))
    cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path / "s1"),
              "--seed", "1"])
    cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path / "s2"),
              "--seed", "2"])
    assert (tmp_path / "s1" / "spectrum.csv").read_bytes() \
        != (tmp_path / "s2" / "spectrum.csv").read_bytes()


def test_cli_sweep_parallel_flag(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(tiny_config_dict()))
    out = tmp_path / "out"
    rc = cli.main(["mse-sweep", "--config", str(path), "--out", str(out),
                   "--parallel", "2"])
    assert rc == 0
    assert (out / "trials.csv").exists() and (out / "mse_sweep.csv").exists()


def test_cli_beampattern_smoke(tmp_path):
    d = tiny_config_dict()
    d["beampattern_placements"] = [0.0]
    d["ris"] = {"elements": 16, "spacing": 0.5}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(d))
    out = tmp_path / "out"
    assert cli.main(["beampattern", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "beampattern_ap+0.csv").exists()


def test_cli_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
