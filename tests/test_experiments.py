import collections
import collections.abc
import dataclasses
import json
import os
import shlex
import subprocess
import sys
import typing
from unittest import mock

import numpy as np
import pytest
import yaml

import risloc.signal_model as signal_model
from risloc import (ArraySpec, BeamformedData, ExperimentConfig, LocalizerConfig,
                    NoiseModel, SceneConfig, beamform, cli, generate_waveform,
                    matched_weight, music_estimate, no_ris_localize, pr_received,
                    ris_incident, ris_reflect, select_estimates, simulate_epochs, spectrum,
                    trial_error)
from risloc.experiments import (TRIALS_CSV_HEADER, _acquisition, _no_ris_epoch,
                                _parse_gain, _sweep_trial, _write_csv, beamformed_epochs,
                                config_from_dict, load_config, noise_variance_for_snr,
                                run_beampattern, run_mse_sweep, run_spectrum, trial_rng)
from risloc.signal_model import complex_normal
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
    # a misspelt gain spec, a short per-target list, a bad methods list or a
    # bad localizer setting fails while loading, not inside the first run
    scene, loc = tiny_config_dict()["scene"], tiny_config_dict()["localizer"]
    step_grid = {"start": -10.0, "stop": 10.0, "step": 1.0}
    for overrides, match in (
            ({"scene": dict(scene, gain_ap_ris={"dB": -20.0})}, "gain_ap_ris"),
            ({"scene": dict(scene, gain_targets=[0.1])}, "per-target lists"),
            ({"methods": ["nlms_ris", "musik_ris"]}, "unknown methods: musik_ris"),
            ({"methods": []}, "methods must be non-empty"),
            ({"waveform_kind": "gaussian"}, "unknown config keys: waveform_kind"),
            ({"ris_init": "chrip"}, "unknown ris_init: chrip"),
            ({"m_sweep": [16, 0]}, "m_sweep"),
            ({"m_sweep": [16, 2.5]}, "m_sweep"),
            ({"m_sweep": []}, "m_sweep"),
            ({"ris": {"elements": 8.5, "spacing": 0.5}}, "elements must be an integer"),
            ({"ris": {"elements": True, "spacing": 0.5}}, "elements must be an integer"),
            ({"pr": {"elements": 4, "spacing": float("inf")}}, "spacing must be finite"),
            ({"pr": {"elements": 4, "spacing": float("nan")}}, "spacing must be finite"),
            ({"localizer": dict(loc, grid=[[10.0, 20.0, 30.0]])}, "1-D"),
            ({"localizer": dict(loc, mu=float("nan"))}, "mu must be finite"),
            ({"localizer": dict(loc, mu=float("inf"))}, "mu must be finite"),
            ({"localizer": dict(loc, epsilon=float("nan"))}, "epsilon must be finite"),
            ({"localizer": dict(loc, grid=dict(step_grid, step=0.0))}, "grid step must be > 0"),
            ({"localizer": dict(loc, grid=dict(step_grid, stpe=2.0))},
             "unknown grid keys: stpe"),
            # each field's annotation decides what it takes: no bool for a
            # number, an integer for an int, a list for a Sequence, a real
            # (not NaN) for a float, a YAML bool for a bool
            ({"n_samples": 30.5}, "n_samples"),
            ({"trials": True}, "trials"),
            ({"trials": 2.0}, "trials"),
            ({"seed": 1.5}, "seed"),
            ({"refine_rounds": 1.5}, "refine_rounds"),
            ({"snr_db": "high"}, "snr_db"),
            ({"snr_db": float("nan")}, "snr_db"),
            ({"snr_sweep_db": 3.0}, "snr_sweep_db"),
            ({"snr_sweep_db": ["a"]}, "snr_sweep_db"),
            ({"mse_target_deg2": float("nan")}, "mse_target_deg2"),
            ({"out_dir": 5}, "out_dir"),
            ({"beampattern_placements": [True]}, "beampattern_placements"),
            ({"methods": "nlms_ris"}, "methods must be a list"),
            ({"localizer": dict(loc, include_b="false")}, "include_b"),
            ({"localizer": dict(loc, textbook_norm=3)}, "textbook_norm"),
            ({"localizer": dict(loc, mu=True)}, "mu must be finite"),
            ({"localizer": dict(loc, mu="0.1")}, "mu must be finite"),
            ({"scene": dict(scene, aoa_ap_ris=True)}, "aoa_ap_ris"),
            ({"scene": dict(scene, aoa_ap_ris=float("nan"))}, "aoa_ap_ris"),
            ({"scene": dict(scene, rician_ap_pr=float("nan"))}, "rician_ap_pr"),
            ({"scene": dict(scene, gain_ap_ris=True)}, "gain_ap_ris"),
            ({"scene": dict(scene, target_aoas_ris=5.0)}, "target_aoas_ris must be a list"),
            # gain specs and grid bounds are checked as floats too
            ({"scene": dict(scene, gain_ap_ris={"db": "-20", "phase_deg": 0.0})},
             "gain_ap_ris: db"),
            ({"scene": dict(scene, gain_ap_ris={"db": True, "phase_deg": 0.0})},
             "gain_ap_ris: db"),
            ({"scene": dict(scene, gain_ap_ris={"db": -20.0, "phase_deg": True})},
             "gain_ap_ris: phase_deg"),
            ({"localizer": dict(loc, grid=dict(step_grid, start=True))}, "grid start"),
            ({"localizer": dict(loc, grid=dict(step_grid, start="-10"))}, "grid start"),
            ({"localizer": dict(loc, grid=[True, 5.0])}, r"grid\[0\] must be"),
            # ranges that would fail only in the first run
            ({"scene": dict(scene, target_aoas_ris=[95.0, 25.0])},
             r"target_aoas_ris must satisfy \|angle\| < 90"),
            ({"scene": dict(scene, aoa_ris_pr=90.0)}, r"aoa_ris_pr must satisfy \|angle\| < 90"),
            ({"beampattern_placements": [95.0]}, r"beampattern_placements must satisfy \|angle"),
            ({"scene": dict(scene, rician_ap_pr=float("inf"))}, "rician_ap_pr"),
            ({"scene": dict(scene, rician_targets_pr=[float("inf"), 1.0])}, "rician_targets_pr"),
            # an explicit empty list is a list of the wrong length, not the default
            ({"scene": dict(scene, rician_targets_pr=[])}, "rician_targets_pr length must equal K"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"refine_rounds": -1}, "refine_rounds must be >= 0"),
            ({"mse_target_deg2": -5.0}, "mse_target_deg2 must be >= 0, got -5.0"),
            # a repeated entry would write its sweep cells twice, or two
            # placements one CSV (10 and 10.0000001 both name beampattern_ap+10.csv)
            ({"m_sweep": [16, 16]}, "m_sweep must be distinct, repeated: 16"),
            ({"snr_sweep_db": [0.0, 0]}, "snr_sweep_db must be distinct"),
            ({"methods": ["nlms_ris", "nlms_ris"]}, "methods must be distinct"),
            ({"beampattern_placements": [10.0, 10.0]}, r"beampattern_ap\+10.csv"),
            ({"beampattern_placements": [10.0, -30.0, 10.0000001]},
             r"beampattern_placements CSV names must be distinct, repeated: beampattern_ap\+10"),
            ({"snr_db": float("-inf")}, "snr_db"),
            ({"snr_sweep_db": [float("-inf"), 0.0]}, "snr_sweep_db"),
            # an integer too large for a float
            ({"snr_db": 10**400}, "snr_db"),
            ({"mse_target_deg2": 10**400}, "mse_target_deg2"),
            ({"scene": dict(scene, gain_ap_ris=10**400)}, "gain_ap_ris"),
            ({"scene": dict(scene, gain_ap_ris={"db": 10**400})}, "gain_ap_ris: db")):
        path.write_text(yaml.safe_dump(tiny_config_dict(**overrides)))
        with pytest.raises(ValueError, match=f"misspelt.yaml: .*{match}"):
            load_config(path)
    # +inf SNR is the noise-free sweep and stays legal
    path.write_text(yaml.safe_dump(tiny_config_dict(snr_db=float("inf"),
                                                    snr_sweep_db=[float("inf")])))
    assert load_config(path).snr_sweep_db == [float("inf")]
    # and a -inf dB gain is a zero gain
    path.write_text(yaml.safe_dump(tiny_config_dict(
        scene=dict(scene, gain_ap_pr={"db": float("-inf"), "phase_deg": 0.0}))))
    assert load_config(path).make_scene(np.random.default_rng(0)).gain_ap_pr == 0
    # with no targets an empty rician_targets_pr has the right length
    no_targets = _no_targets(tiny_config_dict())
    no_targets["scene"]["rician_targets_pr"] = []
    path.write_text(yaml.safe_dump(no_targets))
    assert load_config(path).make_scene(np.random.default_rng(0)).rician_targets_pr == []


def _zero_ris_path(d, *keys):
    for key in keys:
        d["scene"][key] = [0.0] * len(d["scene"][key]) if key == "gain_targets" else 0.0
    return d


@pytest.mark.parametrize("keys", [("gain_ris_pr",), ("gain_targets", "gain_ap_ris")])
def test_zero_ris_path_power_fails_before_any_output(tmp_path, keys):
    # SNR is defined against |gain_ris_pr|^2 mean|x|^2, so with no RIS-path
    # power every finite SNR gave sigma^2 = 0: a noise-free run under a noisy
    # label. Such a run fails before it writes a file; +inf dB (noise-free
    # anyway) and beampattern runs, which take no SNR, still run
    d = _zero_ris_path(tiny_config_dict(beampattern_placements=[0.0]), *keys)
    match = r"SNR -5 dB is undefined: .*gain_ris_pr is 0, or gain_targets and gain_ap_ris"
    cfg = config_from_dict(d)
    with pytest.raises(ValueError, match=match):
        run_mse_sweep(cfg, out_dir=str(tmp_path / "sweep"))
    with pytest.raises(ValueError, match=match):
        run_mse_sweep(dataclasses.replace(cfg, snr_sweep_db=[float("inf"), -5.0]),
                      out_dir=str(tmp_path / "sweep"))
    with pytest.raises(ValueError, match=match.replace("-5", "10")):
        run_spectrum(cfg, out_dir=str(tmp_path / "spectrum"))
    assert not [f for _, _, files in os.walk(tmp_path) for f in files]
    rows = run_mse_sweep(dataclasses.replace(cfg, snr_sweep_db=[float("inf")]),
                         out_dir=str(tmp_path / "noise-free"))
    assert len(rows) == len(cfg.methods)
    run_spectrum(dataclasses.replace(cfg, snr_db=float("inf")),
                 out_dir=str(tmp_path / "noise-free"))
    run_beampattern(cfg, out_dir=str(tmp_path / "beampattern"))
    with pytest.raises(ValueError, match=match.replace("-5", "0")):
        noise_variance_for_snr(cfg.make_scene(np.random.default_rng(0)), 0.0, 0.0)


def test_step_grid_ends_at_the_last_step_not_past_stop():
    # the last point is the largest start + i step <= stop; a stop that sits
    # on a step, exactly or up to rounding, is the last point
    def grid(start, stop, step):
        loc = {"grid": {"start": start, "stop": stop, "step": step}}
        return config_from_dict(tiny_config_dict(localizer=loc)).localizer.grid.tolist()

    assert grid(0.0, 1.6, 1.0) == [0.0, 1.0]
    assert grid(-89.0, 89.6, 1.0) == np.arange(-89.0, 90.0).tolist()
    assert grid(-60.0, 60.0, 5.0) == np.arange(-60.0, 61.0, 5.0).tolist()
    assert grid(0.0, 0.3, 0.1) == [0.0, 0.1, 0.2, 0.3]
    assert grid(-10.0, -10.0, 1.0) == [-10.0]


def _wrong_kind(hint):
    """A value the type rule must reject for annotation hint, or None when the
    rule has no case for the annotation."""
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        return _wrong_kind(typing.get_args(hint)[0])
    if typing.get_origin(hint) is collections.abc.Sequence:
        return 5.0  # a scalar
    if hint in (int, float, complex, signal_model.Decibels):
        return True
    if hint is bool:
        return "x"
    if hint is str:
        return 5
    return 5 if isinstance(hint, type) else None


CONFIG_BUILDERS = {ArraySpec: lambda: ArraySpec(8), SceneConfig: make_scene,
                   LocalizerConfig: LocalizerConfig,
                   ExperimentConfig: lambda: config_from_dict(tiny_config_dict())}


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in CONFIG_BUILDERS for f in dataclasses.fields(cls)])
def test_every_config_field_rejects_a_wrong_kind(cls, name):
    # a field whose annotation the rule does not know fails here, not silently
    hint = typing.get_type_hints(cls, include_extras=True)[name]
    wrong = _wrong_kind(hint)
    if wrong is None:
        pytest.fail(f"no type rule for {cls.__name__}.{name}: {hint}")
    # grid goes through np.asarray before the rule, so its ndarray type test
    # always passes and the 1-D range check is what rejects a wrong kind
    match = "grid must be a non-empty" if name == "grid" else rf"^{name} must be "
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(CONFIG_BUILDERS[cls](), **{name: wrong})


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


def test_trial_rng_keys_reproduce_the_driver_streams():
    # spectrum draws from the root of the seed tree and beampattern placement
    # i from child (i,); the shipped outputs depend on exactly these streams
    for master in (0, 1234):
        root = np.random.default_rng(np.random.SeedSequence(entropy=master))
        np.testing.assert_array_equal(trial_rng(master).standard_normal(4),
                                      root.standard_normal(4))
        for i in range(3):
            child = np.random.default_rng(np.random.SeedSequence(entropy=master,
                                                                 spawn_key=(i,)))
            np.testing.assert_array_equal(trial_rng(master, i).standard_normal(4),
                                          child.standard_normal(4))


# ---------------------------------------------------------------- drivers

@pytest.mark.parametrize("overrides", [{}, {"gain_ap_pr": 0j}, {"gain_ap_ris": 0j}])
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
    z0, (g, s), x_power = beamformed_epochs(scene, wf, phases, ris, pr, w, chain_rng)
    ref = beamform(simulate_epochs(scene, wf, phases, pr, ris, NoiseModel(0.0),
                                   oracle_rng), w).z
    assert np.max(np.abs(z0 - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert chain_rng.standard_normal() == oracle_rng.standard_normal()
    incident = ris_incident(scene, wf, ris)
    x = np.stack([ris_reflect(incident, v, scene.aod_ris_pr, ris) for v in phases.matrix])
    assert x_power == pytest.approx(float(np.mean(np.abs(x) ** 2)), rel=1e-12)

    # Z0 is the outer product of its factors, and g is g_ris + g_dir: the g of
    # the scene without its direct paths plus that of the scene without the RIS
    assert np.array_equal(s, wf.samples) and np.array_equal(z0, np.outer(g, s))
    no_direct = dataclasses.replace(scene, gain_ap_pr=0j,
                                    gain_targets_pr=[0j] * scene.n_targets)
    no_ris = dataclasses.replace(scene, gain_ris_pr=0j)
    g_ris, g_dir = (beamformed_epochs(part, wf, phases, ris, pr, w,
                                      np.random.default_rng(8))[1][0]
                    for part in (no_direct, no_ris))
    assert np.array_equal(g, g_ris + g_dir)


@pytest.mark.parametrize("overrides", [{}, {"gain_ap_pr": 0j}])
def test_no_ris_epoch_equals_pr_received(overrides):
    # the sweep's baseline epoch draws its fading like beamformed_epochs and
    # sums the paths in pr_received's order, so the two agree bit for bit
    scene = make_scene(**overrides)
    pr = ArraySpec(4)
    wf = generate_waveform(20, np.random.default_rng(3))
    chain_rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
    y0 = _no_ris_epoch(scene, wf, pr, chain_rng)
    ref = pr_received(scene, wf, np.zeros(20), pr, NoiseModel(0.0), oracle_rng)
    assert np.array_equal(y0, ref)
    assert chain_rng.standard_normal() == oracle_rng.standard_normal()


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


def test_spectrum_csv_format(tmp_path):
    cfg = config_from_dict(tiny_config_dict())
    res = run_spectrum(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "theta_deg,power,normalized,is_peak"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [float(r[0]) for r in rows] == cfg.localizer.grid.tolist()
    assert {r[3] for r in rows} <= {"0", "1"}
    flagged = [float(r[0]) for r in rows if r[3] == "1"]
    assert res.peaks and flagged == res.peaks


def test_spectrum_degenerate_scene_reports_nothing(tmp_path):
    d = tiny_config_dict()
    d["scene"]["target_aoas_ris"] = []
    d["scene"]["target_aoas_pr"] = []
    d["scene"]["gain_targets"] = []
    d["scene"]["gain_targets_pr"] = []
    d["scene"]["gain_ap_ris"] = 0.0
    d["scene"]["gain_ap_pr"] = 0.0
    # nothing reaches the RIS, so a finite SNR is undefined (see
    # test_zero_ris_path_power_fails_before_any_output); noise-free, the
    # all-zero acquisition is a degenerate spectrum
    cfg = config_from_dict(dict(d, snr_db=float("inf")))
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


@pytest.mark.parametrize("trials", [1, 9, 130])
def test_sweep_aggregate_equals_a_mean_per_cell(tmp_path, trials):
    # numpy sums 8 or more values, and again 128 or more, in partial sums;
    # the aggregate's one mean over every cell must give each cell's own
    # np.mean bit for bit. MSE values over six decades make the order count
    cfg = config_from_dict(tiny_config_dict(trials=trials, m_sweep=[8, 16],
                                            snr_sweep_db=[-5.0, 10.0, 20.0]))
    r = np.random.default_rng(trials)
    rows = []

    def fake_trial(cfg, m_index, m_elements, trial):
        out = [(trial, method, float(snr_db), m_elements, float(10.0 ** r.uniform(-3, 3)),
                2, bool(r.random() < 0.3))
               for snr_db in cfg.snr_sweep_db for method in cfg.methods]
        rows.extend(out)
        return out

    with mock.patch("risloc.experiments._sweep_trial", side_effect=fake_trial):
        got = run_mse_sweep(cfg, out_dir=str(tmp_path))
    cells = collections.defaultdict(list)
    for _, method, snr_db, m, mse, _, flagged in rows:
        cells[m, method, snr_db].append((mse, flagged))
    want = []
    for m in (8, 16):
        for method in cfg.methods:
            for snr_db in cfg.snr_sweep_db:
                mse, flagged = zip(*cells[m, method, snr_db])
                assert len(mse) == trials
                want.append({"snr_db": snr_db, "method": method, "m_elements": m,
                             "mse_deg2": float(np.mean(mse)),
                             "flagged_fraction": float(np.mean(flagged))})
    assert got == want


def _sweep_trial_per_snr_point(cfg, m_index, m_elements, trial):
    """_sweep_trial's rows with one scan per SNR point and method: the same
    draws, then every acquisition formed and scanned on its own."""
    rng = trial_rng(cfg.seed, m_index, trial)
    ris = ArraySpec(m_elements, cfg.ris.spacing)
    scene, phases, waveform, w, z0, _, x_power = _acquisition(cfg, ris, rng)
    y0_nr = _no_ris_epoch(scene, waveform, cfg.pr, rng)
    ez, e1 = complex_normal(z0.shape, rng), complex_normal(y0_nr.shape, rng)
    k, aod = scene.n_targets, scene.aod_ris_pr
    rows = []
    for snr_db in cfg.snr_sweep_db:
        sigma = np.sqrt(noise_variance_for_snr(scene, x_power, snr_db))
        data = BeamformedData(z0 + sigma * np.linalg.norm(w) * ez)
        for method in cfg.methods:
            truths = scene.target_aoas_ris
            if method == "nlms_ris":
                res = spectrum(data, cfg.localizer, phases, ris, aod)
                est, detected = select_estimates(res, k), res.k_hat
            elif method == "music_ris":
                est = music_estimate(data, k, cfg.localizer, phases, ris, aod)
                detected = len(est)
            else:
                res = no_ris_localize(y0_nr + sigma * e1, cfg.localizer, cfg.pr)
                est, detected = select_estimates(res, k), res.k_hat
                truths = scene.target_aoas_pr
            mse, flagged = trial_error(truths, est)
            rows.append((trial, method, float(snr_db), m_elements, mse, detected, flagged))
    return rows


@pytest.mark.parametrize("overrides", [
    {}, {"snr_sweep_db": [float("inf"), -20.0, 0.0, 20.0]},
    {"methods": ["nlms_no_ris", "music_ris"]}])
def test_sweep_trial_equals_one_scan_per_snr_point(overrides):
    # MUSIC and the no-RIS scan run once per trial over all SNR points; the
    # rows, +inf SNR (scale 0) included, are those of one scan per point
    cfg = config_from_dict(tiny_config_dict(**overrides))
    for trial in range(3):
        assert (_sweep_trial(cfg, 0, 8, trial)
                == _sweep_trial_per_snr_point(cfg, 0, 8, trial))


def _no_targets(d):
    for key in ("target_aoas_ris", "target_aoas_pr", "gain_targets", "gain_targets_pr"):
        d["scene"][key] = []
    return d


@pytest.mark.parametrize("d, k, n_epoch", [
    (tiny_config_dict(n_epoch=2), 2, 2), (_no_targets(tiny_config_dict()), 0, 12)])
def test_sweep_checks_music_model_order_before_the_first_trial(tmp_path, d, k, n_epoch):
    # such a config loads, since a spectrum run needs no model order; a sweep
    # with music_ris fails before it runs a trial or writes a file
    cfg = config_from_dict(d)
    with pytest.raises(ValueError, match=rf"methods include music_ris.*n_epoch.*"
                                         rf"K = {k} targets and n_epoch = {n_epoch}$"):
        run_mse_sweep(cfg, out_dir=str(tmp_path / "music"))
    assert not (tmp_path / "music").exists()
    rows = run_mse_sweep(dataclasses.replace(cfg, methods=["nlms_ris", "nlms_no_ris"]),
                         out_dir=str(tmp_path / "nlms"))
    assert len(rows) == 2 * len(cfg.snr_sweep_db)


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


def test_write_csv_equals_per_row_format(tmp_path):
    # one % over the repeated printf row template gives each row the text of
    # its own str.format call on the matching template, edge values included
    values = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 5e-324, 1.0 / 3.0]
    rows = [(i, "nlms_ris", v, -v, True, False, i % 3 == 0) for i, v in enumerate(values)]
    row_format = "{},{},{:.10g},{:.6g},{:d},{},{:d}"
    path = tmp_path / "t.csv"
    _write_csv(path, "a,b,c,d,e,f,g", "%s,%s,%.10g,%.6g,%d,%s,%d", iter(rows))
    want = "a,b,c,d,e,f,g\n" + "".join(row_format.format(*row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode()
    assert path.read_text().splitlines()[1:5] == [
        "0,nlms_ris,-0,0,1,False,1", "1,nlms_ris,0,-0,1,False,0",
        "2,nlms_ris,inf,-inf,1,False,0", "3,nlms_ris,-inf,inf,1,False,1"]
    _write_csv(path, "a", "%s", [])
    assert path.read_bytes() == b"a\n"


def test_beampattern_scene_is_the_config_scene_at_each_placement():
    # the placement overrides aoa_ap_ris only; every gain phase is drawn from
    # the placement's rng as the plain scene draws it
    cfg = load_config(os.path.join(CONFIG_DIR, "beampattern.yaml"))
    got = cfg.make_scene(trial_rng(5, 1), aoa_ap_ris=10.0)
    assert got == dataclasses.replace(cfg.make_scene(trial_rng(5, 1)), aoa_ap_ris=10.0)


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


def test_shipped_beampattern_item_reuses_cached_dictionaries(tmp_path):
    # each placement looks up the grid dictionary and its one-angle notch
    # entry; an item keeps 4 + 1 <= maxsize entries, so after a first item a
    # second one builds none
    cfg = load_config(os.path.join(CONFIG_DIR, "beampattern.yaml"))
    run_beampattern(cfg, seed=1, out_dir=str(tmp_path / "warm"))
    before = signal_model._coefficients.cache_info()
    run_beampattern(cfg, seed=2, out_dir=str(tmp_path / "item"))
    after = signal_model._coefficients.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 2 * len(cfg.beampattern_placements)


def test_beampattern_requires_placements(tmp_path):
    cfg = config_from_dict(tiny_config_dict())
    with pytest.raises(ValueError):
        run_beampattern(cfg, out_dir=str(tmp_path))


# ---------------------------------------------------------------- CLI

def test_negative_seed_override_fails_before_any_output(tmp_path):
    d = tiny_config_dict(beampattern_placements=[0.0])
    cfg = config_from_dict(d)
    for run in (run_spectrum, run_mse_sweep, run_beampattern):
        out = tmp_path / run.__name__
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            run(cfg, seed=-1, out_dir=str(out))
        assert not out.exists()
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(d))
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        cli.main(["spectrum", "--config", str(path), "--seed", "-1",
                  "--out", str(tmp_path / "cli")])
    assert not (tmp_path / "cli").exists()


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


def test_cli_sweep_smoke(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(tiny_config_dict()))
    out = tmp_path / "out"
    rc = cli.main(["mse-sweep", "--config", str(path), "--out", str(out)])
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


def test_cli_pins_blas_threads_unless_set(tmp_path, monkeypatch):
    d = tiny_config_dict()
    d["beampattern_placements"] = [0.0]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(d))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert cli.main(["beampattern", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert os.environ["OMP_NUM_THREADS"] == "3"


def test_cli_import_leaves_numpy_unloaded():
    # the console script sets the BLAS thread count before numpy loads, which
    # needs a package whose public names load on first use
    code = "\n".join([
        "import sys",
        "import risloc.cli",
        "assert 'numpy' not in sys.modules, 'numpy loaded by import risloc.cli'",
        "import risloc",
        "missing = [n for n in risloc.__all__ if not hasattr(risloc, n)]",
        "assert not missing, missing",
        "assert set(risloc.__all__) <= set(dir(risloc))",
        "from risloc import solve_phase_shifts, ris_optimizer",
        "assert solve_phase_shifts is ris_optimizer.solve_phase_shifts",
        "assert not hasattr(risloc, 'no_such_name')",
    ])
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_last_config_wins():
    # the script wrappers pass a default --config ahead of the user's flags
    parser = cli.build_parser()
    assert parser.parse_args(["spectrum", "--config", "a", "--config", "b"]).config == "b"
    assert parser.parse_args(["spectrum", "--config", "a", "--config=b"]).config == "b"


def test_cli_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_readme_quick_start_commands_parse():
    # the documented commands must match the parser, so a removed flag
    # cannot outlive it in the README
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "README.md")) as fh:
        quick_start = fh.read().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line) for line in quick_start.splitlines()
                if line.startswith("risloc ")]
    assert [c[1] for c in commands] == ["spectrum", "mse-sweep", "beampattern"]
    for command in commands:
        args = cli.build_parser().parse_args(command[1:])
        assert os.path.exists(os.path.join(root, args.config))
