"""Experiment harness: config files, deterministic seeding, the three
experiment drivers (spectrum, MSE sweep, beampattern) and their CSV/JSON
artifacts."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import yaml

from .benchmarks import TrialReport, music_estimate, no_ris_localize, select_estimates, trial_error
from .localizer import LocalizerConfig, SpectrumResult, default_grid, spectrum
from .pr_beamformer import BeamformedData, matched_weight
from .ris_optimizer import (RIS_INITS, PhaseShiftMatrix, beampattern, solve_phase_shifts,
                            suppression_target)
from .signal_model import (WAVEFORM_KINDS, ArraySpec, NoiseModel, SceneConfig, Waveform,
                           complex_normal, generate_waveform, pr_received, ris_incident,
                           steering_matrix, steering_vector)

TRIALS_CSV_HEADER = "trial,method,snr_db,m_elements,mse_deg2,detected_count,flagged"


def _parse_gain(spec, rng: Optional[np.random.Generator]) -> complex:
    """Gain entry: plain number (linear, phase 0) or {db, phase_deg}.

    phase_deg omitted or null means a fresh uniform phase per call, which is
    how per-trial phase randomization enters.
    """
    if isinstance(spec, (int, float, complex)):
        return complex(spec)
    if not isinstance(spec, dict) or "db" not in spec or set(spec) - {"db", "phase_deg"}:
        raise ValueError(f"gain must be a number or {{db, phase_deg}}, got {spec!r}")
    mag = 10.0 ** (float(spec["db"]) / 20.0)
    phase = spec.get("phase_deg")
    if phase is None:
        if rng is None:
            raise ValueError("random gain phase requested but no rng supplied")
        phase = rng.uniform(0.0, 360.0)
    return mag * np.exp(1j * np.deg2rad(float(phase)))


def _scene_value(f: dataclasses.Field, value, rng: Optional[np.random.Generator]):
    """One entry of the scene: block, typed by its SceneConfig field: gain_*
    entries go through _parse_gain, the rest are floats; Sequence fields take
    lists."""
    parse = (lambda g: _parse_gain(g, rng)) if f.name.startswith("gain_") else float
    try:
        return [parse(v) for v in value] if "Sequence" in str(f.type) else parse(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"scene key {f.name}: {exc}") from exc


METHODS = ("nlms_ris", "music_ris", "nlms_no_ris")


@dataclass
class ExperimentConfig:
    scene_spec: dict = dataclasses.field(metadata={"key": "scene"})
    ris: ArraySpec
    pr: ArraySpec
    n_epoch: int
    n_samples: int
    localizer: LocalizerConfig = dataclasses.field(default_factory=LocalizerConfig)
    snr_db: float = 0.0
    snr_sweep_db: Sequence[float] = ()
    trials: int = 200
    seed: int = 0
    out_dir: str = "results"
    ris_init: str = "gaussian"
    refine_rounds: int = 1
    waveform_kind: str = "gaussian"
    m_sweep: Optional[Sequence[int]] = None
    methods: Sequence[str] = METHODS
    beampattern_placements: Sequence[float] = ()
    mse_target_deg2: float = 10.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n_epoch < 1 or self.n_samples < 1:
            raise ValueError("n_epoch and n_samples must be >= 1")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        _reject_unknown("methods", self.methods, METHODS)
        _reject_unknown("waveform_kind", [self.waveform_kind], WAVEFORM_KINDS)
        _reject_unknown("ris_init", [self.ris_init], RIS_INITS)
        if self.m_sweep is not None and not (
                isinstance(self.m_sweep, (list, tuple)) and self.m_sweep
                and all(isinstance(m, (int, np.integer)) and not isinstance(m, bool) and m >= 1
                        for m in self.m_sweep)):
            raise ValueError("m_sweep must be null or a non-empty list of integers >= 1, "
                             f"got {self.m_sweep!r}")

    def make_scene(self, rng: Optional[np.random.Generator] = None) -> SceneConfig:
        """The scene: block as a SceneConfig. Entries are parsed in field order,
        so random gain phases are drawn in that order whatever the key order."""
        return SceneConfig(**{f.name: _scene_value(f, self.scene_spec[f.name], rng)
                              for f in dataclasses.fields(SceneConfig)
                              if f.name in self.scene_spec})


def _parse_grid(spec) -> np.ndarray:
    if spec is None:
        return default_grid()
    if isinstance(spec, dict):
        start, stop, step = float(spec["start"]), float(spec["stop"]), float(spec["step"])
        return np.round(np.arange(start, stop + step / 2, step), 6)
    return np.asarray(spec, dtype=float)


def _reject_unknown(where: str, keys, known) -> None:
    unknown = sorted(str(k) for k in keys if k not in known)
    if unknown:
        raise ValueError(f"unknown {where}: {', '.join(unknown)}")


def _section(where: str, d, cls) -> dict:
    """d renamed to the fields of dataclass cls, whose metadata "key" names a
    field's config key; unknown or missing required keys raise a ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a mapping, got {d!r}")
    fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
    _reject_unknown(f"{where} keys", d, fields)
    missing = [k for k, f in fields.items() if k not in d
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{where} is missing required keys: {', '.join(missing)}")
    return {fields[k].name: v for k, v in d.items()}


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build and check a config. Every block is checked against its
    dataclass, and one scene is built from a spare rng, so bad gain specs and
    per-target list lengths fail here rather than in the first run."""
    kwargs = _section("config", d, ExperimentConfig)
    _section("scene", kwargs["scene_spec"], SceneConfig)
    kwargs["ris"] = ArraySpec(**_section("ris", kwargs["ris"], ArraySpec))
    kwargs["pr"] = ArraySpec(**_section("pr", kwargs["pr"], ArraySpec))
    loc = _section("localizer", kwargs.get("localizer", {}), LocalizerConfig)
    kwargs["localizer"] = LocalizerConfig(**dict(loc, grid=_parse_grid(loc.get("grid"))))
    cfg = ExperimentConfig(**kwargs)
    cfg.make_scene(np.random.default_rng(0))
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        d = yaml.safe_load(fh)
    try:
        return config_from_dict(d)
    except KeyError as exc:
        raise ValueError(f"config {path} is missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config {path}: {exc}") from exc


def trial_rng(master_seed: int, m_index: int, trial: int) -> np.random.Generator:
    """Documented per-trial stream: spawn_key = (m_index, trial).

    The SNR index is deliberately not part of the key, so every point of a
    sweep reuses the same channel/noise draws scaled to its own variance.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(m_index, trial)))


def build_phases(cfg: ExperimentConfig, scene: SceneConfig, ris: ArraySpec,
                 rng: np.random.Generator) -> PhaseShiftMatrix:
    return solve_phase_shifts(suppression_target(scene, ris), cfg.n_epoch, rng,
                              init=cfg.ris_init, refine_rounds=cfg.refine_rounds)


def beamformed_epochs(scene: SceneConfig, waveform: Waveform, phases: PhaseShiftMatrix,
                      ris: ArraySpec, pr: ArraySpec, w: np.ndarray,
                      rng: np.random.Generator):
    """Noise-free beamformed epochs Z0 (N_epoch x L) and mean |x_n(t)|^2.

    Row n is w^H Y_n of a noise-free pr_received epoch. The P nonzero direct
    paths, in pr_received's order (AP, then targets), take the fading of all
    epochs from one (N_epoch, P, 2, N_PR) standard-normal draw, real then
    imaginary parts. Generator draws do not depend on how they are chunked, so
    this consumes the stream of the N_epoch * P rician_channel calls exactly,
    and on the same rng state Z0 equals
    beamform(simulate_epochs(..., NoiseModel(0.0), rng), w).z. White noise of
    variance sigma^2 at the PR adds sigma * ||w|| * CN(0, 1) to each entry.
    """
    incident = ris_incident(scene, waveform, ris)
    b = steering_vector(ris, scene.aod_ris_pr)
    x = (phases.matrix * b) @ incident  # N_epoch x L
    direct = np.array([(scene.gain_ap_pr, scene.aoa_ap_pr, scene.rician_ap_pr),
                       *zip(scene.gain_targets_pr, scene.target_aoas_pr,
                            scene.rician_targets_pr)], dtype=complex)
    direct = direct[direct[:, 0] != 0]  # P x (gain, aoa, kappa)
    kappa = direct[:, 2, None].real
    g = rng.standard_normal((phases.n_epoch, len(direct), 2, pr.elements))
    nlos = (g[..., 0, :] + 1j * g[..., 1, :]) / np.sqrt(2.0)
    h = (np.sqrt(kappa / (1.0 + kappa)) * steering_matrix(pr, direct[:, 1].real).T
         + np.sqrt(1.0 / (1.0 + kappa)) * nlos)  # N_epoch x P x N_PR
    gain_dir = (h @ w.conj()) @ direct[:, 0]
    wa = np.vdot(w, steering_vector(pr, scene.aoa_ris_pr))
    z0 = scene.gain_ris_pr * wa * x + np.outer(gain_dir, waveform.samples)
    return z0, float(np.mean(np.abs(x) ** 2))


def noise_variance_for_snr(scene: SceneConfig, x_power: float, snr_db: float) -> float:
    """SNR := |gain_ris_pr|^2 * mean|x|^2 / sigma^2, solved for sigma^2."""
    sig = abs(scene.gain_ris_pr) ** 2 * x_power
    return sig / (10.0 ** (snr_db / 10.0))


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- spectrum

def run_spectrum(cfg: ExperimentConfig, seed: Optional[int] = None,
                 out_dir: Optional[str] = None) -> SpectrumResult:
    """Solve phases, synthesize one beamformed acquisition and scan it.

    Writes spectrum.csv plus a JSON summary with the detected peaks.
    """
    master = cfg.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence(entropy=master))
    scene = cfg.make_scene(rng)
    phases = build_phases(cfg, scene, cfg.ris, rng)
    waveform = generate_waveform(cfg.n_samples, rng, cfg.waveform_kind)
    w = matched_weight(cfg.pr, scene.aoa_ris_pr)
    z0, x_power = beamformed_epochs(scene, waveform, phases, cfg.ris, cfg.pr, w, rng)
    variance = noise_variance_for_snr(scene, x_power, cfg.snr_db)
    data = BeamformedData(z0 + np.sqrt(variance) * np.linalg.norm(w)
                          * complex_normal(z0.shape, rng))
    result = spectrum(data, cfg.localizer, phases, cfg.ris, scene.aod_ris_pr)

    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    result.to_csv(os.path.join(out, "spectrum.csv"))
    _write_json(os.path.join(out, "spectrum_summary.json"), {
        "seed": master,
        "snr_db": cfg.snr_db,
        "noise_variance": variance,
        "k_hat": result.k_hat,
        "peaks": [float(p) for p in result.peaks],
        "estimates": [float(p) for p in result.peaks],
    })
    return result


# ---------------------------------------------------------------- MSE sweep

def _sweep_trial(cfg: ExperimentConfig, m_index: int, m_elements: int,
                 trial: int) -> List[TrialReport]:
    rng = trial_rng(cfg.seed, m_index, trial)
    scene = cfg.make_scene(rng)
    ris = ArraySpec(m_elements, cfg.ris.spacing)
    phases = build_phases(cfg, scene, ris, rng)
    waveform = generate_waveform(cfg.n_samples, rng, cfg.waveform_kind)
    w = matched_weight(cfg.pr, scene.aoa_ris_pr)
    z0, x_power = beamformed_epochs(scene, waveform, phases, ris, cfg.pr, w, rng)
    # the baseline observes the same scene with the RIS absent
    y0_nr = pr_received(scene, waveform, np.zeros(cfg.n_samples), cfg.pr,
                        NoiseModel(0.0), rng)
    # unit noise drawn once, so every SNR point rescales the same draws
    ez = complex_normal(z0.shape, rng)
    e1 = complex_normal(y0_nr.shape, rng)
    w_norm = np.linalg.norm(w)

    k = scene.n_targets
    truths_ris = list(scene.target_aoas_ris)
    truths_pr = list(scene.target_aoas_pr)
    reports = []
    for snr_db in cfg.snr_sweep_db:
        variance = noise_variance_for_snr(scene, x_power, snr_db)
        sigma = np.sqrt(variance)
        data = BeamformedData(z0 + sigma * w_norm * ez)
        for method in cfg.methods:
            if method == "nlms_ris":
                res = spectrum(data, cfg.localizer, phases, ris, scene.aod_ris_pr)
                est = select_estimates(res, k)
                mse, flagged = trial_error(truths_ris, est)
                detected = res.k_hat
            elif method == "music_ris":
                est = music_estimate(data, k, cfg.localizer.grid, phases, ris,
                                     scene.aod_ris_pr, cfg.localizer.include_b)
                mse, flagged = trial_error(truths_ris, est)
                detected = len(est)
            else:  # nlms_no_ris
                res = no_ris_localize(y0_nr + sigma * e1, cfg.localizer, cfg.pr)
                est = select_estimates(res, k)
                mse, flagged = trial_error(truths_pr, est)
                detected = res.k_hat
            reports.append(TrialReport(
                true_aoas=truths_pr if method == "nlms_no_ris" else truths_ris,
                estimated_aoas=list(est), mse=mse, detected_count=detected,
                snr_db=float(snr_db), method=method, m_elements=m_elements,
                trial=trial, flagged=flagged))
    return reports


def run_mse_sweep(cfg: ExperimentConfig, seed: Optional[int] = None,
                  out_dir: Optional[str] = None, parallel: int = 1):
    """Monte-Carlo MSE vs SNR for every configured method and RIS size.

    Writes the per-trial stream (trials.csv), the aggregate table
    (mse_sweep.csv) and a JSON summary. Returns the aggregate rows.
    """
    if not cfg.snr_sweep_db:
        raise ValueError("snr_sweep_db must be non-empty")
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    m_list = list(cfg.m_sweep) if cfg.m_sweep else [cfg.ris.elements]

    jobs = [(mi, m, t) for mi, m in enumerate(m_list) for t in range(cfg.trials)]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            chunks = list(pool.map(_sweep_trial, itertools.repeat(cfg), *zip(*jobs),
                                   chunksize=4))
    else:
        chunks = [_sweep_trial(cfg, mi, m, t) for mi, m, t in jobs]
    reports = [r for chunk in chunks for r in chunk]

    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "trials.csv"), "w") as fh:
        fh.write(TRIALS_CSV_HEADER + "\n")
        for r in reports:
            fh.write(f"{r.trial},{r.method},{r.snr_db:.10g},{r.m_elements},"
                     f"{r.mse:.10g},{r.detected_count},{int(r.flagged)}\n")

    aggregate = []
    for m in m_list:
        for method in cfg.methods:
            for snr_db in cfg.snr_sweep_db:
                sel = [r for r in reports if r.m_elements == m
                       and r.method == method and r.snr_db == snr_db]
                mse = float(np.mean([r.mse for r in sel]))
                frac = float(np.mean([r.flagged for r in sel]))
                aggregate.append({"snr_db": float(snr_db), "method": method,
                                  "m_elements": m, "mse_deg2": mse,
                                  "flagged_fraction": frac})
    with open(os.path.join(out, "mse_sweep.csv"), "w") as fh:
        fh.write("snr_db,method,m_elements,mse_deg2,flagged_fraction\n")
        for row in aggregate:
            fh.write(f"{row['snr_db']:.10g},{row['method']},{row['m_elements']},"
                     f"{row['mse_deg2']:.10g},{row['flagged_fraction']:.10g}\n")
    _write_json(os.path.join(out, "mse_sweep_summary.json"), {
        "seed": cfg.seed, "trials": cfg.trials, "m_sweep": m_list,
        "methods": list(cfg.methods),
        "snr_sweep_db": [float(s) for s in cfg.snr_sweep_db],
    })
    return aggregate


# ---------------------------------------------------------------- beampattern

def run_beampattern(cfg: ExperimentConfig, seed: Optional[int] = None,
                    out_dir: Optional[str] = None):
    """Solve phases per AP placement and tabulate the normalized beampattern.

    One CSV per placement with columns (theta_deg, b_normalized_db); the JSON
    summary records the notch depth and the off-notch median level.
    """
    if not cfg.beampattern_placements:
        raise ValueError("beampattern_placements must be non-empty")
    master = cfg.seed if seed is None else seed
    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    grid = cfg.localizer.grid
    summary = []
    for idx, placement in enumerate(cfg.beampattern_placements):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=master, spawn_key=(idx,)))
        scene = dataclasses.replace(cfg.make_scene(rng), aoa_ap_ris=float(placement))
        phases = build_phases(cfg, scene, cfg.ris, rng)
        pat = beampattern(phases, scene.aod_ris_pr, cfg.ris, grid)
        peak = pat.max()
        pat_db = 10.0 * np.log10(np.maximum(pat, 1e-300) / peak)
        notch = beampattern(phases, scene.aod_ris_pr, cfg.ris, [placement])[0]
        notch_db = 10.0 * np.log10(max(notch, 1e-300) / peak)
        off = pat_db[np.abs(grid - placement) > 3.0]
        name = f"beampattern_ap{placement:+g}.csv"
        with open(os.path.join(out, name), "w") as fh:
            fh.write("theta_deg,b_normalized_db\n")
            for t, v in zip(grid, pat_db):
                fh.write(f"{t:.6g},{v:.10g}\n")
        summary.append({"aoa_ap_ris": float(placement), "notch_db": float(notch_db),
                        "off_notch_median_db": float(np.median(off)), "csv": name})
    _write_json(os.path.join(out, "beampattern_summary.json"),
                {"seed": master, "placements": summary})
    return summary
