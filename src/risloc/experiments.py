"""Experiment harness: config files, deterministic seeding, the three
experiment drivers (spectrum, MSE sweep, beampattern) and their CSV/JSON
artifacts."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import yaml

from .benchmarks import music_estimate, no_ris_localize, select_estimates, trial_error
from .localizer import LocalizerConfig, SpectrumResult, default_grid, spectrum
from .pr_beamformer import BeamformedData, matched_weight
from .ris_optimizer import (RIS_INITS, PhaseShiftMatrix, beampattern, level_db,
                            solve_phase_shifts, suppression_target)
from .signal_model import (ArraySpec, Decibels, SceneConfig, Waveform, check_angles,
                           check_fields, check_value, complex_normal, generate_waveform,
                           steering_matrix, steering_vector)

TRIALS_CSV_HEADER = "trial,method,snr_db,m_elements,mse_deg2,detected_count,flagged"
PLACEMENT_CSV = "beampattern_ap{:+g}.csv"  # one beampattern CSV per AP placement


def _parse_gain(spec, rng: Optional[np.random.Generator]) -> complex:
    """Gain entry: plain number (linear, phase 0) or {db, phase_deg}.

    phase_deg omitted or null means a fresh uniform phase per call, which is
    how per-trial phase randomization enters.
    """
    if isinstance(spec, (int, float, complex)) and not isinstance(spec, bool):
        return complex(spec)
    if not isinstance(spec, dict) or "db" not in spec or set(spec) - {"db", "phase_deg"}:
        raise ValueError(f"gain must be a number or {{db, phase_deg}}, got {spec!r}")
    check_value("db", spec["db"], Decibels)
    check_value("phase_deg", spec.get("phase_deg"), Optional[float])
    mag = 10.0 ** (float(spec["db"]) / 20.0)
    phase = spec.get("phase_deg")
    if phase is None:
        if rng is None:
            raise ValueError("random gain phase requested but no rng supplied")
        phase = rng.uniform(0.0, 360.0)
    return mag * np.exp(1j * np.deg2rad(float(phase)))


def _scene_value(name: str, value, rng: Optional[np.random.Generator]):
    """One scene: entry; a gain_* entry, or each entry of a listed one, is parsed as a gain."""
    if not name.startswith("gain_"):
        return value
    try:
        return ([_parse_gain(v, rng) for v in value] if isinstance(value, (list, tuple))
                else _parse_gain(value, rng))
    except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for complex
        raise ValueError(f"scene key {name}: {exc}") from exc


METHODS = ("nlms_ris", "music_ris", "nlms_no_ris")


@dataclass
class ExperimentConfig:
    scene_spec: dict = dataclasses.field(metadata={"key": "scene"})
    ris: ArraySpec
    pr: ArraySpec
    n_epoch: int
    n_samples: int
    localizer: LocalizerConfig = dataclasses.field(default_factory=LocalizerConfig)
    snr_db: Decibels = 0.0
    snr_sweep_db: Sequence[Decibels] = ()
    trials: int = 200
    seed: int = 0
    out_dir: str = "results"
    ris_init: str = "gaussian"
    refine_rounds: int = 1
    m_sweep: Optional[Sequence[int]] = None
    methods: Sequence[str] = METHODS
    beampattern_placements: Sequence[float] = ()
    mse_target_deg2: float = 10.0

    def __post_init__(self):
        check_fields(self)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n_epoch < 1 or self.n_samples < 1:
            raise ValueError("n_epoch and n_samples must be >= 1")
        # a negative MSE target could never be met
        for name in ("seed", "refine_rounds", "mse_target_deg2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if -np.inf in (self.snr_db, *self.snr_sweep_db):  # +inf is noise-free
            raise ValueError("snr_db and snr_sweep_db entries must not be -inf")
        check_angles("beampattern_placements", self.beampattern_placements)
        if not self.methods:
            raise ValueError("methods must be non-empty")
        _reject_unknown("methods", self.methods, METHODS)
        _reject_unknown("ris_init", [self.ris_init], RIS_INITS)
        if self.m_sweep is not None and not (self.m_sweep and all(m >= 1 for m in self.m_sweep)):
            raise ValueError("m_sweep must be null or a non-empty list of integers >= 1, "
                             f"got {self.m_sweep!r}")
        # a repeat would write its sweep cells twice, or overwrite a placement's CSV
        for where, values in (("m_sweep", self.m_sweep or ()), ("snr_sweep_db", self.snr_sweep_db),
                              ("methods", self.methods), ("beampattern_placements CSV names",
                               map(PLACEMENT_CSV.format, self.beampattern_placements))):
            repeated = sorted(str(v) for v, n in Counter(values).items() if n > 1)
            if repeated:
                raise ValueError(f"{where} must be distinct, repeated: {', '.join(repeated)}")

    def make_scene(self, rng: Optional[np.random.Generator] = None,
                   **overrides) -> SceneConfig:
        """The scene: block as a SceneConfig, with the entries in overrides
        replaced. Entries are parsed in field order, overridden ones too, so
        random gain phases are drawn in that order whatever the key order."""
        spec = {f.name: _scene_value(f.name, self.scene_spec[f.name], rng)
                for f in dataclasses.fields(SceneConfig) if f.name in self.scene_spec}
        return SceneConfig(**{**spec, **overrides})


def _parse_grid(spec) -> np.ndarray:
    if spec is None:
        return default_grid()
    if isinstance(spec, dict):
        _reject_unknown("grid keys", spec, ("start", "stop", "step"))
        for key in ("start", "stop", "step"):
            check_value(f"grid {key}", spec[key], float)
        start, stop, step = float(spec["start"]), float(spec["stop"]), float(spec["step"])
        if not step > 0:
            raise ValueError(f"grid step must be > 0, got {step}")
        # the last point is the largest start + i step <= stop, to 1e-9 of a
        # step so that a stop missed by rounding is kept; arange to
        # stop + step / 2 is never shorter, and its values are kept
        n = max(int(np.floor((stop - start) / step + 1e-9)) + 1, 0)
        return np.round(np.arange(start, stop + step / 2, step)[:n], 6)
    # flattened, so that a nested list still fails as not 1-D
    check_value("grid", np.asarray(spec, dtype=object).ravel().tolist(), Sequence[float])
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config {path}: {exc}") from exc


def trial_rng(master_seed: int, *key: int) -> np.random.Generator:
    """The seed tree, the only maker of a run's Generator: key () for spectrum,
    (placement index,) for beampattern and (m_index, trial) for a sweep trial.
    The SNR index is deliberately not part of a sweep key, so every point of
    a sweep reuses the same channel/noise draws scaled to its own variance."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))


def build_phases(cfg: ExperimentConfig, scene: SceneConfig, ris: ArraySpec,
                 rng: np.random.Generator) -> PhaseShiftMatrix:
    return solve_phase_shifts(suppression_target(scene, ris), cfg.n_epoch, rng,
                              init=cfg.ris_init, refine_rounds=cfg.refine_rounds)


def _acquisition(cfg: ExperimentConfig, ris: ArraySpec, rng: np.random.Generator):
    """Scene, phases, waveform, matched weight w, and Z0, its factors (g, s) and
    mean |x_n(t)|^2 of beamformed_epochs: one noise-free acquisition, drawn
    from rng in that order."""
    scene = cfg.make_scene(rng)
    phases = build_phases(cfg, scene, ris, rng)
    waveform = generate_waveform(cfg.n_samples, rng)
    w = matched_weight(cfg.pr, scene.aoa_ris_pr)
    return (scene, phases, waveform, w,
            *beamformed_epochs(scene, waveform, phases, ris, cfg.pr, w, rng))


def _direct_fading(scene: SceneConfig, pr: ArraySpec, n_epoch: int,
                   rng: np.random.Generator):
    """Gains (P,) and Rician channels h (n_epoch x P x N_PR) of the P nonzero
    direct paths, in pr_received's order (AP, then targets).

    The scattered parts of all epochs come from one (n_epoch, P, 2, N_PR)
    standard-normal draw, real then imaginary parts. Generator draws do not
    depend on how they are chunked, so this consumes the stream of the
    n_epoch * P rician_channel calls of pr_received exactly.
    """
    direct = np.array([(scene.gain_ap_pr, scene.aoa_ap_pr, scene.rician_ap_pr),
                       *zip(scene.gain_targets_pr, scene.target_aoas_pr,
                            scene.rician_targets_pr)], dtype=complex)
    direct = direct[direct[:, 0] != 0]  # P x (gain, aoa, kappa)
    kappa = direct[:, 2, None].real
    g = rng.standard_normal((n_epoch, len(direct), 2, pr.elements))
    nlos = (g[..., 0, :] + 1j * g[..., 1, :]) / np.sqrt(2.0)
    h = (np.sqrt(kappa / (1.0 + kappa)) * steering_matrix(pr, direct[:, 1].real).T
         + np.sqrt(1.0 / (1.0 + kappa)) * nlos)
    return direct[:, 0], h


def beamformed_epochs(scene: SceneConfig, waveform: Waveform, phases: PhaseShiftMatrix,
                      ris: ArraySpec, pr: ArraySpec, w: np.ndarray,
                      rng: np.random.Generator):
    """Noise-free beamformed epochs Z0 = g s^T (N_epoch x L), their factors
    (g, s) and mean |x_n(t)|^2.

    Every path carries the one waveform s, so Z0 is rank one. The field at
    the RIS is h s^T with h = sum_k alpha_k a(theta_k) + alpha_0 a(aoa_ap_ris),
    summed in ris_incident's order, so epoch n reflects x_n = (v_n * b)^T h s^T
    and mean |x_n(t)|^2 = mean |(V * b) h|^2 mean |s|^2. The beamformed gain
    is g = g_ris + g_dir: g_ris = gain_ris_pr (w^H a_PR) (V * b) h, and g_dir
    that of the direct paths, with the fading of all epochs from one
    _direct_fading draw. So on the same rng state Z0 equals
    beamform(simulate_epochs(..., NoiseModel(0.0), rng), w).z to rounding.
    White noise of variance sigma^2 at the PR adds sigma * ||w|| * CN(0, 1) to
    each entry.
    """
    rays = steering_matrix(ris, [*scene.target_aoas_ris, scene.aoa_ap_ris]).T
    h = sum((a * ray for a, ray in zip([*scene.gain_targets, scene.gain_ap_ris], rays)),
            np.zeros(ris.elements, dtype=complex))
    x = (phases.matrix * steering_vector(ris, scene.aod_ris_pr)) @ h  # N_epoch
    direct, fading = _direct_fading(scene, pr, phases.n_epoch, rng)
    wa = np.vdot(w, steering_vector(pr, scene.aoa_ris_pr))
    g = scene.gain_ris_pr * wa * x + (fading @ w.conj()) @ direct
    s = waveform.samples
    return np.outer(g, s), (g, s), float(np.mean(np.abs(x) ** 2)) * waveform.power


def _no_ris_epoch(scene: SceneConfig, waveform: Waveform, pr: ArraySpec,
                  rng: np.random.Generator) -> np.ndarray:
    """Noise-free N_PR x L epoch of the direct paths alone: the scene with the
    RIS absent. Summed path by path in pr_received's order, so on the same rng
    state it equals pr_received(scene, waveform, np.zeros(L), pr,
    NoiseModel(0.0), rng) bit for bit."""
    gains, h = _direct_fading(scene, pr, 1, rng)
    s = waveform.samples
    return sum((g * np.outer(h_p, s) for g, h_p in zip(gains, h[0])),
               np.zeros((pr.elements, s.size), dtype=complex))


def noise_variance_for_snr(scene: SceneConfig, x_power: float, snr_db: float) -> float:
    """SNR := |gain_ris_pr|^2 * mean|x|^2 / sigma^2, solved for sigma^2.

    With no RIS-path power every finite SNR would give sigma^2 = 0, a
    noise-free run under a noisy label, so it fails; +inf dB is noise-free
    anyway and stays allowed."""
    sig = abs(scene.gain_ris_pr) ** 2 * x_power
    if sig == 0 and snr_db != np.inf:
        raise ValueError(f"SNR {snr_db:g} dB is undefined: the RIS-path power "
                         "|gain_ris_pr|^2 * mean|x|^2 is 0 (gain_ris_pr is 0, or "
                         "gain_targets and gain_ap_ris are all 0)")
    return sig / (10.0 ** (snr_db / 10.0))


def _seed_and_out_dir(cfg: ExperimentConfig, seed: Optional[int], out_dir: Optional[str]):
    """A run's master seed and output directory (made if missing): each the
    override if given, else the config's. A negative seed fails before the
    directory is made."""
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    out = cfg.out_dir if out_dir is None else out_dir
    os.makedirs(out, exist_ok=True)
    return (cfg.seed if seed is None else seed), out


def _write_csv(path, header: str, row_format: str, rows) -> None:
    """A CSV table: the header line, then row_format % row per row.

    The rows are formatted by one % on the row template repeated once per
    row, which gives each row the text of its own % call."""
    rows = list(rows)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(((row_format + "\n") * len(rows)) % tuple(itertools.chain.from_iterable(rows)))


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- spectrum

def run_spectrum(cfg: ExperimentConfig, seed: Optional[int] = None,
                 out_dir: Optional[str] = None) -> SpectrumResult:
    """Solve phases, synthesize one beamformed acquisition and scan it.

    Writes spectrum.csv plus a JSON summary with the detected peaks.
    """
    master, out = _seed_and_out_dir(cfg, seed, out_dir)
    rng = trial_rng(master)
    scene, phases, _, w, z0, _, x_power = _acquisition(cfg, cfg.ris, rng)
    variance = noise_variance_for_snr(scene, x_power, cfg.snr_db)
    data = BeamformedData(z0 + np.sqrt(variance) * np.linalg.norm(w)
                          * complex_normal(z0.shape, rng))
    result = spectrum(data, cfg.localizer, phases, cfg.ris, scene.aod_ris_pr)

    columns = (result.grid, result.power, result.normalized, np.isin(result.grid, result.peaks))
    _write_csv(os.path.join(out, "spectrum.csv"), "theta_deg,power,normalized,is_peak",
               "%.6g,%.12g,%.12g,%d", zip(*(c.tolist() for c in columns)))
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
                 trial: int) -> List[tuple]:
    """One trial at every SNR point and method, as trials.csv rows
    (TRIALS_CSV_HEADER order)."""
    rng = trial_rng(cfg.seed, m_index, trial)
    ris = ArraySpec(m_elements, cfg.ris.spacing)
    scene, phases, waveform, w, z0, factors, x_power = _acquisition(cfg, ris, rng)
    y0_nr = _no_ris_epoch(scene, waveform, cfg.pr, rng)
    # unit noise drawn once, so every SNR point rescales the same draws
    ez = complex_normal(z0.shape, rng)
    e1 = complex_normal(y0_nr.shape, rng)

    # sigma at the PR, sigma * ||w|| after the beamformer; the RIS NLMS scan
    # runs per SNR point, MUSIC and the no-RIS scan once over all points
    sigmas = np.sqrt([noise_variance_for_snr(scene, x_power, snr_db)
                      for snr_db in cfg.snr_sweep_db])
    scales = sigmas * np.linalg.norm(w)
    k = scene.n_targets
    per_method = {}
    if "nlms_ris" in cfg.methods:
        per_method["nlms_ris"] = [
            _nlms_pick(spectrum(BeamformedData(z0 + c * ez), cfg.localizer, phases, ris,
                                scene.aod_ris_pr, products=products), k)
            for c, products in zip(scales, _scan_products(*factors, ez, phases.matrix,
                                                          scales))]
    if "music_ris" in cfg.methods:
        per_method["music_ris"] = [
            (est, len(est)) for est in music_estimate(
                BeamformedData(z0), k, cfg.localizer, phases, ris, scene.aod_ris_pr,
                noise=ez, scales=scales, factors=factors)]
    if "nlms_no_ris" in cfg.methods:
        per_method["nlms_no_ris"] = [
            _nlms_pick(res, k) for res in no_ris_localize(
                y0_nr + sigmas[:, None, None] * e1, cfg.localizer, cfg.pr)]

    rows = []
    for i, snr_db in enumerate(cfg.snr_sweep_db):
        for method in cfg.methods:
            truths = scene.target_aoas_pr if method == "nlms_no_ris" else scene.target_aoas_ris
            est, detected = per_method[method][i]
            mse, flagged = trial_error(truths, est)
            rows.append((trial, method, float(snr_db), m_elements, mse, detected, flagged))
    return rows


def _scan_products(g: np.ndarray, s: np.ndarray, noise: np.ndarray, basis: np.ndarray,
                   scales):
    """(Z^H Z, Z^H B) of the snapshots Z = g s^T + c E (noise E, N x L; basis
    B, N x M) for each scale c in scales, from pieces taken once:
    Z^H Z = ||g||^2 conj(s) s^T + c (conj(s) u^T + conj(u) s^T) + c^2 E^H E with
    u = E^T conj(g), and Z^H B = conj(s) (g^H B) + c E^H B. So the L x L x N
    and L x M x N products are taken once, not once per scale; each scale
    costs a few passes over one fresh L x L and one L x M array."""
    eh = noise.conj().T
    noise_gram, noise_proj = eh @ noise, eh @ basis
    sc = s.conj()[:, None]
    # outer products as matrix products with a contiguous operand, which
    # is several times faster than np.outer on complex vectors
    cross = np.column_stack([sc[:, 0], eh @ g]) @ np.stack([noise.T @ g.conj(), s])
    signal_gram = (np.vdot(g, g).real * sc) @ s[None, :]
    signal_proj = sc @ (g.conj() @ basis)[None, :]
    for c in scales:
        gram = c * noise_gram
        gram += cross
        gram *= c
        gram += signal_gram
        proj = c * noise_proj
        proj += signal_proj
        yield gram, proj


def _nlms_pick(res: SpectrumResult, k: int):
    return select_estimates(res, k), res.k_hat


def run_mse_sweep(cfg: ExperimentConfig, seed: Optional[int] = None,
                  out_dir: Optional[str] = None):
    """Monte-Carlo MSE vs SNR for every configured method and RIS size.

    Writes the per-trial stream (trials.csv), the aggregate table
    (mse_sweep.csv) and a JSON summary. Returns the aggregate rows.
    """
    if not cfg.snr_sweep_db:
        raise ValueError("snr_sweep_db must be non-empty")
    k = len(cfg.scene_spec["target_aoas_ris"])
    if "music_ris" in cfg.methods and not 1 <= k < cfg.n_epoch:
        raise ValueError(f"methods include music_ris, which needs 1 <= K < n_epoch; "
                         f"got K = {k} targets and n_epoch = {cfg.n_epoch}")
    master, out = _seed_and_out_dir(cfg, seed, out_dir)
    cfg = dataclasses.replace(cfg, seed=master)
    m_list = list(cfg.m_sweep) if cfg.m_sweep else [cfg.ris.elements]

    rows = [row for mi, m in enumerate(m_list) for t in range(cfg.trials)
            for row in _sweep_trial(cfg, mi, m, t)]
    _write_csv(os.path.join(out, "trials.csv"), TRIALS_CSV_HEADER,
               "%s,%s,%.10g,%s,%.10g,%s,%d", rows)

    # rows run (M, trial, SNR, method); each cell's mean is taken over a
    # contiguous run of its trials, as np.mean of that cell alone would be
    cells = np.array([(row[4], row[6]) for row in rows], dtype=float).reshape(
        len(m_list), cfg.trials, len(cfg.snr_sweep_db), len(cfg.methods), 2)
    mse, flagged = np.mean(np.ascontiguousarray(cells.transpose(4, 0, 3, 2, 1)), axis=-1)
    aggregate = [{"snr_db": float(snr_db), "method": method, "m_elements": m,
                  "mse_deg2": cell_mse, "flagged_fraction": cell_flagged}
                 for (m, method, snr_db), cell_mse, cell_flagged in zip(
                     itertools.product(m_list, cfg.methods, cfg.snr_sweep_db),
                     mse.ravel().tolist(), flagged.ravel().tolist())]
    _write_csv(os.path.join(out, "mse_sweep.csv"),
               "snr_db,method,m_elements,mse_deg2,flagged_fraction",
               "%.10g,%s,%s,%.10g,%.10g", (row.values() for row in aggregate))
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
    master, out = _seed_and_out_dir(cfg, seed, out_dir)
    grid = cfg.localizer.grid
    summary = []
    for idx, placement in enumerate(cfg.beampattern_placements):
        rng = trial_rng(master, idx)
        scene = cfg.make_scene(rng, aoa_ap_ris=float(placement))
        phases = build_phases(cfg, scene, cfg.ris, rng)
        pat = beampattern(phases, scene.aod_ris_pr, cfg.ris, grid)
        peak = pat.max()
        pat_db = level_db(pat, peak)  # beampattern_db, without a second grid pattern
        notch = beampattern(phases, scene.aod_ris_pr, cfg.ris, [placement])[0]
        notch_db = level_db(notch, peak)
        off = pat_db[np.abs(grid - placement) > 3.0]
        name = PLACEMENT_CSV.format(placement)
        _write_csv(os.path.join(out, name), "theta_deg,b_normalized_db", "%.6g,%.10g",
                   zip(grid.tolist(), pat_db.tolist()))
        summary.append({"aoa_ap_ris": float(placement), "notch_db": float(notch_db),
                        "off_notch_median_db": float(np.median(off)), "csv": name})
    _write_json(os.path.join(out, "beampattern_summary.json"),
                {"seed": master, "placements": summary})
    return summary
