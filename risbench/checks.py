"""Output checks, worked out apart from the program.

Each check returns a list of error strings; an empty list means the output
passed. The thresholds come from the method and the paper, not from stored
program output:

* spectrum: every detected peak lies within 1 deg of its own target, at
  least 95 % of a run's acquisitions resolve all four targets, and the CSV's
  peak flags and normalization follow their definitions.
* beampattern: the RIS phase design holds the direct AP ray at least 14 dB
  below the pattern's maximum (the paper's dynamic-range reduction), and
  leaves the rest of the pattern within 3 dB of quasi-transparent.
* sweep: the aggregate table is the mean of the per-trial stream; MUSIC with
  the known target count never misses; at 0 and 3 dB no RIS-method trial
  misses a target, every trial at M >= 32 has MSE <= 4 deg^2 (RMS error
  2 deg), and at M = 16, where a rare phase draw biases a trial at every SNR,
  the run's median does; over a run, NLMS with the RIS reaches the 10 deg^2
  target at least 10 dB below the no-RIS baseline.
* NLMS kernel: ``localizer.spectrum`` equals a line-by-line transcription
  of the recursion, one grid angle at a time.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict
from typing import Dict, List, Sequence

import numpy as np

PEAK_TOL_DEG = 1.0
MIN_DETECTION_RATE = 0.95
NOTCH_MAX_DB = -14.0
OFF_NOTCH_MIN_DB = -3.0
RIS_METHODS = ("nlms_ris", "music_ris")
HIGH_SNR_DB = (0.0, 3.0)
HIGH_SNR_MAX_MSE = 4.0
EVERY_TRIAL_MIN_M = 32
SWEEP_M = 64
SWEEP_MARGIN_DB = 10.0
KERNEL_RTOL = 1e-9


def _read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def strict_peaks(values: Sequence[float], phi: float) -> List[int]:
    """Indices of interior plateaus higher than both neighbours and phi.

    The values are split into runs of equal samples; a run that touches
    neither end of the array and rises above both neighbouring runs is a
    peak, reported at its first index.
    """
    runs = []  # [value, first index, last index]
    for i, v in enumerate(values):
        if runs and runs[-1][0] == v:
            runs[-1][2] = i
        else:
            runs.append([v, i, i])
    out = []
    for r in range(1, len(runs) - 1):
        v, first, _ = runs[r]
        if v > phi and runs[r - 1][0] < v and runs[r + 1][0] < v:
            out.append(first)
    return out


# ---------------------------------------------------------------- spectrum

def matched_truths(peaks: Sequence[float], truths: Sequence[float]) -> List[float]:
    """Truths that have a peak within PEAK_TOL_DEG, each peak used once.

    Targets are further apart than twice the tolerance, so a peak can lie
    near at most one truth and greedy matching is exact.
    """
    left = list(peaks)
    hit = []
    for t in truths:
        near = [p for p in left if abs(p - t) <= PEAK_TOL_DEG]
        if near:
            left.remove(near[0])
            hit.append(t)
    return hit


def check_spectrum(out_dir: str, result, truths: Sequence[float],
                   threshold: float) -> List[str]:
    """Per-acquisition checks. A missed target is not an error here: at the
    shipped SNR a few acquisitions in a thousand resolve only three of the
    four targets, so detection is checked as a rate over a run."""
    errors = []
    rows = _read_csv(os.path.join(out_dir, "spectrum.csv"))
    theta = np.array([float(r["theta_deg"]) for r in rows])
    power = np.array([float(r["power"]) for r in rows])
    normalized = np.array([float(r["normalized"]) for r in rows])
    flagged = [i for i, r in enumerate(rows) if r["is_peak"] == "1"]

    # the CSV holds 12 significant digits
    if np.max(np.abs(normalized - power / power.max())) > 1e-10:
        errors.append("spectrum.csv: normalized != power / max(power)")
    expected = strict_peaks(np.asarray(result.normalized), threshold)
    if flagged != expected:
        errors.append(f"spectrum.csv: is_peak rows {flagged} != peak scan {expected}")

    peaks = sorted(theta[flagged])
    if len(peaks) > len(truths):
        errors.append(f"spectrum: {len(peaks)} peaks {peaks} for {len(truths)} targets")
    elif len(matched_truths(peaks, truths)) < len(peaks):
        errors.append(f"spectrum: peaks {peaks} not each within {PEAK_TOL_DEG} deg "
                      f"of its own target in {list(truths)}")

    with open(os.path.join(out_dir, "spectrum_summary.json")) as fh:
        summary = json.load(fh)
    if sorted(summary["peaks"]) != peaks:
        errors.append("spectrum_summary.json: peaks differ from spectrum.csv")
    return errors


def check_detection_rate(found_all: Sequence[bool]) -> List[str]:
    rate = sum(found_all) / len(found_all)
    if rate < MIN_DETECTION_RATE:
        return [f"spectrum: all targets found in {rate:.1%} of acquisitions, "
                f"under {MIN_DETECTION_RATE:.0%}"]
    return []


# ---------------------------------------------------------------- beampattern

def check_beampattern(out_dir: str, placements: Sequence[float]) -> List[str]:
    errors = []
    with open(os.path.join(out_dir, "beampattern_summary.json")) as fh:
        summary = json.load(fh)["placements"]
    if [s["aoa_ap_ris"] for s in summary] != [float(p) for p in placements]:
        errors.append("beampattern_summary.json: placements differ from the config")
        return errors
    for entry in summary:
        place = entry["aoa_ap_ris"]
        rows = _read_csv(os.path.join(out_dir, entry["csv"]))
        theta = np.array([float(r["theta_deg"]) for r in rows])
        db = np.array([float(r["b_normalized_db"]) for r in rows])
        if abs(db.max()) > 1e-12:
            errors.append(f"{entry['csv']}: maximum is {db.max()} dB, not 0")
        at = np.flatnonzero(np.abs(theta - place) < 1e-9)
        if at.size != 1:
            errors.append(f"{entry['csv']}: placement {place} is not a grid row")
            continue
        notch = db[at[0]]
        if abs(notch - entry["notch_db"]) > 1e-8:
            errors.append(f"{entry['csv']}: notch row {notch} != summary {entry['notch_db']}")
        if notch > NOTCH_MAX_DB:
            errors.append(f"beampattern: notch at {place:+g} deg is {notch:.2f} dB "
                          f"> {NOTCH_MAX_DB} dB")
        off = float(np.median(db[np.abs(theta - place) > 3.0]))
        if abs(off - entry["off_notch_median_db"]) > 1e-8:
            errors.append(f"{entry['csv']}: off-notch median {off} != summary")
        if off < OFF_NOTCH_MIN_DB:
            errors.append(f"beampattern: off-notch median at {place:+g} deg is "
                          f"{off:.2f} dB < {OFF_NOTCH_MIN_DB} dB")
    return errors


# ---------------------------------------------------------------- sweep

def check_sweep_item(out_dir: str, n_rows: int) -> tuple:
    """Checks on one sweep call. Returns (errors, trial rows)."""
    errors = []
    trials = _read_csv(os.path.join(out_dir, "trials.csv"))
    if len(trials) != n_rows:
        errors.append(f"trials.csv: {len(trials)} rows, expected {n_rows}")
    cells = defaultdict(list)
    for r in trials:
        cells[(float(r["snr_db"]), r["method"], int(r["m_elements"]))].append(r)
        high = r["method"] in RIS_METHODS and float(r["snr_db"]) in HIGH_SNR_DB
        if r["flagged"] != "0" and (high or r["method"] == "music_ris"):
            errors.append(f"trials.csv: {r['method']} missed a target at "
                          f"{r['snr_db']} dB, M={r['m_elements']}")
        if (high and int(r["m_elements"]) >= EVERY_TRIAL_MIN_M
                and float(r["mse_deg2"]) > HIGH_SNR_MAX_MSE):
            errors.append(f"trials.csv: {r['method']} MSE {r['mse_deg2']} > "
                          f"{HIGH_SNR_MAX_MSE} at {r['snr_db']} dB, M={r['m_elements']}")
    aggregate = _read_csv(os.path.join(out_dir, "mse_sweep.csv"))
    if len(aggregate) != len(cells):
        errors.append(f"mse_sweep.csv: {len(aggregate)} rows for {len(cells)} cells")
    for a in aggregate:
        sel = cells.get((float(a["snr_db"]), a["method"], int(a["m_elements"])), [])
        if not sel:
            errors.append(f"mse_sweep.csv: row {a} has no trials")
            continue
        mse = sum(float(r["mse_deg2"]) for r in sel) / len(sel)
        frac = sum(int(r["flagged"]) for r in sel) / len(sel)
        # both files hold 10 significant digits
        if not math.isclose(mse, float(a["mse_deg2"]), rel_tol=1e-9, abs_tol=1e-9):
            errors.append(f"mse_sweep.csv: mse {a['mse_deg2']} != trial mean {mse}")
        if not math.isclose(frac, float(a["flagged_fraction"]), abs_tol=1e-9):
            errors.append(f"mse_sweep.csv: flagged {a['flagged_fraction']} != {frac}")
    return errors, trials


def target_snr(trials: Sequence[Dict[str, str]], method: str, m_elements: int,
               target: float) -> float:
    """Lowest SNR from which the mean trial MSE stays at or below target;
    +inf when the highest SNR misses it."""
    by_snr = defaultdict(list)
    for r in trials:
        if r["method"] == method and int(r["m_elements"]) == m_elements:
            by_snr[float(r["snr_db"])].append(float(r["mse_deg2"]))
    reach = math.inf
    for snr in sorted(by_snr, reverse=True):
        if sum(by_snr[snr]) / len(by_snr[snr]) > target:
            break
        reach = snr
    return reach


def check_sweep_run(trials: Sequence[Dict[str, str]], target: float) -> List[str]:
    errors = []
    high = defaultdict(list)
    for r in trials:
        if r["method"] in RIS_METHODS and float(r["snr_db"]) in HIGH_SNR_DB:
            high[(r["method"], int(r["m_elements"]), float(r["snr_db"]))].append(
                float(r["mse_deg2"]))
    for (method, m, snr), mses in sorted(high.items()):
        median = float(np.median(mses))
        if median > HIGH_SNR_MAX_MSE:
            errors.append(f"sweep: {method} median MSE {median:.3g} > "
                          f"{HIGH_SNR_MAX_MSE} at {snr} dB, M={m}")
    ris = target_snr(trials, "nlms_ris", SWEEP_M, target)
    no_ris = target_snr(trials, "nlms_no_ris", SWEEP_M, target)
    if not ris <= no_ris - SWEEP_MARGIN_DB:
        errors.append(f"sweep: at M={SWEEP_M} nlms_ris reaches {target} deg^2 at {ris} "
                      f"dB, no-RIS at {no_ris} dB; margin under {SWEEP_MARGIN_DB} dB")
    return errors


# ---------------------------------------------------------------- NLMS kernel

def nlms_power_transcribed(z: np.ndarray, grid: Sequence[float], v: np.ndarray,
                           spacing: float, aod_deg: float, mu: float, eps: float,
                           include_b: bool, textbook_norm: bool) -> np.ndarray:
    """||a_hat_L(theta)||^2 per grid angle, one angle and one snapshot at a time.

    Scan vector d(theta) = V diag(b) a(theta) with ULA responses
    a_m(theta) = exp(j 2 pi spacing m sin theta), b = a(aod); per snapshot z,
    p = d^H z and a_hat <- a_hat + mu / (||z|| + eps) * conj(p - a_hat^H z) * z
    (with ||z||^2 in the textbook normalization).
    """
    m = np.arange(v.shape[1])
    b = np.exp(2j * np.pi * spacing * m * math.sin(math.radians(aod_deg)))
    power = np.empty(len(grid))
    for g, theta in enumerate(grid):
        a = np.exp(2j * np.pi * spacing * m * math.sin(math.radians(theta)))
        d = v @ (a * b if include_b else a)
        a_hat = np.zeros(v.shape[0], dtype=complex)
        for ell in range(z.shape[1]):
            zl = z[:, ell]
            p = np.sum(np.conj(d) * zl)
            err = p - np.sum(np.conj(a_hat) * zl)
            nrm = math.sqrt(float(np.sum(np.abs(zl) ** 2)))
            denom = nrm * nrm + eps if textbook_norm else nrm + eps
            a_hat = a_hat + (mu / denom) * np.conj(err) * zl
        power[g] = float(np.sum(np.abs(a_hat) ** 2))
    return power


def check_nlms_kernel(args: Dict[str, object], result) -> List[str]:
    """Compare one captured ``localizer.spectrum`` call, given by its bound
    arguments, with the transcription."""
    data, cfg = args["data"], args["cfg"]
    ref = nlms_power_transcribed(data.z, cfg.grid, args["phases"].matrix,
                                 args["ris"].spacing, args["aod_ris_pr"], cfg.mu,
                                 cfg.epsilon, cfg.include_b, cfg.textbook_norm)
    got = np.asarray(result.power)
    err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    if not err <= KERNEL_RTOL:
        return [f"localizer.spectrum: relative error {err:.3e} against the "
                f"transcribed recursion exceeds {KERNEL_RTOL}"]
    return []
