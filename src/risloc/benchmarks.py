"""Comparison methods and metrics: MUSIC with known target count, the no-RIS
baseline, and the per-trial squared error."""

from __future__ import annotations

import itertools
from typing import List, Sequence

import numpy as np

from .localizer import LocalizerConfig, SpectrumResult, _peak_indices, _scan_result
from .pr_beamformer import BeamformedData
from .ris_optimizer import PhaseShiftMatrix
from .signal_model import ArraySpec, steering_dictionary

MISS_ERROR_DEG = 90.0  # worst-case padding for missing detections


def music_estimate(data: BeamformedData, k_true: int, cfg: LocalizerConfig,
                   phases: PhaseShiftMatrix, ris: ArraySpec,
                   aod_ris_pr: float) -> List[float]:
    """Subspace estimates of the k_true RIS-side angles on cfg.grid.

    Sample covariance of the beamformed epochs, noise subspace from the
    smallest eigenvalues, pseudospectrum against unit-norm scan vectors (the
    scan vectors of spectrum, with the taper when cfg.include_b), k_true
    largest local maxima. If the pseudospectrum has fewer interior maxima than
    k_true (degenerate inputs), the largest remaining grid values fill in.
    """
    if not 1 <= k_true < data.n_epoch:
        raise ValueError(f"k_true must satisfy 1 <= k_true < n_epoch, got {k_true}")
    z = data.z
    r = z @ z.conj().T / data.n_samples
    r = r + 1e-10 * np.trace(r).real / data.n_epoch * np.eye(data.n_epoch)
    _, vecs = np.linalg.eigh(r)  # ascending eigenvalues
    noise_sub = vecs[:, : data.n_epoch - k_true]
    coeff = steering_dictionary(ris, cfg.grid, aod_ris_pr, cfg.include_b)
    pseudo = 1.0 / np.maximum(_music_denominator(noise_sub, phases.matrix, coeff), 1e-300)
    order = sorted(_peak_indices(pseudo), key=lambda i: -pseudo[i])
    picked = order[:k_true]
    if len(picked) < k_true:
        rest = [i for i in np.argsort(-pseudo) if i not in picked]
        picked.extend(rest[: k_true - len(picked)])
    return sorted(float(cfg.grid[i]) for i in picked)


def _music_denominator(noise_sub: np.ndarray, basis: np.ndarray,
                       coeff: np.ndarray) -> np.ndarray:
    """||E^H d||^2 / ||d||^2 for every scan vector d = B c, as ||(E^H B) c||^2
    over Re(c^H (B^H B) c), so no N x grid scan matrix is formed."""
    proj = (noise_sub.conj().T @ basis) @ coeff
    norm2 = np.sum(coeff.conj() * ((basis.conj().T @ basis) @ coeff), axis=0).real
    return np.sum(np.abs(proj) ** 2, axis=0) / norm2


def no_ris_localize(y_epoch: np.ndarray, cfg: LocalizerConfig,
                    pr: ArraySpec) -> SpectrumResult:
    """Algorithm variant without the RIS: NLMS on raw array snapshots.

    y_epoch is a single N_PR x L epoch containing only direct paths; the scan
    dictionary is the plain PR steering matrix D = [a(theta_1) ... a(theta_G)],
    so peaks land at the PR-side target angles. The recursion is the one of
    localizer.spectrum with the snapshots y_l in place of z_l, on the basis
    B = I: a_hat = A D with A = nlms_adapt(y_epoch, I), one matmul for the grid.
    """
    y_epoch = np.asarray(y_epoch, dtype=complex)
    if y_epoch.ndim != 2 or y_epoch.shape[0] != pr.elements:
        raise ValueError(f"y_epoch must be {pr.elements} x L, got shape {y_epoch.shape}")
    return _scan_result(y_epoch, np.eye(pr.elements), steering_dictionary(pr, cfg.grid), cfg)


def select_estimates(result: SpectrumResult, k: int) -> List[float]:
    """Up to k detected peaks, strongest first, returned in ascending angle."""
    ranked = sorted(result.peaks, key=lambda t: -result.normalized[
        int(np.argmin(np.abs(result.grid - t)))])
    return sorted(ranked[:k])


def trial_error(true_aoas: Sequence[float], estimates: Sequence[float]):
    """Single-trial squared-error terms under the minimum-cost assignment.

    In 1-D, pairing sorted estimates with the sorted truths they cover is
    optimal, so a short trial takes the cheapest choice of covered truths.
    Missing estimates are charged the worst grid error and the trial is
    flagged; surplus estimates must be trimmed by the caller.
    """
    truths = np.sort(np.asarray(true_aoas, dtype=float))
    est = np.sort(np.asarray(estimates, dtype=float))
    k = truths.size
    if est.size > k:
        raise ValueError("more estimates than targets; trim before scoring")
    flagged = est.size < k
    if not k:
        return 0.0, flagged
    best = np.inf
    for covered in itertools.combinations(range(k), est.size):
        errs = np.full(k, MISS_ERROR_DEG)
        errs[list(covered)] = np.abs(truths[list(covered)] - est)
        best = min(best, float(np.mean(errs ** 2)))
    return best, flagged
