"""Comparison methods and metrics: MUSIC with known target count, the no-RIS
baseline, and the per-trial squared error."""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

import numpy as np

from .localizer import LocalizerConfig, SpectrumResult, _peak_indices, _scan_result
from .pr_beamformer import BeamformedData
from .ris_optimizer import PhaseShiftMatrix
from .signal_model import ArraySpec, dictionary_power, steering_dictionary

MISS_ERROR_DEG = 90.0  # worst-case padding for missing detections


def music_estimate(data: BeamformedData, k_true: int, cfg: LocalizerConfig,
                   phases: PhaseShiftMatrix, ris: ArraySpec, aod_ris_pr: float,
                   noise: Optional[np.ndarray] = None, scales: Sequence[float] = ()):
    """Subspace estimates of the k_true RIS-side angles on cfg.grid.

    Signal subspace S from the k_true largest eigenvalues of the Gram matrix
    Z Z^H of the beamformed epochs, then the k_true largest local maxima over
    the grid of the signal-subspace fraction q = ||S^H d||^2 / ||d||^2 of the
    scan vectors d (those of spectrum, with the taper when cfg.include_b).
    These are the picks of the textbook pseudospectrum 1 / (1 - q), with the
    noise subspace of the loaded sample covariance c Z Z^H + e I, because for
    c > 0 that matrix has the eigenvectors of Z Z^H in the same order and
    1 / (1 - q) is increasing in q. If q has fewer interior maxima than
    k_true (degenerate inputs), the largest remaining grid values fill in.

    With noise (N_epoch x L), the acquisitions are data.z + s * noise, one per
    entry s of scales, and a list of estimates per scale is returned. Their
    Gram matrices A + s (B + B^H + s C), with A = Z Z^H, B = Z noise^H and
    C = noise noise^H, share those three products and the scan norms.
    Without noise, data alone is the single case s = 0 and one list of
    estimates is returned.
    """
    if not 1 <= k_true < data.n_epoch:
        raise ValueError(f"k_true must satisfy 1 <= k_true < n_epoch, got {k_true}")
    z = data.z
    if noise is None and len(scales):
        raise ValueError(f"scales ({len(scales)} entries) need a noise array, got noise=None")
    if noise is not None and np.shape(noise) != z.shape:
        raise ValueError(f"noise must have the shape {z.shape} of data.z, "
                         f"got {np.shape(noise)}")
    gram = z @ z.conj().T
    if noise is None:
        grams = [gram]
    else:
        cross = z @ noise.conj().T
        cross += cross.conj().T
        noise_gram = noise @ noise.conj().T
        grams = (gram + s * (cross + s * noise_gram) for s in scales)
    coeff = steering_dictionary(ris, cfg.grid, aod_ris_pr, cfg.include_b)
    norms = dictionary_power(phases.matrix, coeff)  # ||d||^2 for every scan vector d
    estimates = []
    for g in grams:
        _, vecs = np.linalg.eigh(g)  # ascending eigenvalues
        q = _signal_fraction(vecs[:, data.n_epoch - k_true:], phases.matrix, coeff, norms)
        order = sorted(_peak_indices(q), key=lambda i: -q[i])
        picked = order[:k_true]
        if len(picked) < k_true:
            rest = [i for i in np.argsort(-q) if i not in picked]
            picked.extend(rest[: k_true - len(picked)])
        estimates.append(sorted(float(cfg.grid[i]) for i in picked))
    return estimates[0] if noise is None else estimates


def _signal_fraction(signal_sub: np.ndarray, basis: np.ndarray, coeff: np.ndarray,
                     norms: np.ndarray) -> np.ndarray:
    """||S^H d||^2 / ||d||^2 for every scan vector d = B c, S the orthonormal
    signal subspace: dictionary_power(S^H B, C) over norms = dictionary_power(B, C),
    so no N x grid scan matrix is formed. As E E^H = I - S S^H for the noise
    subspace E, one minus it is the MUSIC denominator ||E^H d||^2 / ||d||^2.
    """
    return dictionary_power(signal_sub.conj().T @ basis, coeff) / norms


def no_ris_localize(y_epoch: np.ndarray, cfg: LocalizerConfig, pr: ArraySpec):
    """Algorithm variant without the RIS: NLMS on raw array snapshots.

    y_epoch is a single N_PR x L epoch containing only direct paths; the scan
    dictionary is the plain PR steering matrix D = [a(theta_1) ... a(theta_G)],
    so peaks land at the PR-side target angles. The recursion is the one of
    localizer.spectrum with the snapshots y_l in place of z_l, on the basis
    B = I: a_hat = A D with A = nlms_adapt(y_epoch, I), one matmul for the grid.
    A stack of epochs (S x N_PR x L) is scanned in one nlms_adapt call and
    gives a list of S results, each equal to the call on its epoch.
    """
    y_epoch = np.asarray(y_epoch, dtype=complex)
    if y_epoch.ndim not in (2, 3) or y_epoch.shape[-2] != pr.elements:
        raise ValueError(f"y_epoch must be {pr.elements} x L or a stack of such epochs, "
                         f"got shape {y_epoch.shape}")
    return _scan_result(y_epoch, np.eye(pr.elements), steering_dictionary(pr, cfg.grid), cfg)


def select_estimates(result: SpectrumResult, k: int) -> List[float]:
    """Up to k detected peaks, strongest first, returned in ascending angle.

    A peak's height is read at its nearest grid point (the lower one on a
    tie, as argmin(|grid - t|) picks), found for all peaks with one search of
    the grid midpoints; equal heights keep the order of result.peaks.
    """
    grid = np.asarray(result.grid, dtype=float)
    nearest = np.searchsorted((grid[:-1] + grid[1:]) / 2, result.peaks)
    ranked = np.argsort(-result.normalized[nearest], kind="stable")
    return sorted(result.peaks[i] for i in ranked[:k])


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
