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
    entry s of scales, and a list of estimates per scale is returned (see
    _signal_subspaces). Without noise, data alone is the single case s = 0
    and one list of estimates is returned.
    """
    if not 1 <= k_true < data.n_epoch:
        raise ValueError(f"k_true must satisfy 1 <= k_true < n_epoch, got {k_true}")
    z = data.z
    if noise is None and len(scales):
        raise ValueError(f"scales ({len(scales)} entries) need a noise array, got noise=None")
    if noise is not None and not len(scales):
        raise ValueError("scales must have at least one entry when noise is given, got none")
    if noise is not None and np.shape(noise) != z.shape:
        raise ValueError(f"noise must have the shape {z.shape} of data.z, "
                         f"got {np.shape(noise)}")
    coeff = steering_dictionary(ris, cfg.grid, aod_ris_pr, cfg.include_b)
    norms = dictionary_power(phases.matrix, coeff)  # ||d||^2 for every scan vector d
    estimates = []
    for sub in _signal_subspaces(z, k_true, noise, scales):
        q = _signal_fraction(sub, phases.matrix, coeff, norms)
        order = sorted(_peak_indices(q), key=lambda i: -q[i])
        picked = order[:k_true]
        if len(picked) < k_true:
            rest = [i for i in np.argsort(-q) if i not in picked]
            picked.extend(rest[: k_true - len(picked)])
        estimates.append(sorted(float(cfg.grid[i]) for i in picked))
    return estimates[0] if noise is None else estimates


def _signal_subspaces(z: np.ndarray, k: int, noise: Optional[np.ndarray] = None,
                      scales: Sequence[float] = ()) -> List[np.ndarray]:
    """Orthonormal N x k bases of the k leading eigenvectors of the Gram matrix
    of z, or of z + s * noise for each s in scales.

    Those Gram matrices are A + s (B + B^H + s C), with A = z z^H, B = z noise^H
    and C = noise noise^H, and each is given to eigh. When z = g t^T is rank
    one (every path carries one waveform), the matrix is also s^2 C + U D U^H,
    with U = [g, noise conj(t)] and D = [[||t||^2, s], [s, 0]]. Then one eigh
    C = Q diag(lam) Q^H serves every s: with W = Q^H U, an eigenvalue mu of
    s^2 diag(lam) + W D W^H (from eigvalsh) has the eigenvector
    Q (mu - s^2 lam)^-1 W t, t the null vector of I - D W^H (mu - s^2 lam)^-1 W
    (Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978). A scale of 0, and a
    mu within rounding of a pole s^2 lam_i, keep eigh.
    """
    n = z.shape[0]
    a = z @ z.conj().T
    if noise is None:
        return [np.linalg.eigh(a)[1][:, n - k:]]  # ascending eigenvalues
    b = z @ noise.conj().T
    b += b.conj().T
    c = noise @ noise.conj().T
    factor = _rank_one_factor(z)
    if factor is not None:
        g, t = factor
        lam, q = np.linalg.eigh(c)
        w = q.conj().T @ np.stack([g, noise @ t.conj()], axis=1)
    subs = []
    for s in scales:
        y = None if factor is None or s == 0 else _rank_two_subspace(
            s * s * lam, w, np.array([[np.vdot(t, t).real, s], [s, 0.0]]), k)
        subs.append(np.linalg.eigh(a + s * (b + s * c))[1][:, n - k:] if y is None else q @ y)
    return subs


def _rank_one_factor(z: np.ndarray):
    """(g, t) with z = g t^T to rounding, g the largest-norm column of z and
    t = z^T conj(g) / ||g||^2; None if z is not rank one."""
    g = z[:, np.argmax(np.linalg.norm(z, axis=0))]
    g2 = np.vdot(g, g).real
    if g2 == 0.0:
        return None
    t = z.T @ g.conj() / g2
    return (g, t) if np.linalg.norm(z - np.outer(g, t)) <= 1e-12 * np.linalg.norm(z) else None


def _rank_two_subspace(poles: np.ndarray, w: np.ndarray, d: np.ndarray, k: int):
    """Orthonormal k leading eigenvectors of diag(poles) + W D W^H (W N x 2,
    D 2 x 2 Hermitian), or None if one of their eigenvalues is within
    rounding of a pole."""
    inner = (w @ d) @ w.conj().T
    inner[np.diag_indices_from(inner)] += poles
    mu = np.linalg.eigvalsh(inner)[-k:]
    gaps = mu[:, None] - poles
    if np.min(np.abs(gaps)) <= poles.size * np.finfo(float).eps * abs(mu[-1]):
        return None
    r = 1.0 / gaps  # k x N
    m = np.eye(2) - d @ ((w.conj().T * r[:, None, :]) @ w)  # k x 2 x 2
    # the larger row (a, b) of each m annihilates its null vector (b, -a)
    row = m[np.arange(k), np.argmax(np.linalg.norm(m, axis=2), axis=1)]
    return np.linalg.qr((w @ np.stack([row[:, 1], -row[:, 0]])) * r.T)[0]


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
