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
    for q in _signal_fraction(_signal_subspaces(z, k_true, noise, scales),
                              phases.matrix, coeff, norms):
        order = sorted(_peak_indices(q), key=lambda i: -q[i])
        picked = order[:k_true]
        if len(picked) < k_true:
            rest = [i for i in np.argsort(-q) if i not in picked]
            picked.extend(rest[: k_true - len(picked)])
        estimates.append(sorted(float(cfg.grid[i]) for i in picked))
    return estimates[0] if noise is None else estimates


def _signal_subspaces(z: np.ndarray, k: int, noise: Optional[np.ndarray] = None,
                      scales: Sequence[float] = ()) -> np.ndarray:
    """Orthonormal N x k bases of the k leading eigenvectors of the Gram matrix
    of z, or of z + s * noise for each s in scales, stacked S x N x k (S = 1
    without noise).

    Those Gram matrices are A + s (B + B^H + s C), with A = z z^H, B = z noise^H
    and C = noise noise^H, and each is given to eigh. Noise with no nonzero
    entry leaves every acquisition z, so each scale gets the one eigh of A.
    When z = g t^T is rank one (every path carries one waveform), the matrix
    is also s^2 C + U D U^H, with U = [g, noise conj(t)] and
    D = [[||t||^2, s], [s, 0]]. Then one eigh C = Q diag(lam) Q^H serves every
    s: with W = Q^H U, the k largest eigenvalues mu of s^2 diag(lam) + W D W^H
    (from _top_eigenvalues, for all nonzero s at once) have the eigenvectors
    Q (mu - s^2 lam)^-1 W t, t the null vector of I - D W^H (mu - s^2 lam)^-1 W
    (Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978), found for all those s
    in one batch by _rank_two_subspaces. A scale of 0, and a scale with a mu
    within rounding of a pole s^2 lam_i, keep eigh; A and B are formed only
    for them.
    """
    n = z.shape[0]
    if noise is None or not np.any(noise):
        sub = np.linalg.eigh(z @ z.conj().T)[1][:, n - k:]  # ascending eigenvalues
        return np.repeat(sub[None], max(len(scales), 1), axis=0)
    scales = np.asarray(scales, dtype=float)
    subs = np.empty((scales.size, n, k), dtype=complex)
    c = noise @ noise.conj().T
    done = np.zeros(scales.size, dtype=bool)
    factor = _rank_one_factor(z)
    if factor is not None:
        g, t = factor
        lam, q = np.linalg.eigh(c)
        w = q.conj().T @ np.stack([g, noise @ t.conj()], axis=1)
        tt = np.vdot(t, t).real
        done = scales != 0
        mu = _top_eigenvalues(lam, w, tt, scales[done], k)
        y, kept = _rank_two_subspaces(lam, w, tt, scales[done], mu)
        done[done] = kept
        subs[done] = q @ y
    if not done.all():
        b = z @ noise.conj().T
        b += b.conj().T
        a = z @ z.conj().T
        for i in np.flatnonzero(~done):
            subs[i] = np.linalg.eigh(a + scales[i] * (b + scales[i] * c))[1][:, n - k:]
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


def _top_eigenvalues(lam: np.ndarray, w: np.ndarray, tt: float, scales: np.ndarray,
                     k: int) -> np.ndarray:
    """The k largest eigenvalues, ascending, of s^2 diag(lam) + W D W^H with
    D = [[tt, s], [s, 0]], for every nonzero s in scales (S x k; lam ascending,
    W N x 2).

    By bisection on the count of eigenvalues above x, finished by Newton
    steps (below). With R = (s^2 diag(lam) - x)^-1, the inertia of
    [[s^2 diag(lam) - x, W], [W^H, -D^-1]] read through either Schur
    complement (Haynsworth), and the one positive and one negative
    eigenvalue of D, give
    #{eig > x} = #{s^2 lam_i > x} + #pos(-D^-1 - W^H R W) - 1. Through
    diag(1, s) the 2 x 2 matrix is congruent to [[-a, -1 - s b],
    [-1 - s conj(b), tt - s^2 c]], with a, b, c the sums over i of r_i times
    |w_i0|^2, conj(w_i0) w_i1 and |w_i1|^2. Its determinant is
    s^2 (a c - |b|^2) - tt a - 2 s Re b - 1, and a c - |b|^2 is taken as
    sum_{i<j} r_i r_j |w_i0 w_j1 - w_j0 w_i1|^2 (Lagrange's identity), in
    which the r_i^2 terms that cancel in a c - |b|^2 are absent (next to a
    pole, that cancellation cost up to 3,553 eps ||G|| in the eigenvalues of
    random draws). So each count is one (S k x N) @ (N x N + 2) product, and
    the signs of the same r_i count the poles above x.

    The rank-j row starts from the bracket of interlacing: W D W^H has one
    positive and one negative eigenvalue, so mu_j lies between the poles
    p_(j+1) and p_(j-1) (the j-th largest pole is p_(j)), and below
    p_(1) + rho for j = 1, with rho = tt ||w_0||^2 + 2 |s| ||w_0|| ||w_1||
    >= ||W D W^H|| (Weyl). Its ends, one ulp outward, are checked with the
    count; a row that fails keeps the Weyl bracket [p_min - rho, p_max + rho].
    Each step counts at x and moves lo or hi to x. Once no pole lies between
    lo and hi, x is the Newton point of the determinant, whose derivative
    follows from dr_i/dx = r_i^2 at the cost of one (S k x N) @ (N x 2)
    product; a Newton step of a few ulps is replaced by 8 ulps into the
    bracket, so that it closes from both sides, and a Newton point outside
    the bracket by its midpoint. A row stops when its midpoint stops moving.
    """
    n = lam.size
    w0, w1 = w.T
    cross = np.abs(np.outer(w0, w1) - np.outer(w1, w0)) ** 2  # zero diagonal
    kernel = np.column_stack([0.5 * cross, np.abs(w0) ** 2, (w0.conj() * w1).real])
    n0, n1 = np.linalg.norm(w, axis=0)
    s = np.repeat(scales, k)  # one row per (scale, rank)
    rank = np.tile(np.arange(k, 0, -1), scales.size)  # the rank-th largest
    poles = (s * s)[:, None] * lam
    rho = tt * n0 * n0 + 2 * np.abs(s) * n0 * n1
    # the poles, ascending, then p_(1) + rho: the rank-j bracket's ends are
    # its columns n - 1 - j and n + 1 - j
    ends = np.column_stack([poles, poles[:, -1] + rho])
    rows = np.arange(s.size)

    def count(x):
        """(#eig > x, #poles > x, det, det') per row."""
        r = 1.0 / (poles - x[:, None])
        prod = r @ kernel
        a, b_re = prod[:, n], prod[:, n + 1]
        pair = prod[:, :n] * r
        det = s * s * np.sum(pair, axis=1) - tt * a - 2 * s * b_re - 1
        positive = np.where(det < 0, 1, np.where(a < 0, 2, 0))
        n_poles = np.count_nonzero(r > 0, axis=1)
        r2 = r * r
        da, db_re = (r2 @ kernel[:, n:]).T
        ddet = 2 * s * s * np.sum(pair * r, axis=1) - tt * da - 2 * s * db_re
        return n_poles + positive - 1, n_poles, det, ddet

    with np.errstate(all="ignore"):  # x on or within a few ulps of a pole
        lo = np.nextafter(ends[rows, n - 1 - rank], -np.inf)
        hi = np.nextafter(ends[rows, n + 1 - rank], np.inf)
        eig_lo, poles_lo, det_lo, _ = count(lo)
        eig_hi, poles_hi, det_hi, _ = count(hi)
        fine = np.isfinite(det_lo) & np.isfinite(det_hi) & (eig_lo >= rank) & (eig_hi < rank)
        lo = np.where(fine, lo, poles[:, 0] - rho)
        hi = np.where(fine, hi, ends[:, -1])
        poles_lo = np.where(fine, poles_lo, n)
        poles_hi = np.where(fine, poles_hi, 0)
        mid = x = 0.5 * (lo + hi)
        active = (lo < mid) & (mid < hi)
        while active.any():
            eig, n_poles, det, ddet = count(x)
            above = eig >= rank
            up, down = active & above, active & ~above
            lo, poles_lo = np.where(up, x, lo), np.where(up, n_poles, poles_lo)
            hi, poles_hi = np.where(down, x, hi), np.where(down, n_poles, poles_hi)
            mid = 0.5 * (lo + hi)
            active = (lo < mid) & (mid < hi)
            step = det / ddet
            ulp = np.spacing(np.abs(x))
            newton = np.where(np.abs(step) <= 4 * ulp, x + np.where(above, 8, -8) * ulp,
                              x - step)
            x = np.where((poles_lo == poles_hi) & (lo < newton) & (newton < hi), newton, mid)
    return mid.reshape(scales.size, k)


def _rank_two_subspaces(lam: np.ndarray, w: np.ndarray, tt: float, scales: np.ndarray,
                        mu: np.ndarray):
    """Orthonormal eigenvectors of s^2 diag(lam) + W D W^H, D = [[tt, s], [s, 0]]
    (W N x 2), for its k largest eigenvalues mu (S x k, ascending), for every
    scale s in scales at once: (S' x N x k, kept), with kept (S) true for the
    S' scales whose eigenvalues all lie clear of the poles s^2 lam_i."""
    poles = (scales * scales)[:, None] * lam
    gaps = mu[:, :, None] - poles[:, None, :]  # S x k x N
    kept = (np.min(np.abs(gaps), axis=(1, 2))
            > lam.size * np.finfo(float).eps * np.abs(mu[:, -1]))
    r = 1.0 / gaps[kept]
    d = np.zeros((r.shape[0], 1, 2, 2))
    d[..., 0, 0] = tt
    d[..., 0, 1] = d[..., 1, 0] = scales[kept, None]
    m = np.eye(2) - d @ ((w.conj().T * r[..., None, :]) @ w)  # S' x k x 2 x 2
    # the larger row (a, b) of each m annihilates its null vector (b, -a)
    larger = np.argmax(np.linalg.norm(m, axis=-1), axis=-1)
    row = np.take_along_axis(m, larger[..., None, None], axis=-2)[..., 0, :]
    null = np.stack([row[..., 1], -row[..., 0]], axis=-2)  # S' x 2 x k
    return np.linalg.qr((w @ null) * r.swapaxes(-1, -2))[0], kept


def _signal_fraction(signal_sub: np.ndarray, basis: np.ndarray, coeff: np.ndarray,
                     norms: np.ndarray) -> np.ndarray:
    """||S^H d||^2 / ||d||^2 for every scan vector d = B c, S the orthonormal
    signal subspace (N x k, or a stack of them): dictionary_power(S^H B, C)
    over norms = dictionary_power(B, C), so no N x grid scan matrix is formed.
    As E E^H = I - S S^H for the noise subspace E, one minus it is the MUSIC
    denominator ||E^H d||^2 / ||d||^2.
    """
    return dictionary_power(signal_sub.conj().swapaxes(-1, -2) @ basis, coeff) / norms


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
    if len(result.peaks) <= k:
        return sorted(result.peaks)
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
    if not flagged:  # the one pairing
        return float(np.mean(np.abs(truths - est) ** 2)), flagged
    best = np.inf
    for covered in itertools.combinations(range(k), est.size):
        errs = np.full(k, MISS_ERROR_DEG)
        errs[list(covered)] = np.abs(truths[list(covered)] - est)
        best = min(best, float(np.mean(errs ** 2)))
    return best, flagged
