"""Batch NLMS direction finding over an angular grid: per-angle adaptive
steering estimates, power spectrum, normalization and peak detection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pr_beamformer import BeamformedData
from .ris_optimizer import PhaseShiftMatrix
from .signal_model import (ArraySpec, check_angles, check_fields, dictionary_power,
                           steering_dictionary, steering_vector)


def default_grid() -> np.ndarray:
    # steering is undefined at +-90, so the grid stops half a step short
    return np.round(np.arange(-89.5, 89.5 + 0.25, 0.5), 6)


@dataclass
class LocalizerConfig:
    mu: float = 0.1
    grid: np.ndarray = field(default_factory=default_grid)
    threshold: float = 0.5
    epsilon: float = 1e-12
    include_b: bool = True
    # squared-norm step normalization (scale-invariant textbook form); the
    # default divides by ||z|| as the recursion is specified
    textbook_norm: bool = False

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        check_fields(self)
        # mu = 0 is allowed: the recursion then never updates, which is a
        # useful degenerate case for testing.
        if not self.mu >= 0:
            raise ValueError(f"step size mu must be finite and non-negative, got {self.mu}")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie in (0, 1)")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be finite and non-negative, got {self.epsilon}")
        if (self.grid.ndim != 1 or self.grid.size == 0
                or np.any(np.diff(self.grid) <= 0)):
            raise ValueError("grid must be a non-empty, strictly increasing 1-D sequence")
        check_angles("grid", self.grid)


@dataclass
class SpectrumResult:
    grid: np.ndarray
    power: np.ndarray
    normalized: np.ndarray
    peaks: list
    degenerate: bool = False

    @property
    def k_hat(self) -> int:
        return len(self.peaks)


def scan_vector(theta: float, phases: PhaseShiftMatrix, ris: ArraySpec,
                aod_ris_pr: float, include_b: bool = True) -> np.ndarray:
    """Epoch signature of a hypothetical source at theta: V a(theta), or
    V diag(b) a(theta) when the reflect-side taper is included."""
    a = steering_vector(ris, theta)
    if include_b:
        a = a * steering_vector(ris, aod_ris_pr)
    return phases.matrix @ a


def _step_denominator(z: np.ndarray, cfg: LocalizerConfig, axis=None):
    nrm = np.linalg.norm(z, axis=axis)
    if cfg.textbook_norm:
        return nrm * nrm + cfg.epsilon
    return nrm + cfg.epsilon


def nlms_adapt(z: np.ndarray, basis: np.ndarray, cfg: LocalizerConfig,
               products=None) -> np.ndarray:
    """X with a_hat_L(d) = X c for every scan vector d = B c (basis B, N x M).

    From a_hat = 0 the recursion of nlms_run is linear in d: with
    c_l = mu / _step_denominator(z_l), one snapshot maps a_hat to
    a_hat + c_l z_l z_l^H (d - a_hat). Run on the columns of B, that is
    X <- X + c_l z_l (z_l^H B - z_l^H X). Every update adds a multiple of z_l,
    so X = Z Y (the compact WY form of the product of rank-one steps), and as
    z_l^H X = sum_{j<l} (z_l^H z_j) y_j before step l, the rows of Y follow by
    forward substitution: y_l = c_l (z_l^H B - G[l, :l] Y[:l]) with the Gram
    matrix G = Z^H Z, i.e. (I + diag(c) tril(G, -1)) Y = diag(c) Z^H B.
    Nothing divides by mu, so mu = 0 gives X = 0 exactly.

    The substitution is blocked: with blocks J of b = isqrt(L) snapshots (the
    last may be shorter), Y_J = U_J (Z_J^H B - G[J, :j0] Y[:j0]), where
    U_J = T_JJ^-1 diag(c_J) for the diagonal block T_JJ of the triangular
    matrix. The U_J of all blocks come from one b-step substitution batched
    over the blocks (_block_inverses), so about 2 sqrt(L) sequential products
    replace L.

    z may also be a stack (S x N x L) of snapshot sets, adapted independently
    in one pass; slice s of the S x N x M result is bit for bit the call on
    z[s].

    products, if given, is (G, Z^H B) built by the caller from what it knows
    of z (the sweep's Z = g s^T + c E, see experiments._scan_products), in
    place of the two products formed here; the call overwrites Z^H B.
    """
    z = np.asarray(z, dtype=complex)
    if products is None:
        zh = z.conj().swapaxes(-1, -2)  # row l is z_l^H
        products = zh @ z, zh @ basis
    gram, y = products  # row l of y is z_l^H B, overwritten by y_l
    steps = cfg.mu / _step_denominator(z, cfg, axis=-2)
    n_samples = z.shape[-1]
    size = math.isqrt(n_samples) or 1
    inv = _block_inverses(gram, steps, size)
    for j0 in range(0, n_samples, size):
        j1 = min(j0 + size, n_samples)
        rows = y[..., j0:j1, :]
        if j0:
            rows -= gram[..., j0:j1, :j0] @ y[..., :j0, :]
        rows[...] = inv[..., j0 // size, :j1 - j0, :j1 - j0] @ rows
    return z @ y


def _block_inverses(gram: np.ndarray, steps: np.ndarray, size: int) -> np.ndarray:
    """U_J = (I + diag(c_J) tril(G_JJ, -1))^-1 diag(c_J) for every diagonal
    block J of size rows of the Gram matrix (... x L x L), with the step
    factors c (... x L): an array ... x blocks x size x size, from one b-step
    forward substitution for all blocks at once. A ragged last block of r
    rows is padded to size; rows i < r of the substitution read only rows and
    columns below r, so its leading r x r corner is its own U_J.
    """
    n_samples = gram.shape[-1]
    count = -(-n_samples // size)
    start = np.arange(count)[:, None, None] * size
    offset = np.arange(size)
    # one take from the flat Gram matrix gathers the blocks into a contiguous
    # array, which keeps every block product in BLAS, so a stack slice is bit
    # for bit the 2-D call; the padding reads clipped indices
    at = (start + offset[:, None]) * n_samples + start + offset
    blocks = np.take(gram.reshape(*gram.shape[:-2], -1), at, axis=-1, mode="clip")
    coef = np.zeros((*steps.shape[:-1], count * size))
    coef[..., :n_samples] = steps
    coef = coef.reshape(*steps.shape[:-1], count, size)
    inv = np.zeros(blocks.shape, dtype=complex)
    inv[..., offset, offset] = coef
    # row i of U_J is c_i (e_i - G_JJ[i, :i] U_J[:i]); U_J is lower triangular
    for i in range(1, size):
        inv[..., i:i + 1, :i] = (blocks[..., i:i + 1, :i] @ inv[..., :i, :i]) \
            * -coef[..., i, None, None]
    return inv


def _scan_result(z, basis, coeff, cfg: LocalizerConfig, products=None):
    """NLMS spectrum of snapshots z (N x L) against scan vectors D = B C.

    P(theta) = ||X c(theta)||^2 = dictionary_power(X, C) with X = nlms_adapt(z, B),
    normalized to its maximum, with peaks above cfg.threshold. An all-zero
    spectrum is reported as degenerate. A stack z (S x N x L) is scanned with
    one nlms_adapt call and gives a list of S results. products goes to
    nlms_adapt.
    """
    power = dictionary_power(nlms_adapt(z, basis, cfg, products), coeff)
    if power.ndim > 1:
        return [_spectrum_result(p, cfg) for p in power]
    return _spectrum_result(power, cfg)


def _spectrum_result(power: np.ndarray, cfg: LocalizerConfig) -> SpectrumResult:
    peak = power.max() if power.size else 0.0
    if peak <= 0.0:
        return SpectrumResult(cfg.grid, power, np.zeros_like(power), [],
                              degenerate=True)
    normalized = power / peak
    peaks = detect_peaks(normalized, cfg.grid, cfg.threshold)
    return SpectrumResult(cfg.grid, power, normalized, peaks)


def nlms_run(data: BeamformedData, theta: float, cfg: LocalizerConfig,
             phases: PhaseShiftMatrix, ris: ArraySpec, aod_ris_pr: float) -> np.ndarray:
    """Adapt a_hat from zero over the L snapshots for one scan angle.

    Per snapshot: p = d^H z, then
    a_hat <- a_hat + mu/(||z|| + eps) * conj(p - a_hat^H z) * z.
    Returns a_hat after the last snapshot.
    """
    d = scan_vector(theta, phases, ris, aod_ris_pr, cfg.include_b)
    a_hat = np.zeros(data.n_epoch, dtype=complex)
    for ell in range(data.n_samples):
        z = data.z[:, ell]
        p = np.vdot(d, z)
        err = p - np.vdot(a_hat, z)
        a_hat = a_hat + (cfg.mu / _step_denominator(z, cfg)) * np.conj(err) * z
    return a_hat


def spectrum(data: BeamformedData, cfg: LocalizerConfig, phases: PhaseShiftMatrix,
             ris: ArraySpec, aod_ris_pr: float, products=None) -> SpectrumResult:
    """P(theta) = ||a_hat_L(theta)||^2 over the grid, normalized, with peaks.

    Starting from a_hat = 0, the NLMS estimate after L snapshots is linear in
    the scan vector, and every scan vector d(theta) = V diag(b) a(theta) is
    B c(theta) with the basis B = V (N_epoch x M) and c(theta) a column of
    C = steering_dictionary. So the whole grid is X C with X = nlms_adapt(z, B),
    which equals running nlms_run once per angle. products, (Z^H Z, Z^H B)
    built by the caller, goes to nlms_adapt; data.z is still the snapshots.
    """
    coeff = steering_dictionary(ris, cfg.grid, aod_ris_pr, cfg.include_b)
    return _scan_result(data.z, phases.matrix, coeff, cfg, products)


def _peak_indices(values: np.ndarray, phi: float = -np.inf) -> list:
    """Indices of strict local maxima above phi; endpoints excluded; on a
    plateau the leftmost sample wins. A run of equal samples (NaN is a run of
    its own) that rises from the run before and falls to the run after is a
    peak at its first index."""
    v = np.asarray(values)
    if v.size < 3:
        return []
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    runs = v[starts]
    keep = (runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:]) & (runs[1:-1] > phi)
    return starts[1:-1][keep].tolist()


def detect_peaks(normalized: np.ndarray, grid: np.ndarray, phi: float) -> list:
    """Grid angles of the strict local maxima of normalized above phi (see
    _peak_indices)."""
    return [float(grid[i]) for i in _peak_indices(normalized, phi)]
