"""Batch NLMS direction finding over an angular grid: per-angle adaptive
steering estimates, power spectrum, normalization and peak detection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pr_beamformer import BeamformedData
from .ris_optimizer import PhaseShiftMatrix
from .signal_model import ArraySpec, steering_matrix, steering_vector


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
        # mu = 0 is allowed: the recursion then never updates, which is a
        # useful degenerate case for testing.
        if self.mu < 0:
            raise ValueError("step size mu must be non-negative")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie in (0, 1)")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.size == 0 or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be non-empty and strictly increasing")
        bad = self.grid[~(np.abs(self.grid) < 90.0)]
        if bad.size:
            raise ValueError("grid angles must satisfy |theta| < 90 deg (steering is "
                             f"undefined at +-90), got {bad.tolist()}")


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

    def to_csv(self, path) -> None:
        is_peak = np.isin(self.grid, self.peaks).astype(int)
        with open(path, "w") as fh:
            fh.write("theta_deg,power,normalized,is_peak\n")
            for t, p, n, ip in zip(self.grid, self.power, self.normalized, is_peak):
                fh.write(f"{t:.6g},{p:.12g},{n:.12g},{ip}\n")


def scan_vector(theta: float, phases: PhaseShiftMatrix, ris: ArraySpec,
                aod_ris_pr: float, include_b: bool = True) -> np.ndarray:
    """Epoch signature of a hypothetical source at theta: V a(theta), or
    V diag(b) a(theta) when the reflect-side taper is included."""
    a = steering_vector(ris, theta)
    if include_b:
        a = a * steering_vector(ris, aod_ris_pr)
    return phases.matrix @ a


def _scan_matrix(cfg: LocalizerConfig, phases, ris, aod_ris_pr) -> np.ndarray:
    a = steering_matrix(ris, cfg.grid)
    if cfg.include_b:
        a = a * steering_vector(ris, aod_ris_pr)[:, None]
    return phases.matrix @ a  # N_epoch x n_grid


def _step_denominator(z: np.ndarray, cfg: LocalizerConfig) -> float:
    nrm = np.linalg.norm(z)
    if cfg.textbook_norm:
        return nrm * nrm + cfg.epsilon
    return nrm + cfg.epsilon


def nlms_transfer(z: np.ndarray, cfg: LocalizerConfig) -> np.ndarray:
    """N x N matrix A with a_hat_L(d) = A d for every scan vector d.

    From a_hat = 0 the recursion of nlms_run is linear in d: with
    c_l = mu / _step_denominator(z_l), one snapshot maps a_hat to
    a_hat + c_l z_l z_l^H (d - a_hat). Running it once on the identity gives
    A <- A + c_l z_l (z_l^H - z_l^H A), so scanning any number of angles
    costs one matmul A @ D after L rank-1 updates of an N x N matrix.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[0]
    a = np.zeros((n, n), dtype=complex)
    row = np.empty(n, dtype=complex)
    upd = np.empty((n, n), dtype=complex)
    zh = z.conj().T  # row l is z_l^H
    for ell in range(z.shape[1]):
        np.matmul(zh[ell], a, out=row)
        np.subtract(zh[ell], row, out=row)
        row *= cfg.mu / _step_denominator(z[:, ell], cfg)
        np.multiply(z[:, ell, None], row, out=upd)
        a += upd
    return a


def _scan_result(z: np.ndarray, d: np.ndarray, cfg: LocalizerConfig) -> SpectrumResult:
    """NLMS spectrum of snapshots z (N x L) against scan vectors d (N x grid).

    P(theta) = ||a_hat_L(theta)||^2 with a_hat = A D (see nlms_transfer),
    normalized to its maximum, with peaks above cfg.threshold. An all-zero
    spectrum is reported as degenerate.
    """
    power = np.sum(np.abs(nlms_transfer(z, cfg) @ d) ** 2, axis=0)
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
             ris: ArraySpec, aod_ris_pr: float) -> SpectrumResult:
    """P(theta) = ||a_hat_L(theta)||^2 over the grid, normalized, with peaks.

    Starting from a_hat = 0, the NLMS estimate after L snapshots is linear in
    the scan vector: a_hat_L(theta) = A d(theta), with the N_epoch x N_epoch
    transfer matrix A of nlms_transfer. So the whole grid is a_hat = A D for
    the scan matrix D = V diag(b) [a(theta_1) ... a(theta_G)], which equals
    running nlms_run once per angle.
    """
    return _scan_result(data.z, _scan_matrix(cfg, phases, ris, aod_ris_pr), cfg)


def _peak_indices(values: np.ndarray, phi: float = -np.inf) -> list:
    """Indices of strict local maxima above phi; endpoints excluded; on a
    plateau the leftmost sample wins."""
    values = np.asarray(values)
    n = values.size
    out = []
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if (j + 1 < n and values[i] > phi
                and values[i] > values[i - 1]
                and values[i] > values[j + 1]):
            out.append(i)
        i = j + 1
    return out


def detect_peaks(normalized: np.ndarray, grid: np.ndarray, phi: float) -> list:
    """Grid angles of the strict local maxima of normalized above phi (see
    _peak_indices)."""
    return [float(grid[i]) for i in _peak_indices(normalized, phi)]
