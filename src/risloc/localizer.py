"""Batch NLMS direction finding over an angular grid: per-angle adaptive
steering estimates, power spectrum, normalization and peak detection."""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=8)
def _coefficients(elements, spacing, grid: bytes, aod, include_b) -> np.ndarray:
    spec = ArraySpec(elements, spacing)
    c = steering_matrix(spec, np.frombuffer(grid))
    if include_b:
        c = c * steering_matrix(spec, [aod])
    c.flags.writeable = False
    return c


def _scan_coefficients(spec: ArraySpec, grid, aod=0.0, include_b=False) -> np.ndarray:
    """A(grid), times the taper column a(aod) when include_b: read-only, and
    cached on values, so every trial and SNR point with the same M shares it."""
    return _coefficients(spec.elements, spec.spacing, np.asarray(grid, dtype=float).tobytes(),
                         aod if include_b else 0.0, include_b)


def _scan_factors(phases: PhaseShiftMatrix, ris: ArraySpec, aod_ris_pr, grid, include_b):
    """Basis B = V (N_epoch x M) and coefficients C of the scan matrix
    D = V diag(b) A(grid) = B C."""
    return phases.matrix, _scan_coefficients(ris, grid, aod_ris_pr, include_b)


def _step_denominator(z: np.ndarray, cfg: LocalizerConfig, axis=None):
    nrm = np.linalg.norm(z, axis=axis)
    if cfg.textbook_norm:
        return nrm * nrm + cfg.epsilon
    return nrm + cfg.epsilon


def nlms_adapt(z: np.ndarray, basis: np.ndarray, cfg: LocalizerConfig) -> np.ndarray:
    """X with a_hat_L(d) = X c for every scan vector d = B c (basis B, N x M).

    From a_hat = 0 the recursion of nlms_run is linear in d: with
    c_l = mu / _step_denominator(z_l), one snapshot maps a_hat to
    a_hat + c_l z_l z_l^H (d - a_hat). Run on the columns of B, that is
    X <- X + c_l z_l (z_l^H B - z_l^H X). Every update adds a multiple of z_l,
    so X = Z Y (the compact WY form of the product of rank-one steps), and as
    z_l^H X = sum_{j<l} (z_l^H z_j) y_j before step l, the rows of Y follow by
    forward substitution: y_l = c_l (z_l^H B - G[l, :l] Y[:l]) with the Gram
    matrix G = Z^H Z, l x M work per snapshot. Nothing divides by mu, so
    mu = 0 gives X = 0 exactly.
    """
    z = np.asarray(z, dtype=complex)
    zh = z.conj().T  # row l is z_l^H
    gram = zh @ z
    y = zh @ basis  # row l is z_l^H B, overwritten by y_l
    steps = cfg.mu / _step_denominator(z, cfg, axis=0)
    for ell in range(z.shape[1]):
        y[ell] -= gram[ell, :ell] @ y[:ell]
        y[ell] *= steps[ell]
    return z @ y


def _scan_result(z, basis, coeff, cfg: LocalizerConfig) -> SpectrumResult:
    """NLMS spectrum of snapshots z (N x L) against scan vectors D = B C.

    P(theta) = ||a_hat_L(theta)||^2 = ||X c(theta)||^2 with X = nlms_adapt(z, B),
    normalized to its maximum, with peaks above cfg.threshold. An all-zero
    spectrum is reported as degenerate.
    """
    power = np.sum(np.abs(nlms_adapt(z, basis, cfg) @ coeff) ** 2, axis=0)
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
    the scan vector, and every scan vector d(theta) = V diag(b) a(theta) is
    B c(theta) for the factors of _scan_factors. So the whole grid is
    X C with X = nlms_adapt(z, B), which equals running nlms_run once per angle.
    """
    basis, coeff = _scan_factors(phases, ris, aod_ris_pr, cfg.grid, cfg.include_b)
    return _scan_result(data.z, basis, coeff, cfg)


def _peak_indices(values: np.ndarray, phi: float = -np.inf) -> list:
    """Indices of strict local maxima above phi; endpoints excluded; on a
    plateau the leftmost sample wins. A run of equal samples (NaN is a run of
    its own) that rises from the run before and falls to the run after is a
    peak at its first index."""
    v = np.asarray(values)
    if v.size < 3:
        return []
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    runs = v[starts]
    keep = (runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:]) & (runs[1:-1] > phi)
    return starts[1:-1][keep].tolist()


def detect_peaks(normalized: np.ndarray, grid: np.ndarray, phi: float) -> list:
    """Grid angles of the strict local maxima of normalized above phi (see
    _peak_indices)."""
    return [float(grid[i]) for i in _peak_indices(normalized, phi)]
