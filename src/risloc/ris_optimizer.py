"""RIS phase-shift selection: suppress the static AP-RIS-PR ray while keeping
the surface quasi-transparent elsewhere, plus the resulting beampattern."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import (ArraySpec, SceneConfig, complex_normal, dictionary_power,
                           steering_dictionary, steering_vector)


@dataclass
class PhaseShiftMatrix:
    """Unit-modulus RIS configuration, one row per epoch (N_epoch x M)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2:
            raise ValueError("phase-shift matrix must be 2-D")
        if self.matrix.size == 0:
            raise ValueError("phase-shift matrix must have at least one epoch and one "
                             f"element, got shape {self.matrix.shape}")
        dev = np.max(np.abs(np.abs(self.matrix) - 1.0))
        if not dev <= 1e-12:  # NaN compares False, so it fails here too
            raise ValueError(f"entries must be unit modulus, max deviation {dev:.3e}")

    @property
    def n_epoch(self) -> int:
        return self.matrix.shape[0]

    @property
    def m_elements(self) -> int:
        return self.matrix.shape[1]


def suppression_target(scene: SceneConfig, ris: ArraySpec) -> np.ndarray:
    """The epoch-invariant leakage signature: diag(b) * a(aoa_ap_ris)."""
    b = steering_vector(ris, scene.aod_ris_pr)
    return b * steering_vector(ris, scene.aoa_ap_ris)


def _norm2(a_tilde: np.ndarray) -> float:
    nrm2 = np.vdot(a_tilde, a_tilde).real
    if nrm2 <= 0:
        raise ValueError("suppression target must have nonzero norm")
    return nrm2


def orthogonal_projector(a_tilde: np.ndarray) -> np.ndarray:
    """P = I - a a^H / ||a||^2; Hermitian, idempotent, annihilates a_tilde.

    The dense form, kept as the reference: solve_phase_shifts applies P to
    each row in its rank-one form."""
    a_tilde = np.asarray(a_tilde, dtype=complex)
    return np.eye(a_tilde.size) - np.outer(a_tilde, a_tilde.conj()) / _norm2(a_tilde)


def _chirp_columns(m_elements: int, n_epoch: int, rng: np.random.Generator) -> np.ndarray:
    """Quadratic-phase columns over complete cyclic shift orbits.

    Columns within one orbit share a chirp rate and differ by linear phase
    ramps 2*pi*r*m/M, r = 0..M-1, so each complete orbit contributes an exactly
    orthogonal block: sum over the orbit of conj(v) v^T is M * I. A truncated
    final orbit uses equispaced ramps. This keeps the per-epoch signatures far
    more uniform than Gaussian draws when n_epoch is only a few times M.

    Entry m of shift r is exp(i*pi*j/M) * exp(i*glob) with the integer
    j = (q*m^2 + 2*r*m) mod 2M, so each orbit indexes one table of the 2M-th
    roots of unity: no phase argument grows with q*m^2.
    """
    m = np.arange(m_elements)
    roots = np.exp(1j * np.pi * np.arange(2 * m_elements) / m_elements)
    out = np.empty((m_elements, n_epoch), dtype=complex)
    done = 0
    # odd rates are invertible mod 2M, giving flat-magnitude chirps
    rates = list(rng.permutation(np.arange(1, 2 * m_elements, 2)))
    while done < n_epoch:
        if not rates:
            rates = list(rng.permutation(np.arange(1, 2 * m_elements, 2)))
        q = rates.pop()
        need = n_epoch - done
        if need >= m_elements:
            shifts = np.arange(m_elements)
        else:
            shifts = np.round(np.arange(need) * m_elements / need).astype(int)
        glob = 2 * np.pi * rng.uniform()
        j = ((q * m * m)[:, None] + 2 * shifts * m[:, None]) % (2 * m_elements)
        out[:, done:done + shifts.size] = roots[j] * np.exp(1j * glob)
        done += shifts.size
    return out


RIS_INITS = ("gaussian", "chirp")


def solve_phase_shifts(a_tilde: np.ndarray, n_epoch: int, rng: np.random.Generator,
                       init: str = "gaussian", refine_rounds: int = 1) -> PhaseShiftMatrix:
    """Random phase rows projected away from the leakage signature a_tilde.

    Draws an M x N_epoch seed matrix (i.i.d. circular complex Gaussian by
    default; init="chirp" uses structured quadratic-phase columns that spread
    the epochs more evenly), projects each row of its transpose onto the
    subspace with v^T a_tilde = 0, and restores unit modulus by keeping phases
    only. Each projection is the rank-one update v - (v a_tilde) a_tilde^H /
    ||a_tilde||^2, O(N_epoch * M), equal to v @ orthogonal_projector(a_tilde)
    up to rounding. Restoration re-introduces a small leakage component, so
    refine_rounds more project+restore passes are applied (one pass roughly
    doubles the suppression in dB).

    The output depends only on (a_tilde, n_epoch, rng state, init,
    refine_rounds), never on the probing waveform.
    """
    if n_epoch < 1:
        raise ValueError(f"n_epoch must be >= 1, got {n_epoch}")
    if refine_rounds < 0:
        raise ValueError("refine_rounds must be non-negative")
    a_tilde = np.asarray(a_tilde, dtype=complex)
    m_elements = a_tilde.size
    a_conj = a_tilde.conj() / _norm2(a_tilde)
    if init == "gaussian":
        gamma = complex_normal((m_elements, n_epoch), rng)
    elif init == "chirp":
        gamma = _chirp_columns(m_elements, n_epoch, rng)
    else:
        raise ValueError(f"unknown init {init!r}")
    # row n of V must satisfy v_n^T a_tilde ~ 0 (bilinear form, no conjugate),
    # so project the rows of Gamma^T from the right
    v = gamma.T
    for _ in range(refine_rounds + 1):
        v = _unit_phases(v - np.outer(v @ a_tilde, a_conj))
    return PhaseShiftMatrix(v)


def _unit_phases(mat: np.ndarray) -> np.ndarray:
    """x / |x| entrywise: exact zeros map to +1 (angle(0) := 0) and NaN stays
    NaN, since |NaN| != 0 divides it (quietly: complex division flags NaN
    operands as invalid)."""
    mag = np.abs(mat)
    with np.errstate(invalid="ignore"):
        return np.divide(mat, mag, out=np.ones_like(mat), where=mag != 0)


def suppression_db(phases: PhaseShiftMatrix, a_tilde: np.ndarray) -> float:
    """Mean epoch leakage power relative to the coherent bound M*||a||^2/M."""
    a_hat = a_tilde / np.linalg.norm(a_tilde)
    leak = np.abs(phases.matrix @ a_hat) ** 2
    return 10.0 * np.log10(np.mean(leak) / phases.m_elements)


def beampattern(phases: PhaseShiftMatrix, aod_ris_pr: float, ris: ArraySpec,
                grid) -> np.ndarray:
    """Epoch-summed power response B(theta) = sum_n |b^T diag(v_n) a(theta)|^2, the
    dictionary_power of V over the cached tapered dictionary the scans use."""
    return dictionary_power(phases.matrix, steering_dictionary(ris, grid, aod_ris_pr, True))


def level_db(power, peak):
    """10 log10(power / peak), power floored at 1e-300 so that 0 stays finite."""
    return 10.0 * np.log10(np.maximum(power, 1e-300) / peak)


def beampattern_db(phases: PhaseShiftMatrix, aod_ris_pr: float, ris: ArraySpec,
                   grid) -> np.ndarray:
    """Beampattern normalized to its own maximum, in dB."""
    pat = beampattern(phases, aod_ris_pr, ris, grid)
    return level_db(pat, pat.max())
