"""Narrowband multi-hop signal model: steering vectors, Rician channels,
waveforms, RIS incident/reflected signals and the received epochs."""

from __future__ import annotations

import functools
import math
import sys
import typing
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


Decibels = typing.Annotated[float, "a level in dB; +-inf is the linear 0 or infinity"]


def check_value(name: str, value, hint) -> None:
    """Raise a ValueError naming name unless value fits annotation hint; never converts."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    number = real or isinstance(value, (complex, np.complexfloating))
    # |value|, exact for a Python int, so that one too large for a float is not finite
    size = (abs(value) if isinstance(value, int) else abs(complex(value))) if number else math.nan
    finite = size <= sys.float_info.max
    if hint is float:
        ok, what = real and finite, "finite (a real number, not a bool)"
    elif hint is Decibels:  # a level in dB may be +-inf; a plain float must be finite
        ok, what = real and (finite or size == math.inf), "finite or +-inf (not NaN or a bool)"
    elif hint is int:
        ok, what = real and isinstance(value, (int, np.integer)), "an integer (not a bool)"
    elif hint is complex:
        ok, what = number and finite, "finite (a number, not a bool)"
    elif hint is bool:
        ok, what = isinstance(value, (bool, np.bool_)), "true or false"
    elif getattr(hint, "__origin__", None) is Sequence:
        ok, what = isinstance(value, (list, tuple)), "a list"
        for i, v in enumerate(value if ok else ()):
            check_value(f"{name}[{i}]", v, hint.__args__[0])
    elif getattr(hint, "__origin__", None) is typing.Union:  # Optional[X]
        return None if value is None else check_value(name, value, hint.__args__[0])
    else:
        ok, what = isinstance(value, hint), f"of type {hint.__name__}"
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")


# f.type is a str under __future__; include_extras keeps Decibels apart from float
_type_hints = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))


def check_fields(obj) -> None:
    """check_value on every field of a config dataclass, keyed on its annotation."""
    for name, hint in _type_hints(type(obj)).items():
        check_value(name, getattr(obj, name), hint)


def check_angles(name: str, angles) -> None:
    """Steering is undefined at +-90, so every angle must satisfy |angle| < 90.
    The error names the angles that do not."""
    bad = [a for a in np.ravel(angles).tolist() if not abs(a) < 90.0]
    if bad:
        raise ValueError(f"{name} must satisfy |angle| < 90 (steering is undefined at "
                         f"+-90), got {bad}")


@dataclass
class ArraySpec:
    """Uniform linear array: element count and spacing in wavelengths."""

    elements: int
    spacing: float = 0.5

    def __post_init__(self):
        check_fields(self)
        if self.elements < 1:
            raise ValueError(f"elements must be an integer >= 1, got {self.elements!r}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be finite and > 0, got {self.spacing!r}")


@dataclass
class SceneConfig:
    """Geometry, complex path gains and Rician factors for AP, RIS, PR and targets.

    Angles are in degrees and satisfy |angle| < 90. Gains are complex amplitudes.
    """

    target_aoas_ris: Sequence[float]
    target_aoas_pr: Sequence[float]
    aoa_ap_ris: float
    aoa_ris_pr: float
    aod_ris_pr: float
    aoa_ap_pr: float
    gain_targets: Sequence[complex]
    gain_ap_ris: complex
    gain_ris_pr: complex
    gain_ap_pr: complex
    gain_targets_pr: Sequence[complex]
    rician_ap_pr: float = 10.0
    rician_targets_pr: typing.Optional[Sequence[float]] = None  # None: 10 per target

    def __post_init__(self):
        check_fields(self)
        k = len(self.target_aoas_ris)
        if not (len(self.target_aoas_pr) == len(self.gain_targets)
                == len(self.gain_targets_pr) == k):
            raise ValueError("per-target lists must share one length K")
        if self.rician_targets_pr is None:
            self.rician_targets_pr = (10.0,) * k
        if len(self.rician_targets_pr) != k:
            raise ValueError("rician_targets_pr length must equal K")
        if self.rician_ap_pr < 0 or any(v < 0 for v in self.rician_targets_pr):
            raise ValueError("Rician factors must be non-negative")
        for name in ("target_aoas_ris", "target_aoas_pr", "aoa_ap_ris", "aoa_ris_pr",
                     "aod_ris_pr", "aoa_ap_pr"):
            check_angles(name, getattr(self, name))

    @property
    def n_targets(self) -> int:
        return len(self.target_aoas_ris)


@dataclass
class Waveform:
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("waveform must be a non-empty 1-D sequence")
        if self.power <= 0:
            raise ValueError("waveform power must be positive")

    @property
    def power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))


@dataclass
class NoiseModel:
    variance: float = 0.0

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("noise variance must be non-negative")


def steering_vector(spec: ArraySpec, angle_deg: float) -> np.ndarray:
    """ULA response: element m (1-based) = exp(j*2*pi*spacing*(m-1)*sin(angle))."""
    check_angles("steering angle", angle_deg)
    m = np.arange(spec.elements)
    return np.exp(2j * np.pi * spec.spacing * m * np.sin(np.deg2rad(angle_deg)))


def steering_matrix(spec: ArraySpec, angles_deg) -> np.ndarray:
    """Columns are steering vectors for each angle (M x len(angles_deg)).

    One exp of the outer product of the element phases with sin(angles),
    multiplied in the order steering_vector uses, so column j equals
    steering_vector(spec, angles_deg[j]). Every angle must satisfy |angle| < 90.
    """
    angles = np.asarray(angles_deg, dtype=float).reshape(-1)
    check_angles("steering angle", angles)
    m = np.arange(spec.elements)
    return np.exp((2j * np.pi * spec.spacing * m)[:, None]
                  * np.sin(np.deg2rad(angles))[None, :])


@functools.lru_cache(maxsize=8)
def _coefficients(elements, spacing, grid: bytes, aod, tapered) -> np.ndarray:
    spec = ArraySpec(elements, spacing)
    c = steering_matrix(spec, np.frombuffer(grid))
    if tapered:
        c = c * steering_matrix(spec, [aod])
    c.flags.writeable = False
    return c


def steering_dictionary(spec: ArraySpec, grid, aod=0.0, tapered=False) -> np.ndarray:
    """A(grid), times the taper column a(aod) when tapered: read-only, and
    cached on values, so every scan, beampattern, trial and SNR point with the
    same array and grid shares one array. Without the taper, aod is not part
    of the key."""
    return _coefficients(spec.elements, spec.spacing, np.asarray(grid, dtype=float).tobytes(),
                         aod if tapered else 0.0, tapered)


def dictionary_power(rows: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum_n |x_n^T c|^2 for every dictionary column c = (u^m), |u| = 1, x_n the rows
    of rows (N x M, or a stack): Re sum_k w_k rho_k u^k (w_0 = 1, else 2), u^k read
    off row k of coeff, with rho_k = sum_{n,m} x_{n,m+k} conj(x_{n,m}) from one
    length-2M FFT per row. Clamped at 0; each stack slice is its own 1 x M
    product, so it is bit for bit the call on that slice."""
    m = coeff.shape[0]
    spec = np.fft.fft(rows, 2 * m)
    rho = np.fft.ifft(np.sum(spec.real ** 2 + spec.imag ** 2, axis=-2))[..., :m]
    rho[..., 1:] *= 2.0
    return np.maximum((rho[..., None, :] @ coeff)[..., 0, :].real, 0.0)


def complex_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance circular complex Gaussian draws, real parts drawn first."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def rician_channel(spec: ArraySpec, los_angle_deg: float, kappa: float,
                   rng: np.random.Generator) -> np.ndarray:
    """LoS steering vector plus scattered CN(0,1) part, mixed by the K-factor."""
    if kappa < 0:
        raise ValueError(f"Rician factor must be non-negative, got {kappa}")
    los = steering_vector(spec, los_angle_deg)
    nlos = complex_normal(spec.elements, rng)
    return np.sqrt(kappa / (1.0 + kappa)) * los + np.sqrt(1.0 / (1.0 + kappa)) * nlos


def generate_waveform(length: int, rng: np.random.Generator) -> Waveform:
    """Unit-power probing sequence: circular complex Gaussian draws."""
    if length < 1:
        raise ValueError(f"waveform length must be >= 1, got {length}")
    return Waveform(complex_normal(length, rng))


def ris_incident(scene: SceneConfig, waveform: Waveform, ris: ArraySpec) -> np.ndarray:
    """Signal arriving at the RIS aperture: target bounces plus the direct AP ray.

    Returns an M x L matrix A*S + alpha_0 * a_M(aoa_ap_ris) * s.
    """
    s = waveform.samples
    out = np.zeros((ris.elements, len(s)), dtype=complex)
    for k in range(scene.n_targets):
        out += scene.gain_targets[k] * np.outer(steering_vector(ris, scene.target_aoas_ris[k]), s)
    a0 = scene.gain_ap_ris
    if a0 != 0:
        out += a0 * np.outer(steering_vector(ris, scene.aoa_ap_ris), s)
    return out


def ris_reflect(incident: np.ndarray, v_n: np.ndarray, aod_ris_pr: float,
                ris: ArraySpec) -> np.ndarray:
    """One epoch of RIS output: x_n = b^T diag(v_n) * incident (length-L row)."""
    v_n = np.asarray(v_n)
    if v_n.shape != (incident.shape[0],):
        raise ValueError("phase row length must match incident rows")
    if np.max(np.abs(np.abs(v_n) - 1.0)) > 1e-9:
        raise ValueError("phase-shift entries must be unit modulus")
    b = steering_vector(ris, aod_ris_pr)
    return (b * v_n) @ incident


def pr_received(scene: SceneConfig, waveform: Waveform, x_n: np.ndarray,
                pr: ArraySpec, noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """One epoch at the PR: RIS path + direct AP path + direct target paths + AWGN.

    Rician channels are redrawn on every call, so consecutive epochs see
    independent fading.
    """
    s = waveform.samples
    y = scene.gain_ris_pr * np.outer(
        steering_vector(pr, scene.aoa_ris_pr), x_n)
    g_ap = scene.gain_ap_pr
    if g_ap != 0:
        h = rician_channel(pr, scene.aoa_ap_pr, scene.rician_ap_pr, rng)
        y += g_ap * np.outer(h, s)
    g_t = scene.gain_targets_pr
    for k in range(scene.n_targets):
        if g_t[k] != 0:
            h = rician_channel(pr, scene.target_aoas_pr[k],
                               scene.rician_targets_pr[k], rng)
            y += g_t[k] * np.outer(h, s)
    if noise.variance > 0:
        y += np.sqrt(noise.variance) * complex_normal((pr.elements, len(s)), rng)
    return y


def simulate_epochs(scene: SceneConfig, waveform: Waveform, phases,
                    pr: ArraySpec, ris: ArraySpec, noise: NoiseModel,
                    rng: np.random.Generator) -> np.ndarray:
    """Full acquisition: one incident field, then reflect + receive per epoch.

    Returns the received matrices Y_n stacked as an N_epoch x N_PR x L array.
    """
    incident = ris_incident(scene, waveform, ris)
    return np.stack([pr_received(scene, waveform,
                                 ris_reflect(incident, v_n, scene.aod_ris_pr, ris),
                                 pr, noise, rng)
                     for v_n in phases.matrix])
