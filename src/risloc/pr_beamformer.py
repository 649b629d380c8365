"""Static receive beamformer at the passive radar and the beamformed matrix Z."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import ArraySpec, steering_vector


@dataclass
class BeamformedData:
    """Z is N_epoch x L; row n is w^H Y_n."""

    z: np.ndarray

    @property
    def n_epoch(self) -> int:
        return self.z.shape[0]

    @property
    def n_samples(self) -> int:
        return self.z.shape[1]


def matched_weight(pr: ArraySpec, aoa_ris_pr: float) -> np.ndarray:
    """Weight with unit gain toward the RIS: w = a / ||a||^2."""
    a = steering_vector(pr, aoa_ris_pr)
    return a / np.vdot(a, a).real


def beamform(y: np.ndarray, w: np.ndarray) -> BeamformedData:
    """Apply w^H to every epoch of y (N_epoch x N_PR x L), preserving epoch
    order."""
    if y.ndim != 3 or y.shape[0] == 0:
        raise ValueError(f"y must be a non-empty N_epoch x N_PR x L array, got {y.shape}")
    if w.shape != (y.shape[1],):
        raise ValueError("weight length must match the PR element count")
    return BeamformedData(w.conj() @ y)
