"""Static receive beamformer at the passive radar and the beamformed matrix Z."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import ArraySpec, SnapshotTensor, steering_vector


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


def beamform(tensor: SnapshotTensor, w: np.ndarray) -> BeamformedData:
    """Apply w^H to every epoch matrix, preserving epoch order."""
    if tensor.n_epoch == 0:
        raise ValueError("empty snapshot tensor")
    if w.shape != (tensor.per_epoch[0].shape[0],):
        raise ValueError("weight length must match the PR element count")
    rows = [w.conj() @ y_n for y_n in tensor.per_epoch]
    return BeamformedData(np.stack(rows, axis=0))
