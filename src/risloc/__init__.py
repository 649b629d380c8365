"""Desk-scale simulator and algorithms for RIS-assisted passive radar
localization: signal synthesis, interference-suppressing phase design,
receive beamforming, adaptive spectrum scanning and benchmark harnesses."""

from .signal_model import (ArraySpec, NoiseModel, SceneConfig, Waveform,
                           generate_waveform, pr_received, rician_channel,
                           ris_incident, ris_reflect, simulate_epochs,
                           steering_matrix, steering_vector)
from .ris_optimizer import (PhaseShiftMatrix, beampattern, beampattern_db,
                            orthogonal_projector, solve_phase_shifts,
                            suppression_db, suppression_target)
from .pr_beamformer import BeamformedData, beamform, matched_weight
from .localizer import (LocalizerConfig, SpectrumResult, default_grid,
                        detect_peaks, nlms_run, scan_vector, spectrum)
from .benchmarks import (MISS_ERROR_DEG, music_estimate, no_ris_localize,
                         select_estimates, trial_error)
from .experiments import (ExperimentConfig, config_from_dict, load_config,
                          noise_variance_for_snr, run_beampattern,
                          run_mse_sweep, run_spectrum, trial_rng)

__version__ = "0.1.0"

__all__ = [
    "ArraySpec", "NoiseModel", "SceneConfig", "Waveform", "generate_waveform",
    "pr_received", "rician_channel", "ris_incident", "ris_reflect",
    "simulate_epochs", "steering_matrix", "steering_vector",
    "PhaseShiftMatrix", "beampattern", "beampattern_db", "orthogonal_projector",
    "solve_phase_shifts", "suppression_db", "suppression_target",
    "BeamformedData", "beamform", "matched_weight",
    "LocalizerConfig", "SpectrumResult", "default_grid", "detect_peaks",
    "nlms_run", "scan_vector", "spectrum",
    "MISS_ERROR_DEG", "music_estimate",
    "no_ris_localize", "select_estimates", "trial_error",
    "ExperimentConfig", "config_from_dict", "load_config",
    "noise_variance_for_snr", "run_beampattern", "run_mse_sweep",
    "run_spectrum", "trial_rng",
    "__version__",
]
