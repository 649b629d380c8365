"""Desk-scale simulator and algorithms for RIS-assisted passive radar
localization: signal synthesis, interference-suppressing phase design,
receive beamforming, adaptive spectrum scanning and benchmark harnesses.

The public names load on first use (PEP 562), so ``import risloc.cli`` does
not import numpy: the console script can set the BLAS thread count first."""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "signal_model": ("ArraySpec", "NoiseModel", "SceneConfig", "Waveform",
                     "generate_waveform", "pr_received", "rician_channel", "ris_incident",
                     "ris_reflect", "simulate_epochs", "steering_matrix", "steering_vector"),
    "ris_optimizer": ("PhaseShiftMatrix", "beampattern", "beampattern_db",
                      "orthogonal_projector", "solve_phase_shifts", "suppression_db",
                      "suppression_target"),
    "pr_beamformer": ("BeamformedData", "beamform", "matched_weight"),
    "localizer": ("LocalizerConfig", "SpectrumResult", "default_grid", "detect_peaks",
                  "nlms_run", "scan_vector", "spectrum"),
    "benchmarks": ("MISS_ERROR_DEG", "music_estimate", "no_ris_localize",
                   "select_estimates", "trial_error"),
    "experiments": ("ExperimentConfig", "config_from_dict", "load_config",
                    "noise_variance_for_snr", "run_beampattern", "run_mse_sweep",
                    "run_spectrum", "trial_rng"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    # not cached in the package namespace, so a name rebound in its defining
    # module (a test's monkeypatch, a tracer) reads the same here
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
