"""radoppler: micro-Doppler spectrograms with resolution-adaptive warping.

The pipeline runs raw FMCW radar cubes through range compression,
slow-time clutter filtering, a conventional STFT spectrogram, and a
resolution-adaptive transform that detects the signature's corner
frequency and re-grids the frequency axis through a warped triangular
filter bank. A synthetic micro-motion simulator and a peak/Kalman
signature tracker round out the toolkit.

``import radoppler`` loads no stage module: each submodule, and each
name in ``_EXPORTS``, is imported on first access (PEP 562), so a CLI
process loads only the stages its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "errors": ("AliasingError", "ConfigMismatchError", "DegenerateCornerError",
               "DegenerateInputError", "FileFormatError", "FilterBankError",
               "ForcedCornerError", "RadopplerError"),
    "ingest": ("PipelineConfig", "RadarCube", "RadarParams", "load_config", "load_matrix",
               "load_radar_cube", "write_matrix", "write_radar_cube"),
    "linspec": ("Spectrogram", "spectrogram_from_cube", "spectrogram_from_file",
                "stft_spectrogram"),
    "preprocess": ("RangeProfileMatrix", "clutter_filter", "range_transform"),
    "ra_core": ("CornerResult", "EnergyProfile", "FilterBank", "RASpectrogram",
                "build_filter_bank", "energy_profile", "find_corners", "ra_transform",
                "scale_forward", "scale_inverse"),
    "simulator": ("Scenario", "ScattererSpec", "preset", "synthesize"),
    "tracker": ("SignatureTrack", "kalman_smooth", "peak_track", "track_signature"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
