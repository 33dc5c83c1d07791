"""radoppler: micro-Doppler spectrograms with resolution-adaptive warping.

The pipeline runs raw FMCW radar cubes through range compression,
slow-time clutter filtering, a conventional STFT spectrogram, and a
resolution-adaptive transform that detects the signature's corner
frequency and re-grids the frequency axis through a warped triangular
filter bank. A synthetic micro-motion simulator and a peak/Kalman
signature tracker round out the toolkit.
"""

__version__ = "0.1.0"

from .errors import (
    AliasingError,
    DegenerateCornerError,
    DegenerateInputError,
    FileFormatError,
    FilterBankError,
    ForcedCornerError,
    RadopplerError,
)
from .ingest import (
    PipelineConfig,
    RadarCube,
    RadarParams,
    load_config,
    load_matrix,
    load_radar_cube,
    write_matrix,
    write_radar_cube,
)
from .linspec import (
    Spectrogram,
    log_view,
    spectrogram_from_cube,
    spectrogram_from_file,
    stft_spectrogram,
)
from .preprocess import RangeProfileMatrix, clutter_filter, range_transform
from .ra_core import (
    CornerResult,
    EnergyProfile,
    FilterBank,
    RASpectrogram,
    build_filter_bank,
    energy_profile,
    find_corners,
    ra_transform,
    scale_forward,
    scale_inverse,
)
from .simulator import Scenario, ScattererSpec, preset, synthesize
from .tracker import SignatureTrack, kalman_smooth, peak_track, track_signature

__all__ = [
    "__version__",
    "AliasingError",
    "DegenerateCornerError",
    "DegenerateInputError",
    "FileFormatError",
    "FilterBankError",
    "ForcedCornerError",
    "RadopplerError",
    "PipelineConfig",
    "RadarCube",
    "RadarParams",
    "load_config",
    "load_matrix",
    "load_radar_cube",
    "write_matrix",
    "write_radar_cube",
    "Spectrogram",
    "log_view",
    "spectrogram_from_cube",
    "spectrogram_from_file",
    "stft_spectrogram",
    "RangeProfileMatrix",
    "clutter_filter",
    "range_transform",
    "CornerResult",
    "EnergyProfile",
    "FilterBank",
    "RASpectrogram",
    "build_filter_bank",
    "energy_profile",
    "find_corners",
    "ra_transform",
    "scale_forward",
    "scale_inverse",
    "Scenario",
    "ScattererSpec",
    "preset",
    "synthesize",
    "SignatureTrack",
    "kalman_smooth",
    "peak_track",
    "track_signature",
]
