"""Conventional micro-Doppler spectrogram via the short-time Fourier transform."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, FileFormatError
from .ingest import (
    CubeReader,
    PipelineConfig,
    RadarCube,
    RadarParams,
    format_kv,
    load_matrix,
    read_sidecar,
    sidecar_count,
    sidecar_frame_dt,
    sidecar_path,
    sidecar_value,
    write_matrix,
)
from .preprocess import RangeProfileMatrix, clutter_filter

__all__ = [
    "Spectrogram",
    "window_function",
    "slow_time_signal",
    "stft_spectrogram",
    "spectrogram_from_cube",
    "spectrogram_from_file",
    "log_view",
    "save_spectrogram",
    "load_spectrogram",
]

FRAME_BLOCK = 512  # STFT frames transformed per batch


@dataclass(frozen=True)
class Spectrogram:
    """Time x signed-frequency power matrix.

    power[t, k] is the squared STFT magnitude of frame t, starting at
    t * frame_dt seconds, at (k - F/2) * hz_per_bin Hz for an even bin count
    F. Both axes derive from the two scalars the sidecar stores.
    """

    power: np.ndarray  # [num_frames, num_freq_bins]
    f_max: float  # Hz, half the chirp repetition frequency
    frame_dt: float  # seconds between frame starts

    def __post_init__(self):
        power = check_power(self.power)
        if power.shape[1] % 2:
            raise ValueError("frequency bin count must be even")
        f_max, frame_dt = float(self.f_max), float(self.frame_dt)
        if not (math.isfinite(f_max) and f_max > 0):
            raise ValueError(f"f_max must be positive and finite, got {f_max!r}")
        check_frame_dt(frame_dt, power.shape[0])
        power.setflags(write=False)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "f_max", f_max)
        object.__setattr__(self, "frame_dt", frame_dt)

    @property
    def num_frames(self) -> int:
        return self.power.shape[0]

    @property
    def num_freq_bins(self) -> int:
        return self.power.shape[1]

    @property
    def hz_per_bin(self) -> float:
        return 2.0 * self.f_max / self.num_freq_bins

    @property
    def freq_axis(self) -> np.ndarray:
        """Signed bin frequencies in Hz, ascending."""
        return (np.arange(self.num_freq_bins) - self.num_freq_bins // 2) * self.hz_per_bin

    @property
    def time_axis(self) -> np.ndarray:
        """Frame start times in seconds."""
        return np.arange(self.num_frames) * self.frame_dt


def check_power(power) -> np.ndarray:
    """``power`` as a float64 matrix; a ValueError names the first frame and column
    that is not real, finite and non-negative. Both spectrogram types check with it."""
    power = np.asarray(power)
    if power.ndim != 2 or power.size == 0:
        raise ValueError("power must be a non-empty 2-D matrix")
    if np.iscomplexobj(power):
        ok, need = power.imag == 0, "real"
    else:
        power = power.astype(np.float64, copy=False)
        if power.min() >= 0 and power.max() < np.inf:  # min() is NaN if any entry is
            return power
        ok, need = np.isfinite(power) & (power >= 0), "finite and non-negative"
    frame, column = divmod(int(ok.argmin()), power.shape[1])
    raise ValueError(f"power must be {need}; frame {frame} holds {power[frame, column]} "
                     f"in column {column}")


def check_frame_dt(frame_dt: float, num_frames: int) -> None:
    """A frame spacing must be finite, and positive when there is more than one frame."""
    if not math.isfinite(frame_dt) or (num_frames > 1 and frame_dt <= 0):
        raise ValueError(f"frame_dt must be finite, and positive for {num_frames} frames; "
                         f"got {frame_dt!r}")


def window_function(kind: str, length: int) -> np.ndarray:
    if kind == "hann":
        return np.hanning(length)
    if kind == "hamming":
        return np.hamming(length)
    if kind == "rect":
        return np.ones(length)
    raise ValueError(f"unknown window kind {kind!r}")


def slow_time_signal(profiles: RangeProfileMatrix, cfg: PipelineConfig) -> np.ndarray:
    """Collapse the configured range-bin interval into one slow-time series.

    Coherent mode sums the complex x(r,n) over r (the sum sits inside the
    transform's modulus); non-coherent mode sums magnitudes instead.
    """
    _check_range_bins(cfg, profiles.num_range_bins)
    block = profiles.values[cfg.range_bin_start : cfg.range_bin_end + 1, :]
    if cfg.coherent:
        return block.sum(axis=0)
    return np.abs(block).sum(axis=0).astype(np.complex128)


def _check_range_bins(cfg: PipelineConfig, num_range_bins: int) -> None:
    if cfg.range_bin_end >= num_range_bins:
        raise ValueError(
            f"range bins [{cfg.range_bin_start}, {cfg.range_bin_end}] exceed "
            f"the {num_range_bins} available bins"
        )


def stft_spectrogram(profiles: RangeProfileMatrix, cfg: PipelineConfig) -> Spectrogram:
    """Spectrogram of the range-collapsed slow-time signal.

    Frame t covers samples [t*hop, t*hop + window_length); each windowed
    frame is zero-padded to fft_length, transformed, fftshifted so
    negative Doppler comes first, and squared. Frames are transformed
    FRAME_BLOCK at a time straight into the power matrix.
    """
    s = slow_time_signal(profiles, cfg)
    if cfg.window_length > s.size:
        raise ValueError(
            f"window_length {cfg.window_length} exceeds the {s.size}-chirp signal"
        )
    num_frames = (s.size - cfg.window_length) // cfg.hop + 1
    offsets = cfg.hop * np.arange(num_frames)
    taps = np.arange(cfg.window_length)
    window = window_function(cfg.window_kind, cfg.window_length)
    power = np.empty((num_frames, cfg.fft_length))
    for first in range(0, num_frames, FRAME_BLOCK):
        starts = offsets[first : first + FRAME_BLOCK]
        spectrum = np.fft.fft(s[starts[:, None] + taps] * window, n=cfg.fft_length, axis=1)
        power[first : first + starts.size] = np.fft.fftshift(
            spectrum.real**2 + spectrum.imag**2, axes=1)

    prf = profiles.chirp_repetition_freq
    return Spectrogram(power=power, f_max=prf / 2.0, frame_dt=cfg.hop * (1.0 / prf))


def spectrogram_from_cube(cube: RadarCube, cfg: PipelineConfig) -> Spectrogram:
    """Raw cube to spectrogram: range FFT, clutter filter, range collapse, STFT."""
    return _front_end(cube.params, [cube.samples], cfg)


def spectrogram_from_file(path, cfg: PipelineConfig) -> Spectrogram:
    """Cube file to spectrogram; equals spectrogram_from_cube(load_radar_cube(path), cfg),
    but reduces each chirp block read by CubeReader before reading the next."""
    reader = CubeReader(path)
    return _front_end(reader.params, (block.astype(np.complex128).T for block in reader), cfg)


def _front_end(params: RadarParams, chunks, cfg: PipelineConfig) -> Spectrogram:
    """Spectrogram from complex [num_fast_samples, chirps] chunks in chirp order.

    Each chunk is reduced to the range rows kept, then all rows are
    clutter-filtered once and passed to the STFT. Coherent mode keeps one
    row: range FFT plus the sum over [range_bin_start, range_bin_end] is one
    linear functional per chirp, w[i] = sum_r exp(-2j*pi*r*i/N), and the
    filter is linear, time-invariant and starts from a state linear in the
    first sample, so filtering that series equals summing filtered bins.
    Non-coherent mode sums magnitudes, which does not commute with the
    filter, so it keeps every selected bin of the range FFT.
    """
    n = params.num_fast_samples
    _check_range_bins(cfg, n // 2)
    bins = np.arange(cfg.range_bin_start, cfg.range_bin_end + 1)
    if cfg.coherent:
        # reduce r*i modulo N so every twiddle angle stays below 2*pi
        w = np.exp(-2j * np.pi * (np.outer(bins, np.arange(n)) % n) / n).sum(axis=0)
    rows = np.empty((1 if cfg.coherent else bins.size, params.num_chirps), dtype=np.complex128)
    start = 0
    for chunk in chunks:
        count = chunk.shape[1]
        # numpy runs a one-column product as a dot product, which rounds unlike the
        # matrix-vector kernel every other chirp sees, so a lone chirp is doubled
        if count == 1:
            chunk = np.repeat(chunk.T, 2, axis=0).T
        kept = w @ chunk if cfg.coherent else np.fft.fft(chunk, n=n, axis=0)[bins]
        rows[:, start : start + count] = kept[..., :count]
        start += count
    profiles = RangeProfileMatrix(values=rows, range_resolution=params.range_resolution,
                                  chirp_repetition_freq=params.chirp_repetition_freq)
    filtered = clutter_filter(profiles, cutoff=cfg.notch_cutoff, order=cfg.notch_order)
    # the kept rows are all the range bins of their own matrix
    return stft_spectrogram(filtered, replace(cfg, range_bin_start=0, range_bin_end=len(rows) - 1))


def log_view(spec: Spectrogram, floor: float = 1e-12) -> np.ndarray:
    """log10 of the power floored at floor * max(power); display and e(f) input."""
    if floor <= 0:
        raise ValueError("floor must be positive")
    peak = spec.power.max()
    if peak <= 0:
        raise DegenerateInputError("degenerate input: all-zero spectrogram has no log view")
    floored = np.maximum(spec.power, floor * peak)
    return np.log10(floored, out=floored)


# ---------------------------------------------------------------------------
# persistence: matrix payload + axis sidecar
# ---------------------------------------------------------------------------

def save_spectrogram(spec: Spectrogram, path, format: str = "bin") -> Path:
    """Write the power matrix plus a ``<name>.meta`` axis sidecar."""
    out = write_matrix(spec.power, path, format=format)
    sidecar_path(out).write_text(format_kv([
        ("kind", "spectrogram"),
        ("num_frames", spec.num_frames),
        ("num_freq_bins", spec.num_freq_bins),
        ("f_max", spec.f_max),
        ("frame_dt", spec.frame_dt),
    ]))
    return out


def load_spectrogram(path) -> Spectrogram:
    """Read a spectrogram; sidecar counts must match the matrix, and errors name the file."""
    meta = read_sidecar(path, "spectrogram")
    f_max = sidecar_value(path, meta, "f_max")
    power = load_matrix(path)
    sidecar_count(path, meta, "num_frames", power.shape[0], "rows")
    sidecar_count(path, meta, "num_freq_bins", power.shape[1], "columns")
    frame_dt = sidecar_frame_dt(path, meta, power.shape[0])
    try:
        return Spectrogram(power=power, f_max=f_max, frame_dt=frame_dt)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
