"""Conventional micro-Doppler spectrogram via the short-time Fourier transform."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigMismatchError, DegenerateInputError, FileFormatError
from .ingest import (
    CHIRP_BLOCK,
    CHIRP_SLICE,
    FRAME_BLOCK,
    CubeReader,
    MatrixReader,
    PipelineConfig,
    RadarCube,
    RadarParams,
    block_edges,
    gather_rows,
    read_sidecar,
    sidecar_count,
    sidecar_path,
    sidecar_value,
    write_frames,
)
from .preprocess import BLOCK, RangeProfileMatrix, highpass_sos, sosfilt

__all__ = [
    "Spectrogram",
    "window_function",
    "slow_time_signal",
    "stft_spectrogram",
    "spectrogram_from_cube",
    "spectrogram_from_file",
    "save_spectrogram",
    "load_spectrogram",
    "open_spectrogram",
    "open_cube_spectrogram",
]


@dataclass(frozen=True)
class Spectrogram:
    """Time x signed-frequency power matrix.

    power[t, k] is the squared STFT magnitude of frame t, starting at
    t * frame_dt seconds, at (k - F/2) * hz_per_bin Hz for an even bin count
    F. Both axes derive from the two scalars the sidecar stores. The power is
    a matrix, or Frames read a block at a time: a PowerFile (open_spectrogram)
    or StftFrames (open_cube_spectrogram).
    """

    power: np.ndarray  # [num_frames, num_freq_bins]; or Frames
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
        if isinstance(power, np.ndarray):
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
    that is not real, finite and non-negative. Both spectrogram types check with it.
    Frames pass as they are: a PowerFile checks each block as it reads it, and the
    other kinds compute their power from checked input."""
    if isinstance(power, Frames):
        return power
    return _checked(power, 0)


def _checked(power, first: int) -> np.ndarray:
    """check_power of rows first.. of a matrix; an error names the frame by its number
    in the whole matrix."""
    power = np.asarray(power)
    if power.ndim != 2 or power.size == 0:
        raise ValueError("power must be a non-empty 2-D matrix")
    if np.iscomplexobj(power):
        ok, need = power.imag == 0, "real"
        if ok.all():  # no cell to name: the dtype alone is not real
            raise ValueError(f"power must be real, got {power.dtype}")
    else:
        power = power.astype(np.float64, copy=False)
        if power.min() >= 0 and power.max() < np.inf:  # min() is NaN if any entry is
            return power
        ok, need = np.isfinite(power) & (power >= 0), "finite and non-negative"
    frame, column = divmod(int(ok.argmin()), power.shape[1])
    raise ValueError(f"power must be {need}; frame {first + frame} holds "
                     f"{power[frame, column]} in column {column}")


class Frames:
    """A ``shape`` power matrix whose frames are read a block at a time.

    A kind of Frames gives ``blocks(edges)``: rows first:stop for each
    (first, stop) of ``edges``, each block valid until the next is taken.
    ``max`` is one pass over ``block``-frame blocks, kept for later calls;
    ``read`` gathers such blocks into one matrix.
    """

    block = FRAME_BLOCK  # frames per block of a whole read or write (block_edges)
    _peak = None

    def max(self):
        if self._peak is None:
            self._peak = max(block.max() for block in self.blocks(block_edges(self)))
        return self._peak

    def read(self) -> np.ndarray:
        return gather_rows(self)


class PowerFile(MatrixReader, Frames):
    """A power matrix left in its file: a MatrixReader whose blocks are checked.

    Each block is checked as check_power checks a whole matrix, and an error
    names the file; ``read`` stays unchecked, as a Spectrogram built on the
    whole matrix checks it. ``max`` reads the file once for its peak unless
    ``peak`` was given.
    """

    def __init__(self, fh, name, peak=None):
        super().__init__(fh, name)
        self._peak = peak

    def blocks(self, edges):
        """The checked rows first:stop for each (first, stop) of ``edges``; each block
        is overwritten by the next (see MatrixReader.blocks)."""
        for (first, _), block in zip(edges, super().blocks(edges)):
            try:
                _checked(block, first)
            except ValueError as exc:
                raise FileFormatError(f"{self.name}: {exc}") from None
            yield block


def open_framed_matrix(path, kind: str, build):
    """``build(power, meta, frame_dt)`` on a matrix of frames opened as a PowerFile, its
    ``kind`` sidecar ``meta`` and the sidecar's ``frame_dt``. The sidecar's ``num_frames``
    must match the rows, and ``frame_dt`` must be positive unless there is a single frame.
    On any failure the file is closed, and a ValueError from ``build`` (a sidecar value
    the typed object rejects) becomes a FileFormatError that names the sidecar."""
    meta = read_sidecar(path, kind)
    power = PowerFile.open(path)
    try:
        rows = power.shape[0]
        sidecar_count(path, meta, "num_frames", rows, "rows")
        dt = sidecar_value(path, meta, "frame_dt")
        if rows > 1 and dt <= 0:
            raise FileFormatError(f"{sidecar_path(path)}: key 'frame_dt' must be positive "
                                  f"for {rows} frames, got {meta['frame_dt']!r}")
        return build(power, meta, dt)
    except ValueError as exc:
        power.close()
        raise FileFormatError(f"{sidecar_path(path)}: {exc}") from None
    except BaseException:
        power.close()
        raise


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
    transform's modulus); non-coherent mode sums magnitudes instead. A cfg
    the matrix cannot hold raises ConfigMismatchError (see _check_fit).
    """
    _check_fit(cfg, *profiles.values.shape, profiles.chirp_repetition_freq)
    block = profiles.values[cfg.range_bin_start : cfg.range_bin_end + 1, :]
    if cfg.coherent:
        return block.sum(axis=0)
    return np.abs(block).sum(axis=0).astype(np.complex128)


def _check_fit(cfg: PipelineConfig, bins: int, chirps: int, prf: float) -> None:
    """The one check of a config against a cube; the error names key, value and limit."""
    if cfg.range_bin_end >= bins:
        raise ConfigMismatchError(f"range_bin_end = {cfg.range_bin_end} must sit below "
                                  f"{bins}, the number of range bins")
    if cfg.window_length > chirps:
        raise ConfigMismatchError(f"window_length = {cfg.window_length} must not exceed "
                                  f"{chirps}, the number of chirps")
    if cfg.notch_cutoff >= prf / 2:
        raise ConfigMismatchError(f"notch_cutoff = {cfg.notch_cutoff!r} Hz must sit below "
                                  f"{prf / 2!r} Hz, half the chirp rate")


def stft_spectrogram(profiles: RangeProfileMatrix, cfg: PipelineConfig) -> Spectrogram:
    """Spectrogram of the range-collapsed slow-time signal (see StftFrames)."""
    return _in_memory(_stft(slow_time_signal(profiles, cfg), profiles.chirp_repetition_freq, cfg))


class StftFrames(Frames):
    """The power of a slow-time series' STFT, computed a block of frames at a time.

    Frame t covers samples [t*hop, t*hop + window_length) of a series at least
    one window long; each windowed frame is zero-padded to fft_length,
    transformed, fftshifted so negative Doppler comes first, and squared. A
    frame's power does not depend on the block it is computed in.
    """

    def __init__(self, s: np.ndarray, cfg: PipelineConfig):
        self._s, self._cfg = s, cfg
        self._window = window_function(cfg.window_kind, cfg.window_length)
        self.shape = ((s.size - cfg.window_length) // cfg.hop + 1, cfg.fft_length)

    def blocks(self, edges):
        """A new power matrix of frames first:stop for each (first, stop) of ``edges``."""
        cfg = self._cfg
        taps = np.arange(cfg.window_length)
        for first, stop in edges:
            starts = cfg.hop * np.arange(first, stop)
            spectrum = np.fft.fft(self._s[starts[:, None] + taps] * self._window,
                                  n=cfg.fft_length, axis=1)
            yield np.fft.fftshift(spectrum.real**2 + spectrum.imag**2, axes=1)


def _stft(s: np.ndarray, prf: float, cfg: PipelineConfig) -> Spectrogram:
    """The spectrogram of a slow-time series s sampled at prf Hz, as StftFrames."""
    return Spectrogram(power=StftFrames(s, cfg), f_max=prf / 2.0, frame_dt=cfg.hop * (1.0 / prf))


def _in_memory(spec: Spectrogram) -> Spectrogram:
    """``spec`` with its whole power matrix read."""
    return dataclasses.replace(spec, power=spec.power.read())


def spectrogram_from_cube(cube: RadarCube, cfg: PipelineConfig) -> Spectrogram:
    """Raw cube to spectrogram, cut in the file path's CHIRP_SLICE reads to equal it."""
    starts = range(0, cube.params.num_chirps, CHIRP_SLICE)
    chunks = (cube.samples[:, s : s + CHIRP_SLICE] for s in starts)
    return _in_memory(_front_end(cube.params, chunks, cfg))


def spectrogram_from_file(path, cfg: PipelineConfig) -> Spectrogram:
    """Cube file to spectrogram; equals spectrogram_from_cube(load_radar_cube(path), cfg),
    but reduces each CHIRP_SLICE read of CubeReader before reading the next."""
    return _in_memory(open_cube_spectrogram(path, cfg))


def open_cube_spectrogram(path, cfg: PipelineConfig) -> Spectrogram:
    """The spectrogram of a cube file as StftFrames: the cube is read and reduced to its
    slow-time series here, and each block of frames is transformed when it is read."""
    reader = CubeReader(path)
    return _front_end(reader.params, (block.T for block in reader), cfg)


def _front_end(params: RadarParams, chunks, cfg: PipelineConfig) -> Spectrogram:
    """Spectrogram (as StftFrames) of complex [num_fast_samples, chirps] chunks in chirp
    order; cfg is checked before the first chunk is read, and the high-pass is designed
    once."""
    prf = params.chirp_repetition_freq
    _check_fit(cfg, params.num_fast_samples // 2, params.num_chirps, prf)
    if params.num_chirps < 2:
        raise ValueError("need at least 2 chirps to filter along slow time")
    try:
        sos = highpass_sos(cfg.notch_order, cfg.notch_cutoff, prf)
    except ValueError:  # all that cfg and _check_fit leave unchecked is the step state
        raise ConfigMismatchError(f"notch_cutoff = {cfg.notch_cutoff!r} Hz rounds a pole of the "
                                  f"order-{cfg.notch_order} high-pass onto or too near z = 1 "
                                  f"for a step state that cancels a constant at {prf!r} Hz, "
                                  f"the chirp rate") from None
    return _stft(_slow_time_series(params, chunks, cfg, sos), prf, cfg)


def _slow_time_series(params: RadarParams, chunks, cfg: PipelineConfig,
                      sos: np.ndarray) -> np.ndarray:
    """The num_chirps slow-time series of the chunks, filtered by sos.

    Each chunk is cast to complex128 and reduced to one sample per chirp
    before the next is taken, so beside the 16 B/chirp series only one
    chunk, its cast and one filter group are held. The cast is a temporary
    of the statement that uses it: bound to a name, it would live on beside
    the next cast or the filter's working set. A chunk must start on a
    BLOCK boundary and lie inside one CHIRP_BLOCK group; a ValueError names
    the chirp of one that does not. A full group, or the last, is filtered
    in place from the state the one before left; sosfilt's products round
    by row count, so the groups, not the chunks, fix the bits.

    Coherent mode: range FFT plus the sum over [range_bin_start,
    range_bin_end] is one linear functional per chirp, w[i] = sum_r
    exp(-2j*pi*r*i/N), applied as w @ chunk into the series, whose one-row
    span is the group. Each output is a dot product over fast time, so no
    cut into chunks or BLAS threads moves a bit; the filter and its start
    are linear, so filtering the sum equals summing filtered bins.

    Non-coherent mode: magnitudes do not commute with the filter, so the
    chunks' range-FFT bins fill one [bins, CHIRP_BLOCK] group, whose
    filtered magnitudes, summed over the bins, fill the series.
    """
    n, num_chirps = params.num_fast_samples, params.num_chirps
    bins = np.arange(cfg.range_bin_start, cfg.range_bin_end + 1)
    if cfg.coherent:
        # reduce r*i modulo N so every twiddle angle stays below 2*pi
        w = np.exp(-2j * np.pi * (np.outer(bins, np.arange(n)) % n) / n).sum(axis=0)
    else:
        group = np.empty((bins.size, min(CHIRP_BLOCK, num_chirps)), dtype=np.complex128)
    series = np.empty(num_chirps, dtype=np.complex128)
    start, zi = 0, None
    for chunk in chunks:
        count, first = chunk.shape[1], start % CHIRP_BLOCK
        if start % BLOCK:
            raise ValueError(f"chunk at chirp {start} follows a partial {BLOCK}-chirp block")
        if first + count > CHIRP_BLOCK:
            raise ValueError(f"chunk at chirp {start} crosses the {CHIRP_BLOCK}-chirp group "
                             f"ending at chirp {start - first + CHIRP_BLOCK}")
        if cfg.coherent:
            # one product per read; a CLI process runs it on one BLAS thread
            series[start : start + count] = w @ chunk.astype(np.complex128, copy=False)
            kept = series[np.newaxis, start - first : start + count]
        else:
            group[:, first : first + count] = np.fft.fft(
                chunk.astype(np.complex128, copy=False), n=n, axis=0)[bins]
            kept = group[:, : first + count]
        if first + count == CHIRP_BLOCK or start + count == num_chirps:
            _, zi = sosfilt(sos, kept, zi, out=kept)
            if not cfg.coherent:
                series[start - first : start + count] = np.abs(kept).sum(axis=0)
        start += count
    return series


def log_floor(spec: Spectrogram, floor: float) -> float:
    """floor * max(power), the level the power is clipped to before the log. A floor
    of 1 or above would clip every cell to one level, so it must lie in (0, 1)."""
    if not 0 < floor < 1:
        raise ValueError(f"floor must lie in (0, 1), got {floor!r}")
    peak = spec.power.max()
    if peak <= 0:
        raise DegenerateInputError("degenerate input: all-zero spectrogram has no log view")
    return floor * peak


# ---------------------------------------------------------------------------
# persistence: matrix payload + axis sidecar
# ---------------------------------------------------------------------------

def save_spectrogram(spec: Spectrogram, path, format: str = "bin") -> Path:
    """Write the power matrix plus a ``<name>.meta`` axis sidecar, or for ``pgm``
    only an image (see write_frames). Frames are computed or read a block at a time
    as they are written; only pgm reads them whole."""
    return write_frames(spec.power, path, format, [
        ("kind", "spectrogram"),
        ("num_frames", spec.num_frames),
        ("num_freq_bins", spec.num_freq_bins),
        ("f_max", spec.f_max),
        ("frame_dt", spec.frame_dt),
    ])


def read_whole(framed, path):
    """A Spectrogram or RASpectrogram opened on the file ``path``, with its power read
    whole and checked; the file is closed, and a power check that fails names it."""
    with framed.power:
        try:
            return _in_memory(framed)
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from None


def load_spectrogram(path) -> Spectrogram:
    """Read a spectrogram; sidecar counts must match the matrix, and a missing or bad
    key, or a value Spectrogram rejects, names the sidecar. A power matrix that is not
    finite and non-negative names the matrix file."""
    return read_whole(open_spectrogram(path), path)


def open_spectrogram(path) -> Spectrogram:
    """A spectrogram file with its power left in the file as a PowerFile, which the
    caller closes. The checks are load_spectrogram's, but the power is checked a block
    at a time as it is read; a sidecar value that Spectrogram rejects names the sidecar
    (see open_framed_matrix)."""
    def build(power, meta, frame_dt):
        sidecar_count(path, meta, "num_freq_bins", power.shape[1], "columns")
        return Spectrogram(power=power, f_max=sidecar_value(path, meta, "f_max"),
                           frame_dt=frame_dt)
    return open_framed_matrix(path, "spectrogram", build)
