"""Data model and file formats: radar cubes, matrices, pipeline configuration.

File dialects
-------------
Cube payload ``<name>.iq``
    Interleaved I/Q as 32-bit little-endian IEEE-754 floats. The fast-time
    index varies fastest: all samples of chirp 0, then chirp 1, and so on.
Cube sidecar ``<name>.meta``
    Plain-text ``key = value`` lines, one per RadarParams field.
Matrix ``bin``
    16-byte header: magic ``RDMX``, u8 dtype (always 0: f64 real), 3
    reserved bytes, u32 rows, u32 cols, little-endian; row-major f64
    payload.
Matrix sidecar ``<matrix file name>.meta``
    ``key = value`` lines; ``kind`` says what the matrix holds.
Matrix ``csv``
    One matrix row per line, comma-separated floats, ``%.17g`` formatting.
Matrix ``pgm``
    8-bit binary PGM of the log-scaled, min-max-normalized magnitudes;
    display-only, not loadable.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import FileFormatError

SPEED_OF_LIGHT = 299_792_458.0

_MATRIX_MAGIC = b"RDMX"
_MATRIX_HEADER = struct.Struct("<4sB3sII")

WINDOW_KINDS = ("hann", "hamming", "rect")

CHIRP_BLOCK = 4096  # chirps per read, write or rendered tile of a cube payload


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadarParams:
    """Acquisition geometry of one FMCW dwell.

    sample_rate is the fast-time ADC rate; chirp_repetition_freq is the
    slow-time sampling rate (PRF), so half of it bounds the unambiguous
    Doppler band.
    """

    num_fast_samples: int
    num_chirps: int
    sample_rate: float
    chirp_repetition_freq: float
    center_freq: float
    bandwidth: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"RadarParams.{f.name} must be finite, got {value!r}")
            if value <= 0:
                raise ValueError(f"RadarParams.{f.name} must be strictly positive")
        if self.chirp_repetition_freq > self.sample_rate:
            raise ValueError("chirp_repetition_freq must not exceed sample_rate")

    @property
    def range_resolution(self) -> float:
        """Meters per range bin (full chirp sampled)."""
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth)

    @property
    def chirp_duration(self) -> float:
        return self.num_fast_samples / self.sample_rate


@dataclass(frozen=True)
class RadarCube:
    """Raw complex fast-time x slow-time sample matrix plus its parameters."""

    params: RadarParams
    samples: np.ndarray  # complex, [num_fast_samples, num_chirps]

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        expected = (self.params.num_fast_samples, self.params.num_chirps)
        if samples.shape != expected:
            raise ValueError(
                f"cube samples shape {samples.shape} does not match params {expected}"
            )
        if not np.all(np.isfinite(samples.real)) or not np.all(np.isfinite(samples.imag)):
            raise ValueError("cube contains non-finite samples")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the cube -> spectrogram -> RA-spectrogram pipeline.

    Defaults give a 256-bin signed-frequency axis with a 128-chirp hann
    window. ``coherent`` selects complex range-profile summation; setting
    it false sums magnitudes instead.
    """

    range_bin_start: int = 0
    range_bin_end: int = 63
    window_kind: str = "hann"
    window_length: int = 128
    hop: int = 16
    fft_length: int = 256
    notch_cutoff: float = 0.01
    notch_order: int = 4
    num_filters: int = 64
    log_floor: float = 1e-12
    coherent: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"PipelineConfig.{f.name} must be finite, got {value!r}")
        if not (0 <= self.range_bin_start <= self.range_bin_end):
            raise ValueError("need 0 <= range_bin_start <= range_bin_end")
        if not (1 <= self.hop <= self.window_length <= self.fft_length):
            raise ValueError("need 1 <= hop <= window_length <= fft_length")
        if self.fft_length % 2:
            raise ValueError("fft_length must be even for a symmetric frequency axis")
        if self.window_kind not in WINDOW_KINDS:
            raise ValueError(f"window_kind must be one of {WINDOW_KINDS}")
        if self.num_filters < 2:
            raise ValueError("num_filters must be >= 2")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")
        if self.notch_cutoff <= 0:
            raise ValueError("notch_cutoff must be positive")
        if self.notch_order < 2 or self.notch_order % 2:
            raise ValueError("notch_order must be even and >= 2")


# ---------------------------------------------------------------------------
# key = value sidecar dialect
# ---------------------------------------------------------------------------

def format_kv(pairs) -> str:
    """Render (key, value) pairs as one ``key = value`` line each."""
    lines = []
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def parse_kv(text: str) -> list[tuple[str, str]]:
    """Parse the sidecar dialect, preserving key order and repeats."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FileFormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def kv_as_dict(pairs, *, source: str = "sidecar") -> dict[str, str]:
    out = {}
    for key, value in pairs:
        if key in out:
            raise FileFormatError(f"{source}: duplicate key {key!r}")
        out[key] = value
    return out


def _coerce(value: str, kind: type, key: str):
    try:
        if kind is str:
            return value
        if kind is bool:
            lowered = value.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(value)
        if kind is int:
            return int(value)
        return float(value)
    except ValueError:
        raise ValueError(f"key {key!r}: cannot parse {value!r} as {kind.__name__}") from None


def field_pairs(obj) -> list[tuple[str, object]]:
    """A dataclass instance as (field name, value) pairs in declaration order."""
    return [(f.name, getattr(obj, f.name)) for f in fields(obj)]


def from_kv(cls, pairs, source, defaults: bool = False, **given):
    """Build dataclass ``cls`` from parsed ``key = value`` pairs.

    Each key names a field and is parsed by the field's annotation. Fields
    passed in ``given`` are not read from the pairs. Duplicate and unknown
    keys are rejected, and so are missing ones, except that ``defaults``
    lets a field with a default keep it. Every error, including the checks
    of ``cls`` itself, becomes a FileFormatError that names ``source``.
    """
    values = kv_as_dict(pairs, source=str(source))
    kinds = {name: kind for name, kind in get_type_hints(cls).items() if name not in given}
    unknown = sorted(set(values) - set(kinds))
    if unknown:
        raise FileFormatError(f"{source}: unknown keys {unknown}")
    required = {f.name for f in fields(cls)
                if not defaults or (f.default is MISSING and f.default_factory is MISSING)}
    missing = sorted((required & set(kinds)) - set(values))
    if missing:
        raise FileFormatError(f"{source}: missing keys {missing}")
    try:
        parsed = {key: _coerce(value, kinds[key], key) for key, value in values.items()}
        return cls(**parsed, **given)
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc


def sidecar_path(path) -> Path:
    """The ``<name>.meta`` sidecar of a matrix file ``<name>``."""
    path = Path(path)
    return path.with_name(path.name + ".meta")


def read_sidecar(path, kind: str | None) -> dict[str, str]:
    """The sidecar of a matrix file as a dict, checked to exist and, unless
    ``kind`` is None, to declare ``kind = <kind>``."""
    sidecar = sidecar_path(path)
    if not sidecar.exists():
        raise FileFormatError(f"sidecar not found: {sidecar}")
    meta = kv_as_dict(parse_kv(sidecar.read_text()), source=str(sidecar))
    if kind is not None and meta.get("kind") != kind:
        raise FileFormatError(f"{sidecar}: not a {kind} sidecar")
    return meta


def sidecar_value(path, meta: dict[str, str], key: str, kind: type = float):
    """``meta[key]`` as ``kind``; a bad value names the key and the sidecar of ``path``."""
    if key not in meta:
        raise FileFormatError(f"{sidecar_path(path)}: missing keys {[key]}")
    try:
        value = _coerce(meta[key], kind, key)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"key {key!r} must be finite, got {meta[key]!r}")
        return value
    except ValueError as exc:
        raise FileFormatError(f"{sidecar_path(path)}: {exc}") from None


def sidecar_frame_dt(path, meta: dict[str, str], num_frames: int) -> float:
    """The sidecar's ``frame_dt``, positive unless the matrix has a single frame."""
    dt = sidecar_value(path, meta, "frame_dt")
    if num_frames > 1 and dt <= 0:
        raise FileFormatError(f"{sidecar_path(path)}: key 'frame_dt' must be positive "
                              f"for {num_frames} frames, got {meta['frame_dt']!r}")
    return dt


def sidecar_count(path, meta: dict[str, str], key: str, count: int, what: str) -> None:
    """Check the sidecar's ``key`` against the ``count`` matrix ``what`` it describes."""
    declared = sidecar_value(path, meta, key, int)
    if declared != count:
        raise FileFormatError(f"{sidecar_path(path)}: key {key!r} = {declared} does not "
                              f"match the {count} matrix {what}")


# ---------------------------------------------------------------------------
# radar cube files
# ---------------------------------------------------------------------------

def _cube_paths(path) -> tuple[Path, Path]:
    payload = Path(path)
    if payload.suffix != ".iq":
        payload = payload.with_suffix(".iq")
    return payload, payload.with_suffix(".meta")


def write_radar_cube(cube: RadarCube, path) -> Path:
    """Write ``<name>.iq`` + ``<name>.meta``; returns the payload path."""
    payload_path, meta_path = _cube_paths(path)
    p = cube.params
    meta_path.write_text(format_kv(field_pairs(p)))
    # chirp-major on disk, so each block is transposed; a little-endian
    # complex64 is one interleaved float32 I/Q pair
    with payload_path.open("wb") as fh:
        for start in range(0, p.num_chirps, CHIRP_BLOCK):
            fh.write(np.ascontiguousarray(cube.samples[:, start : start + CHIRP_BLOCK].T,
                                          dtype="<c8"))
    return payload_path


class CubeReader:
    """A cube file whose sidecar and payload size have been checked.

    Constructing one parses and validates ``<name>.meta`` and compares the
    payload's size on disk with the declared shape; nothing of the payload
    is read yet. Iterating reads it CHIRP_BLOCK chirps at a time into one
    reused float32 buffer, checks each block for non-finite values, and
    yields it as a complex64 [chirps, num_fast_samples] view. The next
    block overwrites that view, so consume or copy it before advancing.
    """

    def __init__(self, path):
        self.payload, meta_path = _cube_paths(path)
        if not self.payload.exists():
            raise FileFormatError(f"cube payload not found: {self.payload}")
        if not meta_path.exists():
            raise FileFormatError(f"cube sidecar not found: {meta_path}")

        self.params = from_kv(RadarParams, parse_kv(meta_path.read_text()), meta_path)

        expected = 2 * self.params.num_fast_samples * self.params.num_chirps
        size = self.payload.stat().st_size
        if size != 4 * expected:
            held = f"{size // 4} floats" if size % 4 == 0 else f"{size} bytes"
            raise FileFormatError(
                f"{self.payload}: payload holds {held}, metadata declares {expected}"
            )

    def __iter__(self):
        p = self.params
        buffer = np.empty((min(CHIRP_BLOCK, p.num_chirps), p.num_fast_samples, 2), dtype="<f4")
        with self.payload.open("rb") as fh:
            for start in range(0, p.num_chirps, CHIRP_BLOCK):
                block = buffer[: min(CHIRP_BLOCK, p.num_chirps - start)]
                if fh.readinto(memoryview(block).cast("B")) != block.nbytes:
                    raise FileFormatError(f"{self.payload}: payload ended while being read")
                if not np.all(np.isfinite(block)):
                    raise FileFormatError(f"{self.payload}: payload contains non-finite samples")
                yield block.view("<c8")[..., 0]


def load_radar_cube(path) -> RadarCube:
    """Read a whole cube into memory (see CubeReader for the checks)."""
    reader = CubeReader(path)
    p = reader.params
    chirp_major = np.empty((p.num_chirps, p.num_fast_samples), dtype=np.complex128)
    start = 0
    for block in reader:
        chirp_major[start : start + len(block)] = block
        start += len(block)
    return RadarCube(params=p, samples=chirp_major.T)


# ---------------------------------------------------------------------------
# matrix files
# ---------------------------------------------------------------------------

def write_matrix(matrix: np.ndarray, path, format: str = "bin") -> Path:
    """Persist a real matrix as csv, bin, or pgm; a complex one raises ValueError."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("matrix must be 2-D and non-empty")
    if np.iscomplexobj(matrix):
        raise ValueError(f"matrix must be real, got {matrix.dtype}")
    path = Path(path)
    if format == "bin":
        _write_matrix_bin(matrix, path)
    elif format == "csv":
        np.savetxt(path, matrix, fmt="%.17g", delimiter=",")
    elif format == "pgm":
        _write_matrix_pgm(matrix, path)
    else:
        raise ValueError(f"unknown matrix format {format!r}")
    return path


def load_matrix(path) -> np.ndarray:
    """Load a float64 matrix written by write_matrix (csv or bin), opening the file once."""
    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"matrix file not found: {path}")
    with path.open("rb") as fh:
        head = fh.read(_MATRIX_HEADER.size)
        if head[:4] == _MATRIX_MAGIC:
            return _load_matrix_bin(path, fh, head)
        if head[:2] in (b"P5", b"P2"):
            raise FileFormatError(f"{path}: pgm is a display format and cannot be loaded")
        text = (head + fh.read()).decode()
    return _load_matrix_csv(path, text)


def _write_matrix_bin(matrix: np.ndarray, path: Path) -> None:
    rows, cols = matrix.shape
    with path.open("wb") as fh:
        fh.write(_MATRIX_HEADER.pack(_MATRIX_MAGIC, 0, b"\x00" * 3, rows, cols))
        fh.write(np.ascontiguousarray(matrix, dtype="<f8"))


def _load_matrix_bin(path: Path, fh, head: bytes) -> np.ndarray:
    """Check the header read from ``fh`` and the size on disk, then read the
    payload into one preallocated array."""
    if len(head) < _MATRIX_HEADER.size:
        raise FileFormatError(f"{path}: truncated header")
    _, dtype, _, rows, cols = _MATRIX_HEADER.unpack(head)
    if dtype != 0:
        raise FileFormatError(f"{path}: unknown dtype code {dtype}")
    expected = _MATRIX_HEADER.size + rows * cols * 8
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise FileFormatError(f"{path}: payload is {size} bytes, header declares {expected}")
    matrix = np.empty((rows, cols), dtype="<f8")
    if fh.readinto(memoryview(matrix).cast("B")) != matrix.nbytes:
        raise FileFormatError(f"{path}: payload ended while being read")
    return matrix


def _load_matrix_csv(path: Path, text: str) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FileFormatError(f"{path}:{lineno}: ragged row ({len(cells)} != {width})")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise FileFormatError(f"{path}: empty matrix file")
    return np.array(rows, dtype=np.float64)


def _write_matrix_pgm(matrix: np.ndarray, path: Path, floor: float = 1e-12) -> None:
    mags = np.abs(matrix).astype(np.float64)
    peak = mags.max()
    if peak > 0:
        levels = np.log10(np.maximum(mags, floor * peak))
        lo, hi = levels.min(), levels.max()
        if hi > lo:
            pixels = np.rint((levels - lo) / (hi - lo) * 255.0)
        else:
            pixels = np.zeros_like(levels)
    else:
        pixels = np.zeros_like(mags)
    rows, cols = matrix.shape
    with path.open("wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# pipeline config files
# ---------------------------------------------------------------------------

def write_config(cfg: PipelineConfig, path) -> Path:
    path = Path(path)
    path.write_text(format_kv(field_pairs(cfg)))
    return path


def load_config(path) -> PipelineConfig:
    """Read a config file; keys left out fall back to the defaults."""
    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"config file not found: {path}")
    return from_kv(PipelineConfig, parse_kv(path.read_text()), path, defaults=True)
