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
import numbers
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

CHIRP_BLOCK = 4096  # chirps per rendered tile of a cube, and per non-coherent filter group
CHIRP_SLICE = 1024  # chirps per cube block written, read, cast or reduced at once
FRAME_BLOCK = 128  # frames per block of the STFT, the energy profile and spectrogram writes


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def check_finite(obj) -> None:
    """Raise ValueError naming the first real field of dataclass ``obj`` that is not
    finite. Integers are finite (and may be too large for math.isfinite)."""
    for name, value in field_pairs(obj):
        if (isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral)
                and not math.isfinite(value)):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {value!r}")


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
        check_finite(self)
        for name, value in field_pairs(self):
            if value <= 0:
                raise ValueError(f"RadarParams.{name} must be strictly positive")
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
        check_finite(self)
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
        if not 0 < self.log_floor < 1:
            # at 1 or above every cell is floored to one level, and e(f) is flat
            raise ValueError(f"log_floor must lie in (0, 1), got {self.log_floor!r}")
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
    """Write ``<name>.iq`` + ``<name>.meta`` (see write_cube); returns the payload path."""
    starts = range(0, cube.params.num_chirps, CHIRP_SLICE)
    return write_cube(cube.params, (cube.samples[:, s : s + CHIRP_SLICE] for s in starts), path)


def write_cube(params: RadarParams, blocks, path) -> Path:
    """Write ``<name>.meta``, then ``<name>.iq`` from ``blocks``, complex
    [num_fast_samples, n] arrays of consecutive chirps; returns the payload path.

    Each block is transposed to chirp-major and cast to little-endian complex64
    (one interleaved float32 I/Q pair) before it is written. A block that is
    non-finite once cast, a block that does not fit the declared shape, or too
    few chirps raise ValueError, and a failed write removes both files.
    """
    payload_path, meta_path = _cube_paths(path)
    meta_path.write_text(format_kv(field_pairs(params)))
    try:
        with payload_path.open("wb") as fh:
            written = 0
            for block in blocks:
                if (block.shape[0] != params.num_fast_samples
                        or written + block.shape[1] > params.num_chirps):
                    raise ValueError(f"a {block.shape} block does not fit chirps {written}.. "
                                     f"of a {params.num_fast_samples} x {params.num_chirps} cube")
                fh.write(_chirp_major(block))
                written += block.shape[1]
        if written != params.num_chirps:
            raise ValueError(f"{written} chirps written of a {params.num_fast_samples} x "
                             f"{params.num_chirps} cube")
    except BaseException:
        payload_path.unlink(missing_ok=True)
        meta_path.unlink(missing_ok=True)
        raise
    return payload_path


def _chirp_major(block) -> np.ndarray:
    """A [num_fast_samples, n] block as the payload's [n, num_fast_samples] complex64,
    checked to be finite; a temporary of the caller's write, freed before the next block."""
    chirps = np.ascontiguousarray(block.T, dtype="<c8")
    if not np.all(np.isfinite(chirps)):
        raise ValueError("cube contains non-finite samples")
    return chirps


class CubeReader:
    """A cube file whose sidecar and payload size have been checked.

    Constructing one parses and validates ``<name>.meta`` and compares the
    payload's size on disk with the declared shape; nothing of the payload
    is read yet. Iterating reads it CHIRP_SLICE chirps at a time into one
    reused float32 buffer (1 MB at 128 samples per chirp), checks each read
    for non-finite values, and yields it as a complex64 [chirps,
    num_fast_samples] view. The next read overwrites that view, so consume
    or copy it before advancing.
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
        buffer = np.empty((min(CHIRP_SLICE, p.num_chirps), p.num_fast_samples, 2), dtype="<f4")
        with self.payload.open("rb") as fh:
            for start in range(0, p.num_chirps, CHIRP_SLICE):
                block = buffer[: min(CHIRP_SLICE, p.num_chirps - start)]
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

def write_matrix(matrix, path, format: str = "bin") -> Path:
    """Persist a real matrix as csv, bin, or pgm; a complex one raises ValueError.

    ``matrix`` is an array or frames such as linspec.PowerFile. Their rows go
    through one MatrixWriter in their block_edges; a pgm gathers them whole
    first, as its gray levels need. A bad format or a bad pgm block raises
    before the file is created, and a failed block removes the file begun.
    """
    if not hasattr(matrix, "blocks"):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ValueError("matrix must be 2-D and non-empty")
        if np.iscomplexobj(matrix):
            raise ValueError(f"matrix must be real, got {matrix.dtype}")
    if format not in ("bin", "csv", "pgm"):
        raise ValueError(f"unknown matrix format {format!r}")
    path = Path(path)
    if format == "pgm":
        _write_matrix_pgm(gather_rows(matrix), path)
        return path
    with path.open("wb") as fh:
        try:
            writer = MatrixWriter(fh, *matrix.shape, format)
            for block in row_blocks(matrix, block_edges(matrix)):
                writer.write(block)
            writer.finish()
        except BaseException:
            path.unlink(missing_ok=True)
            raise
    return path


def write_frames(power, path, format: str, sidecar) -> Path:
    """Write a matrix of frames (see write_matrix) plus a ``.meta`` of the (key, value)
    pairs ``sidecar``, or for ``pgm`` only an unloadable image with frequency on its rows
    (a steady tone reads as one bright row), whose gray levels need the frames whole."""
    if format == "pgm":
        return write_matrix(gather_rows(power).T, path, format="pgm")
    out = write_matrix(power, path, format)
    sidecar_path(out).write_text(format_kv(sidecar))
    return out


class MatrixWriter:
    """A rows x cols matrix written to an open binary file in row blocks, as bin or csv.

    The bin header goes first, so the row count is fixed before any row is
    known; ``finish`` checks that exactly that many rows came. A csv block is
    one np.savetxt of its rows, which writes a row at a time, so any cut into
    blocks gives the bytes of one np.savetxt of the whole matrix.
    """

    def __init__(self, fh, rows: int, cols: int, format: str = "bin"):
        if format not in ("bin", "csv"):
            raise ValueError(f"unknown matrix format {format!r}")
        self._fh, self.shape, self.format, self.written = fh, (rows, cols), format, 0
        if format == "bin":
            fh.write(_MATRIX_HEADER.pack(_MATRIX_MAGIC, 0, b"\x00" * 3, rows, cols))

    def write(self, block: np.ndarray) -> None:
        """Append the rows of a real [k, cols] block."""
        rows, cols = self.shape
        if block.ndim != 2 or block.shape[1] != cols or self.written + len(block) > rows:
            raise ValueError(f"a {block.shape} block does not fit rows {self.written}.. "
                             f"of a {rows} x {cols} matrix")
        if np.iscomplexobj(block):
            raise ValueError(f"matrix must be real, got {block.dtype}")
        if self.format == "bin":
            self._fh.write(np.ascontiguousarray(block, dtype="<f8"))
        else:
            np.savetxt(self._fh, block, fmt="%.17g", delimiter=",")
        self.written += len(block)

    def finish(self) -> None:
        """Check that every declared row was written; the file stays open."""
        if self.written != self.shape[0]:
            raise ValueError(f"{self.written} rows written of a {self.shape[0]} x "
                             f"{self.shape[1]} matrix")


def load_matrix(path) -> np.ndarray:
    """Load a float64 matrix written by write_matrix (csv or bin), opening the file once."""
    with MatrixReader.open(path) as matrix:
        return matrix.read()


class MatrixReader:
    """A loadable matrix in an open binary file, read whole or in row blocks.

    Constructing one reads the head of ``fh`` (named ``name`` in errors). A
    bin matrix has its header and its size on disk checked, and no payload
    is read yet; a csv matrix is parsed whole and ``fh`` closed. The reader
    owns ``fh`` and closes it on ``close``; ``open`` opens one on a path.
    """

    def __init__(self, fh, name):
        self.name, self._fh, self._matrix = name, fh, None
        head = fh.read(_MATRIX_HEADER.size)
        if head[:4] == _MATRIX_MAGIC:
            self.shape = self._check_bin_header(head)
            return
        if head[:2] in (b"P5", b"P2"):
            raise FileFormatError(f"{name}: pgm is a display format and cannot be loaded")
        text = (head + fh.read()).decode(errors="replace")
        # csv text is UTF-8 without NULs, and a binary header almost always holds one
        if b"\0" in head or "\ufffd" in text:
            raise FileFormatError(f"{name}: neither a bin matrix (no RDMX magic) nor csv text")
        self._matrix = _load_matrix_csv(name, text)
        self.shape = self._matrix.shape
        fh.close()

    @classmethod
    def open(cls, path):
        """Open a matrix file written by write_matrix (csv or bin) for reading."""
        path = Path(path)
        if not path.exists():
            raise FileFormatError(f"matrix file not found: {path}")
        fh = path.open("rb")
        try:
            return cls(fh, path)
        except BaseException:
            fh.close()
            raise

    def _check_bin_header(self, head: bytes) -> tuple[int, int]:
        """The header's shape, checked against the size of the file on disk."""
        if len(head) < _MATRIX_HEADER.size:
            raise FileFormatError(f"{self.name}: truncated header")
        _, dtype, _, rows, cols = _MATRIX_HEADER.unpack(head)
        if dtype != 0:
            raise FileFormatError(f"{self.name}: unknown dtype code {dtype}")
        if not rows or not cols:
            raise FileFormatError(f"{self.name}: header declares an empty {rows} x {cols} matrix")
        expected = _MATRIX_HEADER.size + rows * cols * 8
        size = os.fstat(self._fh.fileno()).st_size
        if size != expected:
            raise FileFormatError(f"{self.name}: payload is {size} bytes, header declares "
                                  f"{expected}")
        return rows, cols

    def _read_rows(self, first: int, out: np.ndarray) -> np.ndarray:
        """Read rows first.. of a bin payload into ``out``, a C-ordered f8 array."""
        self._fh.seek(_MATRIX_HEADER.size + first * 8 * self.shape[1])
        if self._fh.readinto(memoryview(out).cast("B")) != out.nbytes:
            raise FileFormatError(f"{self.name}: payload ended while being read")
        return out

    def read(self) -> np.ndarray:
        """The whole matrix: a bin payload is read into one new array."""
        if self._matrix is not None:
            return self._matrix
        return self._read_rows(0, np.empty(self.shape, dtype="<f8"))

    def blocks(self, edges):
        """Yield rows first:stop for each (first, stop) of ``edges`` in turn. A bin
        payload is read into one reused buffer, so consume or copy each block before
        taking the next."""
        if self._matrix is not None:
            yield from (self._matrix[first:stop] for first, stop in edges)
            return
        buffer = np.empty((max(stop - first for first, stop in edges), self.shape[1]), "<f8")
        for first, stop in edges:
            yield self._read_rows(first, buffer[: stop - first])

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def row_blocks(matrix, edges):
    """Rows first:stop of ``matrix`` for each (first, stop) of ``edges``: slices of an
    array, or the blocks of a reader such as MatrixReader."""
    if isinstance(matrix, np.ndarray):
        return (matrix[first:stop] for first, stop in edges)
    return matrix.blocks(edges)


def frame_blocks(num_frames: int, size: int = FRAME_BLOCK) -> list[tuple[int, int]]:
    """(first, stop) frame ranges of ``size`` rows; the last one takes the rest.

    Every block of a matrix with at least ``size`` frames holds ``size`` to
    2 ``size`` - 1 rows: a BLAS product of a few rows may run another kernel
    (OpenBLAS has one for small matrices) and round differently from the
    same rows of a whole-matrix product.
    """
    edges = [k * size for k in range(max(1, num_frames // size))] + [num_frames]
    return list(zip(edges[:-1], edges[1:]))


def block_edges(matrix) -> list[tuple[int, int]]:
    """The (first, stop) row blocks in which a whole ``matrix`` is read: frame_blocks
    of its own ``block`` size for frames (see linspec.Frames), one block otherwise."""
    return frame_blocks(matrix.shape[0], getattr(matrix, "block", max(1, matrix.shape[0])))


def gather_rows(matrix) -> np.ndarray:
    """The whole of ``matrix``: an array as it is, else one new array of its rows, read
    in its block_edges (the one whole read of frames, see linspec.Frames.read)."""
    if isinstance(matrix, np.ndarray):
        return matrix
    whole, edges = np.empty(matrix.shape), block_edges(matrix)
    for (first, stop), block in zip(edges, row_blocks(matrix, edges)):
        whole[first:stop] = block
    return whole


def _load_matrix_csv(path, text: str) -> np.ndarray:
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


def _write_matrix_pgm(matrix: np.ndarray, path: Path) -> None:
    mags = np.abs(matrix).astype(np.float64)
    peak = mags.max()
    if peak > 0:
        levels = np.log10(np.maximum(mags, 1e-12 * peak))  # gray levels span 12 decades at most
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
