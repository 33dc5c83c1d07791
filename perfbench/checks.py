"""Independent output checks for the pipeline benchmark.

Every check re-derives the expected result from the artifacts on disk
with code of its own (matrix reader, sidecar parser, corner objective,
triangular rebin, per-frame argmax) and returns a list of error strings;
an empty list means the output is correct. Nothing here imports the
package under test, so a defect in it cannot hide a defect in the checks.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

# Corner (f_c, bins) of each built-in preset at the default configuration.
PRESET_CORNERS = {"fall_like": 86, "limp_like": 19, "walk_like": 57, "static_like": 15}

RTOL = 1e-9
_HEADER = struct.Struct("<4sB3sII")
_TINY_MEAN = 1e-300


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_kv(path) -> dict[str, str]:
    """``key = value`` lines; repeated keys keep the last value."""
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.lstrip().startswith("#"):
            out[key.strip()] = value.strip()
    return out


def read_matrix(path) -> np.ndarray:
    """Real f64 matrix from an RDMX ``bin`` file."""
    blob = Path(path).read_bytes()
    magic, dtype, _, rows, cols = _HEADER.unpack_from(blob)
    if magic != b"RDMX" or dtype != 0:
        raise ValueError(f"{path}: not a real RDMX matrix")
    if len(blob) != _HEADER.size + 8 * rows * cols:
        raise ValueError(f"{path}: payload size does not match {rows}x{cols}")
    return np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(rows, cols)


def read_track(path) -> np.ndarray:
    """Columns frame_time, raw_peak, smoothed of a track CSV."""
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------

def energy_profile(power: np.ndarray, floor: float) -> np.ndarray:
    """Floored log10 power summed over frames, one value per signed bin."""
    return np.log10(np.maximum(power, floor * power.max())).sum(axis=0)


def corner_objective(e: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum three-segment objective J over all splits, and the J table.

    Row a is the left split at array index a + 1, column b the right split
    at index zero + 1 + b; J is the sum of n * log10(mean e^2) over the
    below-band, in-band and above-band segments that share the split bins.
    """
    size = e.size
    zero = size // 2
    prefix = np.concatenate([[0.0], np.cumsum(e * e)])
    i1 = np.arange(1, zero)
    i2 = np.arange(zero + 1, size - 1)

    def score(total, n):
        return n * np.log10(np.maximum(total / n, _TINY_MEAN))

    low = score(prefix[i1 + 1], (i1 + 1).astype(float))
    high = score(prefix[size] - prefix[i2], (size - i2).astype(float))
    table = np.empty((i1.size, i2.size))
    for row, a in enumerate(i1):
        n_mid = (i2 - a + 1).astype(float)
        table[row] = low[row] + score(prefix[i2 + 1] - prefix[a], n_mid) + high
    return float(table.min()), table


def triangular_weights(p: np.ndarray) -> np.ndarray:
    """Dense [M, f_max + 1] triangular filter weights on break points p.

    Interval k is [p_k, p_{k+1}), the last one closed; a bin in it gives
    its rising share to filter k + 1 and the rest to filter k.
    """
    m_count = p.size - 2
    f_max = int(round(p[-1]))
    bins = np.arange(f_max + 1, dtype=float)
    k = np.minimum(np.searchsorted(p, bins, side="right") - 1, m_count)
    rise = (bins - p[k]) / (p[k + 1] - p[k])
    weights = np.zeros((m_count + 2, f_max + 1))
    cols = np.arange(f_max + 1)
    weights[k + 1, cols] = rise
    weights[k, cols] += 1.0 - rise
    return weights[1:-1]


def reference_rebin(power: np.ndarray, p: np.ndarray) -> np.ndarray:
    """RA power from a spectrogram: mirrored negative half, then positive half."""
    half = power.shape[1] // 2
    weights = triangular_weights(p)
    pos = np.concatenate([power[:, half:], power[:, :1]], axis=1) @ weights.T
    neg = power[:, half::-1] @ weights.T
    return np.concatenate([neg[:, ::-1], pos], axis=1)


def break_points(meta: dict[str, str]) -> np.ndarray:
    m_count = int(meta["num_filters"])
    return np.array([float(meta[f"p_{m}"]) for m in range(m_count + 2)])


def ra_axis(meta: dict[str, str]) -> np.ndarray:
    centers = break_points(meta)[1:-1] * float(meta["hz_per_bin"])
    return np.concatenate([-centers[::-1], centers])


def spectrogram_axis(meta: dict[str, str], num_bins: int) -> np.ndarray:
    f_max = float(meta["f_max"])
    return (np.arange(num_bins) - num_bins // 2) * (2.0 * f_max / num_bins)


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1.0)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_manifest(manifest, cwd) -> list[str]:
    """Every ``output = <path> sha256:<hex>`` line matches a fresh hash."""
    manifest = Path(manifest)
    if not manifest.exists():
        return [f"{manifest.name}: missing"]
    errors, outputs = [], 0
    for line in manifest.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() != "output":
            continue
        outputs += 1
        name, _, digest = value.strip().rpartition(" sha256:")
        path = Path(cwd) / name
        if not path.exists():
            errors.append(f"{manifest.name}: output {name} missing")
        elif sha256_file(path) != digest:
            errors.append(f"{manifest.name}: sha256 of {name} does not match")
    if not outputs:
        errors.append(f"{manifest.name}: no output lines")
    return errors


def check_ra(spec_power, ra_power, meta, floor, preset=None) -> list[str]:
    """Corner optimality, preset corner, and rebin of one RA artifact."""
    errors = []
    e = energy_profile(spec_power, floor)
    j_min, table = corner_objective(e)
    zero = e.size // 2
    f_nc, f_pc = int(meta["f_nc_bins"]), int(meta["f_pc_bins"])
    objective = float(meta["objective_value"])
    if _relative_gap(objective, j_min) > RTOL:
        errors.append(f"objective_value {objective!r} != minimum J {j_min!r}")
    row, col = f_nc + zero - 1, f_pc - 1
    if not (0 <= row < table.shape[0] and 0 <= col < table.shape[1]):
        errors.append(f"reported split ({f_nc}, {f_pc}) is outside the search range")
    elif _relative_gap(float(table[row, col]), j_min) > RTOL:
        errors.append(f"J at reported split ({f_nc}, {f_pc}) is not the minimum")
    if preset is not None and int(meta["f_c_bins"]) != PRESET_CORNERS[preset]:
        errors.append(f"{preset}: f_c {meta['f_c_bins']} != {PRESET_CORNERS[preset]} bins")
    expected = reference_rebin(spec_power, break_points(meta))
    if ra_power.shape != expected.shape:
        errors.append(f"RA shape {ra_power.shape} != {expected.shape}")
    elif not np.allclose(ra_power, expected, rtol=RTOL, atol=0.0):
        worst = float(np.max(np.abs(ra_power - expected) / np.maximum(np.abs(expected), 1e-300)))
        errors.append(f"RA power differs from the triangular rebin (max rel {worst:.3g})")
    return errors


def check_peaks(power, axis, raw_peaks) -> list[str]:
    """Each raw peak names a column holding its frame's maximum power."""
    if raw_peaks.shape != (power.shape[0],):
        return [f"{raw_peaks.size} raw peaks for {power.shape[0]} frames"]
    cols = np.abs(axis[None, :] - raw_peaks[:, None]).argmin(axis=1)
    exact = axis[cols] == raw_peaks
    picked = power[np.arange(power.shape[0]), cols]
    bad = np.nonzero(~exact | (picked != power.max(axis=1)))[0]
    if bad.size:
        return [f"raw peak is not the frame argmax in {bad.size} frames (first {int(bad[0])})"]
    return []


def check_ra_files(spec_path, ra_path, floor, preset=None) -> list[str]:
    spec = read_matrix(spec_path)
    meta = read_kv(str(ra_path) + ".meta")
    return check_ra(spec, read_matrix(ra_path), meta, floor, preset)


def check_track_file(matrix_path, track_path) -> list[str]:
    power = read_matrix(matrix_path)
    meta = read_kv(str(matrix_path) + ".meta")
    if meta.get("kind") == "ra_spectrogram":
        axis = ra_axis(meta)
    else:
        axis = spectrogram_axis(meta, power.shape[1])
    return check_peaks(power, axis, read_track(track_path)[:, 1])
