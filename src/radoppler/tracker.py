"""Dominant-signature extraction: per-frame peak picking plus Kalman smoothing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import row_blocks

__all__ = [
    "SignatureTrack",
    "peak_track",
    "kalman_smooth",
    "track_signature",
    "write_track_csv",
]

PEAK_BLOCK = 1 << 16  # matrix elements per peak-picking block


@dataclass(frozen=True)
class SignatureTrack:
    raw_peaks: np.ndarray  # axis units, one per frame
    smoothed: np.ndarray  # Kalman-filtered, clipped to the axis range
    frame_times: np.ndarray  # seconds

    def __post_init__(self):
        raw = np.asarray(self.raw_peaks, dtype=np.float64)
        smoothed = np.asarray(self.smoothed, dtype=np.float64)
        times = np.asarray(self.frame_times, dtype=np.float64)
        if not raw.size or raw.shape != smoothed.shape or raw.shape != times.shape:
            raise ValueError("track vectors must be non-empty and equally long")
        for arr in (raw, smoothed, times):
            arr.setflags(write=False)
        object.__setattr__(self, "raw_peaks", raw)
        object.__setattr__(self, "smoothed", smoothed)
        object.__setattr__(self, "frame_times", times)


def peak_track(power, axis: np.ndarray) -> np.ndarray:
    """Axis value of the strongest bin in each frame (row).

    Ties go to the bin whose axis value is nearest zero frequency, then
    to the lower bin index, so flat frames resolve deterministically.
    Frames are reordered and searched PEAK_BLOCK elements at a time, so
    the matrix is never copied whole; ``power`` is a matrix, or a reader of
    row blocks such as ingest.MatrixReader or its subclass linspec.PowerFile,
    which checks each block it reads.
    """
    if not hasattr(power, "blocks"):
        power = np.asarray(power, dtype=np.float64)
    axis = np.asarray(axis, dtype=np.float64)
    if len(power.shape) != 2 or 0 in power.shape:
        raise ValueError("power must be a non-empty 2-D matrix")
    if axis.shape != (power.shape[1],):
        raise ValueError("axis length must match the column count")
    prefer = np.lexsort((np.arange(axis.size), np.abs(axis)))
    rows = max(1, PEAK_BLOCK // axis.size)
    edges = [(start, min(start + rows, power.shape[0]))
             for start in range(0, power.shape[0], rows)]
    pick = np.empty(power.shape[0], dtype=np.intp)
    for (start, stop), frames in zip(edges, row_blocks(power, edges)):
        block = frames[:, prefer]
        finite = np.isfinite(block)
        if not finite.all():
            row = int(np.flatnonzero(~finite.all(axis=1))[0])
            col = int(prefer[~finite[row]].min())
            raise ValueError(f"power must be finite; frame {start + row} holds "
                             f"{frames[row, col]} in column {col}")
        # argmax keeps the first occurrence, i.e. the most preferred tied bin
        pick[start:stop] = block.argmax(axis=1)
    return axis[prefer[pick]]


def kalman_smooth(raw: np.ndarray, dt: float, q: float = 10.0, r: float = 4.0) -> np.ndarray:
    """Forward constant-velocity Kalman filter over a peak sequence.

    State is [frequency, frequency rate] with white-noise acceleration of
    spectral density q (axis-units²/s³) and measurement variance r
    (axis-units²). The filter starts at [raw[0], 0] under a diffuse prior
    (1e6 * r on both diagonal entries), so the first update trusts the
    measurement almost entirely. Non-finite raw values, and dt, q or r
    that are not finite and positive, raise ValueError.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("raw peak vector must be non-empty and 1-D")
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise ValueError(f"raw peak vector must be finite; frame {bad[0]} is {raw[bad[0]]}")
    for name, value in (("dt", dt), ("q", q), ("r", r)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    dt, q, r = float(dt), float(q), float(r)

    # Plain-float recursion: F = [[1, dt], [0, 1]] with its exact 1 and 0
    # products dropped, each sum in the order of F @ P @ F.T + Q.
    try:
        q00, q01, q11 = q * (dt**3 / 3.0), q * (dt**2 / 2.0), q * dt
    except OverflowError:  # float ** raises where * gives inf; caught below
        q00 = q01 = q11 = math.inf
    zs = raw.tolist()
    x0, x1 = zs[0], 0.0
    p00, p01, p10, p11 = 1e6 * r, 0.0, 0.0, 1e6 * r
    out = []
    for k, z in enumerate(zs):
        if k:
            x0 = x0 + dt * x1
            a00 = p00 + dt * p10  # F @ P
            a01 = p01 + dt * p11
            p00 = (a00 + dt * a01) + q00  # (F @ P) @ F.T + Q
            p01 = a01 + q01
            p10 = (p10 + dt * p11) + q01
            p11 = p11 + q11
        s = p00 + r  # innovation covariance; positive since r > 0, P PSD
        g0, g1 = p00 / s, p10 / s
        innovation = z - x0
        x0, x1 = x0 + g0 * innovation, x1 + g1 * innovation
        p00, p01, p10, p11 = p00 - g0 * p00, p01 - g0 * p01, p10 - g1 * p00, p11 - g1 * p01
        out.append(x0)
    smoothed = np.array(out)
    if not np.isfinite(smoothed).all():
        raise ValueError(f"the filter overflows at dt={dt!r}, q={q!r}, r={r!r}")
    return smoothed


def track_signature(
    power,
    axis: np.ndarray,
    frame_times: np.ndarray,
    q: float = 10.0,
    r: float = 4.0,
) -> SignatureTrack:
    """Peak-pick every frame (see peak_track), smooth, and clip back into the axis range.

    Frame times must increase and be evenly spaced: no spacing may depart
    from the first by more than 1e-6 of it. A single frame is smoothed at
    unit dt.
    """
    raw = peak_track(power, axis)
    times = np.asarray(frame_times, dtype=np.float64)
    if times.shape != raw.shape:
        raise ValueError("frame_times length must match the frame count")
    dt = float(times[1] - times[0]) if times.size > 1 else 1.0
    steps = np.diff(times)
    bad = np.flatnonzero(~((steps > 0) & (np.abs(steps - dt) <= 1e-6 * dt)))
    if bad.size:
        k = bad[0] + 1
        raise ValueError(f"frame_times must increase: frame {k} is at {float(times[k])!r} s, "
                         f"frame {k - 1} at {float(times[k - 1])!r} s, and every spacing must "
                         f"be within 1e-6 of the first, {dt!r} s")
    smoothed = np.clip(kalman_smooth(raw, dt, q=q, r=r), axis.min(), axis.max())
    return SignatureTrack(raw_peaks=raw, smoothed=smoothed, frame_times=times)


def write_track_csv(track: SignatureTrack, path, axis_kind: str = "doppler_hz") -> Path:
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# axis: {axis_kind}\n")
        fh.write("frame_time,raw_peak,smoothed\n")
        for t, raw, sm in zip(track.frame_times, track.raw_peaks, track.smoothed):
            fh.write("%.17g,%.17g,%.17g\n" % (t, raw, sm))
    return path
