"""Dominant-signature extraction: per-frame peak picking plus Kalman smoothing."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def peak_track(power: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Axis value of the strongest bin in each frame (row).

    Ties go to the bin whose axis value is nearest zero frequency, then
    to the lower bin index, so flat frames resolve deterministically.
    Frames are reordered and searched PEAK_BLOCK elements at a time, so
    the matrix is never copied whole.
    """
    power = np.asarray(power, dtype=np.float64)
    axis = np.asarray(axis, dtype=np.float64)
    if power.ndim != 2 or power.size == 0:
        raise ValueError("power must be a non-empty 2-D matrix")
    if axis.shape != (power.shape[1],):
        raise ValueError("axis length must match the column count")
    prefer = np.lexsort((np.arange(axis.size), np.abs(axis)))
    rows = max(1, PEAK_BLOCK // axis.size)
    pick = np.empty(power.shape[0], dtype=np.intp)
    for start in range(0, power.shape[0], rows):
        # argmax keeps the first occurrence, i.e. the most preferred tied bin
        pick[start : start + rows] = power[start : start + rows, prefer].argmax(axis=1)
    return axis[prefer[pick]]


def kalman_smooth(raw: np.ndarray, dt: float, q: float = 10.0, r: float = 4.0) -> np.ndarray:
    """Forward constant-velocity Kalman filter over a peak sequence.

    State is [frequency, frequency rate] with white-noise acceleration of
    spectral density q (axis-units²/s³) and measurement variance r
    (axis-units²). The filter starts at [raw[0], 0] under a diffuse prior
    (1e6 * r on both diagonal entries), so the first update trusts the
    measurement almost entirely.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("raw peak vector must be non-empty and 1-D")
    if dt <= 0 or q <= 0 or r <= 0:
        raise ValueError("dt, q, and r must all be positive")

    F = np.array([[1.0, dt], [0.0, 1.0]])
    Q = q * np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
    x = np.array([raw[0], 0.0])
    P = np.diag([1e6 * r, 1e6 * r])

    out = np.empty_like(raw)
    for k, z in enumerate(raw):
        if k:
            x = F @ x
            P = F @ P @ F.T + Q
        s = P[0, 0] + r  # innovation covariance; positive since r > 0, P PSD
        assert s > 0
        gain = P[:, 0] / s
        x = x + gain * (z - x[0])
        P = P - np.outer(gain, P[0, :])
        out[k] = x[0]
    return out


def track_signature(
    power: np.ndarray,
    axis: np.ndarray,
    frame_times: np.ndarray,
    q: float = 10.0,
    r: float = 4.0,
) -> SignatureTrack:
    """Peak-pick every frame, smooth, and clip back into the axis range."""
    raw = peak_track(power, axis)
    times = np.asarray(frame_times, dtype=np.float64)
    if times.shape != raw.shape:
        raise ValueError("frame_times length must match the frame count")
    dt = float(times[1] - times[0]) if times.size > 1 else 1.0
    if dt <= 0:
        dt = 1.0
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
