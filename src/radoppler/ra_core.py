"""Resolution-adaptive spectrogram: corner detection, warping, filter bank.

The conventional spectrogram spends its frequency bins uniformly, but
micro-motion signatures concentrate most structure in a band around zero
Doppler whose width varies by activity. This module finds that band's
corner frequency from the long-term energy profile, warps the frequency
axis so resolution is spent logarithmically above the corner and densely
below it, and resamples the spectrogram through a triangular filter bank
on the warped axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateCornerError, DegenerateInputError, FilterBankError, ForcedCornerError
from .ingest import format_kv, sidecar_path, write_matrix
from .linspec import Spectrogram, check_frame_dt, check_power, log_view

__all__ = [
    "EnergyProfile",
    "CornerResult",
    "FilterBank",
    "RASpectrogram",
    "energy_profile",
    "find_corners",
    "scale_forward",
    "scale_inverse",
    "build_filter_bank",
    "ra_transform",
    "save_ra_spectrogram",
]

TINY_MEAN = 1e-300

CORNER_BLOCK = 1 << 16  # objective values per corner-search block

LOG10_2 = math.log10(2.0)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyProfile:
    """Per-bin log-power summed over time, on a signed-frequency bin axis.

    Signed bin b lives at array index zero_index + b, so the axis spans
    bins [-zero_index, len(e) - 1 - zero_index].
    """

    e: np.ndarray
    zero_index: int

    def __post_init__(self):
        e = np.asarray(self.e, dtype=np.float64)
        if e.ndim != 1 or e.size < 5:
            raise ValueError("energy profile needs at least 5 bins")
        if not np.all(np.isfinite(e)):
            raise ValueError("energy profile contains non-finite entries")
        if not 0 < self.zero_index < e.size - 1:
            raise ValueError("zero_index must be interior to the axis")
        e.setflags(write=False)
        object.__setattr__(self, "e", e)

    @property
    def min_bin(self) -> int:
        return -self.zero_index

    @property
    def max_bin(self) -> int:
        return self.e.size - 1 - self.zero_index


@dataclass(frozen=True)
class CornerResult:
    f_nc: int  # negative corner, signed bins
    f_pc: int  # positive corner, signed bins
    f_c: int  # max(|f_nc|, f_pc)
    objective_value: float  # J at the minimizer; NaN when the corner was forced

    def __post_init__(self):
        if not (self.f_nc < 0 < self.f_pc):
            raise ValueError("corners must straddle zero")
        if self.f_c != max(-self.f_nc, self.f_pc):
            raise ValueError("f_c must equal max(|f_nc|, f_pc)")

    @property
    def forced(self) -> bool:
        return math.isnan(self.objective_value)


@dataclass(frozen=True)
class FilterBank:
    """Triangular warped-frequency filters over integer bins 0..f_max.

    break_points holds M+2 real-valued bin positions p_0=0 .. p_{M+1}=f_max;
    weights row m-1 is filter m, peaked at p_m, zero outside (p_{m-1}, p_{m+1}).
    """

    break_points: np.ndarray  # [M + 2]
    weights: np.ndarray  # [M, f_max + 1]

    def __post_init__(self):
        p = np.asarray(self.break_points, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if p.ndim != 1 or w.ndim != 2 or w.shape[0] != p.size - 2:
            raise ValueError("need M+2 break points for M filter rows")
        if p[0] != 0 or np.any(np.diff(p) <= 0):
            raise ValueError("break points must rise strictly from 0")
        if np.any(w < 0) or np.any(w > 1):
            raise ValueError("weights must lie in [0, 1]")
        p.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "break_points", p)
        object.__setattr__(self, "weights", w)

    @property
    def num_filters(self) -> int:
        return self.weights.shape[0]

    @property
    def f_max(self) -> float:
        return float(self.break_points[-1])


@dataclass(frozen=True)
class RASpectrogram:
    """Warped-axis spectrogram: negative side reversed, then positive side (ROW_ORDER)."""

    power: np.ndarray  # [num_frames, 2 * M]
    corner: CornerResult
    bank: FilterBank
    frame_dt: float  # seconds between frame starts, from the source spectrogram
    hz_per_bin: float  # linear-frequency bin width of the source axis

    def __post_init__(self):
        power = check_power(self.power)
        if power.shape[1] != 2 * self.bank.num_filters:
            raise ValueError("power must have 2*M columns")
        frame_dt = float(self.frame_dt)
        check_frame_dt(frame_dt, power.shape[0])
        power.setflags(write=False)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "frame_dt", frame_dt)

    @property
    def num_filters(self) -> int:
        return self.bank.num_filters

    @property
    def time_axis(self) -> np.ndarray:
        """Frame start times in seconds."""
        return np.arange(self.power.shape[0]) * self.frame_dt

    def warped_axis_hz(self) -> np.ndarray:
        """Signed linear-frequency centers (Hz) of the 2M output columns."""
        centers = self.bank.break_points[1:-1] * self.hz_per_bin
        return np.concatenate([-centers[::-1], centers])


ROW_ORDER = "negative side m=M..1, then positive side m=1..M (warped frequency ascending)"


# ---------------------------------------------------------------------------
# energy profile and corner search
# ---------------------------------------------------------------------------

def energy_profile(spec: Spectrogram, floor: float = 1e-12) -> EnergyProfile:
    """Sum the floored log-power over frames: e(f) on the signed bin axis."""
    e = log_view(spec, floor).sum(axis=0)
    return EnergyProfile(e=e, zero_index=spec.num_freq_bins // 2)


def corner_backends() -> tuple[str, ...]:
    """Names of the corner-search implementations, for run records: one."""
    return ("python",)


def _search(prefix: np.ndarray, zero_index: int) -> tuple[int, int, float]:
    """Minimize the three-segment objective on a prefix-summed profile.

    prefix[i] holds the sum of the squared profile over indices < i.
    Returns (i1, i2, J): the left split index in [1, zero_index), the
    right split index in (zero_index, L-2], and the objective value.

    The (i1, i2) grid is scored CORNER_BLOCK values at a time, a block of
    i1 rows against every i2, so memory stays bounded at any axis length.
    Each value is the segment mean floored at 1e-300 before the log, and
    the objective is associated as (t1 + t2) + t3. Ties resolve to the
    tightest band and then the smaller i2; that key is carried across
    blocks, so the block size never changes the result.
    """
    L = prefix.shape[0] - 1
    i1 = np.arange(1, zero_index)
    i2 = np.arange(zero_index + 1, L - 1)

    n1 = (i1 + 1).astype(np.float64)
    t1 = n1 * np.log10(np.maximum(prefix[i1 + 1] / n1, TINY_MEAN))
    n3 = (L - i2).astype(np.float64)
    t3 = n3 * np.log10(np.maximum((prefix[L] - prefix[i2]) / n3, TINY_MEAN))
    right = prefix[i2 + 1]

    rows = max(1, CORNER_BLOCK // i2.size)
    best = None  # (J, span, i2) of the best split so far
    for start in range(0, i1.size, rows):
        left = i1[start : start + rows]
        n2 = (i2[None, :] - left[:, None] + 1).astype(np.float64)
        t2 = right[None, :] - prefix[left][:, None]
        t2 /= n2
        np.maximum(t2, TINY_MEAN, out=t2)
        np.log10(t2, out=t2)
        t2 *= n2
        J = t1[start : start + rows, None] + t2
        J += t3
        j = J.min()
        if best is not None and j > best[0]:
            continue
        r, c = np.nonzero(J == j)
        span = i2[c] - left[r]
        pick = np.lexsort((i2[c], span))[0]
        key = (float(j), int(span[pick]), int(i2[c[pick]]))
        if best is None or key < best:
            best = key
    j, span, right_split = best
    return right_split - span, right_split, j


def find_corners(profile: EnergyProfile) -> CornerResult:
    """Exhaustive search for the negative/positive corner bins.

    Scores every split (f1, f2) with f1 in [min_bin+1, -1] and f2 in
    [1, max_bin-1] as the sum of three shared-endpoint segment scores and
    returns the global minimum. Ties resolve to the tightest band, then
    the smaller positive corner. Cost is O(F²) time via prefix sums of e²,
    in blocks of CORNER_BLOCK objective values.
    """
    if profile.zero_index < 2 or profile.max_bin < 2:
        raise DegenerateInputError(
            "axis too short for three non-degenerate segments "
            f"(bins [{profile.min_bin}, {profile.max_bin}])"
        )
    e2 = profile.e * profile.e
    prefix = np.empty(e2.size + 1)
    prefix[0] = 0.0
    np.cumsum(e2, out=prefix[1:])
    i1, i2, j = _search(prefix, profile.zero_index)
    f_nc = i1 - profile.zero_index
    f_pc = i2 - profile.zero_index
    f_c = max(-f_nc, f_pc)
    if f_c < 2:
        raise DegenerateCornerError(
            f"corner search collapsed to f_c = {f_c} bins; "
            "input is near-silent or structureless (force a corner to override)"
        )
    return CornerResult(f_nc=f_nc, f_pc=f_pc, f_c=f_c, objective_value=j)


# ---------------------------------------------------------------------------
# frequency warping
# ---------------------------------------------------------------------------

def scale_forward(f, f_c: float):
    """Warp linear frequency f: S(f) = f_c / log10(2) * log10(1 + f/f_c).

    Monotone, with S(0) = 0 and S(f_c) = f_c; the slope at zero is
    1/ln(2), about 1.44, so the warped axis stretches the band below f_c.
    Accepts scalars or arrays.
    """
    if f_c <= 0:
        raise ValueError("f_c must be positive")
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("frequencies must be non-negative")
    out = f_c / LOG10_2 * np.log10(1.0 + f / f_c)
    return float(out) if out.ndim == 0 else out


def scale_inverse(P, f_c: float):
    """Unwarp: p = f_c * (10**z - 1) with z = log10(2) * P / f_c."""
    if f_c <= 0:
        raise ValueError("f_c must be positive")
    P = np.asarray(P, dtype=np.float64)
    if np.any(P < 0):
        raise ValueError("warped values must be non-negative")
    out = f_c * (10.0 ** (LOG10_2 * P / f_c) - 1.0)
    return float(out) if out.ndim == 0 else out


def build_filter_bank(f_c: float, f_max: int, num_filters: int) -> FilterBank:
    """Triangular filters at M+2 warped-uniform break points over [0, f_max].

    Break points are scale_inverse of an even grid on [0, S(f_max)], kept
    real-valued; weights are evaluated at integer bins only. Each interior
    bin receives complementary rising/falling weights from the two filters
    sharing its interval, so the bank partitions unity on [p_1, p_M].
    """
    if num_filters < 2:
        raise ValueError("need at least 2 filters")
    f_max = int(f_max)
    if f_max < 1:
        raise ValueError("f_max must be at least 1 bin")
    warped = np.arange(num_filters + 2) * (scale_forward(f_max, f_c) / (num_filters + 1))
    p = scale_inverse(warped, f_c)
    p[0] = 0.0
    p[-1] = float(f_max)
    collide = np.nonzero(np.diff(p) <= 0)[0]
    if collide.size:
        k = int(collide[0])
        raise FilterBankError(
            f"break points p_{k} and p_{k + 1} collide at bin {p[k]:.6g}; "
            f"{num_filters} filters exceed the resolvable bins below f_max={f_max}"
        )

    bins = np.arange(f_max + 1, dtype=np.float64)
    # interval k = [p_k, p_{k+1}) of each bin; the final interval keeps its right edge
    k = np.searchsorted(p[1:-1], bins, side="right")
    rise = (bins - p[k]) / (p[k + 1] - p[k])
    # filter k+1 rises and filter k falls over interval k; rows 0 and M+1
    # of the padded array catch the halves that belong to no filter
    padded = np.zeros((num_filters + 2, f_max + 1))
    columns = np.arange(f_max + 1)
    padded[k + 1, columns] = rise
    padded[k, columns] = 1.0 - rise
    return FilterBank(break_points=p, weights=padded[1:-1])


def ra_transform(
    spec: Spectrogram,
    num_filters: int = 64,
    floor: float = 1e-12,
    force_fc: float | None = None,
) -> RASpectrogram:
    """Full resolution-adaptive pipeline on one spectrogram.

    Detects the corner from the energy profile (unless force_fc, in bins,
    overrides it), builds the warped filter bank, and applies it to the
    positive and mirrored negative frequency halves. Output columns run
    from the most negative warped frequency to the most positive. A
    forced corner that rounds outside [1, half - 1] bins raises
    ForcedCornerError (a ValueError). Each of the half + 1 bins weighs into
    at most two filters, so a larger M is a FilterBankError, raised first.
    """
    half = spec.num_freq_bins // 2
    if num_filters > 2 * (half + 1):
        raise FilterBankError(f"M = {num_filters} filters exceed twice the {half + 1} bins "
                              f"of a half axis; each bin weighs into at most two filters")
    profile = energy_profile(spec, floor)
    if force_fc is not None:
        if not (math.isfinite(force_fc) and 1 <= round(force_fc) <= half - 1):
            raise ForcedCornerError(
                f"forced corner {force_fc:.6g} bins ({force_fc * spec.hz_per_bin:.6g} Hz) "
                f"does not round into [1, {half - 1}] bins "
                f"({spec.hz_per_bin:.6g} Hz per bin)"
            )
        fc_bins = int(round(force_fc))
        corner = CornerResult(f_nc=-fc_bins, f_pc=fc_bins, f_c=fc_bins,
                              objective_value=math.nan)
    else:
        corner = find_corners(profile)
    bank = build_filter_bank(float(corner.f_c), half, num_filters)

    # positive half covers bins 0..half, aliasing the Nyquist bin from index 0
    pos = np.concatenate([spec.power[:, half:], spec.power[:, :1]], axis=1)
    neg = spec.power[:, half::-1]
    spec_pos = pos @ bank.weights.T
    spec_neg = neg @ bank.weights.T
    power = np.concatenate([spec_neg[:, ::-1], spec_pos], axis=1)
    return RASpectrogram(
        power=power,
        corner=corner,
        bank=bank,
        frame_dt=spec.frame_dt,
        hz_per_bin=spec.hz_per_bin,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_ra_spectrogram(ra: RASpectrogram, path, format: str = "bin") -> Path:
    """Write the warped power matrix plus a sidecar with the corner report."""
    out = write_matrix(ra.power, path, format=format)
    pairs = [
        ("kind", "ra_spectrogram"),
        ("num_frames", ra.power.shape[0]),
        ("num_filters", ra.num_filters),
        ("row_order", ROW_ORDER),
        ("frame_dt", ra.frame_dt),
        ("hz_per_bin", ra.hz_per_bin),
        ("forced", ra.corner.forced),
        ("objective_value", ra.corner.objective_value),
        ("f_nc_bins", ra.corner.f_nc),
        ("f_pc_bins", ra.corner.f_pc),
        ("f_c_bins", ra.corner.f_c),
        ("f_nc_hz", ra.corner.f_nc * ra.hz_per_bin),
        ("f_pc_hz", ra.corner.f_pc * ra.hz_per_bin),
        ("f_c_hz", ra.corner.f_c * ra.hz_per_bin),
    ]
    pairs += [(f"p_{m}", float(v)) for m, v in enumerate(ra.bank.break_points)]
    sidecar_path(out).write_text(format_kv(pairs))
    return out
