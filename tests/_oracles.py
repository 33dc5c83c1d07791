"""Independent reference implementations used only by the tests.

Everything here recomputes results by the most literal route available
(direct summation, per-definition DFT, polynomial transfer functions) so
the production code is checked against arithmetic it does not share.
"""

from __future__ import annotations

import math

import numpy as np

from radoppler.ingest import SPEED_OF_LIGHT

TINY_MEAN = 1e-300


def logms_direct(e2: np.ndarray, a: int, b: int) -> float:
    """Segment score over array indices a..b inclusive, by direct slicing."""
    seg = e2[a : b + 1]
    mean = max(float(np.sum(seg)) / seg.size, TINY_MEAN)
    return seg.size * np.log10(mean)


def brute_force_corners(e: np.ndarray, zero_index: int) -> tuple[int, int, float]:
    """Exhaustive corner search with no prefix sums.

    Scores every (f1, f2) split by three direct segment evaluations and
    returns (f_nc, f_pc, J) under the lexicographic (J, span, f2)
    tie-break, matching the production contract.
    """
    e = np.asarray(e, dtype=np.float64)
    e2 = e * e
    L = e2.size
    last = L - 1
    best_key = None
    best = None
    for i1 in range(1, zero_index):
        t1 = logms_direct(e2, 0, i1)
        for i2 in range(zero_index + 1, L - 1):
            j = (t1 + logms_direct(e2, i1, i2)) + logms_direct(e2, i2, last)
            key = (j, i2 - i1, i2)
            if best_key is None or key < best_key:
                best_key = key
                best = (i1 - zero_index, i2 - zero_index, j)
    return best


def dense_corner_search(prefix: np.ndarray, zero_index: int) -> tuple[int, int, float]:
    """Whole-grid corner search: the objective over every (i1, i2) split at
    once, then every minimum and the (span, i2) tie-break among them.

    Same arithmetic as find_corners (prefix sums, mean floored at 1e-300,
    (t1 + t2) + t3), holding the full O(F²) grid. Returns (i1, i2, J) in
    array indices.
    """
    L = prefix.shape[0] - 1
    i1 = np.arange(1, zero_index)
    i2 = np.arange(zero_index + 1, L - 1)

    n1 = (i1 + 1).astype(np.float64)
    t1 = n1 * np.log10(np.maximum(prefix[i1 + 1] / n1, TINY_MEAN))
    n3 = (L - i2).astype(np.float64)
    t3 = n3 * np.log10(np.maximum((prefix[L] - prefix[i2]) / n3, TINY_MEAN))
    n2 = (i2[None, :] - i1[:, None] + 1).astype(np.float64)
    s2 = prefix[i2 + 1][None, :] - prefix[i1][:, None]
    t2 = n2 * np.log10(np.maximum(s2 / n2, TINY_MEAN))

    J = (t1[:, None] + t2) + t3[None, :]
    rows, cols = np.nonzero(J == J.min())
    span = i2[cols] - i1[rows]
    pick = np.lexsort((i2[cols], span))[0]  # tightest band, then smaller i2
    return int(i1[rows[pick]]), int(i2[cols[pick]]), float(J.min())


def peak_track_reference(power: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Per-frame peak by argmax over the whole column-reordered matrix.

    Columns are ordered by |axis|, then index, so argmax's first
    occurrence is the preferred tied bin.
    """
    prefer = np.lexsort((np.arange(axis.size), np.abs(axis)))
    return axis[prefer[power[:, prefer].argmax(axis=1)]]


def kalman_smooth_reference(raw: np.ndarray, dt: float, q: float = 10.0,
                            r: float = 4.0) -> np.ndarray:
    """Constant-velocity Kalman filter in 2x2 numpy matrix form.

    ``F @ P @ F.T`` runs through BLAS, which may fuse multiply-adds, so
    this agrees with ``kalman_smooth`` to rounding, not bit for bit.
    """
    raw = np.asarray(raw, dtype=np.float64)
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


def dft_frame(frame: np.ndarray, fft_length: int) -> np.ndarray:
    """Definition-level DFT of one zero-padded frame, fftshifted."""
    padded = np.zeros(fft_length, dtype=np.complex128)
    padded[: frame.size] = frame
    n = np.arange(fft_length)
    k = np.arange(fft_length)
    basis = np.exp(-2j * np.pi * np.outer(k, n) / fft_length)
    spectrum = basis @ padded
    return np.roll(spectrum, fft_length // 2)


def sos_response(sos: np.ndarray, freq: float, fs: float) -> complex:
    """Transfer function of an SOS cascade at one frequency, via direct
    polynomial evaluation of each section at z = exp(j*2*pi*f/fs)."""
    z = np.exp(2j * np.pi * freq / fs)
    h = 1.0 + 0.0j
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + b1 / z + b2 / z**2) / (a0 + a1 / z + a2 / z**2)
    return h


def energy_profile_direct(power: np.ndarray, floor: float) -> np.ndarray:
    """Double-loop floored log-power accumulation over frames."""
    peak = power.max()
    out = np.zeros(power.shape[1])
    for t in range(power.shape[0]):
        for f in range(power.shape[1]):
            out[f] += np.log10(max(power[t, f], floor * peak))
    return out


def energy_profile_whole(power: np.ndarray, floor: float) -> np.ndarray:
    """e(f) from the floored log view of every frame at once, summed over frames."""
    floored = np.maximum(power, floor * power.max())
    return np.log10(floored, out=floored).sum(axis=0)


def rebin_whole(power: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Both half-axis bank products over every frame at once, in ROW_ORDER."""
    half = power.shape[1] // 2
    # positive half covers bins 0..half, aliasing the Nyquist bin from index 0
    pos = np.concatenate([power[:, half:], power[:, :1]], axis=1)
    neg = power[:, half::-1]
    return np.concatenate([(neg @ weights.T)[:, ::-1], pos @ weights.T], axis=1)


def triangle_weight(p: np.ndarray, m: int, f: float) -> float:
    """Piecewise-linear filter m evaluated at a real frequency f.

    p is the full break-point vector (p_0 .. p_{M+1}); filter m rises
    over [p_{m-1}, p_m] and falls over [p_m, p_{m+1}].
    """
    lo, mid, hi = p[m - 1], p[m], p[m + 1]
    if f < lo or f > hi:
        return 0.0
    if f <= mid:
        return (f - lo) / (mid - lo)
    return (hi - f) / (hi - mid)


def filter_bank_weights_loop(p: np.ndarray, f_max: int, num_filters: int) -> np.ndarray:
    """Triangular bank weights by one masked pass per break-point interval.

    Interval k is [p_k, p_{k+1}), the last one closed; filter k+1 rises
    and filter k falls over it, by the same formulas as build_filter_bank.
    """
    bins = np.arange(f_max + 1, dtype=np.float64)
    weights = np.zeros((num_filters, f_max + 1))
    for k in range(num_filters + 1):
        lo, hi = p[k], p[k + 1]
        mask = (bins >= lo) & ((bins <= hi) if k == num_filters else (bins < hi))
        if not mask.any():
            continue
        rise = (bins[mask] - lo) / (hi - lo)
        if k + 1 <= num_filters:
            weights[k, mask] = rise
        if k >= 1:
            weights[k - 1, mask] = 1.0 - rise
    return weights


def synthesize_reference(scenario) -> np.ndarray:
    """Whole-grid cube render: one exp over the full [fast, slow] grid per
    scatterer, then the complex noise of the whole grid, real part first."""
    p = scenario.params
    t_chirp = p.chirp_duration
    fast = np.arange(p.num_fast_samples)[:, None]
    t_slow = np.arange(p.num_chirps) / p.chirp_repetition_freq

    samples = np.zeros((p.num_fast_samples, p.num_chirps), dtype=np.complex128)
    for sc in scenario.scatterers:
        rng_range = sc.range_at(t_slow)
        beat = 2.0 * p.bandwidth * rng_range / (SPEED_OF_LIGHT * t_chirp)
        phase = 2.0 * math.pi * (
            beat[None, :] * fast / p.sample_rate
            + 2.0 * p.center_freq * rng_range[None, :] / SPEED_OF_LIGHT
        )
        samples += sc.rcs * np.exp(1j * phase)

    if scenario.noise_power > 0:
        rng = np.random.default_rng(scenario.seed)
        sigma = math.sqrt(scenario.noise_power / 2.0)
        samples += sigma * rng.standard_normal(samples.shape)
        samples += 1j * sigma * rng.standard_normal(samples.shape)
    return samples
