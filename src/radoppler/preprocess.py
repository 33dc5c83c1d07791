"""Range compression and slow-time clutter suppression."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .ingest import RadarCube

__all__ = [
    "RangeProfileMatrix",
    "range_transform",
    "clutter_filter",
    "highpass_sos",
    "step_state",
    "sosfilt",
]

BLOCK = 64  # samples the filter runner advances per matrix product
STEP_RESIDUAL = 1e-3  # largest share of a constant a design's step state may pass


@dataclass(frozen=True)
class RangeProfileMatrix:
    """Complex range-bin x chirp matrix x(r,n) with its physical scales."""

    values: np.ndarray  # [num_range_bins, num_chirps]
    range_resolution: float  # meters per range bin
    chirp_repetition_freq: float  # slow-time sample rate, Hz

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("range profiles must form a non-empty 2-D matrix")
        if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
            raise ValueError("range profiles contain non-finite values")
        if self.range_resolution <= 0 or self.chirp_repetition_freq <= 0:
            raise ValueError("range_resolution and chirp_repetition_freq must be positive")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_range_bins(self) -> int:
        return self.values.shape[0]

    @property
    def num_chirps(self) -> int:
        return self.values.shape[1]


def range_transform(cube: RadarCube) -> RangeProfileMatrix:
    """Range-compress a cube: FFT over fast time, keep the positive half.

    No fast-time window is applied. Row r of the result covers ranges
    around r * range_resolution; only bins 0..N/2-1 are kept so complex
    and real beat signals produce the same shape.
    """
    n = cube.params.num_fast_samples
    spectrum = np.fft.fft(cube.samples, n=n, axis=0)
    return RangeProfileMatrix(
        values=spectrum[: n // 2, :],
        range_resolution=cube.params.range_resolution,
        chirp_repetition_freq=cube.params.chirp_repetition_freq,
    )


def clutter_filter(
    profiles: RangeProfileMatrix,
    cutoff: float = 0.01,
    order: int = 4,
) -> RangeProfileMatrix:
    """High-pass each range bin along slow time to remove static returns.

    A Butterworth high-pass (default 4th order, 0.01 Hz cutoff, bilinear
    design, see ``highpass_sos``) runs causally as cascaded second-order
    sections over the chirp axis, real and imaginary parts identically.
    The section states start at the step response of each row's first
    sample, so a constant row is annihilated to numerical precision
    instead of decaying over a multi-second settling time. The design and
    the runner are in this module; scipy is not needed.
    """
    sos = highpass_sos(order, cutoff, profiles.chirp_repetition_freq)
    if profiles.num_chirps < 2:
        raise ValueError("need at least 2 chirps to filter along slow time")
    return replace(profiles, values=sosfilt(sos, profiles.values)[0])


# ---------------------------------------------------------------------------
# Butterworth high-pass: design, initial state, block runner
# ---------------------------------------------------------------------------

def highpass_sos(order: int, cutoff: float, fs: float) -> np.ndarray:
    """Digital Butterworth high-pass as second-order sections [order/2, 6].

    Bilinear transform of the analog prototype with the cutoff prewarped,
    following scipy.signal.butter(order, cutoff, "highpass", fs=fs,
    output="sos") step for step: every section holds the double zero at
    z = 1 and one conjugate pole pair, pairs nearer the unit circle come
    later, and the overall gain sits in the first section. Each design is
    checked here: order even and >= 2, cutoff inside (0, fs/2), and a
    finite step state that cancels a constant, |b0 + zi[0, 0]| <=
    STEP_RESIDUAL * |b0|. A cutoff below about 2e-9 fs rounds a pole onto
    z = 1, where there is no step state; up to about 1e-7 fs the rounded
    step state of some designs passes more than that share.
    """
    if not 0 < cutoff < fs / 2:
        raise ValueError(f"cutoff must sit inside (0, {fs / 2}), got {cutoff}")
    if order < 2 or order % 2:
        raise ValueError(f"order must be even and >= 2, got {order}")
    proto = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2) / (2 * order))
    warped = 4.0 * np.tan(np.pi * cutoff / fs)  # bilinear rate 2 on the Nyquist-normalised axis
    analog = warped / proto  # low-pass to high-pass
    gain = np.real(1.0 / np.prod(-proto)) * np.real(4.0**order / np.prod(4.0 - analog))
    # the lower-half prototype poles map to the upper-half digital poles
    poles = (4.0 + analog[order // 2 :]) / (4.0 - analog[order // 2 :])
    poles = poles[np.argsort(np.abs(poles))]
    sos = np.zeros((order // 2, 6))
    sos[:, :3] = 1.0, -2.0, 1.0
    sos[:, 3] = 1.0
    sos[:, 4] = -2.0 * poles.real
    sos[:, 5] = poles.real**2 + poles.imag**2
    sos[0, :3] *= gain
    if not _step_residual(sos) <= STEP_RESIDUAL:
        raise ValueError(f"cutoff {cutoff!r} Hz rounds a pole of the order-{order} high-pass "
                         f"onto or too near z = 1 at {fs!r} Hz for a step state that "
                         f"cancels a constant")
    return sos


def _step_residual(sos: np.ndarray) -> float:
    """|b0 + zi[0, 0]| / |b0|, the share of a constant that the step state zi passes;
    inf if a section's denominator is not positive at z = 1 or zi does not solve to
    finite values."""
    if not np.all(sos[:, 3:].sum(axis=1) > 0):
        return np.inf
    try:
        with np.errstate(all="ignore"):
            zi = step_state(sos)
    except np.linalg.LinAlgError:
        return np.inf
    return abs(sos[0, 0] + zi[0, 0]) / abs(sos[0, 0]) if np.isfinite(zi).all() else np.inf


def step_state(sos: np.ndarray) -> np.ndarray:
    """Section states [sections, 2] of the steady response to a unit step.

    Computed as scipy.signal.sosfilt_zi does: per section, solve
    (I - A^T) z = b[1:] - a[1:] * b0 with A the companion matrix of the
    denominator, scaled by the DC gain B(1)/A(1) of the sections before
    it. The solve is ill-conditioned for a cutoff far below the sample
    rate (about 1e-7 relative at 0.01 Hz and 2 kHz); keeping it rather
    than the exact closed form keeps the filtered output, and so every
    artifact, the same as the scipy-based filter produced.
    """
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for k, (b0, b1, b2, a0, a1, a2) in enumerate(sos):
        i_minus_a = np.array([[1.0 + a1, -1.0], [a2, 1.0]])
        zi[k] = scale * np.linalg.solve(i_minus_a, [b1 - a1 * b0, b2 - a2 * b0])
        scale *= (b0 + b1 + b2) / (a0 + a1 + a2)
    return zi


def sosfilt(sos: np.ndarray, x: np.ndarray, zi=None,
            out=None) -> tuple[np.ndarray, np.ndarray]:
    """Filter complex rows x [rows, n] along n from the state zi; return (y, zf).

    Same recurrence and state layout as scipy.signal.sosfilt (transposed
    direct form II per section, zi and zf [sections, rows, 2], a0 = 1). The
    cascade runs as a linear state-space system BLOCK samples at a time:
    each block's response is one matrix product with the lower-triangular
    Toeplitz of the impulse response, plus the response to the state
    carried in from the previous block (operators built once per design).
    zf is the state after x zero-padded to a multiple of BLOCK, so rows
    filtered in pieces, each from the zf of the one before, equal the whole
    rows up to product rounding if only the last is partial. Without zi,
    each row starts at rest on the step of its first sample. y is written
    into ``out``, a complex128 [rows, n] array, or a new one, which may be
    ``x`` itself: x is copied into the real working rows first. Beside x
    and y the runner holds those rows (16 B per sample) and the block
    products (about 17 B per sample)."""
    rows, n = x.shape
    if zi is None:
        zi = step_state(sos)[:, np.newaxis, :] * x[np.newaxis, :, 0, np.newaxis]
    forward, observe, advance = _block_operators(np.asarray(sos, dtype=np.float64).tobytes())
    blocks = -(-n // BLOCK)
    # real coefficients: real and imaginary parts run as separate rows
    u = np.zeros((2, rows, blocks * BLOCK))
    u[0, :, :n], u[1, :, :n] = x.real, x.imag
    u = u.reshape(-1, BLOCK)
    products = u @ forward
    driven = products[:, BLOCK:].reshape(2 * rows, blocks, -1)
    state = np.moveaxis([zi.real, zi.imag], 1, -2).reshape(2 * rows, -1)
    starts = np.empty((2 * rows, blocks, state.shape[1]))
    for j in range(blocks):
        starts[:, j] = state
        state = state @ advance + driven[:, j]
    y = np.matmul(starts.reshape(-1, state.shape[1]), observe, out=u)  # u's input is spent
    y += products[:, :BLOCK]
    if out is None:
        out = np.empty((rows, n), dtype=np.complex128)
    out.real, out.imag = y.reshape(2, rows, -1)[:, :, :n]
    zf = np.empty((rows, len(sos), 2), dtype=np.complex128)
    zf.real, zf.imag = state.reshape(2, rows, len(sos), 2)
    return out, np.moveaxis(zf, -2, 0)


@lru_cache(maxsize=16)
def _block_operators(design: bytes):
    """Read-only (forward, observe, advance) that step by BLOCK the cascade of sections
    with float64 bytes ``design``: for a row state s and an input block u, the output is
    u @ forward[:, :BLOCK] + s @ observe, the next state s @ advance + u @ forward[:, BLOCK:].
    """
    sos = np.frombuffer(design).reshape(-1, 6)
    n_state = 2 * len(sos)
    # one step of the recurrence on each unit state and on a unit input
    # gives the row-vector state space s' = s A + u b, y = s c + u d
    basis = np.eye(n_state + 1)
    state, x = basis[:, :n_state].copy(), basis[:, n_state]
    for k, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        y = b0 * x + state[:, 2 * k]
        state[:, 2 * k] = b1 * x - a1 * y + state[:, 2 * k + 1]
        state[:, 2 * k + 1] = b2 * x - a2 * y
        x = y
    a, b, c, d = state[:n_state], state[n_state], x[:n_state], x[n_state]

    powers = [np.eye(n_state)]
    for _ in range(BLOCK):
        powers.append(powers[-1] @ a)
    powers = np.stack(powers)  # A^0 .. A^BLOCK
    observe = (powers[:BLOCK] @ c).T  # column i: A^i c
    impulse = np.concatenate([[d], b @ observe[:, :-1]])
    idx = np.arange(BLOCK)
    lag = idx[None, :] - idx[:, None]  # output index minus input index
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    drive = b @ powers[BLOCK - 1 :: -1]  # row j: b A^(BLOCK-1-j)
    operators = np.hstack([toeplitz, drive]), observe, powers[BLOCK]
    for matrix in operators:
        matrix.setflags(write=False)
    return operators
