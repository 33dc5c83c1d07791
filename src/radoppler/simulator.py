"""Synthetic FMCW cubes with programmable micro-Doppler signatures.

Point scatterers follow a stop-and-hop model: range is frozen within a
chirp and advances between chirps as the integral of a base velocity
plus a sinusoidal velocity oscillation. Each chirp contributes a
dechirped beat tone whose frequency encodes range and whose phase
history across chirps encodes Doppler, so every downstream stage has a
closed-form ground truth.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import AliasingError, FileFormatError
from .ingest import (
    CHIRP_BLOCK,
    SPEED_OF_LIGHT,
    RadarCube,
    RadarParams,
    field_pairs,
    format_kv,
    from_kv,
    parse_kv,
)

__all__ = [
    "ScattererSpec",
    "Scenario",
    "PRESET_NAMES",
    "synthesize",
    "preset",
    "save_scenario",
    "load_scenario",
]

ROW_BLOCK = 8  # fast-time rows per rendering task


@dataclass(frozen=True)
class ScattererSpec:
    """One point scatterer: range trajectory plus return amplitude.

    The instantaneous velocity is
    base_velocity + micro_amp * sin(2*pi*micro_freq*t + micro_phase).
    """

    base_range: float  # meters
    base_velocity: float = 0.0  # m/s
    micro_amp: float = 0.0  # m/s velocity oscillation amplitude
    micro_freq: float = 0.0  # Hz
    micro_phase: float = 0.0  # radians
    rcs: float = 1.0  # linear amplitude

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"ScattererSpec.{f.name} must be finite, got {value!r}")
        if self.base_range <= 0:
            raise ValueError("base_range must be positive")
        if self.micro_freq < 0 or self.micro_amp < 0:
            raise ValueError("micro_freq and micro_amp must be non-negative")
        if self.rcs <= 0:
            raise ValueError("rcs must be positive")

    def peak_doppler(self, center_freq: float) -> float:
        """Largest instantaneous Doppler magnitude, Hz."""
        v_peak = abs(self.base_velocity) + self.micro_amp
        return 2.0 * v_peak * center_freq / SPEED_OF_LIGHT

    def range_at(self, t: np.ndarray) -> np.ndarray:
        """Closed-form integral of the velocity profile from time 0."""
        r = self.base_range + self.base_velocity * t
        if self.micro_amp == 0.0:
            return r
        if self.micro_freq == 0.0:
            # zero-rate oscillation degenerates to a constant velocity offset
            return r + self.micro_amp * math.sin(self.micro_phase) * t
        w = 2.0 * math.pi * self.micro_freq
        return r + self.micro_amp / w * (math.cos(self.micro_phase) - np.cos(w * t + self.micro_phase))


@dataclass(frozen=True)
class Scenario:
    params: RadarParams
    scatterers: tuple[ScattererSpec, ...]
    noise_power: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        if not self.scatterers:
            raise ValueError("scenario needs at least one scatterer")
        if not math.isfinite(self.noise_power):
            raise ValueError(f"Scenario.noise_power must be finite, got {self.noise_power!r}")
        if self.noise_power < 0:
            raise ValueError("noise_power must be non-negative")
        if self.seed < 0:
            raise ValueError(f"Scenario.seed must be non-negative, got {self.seed}")


def _check_aliasing(scenario: Scenario) -> None:
    limit = scenario.params.chirp_repetition_freq / 2.0
    for idx, sc in enumerate(scenario.scatterers):
        peak = sc.peak_doppler(scenario.params.center_freq)
        if peak >= limit:
            raise AliasingError(
                f"scatterer {idx}: peak Doppler {peak:.1f} Hz reaches the "
                f"unambiguous limit {limit:.1f} Hz (chirp_repetition_freq/2)"
            )


def synthesize(scenario: Scenario) -> RadarCube:
    """Render a scenario into a raw radar cube.

    Scatterers superpose coherently; circular complex Gaussian noise of
    the configured power is drawn from a generator seeded with
    scenario.seed, so equal scenarios produce bit-identical cubes.

    The cube is filled ROW_BLOCK fast-time rows at a time, on a thread
    pool with one worker per available core (numpy's exp and arithmetic
    release the GIL), in CHIRP_BLOCK-chirp tiles so that the temporaries
    stay small. Each element goes through the whole-grid formula's
    operations in its order, and the noise keeps its stream order (real
    rows, then imaginary rows), so the bytes depend neither on the block
    sizes nor on the thread count.
    """
    from concurrent.futures import ThreadPoolExecutor

    _check_aliasing(scenario)
    p = scenario.params
    t_chirp = p.chirp_duration
    t_slow = np.arange(p.num_chirps) / p.chirp_repetition_freq
    terms = []
    for sc in scenario.scatterers:
        rng_range = sc.range_at(t_slow)
        beat = 2.0 * p.bandwidth * rng_range / (SPEED_OF_LIGHT * t_chirp)
        carrier = 2.0 * p.center_freq * rng_range / SPEED_OF_LIGHT
        terms.append((beat, carrier, sc.rcs))

    samples = np.zeros((p.num_fast_samples, p.num_chirps), dtype=np.complex128)

    def render(start: int) -> None:
        rows = samples[start : start + ROW_BLOCK]
        fast = np.arange(start, start + len(rows))[:, None]
        phase_buffer = np.empty((len(rows), min(CHIRP_BLOCK, p.num_chirps)))
        term_buffer = np.empty(phase_buffer.shape, dtype=np.complex128)
        for first in range(0, p.num_chirps, CHIRP_BLOCK):
            chirps = slice(first, first + CHIRP_BLOCK)
            tile = rows[:, chirps]
            phase = phase_buffer[:, : tile.shape[1]]
            term = term_buffer[:, : tile.shape[1]]
            lanes = term.view(np.float64)
            for beat, carrier, rcs in terms:
                np.multiply(beat[chirps], fast, out=phase)
                phase /= p.sample_rate
                phase += carrier[chirps]
                phase *= 2.0 * math.pi
                np.multiply(1j, phase, out=term)
                np.exp(term, out=term)
                lanes *= rcs  # the complex product with rcs+0j adds only exact zeros
                tile += term

    starts = range(0, p.num_fast_samples, ROW_BLOCK)
    with ThreadPoolExecutor(min(_available_cores(), len(starts))) as pool:
        rendered = [pool.submit(render, start) for start in starts]
        if scenario.noise_power > 0:
            # drawn here while the pool renders; one row of a C-ordered draw
            # is a contiguous run of the stream, and it is added only once
            # its row holds the full scatterer sum
            rng = np.random.default_rng(scenario.seed)
            sigma = math.sqrt(scenario.noise_power / 2.0)
            noise = np.empty(p.num_chirps)
            re_im = samples.view(np.float64)
            for part in (re_im[:, 0::2], re_im[:, 1::2]):
                for row, values in enumerate(part):
                    rng.standard_normal(out=noise)
                    noise *= sigma
                    rendered[row // ROW_BLOCK].result()
                    values += noise
        for done in rendered:
            done.result()
    return RadarCube(params=p, samples=samples)


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

DEFAULT_PARAMS = RadarParams(
    num_fast_samples=128,
    num_chirps=6000,
    sample_rate=2.0e6,
    chirp_repetition_freq=2000.0,
    center_freq=77.0e9,
    bandwidth=1.5e9,
)

# Velocity amplitudes in m/s; at 77 GHz one m/s is about 513.7 Hz of
# Doppler, and the default 256-bin axis resolves 7.8125 Hz per bin.
_PRESETS = {
    # one wide transient event: several limbs sweep a broad Doppler band
    # together, so the band stays occupied for most of the dwell
    "fall_like": (
        (
            ScattererSpec(base_range=2.0, micro_amp=1.5, micro_freq=0.30, rcs=1.0),
            ScattererSpec(base_range=2.0, micro_amp=1.25, micro_freq=0.27,
                          micro_phase=1.1, rcs=0.9),
            ScattererSpec(base_range=2.1, micro_amp=1.0, micro_freq=0.33,
                          micro_phase=2.2, rcs=0.9),
            ScattererSpec(base_range=2.1, micro_amp=0.7, micro_freq=0.25,
                          micro_phase=3.1, rcs=0.8),
            ScattererSpec(base_range=2.2, micro_amp=0.45, micro_freq=0.36,
                          micro_phase=4.4, rcs=0.8),
            ScattererSpec(base_range=2.2, micro_amp=0.2, micro_freq=0.29,
                          micro_phase=5.3, rcs=0.7),
        ),
        1e-4,
    ),
    # asymmetric gait: one weak fast limb, one stronger slow limb
    "limp_like": (
        (
            ScattererSpec(base_range=2.0, micro_amp=0.22, micro_freq=1.1, rcs=1.0),
            ScattererSpec(base_range=2.1, micro_amp=0.12, micro_freq=1.1,
                          micro_phase=math.pi / 2.0, rcs=0.7),
        ),
        1e-4,
    ),
    # regular gait: torso sway plus a faster limb swing
    "walk_like": (
        (
            ScattererSpec(base_range=2.0, micro_amp=0.25, micro_freq=0.9, rcs=1.0),
            ScattererSpec(base_range=2.1, micro_amp=0.8, micro_freq=1.8, rcs=0.6),
        ),
        1e-4,
    ),
    # motionless reflector: pure zero-Doppler return for clutter checks
    "static_like": (
        (ScattererSpec(base_range=2.0, rcs=1.0),),
        0.0,
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> Scenario:
    """Named scenario with documented constants at DEFAULT_PARAMS."""
    try:
        scatterers, noise_power = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}") from None
    return Scenario(params=DEFAULT_PARAMS, scatterers=scatterers,
                    noise_power=noise_power, seed=1234)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def _parse_scatterer(block: str, source: str) -> ScattererSpec:
    """A ``{name: value, ...}`` block; fields left out keep their defaults."""
    block = block.strip()
    if not (block.startswith("{") and block.endswith("}")):
        raise FileFormatError(f"{source}: scatterer block must be brace-wrapped, got {block!r}")
    pairs = []
    body = block[1:-1].strip()
    for item in body.split(",") if body else ():
        name, sep, value = item.partition(":")
        if not sep:
            raise FileFormatError(f"{source}: expected 'name: value' in {item!r}")
        pairs.append((name.strip(), value.strip()))
    return from_kv(ScattererSpec, pairs, f"{source}: scatterer {block}", defaults=True)


def save_scenario(scenario: Scenario, path) -> Path:
    path = Path(path)
    pairs = field_pairs(scenario.params)
    pairs += [("noise_power", scenario.noise_power), ("seed", scenario.seed)]
    pairs += [("scatterer", "{" + ", ".join(f"{k}: {v!r}" for k, v in field_pairs(sc)) + "}")
              for sc in scenario.scatterers]
    path.write_text(format_kv(pairs))
    return path


def load_scenario(path) -> Scenario:
    """Read a scenario file: the RadarParams keys, noise_power and seed
    (both optional), and one ``scatterer`` line per scatterer."""
    path = Path(path)
    if not path.exists():
        raise FileFormatError(f"scenario file not found: {path}")
    geometry_keys = {f.name for f in fields(RadarParams)}
    geometry, scalars, scatterers = [], [], []
    for key, value in parse_kv(path.read_text()):
        if key == "scatterer":
            scatterers.append(_parse_scatterer(value, str(path)))
        else:
            (geometry if key in geometry_keys else scalars).append((key, value))
    params = from_kv(RadarParams, geometry, path)
    return from_kv(Scenario, scalars, path, defaults=True,
                   params=params, scatterers=tuple(scatterers))
