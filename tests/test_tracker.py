import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _oracles import kalman_smooth_reference, peak_track_reference
from radoppler import tracker
from radoppler.ingest import PipelineConfig
from radoppler.linspec import spectrogram_from_cube
from radoppler.ra_core import ra_transform
from radoppler.simulator import PRESET_NAMES, preset, synthesize
from radoppler.tracker import (
    SignatureTrack,
    kalman_smooth,
    peak_track,
    track_signature,
    write_track_csv,
)


def shifted_axis(bins, prf=1000.0):
    return (np.arange(bins) - bins // 2) * (prf / bins)


class TestPeakTrack:
    def test_constant_tone(self):
        axis = shifted_axis(64)
        power = np.full((10, 64), 0.1)
        power[:, 40] = 5.0
        np.testing.assert_array_equal(peak_track(power, axis), np.full(10, axis[40]))

    def test_per_frame_peaks(self, rng):
        axis = shifted_axis(32)
        bins = rng.integers(0, 32, size=8)
        power = rng.uniform(0, 1, size=(8, 32))
        power[np.arange(8), bins] = 10.0
        np.testing.assert_array_equal(peak_track(power, axis), axis[bins])

    def test_flat_frame_ties_to_zero(self):
        axis = shifted_axis(16)
        got = peak_track(np.ones((3, 16)), axis)
        np.testing.assert_array_equal(got, np.zeros(3))

    def test_mirror_tie_prefers_lower_index(self):
        axis = shifted_axis(16)
        power = np.zeros((1, 16))
        k = np.flatnonzero(axis == -250.0)[0]
        j = np.flatnonzero(axis == 250.0)[0]
        power[0, [k, j]] = 1.0
        assert peak_track(power, axis)[0] == -250.0

    @pytest.mark.parametrize("block", [1, 40, 1000, None])
    def test_matches_whole_matrix_argmax(self, rng, monkeypatch, block):
        # flat, mirror-tied and quantised frames, in blocks of 1, 3, 76 and all rows
        if block is not None:
            monkeypatch.setattr(tracker, "PEAK_BLOCK", block)
        axis = shifted_axis(13)
        power = rng.integers(0, 3, size=(200, 13)).astype(np.float64)
        power[::5] = 1.0
        power[1::7] = 0.0
        power[2::9, [2, 10]] = 9.0  # a mirror pair, ±4 bins
        np.testing.assert_array_equal(peak_track(power, axis),
                                      peak_track_reference(power, axis))

    def test_memory_well_below_one_matrix(self, rng):
        power = rng.uniform(0, 1, size=(4000, 256))  # 7.8 MB
        axis = shifted_axis(256)
        tracemalloc.start()
        try:
            peak_track(power, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < power.nbytes / 4, f"peak_track peaked at {peak / 2**20:.2f} MB"

    @pytest.mark.parametrize("block", [1, 40, None])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_power(self, rng, monkeypatch, block, bad):
        if block is not None:
            monkeypatch.setattr(tracker, "PEAK_BLOCK", block)
        power = rng.uniform(0, 1, size=(200, 13))
        power[150, [9, 4]] = bad
        power[170, 0] = np.nan
        with pytest.raises(ValueError, match=f"frame 150 holds {bad} in column 4"):
            peak_track(power, shifted_axis(13))

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            peak_track(np.ones(8), shifted_axis(8))
        with pytest.raises(ValueError, match="length"):
            peak_track(np.ones((2, 8)), shifted_axis(16))


class TestKalmanSmooth:
    def test_constant_input_constant_output(self):
        raw = np.full(50, 123.25)
        np.testing.assert_allclose(kalman_smooth(raw, 0.01), raw, rtol=1e-12)

    def test_tiny_r_follows_measurements(self, rng):
        raw = rng.uniform(-100, 100, size=40)
        out = kalman_smooth(raw, 0.01, q=10.0, r=1e-16)
        np.testing.assert_allclose(out, raw, atol=1e-6)

    def test_shift_equivariance(self, rng):
        raw = rng.normal(0, 10, size=60)
        a = kalman_smooth(raw, 0.008)
        b = kalman_smooth(raw + 500.0, 0.008)
        np.testing.assert_allclose(b - a, 500.0, atol=1e-9)

    def test_first_sample_trusts_measurement(self):
        out = kalman_smooth(np.array([42.0, 42.0, 42.0]), 0.01)
        assert out[0] == pytest.approx(42.0, rel=1e-6)

    def test_deterministic(self, rng):
        raw = rng.normal(0, 5, size=30)
        np.testing.assert_array_equal(kalman_smooth(raw, 0.01), kalman_smooth(raw, 0.01))

    def test_smooths_noise_on_ramp(self, rng):
        dt = 0.008
        t = np.arange(150) * dt
        truth = 40.0 * t - 25.0
        improved = 0
        for _ in range(20):
            raw = truth + rng.normal(0, 2.0, size=truth.size)
            out = kalman_smooth(raw, dt, q=10.0, r=4.0)
            if np.sqrt(np.mean((out - truth) ** 2)) < np.sqrt(np.mean((raw - truth) ** 2)):
                improved += 1
        assert improved >= 18

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            kalman_smooth(np.empty(0), 0.01)
        with pytest.raises(ValueError, match="positive"):
            kalman_smooth(np.ones(4), 0.0)
        with pytest.raises(ValueError, match="positive"):
            kalman_smooth(np.ones(4), 0.01, q=-1.0)
        with pytest.raises(ValueError, match="positive"):
            kalman_smooth(np.ones(4), 0.01, r=0.0)

    @pytest.mark.parametrize("args,named", [
        ((np.ones(4), np.inf), "dt must be finite and positive, got inf"),
        ((np.ones(4), 0.01, np.nan), "q must be finite and positive, got nan"),
        ((np.ones(4), 0.01, 10.0, np.inf), "r must be finite and positive, got inf"),
        ((np.array([1.0, 2.0, np.nan, np.inf]), 0.01), "frame 2 is nan"),
        ((np.ones(4), 1e103), "the filter overflows at dt=1e+103"),
    ], ids=["dt_inf", "q_nan", "r_inf", "raw_nan", "dt_overflow"])
    def test_rejects_non_finite(self, args, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            kalman_smooth(*args)


@pytest.fixture(scope="module")
def preset_peaks():
    """Raw peaks and frame spacing of the four presets, on the Doppler
    axis of the spectrogram and on the warped axis of the RA output."""
    peaks = {}
    for name in PRESET_NAMES:
        spec = spectrogram_from_cube(synthesize(preset(name)), PipelineConfig())
        ra = ra_transform(spec)
        peaks[name, "spec"] = peak_track(spec.power, spec.freq_axis), spec.frame_dt
        peaks[name, "ra"] = peak_track(ra.power, ra.warped_axis_hz()), spec.frame_dt
    return peaks


SRC = Path(tracker.__file__).resolve().parents[1]

WALK_DIGEST = """
import hashlib, numpy as np
from radoppler.tracker import kalman_smooth
raw = np.cumsum(np.random.default_rng(7).normal(0.0, 5.0, 7500))
print(hashlib.sha256(kalman_smooth(raw, 0.008).tobytes()).hexdigest())
"""


class TestKalmanRecursion:
    """The plain-float recursion against the 2x2 matrix form, whose BLAS
    products may fuse multiply-adds: equal to 1e-12 of the peak-to-peak."""

    @staticmethod
    def assert_matches_reference(raw, dt, q=10.0, r=4.0):
        got = kalman_smooth(raw, dt, q=q, r=r)
        want = kalman_smooth_reference(raw, dt, q=q, r=r)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.ptp(raw)))

    @pytest.mark.parametrize("axis", ["spec", "ra"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_peaks(self, preset_peaks, name, axis):
        raw, dt = preset_peaks[name, axis]
        self.assert_matches_reference(raw, dt)

    @pytest.mark.parametrize("q,r", [(10.0, 4.0), (10.0, 1e-16), (1e6, 4.0)])
    def test_long_random_walk(self, rng, q, r):
        raw = 300.0 + np.cumsum(rng.normal(0.0, 5.0, size=7500))
        self.assert_matches_reference(raw, 0.008, q=q, r=r)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("q,r", [(10.0, 4.0), (10.0, 1e-16), (1e6, 4.0)])
    def test_one_and_two_frames(self, rng, n, q, r):
        self.assert_matches_reference(rng.uniform(-500.0, 500.0, size=n), 0.016, q=q, r=r)

    def test_same_bytes_whatever_blas_threads(self):
        digests = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", WALK_DIGEST], env=env,
                                  capture_output=True, text=True, timeout=60, check=True)
            digests.append(done.stdout.strip())
        raw = np.cumsum(np.random.default_rng(7).normal(0.0, 5.0, 7500))
        here = hashlib.sha256(kalman_smooth(raw, 0.008).tobytes()).hexdigest()
        assert digests == [here, here]


class TestTrackSignature:
    def test_constant_tone_track(self):
        axis = shifted_axis(64)
        power = np.full((40, 64), 0.01)
        power[:, 48] = 3.0
        times = np.arange(40) * 0.016
        track = track_signature(power, axis, times)
        np.testing.assert_array_equal(track.raw_peaks, np.full(40, axis[48]))
        np.testing.assert_allclose(track.smoothed, axis[48], rtol=1e-9)
        np.testing.assert_array_equal(track.frame_times, times)

    def test_smoothed_clipped_to_axis_range(self):
        axis = shifted_axis(16)
        power = np.zeros((6, 16))
        power[:, -1] = 1.0  # peak pinned at the top axis value
        track = track_signature(power, axis, np.arange(6) * 0.1)
        assert track.smoothed.max() <= axis.max()
        assert track.smoothed.min() >= axis.min()

    def test_single_frame_uses_unit_dt(self):
        axis = shifted_axis(8)
        power = np.zeros((1, 8))
        power[0, 5] = 1.0
        track = track_signature(power, axis, np.array([0.0]))
        assert track.smoothed[0] == pytest.approx(axis[5], rel=1e-6)

    @pytest.mark.parametrize("times,frame", [([0.0, 0.1, 0.1, 0.3], 2),
                                             ([0.0, -0.5, -1.0, -1.5], 1),
                                             ([0.0, 0.1, np.nan, 0.3], 2)])
    def test_frame_times_must_increase(self, times, frame):
        with pytest.raises(ValueError, match=f"frame_times must increase: frame {frame} "):
            track_signature(np.ones((4, 8)), shifted_axis(8), np.array(times))

    def test_frame_times_must_be_evenly_spaced(self):
        with pytest.raises(ValueError, match=r"frame 2 is at 50\.0 s, frame 1 at 0\.1 s, "
                                             r"and every spacing must be within 1e-6 of "
                                             r"the first, 0\.1 s"):
            track_signature(np.ones((3, 4)), np.arange(4.0), [0.0, 0.1, 50.0])

    @pytest.mark.parametrize("frame_dt", [0.016, 1 / 3, 0.1])
    def test_long_arange_times_are_even(self, frame_dt):
        times = np.arange(100_000) * frame_dt
        track = track_signature(np.ones((times.size, 4)), np.arange(4.0), times)
        np.testing.assert_array_equal(track.frame_times, times)

    def test_spacing_tolerance_is_one_millionth(self):
        power, axis = np.ones((3, 4)), np.arange(4.0)
        track_signature(power, axis, [0.0, 1.0, 2.0 + 0.9e-6])
        with pytest.raises(ValueError, match="must increase: frame 2 is at 2.0000011 s"):
            track_signature(power, axis, [0.0, 1.0, 2.0 + 1.1e-6])

    def test_times_length_mismatch(self):
        with pytest.raises(ValueError, match="frame_times"):
            track_signature(np.ones((4, 8)), shifted_axis(8), np.arange(3))


class TestSignatureTrack:
    def test_read_only_and_validation(self):
        track = SignatureTrack(raw_peaks=[1.0, 2.0], smoothed=[1.0, 1.5],
                               frame_times=[0.0, 0.1])
        with pytest.raises(ValueError):
            track.raw_peaks[0] = 9.0
        with pytest.raises(ValueError, match="equally long"):
            SignatureTrack(raw_peaks=[1.0], smoothed=[1.0, 2.0], frame_times=[0.0])
        with pytest.raises(ValueError, match="non-empty"):
            SignatureTrack(raw_peaks=[], smoothed=[], frame_times=[])


class TestTrackCsv:
    def test_round_trip(self, tmp_path, rng):
        times = np.arange(12) * 0.016
        raw = rng.normal(0, 30, size=12)
        track = SignatureTrack(raw_peaks=raw, smoothed=kalman_smooth(raw, 0.016),
                               frame_times=times)
        path = write_track_csv(track, tmp_path / "track.csv", axis_kind="ra_center_hz")
        lines = path.read_text().splitlines()
        assert lines[0] == "# axis: ra_center_hz"
        assert lines[1] == "frame_time,raw_peak,smoothed"
        body = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        np.testing.assert_array_equal(body[:, 0], times)
        np.testing.assert_array_equal(body[:, 1], track.raw_peaks)
        np.testing.assert_array_equal(body[:, 2], track.smoothed)
