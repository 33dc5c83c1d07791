import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dft_frame
from radoppler import linspec
from radoppler.errors import DegenerateInputError, FileFormatError
from radoppler.ingest import CHIRP_BLOCK, PipelineConfig, load_radar_cube, write_radar_cube
from radoppler.linspec import (
    Spectrogram,
    load_spectrogram,
    log_view,
    save_spectrogram,
    slow_time_signal,
    spectrogram_from_cube,
    spectrogram_from_file,
    stft_spectrogram,
    window_function,
)
from radoppler.preprocess import RangeProfileMatrix, clutter_filter, range_transform
from radoppler.simulator import PRESET_NAMES, preset, synthesize


def profiles_of(signal_row, prf=1000.0, copies=1):
    rows = np.tile(np.asarray(signal_row, dtype=complex)[None, :], (copies, 1))
    return RangeProfileMatrix(values=rows, range_resolution=0.1,
                              chirp_repetition_freq=prf)


def tone(freq, prf, n):
    return np.exp(2j * np.pi * freq * np.arange(n) / prf)


CFG = PipelineConfig(range_bin_start=0, range_bin_end=0, window_length=64,
                     hop=16, fft_length=128)


class TestSlowTimeSignal:
    def test_coherent_sums_complex_rows(self, rng):
        rows = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
        pm = RangeProfileMatrix(values=rows, range_resolution=0.1,
                                chirp_repetition_freq=1000.0)
        cfg = PipelineConfig(range_bin_start=1, range_bin_end=2, window_length=16,
                             hop=4, fft_length=16)
        np.testing.assert_allclose(slow_time_signal(pm, cfg), rows[1:3].sum(axis=0))

    def test_non_coherent_sums_magnitudes(self, rng):
        rows = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        pm = RangeProfileMatrix(values=rows, range_resolution=0.1,
                                chirp_repetition_freq=1000.0)
        cfg = PipelineConfig(range_bin_start=0, range_bin_end=2, window_length=16,
                             hop=4, fft_length=16, coherent=False)
        np.testing.assert_allclose(slow_time_signal(pm, cfg),
                                   np.abs(rows).sum(axis=0))

    def test_interval_beyond_bins_rejected(self):
        pm = profiles_of(np.ones(32), copies=2)
        cfg = PipelineConfig(range_bin_start=0, range_bin_end=5, window_length=16,
                             hop=4, fft_length=16)
        with pytest.raises(ValueError, match="range bins"):
            slow_time_signal(pm, cfg)


class TestSpectrogramFromCube:
    @pytest.fixture(scope="class")
    def cubes(self):
        return {name: synthesize(preset(name)) for name in PRESET_NAMES}

    @pytest.mark.parametrize("coherent", [True, False])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_per_row_path(self, cubes, name, coherent):
        cube = cubes[name]
        cfg = PipelineConfig(coherent=coherent)
        per_row = stft_spectrogram(
            clutter_filter(range_transform(cube), cutoff=cfg.notch_cutoff, order=cfg.notch_order),
            cfg)
        ours = spectrogram_from_cube(cube, cfg)
        # static_like's filtered power is rounding residue, so scale the bound
        # by the unfiltered peak
        unfiltered_peak = stft_spectrogram(range_transform(cube), cfg).power.max()
        assert ours.power.shape == per_row.power.shape
        assert np.abs(ours.power - per_row.power).max() <= 1e-8 * unfiltered_peak
        np.testing.assert_array_equal(ours.time_axis, per_row.time_axis)
        np.testing.assert_array_equal(ours.freq_axis, per_row.freq_axis)

    @pytest.mark.parametrize("first,last", [(0, 63), (3, 20)])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_non_coherent_matches_per_row_path_bits(self, cubes, name, first, last):
        cube = cubes[name]
        cfg = PipelineConfig(coherent=False, range_bin_start=first, range_bin_end=last)
        per_row = stft_spectrogram(
            clutter_filter(range_transform(cube), cutoff=cfg.notch_cutoff, order=cfg.notch_order),
            cfg)
        ours = spectrogram_from_cube(cube, cfg)
        np.testing.assert_array_equal(ours.power.view(np.uint64), per_row.power.view(np.uint64))

    @pytest.mark.parametrize("coherent", [True, False])
    def test_interval_beyond_bins_rejected(self, cubes, coherent):
        cube = cubes["walk_like"]
        bins = cube.params.num_fast_samples // 2
        cfg = PipelineConfig(range_bin_end=bins, coherent=coherent)
        with pytest.raises(ValueError, match=rf"range bins \[0, {bins}\] exceed the {bins}"):
            spectrogram_from_cube(cube, cfg)


class TestSpectrogramFromFile:
    @pytest.fixture(scope="class")
    def dwell(self, tmp_path_factory):
        """A walk_like cube of 30 000 chirps: seven full read blocks and a partial one."""
        scenario = preset("walk_like")
        scenario = dataclasses.replace(
            scenario, params=dataclasses.replace(scenario.params, num_chirps=30_000))
        return write_radar_cube(synthesize(scenario),
                                tmp_path_factory.mktemp("dwell") / "dwell.iq")

    @staticmethod
    def traced_peak(path, cfg):
        tracemalloc.start()
        try:
            spectrogram_from_file(path, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_below_payload(self, dwell):
        assert self.traced_peak(dwell, PipelineConfig()) < dwell.stat().st_size

    @pytest.mark.parametrize("last,payloads", [(63, 5), (7, 1)])
    def test_non_coherent_peak_memory(self, dwell, last, payloads):
        # the kept rows hold 16 B per bin and chirp against the payload's
        # 8 B per fast sample and chirp, so 64 of 128 bins weigh one payload
        cfg = PipelineConfig(coherent=False, range_bin_end=last)
        assert self.traced_peak(dwell, cfg) < payloads * dwell.stat().st_size

    @pytest.mark.parametrize("coherent", [True, False])
    def test_matches_loaded_cube(self, dwell, coherent):
        assert 30_000 % CHIRP_BLOCK != 0
        cfg = PipelineConfig(coherent=coherent)
        ours = spectrogram_from_file(dwell, cfg)
        expect = spectrogram_from_cube(load_radar_cube(dwell), cfg)
        np.testing.assert_array_equal(ours.power, expect.power)
        np.testing.assert_array_equal(ours.time_axis, expect.time_axis)
        np.testing.assert_array_equal(ours.freq_axis, expect.freq_axis)

    def test_single_chirp_tail_block(self, tmp_path):
        # 4097 chirps leave a last read block of one chirp; hop 1 and a rect
        # window (hann ends in a zero tap) let that chirp reach the power
        scenario = preset("limp_like")
        scenario = dataclasses.replace(
            scenario, params=dataclasses.replace(scenario.params, num_chirps=CHIRP_BLOCK + 1))
        path = write_radar_cube(synthesize(scenario), tmp_path / "c.iq")
        cube = load_radar_cube(path)
        for coherent in (True, False):
            cfg = PipelineConfig(hop=1, window_kind="rect", coherent=coherent)
            np.testing.assert_array_equal(spectrogram_from_file(path, cfg).power,
                                          spectrogram_from_cube(cube, cfg).power)

    def test_non_finite_in_later_block_rejected(self, dwell, tmp_path):
        raw = np.fromfile(dwell, dtype="<f4")
        raw[2 * 128 * (CHIRP_BLOCK + 10)] = np.nan  # a chirp of the second read block
        bad = tmp_path / "bad.iq"
        raw.tofile(bad)
        bad.with_suffix(".meta").write_text(dwell.with_suffix(".meta").read_text())
        with pytest.raises(FileFormatError, match="payload contains non-finite samples"):
            spectrogram_from_file(bad, PipelineConfig())

    def test_truncated_payload_rejected(self, dwell, tmp_path):
        bad = tmp_path / "short.iq"
        bad.write_bytes(dwell.read_bytes()[:-8])
        bad.with_suffix(".meta").write_text(dwell.with_suffix(".meta").read_text())
        with pytest.raises(FileFormatError, match=r"payload holds \d+ floats, metadata declares"):
            spectrogram_from_file(bad, PipelineConfig())

    @pytest.mark.parametrize("coherent", [True, False])
    def test_interval_beyond_bins_rejected(self, dwell, coherent):
        cfg = PipelineConfig(range_bin_end=64, coherent=coherent)
        with pytest.raises(ValueError, match=r"range bins \[0, 64\] exceed the 64"):
            spectrogram_from_file(dwell, cfg)


class TestStftSpectrogram:
    def test_frame_blocks_match_one_batch(self, rng, monkeypatch):
        signal = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        whole = stft_spectrogram(profiles_of(signal), CFG)
        assert whole.num_frames < linspec.FRAME_BLOCK
        monkeypatch.setattr(linspec, "FRAME_BLOCK", 7)
        blocked = stft_spectrogram(profiles_of(signal), CFG)
        np.testing.assert_array_equal(blocked.power, whole.power)

    def test_single_tone_argmax(self):
        prf = 1000.0
        spec = stft_spectrogram(profiles_of(tone(prf / 8, prf, 512), prf), CFG)
        peaks = spec.freq_axis[spec.power.argmax(axis=1)]
        np.testing.assert_allclose(peaks, prf / 8)

    def test_zero_signal(self):
        spec = stft_spectrogram(profiles_of(np.zeros(256)), CFG)
        assert spec.power.shape == ((256 - 64) // 16 + 1, 128)
        np.testing.assert_array_equal(spec.power, 0.0)

    def test_frame_count(self):
        spec = stft_spectrogram(profiles_of(np.ones(300)), CFG)
        assert spec.num_frames == (300 - 64) // 16 + 1

    def test_axes(self):
        prf = 1000.0
        spec = stft_spectrogram(profiles_of(np.ones(256), prf), CFG)
        assert spec.f_max == prf / 2
        assert spec.freq_axis[0] == -prf / 2
        assert spec.freq_axis[64] == 0.0
        assert spec.hz_per_bin == prf / 128
        np.testing.assert_allclose(np.diff(spec.time_axis), 16 / prf)
        assert spec.frame_dt == pytest.approx(16 / prf)

    def test_parseval_rect_window(self, rng):
        s = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        cfg = PipelineConfig(range_bin_start=0, range_bin_end=0, window_kind="rect",
                             window_length=32, hop=8, fft_length=32)
        spec = stft_spectrogram(profiles_of(s), cfg)
        for t in range(spec.num_frames):
            frame = s[t * 8 : t * 8 + 32]
            assert spec.power[t].sum() == pytest.approx(32 * np.sum(np.abs(frame) ** 2),
                                                        rel=1e-9)

    def test_matches_direct_dft_oracle(self, rng):
        s = rng.standard_normal(160) + 1j * rng.standard_normal(160)
        cfg = PipelineConfig(range_bin_start=0, range_bin_end=0, window_kind="hamming",
                             window_length=48, hop=12, fft_length=64)
        spec = stft_spectrogram(profiles_of(s), cfg)
        w = np.hamming(48)
        for t in range(spec.num_frames):
            expect = np.abs(dft_frame(s[t * 12 : t * 12 + 48] * w, 64)) ** 2
            np.testing.assert_allclose(spec.power[t], expect, rtol=1e-9, atol=1e-9)

    def test_window_longer_than_signal(self):
        with pytest.raises(ValueError, match="window_length"):
            stft_spectrogram(profiles_of(np.ones(32)), CFG)

    def test_time_covariance_one_hop_delay(self, rng):
        s = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        delayed = np.concatenate([s[-16:], s[:-16]])  # content shifts by one hop
        a = stft_spectrogram(profiles_of(s), CFG).power
        b = stft_spectrogram(profiles_of(delayed), CFG).power
        scale = a.max()
        np.testing.assert_allclose(b[1:], a[:-1], atol=1e-9 * scale)

    def test_real_input_conjugate_symmetry(self, rng):
        s = rng.standard_normal(300).astype(complex)
        spec = stft_spectrogram(profiles_of(s), CFG)
        half = spec.num_freq_bins // 2
        left = spec.power[:, half - 1 : 0 : -1]
        right = spec.power[:, half + 1 :]
        np.testing.assert_allclose(right, left, rtol=1e-9, atol=1e-9 * spec.power.max())

    def test_window_kinds(self):
        np.testing.assert_array_equal(window_function("rect", 8), np.ones(8))
        np.testing.assert_array_equal(window_function("hann", 8), np.hanning(8))
        np.testing.assert_array_equal(window_function("hamming", 8), np.hamming(8))
        with pytest.raises(ValueError, match="window"):
            window_function("tukey", 8)


class TestSpectrogramType:
    def test_rejects_negative_power(self, make_spec):
        with pytest.raises(ValueError, match="non-negative"):
            make_spec(np.full((3, 4), -1.0))

    def test_rejects_odd_bins(self, make_spec):
        with pytest.raises(ValueError, match="even"):
            make_spec(np.ones((3, 5)))

    @pytest.mark.parametrize("frame_dt, message", [
        (-0.5, "positive for 4 frames; got -0.5"),
        (0.0, "positive for 4 frames; got 0.0"),
        (np.nan, "frame_dt must be finite.*got nan"),
        (np.inf, "frame_dt must be finite.*got inf"),
    ], ids=["negative", "zero", "nan", "inf"])
    def test_rejects_bad_frame_dt(self, frame_dt, message):
        with pytest.raises(ValueError, match=message):
            Spectrogram(power=np.ones((4, 4)), f_max=10.0, frame_dt=frame_dt)

    def test_single_frame_takes_any_finite_spacing(self):
        assert Spectrogram(power=np.ones((1, 4)), f_max=10.0, frame_dt=0.0).frame_dt == 0.0
        with pytest.raises(ValueError, match="finite"):
            Spectrogram(power=np.ones((1, 4)), f_max=10.0, frame_dt=np.nan)

    @pytest.mark.parametrize("f_max", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_f_max(self, f_max):
        with pytest.raises(ValueError, match="f_max must be positive and finite"):
            Spectrogram(power=np.ones((2, 4)), f_max=f_max, frame_dt=0.5)

    def test_axes_are_not_fields(self):
        assert [f.name for f in dataclasses.fields(Spectrogram)] == ["power", "f_max",
                                                                     "frame_dt"]
        with pytest.raises(TypeError, match="freq_axis"):
            Spectrogram(power=np.ones((3, 4)), freq_axis=[7, 1, 3, 2],
                        time_axis=[0, 0.5, 5], f_max=10.0)

    def test_axes_follow_the_scalars(self):
        spec = Spectrogram(power=np.ones((3, 4)), f_max=10.0, frame_dt=0.5)
        np.testing.assert_array_equal(spec.freq_axis, [-10.0, -5.0, 0.0, 5.0])
        np.testing.assert_array_equal(spec.time_axis, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("bad, message", [
        (2 + 1j, r"power must be real; frame 2 holds \(2\+1j\) in column 3"),
        (np.nan, "power must be finite and non-negative; frame 2 holds nan in column 3"),
        (np.inf, "power must be finite and non-negative; frame 2 holds inf in column 3"),
        (-1.0, "power must be finite and non-negative; frame 2 holds -1.0 in column 3"),
    ], ids=["complex", "nan", "inf", "negative"])
    def test_rejects_bad_power(self, bad, message):
        power = np.ones((4, 6), dtype=np.result_type(bad))
        power[2, 3] = bad
        with pytest.raises(ValueError, match=message):
            Spectrogram(power=power, f_max=10.0, frame_dt=0.5)

    def test_rejects_complex_dtype_without_imaginary_part(self):
        with pytest.raises(ValueError, match=r"must be real; frame 0 holds \(1\+0j\)"):
            Spectrogram(power=np.ones((4, 6), dtype=complex), f_max=10.0, frame_dt=0.5)

    def test_names_the_first_bad_frame(self):
        power = np.ones((5, 4))
        power[3, 1] = -2.0
        power[2, 3] = np.nan
        with pytest.raises(ValueError, match="frame 2 holds nan in column 3"):
            Spectrogram(power=power, f_max=10.0, frame_dt=0.5)


class TestLogView:
    def test_constant(self, make_spec):
        spec = make_spec(np.full((3, 4), 100.0))
        np.testing.assert_allclose(log_view(spec), 2.0)

    def test_floor_clamp(self, make_spec):
        power = np.ones((1, 4))
        power[0, 0] = 0.0
        spec = make_spec(power)
        out = log_view(spec, floor=1e-12)
        assert out[0, 0] == pytest.approx(-12.0)
        np.testing.assert_allclose(out[0, 1:], 0.0, atol=1e-12)

    def test_all_zero_rejected(self, make_spec):
        with pytest.raises(DegenerateInputError, match="degenerate"):
            log_view(make_spec(np.zeros((2, 4))))

    def test_bad_floor(self, make_spec):
        with pytest.raises(ValueError, match="floor"):
            log_view(make_spec(np.ones((2, 4))), floor=0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_monotone_in_power(self, seed):
        def as_spec(power):
            bins = power.shape[1]
            return Spectrogram(power=power, f_max=bins * 5.0, frame_dt=0.01)

        gen = np.random.default_rng(seed)
        a = gen.uniform(0, 10, size=(4, 6))
        b = np.minimum(a, gen.uniform(0, 10, size=(4, 6)))
        # shared peak keeps both matrices on the same floor reference
        b[0, 0] = a[0, 0] = 10.0
        va = log_view(as_spec(a))
        vb = log_view(as_spec(b))
        assert np.all(va >= vb - 1e-12)


class TestPersistence:
    def test_round_trip_bin(self, tmp_path, rng, make_spec):
        spec = make_spec(rng.uniform(0, 5, size=(6, 8)))
        path = save_spectrogram(spec, tmp_path / "s.bin", format="bin")
        back = load_spectrogram(path)
        np.testing.assert_array_equal(back.power, spec.power)
        np.testing.assert_array_equal(back.freq_axis, spec.freq_axis)
        np.testing.assert_array_equal(back.time_axis, spec.time_axis)
        assert (back.f_max, back.frame_dt) == (spec.f_max, spec.frame_dt)

    def test_round_trip_csv(self, tmp_path, rng, make_spec):
        spec = make_spec(rng.uniform(0, 5, size=(4, 6)))
        path = save_spectrogram(spec, tmp_path / "s.csv", format="csv")
        np.testing.assert_array_equal(load_spectrogram(path).power, spec.power)

    def test_missing_sidecar(self, tmp_path, rng, make_spec):
        spec = make_spec(rng.uniform(0, 5, size=(4, 6)))
        path = save_spectrogram(spec, tmp_path / "s.bin")
        path.with_name(path.name + ".meta").unlink()
        with pytest.raises(FileFormatError, match="sidecar"):
            load_spectrogram(path)

    def test_wrong_kind_rejected(self, tmp_path, rng, make_spec):
        spec = make_spec(rng.uniform(0, 5, size=(4, 6)))
        path = save_spectrogram(spec, tmp_path / "s.bin")
        sidecar = path.with_name(path.name + ".meta")
        sidecar.write_text(sidecar.read_text().replace("spectrogram", "cube"))
        with pytest.raises(FileFormatError, match="sidecar"):
            load_spectrogram(path)
