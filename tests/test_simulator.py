import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from radoppler import simulator
from radoppler.errors import AliasingError, FileFormatError
from radoppler.ingest import SPEED_OF_LIGHT, PipelineConfig, RadarParams
from radoppler.linspec import stft_spectrogram
from radoppler.preprocess import clutter_filter, range_transform
from radoppler.simulator import (
    DEFAULT_PARAMS,
    PRESET_NAMES,
    Scenario,
    ScattererSpec,
    load_scenario,
    preset,
    save_scenario,
    synthesize,
)
from radoppler.tracker import peak_track

from _oracles import synthesize_reference

SHORT_PARAMS = dataclasses.replace(DEFAULT_PARAMS, num_chirps=256)


def short(scenario, num_chirps=256):
    return dataclasses.replace(
        scenario, params=dataclasses.replace(scenario.params, num_chirps=num_chirps))


class TestScattererSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="base_range"):
            ScattererSpec(base_range=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            ScattererSpec(base_range=1.0, micro_amp=-0.1)
        with pytest.raises(ValueError, match="rcs"):
            ScattererSpec(base_range=1.0, rcs=0.0)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ScattererSpec)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"ScattererSpec.{name} must be finite"):
            ScattererSpec(**{"base_range": 2.0, name: value})

    def test_peak_doppler(self):
        sc = ScattererSpec(base_range=2.0, base_velocity=1.0, micro_amp=0.5)
        expect = 2.0 * 1.5 * 77e9 / SPEED_OF_LIGHT
        assert sc.peak_doppler(77e9) == pytest.approx(expect, rel=1e-12)

    def test_range_at_matches_velocity_integral(self):
        # closed form against trapezoidal integration of the velocity profile
        t = np.linspace(0.0, 2.0, 200_001)
        for sc in (
            ScattererSpec(base_range=3.0, base_velocity=0.4, micro_amp=0.7,
                          micro_freq=1.3, micro_phase=0.9),
            ScattererSpec(base_range=1.5, micro_amp=0.3, micro_freq=2.2),
            ScattererSpec(base_range=2.0, base_velocity=-0.2, micro_amp=0.5,
                          micro_freq=0.0, micro_phase=1.0),
        ):
            v = sc.base_velocity + sc.micro_amp * np.sin(
                2 * math.pi * sc.micro_freq * t + sc.micro_phase)
            numeric = sc.base_range + np.concatenate(
                [[0.0], np.cumsum((v[1:] + v[:-1]) / 2 * np.diff(t))])
            np.testing.assert_allclose(sc.range_at(t), numeric, rtol=1e-7, atol=1e-7)

    def test_range_at_zero_freq_branch(self):
        sc = ScattererSpec(base_range=2.0, micro_amp=0.5, micro_freq=0.0,
                           micro_phase=math.pi / 2)
        t = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(sc.range_at(t), 2.0 + 0.5 * t, rtol=1e-12)


class TestScenario:
    def test_needs_scatterers(self):
        with pytest.raises(ValueError, match="at least one"):
            Scenario(params=SHORT_PARAMS, scatterers=())

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="noise_power"):
            Scenario(params=SHORT_PARAMS,
                     scatterers=(ScattererSpec(base_range=2.0),), noise_power=-1.0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="Scenario.seed must be non-negative, got -3"):
            Scenario(params=SHORT_PARAMS, scatterers=(ScattererSpec(base_range=2.0),), seed=-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_noise(self, value):
        with pytest.raises(ValueError, match="Scenario.noise_power must be finite"):
            Scenario(params=SHORT_PARAMS,
                     scatterers=(ScattererSpec(base_range=2.0),), noise_power=value)


class TestSynthesize:
    def test_static_target_lands_in_range_bin(self):
        sc = Scenario(params=SHORT_PARAMS, scatterers=(ScattererSpec(base_range=2.0),))
        cube = synthesize(sc)
        profiles = range_transform(cube)
        expect = round(2.0 / profiles.range_resolution)
        peaks = np.abs(profiles.values).argmax(axis=0)
        np.testing.assert_array_equal(peaks, np.full(cube.params.num_chirps, expect))

    def test_equal_seeds_bit_identical(self):
        sc = Scenario(params=SHORT_PARAMS,
                      scatterers=(ScattererSpec(base_range=2.0, micro_amp=0.3,
                                                micro_freq=1.0),),
                      noise_power=1e-3, seed=77)
        a = synthesize(sc).samples
        b = synthesize(sc).samples
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        base = Scenario(params=SHORT_PARAMS,
                        scatterers=(ScattererSpec(base_range=2.0),),
                        noise_power=1e-3, seed=1)
        other = dataclasses.replace(base, seed=2)
        assert not np.array_equal(synthesize(base).samples, synthesize(other).samples)

    def test_constant_velocity_doppler(self):
        # dwell short enough that the target stays inside one range bin
        v = 0.3
        params = dataclasses.replace(DEFAULT_PARAMS, num_chirps=512)
        sc = Scenario(params=params,
                      scatterers=(ScattererSpec(base_range=2.0, base_velocity=v),))
        profiles = range_transform(synthesize(sc))
        bin_idx = round(2.0 / profiles.range_resolution)
        spectrum = np.fft.fftshift(np.fft.fft(profiles.values[bin_idx]))
        prf = params.chirp_repetition_freq
        axis = (np.arange(params.num_chirps) - params.num_chirps // 2) * prf / params.num_chirps
        got = axis[np.abs(spectrum).argmax()]
        expect = 2.0 * v * params.center_freq / SPEED_OF_LIGHT
        assert abs(got - expect) <= prf / params.num_chirps

    def test_pendulum_peak_doppler(self):
        amp, f_micro = 0.25, 1.0
        params = dataclasses.replace(DEFAULT_PARAMS, num_chirps=4000)
        sc = Scenario(params=params,
                      scatterers=(ScattererSpec(base_range=2.0, micro_amp=amp,
                                                micro_freq=f_micro),))
        cfg = PipelineConfig(range_bin_start=18, range_bin_end=22,
                             window_length=128, hop=32, fft_length=256)
        spec = stft_spectrogram(range_transform(synthesize(sc)), cfg)
        track = peak_track(spec.power, spec.freq_axis)
        expect = 2.0 * amp * params.center_freq / SPEED_OF_LIGHT
        assert np.abs(track).max() == pytest.approx(expect, rel=0.10)

    def test_static_scene_mostly_removed_by_clutter_filter(self):
        cube = synthesize(short(preset("static_like"), 2000))
        profiles = range_transform(cube)
        before = np.abs(profiles.values.sum(axis=1)) ** 2
        filtered = clutter_filter(profiles)
        after = np.abs(filtered.values.sum(axis=1)) ** 2
        assert after.sum() <= 0.01 * before.sum()

    def test_aliasing_error_names_scatterer(self):
        sc = Scenario(params=SHORT_PARAMS,
                      scatterers=(ScattererSpec(base_range=2.0),
                                  ScattererSpec(base_range=2.5, base_velocity=2.5)))
        with pytest.raises(AliasingError, match="scatterer 1"):
            synthesize(sc)

    def test_cube_shape_and_dtype(self):
        cube = synthesize(Scenario(params=SHORT_PARAMS,
                                   scatterers=(ScattererSpec(base_range=2.0),)))
        assert cube.samples.shape == (128, 256)
        assert cube.samples.dtype == np.complex128


def assert_bits_equal(actual, expect):
    np.testing.assert_array_equal(actual.view(np.uint64), expect.view(np.uint64))


NOISY_SCENE = Scenario(
    params=dataclasses.replace(DEFAULT_PARAMS, num_fast_samples=40, num_chirps=5000),
    scatterers=(
        ScattererSpec(base_range=1.7, micro_amp=0.9, micro_freq=1.3, micro_phase=0.4, rcs=0.8),
        ScattererSpec(base_range=2.4, base_velocity=-0.2, micro_amp=0.5, micro_freq=0.6),
        ScattererSpec(base_range=2.9, micro_amp=0.3, micro_freq=2.0, micro_phase=5.0, rcs=0.55),
    ),
    noise_power=3e-3,
    seed=4242,
)


class TestBlockedRender:
    """synthesize equals the whole-grid formula bit for bit."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name):
        scenario = preset(name)
        assert_bits_equal(synthesize(scenario).samples, synthesize_reference(scenario))

    def test_noisy_multi_scatterer_scene(self):
        assert NOISY_SCENE.params.num_chirps % simulator.CHIRP_BLOCK != 0
        assert_bits_equal(synthesize(NOISY_SCENE).samples, synthesize_reference(NOISY_SCENE))

    @pytest.mark.parametrize("num_fast_samples, num_chirps", [(13, 300), (128, 1), (5, 1)])
    def test_partial_blocks(self, num_fast_samples, num_chirps):
        assert num_fast_samples % simulator.ROW_BLOCK != 0 or num_chirps == 1
        scenario = dataclasses.replace(NOISY_SCENE, params=dataclasses.replace(
            NOISY_SCENE.params, num_fast_samples=num_fast_samples, num_chirps=num_chirps))
        assert_bits_equal(synthesize(scenario).samples, synthesize_reference(scenario))

    def test_moving_scatterer_with_zero_rate_oscillation(self):
        scenario = Scenario(
            params=SHORT_PARAMS,
            scatterers=(ScattererSpec(base_range=2.0, base_velocity=0.35, micro_amp=0.2,
                                      micro_freq=0.0, micro_phase=1.0),
                        ScattererSpec(base_range=2.6, base_velocity=-0.5, rcs=0.7)),
            noise_power=1e-4, seed=9)
        assert_bits_equal(synthesize(scenario).samples, synthesize_reference(scenario))

    @pytest.mark.parametrize("row_block, chirp_block, cores", [(3, 7, 1), (1, 4999, 8), (64, 1, 2)])
    def test_independent_of_blocks_and_threads(self, monkeypatch, row_block, chirp_block, cores):
        # more workers than cores and frequent thread switches: a row whose
        # noise lands before its render finishes would change the bits
        expect = synthesize_reference(NOISY_SCENE)
        monkeypatch.setattr(simulator, "ROW_BLOCK", row_block)
        monkeypatch.setattr(simulator, "CHIRP_BLOCK", chirp_block)
        monkeypatch.setattr(simulator, "_available_cores", lambda: cores)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            samples = synthesize(NOISY_SCENE).samples
        finally:
            sys.setswitchinterval(interval)
        assert_bits_equal(samples, expect)

    def test_peak_memory_about_one_cube(self):
        scenario = Scenario(
            params=dataclasses.replace(DEFAULT_PARAMS, num_chirps=30_000),
            scatterers=NOISY_SCENE.scatterers[:2], noise_power=1e-4, seed=3)
        tracemalloc.start()
        try:
            cube = synthesize(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * cube.samples.nbytes


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == ("fall_like", "limp_like", "walk_like", "static_like")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_synthesize_clean(self, name):
        scenario = preset(name)
        assert scenario.seed == 1234
        cube = synthesize(short(scenario, 64))
        assert np.all(np.isfinite(cube.samples.real))

    def test_preset_deterministic(self):
        a = synthesize(short(preset("limp_like")))
        b = synthesize(short(preset("limp_like")))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="fall_like"):
            preset("sprint_like")


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        scenario = short(preset("walk_like"))
        path = save_scenario(scenario, tmp_path / "walk.scn")
        loaded = load_scenario(path)
        assert loaded == scenario
        np.testing.assert_array_equal(synthesize(loaded).samples,
                                      synthesize(scenario).samples)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="not found"):
            load_scenario(tmp_path / "nope.scn")

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text("num_chirps = 64\nscatterer = {base_range: 2.0}\n")
        with pytest.raises(FileFormatError, match="missing keys"):
            load_scenario(path)

    def _minimal(self, extra=""):
        return (
            "num_fast_samples = 32\nnum_chirps = 16\nsample_rate = 2e6\n"
            "chirp_repetition_freq = 2000\ncenter_freq = 77e9\nbandwidth = 1.5e9\n"
            + extra
        )

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text(self._minimal("scatterer = {base_range: 2.0}\nwind = 3\n"))
        with pytest.raises(FileFormatError, match="unknown keys"):
            load_scenario(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text(self._minimal("seed = 1\nseed = 2\nscatterer = {base_range: 2.0}\n"))
        with pytest.raises(FileFormatError, match="duplicate"):
            load_scenario(path)

    def test_no_scatterers(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text(self._minimal())
        with pytest.raises(FileFormatError, match="at least one"):
            load_scenario(path)

    @pytest.mark.parametrize("block, message", [
        ("base_range: 2.0", "brace-wrapped"),
        ("{base_range 2.0}", "name: value"),
        ("{base_range: 2.0, base_range: 3.0}", "duplicate key"),
        ("{spin: 2.0}", "unknown keys"),
        ("{base_range: fast}", "as float"),
        ("{rcs: 1.0}", "base_range"),
    ])
    def test_malformed_scatterer_blocks(self, tmp_path, block, message):
        path = tmp_path / "bad.scn"
        path.write_text(self._minimal(f"scatterer = {block}\n"))
        with pytest.raises(FileFormatError, match=message):
            load_scenario(path)

    def test_non_finite_param_rejected(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text(self._minimal("scatterer = {base_range: 2.0}\n").replace(
            "sample_rate = 2e6", "sample_rate = nan"))
        with pytest.raises(FileFormatError, match=r"RadarParams\.sample_rate must be finite"):
            load_scenario(path)

    def test_defaults_for_noise_and_seed(self, tmp_path):
        path = tmp_path / "plain.scn"
        path.write_text(self._minimal("scatterer = {base_range: 2.0}\n"))
        scenario = load_scenario(path)
        assert scenario.noise_power == 0.0
        assert scenario.seed == 0
