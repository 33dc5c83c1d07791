import numpy as np
import pytest
from scipy import signal

from _oracles import sos_response
from radoppler.ingest import RadarCube, RadarParams
from radoppler.preprocess import (
    BLOCK,
    STEP_RESIDUAL,
    RangeProfileMatrix,
    _block_operators,
    clutter_filter,
    highpass_sos,
    range_transform,
    sosfilt,
    step_state,
)


def params8(**overrides):
    base = dict(
        num_fast_samples=8,
        num_chirps=4,
        sample_rate=1.0e6,
        chirp_repetition_freq=1000.0,
        center_freq=77.0e9,
        bandwidth=1.5e9,
    )
    base.update(overrides)
    return RadarParams(**base)


def profiles_from(values, prf=1000.0):
    return RangeProfileMatrix(
        values=np.asarray(values, dtype=complex),
        range_resolution=0.1,
        chirp_repetition_freq=prf,
    )


class TestRangeTransform:
    def test_constant_chirp_hits_bin_zero(self):
        cube = RadarCube(params=params8(), samples=np.ones((8, 4), dtype=complex))
        out = range_transform(cube)
        assert out.values.shape == (4, 4)
        np.testing.assert_allclose(np.abs(out.values[0]), 8.0)
        np.testing.assert_allclose(np.abs(out.values[1:]), 0.0, atol=1e-12)

    def test_tone_hits_its_bin(self):
        i = np.arange(8)
        tone = np.exp(2j * np.pi * 3 * i / 8)
        cube = RadarCube(params=params8(), samples=np.tile(tone[:, None], (1, 4)))
        out = range_transform(cube)
        assert np.all(np.abs(out.values).argmax(axis=0) == 3)

    def test_keeps_positive_half_only(self):
        p = params8(num_fast_samples=32)
        cube = RadarCube(params=p, samples=np.ones((32, 4), dtype=complex))
        assert range_transform(cube).num_range_bins == 16

    def test_parseval_on_full_spectrum(self, rng):
        # the underlying transform is the unnormalized DFT
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        spectrum = np.fft.fft(x)
        assert np.sum(np.abs(spectrum) ** 2) == pytest.approx(8 * np.sum(np.abs(x) ** 2), rel=1e-9)

    def test_carries_scales(self):
        p = params8()
        out = range_transform(RadarCube(params=p, samples=np.ones((8, 4), dtype=complex)))
        assert out.range_resolution == p.range_resolution
        assert out.chirp_repetition_freq == p.chirp_repetition_freq


class TestClutterFilter:
    def test_constant_row_annihilated(self):
        rows = np.full((3, 400), 2.0 + 1.0j)
        out = clutter_filter(profiles_from(rows))
        transient = 10 * 4
        assert np.abs(out.values[:, transient:]).max() < 1e-6 * np.abs(rows[0, 0])

    def test_tone_at_quarter_prf_passes(self):
        # the 0.01 Hz poles settle over minutes of wall-clock time, so use a
        # low rate to cover a 400 s dwell cheaply and judge only the tail
        prf = 100.0
        n = np.arange(40000)
        tone = np.exp(2j * np.pi * (prf / 4) * n / prf)
        out = clutter_filter(profiles_from(tone[None, :], prf))
        steady = np.abs(out.values[0, -4000:])
        assert np.all(np.abs(steady - 1.0) < 0.01)

    def test_design_gains_via_oracle(self):
        # same design call as the implementation, checked against a direct
        # per-section polynomial evaluation of H(z)
        prf = 2000.0
        sos = signal.butter(4, 0.01, btype="highpass", fs=prf, output="sos")
        assert abs(sos_response(sos, 0.0, prf)) < 1e-6
        assert abs(sos_response(sos, prf / 2, prf)) == pytest.approx(1.0, abs=1e-6)

    def test_tone_gain_matches_designed_response(self):
        prf = 100.0
        freq = 37.0
        sos = signal.butter(4, 0.01, btype="highpass", fs=prf, output="sos")
        n = np.arange(40000)
        tone = np.exp(2j * np.pi * freq * n / prf)
        out = clutter_filter(profiles_from(tone[None, :], prf))
        gain = np.abs(out.values[0, -4000:]).mean()
        assert gain == pytest.approx(abs(sos_response(sos, freq, prf)), rel=1e-3)

    def test_linearity(self, rng):
        x = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
        y = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
        a, b = 2.5, -1.25
        lhs = clutter_filter(profiles_from(a * x + b * y)).values
        rhs = a * clutter_filter(profiles_from(x)).values + b * clutter_filter(profiles_from(y)).values
        scale = np.abs(lhs).max()
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * scale)

    def test_offset_invariance(self, rng):
        x = rng.standard_normal((3, 500)) + 1j * rng.standard_normal((3, 500))
        offs = np.array([1.0 + 2.0j, -3.0j, 5.0])[:, None]
        base = clutter_filter(profiles_from(x)).values
        shifted = clutter_filter(profiles_from(x + offs)).values
        assert np.abs(base[:, 40:] - shifted[:, 40:]).max() < 1e-6

    def test_impulse_response_decays(self):
        # delayed impulse: zero first sample keeps the filter state at rest
        prf = 20.0
        n = int(10 * 4 * (prf / 0.01))
        row = np.zeros((1, n), dtype=complex)
        row[0, 1] = 1.0
        h = clutter_filter(profiles_from(row, prf), cutoff=0.01, order=4).values[0]
        assert np.all(np.isfinite(np.abs(h)))
        assert np.sum(np.abs(h[-n // 10 :])) < 1e-9

    def test_cutoff_validation(self):
        rows = np.ones((1, 10), dtype=complex)
        with pytest.raises(ValueError, match="cutoff"):
            clutter_filter(profiles_from(rows, prf=1000.0), cutoff=600.0)
        with pytest.raises(ValueError, match="cutoff"):
            clutter_filter(profiles_from(rows, prf=1000.0), cutoff=0.0)

    @pytest.mark.parametrize("order, cutoff", [(4, 1e-6), (4, 3e-6), (2, 1e-9), (8, 4e-6),
                                               (4, 8e-6), (4, 5e-6), (4, 4e-6)])
    def test_cutoff_too_low_for_a_step_state(self, order, cutoff):
        """At a 2 kHz chirp rate the first four cutoffs round a pole onto z = 1; at the
        last three the rounded step state passes 0.2, 0.5 and 1.0 of a constant."""
        rows = np.ones((1, 10), dtype=complex)
        with pytest.raises(ValueError, match=rf"cutoff {cutoff!r} Hz rounds a pole of the "
                                             rf"order-{order} high-pass onto or too near z = 1 "
                                             rf"at 2000.0 Hz for a step state that cancels a "
                                             rf"constant"):
            clutter_filter(profiles_from(rows, prf=2000.0), cutoff=cutoff, order=order)

    def test_lowest_working_cutoffs_keep_their_design(self):
        for cutoff in (6e-6, 1e-5):
            sos = highpass_sos(4, cutoff, 2000.0)
            assert np.all(np.isfinite(step_state(sos)))

    @pytest.mark.parametrize("fs", [20.0, 2000.0, 20_000.0])
    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_accepted_designs_cancel_a_constant(self, order, fs):
        """Every design highpass_sos accepts, down to where poles round onto z = 1,
        leaves at most STEP_RESIDUAL of a constant unit row started on its step."""
        for cutoff in np.geomspace(1e-10 * fs, 1e-2 * fs, 200):
            try:
                sos = highpass_sos(order, cutoff, fs)
            except ValueError:
                continue
            y, _ = sosfilt(sos, np.ones((1, 200), dtype=complex))
            assert np.abs(y).max() <= STEP_RESIDUAL, f"cutoff {cutoff!r} Hz"

    def test_order_validation(self):
        rows = np.ones((1, 10), dtype=complex)
        with pytest.raises(ValueError, match="order"):
            clutter_filter(profiles_from(rows), order=3)
        with pytest.raises(ValueError, match="order"):
            clutter_filter(profiles_from(rows), order=0)

    def test_needs_two_chirps(self):
        with pytest.raises(ValueError, match="chirps"):
            clutter_filter(profiles_from(np.ones((4, 1), dtype=complex)))


DESIGNS = [(order, cutoff, fs) for order in (2, 4, 6, 8)
           for cutoff, fs in ((0.01, 2000.0), (0.01, 20.0), (5.0, 100.0), (100.0, 2000.0))]


class TestInRepoFilter:
    """The scipy-free design, initial state and runner, with scipy as oracle."""

    @pytest.mark.parametrize("order,cutoff,fs", DESIGNS)
    def test_transfer_function_matches_scipy_butter(self, order, cutoff, fs):
        ours = highpass_sos(order, cutoff, fs)
        ref = signal.butter(order, cutoff, btype="highpass", fs=fs, output="sos")
        freqs = np.concatenate([[0.0], np.geomspace(cutoff / 100, fs / 2, 60)])
        worst = max(abs(sos_response(ours, f, fs) - sos_response(ref, f, fs)) for f in freqs)
        assert worst <= 1e-12  # passband gain is 1, so this is relative to it

    @pytest.mark.parametrize("order,cutoff,fs", DESIGNS)
    def test_step_state_matches_sosfilt_zi(self, order, cutoff, fs):
        sos = highpass_sos(order, cutoff, fs)
        np.testing.assert_allclose(step_state(sos), signal.sosfilt_zi(sos), rtol=0, atol=1e-15)

    def test_runner_matches_sosfilt_on_rows(self, rng):
        sos = highpass_sos(4, 0.01, 2000.0)
        x = rng.standard_normal((64, 6000)) + 1j * rng.standard_normal((64, 6000))
        zi = signal.sosfilt_zi(sos)[:, None, :] * x[None, :, 0, None]
        ref, _ = signal.sosfilt(sos, x, zi=zi)
        out, _ = sosfilt(sos, x, zi)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-8 * np.abs(ref).max())

    def test_runner_matches_sosfilt_on_long_series(self, rng):
        sos = highpass_sos(4, 0.01, 2000.0)
        x = rng.standard_normal((1, 120_000)) + 1j * rng.standard_normal((1, 120_000))
        zi = signal.sosfilt_zi(sos)[:, None, :] * x[None, :, 0, None]
        ref, _ = signal.sosfilt(sos, x, zi=zi)
        out, _ = sosfilt(sos, x, zi)
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-8 * np.abs(ref).max())

    @pytest.mark.parametrize("start", [None, "carried"])
    def test_runner_writes_into_x(self, rng, start):
        # out may be x itself, including a column slice of a wider buffer, and
        # the bits are those of a new result
        sos = highpass_sos(4, 0.01, 2000.0)
        wide = rng.standard_normal((3, 1000)) + 1j * rng.standard_normal((3, 1000))
        zi = None if start is None else sosfilt(sos, wide[:, :BLOCK])[1]
        x = wide[:, : 9 * BLOCK + 5]
        expect, expect_zf = sosfilt(sos, x.copy(), zi)
        y, zf = sosfilt(sos, x, zi, out=x)
        assert y is x
        np.testing.assert_array_equal(wide[:, : x.shape[1]].view(np.uint64),
                                      expect.view(np.uint64))
        np.testing.assert_array_equal(zf.view(np.uint64), expect_zf.view(np.uint64))

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_runner_block_edges(self, rng, n):
        sos = highpass_sos(6, 5.0, 100.0)
        x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        zi = rng.standard_normal((3, 3, 2)) + 1j * rng.standard_normal((3, 3, 2))
        ref, _ = signal.sosfilt(sos, x, zi=zi)
        out, _ = sosfilt(sos, x, zi)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pieces", [[BLOCK, BLOCK, 5], [64 * BLOCK, 64 * BLOCK, 3 * BLOCK],
                                        [2 * BLOCK, BLOCK]])
    def test_carried_state_continues_the_row(self, rng, pieces):
        # a row filtered in BLOCK-multiple pieces, each from the zf of the one
        # before, matches scipy on the whole row, and the last zf is scipy's
        sos = highpass_sos(4, 0.01, 2000.0)
        x = rng.standard_normal((2, sum(pieces))) + 1j * rng.standard_normal((2, sum(pieces)))
        zi = signal.sosfilt_zi(sos)[:, None, :] * x[None, :, 0, None]
        ref, ref_zf = signal.sosfilt(sos, x, zi=zi)
        out, zf, start = [], zi, 0
        for size in pieces:
            y, zf = sosfilt(sos, x[:, start : start + size], zf)
            out.append(y)
            start += size
        tol = 1e-8 * np.abs(ref).max()
        np.testing.assert_allclose(np.concatenate(out, axis=1), ref, rtol=0, atol=tol)
        if pieces[-1] % BLOCK == 0:  # zf continues the row only after a whole block
            assert zf.shape == ref_zf.shape
            np.testing.assert_allclose(zf, ref_zf, rtol=0, atol=tol)

    def test_operators_shared_per_design(self, rng):
        """Block operators are built once per design and shared read-only; filtering
        with two designs in turn gives the bits of operators built afresh for each."""
        designs = [highpass_sos(4, 0.01, 2000.0), highpass_sos(6, 5.0, 100.0)]
        x = rng.standard_normal((2, 5 * BLOCK + 3)) + 1j * rng.standard_normal((2, 5 * BLOCK + 3))
        fresh = []
        for sos in designs:
            _block_operators.cache_clear()
            fresh.append(sosfilt(sos, x))
        for sos, (y, zf) in [*zip(designs, fresh), *zip(designs, fresh)]:
            got_y, got_zf = sosfilt(sos, x)
            np.testing.assert_array_equal(got_y.view(np.uint64), y.view(np.uint64))
            np.testing.assert_array_equal(got_zf.view(np.uint64), zf.view(np.uint64))
        operators = _block_operators(designs[0].tobytes())
        assert operators is _block_operators(designs[0].tobytes())
        assert not any(matrix.flags.writeable for matrix in operators)

    def test_design_checks_its_arguments(self):
        with pytest.raises(ValueError, match=r"cutoff must sit inside \(0, 50.0\), got 50.0"):
            highpass_sos(4, 50.0, 100.0)
        with pytest.raises(ValueError, match="order must be even and >= 2, got 3"):
            highpass_sos(3, 5.0, 100.0)


class TestRangeProfileMatrix:
    def test_rejects_non_finite(self):
        bad = np.ones((2, 4), dtype=complex)
        bad[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            profiles_from(bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            RangeProfileMatrix(values=np.zeros((0, 4), dtype=complex),
                               range_resolution=0.1, chirp_repetition_freq=1000.0)

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError, match="positive"):
            RangeProfileMatrix(values=np.ones((2, 2), dtype=complex),
                               range_resolution=0.0, chirp_repetition_freq=1000.0)
