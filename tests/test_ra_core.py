import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_force_corners,
    dense_corner_search,
    energy_profile_direct,
    energy_profile_whole,
    filter_bank_weights_loop,
    logms_direct,
    rebin_whole,
    triangle_weight,
)
from radoppler import ra_core
from radoppler.errors import (
    DegenerateCornerError,
    DegenerateInputError,
    FileFormatError,
    FilterBankError,
    ForcedCornerError,
)
from radoppler.ingest import PipelineConfig, read_sidecar
from radoppler.linspec import (
    FRAME_BLOCK,
    Spectrogram,
    open_cube_spectrogram,
    open_spectrogram,
    save_spectrogram,
    spectrogram_from_file,
)
from radoppler.ra_core import (
    REBIN_BLOCK,
    CornerResult,
    EnergyProfile,
    FilterBank,
    build_filter_bank,
    energy_profile,
    find_corners,
    frame_blocks,
    load_ra_spectrogram,
    open_ra_spectrogram,
    ra_frames,
    ra_transform,
    save_ra_spectrogram,
    scale_forward,
    scale_inverse,
)


def make_spec(power, prf=1000.0):
    return Spectrogram(power=power, f_max=prf / 2, frame_dt=0.016)


def step_profile(f_max_bin, neg_edge, pos_edge, inside=10.0, outside=1.0):
    """Symmetric-axis profile: |e| = inside on [neg_edge, pos_edge], else outside."""
    length = 2 * f_max_bin + 1
    e = np.full(length, outside)
    e[f_max_bin + neg_edge : f_max_bin + pos_edge + 1] = inside
    return EnergyProfile(e=e, zero_index=f_max_bin)


def random_profile(gen, length=None, integer=False):
    if length is None:
        length = int(gen.integers(9, 258))
    zero = length // 2
    if integer:
        e = gen.integers(1, 12, size=length).astype(np.float64)
    else:
        e = gen.uniform(0.1, 10.0, size=length)
    return EnergyProfile(e=e, zero_index=zero)


class TestEnergyProfile:
    def test_single_frame_power_ten(self, make_spec_unused=None):
        spec = make_spec(np.full((1, 8), 10.0))
        ep = energy_profile(spec)
        np.testing.assert_allclose(ep.e, 1.0, atol=1e-12)
        assert ep.zero_index == 4

    def test_additive_over_frames(self):
        one = energy_profile(make_spec(np.full((1, 8), 10.0)))
        two = energy_profile(make_spec(np.full((2, 8), 10.0)))
        np.testing.assert_allclose(two.e, 2 * one.e, atol=1e-12)

    def test_matches_direct_oracle(self, rng):
        power = rng.uniform(0, 5, size=(7, 16))
        power[power < 0.5] = 0.0
        power[0, 0] = 5.0
        spec = make_spec(power)
        ep = energy_profile(spec, floor=1e-12)
        np.testing.assert_allclose(ep.e, energy_profile_direct(power, 1e-12),
                                   rtol=0, atol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            energy_profile(make_spec(np.zeros((3, 8))))

    def test_floor_clamp(self):
        # a zero bin is clipped to floor * peak before the log
        power = np.ones((1, 8))
        power[0, 0] = 0.0
        e = energy_profile(make_spec(power), floor=1e-12).e
        assert e[0] == pytest.approx(-12.0)
        np.testing.assert_allclose(e[1:], 0.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_monotone_in_power(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.uniform(0, 10, size=(4, 6))
        b = np.minimum(a, gen.uniform(0, 10, size=(4, 6)))
        # shared peak keeps both matrices on the same floor reference
        b[0, 0] = a[0, 0] = 10.0
        assert np.all(energy_profile(make_spec(a)).e >= energy_profile(make_spec(b)).e - 1e-12)

    def test_peak_memory_one_spectrogram(self, rng):
        spec = make_spec(rng.uniform(0.1, 1.0, size=(4096, 256)))
        tracemalloc.start()
        try:
            energy_profile(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one buffer of a frame block plus the running sum; the whole-matrix
        # log view weighed one spectrogram
        assert peak <= spec.power.nbytes / 8, f"peak {peak / 2**20:.1f} MB"

    def test_peak_memory_at_2048_bins(self, rng):
        # the ra_batch shape: 368 frames of 2048 bins (5.75 MB); blocks of 128 to 255
        # frames held a 241 x 2048 buffer (3.8 MB), blocks of PROFILE_BLOCK values
        # hold 17 x 2048 (0.27 MB)
        spec = make_spec(rng.uniform(0.1, 1.0, size=(368, 2048)))
        tracemalloc.start()
        try:
            energy_profile(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, f"energy_profile peaked at {peak / 2**20:.2f} MB"

    def test_validation(self):
        with pytest.raises(ValueError, match="5 bins"):
            EnergyProfile(e=np.ones(4), zero_index=2)
        with pytest.raises(ValueError, match="finite"):
            EnergyProfile(e=np.array([1.0, np.inf, 1, 1, 1]), zero_index=2)
        with pytest.raises(ValueError, match="zero_index"):
            EnergyProfile(e=np.ones(9), zero_index=0)

    def test_signed_indexing(self):
        ep = EnergyProfile(e=np.arange(9, dtype=float), zero_index=4)
        assert (ep.min_bin, ep.max_bin) == (-4, 4)
        assert ep.e[ep.zero_index + 0] == 4.0
        assert ep.e[ep.zero_index - 4] == 0.0
        assert ep.e[ep.zero_index + 4] == 8.0


class TestLogMS:
    """The direct segment score that the brute-force corner oracle sums."""

    def test_constant_segment(self):
        e2 = np.full(11, 9.0)
        assert logms_direct(e2, 3, 9) == pytest.approx(7 * math.log10(9.0), rel=1e-12)

    def test_zero_segment_floored(self):
        assert logms_direct(np.zeros(11), 4, 7) == pytest.approx(4 * math.log10(1e-300))

    def test_prefix_sum_cross_check(self, rng):
        ep = random_profile(rng, length=101)
        e2 = ep.e * ep.e
        prefix = np.concatenate([[0.0], np.cumsum(e2)])
        for _ in range(50):
            i = int(rng.integers(0, e2.size - 1))
            j = int(rng.integers(i, e2.size))
            count = j - i + 1
            via_prefix = count * math.log10(max((prefix[j + 1] - prefix[i]) / count, 1e-300))
            assert logms_direct(e2, i, j) == pytest.approx(via_prefix, rel=1e-10, abs=1e-10)


class TestFindCorners:
    def test_symmetric_step_matches_oracle(self):
        ep = step_profile(64, -10, 10)
        got = find_corners(ep)
        f_nc, f_pc, j = brute_force_corners(ep.e, ep.zero_index)
        assert (got.f_nc, got.f_pc) == (f_nc, f_pc)
        assert got.objective_value == pytest.approx(j, rel=1e-12)
        # the shared-endpoint objective settles one bin outside the edge
        assert abs(got.f_nc - (-10)) <= 2 and abs(got.f_pc - 10) <= 2
        assert got.f_c == max(-got.f_nc, got.f_pc)

    def test_asymmetric_step(self):
        ep = step_profile(64, -5, 20)
        got = find_corners(ep)
        f_nc, f_pc, _ = brute_force_corners(ep.e, ep.zero_index)
        assert (got.f_nc, got.f_pc) == (f_nc, f_pc)
        assert abs(got.f_pc - 20) <= 2
        assert got.f_c == max(-got.f_nc, got.f_pc)

    def test_symmetric_step_recovers_symmetric_corners(self):
        for width in (5, 10, 25, 40):
            got = find_corners(step_profile(64, -width, width))
            assert -got.f_nc == got.f_pc

    def test_random_profiles_match_oracle(self, rng):
        for _ in range(20):
            ep = random_profile(rng, length=int(rng.integers(31, 121)))
            got = find_corners(ep)
            f_nc, f_pc, _ = brute_force_corners(ep.e, ep.zero_index)
            assert (got.f_nc, got.f_pc) == (f_nc, f_pc)

    def test_symmetric_random_profiles_match_oracle(self, rng):
        # integer-valued entries make mirror-pair objective ties exact,
        # so the tie-break itself is exercised against the oracle
        for _ in range(20):
            k = int(rng.integers(8, 40))
            right = rng.integers(1, 6, size=k + 1).astype(float)
            e = np.concatenate([right[:0:-1], right])
            ep = EnergyProfile(e=e, zero_index=k)
            got = find_corners(ep)
            f_nc, f_pc, _ = brute_force_corners(e, k)
            assert (got.f_nc, got.f_pc) == (f_nc, f_pc)

    def test_flat_profile_tie_break(self):
        # every split ties, so the search falls back to the tightest band
        prefix = np.concatenate([[0.0], np.cumsum(np.ones(41))])
        i1, i2, _ = ra_core._search(prefix, 20)
        assert (i1 - 20, i2 - 20) == (-1, 1)

    def test_flat_profile_degenerate_corner(self):
        with pytest.raises(DegenerateCornerError, match="f_c"):
            find_corners(EnergyProfile(e=np.ones(41), zero_index=20))

    def test_determinism(self, rng):
        ep = random_profile(rng, length=65)
        a = find_corners(ep)
        b = find_corners(ep)
        assert (a.f_nc, a.f_pc, a.objective_value) == (b.f_nc, b.f_pc, b.objective_value)

    def test_axis_too_short(self):
        with pytest.raises(DegenerateInputError, match="segments"):
            find_corners(EnergyProfile(e=np.ones(5), zero_index=1))

    def test_corner_result_invariants(self):
        with pytest.raises(ValueError, match="straddle"):
            CornerResult(f_nc=1, f_pc=2, f_c=2, objective_value=0.0)
        with pytest.raises(ValueError, match="f_c"):
            CornerResult(f_nc=-3, f_pc=2, f_c=2, objective_value=0.0)


def prefix_sums(e):
    prefix = np.empty(e.size + 1)
    prefix[0] = 0.0
    np.cumsum(e * e, out=prefix[1:])
    return prefix


def bits(x):
    return np.float64(x).view(np.uint64)


class TestBlockedSearch:
    """find_corners against the whole-grid search, bit for bit, whatever
    the number of i1 rows in a block."""

    @staticmethod
    def profiles(gen):
        # zero runs sit at the 1e-300 mean floor, where the objective is linear
        # in the segment lengths: split (4, 7) ties (5, 9) in a later i1 row
        yield EnergyProfile(e=np.array([1, 1, 1, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0.0]),
                            zero_index=6)
        # the smallest grid: one split, i1 = 1 against i2 = 3
        yield EnergyProfile(e=np.array([1.0, 2.0, 3.0, 2.0, 1.0]), zero_index=2)
        for length in (9, 10, 31, 64, 257, 1024, 4096):
            zero = length // 2
            yield EnergyProfile(e=gen.uniform(0.1, 10.0, size=length), zero_index=zero)
            # few distinct values: the objective ties exactly across splits
            ints = gen.integers(1, 4, size=length).astype(np.float64)
            yield EnergyProfile(e=ints, zero_index=zero)
            yield EnergyProfile(e=np.ones(length), zero_index=zero)

    def test_matches_dense_search_at_every_block_size(self, rng, monkeypatch):
        default = ra_core.CORNER_BLOCK
        for ep in self.profiles(rng):
            zero = ep.zero_index
            prefix = prefix_sums(ep.e)
            i1, i2, j = dense_corner_search(prefix, zero)
            columns = ep.e.size - 2 - zero
            # 1-row blocks, a last block of one row (zero - 2 rows, then 1), and
            # blocks of 3 and 7 rows
            for block in (columns, (zero - 2) * columns, 3 * columns, 7 * columns, default):
                monkeypatch.setattr(ra_core, "CORNER_BLOCK", block)
                got = ra_core._search(prefix, zero)
                assert got[:2] == (i1, i2) and bits(got[2]) == bits(j)
                if max(zero - i1, i2 - zero) < 2:  # flat: the corner collapses
                    with pytest.raises(DegenerateCornerError):
                        find_corners(ep)
                    continue
                corner = find_corners(ep)
                assert (corner.f_nc, corner.f_pc) == (i1 - zero, i2 - zero)
                assert bits(corner.objective_value) == bits(j)

    def test_memory_bounded_at_4096_bins(self, rng):
        e = rng.uniform(0.1, 10.0, size=4096)
        e[1500:2700] += 50.0
        ep = EnergyProfile(e=e, zero_index=2048)
        tracemalloc.start()
        try:
            find_corners(ep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-grid search peaks at about 168 MB here; one reused 0.5 MB block
        # buffer and the segment lengths as a view leave about 0.8 MB
        assert peak <= 1.5 * 2**20, f"find_corners peaked at {peak / 2**20:.2f} MB"

    @pytest.mark.parametrize("zero_index, length", [(2, 5), (3, 7), (6, 13), (1024, 2048)])
    def test_segment_lengths_view(self, zero_index, length):
        lengths = ra_core._segment_lengths(zero_index, length)
        i1, i2 = np.arange(1, zero_index), np.arange(zero_index + 1, length - 1)
        np.testing.assert_array_equal(lengths, i2[None, :] - i1[:, None] + 1)
        assert lengths.dtype == np.float64 and lengths.strides == (-8, 8)
        assert not lengths.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            lengths[0, 0] = 0.0


class TestScale:
    def test_anchors(self):
        for f_c in (1.0, 7.3, 100.0):
            assert scale_forward(0.0, f_c) == 0.0
            assert scale_forward(f_c, f_c) == pytest.approx(f_c, abs=1e-12 * f_c)
            assert scale_forward(3 * f_c, f_c) == pytest.approx(2 * f_c, abs=1e-12 * f_c)

    def test_inverse_anchors(self):
        for f_c in (1.0, 7.3, 100.0):
            assert scale_inverse(0.0, f_c) == 0.0
            assert scale_inverse(f_c, f_c) == pytest.approx(f_c, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 1e4), st.floats(1e-6, 50.0))
    def test_round_trip(self, f_c, ratio):
        f = ratio * f_c
        assert scale_inverse(scale_forward(f, f_c), f_c) == pytest.approx(f, rel=1e-9)

    def test_monotone(self, rng):
        f = np.sort(rng.uniform(0, 500, size=100))
        s = scale_forward(f, 12.5)
        assert np.all(np.diff(s) > 0)

    def test_vectorized(self):
        f = np.array([0.0, 5.0, 15.0])
        np.testing.assert_allclose(scale_inverse(scale_forward(f, 5.0), 5.0), f, rtol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="f_c"):
            scale_forward(1.0, 0.0)
        with pytest.raises(ValueError, match="f_c"):
            scale_inverse(1.0, -2.0)
        with pytest.raises(ValueError, match="non-negative"):
            scale_forward(-1.0, 2.0)
        with pytest.raises(ValueError, match="non-negative"):
            scale_inverse(-1.0, 2.0)


class TestFilterBank:
    def test_break_point_grid(self):
        bank = build_filter_bank(10.0, 64, 8)
        p = bank.break_points
        assert p.size == 10
        assert p[0] == 0.0
        assert p[-1] == 64.0
        warped = scale_forward(p[1:-1], 10.0)
        expect = np.arange(1, 9) * scale_forward(64.0, 10.0) / 9
        np.testing.assert_allclose(warped, expect, rtol=1e-9)

    def test_weights_match_piecewise_oracle(self):
        bank = build_filter_bank(7.3, 48, 12)
        p = bank.break_points
        for m in range(1, 13):
            for f in range(49):
                assert bank.weights[m - 1, f] == pytest.approx(
                    triangle_weight(p, m, float(f)), abs=1e-12)

    def test_triangle_formula_anchors(self):
        p = build_filter_bank(5.0, 32, 6).break_points
        for m in range(1, 7):
            assert triangle_weight(p, m, p[m]) == pytest.approx(1.0, abs=1e-12)
            assert triangle_weight(p, m, p[m - 1]) == pytest.approx(0.0, abs=1e-12)
            mid = 0.5 * (p[m] + p[m + 1])
            assert triangle_weight(p, m, mid) == pytest.approx(0.5, abs=1e-12)

    def test_partition_of_unity(self, rng):
        for _ in range(20):
            f_c = float(rng.uniform(0.5, 80.0))
            f_max = int(rng.integers(16, 257))
            m_count = int(rng.integers(2, 65))
            try:
                bank = build_filter_bank(f_c, f_max, m_count)
            except FilterBankError:
                continue
            p = bank.break_points
            lo = math.ceil(p[1])
            hi = math.floor(p[-2])
            sums = bank.weights[:, lo : hi + 1].sum(axis=0)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_zero_outside_support(self):
        bank = build_filter_bank(6.0, 40, 5)
        p = bank.break_points
        bins = np.arange(41)
        for m in range(1, 6):
            outside = (bins < p[m - 1]) | (bins > p[m + 1])
            assert np.all(bank.weights[m - 1, outside] == 0.0)

    def test_break_fraction_closed_form(self):
        f_c, f_max, m_count = 25.0, 100, 1000
        bank = build_filter_bank(f_c, f_max, m_count)
        frac = np.count_nonzero(bank.break_points[1:-1] < f_c) / m_count
        closed = math.log10(2) / math.log10(1 + f_max / f_c)
        assert abs(frac - closed) <= 2 / m_count

    def test_denser_below_corner(self, rng):
        for _ in range(10):
            f_c = float(rng.uniform(2.0, 30.0))
            f_max = int(rng.integers(64, 257))
            bank = build_filter_bank(f_c, f_max, 32)
            p = bank.break_points
            assert np.all(np.diff(p) > 0)
            count = np.count_nonzero(p[1:-1] <= f_c)
            assert count / 32 > f_c / f_max

    def test_weights_equal_interval_loop_bit_for_bit(self):
        cases = 0
        for f_max in (3, 16, 31, 64, 128, 257, 1024):
            for m_count in (2, 5, 8, 17, 64, 128, 256):
                for f_c in (0.4, 1.0, 2.5, 6.0, 13.7, 40.0, 0.3 * f_max, 2.0 * f_max):
                    try:
                        bank = build_filter_bank(f_c, f_max, m_count)
                    except FilterBankError:
                        continue
                    expect = filter_bank_weights_loop(bank.break_points, f_max, m_count)
                    np.testing.assert_array_equal(bank.weights.view(np.uint64),
                                                  expect.view(np.uint64))
                    cases += 1
        assert cases > 200

    def test_weights_follow_any_break_points(self, rng):
        """A bank built from its break points alone, not by build_filter_bank."""
        for _ in range(20):
            m_count = int(rng.integers(1, 20))
            f_max = int(rng.integers(2, 200))
            interior = np.sort(rng.uniform(0.0, f_max, size=m_count))
            p = np.concatenate([[0.0], interior, [float(f_max)]])
            if not np.all(np.diff(p) > 0):
                continue
            expect = filter_bank_weights_loop(p, f_max, m_count)
            np.testing.assert_array_equal(FilterBank(p).weights.view(np.uint64),
                                          expect.view(np.uint64))

    def test_break_points_run_from_zero_to_a_whole_bin(self):
        for p in ([0.5, 2.0, 4.0], [0.0, 2.0, 4.5], [0.0, 2.0, math.inf]):
            with pytest.raises(ValueError, match="from p_0 = 0 to a whole bin"):
                FilterBank(np.array(p))
        for p in ([0.0, 4.0], [[0.0, 2.0, 4.0]]):
            with pytest.raises(ValueError, match="M\\+2 >= 3 break points"):
                FilterBank(np.array(p))
        with pytest.raises(ValueError, match=r"key 'p_2' = nan must exceed 2\.0"):
            FilterBank(np.array([0.0, 2.0, math.nan, 8.0]))
        with pytest.raises(ValueError, match=r"key 'p_3' = 2\.0 must exceed 3\.0: p_1\.\.p_2"):
            FilterBank(np.array([0.0, 1.0, 3.0, 2.0]))

    def test_collision_error_names_indices(self):
        with pytest.raises(FilterBankError, match="p_0 and p_1"):
            build_filter_bank(1e18, 2, 63)

    def test_validation(self):
        with pytest.raises(ValueError, match="filters"):
            build_filter_bank(5.0, 32, 1)
        with pytest.raises(ValueError, match="f_max"):
            build_filter_bank(5.0, 0, 4)
        with pytest.raises(ValueError, match="rise"):
            FilterBank(break_points=np.array([0.0, 2.0, 1.0, 4.0]))


class TestRATransform:
    def test_shape_and_invariants(self, rng):
        power = rng.uniform(0, 1, size=(10, 64))
        power[:, 20:44] += 50.0
        ra = ra_transform(make_spec(power), num_filters=8)
        assert ra.power.shape == (10, 16)
        assert np.all(ra.power >= 0)
        assert ra.num_filters == 8
        assert [f.name for f in dataclasses.fields(ra)] == ["power", "corner", "bank",
                                                            "frame_dt", "hz_per_bin"]
        np.testing.assert_array_equal(ra.time_axis, np.arange(10) * 0.016)

    def test_rejects_bad_frame_dt(self, rng):
        ra = ra_transform(make_spec(rng.uniform(0.5, 1.0, size=(4, 64))), num_filters=8,
                          force_fc=9.0)
        with pytest.raises(ValueError, match="positive for 4 frames; got -0.5"):
            dataclasses.replace(ra, frame_dt=-0.5)
        with pytest.raises(ValueError, match="frame_dt must be finite"):
            dataclasses.replace(ra, frame_dt=math.nan)

    @pytest.mark.parametrize("bad, message", [
        (2 + 1j, r"power must be real; frame 2 holds \(2\+1j\) in column 3"),
        (np.nan, "power must be finite and non-negative; frame 2 holds nan in column 3"),
        (np.inf, "power must be finite and non-negative; frame 2 holds inf in column 3"),
        (-1.0, "power must be finite and non-negative; frame 2 holds -1.0 in column 3"),
    ], ids=["complex", "nan", "inf", "negative"])
    def test_rejects_bad_power(self, rng, bad, message):
        ra = ra_transform(make_spec(rng.uniform(0.5, 1.0, size=(4, 64))), num_filters=8,
                          force_fc=9.0)
        power = ra.power.astype(np.result_type(bad))
        power[2, 3] = bad
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ra, power=power)

    def test_symmetric_input_mirror_symmetric_output(self, rng):
        half = rng.uniform(0, 1, size=(6, 32))
        half[:, 2:12] += 30.0
        # bins +k and -k share values; Nyquist column stays self-paired
        power = np.empty((6, 64))
        power[:, 32:] = half
        power[:, 1:32] = half[:, 31:0:-1]
        power[:, 0] = half[:, 0]
        ra = ra_transform(make_spec(power), num_filters=8)
        np.testing.assert_allclose(ra.power, ra.power[:, ::-1], rtol=1e-12)

    def test_single_tone_filter_support_and_power(self):
        k, tone_power = 9, 7.5
        power = np.full((4, 64), 1e-9)
        power[:, 32 + k] = tone_power
        ra = ra_transform(make_spec(power), num_filters=6, force_fc=16.0)
        p = ra.bank.break_points
        pos = ra.power[:, 6:]
        covered = {m for m in range(1, 7) if p[m - 1] < k < p[m + 1]}
        nonzero = {m for m in range(1, 7) if pos[0, m - 1] > 1e-6}
        assert nonzero == covered
        if math.ceil(p[1]) <= k <= math.floor(p[-2]):
            assert pos[0].sum() == pytest.approx(tone_power, rel=1e-6)

    def test_linear_for_fixed_bank(self, rng):
        a = rng.uniform(0, 2, size=(5, 32))
        b = rng.uniform(0, 2, size=(5, 32))
        kw = dict(num_filters=5, force_fc=6.0)
        lhs = ra_transform(make_spec(2.0 * a + 3.0 * b), **kw).power
        rhs = 2.0 * ra_transform(make_spec(a), **kw).power + 3.0 * ra_transform(make_spec(b), **kw).power
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_power_conservation_band_limited(self, rng):
        ra_probe = ra_transform(make_spec(np.ones((2, 64))), num_filters=6, force_fc=10.0)
        p = ra_probe.bank.break_points
        lo, hi = math.ceil(p[1]), math.floor(p[-2])
        power = np.zeros((3, 64))
        power[:, 32 + lo : 32 + hi + 1] = rng.uniform(1, 2, size=(3, hi - lo + 1))
        power[:, 1] = 1.0  # keep the log view non-degenerate off-band too
        power[:, 32 + lo] += 5.0
        ra = ra_transform(make_spec(power), num_filters=6, force_fc=10.0)
        pos_sum = ra.power[:, 6:].sum(axis=1)
        band_sum = power[:, 32 + lo : 32 + hi + 1].sum(axis=1)
        np.testing.assert_allclose(pos_sum, band_sum, rtol=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            ra_transform(make_spec(np.zeros((4, 32))), num_filters=4)

    @pytest.mark.parametrize("transform", [energy_profile, ra_transform])
    def test_floor_of_one_rejected(self, rng, transform):
        """A floor of 1 clips every cell to the peak: e(f) is flat, its corner noise."""
        with pytest.raises(ValueError, match=r"floor must lie in \(0, 1\), got 1.0"):
            transform(make_spec(rng.uniform(0.5, 1.0, size=(4, 256))), floor=1.0)

    def test_force_fc_range_and_flags(self, rng):
        power = rng.uniform(0.5, 1.0, size=(4, 32))
        for force_fc, f_c in ((0.6, 1), (14.6, 15), (15.4, 15)):
            ra = ra_transform(make_spec(power), num_filters=4, force_fc=force_fc)
            assert ra.corner.forced
            assert ra.corner.f_c == f_c
            assert math.isnan(ra.corner.objective_value)
        # the 16-bin axis resolves corners of 1 to 15 bins
        for force_fc in (500.0, 15.6, 0.2, 0.0, -3.0, math.nan, math.inf):
            with pytest.raises(ForcedCornerError, match=r"into \[1, 15\] bins"):
                ra_transform(make_spec(power), num_filters=4, force_fc=force_fc)
        assert issubclass(ForcedCornerError, ValueError)

    def test_more_filters_than_bin_slots_rejected(self, rng):
        # 17 bins per half axis, each in at most two filters: M = 35 always
        # leaves an empty filter, and a huge M is rejected before its break
        # points are allocated; M = 34 passes the count check
        spec = make_spec(rng.uniform(0.5, 1.0, size=(4, 32)))
        for m in (35, 10**12):
            with pytest.raises(FilterBankError, match=rf"M = {m} .* 17 bins"):
                ra_transform(spec, num_filters=m, force_fc=8.0)
        assert ra_transform(spec, num_filters=34, force_fc=8.0).num_filters == 34

    def test_warped_axis(self, rng):
        power = rng.uniform(0.5, 1.0, size=(4, 64))
        ra = ra_transform(make_spec(power), num_filters=8, force_fc=9.0)
        axis = ra.warped_axis_hz()
        assert axis.size == 16
        assert np.all(np.diff(axis) > 0)
        np.testing.assert_allclose(axis, -axis[::-1])

    def test_persistence_round_trip(self, tmp_path, rng):
        power = rng.uniform(0.5, 1.0, size=(4, 64))
        power[:, 40:50] += 20.0
        spec = make_spec(power)
        cases = 0
        for force_fc in (None, 9.0):
            ra = ra_transform(spec, num_filters=8, force_fc=force_fc)
            assert ra.corner.forced == (force_fc is not None)
            for format in ("bin", "csv"):
                path = save_ra_spectrogram(ra, tmp_path / f"ra_{force_fc}.{format}", format)
                back = load_ra_spectrogram(path)
                np.testing.assert_array_equal(back.power, ra.power)
                np.testing.assert_array_equal(back.bank.break_points, ra.bank.break_points)
                np.testing.assert_array_equal(back.bank.weights, ra.bank.weights)
                # assert_equal takes a NaN objective (a forced corner) as equal to itself
                np.testing.assert_equal(dataclasses.astuple(back.corner),
                                        dataclasses.astuple(ra.corner))
                assert (back.frame_dt, back.hz_per_bin) == (ra.frame_dt, ra.hz_per_bin)
                assert read_sidecar(path, "ra_spectrogram")["row_order"] == ra_core.ROW_ORDER
                cases += 1
        assert cases == 4

    def test_loader_needs_every_corner_key(self, tmp_path, rng):
        ra = ra_transform(make_spec(rng.uniform(0.5, 1.0, size=(4, 64))), num_filters=8,
                          force_fc=9.0)
        path = save_ra_spectrogram(ra, tmp_path / "ra.bin")
        lines = (tmp_path / "ra.bin.meta").read_text().splitlines()
        for key in ("forced", "f_nc_bins", "f_pc_bins", "f_c_bins", "p_0", "p_9"):
            kept = [line for line in lines if not line.startswith(f"{key} = ")]
            assert len(kept) == len(lines) - 1
            (tmp_path / "ra.bin.meta").write_text("\n".join(kept) + "\n")
            with pytest.raises(FileFormatError, match=rf"ra\.bin\.meta: missing keys \['{key}'\]"):
                load_ra_spectrogram(path)

    def test_hz_per_bin_checked(self, rng):
        ra = ra_transform(make_spec(rng.uniform(0.5, 1.0, size=(4, 64))), num_filters=8)
        for hz in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="'hz_per_bin' = .* must be positive"):
                dataclasses.replace(ra, hz_per_bin=hz)


class TestFrameBlocks:
    """energy_profile runs PROFILE_BLOCK values at a time and the rebin REBIN_BLOCK rows,
    bit for bit equal to the whole-matrix formulas."""

    @pytest.mark.parametrize("frames", [1, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1,
                                        2 * FRAME_BLOCK - 1, 7493])
    def test_blocks_partition_the_frames(self, frames):
        blocks = frame_blocks(frames)
        assert blocks[0][0] == 0 and blocks[-1][1] == frames
        assert all(stop == first for (_, stop), (first, _) in zip(blocks, blocks[1:]))
        sizes = [stop - first for first, stop in blocks]
        if frames < 2 * FRAME_BLOCK:
            assert sizes == [frames]
        else:
            assert all(FRAME_BLOCK <= size < 2 * FRAME_BLOCK for size in sizes)

    @pytest.mark.parametrize("frames", [REBIN_BLOCK - 1, REBIN_BLOCK, 2 * REBIN_BLOCK - 1,
                                        2 * REBIN_BLOCK, 7493])
    def test_rebin_blocks(self, frames):
        # a spectrogram shorter than two rebin blocks is rebinned by one pair
        # of products; a longer one by blocks of REBIN_BLOCK to 2 REBIN_BLOCK - 1
        sizes = [stop - first for first, stop in frame_blocks(frames, REBIN_BLOCK)]
        assert sum(sizes) == frames
        if frames < 2 * REBIN_BLOCK:
            assert sizes == [frames]
        else:
            assert all(REBIN_BLOCK <= size < 2 * REBIN_BLOCK for size in sizes)

    @pytest.mark.parametrize("bins, num_filters", [(256, 64), (1024, 128), (2048, 256)])
    @pytest.mark.parametrize("frames", [1, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1,
                                        REBIN_BLOCK, 2 * REBIN_BLOCK + 1, 7493])
    def test_equal_to_whole_matrix(self, rng, frames, bins, num_filters):
        power = rng.uniform(0.1, 1.0, size=(frames, bins))
        power[:, bins // 2 - bins // 16 : bins // 2 + bins // 16] += 50.0
        power[0, 3] = 0.0  # one cell below the log floor
        spec = make_spec(power)
        np.testing.assert_array_equal(energy_profile(spec).e, energy_profile_whole(power, 1e-12))
        ra = ra_transform(spec, num_filters=num_filters)
        np.testing.assert_array_equal(ra.power, rebin_whole(power, ra.bank.weights))

    @pytest.mark.parametrize("bins", [1024, 2048])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_profile_blocks_equal_whole_matrix(self, rng, tmp_path, bins, offset, blocks):
        """energy_profile reads PROFILE_BLOCK // bins frames a block (32 at 1024 bins,
        16 at 2048), the last block taking the rest: one frame below, at and above
        each multiple gives the whole-matrix sum, in memory and from its file."""
        frames = blocks * (ra_core.PROFILE_BLOCK // bins) + offset
        power = rng.uniform(0.1, 1.0, size=(frames, bins))
        power[:, bins // 2 - bins // 16 : bins // 2 + bins // 16] += 50.0
        power[0, 3] = 0.0  # one cell below the log floor
        whole = energy_profile_whole(power, 1e-12)
        spec = make_spec(power)
        np.testing.assert_array_equal(energy_profile(spec).e, whole)
        save_spectrogram(spec, tmp_path / "s.bin")
        opened = open_spectrogram(tmp_path / "s.bin")
        with opened.power:
            np.testing.assert_array_equal(energy_profile(opened).e, whole)

    @pytest.mark.parametrize("frames", [1, REBIN_BLOCK, 2 * REBIN_BLOCK + 1])
    def test_power_left_in_its_file(self, rng, tmp_path, frames):
        """A spectrogram or RA spectrogram left in its file (PowerFile) is read block by
        block by energy_profile, ra_transform and track_signature, to the same bits."""
        from radoppler.tracker import track_signature
        spec = make_spec(rng.uniform(0.1, 1.0, size=(frames, 256)))
        ra = ra_transform(spec, num_filters=64)
        save_spectrogram(spec, tmp_path / "s.bin")
        save_ra_spectrogram(ra, tmp_path / "r.bin")
        opened = open_spectrogram(tmp_path / "s.bin")
        opened_ra = open_ra_spectrogram(tmp_path / "r.bin")
        with opened.power, opened_ra.power:
            np.testing.assert_array_equal(energy_profile(opened).e, energy_profile(spec).e)
            np.testing.assert_array_equal(ra_transform(opened, num_filters=64).power, ra.power)
            for lazy, whole, axis in ((opened, spec, spec.freq_axis),
                                      (opened_ra, ra, ra.warped_axis_hz())):
                np.testing.assert_array_equal(
                    track_signature(lazy.power, axis, spec.time_axis).smoothed,
                    track_signature(whole.power, axis, spec.time_axis).smoothed)

    def test_peak_memory_below_a_quarter_spectrogram(self, dwell):
        spec = spectrogram_from_file(dwell, PipelineConfig())
        tracemalloc.start()
        try:
            ra = ra_transform(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-matrix log view alone weighs one spectrogram
        extra = peak - ra.power.nbytes
        assert extra < spec.power.nbytes / 4, f"{extra / 2**20:.2f} MB beside the output"


class TestLazyPower:
    """A spectrogram whose frames are computed as they are read (StftFrames) and an RA
    spectrogram rebinned as it is read (RebinFrames) give the bits of their whole
    matrices, and the savers take them."""

    def test_cube_spectrogram_transforms(self, dwell):
        cfg = PipelineConfig()
        lazy, whole = open_cube_spectrogram(dwell, cfg), spectrogram_from_file(dwell, cfg)
        assert lazy.power.max() == whole.power.max()
        np.testing.assert_array_equal(energy_profile(lazy).e, energy_profile(whole).e)
        ra, expected = ra_transform(lazy), ra_transform(whole)
        np.testing.assert_array_equal(ra.power, expected.power)
        assert ra.corner == expected.corner

    @pytest.mark.parametrize("frames", [1, REBIN_BLOCK - 1, 2 * REBIN_BLOCK + 1])
    def test_rebinned_as_read(self, rng, frames):
        spec = make_spec(rng.uniform(0.1, 1.0, size=(frames, 256)))
        lazy, whole = ra_frames(spec), ra_transform(spec)
        assert lazy.power.shape == whole.power.shape
        assert lazy.power.max() == whole.power.max()
        np.testing.assert_array_equal(lazy.power.read(), whole.power)
        assert (lazy.corner, lazy.bank.f_max) == (whole.corner, whole.bank.f_max)

    @pytest.mark.parametrize("format", ["bin", "csv", "pgm"])
    def test_saved_as_the_whole_matrix(self, rng, tmp_path, format):
        spec = make_spec(rng.uniform(0.1, 1.0, size=(2 * REBIN_BLOCK + 1, 256)))
        save_ra_spectrogram(ra_frames(spec), tmp_path / "lazy", format)
        save_ra_spectrogram(ra_transform(spec), tmp_path / "whole", format)
        names = ["lazy", "whole"] if format == "pgm" else ["lazy", "lazy.meta", "whole",
                                                           "whole.meta"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names[: len(names) // 2]:
            lazy, whole = name, name.replace("lazy", "whole")
            assert (tmp_path / lazy).read_bytes() == (tmp_path / whole).read_bytes()

    @pytest.mark.parametrize("kind", ["spectrogram", "ra"])
    def test_pgm_of_a_file_checks_its_frames(self, rng, tmp_path, kind):
        """An image of a power left in its file reads the frames checked, as a bin or
        csv save does: a NaN in the file names it, and no image is written."""
        spec = make_spec(rng.uniform(0.1, 1.0, size=(4, 64)))
        if kind == "spectrogram":
            path = save_spectrogram(spec, tmp_path / "m.bin")
            opener, save = open_spectrogram, save_spectrogram
        else:
            path = save_ra_spectrogram(ra_transform(spec, num_filters=8), tmp_path / "m.bin")
            opener, save = open_ra_spectrogram, save_ra_spectrogram
        raw = bytearray(path.read_bytes())
        raw[16 + 8 * 9 : 16 + 8 * 10] = np.array([np.nan]).tobytes()  # frame 0, column 9
        path.write_bytes(bytes(raw))
        opened = opener(path)
        with opened.power:
            with pytest.raises(FileFormatError, match=r"m\.bin: .* frame 0 holds nan in column 9"):
                save(opened, tmp_path / "m.pgm", "pgm")
        assert not (tmp_path / "m.pgm").exists()

    @pytest.mark.parametrize("format", ["bin", "csv"])
    @pytest.mark.parametrize("kind", ["spectrogram", "ra"])
    def test_failed_frame_leaves_no_file(self, rng, tmp_path, kind, format):
        """A save of a power left in its file that meets a NaN after its first blocks
        are written removes the file it began and writes no sidecar."""
        frames = 3 * REBIN_BLOCK
        spec = make_spec(rng.uniform(0.1, 1.0, size=(frames, 64)))
        if kind == "spectrogram":
            path = save_spectrogram(spec, tmp_path / "m.bin")
            opener, save = open_spectrogram, save_spectrogram
        else:
            path = save_ra_spectrogram(ra_transform(spec, num_filters=8), tmp_path / "m.bin")
            opener, save = open_ra_spectrogram, save_ra_spectrogram
        cols = 64 if kind == "spectrogram" else 16
        raw = bytearray(path.read_bytes())
        cell = 16 + 8 * ((frames - 1) * cols + 3)  # last frame, column 3
        raw[cell : cell + 8] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(raw))
        opened = opener(path)
        out = tmp_path / f"out.{format}"
        with opened.power:
            with pytest.raises(FileFormatError, match=rf"m\.bin: .* frame {frames - 1} holds nan"):
                save(opened, out, format)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin", "m.bin.meta"]

    @pytest.mark.parametrize("lazy", [False, True])
    def test_unknown_format_creates_no_file(self, rng, tmp_path, lazy):
        spec = make_spec(rng.uniform(0.1, 1.0, size=(4, 64)))
        if lazy:  # a PowerFile, and an RA spectrogram rebinned from it as it is read
            spec = open_spectrogram(save_spectrogram(spec, tmp_path / "s.bin"))
        ra = (ra_frames if lazy else ra_transform)(spec, num_filters=8)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ValueError, match="unknown matrix format 'tiff'"):
            save_spectrogram(spec, out / "s.tiff", format="tiff")
        with pytest.raises(ValueError, match="unknown matrix format 'tiff'"):
            save_ra_spectrogram(ra, out / "r.tiff", format="tiff")
        assert list(out.iterdir()) == []
        if lazy:
            spec.power.close()
