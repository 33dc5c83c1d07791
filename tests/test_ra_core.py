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
    filter_bank_weights_loop,
    logms_direct,
    triangle_weight,
)
from radoppler import ra_core
from radoppler.errors import (
    DegenerateCornerError,
    DegenerateInputError,
    FilterBankError,
    ForcedCornerError,
)
from radoppler.ingest import read_sidecar
from radoppler.linspec import Spectrogram
from radoppler.ra_core import (
    CornerResult,
    EnergyProfile,
    FilterBank,
    build_filter_bank,
    energy_profile,
    find_corners,
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

    def test_peak_memory_one_spectrogram(self, rng):
        spec = make_spec(rng.uniform(0.1, 1.0, size=(4096, 256)))
        tracemalloc.start()
        try:
            energy_profile(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the floored view is the one spectrogram-sized temporary; a separate
        # log10 output would double it
        assert peak <= 1.1 * spec.power.nbytes, f"peak {peak / 2**20:.1f} MB"

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
            for block in (columns, 3 * columns, 7 * columns, default):
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
        # the whole-grid search peaks at about 168 MB here
        assert peak <= 8 * 2**20, f"find_corners peaked at {peak / 2**20:.1f} MB"


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

    def test_collision_error_names_indices(self):
        with pytest.raises(FilterBankError, match="p_0 and p_1"):
            build_filter_bank(1e18, 2, 63)

    def test_validation(self):
        with pytest.raises(ValueError, match="filters"):
            build_filter_bank(5.0, 32, 1)
        with pytest.raises(ValueError, match="f_max"):
            build_filter_bank(5.0, 0, 4)
        with pytest.raises(ValueError, match="rise"):
            FilterBank(break_points=np.array([0.0, 2.0, 1.0, 4.0]),
                       weights=np.zeros((2, 5)))


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
        ra = ra_transform(make_spec(power), num_filters=8)
        path = save_ra_spectrogram(ra, tmp_path / "ra.bin")
        meta = read_sidecar(path, "ra_spectrogram")
        assert int(meta["f_c_bins"]) == ra.corner.f_c
        assert int(meta["num_filters"]) == 8
        assert float(meta["p_9"]) == pytest.approx(ra.bank.break_points[9])
        assert meta["forced"] == "false"
        assert meta["row_order"] == ra_core.ROW_ORDER
        assert float(meta["frame_dt"]) == ra.frame_dt == 0.016
        from radoppler.ingest import load_matrix
        np.testing.assert_array_equal(load_matrix(path), ra.power)
