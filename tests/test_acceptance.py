"""Acceptance gate: one test per release criterion, each printing a
single [PASS]/[FAIL] line with the measured numbers.

These tests exercise public API end to end (plus the CLI) and enforce
the runtime envelopes, so they double as a smoke benchmark.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from _oracles import brute_force_corners
from radoppler import cli
from radoppler.errors import DegenerateCornerError
from radoppler.ingest import PipelineConfig, write_config
from radoppler.linspec import Spectrogram, stft_spectrogram
from radoppler.preprocess import clutter_filter, range_transform
from radoppler.ra_core import (
    EnergyProfile,
    build_filter_bank,
    find_corners,
    ra_transform,
    scale_forward,
    scale_inverse,
)
from radoppler.simulator import preset, save_scenario, synthesize
from radoppler.tracker import kalman_smooth

SEED = 20260815


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _preset_ra(name, num_filters=64):
    cfg = PipelineConfig()
    profiles = clutter_filter(range_transform(synthesize(preset(name))),
                              cutoff=cfg.notch_cutoff, order=cfg.notch_order)
    spec = stft_spectrogram(profiles, cfg)
    return ra_transform(spec, num_filters=num_filters)


def test_criterion_01_scale_round_trip(capsys):
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for f_c in (1.0, 7.3, 100.0):
        f = rng.uniform(1e-6, 1e4, size=1000)
        back = scale_inverse(scale_forward(f, f_c), f_c)
        worst = max(worst, float(np.max(np.abs(back - f) / f)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    _report(capsys, 1, ok,
            f"scale round trip max rel err {worst:.2e} (<1e-9), {elapsed:.3f} s (<1 s)")


def test_criterion_02_scale_anchors(capsys):
    worst = 0.0
    for f_c in (1.0, 7.3, 100.0):
        worst = max(worst,
                    abs(scale_forward(0.0, f_c)),
                    abs(scale_forward(f_c, f_c) - f_c),
                    abs(scale_forward(3.0 * f_c, f_c) - 2.0 * f_c))
    ok = worst <= 1e-12
    _report(capsys, 2, ok, f"anchor identities max abs err {worst:.2e} (<=1e-12)")


def test_criterion_03_partition_of_unity(capsys):
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        f_c = float(rng.uniform(0.5, 100.0))
        f_max = int(rng.integers(16, 1025))
        m_count = int(rng.integers(2, 129))
        bank = build_filter_bank(f_c, f_max, m_count)
        p = bank.break_points
        lo, hi = math.ceil(p[1]), math.floor(p[-2])
        if hi < lo:
            continue  # all peaks between two integer bins; nothing to sum
        sums = bank.weights[:, lo : hi + 1].sum(axis=0)
        worst = max(worst, float(np.max(np.abs(sums - 1.0))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(capsys, 3, ok,
            f"partition of unity max |sum-1| {worst:.2e} (<=1e-12), {elapsed:.2f} s (<5 s)")


def test_criterion_04_corner_oracle_equivalence(capsys):
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    mismatches = 0
    for case in range(200):
        length = int(rng.integers(9, 258))
        zero = length // 2
        if case % 3 == 0:
            # integer-valued rows force exact objective ties, so the
            # lexicographic tie-break itself is compared
            e = rng.integers(1, 8, size=length).astype(np.float64)
        else:
            e = rng.uniform(0.1, 10.0, size=length)
        f_nc, f_pc, _ = brute_force_corners(e, zero)
        try:
            got = find_corners(EnergyProfile(e=e, zero_index=zero))
            same = (got.f_nc, got.f_pc) == (f_nc, f_pc)
        except DegenerateCornerError:
            # the guard may fire only when the true minimizer is degenerate
            same = max(-f_nc, f_pc) < 2
        if not same:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    _report(capsys, 4, ok,
            f"oracle equivalence {200 - mismatches}/200 identical, {elapsed:.1f} s (<30 s)")


def test_criterion_05_corner_recovery(capsys):
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    hits = 0
    for _ in range(100):
        f_max = int(rng.integers(32, 129))
        neg_edge = -int(rng.integers(3, f_max - 2))
        pos_edge = int(rng.integers(3, f_max - 2))
        ratio = float(rng.uniform(200.0, 10000.0))  # e² contrast, >=23 dB
        e2 = np.full(2 * f_max + 1, 1.0)
        e2[f_max + neg_edge : f_max + pos_edge + 1] = ratio
        e2 *= rng.uniform(0.9, 1.1, size=e2.size)
        result = find_corners(EnergyProfile(e=np.sqrt(e2), zero_index=f_max))
        if abs(result.f_nc - neg_edge) <= 2 and abs(result.f_pc - pos_edge) <= 2:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and elapsed < 10.0
    _report(capsys, 5, ok,
            f"step edges within +/-2 bins in {hits}/100 (>=95), {elapsed:.1f} s (<10 s)")


def test_criterion_06_mechanism_reproduction(capsys):
    start = time.perf_counter()
    limp = _preset_ra("limp_like")
    fall = _preset_ra("fall_like")
    f_c = limp.corner.f_c
    m_count = limp.num_filters
    f_max = limp.bank.f_max
    fraction = np.count_nonzero(limp.bank.break_points[1:-1][:m_count] < f_c) / m_count
    needed = math.log10(2.0) / math.log10(1.0 + f_max / f_c) - 2.0 / m_count
    elapsed = time.perf_counter() - start
    ok = (limp.corner.f_c < fall.corner.f_c) and fraction >= needed and elapsed < 60.0
    _report(capsys, 6, ok,
            f"f_c limp {limp.corner.f_c} < fall {fall.corner.f_c} bins; "
            f"low-band filter fraction {fraction:.3f} >= {needed:.3f}, "
            f"{elapsed:.1f} s (<60 s)")


def test_criterion_07_clutter_rejection(capsys):
    profiles = range_transform(synthesize(preset("static_like")))
    before = float(np.sum(np.abs(profiles.values.sum(axis=1)) ** 2))
    filtered = clutter_filter(profiles)
    after = float(np.sum(np.abs(filtered.values.sum(axis=1)) ** 2))
    rejected = 1.0 - after / before
    ok = rejected >= 0.99
    _report(capsys, 7, ok,
            f"zero-Doppler power rejected {rejected * 100:.6f}% (>=99%)")


def test_criterion_08_tracking_benefit(capsys):
    rng = np.random.default_rng(SEED)
    dt = 0.008
    t = np.arange(150) * dt
    wins = 0
    for _ in range(100):
        slope = rng.uniform(-200.0, 200.0)
        truth = rng.uniform(-300.0, 300.0) + slope * t
        raw = truth + rng.normal(0.0, 2.0, size=t.size)
        smoothed = kalman_smooth(raw, dt, q=10.0, r=4.0)
        if np.sqrt(np.mean((smoothed - truth) ** 2)) < np.sqrt(np.mean((raw - truth) ** 2)):
            wins += 1
    ok = wins >= 95
    _report(capsys, 8, ok, f"Kalman RMSE below raw in {wins}/100 trials (>=95)")


def test_criterion_09_performance_envelope(capsys):
    rng = np.random.default_rng(SEED)
    power = rng.uniform(0.5, 1.0, size=(256, 256))
    power[:, 88:169] += 100.0
    spec = Spectrogram(power=power, f_max=1000.0, frame_dt=0.016)
    e = rng.uniform(0.1, 10.0, size=512)
    e[160:353] += 50.0
    profile = EnergyProfile(e=e, zero_index=256)

    start = time.perf_counter()
    ra_transform(spec, num_filters=64)
    ra_time = time.perf_counter() - start
    start = time.perf_counter()
    find_corners(profile)
    corner_time = time.perf_counter() - start

    ok = ra_time < 1.0 and corner_time < 2.0
    _report(capsys, 9, ok,
            f"ra_transform 256x256 M=64: {ra_time * 1000:.0f} ms (<1 s); "
            f"corner search 512 bins: {corner_time * 1000:.0f} ms (<2 s)")


def test_criterion_10_end_to_end_determinism(capsys, tmp_path, monkeypatch):
    scenario = preset("limp_like")
    scenario = dataclasses.replace(
        scenario, params=dataclasses.replace(scenario.params, num_chirps=1500))

    artifacts = ("cube.iq", "cube.meta", "spec.bin", "spec.bin.meta",
                 "ra.bin", "ra.bin.meta", "track.csv")
    manifests = ("cube.iq.manifest", "spec.bin.manifest",
                 "ra.bin.manifest", "track.csv.manifest")

    for run_dir in (tmp_path / "run_a", tmp_path / "run_b"):
        run_dir.mkdir()
        save_scenario(scenario, run_dir / "scene.scn")
        write_config(PipelineConfig(), run_dir / "pipeline.cfg")
        monkeypatch.chdir(run_dir)
        assert cli.main(["simulate", "scene.scn", "cube.iq"]) == 0
        assert cli.main(["spectrogram", "cube.iq", "pipeline.cfg", "spec.bin"]) == 0
        assert cli.main(["ra", "cube.iq", "pipeline.cfg", "ra.bin"]) == 0
        assert cli.main(["track", "spec.bin", "track.csv"]) == 0

    diffs = []
    for name in artifacts:
        if (tmp_path / "run_a" / name).read_bytes() != (tmp_path / "run_b" / name).read_bytes():
            diffs.append(name)
    for name in manifests:
        def stripped(d):
            return [ln for ln in (d / name).read_text().splitlines()
                    if not ln.startswith("timestamp")]
        if stripped(tmp_path / "run_a") != stripped(tmp_path / "run_b"):
            diffs.append(name)

    ok = not diffs
    _report(capsys, 10, ok,
            "CLI chain rerun byte-identical"
            + ("" if ok else f"; differing: {', '.join(diffs)}")
            + " (manifests compared without timestamps)")
