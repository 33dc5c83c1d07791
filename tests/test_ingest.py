import math
import re
import tracemalloc
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np
import pytest

from radoppler import ingest
from radoppler.errors import FileFormatError
from radoppler.ingest import (
    SPEED_OF_LIGHT,
    PipelineConfig,
    RadarCube,
    RadarParams,
    field_pairs,
    format_kv,
    from_kv,
    kv_as_dict,
    load_config,
    load_matrix,
    load_radar_cube,
    parse_kv,
    read_sidecar,
    sidecar_path,
    write_config,
    write_cube,
    write_matrix,
    write_radar_cube,
)


def small_params(**overrides):
    base = dict(
        num_fast_samples=16,
        num_chirps=8,
        sample_rate=1.0e6,
        chirp_repetition_freq=1000.0,
        center_freq=77.0e9,
        bandwidth=1.5e9,
    )
    base.update(overrides)
    return RadarParams(**base)


class TestRadarParams:
    def test_range_resolution(self):
        p = small_params(bandwidth=1.5e9)
        assert p.range_resolution == SPEED_OF_LIGHT / (2 * 1.5e9)

    def test_chirp_duration(self):
        p = small_params(num_fast_samples=16, sample_rate=1.0e6)
        assert p.chirp_duration == 16e-6

    @pytest.mark.parametrize("field", [
        "num_fast_samples", "num_chirps", "sample_rate",
        "chirp_repetition_freq", "center_freq", "bandwidth",
    ])
    def test_rejects_non_positive(self, field):
        with pytest.raises(ValueError, match=field):
            small_params(**{field: 0})

    @pytest.mark.parametrize("field", [
        "sample_rate", "chirp_repetition_freq", "center_freq", "bandwidth",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=rf"RadarParams\.{field} must be finite"):
            small_params(**{field: value})

    def test_rejects_prf_above_sample_rate(self):
        with pytest.raises(ValueError, match="chirp_repetition_freq"):
            small_params(sample_rate=100.0, chirp_repetition_freq=200.0)


class TestRadarCube:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            RadarCube(params=small_params(), samples=np.zeros((4, 4), dtype=complex))

    def test_non_finite(self):
        samples = np.zeros((16, 8), dtype=complex)
        samples[3, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RadarCube(params=small_params(), samples=samples)

    def test_samples_read_only(self):
        cube = RadarCube(params=small_params(), samples=np.ones((16, 8), dtype=complex))
        with pytest.raises(ValueError):
            cube.samples[0, 0] = 0


class TestCubeFiles:
    def test_round_trip(self, tmp_path, rng):
        samples = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        cube = RadarCube(params=small_params(), samples=samples)
        payload = write_radar_cube(cube, tmp_path / "c.iq")
        loaded = load_radar_cube(payload)
        assert loaded.params == cube.params
        # payload is 32-bit, so equality holds at float32 precision
        np.testing.assert_array_equal(loaded.samples.real, samples.real.astype(np.float32))
        np.testing.assert_array_equal(loaded.samples.imag, samples.imag.astype(np.float32))

    def test_payload_layout_fast_time_fastest(self, tmp_path):
        samples = (np.arange(16)[:, None] + 1j * np.arange(8)[None, :]).astype(complex)
        cube = RadarCube(params=small_params(), samples=samples)
        payload = write_radar_cube(cube, tmp_path / "c.iq")
        raw = np.frombuffer(payload.read_bytes(), dtype="<f4")
        # first chirp block: I/Q pairs for fast samples 0..15 of chirp 0
        np.testing.assert_array_equal(raw[0:4], [0.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(raw[32:36], [0.0, 1.0, 1.0, 1.0])

    def test_size_mismatch_rejected(self, tmp_path):
        cube = RadarCube(params=small_params(), samples=np.ones((16, 8), dtype=complex))
        payload = write_radar_cube(cube, tmp_path / "c.iq")
        payload.write_bytes(payload.read_bytes()[:-8])
        with pytest.raises(FileFormatError, match="payload"):
            load_radar_cube(payload)

    def test_blocks_round_trip(self, tmp_path, rng, monkeypatch):
        # 8 chirps written and read in blocks of 3: two full blocks and a 2-chirp tail
        monkeypatch.setattr(ingest, "CHIRP_SLICE", 3)
        samples = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        payload = write_radar_cube(RadarCube(params=small_params(), samples=samples),
                                   tmp_path / "c.iq")
        expected = np.stack([samples.T.real, samples.T.imag], axis=-1).astype("<f4")
        assert payload.read_bytes() == expected.tobytes()
        loaded = load_radar_cube(payload)
        np.testing.assert_array_equal(loaded.samples.real, samples.real.astype(np.float32))
        np.testing.assert_array_equal(loaded.samples.imag, samples.imag.astype(np.float32))

    def test_non_finite_in_later_block_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "CHIRP_SLICE", 3)
        samples = np.ones((16, 8), dtype=complex)
        payload = write_radar_cube(RadarCube(params=small_params(), samples=samples),
                                   tmp_path / "c.iq")
        raw = np.fromfile(payload, dtype="<f4")
        raw[2 * 16 * 7 + 5] = np.inf  # chirp 7 sits in the third read
        raw.tofile(payload)
        with pytest.raises(FileFormatError, match="non-finite samples"):
            load_radar_cube(payload)

    def test_payload_size_checked_before_reading(self, tmp_path, monkeypatch):
        cube = RadarCube(params=small_params(), samples=np.ones((16, 8), dtype=complex))
        payload = write_radar_cube(cube, tmp_path / "c.iq")
        payload.write_bytes(payload.read_bytes() + b"\x00" * 8)
        monkeypatch.setattr(ingest.CubeReader, "__iter__",
                            lambda self: pytest.fail("payload read before its size was checked"))
        with pytest.raises(FileFormatError,
                           match="payload holds 258 floats, metadata declares 256"):
            load_radar_cube(payload)

    def test_payload_shrinking_after_the_check_rejected(self, tmp_path):
        cube = RadarCube(params=small_params(), samples=np.ones((16, 8), dtype=complex))
        payload = write_radar_cube(cube, tmp_path / "c.iq")
        reader = ingest.CubeReader(payload)
        payload.write_bytes(payload.read_bytes()[:-8])
        with pytest.raises(FileFormatError, match="payload ended while being read"):
            list(reader)

    def test_missing_sidecar(self, tmp_path):
        cube = RadarCube(params=small_params(), samples=np.ones((16, 8), dtype=complex))
        payload = write_radar_cube(cube, tmp_path / "c.iq")
        payload.with_suffix(".meta").unlink()
        with pytest.raises(FileFormatError, match="sidecar"):
            load_radar_cube(payload)

    def test_missing_payload(self, tmp_path):
        with pytest.raises(FileFormatError, match="payload"):
            load_radar_cube(tmp_path / "absent.iq")

    @pytest.mark.parametrize("key, value", [("sample_rate", "nan"), ("center_freq", "inf")])
    def test_sidecar_non_finite_value_rejected(self, tmp_path, key, value):
        cube = RadarCube(params=small_params(), samples=np.ones((16, 8), dtype=complex))
        payload = write_radar_cube(cube, tmp_path / "c.iq")
        meta = payload.with_suffix(".meta")
        meta.write_text(meta.read_text().replace(
            f"{key} = {getattr(cube.params, key)!r}", f"{key} = {value}"))
        with pytest.raises(FileFormatError, match=rf"c\.meta: RadarParams\.{key} must be finite"):
            ingest.CubeReader(payload)

    def test_sidecar_unknown_key_rejected(self, tmp_path):
        cube = RadarCube(params=small_params(), samples=np.ones((16, 8), dtype=complex))
        payload = write_radar_cube(cube, tmp_path / "c.iq")
        meta = payload.with_suffix(".meta")
        meta.write_text(meta.read_text() + "gain = 3\n")
        with pytest.raises(FileFormatError, match=r"c\.meta: unknown keys \['gain'\]"):
            ingest.CubeReader(payload)

    def test_sidecar_missing_key(self, tmp_path):
        cube = RadarCube(params=small_params(), samples=np.ones((16, 8), dtype=complex))
        payload = write_radar_cube(cube, tmp_path / "c.iq")
        meta = payload.with_suffix(".meta")
        lines = [l for l in meta.read_text().splitlines() if not l.startswith("bandwidth")]
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="bandwidth"):
            load_radar_cube(payload)


class TestCubeWriter:
    """write_cube writes the sidecar, then each block of chirps as it comes."""

    @staticmethod
    def blocks(samples, edges):
        return (samples[:, first:stop] for first, stop in zip(edges[:-1], edges[1:]))

    def test_any_blocks_give_the_in_memory_bytes(self, tmp_path, rng):
        samples = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        expect = write_radar_cube(RadarCube(params=small_params(), samples=samples),
                                  tmp_path / "whole.iq")
        for edges in ([0, 8], [0, 1, 2, 3, 4, 5, 6, 7, 8], [0, 5, 8]):
            payload = write_cube(small_params(), self.blocks(samples, edges),
                                 tmp_path / "blocks.iq")
            assert payload == tmp_path / "blocks.iq"
            assert payload.read_bytes() == expect.read_bytes(), edges
            assert (tmp_path / "blocks.meta").read_text() == (tmp_path / "whole.meta").read_text()

    @pytest.mark.parametrize("edges, shape, message", [
        ([0, 5], (16, 8), "5 chirps written of a 16 x 8 cube"),
        ([0, 5, 8, 9], (16, 9), r"a \(16, 1\) block does not fit chirps 8\.\. of a 16 x 8 cube"),
        ([0, 8], (15, 8), r"a \(15, 8\) block does not fit chirps 0\.\. of a 16 x 8 cube"),
    ])
    def test_blocks_must_fill_the_declared_cube(self, tmp_path, edges, shape, message):
        samples = np.ones(shape, dtype=complex)
        with pytest.raises(ValueError, match=message):
            write_cube(small_params(), self.blocks(samples, edges), tmp_path / "c.iq")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    def test_a_block_non_finite_once_cast_removes_both_files(self, tmp_path, value):
        """1e39 is finite as complex128 but overflows complex64: the payload would hold
        an infinity that its reader rejects."""
        samples = np.ones((16, 8), dtype=complex)
        samples[3, 6] = value
        written = []

        def blocks():
            for first in range(0, 8, 3):
                written.append((tmp_path / "c.meta").exists())
                yield samples[:, first : first + 3]

        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite samples"):
            write_cube(small_params(), blocks(), tmp_path / "c.iq")
        assert written == [True, True, True]
        assert list(tmp_path.iterdir()) == []


class TestKvDialect:
    def test_round_trip(self):
        pairs = [("a", 1), ("b", 2.5), ("c", "text"), ("flag", True)]
        parsed = parse_kv(format_kv(pairs))
        assert parsed == [("a", "1"), ("b", "2.5"), ("c", "text"), ("flag", "true")]

    def test_comments_and_blanks_skipped(self):
        assert parse_kv("# note\n\nkey = v\n") == [("key", "v")]

    def test_missing_equals(self):
        with pytest.raises(FileFormatError, match="line 1"):
            parse_kv("not a pair")

    def test_duplicate_key(self):
        with pytest.raises(FileFormatError, match="duplicate"):
            kv_as_dict([("k", "1"), ("k", "2")])

    def test_repeated_keys_preserved_in_order(self):
        parsed = parse_kv("s = 1\ns = 2\n")
        assert parsed == [("s", "1"), ("s", "2")]

    def test_from_kv_round_trips_field_pairs(self):
        params = small_params()
        pairs = parse_kv(format_kv(field_pairs(params)))
        assert [k for k, _ in pairs] == [f.name for f in fields(RadarParams)]
        assert from_kv(RadarParams, pairs, "p.meta") == params

    @pytest.mark.parametrize("edit, message", [
        (lambda pairs: pairs[1:], r"p\.meta: missing keys \['num_fast_samples'\]"),
        (lambda pairs: pairs + [("spin", "1")], r"p\.meta: unknown keys \['spin'\]"),
        (lambda pairs: pairs + pairs[:1], r"p\.meta: duplicate key 'num_fast_samples'"),
        (lambda pairs: [("num_chirps", "1.5")] + pairs[:1] + pairs[2:],
         r"p\.meta: key 'num_chirps': cannot parse '1\.5' as int"),
        (lambda pairs: [("bandwidth", "-1")] + pairs[:-1],
         r"p\.meta: RadarParams\.bandwidth must be strictly positive"),
    ])
    def test_from_kv_names_file_and_key(self, edit, message):
        pairs = parse_kv(format_kv(field_pairs(small_params())))
        with pytest.raises(FileFormatError, match=message):
            from_kv(RadarParams, edit(pairs), "p.meta")

    def test_from_kv_defaults_and_given_fields(self):
        cfg = from_kv(PipelineConfig, [("hop", "4")], "p.cfg", defaults=True)
        assert cfg == PipelineConfig(hop=4)
        cube = from_kv(RadarCube, [], "c", params=small_params(),
                       samples=np.ones((16, 8), dtype=complex))
        assert cube.params == small_params()
        with pytest.raises(FileFormatError, match=r"unknown keys \['params'\]"):
            from_kv(RadarCube, [("params", "1")], "c", params=small_params(),
                    samples=np.ones((16, 8), dtype=complex))

    def test_from_kv_defaults_keep_a_field_without_default_required(self):
        @dataclass(frozen=True)
        class Point:
            x: float
            y: float = 0.0

        assert from_kv(Point, [("x", "2")], "p", defaults=True) == Point(x=2.0)
        with pytest.raises(FileFormatError, match=r"p: missing keys \['x'\]"):
            from_kv(Point, [("y", "1.0")], "p", defaults=True)

    def test_read_sidecar_checks_presence_and_kind(self, tmp_path):
        matrix = tmp_path / "m.bin"
        assert sidecar_path(matrix) == tmp_path / "m.bin.meta"
        with pytest.raises(FileFormatError, match="sidecar not found"):
            read_sidecar(matrix, "spectrogram")
        sidecar_path(matrix).write_text("kind = ra_spectrogram\nnum_filters = 8\n")
        assert read_sidecar(matrix, "ra_spectrogram")["num_filters"] == "8"
        assert read_sidecar(matrix, None)["kind"] == "ra_spectrogram"
        with pytest.raises(FileFormatError, match="not a spectrogram sidecar"):
            read_sidecar(matrix, "spectrogram")


class TestMatrixFormats:
    def test_bin_round_trip_real(self, tmp_path, rng):
        m = rng.standard_normal((5, 7))
        path = write_matrix(m, tmp_path / "m.bin", format="bin")
        np.testing.assert_array_equal(load_matrix(path), m)

    @pytest.mark.parametrize("format", ["bin", "csv", "pgm"])
    def test_write_complex_rejected(self, tmp_path, format):
        path = tmp_path / f"m.{format}"
        with pytest.raises(ValueError, match="matrix must be real, got complex128"):
            write_matrix(np.ones((3, 4)) + 0j, path, format=format)
        assert not path.exists()

    def test_bin_complex_dtype_code_rejected(self, tmp_path):
        # the header of a 1x1 complex128 matrix, dtype code 1, and its re/im payload
        path = tmp_path / "m.bin"
        path.write_bytes(ingest._MATRIX_HEADER.pack(b"RDMX", 1, bytes(3), 1, 1)
                         + np.array([1.0, 2.0], "<f8").tobytes())
        with pytest.raises(FileFormatError, match=f"{path}: unknown dtype code 1"):
            load_matrix(path)

    def test_csv_round_trip_real(self, tmp_path, rng):
        m = rng.standard_normal((4, 6))
        path = write_matrix(m, tmp_path / "m.csv", format="csv")
        np.testing.assert_array_equal(load_matrix(path), m)

    def test_csv_cells_are_17_digit_floats(self, tmp_path):
        m = np.array([[-0.0, 5e-324, math.inf], [1 / 3, -math.inf, 1.7976931348623157e308]])
        path = write_matrix(m, tmp_path / "m.csv", format="csv")
        expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in m)
        assert path.read_bytes() == expected.encode()

    def test_csv_complex_cell_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,1+2j\n")
        with pytest.raises(FileFormatError, match=f"{path}:2: .*'1\\+2j'"):
            load_matrix(path)

    @staticmethod
    def neither_dialect(path):
        return re.escape(f"{path}: neither a bin matrix (no RDMX magic) nor csv text")

    def test_bin_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"XXXX" + bytes(12) + bytes(64))
        with pytest.raises(FileFormatError, match=self.neither_dialect(path)):
            load_matrix(path)

    def test_not_utf8_text(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"\xff\xfe1,2\n")
        with pytest.raises(FileFormatError, match=self.neither_dialect(path)):
            load_matrix(path)

    def test_bin_truncated(self, tmp_path, rng):
        path = write_matrix(rng.standard_normal((4, 4)), tmp_path / "m.bin", format="bin")
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FileFormatError, match="declares"):
            load_matrix(path)

    def test_bin_grown(self, tmp_path, rng):
        path = write_matrix(rng.standard_normal((4, 4)), tmp_path / "m.bin", format="bin")
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(FileFormatError, match="payload is 152 bytes, header declares 144"):
            load_matrix(path)

    def test_bin_huge_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(ingest._MATRIX_HEADER.pack(b"RDMX", 0, bytes(3), 2**32 - 1, 2**32 - 1))
        with pytest.raises(FileFormatError, match="payload is 16 bytes"):
            load_matrix(path)

    def test_bin_shrinking_after_the_check_rejected(self, tmp_path, rng, monkeypatch):
        path = write_matrix(rng.standard_normal((4, 4)), tmp_path / "m.bin", format="bin")
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(ingest.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(FileFormatError, match="payload ended while being read"):
            load_matrix(path)

    def test_bin_keeps_every_bit(self, tmp_path):
        m = np.array([[-0.0, 1.0, math.inf],
                      [2.5, -math.inf, 5e-324]])
        loaded = load_matrix(write_matrix(m, tmp_path / "m.bin", format="bin"))
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded.view(np.uint64), m.view(np.uint64))

    def test_bin_peak_memory_one_payload(self, tmp_path, rng):
        m = rng.standard_normal((1000, 1024))
        path = write_matrix(m, tmp_path / "m.bin", format="bin")
        tracemalloc.start()
        try:
            loaded = load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded, m)
        assert peak < 1.1 * m.nbytes

    def test_csv_ragged(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(FileFormatError, match="ragged"):
            load_matrix(path)

    def test_csv_unparseable(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,beef\n")
        with pytest.raises(FileFormatError):
            load_matrix(path)

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n")
        with pytest.raises(FileFormatError, match="empty"):
            load_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="not found"):
            load_matrix(tmp_path / "gone.bin")

    def test_pgm_not_loadable(self, tmp_path, rng):
        path = write_matrix(np.abs(rng.standard_normal((4, 4))), tmp_path / "m.pgm", format="pgm")
        with pytest.raises(FileFormatError, match="display"):
            load_matrix(path)

    def test_pgm_header_and_size(self, tmp_path, rng):
        m = np.abs(rng.standard_normal((6, 9))) + 0.1
        path = write_matrix(m, tmp_path / "m.pgm", format="pgm")
        blob = path.read_bytes()
        header = b"P5\n9 6\n255\n"
        assert blob.startswith(header)
        assert len(blob) == len(header) + 6 * 9

    def test_pgm_all_zero(self, tmp_path):
        path = write_matrix(np.zeros((2, 2)), tmp_path / "m.pgm", format="pgm")
        assert path.read_bytes().endswith(bytes(4))

    def test_pgm_peak_is_brightest(self, tmp_path):
        m = np.full((3, 5), 1e-6)
        m[1, 2] = 1.0
        path = write_matrix(m, tmp_path / "m.pgm", format="pgm")
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert pixels.reshape(3, 5)[1, 2] == 255

    def test_rejects_bad_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_matrix(np.ones(4), tmp_path / "m.bin")
        with pytest.raises(ValueError, match="format"):
            write_matrix(np.ones((2, 2)), tmp_path / "m.x", format="mat")


class TestPipelineConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.window_kind == "hann"
        assert cfg.fft_length >= cfg.window_length

    @pytest.mark.parametrize("overrides,pattern", [
        (dict(range_bin_start=5, range_bin_end=2), "range_bin"),
        (dict(hop=0), "hop"),
        (dict(hop=200, window_length=128), "hop"),
        (dict(window_length=512, fft_length=256), "hop"),
        (dict(fft_length=255, window_length=128), "even"),
        (dict(window_kind="kaiser"), "window_kind"),
        (dict(num_filters=1), "num_filters"),
        (dict(log_floor=0.0), "log_floor"),
        (dict(notch_cutoff=-1.0), "notch_cutoff"),
        (dict(notch_order=3), "notch_order"),
    ])
    def test_rejects_invalid(self, overrides, pattern):
        with pytest.raises(ValueError, match=pattern):
            PipelineConfig(**overrides)

    @pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)
                                      if isinstance(getattr(PipelineConfig(), f.name), float)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_floats(self, name, value):
        with pytest.raises(ValueError, match=rf"PipelineConfig\.{name} must be finite"):
            PipelineConfig(**{name: value})

    def test_config_file_round_trip(self, tmp_path):
        cfg = PipelineConfig(range_bin_end=31, window_kind="hamming", hop=8,
                             coherent=False, num_filters=48)
        path = write_config(cfg, tmp_path / "p.cfg")
        assert load_config(path) == cfg

    def test_partial_file_uses_defaults(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("hop = 4\n")
        cfg = load_config(path)
        assert cfg.hop == 4
        assert cfg.window_length == PipelineConfig().window_length

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(FileFormatError, match="bogus"):
            load_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("hop = soon\n")
        with pytest.raises(FileFormatError, match="hop"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="not found"):
            load_config(tmp_path / "gone.cfg")
