import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

import radoppler
from radoppler import cli, ingest, simulator
from radoppler.ingest import (
    load_radar_cube,
    PipelineConfig,
    RadarCube,
    load_matrix,
    parse_kv,
    write_config,
    write_radar_cube,
)
from radoppler.linspec import (
    load_spectrogram,
    save_spectrogram,
    spectrogram_from_cube,
    spectrogram_from_file,
)
from radoppler.simulator import DEFAULT_PARAMS, preset, save_scenario, synthesize


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One simulate -> spectrogram -> ra -> track chain shared by read-only tests."""
    root = tmp_path_factory.mktemp("chain")
    scenario = preset("limp_like")
    scenario = dataclasses.replace(
        scenario, params=dataclasses.replace(scenario.params, num_chirps=1024))
    save_scenario(scenario, root / "scene.scn")
    write_config(PipelineConfig(), root / "pipeline.cfg")
    assert cli.main(["simulate", str(root / "scene.scn"), str(root / "cube.iq")]) == 0
    assert cli.main(["spectrogram", str(root / "cube.iq"), str(root / "pipeline.cfg"),
                     str(root / "spec.bin")]) == 0
    assert cli.main(["ra", str(root / "cube.iq"), str(root / "pipeline.cfg"),
                     str(root / "ra.bin")]) == 0
    assert cli.main(["track", str(root / "spec.bin"), str(root / "track.csv")]) == 0
    return root


def manifest_of(path):
    # input/output lines repeat, so fold everything else into a dict
    text = (path.parent / (path.name + ".manifest")).read_text()
    return {k: v for k, v in parse_kv(text) if k not in ("input", "output")}


class TestParser:
    def test_exactly_four_subcommands(self):
        parser = cli.build_parser()
        subs = next(a for a in parser._actions
                    if isinstance(a, cli.argparse._SubParsersAction))
        assert set(subs.choices) == {"simulate", "spectrogram", "ra", "track"}

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["transmogrify"])
        assert err.value.code == 2


SRC = Path(cli.__file__).resolve().parents[1]


def run_python(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


class TestEntry:
    def test_import_loads_no_scipy(self, tmp_path):
        code = ("import sys, radoppler, radoppler.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = run_python("-c", code, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_module_run_executes_main(self, tmp_path):
        for module in ("radoppler.cli", "radoppler"):
            done = run_python("-m", module, "track", "none.bin", "t.csv", cwd=tmp_path)
            assert done.returncode == 2, module
            assert "error:" in done.stderr, module

    def test_import_loads_no_stage_module(self, tmp_path):
        code = ("import sys, radoppler; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'radoppler'))")
        done = run_python("-c", code, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "['radoppler']"

    @pytest.mark.parametrize("argv, stages", [
        (["simulate", "scene.scn", "OUT"], {"simulator"}),
        (["spectrogram", "cube.iq", "pipeline.cfg", "OUT"], {"linspec", "preprocess"}),
        (["ra", "cube.iq", "pipeline.cfg", "OUT"], {"linspec", "preprocess", "ra_core"}),
        (["ra", "spec.bin", "pipeline.cfg", "OUT"], {"linspec", "preprocess", "ra_core"}),
        (["track", "spec.bin", "OUT"], {"linspec", "preprocess", "tracker"}),
        (["track", "ra.bin", "OUT"], {"linspec", "preprocess", "ra_core", "tracker"}),
    ], ids=["simulate", "spectrogram", "ra_cube", "ra_spec", "track_spec", "track_ra"])
    def test_subcommand_loads_only_its_stages(self, workdir, tmp_path, argv, stages):
        paths = [str(tmp_path / "out" if a == "OUT" else workdir / a) for a in argv[1:]]
        code = ("import sys; from radoppler.cli import main; code = main(sys.argv[1:]); "
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'radoppler'))")
        done = run_python("-c", code, argv[0], *paths, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        modules = {"cli", "errors", "ingest"} | stages
        loaded = sorted(["radoppler"] + [f"radoppler.{m}" for m in modules])
        assert done.stdout.strip() == f"0 {loaded}"

    def test_star_import_matches_submodule_attributes(self, tmp_path):
        code = "\n".join([
            "import sys, radoppler",
            "from radoppler import *",
            "names = [n for n in radoppler.__all__ if n != '__version__']",
            "owner = {n: sys.modules[globals()[n].__module__] for n in names}",
            "print(len(names), [n for n in names if globals()[n] is not getattr(owner[n], n)])",
        ])
        done = run_python("-c", code, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [str(len(radoppler.__all__) - 1), "[]"]
        assert set(radoppler.__all__) <= set(dir(radoppler))

    def test_unknown_attribute_names_it(self):
        with pytest.raises(AttributeError, match="'no_such_stage'"):
            radoppler.no_such_stage


class TestSimulate:
    def test_artifacts_and_manifest(self, workdir):
        cube = workdir / "cube.iq"
        assert cube.exists() and cube.with_suffix(".meta").exists()
        meta = manifest_of(cube)
        assert meta["command"] == "simulate"
        assert meta["tool_version"]
        digest = hashlib.sha256(cube.read_bytes()).hexdigest()
        outputs = [v for k, v in parse_kv((workdir / "cube.iq.manifest").read_text())
                   if k == "output"]
        assert any(str(cube) in line and digest in line for line in outputs)

    def test_timestamp_is_last_line(self, workdir):
        lines = (workdir / "cube.iq.manifest").read_text().strip().splitlines()
        assert lines[-1].startswith("timestamp = ")
        assert sum(1 for ln in lines if ln.startswith("timestamp")) == 1

    def test_missing_scenario_exits_two(self, tmp_path, capsys):
        code = cli.main(["simulate", str(tmp_path / "ghost.scn"), str(tmp_path / "c.iq")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_aliasing_scenario_exits_two(self, tmp_path, capsys):
        path = tmp_path / "fast.scn"
        path.write_text(
            "num_fast_samples = 32\nnum_chirps = 16\nsample_rate = 2e6\n"
            "chirp_repetition_freq = 2000\ncenter_freq = 77e9\nbandwidth = 1.5e9\n"
            "scatterer = {base_range: 2.0, base_velocity: 2.5}\n")
        assert cli.main(["simulate", str(path), str(tmp_path / "c.iq")]) == 2
        err = capsys.readouterr().err
        assert "scatterer 0" in err and "unambiguous" in err


def scene_of(name, num_chirps=None, noise_power=None):
    """A preset with its dwell and noise power replaced where given."""
    scenario = preset(name)
    if num_chirps is not None:
        scenario = dataclasses.replace(
            scenario, params=dataclasses.replace(scenario.params, num_chirps=num_chirps))
    if noise_power is not None:
        scenario = dataclasses.replace(scenario, noise_power=noise_power)
    return scenario


class TestSimulateStreams:
    """simulate renders and writes its cube CHIRP_SLICE chirps at a time, and writes the
    bytes of write_radar_cube(synthesize(scenario)): the payload and its sidecar."""

    @pytest.mark.parametrize("scenario", [
        *(scene_of(name) for name in simulator.PRESET_NAMES),
        scene_of("limp_like", 2500),
        scene_of("fall_like", ingest.CHIRP_SLICE - 1),
        scene_of("walk_like", ingest.CHIRP_SLICE + 1),
        scene_of("limp_like", 1),
        scene_of("walk_like", 2500, noise_power=0.0),
    ], ids=[*simulator.PRESET_NAMES, "noisy_2500", "slice_minus_1", "slice_plus_1",
            "one_chirp", "noiseless_2500"])
    def test_equals_the_api_cube(self, tmp_path, scenario):
        save_scenario(scenario, tmp_path / "scene.scn")
        assert cli.main(["simulate", str(tmp_path / "scene.scn"), str(tmp_path / "cli.iq")]) == 0
        write_radar_cube(synthesize(scenario), tmp_path / "api.iq")
        for suffix in (".iq", ".meta"):
            assert ((tmp_path / f"cli{suffix}").read_bytes()
                    == (tmp_path / f"api{suffix}").read_bytes()), suffix


class TestSpectrogram:
    def test_matches_in_process_pipeline(self, workdir):
        # the .iq payload is float32, so rebuild from the stored cube
        spec = load_spectrogram(workdir / "spec.bin")
        cube = load_radar_cube(workdir / "cube.iq")
        expect = spectrogram_from_cube(cube, PipelineConfig())
        np.testing.assert_array_equal(spec.power, expect.power)
        assert spec.f_max == expect.f_max

    def test_rerun_byte_identical(self, workdir, tmp_path):
        out = tmp_path / "again.bin"
        assert cli.main(["spectrogram", str(workdir / "cube.iq"),
                         str(workdir / "pipeline.cfg"), str(out)]) == 0
        assert out.read_bytes() == (workdir / "spec.bin").read_bytes()

    def test_csv_format_parses_equal(self, workdir, tmp_path):
        out = tmp_path / "spec.csv"
        assert cli.main(["spectrogram", str(workdir / "cube.iq"),
                         str(workdir / "pipeline.cfg"), str(out), "--format", "csv"]) == 0
        np.testing.assert_array_equal(load_matrix(out), load_matrix(workdir / "spec.bin"))

    def test_pgm_format(self, workdir, tmp_path):
        out = tmp_path / "spec.pgm"
        assert cli.main(["spectrogram", str(workdir / "cube.iq"),
                         str(workdir / "pipeline.cfg"), str(out), "--format", "pgm"]) == 0
        head = out.read_bytes().split(b"\n", 3)
        bins, frames = load_matrix(workdir / "spec.bin").shape[1], None
        assert head[0] == b"P5"
        width, height = map(int, head[1].split())
        assert height == bins  # transposed: frequency runs down image rows
        assert not (tmp_path / "spec.pgm.meta").exists()
        assert (tmp_path / "spec.pgm.manifest").exists()

    @pytest.mark.parametrize("command,source", [
        ("spectrogram", "cube.iq"), ("ra", "spec.bin"),
        # a spilled PowerFile that knows its peak, rebinned into an image
        ("ra", "cube.iq"),
    ], ids=["spectrogram", "ra", "ra-cube"])
    def test_pgm_same_bytes_from_api_and_cli(self, workdir, tmp_path, command, source):
        """The savers write a pgm as the CLI does: frequency on rows, no sidecar."""
        from radoppler.ra_core import load_ra_spectrogram, save_ra_spectrogram
        cli_out, api_out = tmp_path / "cli.pgm", tmp_path / "api.pgm"
        source = workdir / source
        assert cli.main([command, str(source), str(workdir / "pipeline.cfg"), str(cli_out),
                         "--format", "pgm"]) == 0
        if command == "spectrogram":
            save_spectrogram(load_spectrogram(workdir / "spec.bin"), api_out, format="pgm")
        else:
            save_ra_spectrogram(load_ra_spectrogram(workdir / "ra.bin"), api_out, format="pgm")
        assert api_out.read_bytes() == cli_out.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["api.pgm", "cli.pgm",
                                                              "cli.pgm.manifest"]

    def test_manifest_config_snapshot(self, workdir):
        meta = manifest_of(workdir / "spec.bin")
        assert meta["config_window_length"] == "128"
        assert meta["config_fft_length"] == "256"
        assert meta["command"] == "spectrogram"

    def test_missing_cube_exits_two(self, workdir, tmp_path, capsys):
        code = cli.main(["spectrogram", str(tmp_path / "none.iq"),
                         str(workdir / "pipeline.cfg"), str(tmp_path / "s.bin")])
        assert code == 2

    def test_bad_config_exits_two(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hop = 0\n")
        code = cli.main(["spectrogram", str(workdir / "cube.iq"), str(cfg),
                         str(tmp_path / "s.bin")])
        assert code == 2


class TestRA:
    def test_manifest_corner_report(self, workdir):
        meta = manifest_of(workdir / "ra.bin")
        assert meta["forced"] == "false"
        f_c = int(meta["f_c_bins"])
        assert f_c == max(-int(meta["f_nc_bins"]), int(meta["f_pc_bins"]))
        assert float(meta["f_c_hz"]) == pytest.approx(f_c * 2000.0 / 256.0)
        # the break points live in the sidecar, which the manifest hashes
        assert not any(key.startswith("p_") for key in meta)
        sidecar = dict(parse_kv((workdir / "ra.bin.meta").read_text()))
        assert float(sidecar["p_0"]) == 0.0
        assert float(sidecar["p_65"]) == 128.0

    def test_from_spectrogram_matches_from_cube(self, workdir, tmp_path):
        out = tmp_path / "ra_from_spec.bin"
        assert cli.main(["ra", str(workdir / "spec.bin"), str(workdir / "pipeline.cfg"),
                         str(out)]) == 0
        assert out.read_bytes() == (workdir / "ra.bin").read_bytes()

    def test_force_fc(self, workdir, tmp_path):
        out = tmp_path / "ra_forced.bin"
        assert cli.main(["ra", str(workdir / "spec.bin"), str(workdir / "pipeline.cfg"),
                         str(out), "--force-fc", "150"]) == 0
        meta = manifest_of(out)
        assert meta["forced"] == "true"
        assert int(meta["f_c_bins"]) == 19  # 150 Hz at 7.8125 Hz per bin

    def test_force_fc_rejects_nonpositive(self, workdir, tmp_path, capsys):
        code = cli.main(["ra", str(workdir / "spec.bin"), str(workdir / "pipeline.cfg"),
                         str(tmp_path / "ra.bin"), "--force-fc", "-5"])
        assert code == 2
        assert "force-fc" in capsys.readouterr().err

    def test_force_fc_above_nyquist_exits_two(self, workdir, tmp_path, capsys):
        out = tmp_path / "ra.bin"
        code = cli.main(["ra", str(workdir / "spec.bin"), str(workdir / "pipeline.cfg"),
                         str(out), "--force-fc", "5000"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--force-fc 5000" in err and "[1, 127] bins" in err
        assert list(tmp_path.iterdir()) == []

    def test_more_filters_than_bin_slots_exits_two(self, workdir, tmp_path, capsys):
        # 129 bins per half axis carry at most 258 filters; a bank this large
        # would need terabytes, so the check must come before it
        code = cli.main(["ra", str(workdir / "spec.bin"), str(workdir / "pipeline.cfg"),
                         str(tmp_path / "ra.bin"), "--M", "1000000000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert "M = 1000000000000" in err and "129 bins" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value, problem", [
        ("-5", "need at least 2 filters, got -5"),
        ("1", "need at least 2 filters, got 1"),
        ("2.5", "expected an integer, got '2.5'"),
    ])
    def test_too_few_filters_names_option_and_value(self, workdir, tmp_path, capsys, value,
                                                     problem):
        with pytest.raises(SystemExit) as err:
            cli.main(["ra", str(workdir / "spec.bin"), str(workdir / "pipeline.cfg"),
                      str(tmp_path / "ra.bin"), "--M", value])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --M: {problem}\n")
        assert list(tmp_path.iterdir()) == []

    def test_m_option_overrides_config(self, workdir, tmp_path):
        out = tmp_path / "ra_m8.bin"
        assert cli.main(["ra", str(workdir / "spec.bin"), str(workdir / "pipeline.cfg"),
                         str(out), "--M", "8"]) == 0
        assert load_matrix(out).shape[1] == 16

    def test_corner_ordering_limp_below_walk(self, workdir, tmp_path):
        scenario = preset("walk_like")
        scenario = dataclasses.replace(
            scenario, params=dataclasses.replace(scenario.params, num_chirps=1024))
        save_scenario(scenario, tmp_path / "walk.scn")
        assert cli.main(["simulate", str(tmp_path / "walk.scn"),
                         str(tmp_path / "walk.iq")]) == 0
        assert cli.main(["ra", str(tmp_path / "walk.iq"), str(workdir / "pipeline.cfg"),
                         str(tmp_path / "walk_ra.bin")]) == 0
        limp_fc = int(manifest_of(workdir / "ra.bin")["f_c_bins"])
        walk_fc = int(manifest_of(tmp_path / "walk_ra.bin")["f_c_bins"])
        assert limp_fc < walk_fc

    def test_spectrogram_without_sidecar_exits_two(self, workdir, tmp_path, capsys):
        bare = tmp_path / "bare.bin"
        shutil.copyfile(workdir / "spec.bin", bare)
        code = cli.main(["ra", str(bare), str(workdir / "pipeline.cfg"),
                         str(tmp_path / "ra.bin")])
        assert code == 2
        assert "sidecar" in capsys.readouterr().err

    def test_all_zero_cube_exits_two(self, tmp_path, workdir, capsys):
        params = dataclasses.replace(DEFAULT_PARAMS, num_chirps=256)
        cube = RadarCube(params=params,
                         samples=np.zeros((params.num_fast_samples, 256), np.complex128))
        write_radar_cube(cube, tmp_path / "zero.iq")
        code = cli.main(["ra", str(tmp_path / "zero.iq"), str(workdir / "pipeline.cfg"),
                         str(tmp_path / "ra.bin")])
        assert code == 2
        assert "degenerate input" in capsys.readouterr().err


class TestTrack:
    def test_doppler_axis_from_spectrogram(self, workdir):
        lines = (workdir / "track.csv").read_text().splitlines()
        assert lines[0] == "# axis: doppler_hz"
        assert lines[1] == "frame_time,raw_peak,smoothed"
        meta = manifest_of(workdir / "track.csv")
        assert meta["axis_kind"] == "doppler_hz"

    def test_constant_tone_smooths_flat(self, tmp_path):
        power = np.full((60, 64), 1e-6)
        power[:, 48] = 2.0
        prf = 1000.0
        from radoppler.linspec import Spectrogram
        spec = Spectrogram(power=power, f_max=prf / 2, frame_dt=0.02)
        save_spectrogram(spec, tmp_path / "tone.bin")
        assert cli.main(["track", str(tmp_path / "tone.bin"), str(tmp_path / "t.csv")]) == 0
        rows = [ln.split(",") for ln in
                (tmp_path / "t.csv").read_text().splitlines()[2:]]
        smoothed = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(smoothed[20:], spec.freq_axis[48], atol=1e-6)

    def test_ra_axis(self, workdir, tmp_path):
        assert cli.main(["track", str(workdir / "ra.bin"), str(tmp_path / "rt.csv")]) == 0
        assert (tmp_path / "rt.csv").read_text().splitlines()[0] == "# axis: ra_center_hz"

    def test_bare_matrix_axis(self, workdir, tmp_path):
        bare = tmp_path / "bare.bin"
        shutil.copyfile(workdir / "spec.bin", bare)
        assert cli.main(["track", str(bare), str(tmp_path / "bt.csv")]) == 0
        assert (tmp_path / "bt.csv").read_text().splitlines()[0] == "# axis: column_index"

    def test_defaults_match_explicit_q_r(self, workdir, tmp_path):
        explicit = tmp_path / "explicit.csv"
        assert cli.main(["track", str(workdir / "spec.bin"), str(explicit),
                         "--q", "10.0", "--r", "4.0"]) == 0
        assert explicit.read_bytes() == (workdir / "track.csv").read_bytes()

    def test_missing_input_exits_two(self, tmp_path, capsys):
        assert cli.main(["track", str(tmp_path / "none.bin"), str(tmp_path / "t.csv")]) == 2

    @pytest.mark.parametrize("matrix,old,new,named", [
        ("ra.bin", "p_3 = ", None, "missing keys ['p_3']"),
        ("ra.bin", "num_filters = 64", "num_filters = lots",
         "key 'num_filters': cannot parse 'lots' as int"),
        ("spec.bin", "f_max = ", "f_max = x", "key 'f_max': cannot parse 'x' as float"),
        ("spec.bin", "f_max = ", "f_max = -100.0", "f_max must be positive and finite"),
        ("spec.bin", "frame_dt = ", "frame_dt = nan", "key 'frame_dt' must be finite"),
        ("ra.bin", "num_filters = 64", "num_filters = 8",
         "key 'num_filters' = 8 must be at least 1 and half the 128 matrix columns"),
        ("ra.bin", "num_filters = 64", "num_filters = -3",
         "key 'num_filters' = -3 must be at least 1 and half the 128 matrix columns"),
        ("spec.bin", "frame_dt = ", "frame_dt = -0.5", "key 'frame_dt' must be positive"),
        ("ra.bin", "frame_dt = ", "frame_dt = 0", "key 'frame_dt' must be positive"),
        ("spec.bin", "num_frames = ", "num_frames = 5",
         "key 'num_frames' = 5 does not match the 57 matrix rows"),
        ("spec.bin", "num_freq_bins = ", "num_freq_bins = 7",
         "key 'num_freq_bins' = 7 does not match the 256 matrix columns"),
        ("ra.bin", "num_frames = ", "num_frames = 5",
         "key 'num_frames' = 5 does not match the 57 matrix rows"),
        ("ra.bin", "hz_per_bin = ", "hz_per_bin = 0.0", "key 'hz_per_bin' = 0.0 must be positive"),
        ("ra.bin", "hz_per_bin = ", "hz_per_bin = -7.8125",
         "key 'hz_per_bin' = -7.8125 must be positive"),
        ("ra.bin", "p_1 = ", "p_1 = 0", "key 'p_1' = 0.0 must exceed 0.0: p_1..p_64 rise strictly"),
        ("ra.bin", "p_2 = ", "p_2 = -1.5", "key 'p_2' = -1.5 must exceed "),
        ("ra.bin", "p_64 = ", "p_64 = 1.0", "key 'p_64' = 1.0 must exceed "),
    ], ids=["no_p_3", "num_filters_lots", "f_max_x", "f_max_negative", "frame_dt_nan",
            "num_filters_8", "num_filters_negative", "frame_dt_negative", "ra_frame_dt_zero",
            "num_frames_5", "num_freq_bins_7", "ra_num_frames_5", "hz_per_bin_zero",
            "hz_per_bin_negative", "p_1_zero", "p_2_falls", "p_64_falls"])
    def test_bad_sidecar_value_exits_two(self, workdir, tmp_path, capsys, matrix, old, new,
                                         named):
        """track, and ra for a spectrogram, exit 2 naming the key and the sidecar, and
        leave no file open: none counted after the exit, and none left for the garbage
        collector to close with a ResourceWarning (which the count cannot see)."""
        path = tmp_path / matrix
        shutil.copyfile(workdir / matrix, path)
        lines = (workdir / (matrix + ".meta")).read_text().splitlines()
        hit = [k for k, line in enumerate(lines) if line.startswith(old)]
        assert len(hit) == 1
        if new is None:
            del lines[hit[0]]
        else:
            lines[hit[0]] = new
        (tmp_path / (matrix + ".meta")).write_text("\n".join(lines) + "\n")
        commands = [["track", str(path), str(tmp_path / "t.csv")]]
        if matrix == "spec.bin":
            commands.append(["ra", str(path), str(workdir / "pipeline.cfg"),
                             str(tmp_path / "r.bin")])
        fds = TestFailedRunLeavesNoTrace.open_fds()
        for command in commands:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                assert cli.main(command) == 2
            assert [w.message for w in caught if w.category is ResourceWarning] == []
            err = capsys.readouterr().err
            assert named in err and f"{path}.meta" in err
            assert TestFailedRunLeavesNoTrace.open_fds() == fds
        assert not (tmp_path / "t.csv").exists() and not (tmp_path / "r.bin").exists()

    @pytest.mark.parametrize("matrix,sidecar,frame,bad", [("spec.bin", False, 7, np.nan),
                                                          ("ra.bin", True, 40, np.inf)],
                             ids=["bare_nan", "ra_inf"])
    def test_non_finite_matrix_exits_two(self, workdir, tmp_path, capsys, matrix, sidecar,
                                         frame, bad):
        power = load_matrix(workdir / matrix).copy()
        power[frame, 3] = bad
        path = tmp_path / matrix
        ingest.write_matrix(power, path)
        if sidecar:
            shutil.copyfile(workdir / (matrix + ".meta"), tmp_path / (matrix + ".meta"))
        assert cli.main(["track", str(path), str(tmp_path / "t.csv")]) == 2
        assert f"frame {frame} holds {bad}" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["track", "ra"])
    def test_non_finite_spectrogram_names_file_and_frame(self, workdir, tmp_path, capsys,
                                                         command):
        power = load_matrix(workdir / "spec.bin").copy()
        power[7, 3] = np.nan
        path = tmp_path / "spec.bin"
        ingest.write_matrix(power, path)
        shutil.copyfile(workdir / "spec.bin.meta", tmp_path / "spec.bin.meta")
        out = tmp_path / "out"
        argv = {"track": ["track", str(path), str(out)],
                "ra": ["ra", str(path), str(workdir / "pipeline.cfg"), str(out)]}[command]
        assert cli.main(argv) == 2
        assert (f"error: {path}: power must be finite and non-negative; frame 7 holds nan "
                "in column 3") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind_line,named", [
        ("kind = spectogram\n",
         "key 'kind' = 'spectogram' is neither 'spectrogram' nor 'ra_spectrogram'"),
        ("", "missing keys ['kind']"),
    ], ids=["typo", "missing"])
    def test_unknown_sidecar_kind_exits_two(self, workdir, tmp_path, capsys, kind_line, named):
        """A sidecar that exists must say what its matrix holds; only no sidecar is bare."""
        path = tmp_path / "spec.bin"
        shutil.copyfile(workdir / "spec.bin", path)
        meta = (workdir / "spec.bin.meta").read_text()
        assert meta.startswith("kind = spectrogram\n")
        (tmp_path / "spec.bin.meta").write_text(meta.replace("kind = spectrogram\n", kind_line))
        assert cli.main(["track", str(path), str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}.meta: {named}" in err
        assert not (tmp_path / "t.csv").exists()


class TestEmptyMatrix:
    """A bin header that declares no rows or no columns exits 2 naming the file and
    the shape, with or without a spectrogram sidecar; nothing is written."""

    @pytest.mark.parametrize("shape", [(0, 64), (3, 0)], ids=["no_rows", "no_columns"])
    @pytest.mark.parametrize("command,sidecar", [("track", False), ("track", True),
                                                 ("ra", True)],
                             ids=["track_bare", "track", "ra"])
    def test_exits_two_and_writes_nothing(self, workdir, tmp_path, capsys, shape, command,
                                          sidecar):
        path = tmp_path / "in" / "z.bin"
        path.parent.mkdir()
        path.write_bytes(ingest._MATRIX_HEADER.pack(b"RDMX", 0, bytes(3), *shape))
        if sidecar:
            shutil.copyfile(workdir / "spec.bin.meta", tmp_path / "in" / "z.bin.meta")
        out = tmp_path / "out"
        out.mkdir()
        argv = {"track": ["track", str(path), str(out / "t.csv")],
                "ra": ["ra", str(path), str(workdir / "pipeline.cfg"), str(out / "r.bin")]}
        assert cli.main(argv[command]) == 2
        assert (f"error: {path}: header declares an empty {shape[0]} x {shape[1]} matrix"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []


class TestComplexMatrix:
    """A complex (dtype code 1) matrix file exits 2 naming it; nothing is written."""

    @pytest.fixture
    def complex_spec(self, workdir, tmp_path):
        power = load_matrix(workdir / "spec.bin").astype(np.complex128)
        path = tmp_path / "in" / "spec.bin"
        path.parent.mkdir()
        path.write_bytes(ingest._MATRIX_HEADER.pack(b"RDMX", 1, bytes(3), *power.shape)
                         + power.astype("<c16").tobytes())
        return path

    @pytest.mark.parametrize("command,sidecar", [("track", True), ("ra", True),
                                                 ("track", False)],
                             ids=["track", "ra", "track_bare"])
    def test_exits_two_and_writes_nothing(self, workdir, tmp_path, capsys, complex_spec,
                                          command, sidecar):
        if sidecar:
            shutil.copyfile(workdir / "spec.bin.meta", complex_spec.parent / "spec.bin.meta")
        out = tmp_path / "out"
        out.mkdir()
        argv = {"track": ["track", str(complex_spec), str(out / "t.csv")],
                "ra": ["ra", str(complex_spec), str(workdir / "pipeline.cfg"),
                       str(out / "r.bin")]}[command]
        assert cli.main(argv) == 2
        assert f"error: {complex_spec}: unknown dtype code 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def exit_code(argv):
    """cli.main's exit code, also when argparse rejects the command line."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestNonFiniteInputs:
    @pytest.mark.parametrize("command,config,name", [
        (["ra", "SPEC", "CFG", "OUT", "--force-fc", "inf"], "", "--force-fc"),
        (["track", "SPEC", "OUT", "--q", "nan"], "", "--q"),
        (["track", "SPEC", "OUT", "--r", "inf"], "", "--r"),
        (["ra", "SPEC", "CFG", "OUT"], "log_floor = nan\n", "log_floor"),
        (["spectrogram", "CUBE", "CFG", "OUT"], "notch_cutoff = inf\n", "notch_cutoff"),
    ])
    def test_exits_two_naming_the_value(self, workdir, tmp_path, capsys, command, config, name):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        paths = {"SPEC": workdir / "spec.bin", "CUBE": workdir / "cube.iq", "CFG": cfg,
                 "OUT": out}
        assert exit_code([str(paths.get(a, a)) for a in command]) == 2
        assert name in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]


class TestNegativeExponentValues:
    @pytest.mark.parametrize("command,named", [
        (["ra", "SPEC", "CFG", "OUT", "--force-fc", "-1e-05"],
         "error: --force-fc -1e-05: forced corner -1.28e-06 bins (-1e-05 Hz) does not round"),
        (["ra", "SPEC", "CFG", "OUT", "--forc", "-1e-05"],
         "error: --force-fc -1e-05: forced corner -1.28e-06 bins (-1e-05 Hz) does not round"),
        (["track", "SPEC", "OUT", "--q", "-1e-3"],
         "error: q must be finite and positive, got -0.001"),
        (["track", "SPEC", "OUT", "--r", "-2.5E+1"],
         "error: r must be finite and positive, got -25.0"),
        (["track", "SPEC", "OUT", "--r", "-inf"], "expected a finite number, got '-inf'"),
    ], ids=["force_fc", "force_fc_abbreviated", "q", "r", "r_inf"])
    def test_spaced_value_reads_as_the_joined_one(self, workdir, tmp_path, capsys, command,
                                                 named):
        """argparse takes a negative number in exponent notation for an option; given
        after a space, it reaches the same check and stderr as ``--opt=value``."""
        cfg = tmp_path / "p.cfg"
        cfg.write_text("")
        paths = {"SPEC": workdir / "spec.bin", "CFG": cfg, "OUT": tmp_path / "out"}
        argv = [str(paths.get(a, a)) for a in command]
        errs = []
        for spelling in (argv, argv[:-2] + [f"{argv[-2]}={argv[-1]}"]):
            assert exit_code(spelling) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and named in errs[0]
        assert list(tmp_path.iterdir()) == [cfg]

    def test_values_after_double_dash_stay_positional(self):
        assert cli._joined_values(["track", "--q", "-1e-3", "--", "--r", "-1e-3"]) == [
            "track", "--q=-1e-3", "--", "--r", "-1e-3"]


class TestNotchAboveNyquist:
    @pytest.mark.parametrize("command", ["spectrogram", "ra"])
    def test_exits_two_naming_key_value_and_limit(self, workdir, tmp_path, capsys, command):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("notch_cutoff = 5000\n")
        out = tmp_path / "out"
        out.mkdir()
        cube = workdir / "cube.iq"
        assert cli.main([command, str(cube), str(cfg), str(out / "x.bin")]) == 2
        assert capsys.readouterr().err == (f"error: {cfg}: notch_cutoff = 5000.0 Hz must sit "
                                           f"below 1000.0 Hz, half the chirp rate of {cube}\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["spectrogram", "ra"])
    @pytest.mark.parametrize("config, problem", [
        ("range_bin_end = 64\n", "range_bin_end = 64 must sit below 64, the number of range bins"),
        ("window_length = 8192\nfft_length = 8192\n",
         "window_length = 8192 must not exceed 1024, the number of chirps"),
    ], ids=["range_bin_end", "window_length"])
    def test_other_keys_exit_two_naming_key_value_and_limit(self, workdir, tmp_path, capsys,
                                                            command, config, problem):
        """Every config value the cube cannot hold exits 2 naming both files."""
        cfg = tmp_path / "p.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        out.mkdir()
        cube = workdir / "cube.iq"
        assert cli.main([command, str(cube), str(cfg), str(out / "x.bin")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {problem} of {cube}\n"
        assert list(out.iterdir()) == []


class TestConfigOutOfRange:
    @staticmethod
    def exits_two_unread(workdir, tmp_path, capsys, monkeypatch, command, coherent, cutoff):
        """``command`` on the 2 kHz cube with ``notch_cutoff = cutoff`` exits 2 naming the
        key, its value and the chirp rate, before a chunk is read and writing nothing."""
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"notch_cutoff = {cutoff}\ncoherent = {coherent}\n")
        out = tmp_path / "out"
        out.mkdir()
        cube = workdir / "cube.iq"

        def unread(reader):
            pytest.fail("a chunk was read")
            yield

        monkeypatch.setattr(ingest.CubeReader, "__iter__", unread)
        assert cli.main([command, str(cube), str(cfg), str(out / "x.bin")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: notch_cutoff = {float(cutoff)!r} Hz rounds a pole of the order-4 "
            f"high-pass onto or too near z = 1 for a step state that cancels a constant at "
            f"2000.0 Hz, the chirp rate of {cube}\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["spectrogram", "ra"])
    @pytest.mark.parametrize("coherent", ["true", "false"])
    def test_low_cutoff_exits_two_before_reading_the_cube(self, workdir, tmp_path, capsys,
                                                          monkeypatch, command, coherent):
        """At the 2 kHz chirp rate a 1e-6 Hz cutoff rounds a pole onto z = 1, so the
        high-pass has no step state; that is known before any chirp is read."""
        self.exits_two_unread(workdir, tmp_path, capsys, monkeypatch, command, coherent, "1e-6")

    @pytest.mark.parametrize("command", ["spectrogram", "ra"])
    @pytest.mark.parametrize("coherent", ["true", "false"])
    @pytest.mark.parametrize("cutoff", ["8e-6", "5e-6", "4e-6"])
    def test_step_state_that_passes_a_constant_exits_two(self, workdir, tmp_path, capsys,
                                                         monkeypatch, command, coherent, cutoff):
        """At 2 kHz these cutoffs keep their poles off z = 1, but the rounded step state
        passes 0.2, 0.5 and 1.0 of a constant unit row, above STEP_RESIDUAL."""
        self.exits_two_unread(workdir, tmp_path, capsys, monkeypatch, command, coherent, cutoff)

    @pytest.mark.parametrize("source", ["spec.bin", "cube.iq"])
    @pytest.mark.parametrize("floor", ["1", "10", "1e300"])
    def test_log_floor_of_one_or_above_exits_two(self, workdir, tmp_path, capsys, source, floor):
        """Such a floor clips every cell to one level: e(f) is flat and its corner noise."""
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"log_floor = {floor}\n")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["ra", str(workdir / source), str(cfg), str(out / "x.bin")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: log_floor must lie in (0, 1), got {float(floor)!r}\n")
        assert list(out.iterdir()) == []

    def test_filter_count_names_its_source(self, workdir, tmp_path, capsys):
        """The 256-bin axis takes at most 258 filters; a larger M names the flag, or the
        config key it came from."""
        cfg = tmp_path / "p.cfg"
        cfg.write_text("num_filters = 300\n")
        out = tmp_path / "out"
        out.mkdir()
        spec = str(workdir / "spec.bin")
        assert cli.main(["ra", spec, str(cfg), str(out / "x.bin")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: num_filters = 300: M = 300 ")
        assert cli.main(["ra", spec, str(cfg), str(out / "x.bin"), "--M", "400"]) == 2
        assert capsys.readouterr().err.startswith("error: --M 400: M = 400 ")
        assert list(out.iterdir()) == []

    def test_degenerate_spectrogram_names_its_source(self, workdir, tmp_path, capsys):
        """Four bins leave no room for a corner: the error names the config and cube the
        spectrogram came from."""
        cfg = tmp_path / "p.cfg"
        cfg.write_text("fft_length = 4\nwindow_length = 4\nhop = 4\nnum_filters = 2\n")
        out = tmp_path / "out"
        out.mkdir()
        cube = workdir / "cube.iq"
        assert cli.main(["ra", str(cube), str(cfg), str(out / "x.bin")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg} on {cube}: energy profile needs at least 5 bins\n")
        assert list(out.iterdir()) == []


class TestNonFiniteParams:
    def test_cube_meta_exits_two_naming_the_key(self, workdir, tmp_path, capsys):
        shutil.copyfile(workdir / "cube.iq", tmp_path / "cube.iq")
        meta = (workdir / "cube.meta").read_text()
        assert "sample_rate = 2000000.0" in meta
        (tmp_path / "cube.meta").write_text(meta.replace("sample_rate = 2000000.0",
                                                         "sample_rate = nan"))
        out = tmp_path / "spec.bin"
        assert cli.main(["spectrogram", str(tmp_path / "cube.iq"),
                         str(workdir / "pipeline.cfg"), str(out)]) == 2
        assert "sample_rate must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_exits_two_naming_the_key(self, workdir, tmp_path, capsys):
        scene = (workdir / "scene.scn").read_text()
        assert "sample_rate = 2000000.0" in scene
        path = tmp_path / "bad.scn"
        path.write_text(scene.replace("sample_rate = 2000000.0", "sample_rate = nan"))
        assert cli.main(["simulate", str(path), str(tmp_path / "c.iq")]) == 2
        assert "sample_rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "c.iq").exists()

    @pytest.mark.parametrize("old, new, name", [
        ("{base_range: 2.0,", "{base_range: nan,", "ScattererSpec.base_range"),
        ("noise_power = 0.0001", "noise_power = inf", "Scenario.noise_power"),
    ])
    def test_scenario_field_exits_two_before_rendering(self, workdir, tmp_path, capsys,
                                                       monkeypatch, old, new, name):
        scene = (workdir / "scene.scn").read_text()
        assert old in scene
        path = tmp_path / "bad.scn"
        path.write_text(scene.replace(old, new, 1))

        def no_render(scenario):
            raise AssertionError("rendered a scenario with a non-finite field")

        monkeypatch.setattr(simulator, "chirp_blocks", no_render)
        assert cli.main(["simulate", str(path), str(tmp_path / "c.iq")]) == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "c.iq").exists()


class TestBadScenarioValues:
    @pytest.mark.parametrize("old, new, named", [
        ("num_chirps = 1024", "num_chirps = 1.5", "key 'num_chirps': cannot parse '1.5' as int"),
        ("noise_power = 0.0001", "noise_power = lots",
         "key 'noise_power': cannot parse 'lots' as float"),
        ("seed = 1234", "seed = -3", "Scenario.seed must be non-negative, got -3"),
    ])
    def test_exits_two_naming_the_key_before_rendering(self, workdir, tmp_path, capsys,
                                                       monkeypatch, old, new, named):
        scene = (workdir / "scene.scn").read_text()
        assert old in scene
        path = tmp_path / "bad.scn"
        path.write_text(scene.replace(old, new))
        monkeypatch.setattr(simulator, "chirp_blocks", lambda scenario: pytest.fail("rendered"))
        assert cli.main(["simulate", str(path), str(tmp_path / "c.iq")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "c.iq").exists()


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A 256-chirp scene, its cube and the default config, all runnable."""
    root = tmp_path_factory.mktemp("fuzz")
    scenario = preset("limp_like")
    scenario = dataclasses.replace(
        scenario, params=dataclasses.replace(scenario.params, num_chirps=256))
    save_scenario(scenario, root / "scene.scn")
    write_config(PipelineConfig(), root / "pipeline.cfg")
    assert cli.main(["simulate", str(root / "scene.scn"), str(root / "cube.iq")]) == 0
    return root


GARBLE = st.text(alphabet="xyz!?@%", min_size=1, max_size=6)


class TestKeyValueFuzz:
    """One broken key in a scenario, cube sidecar or config: exit 0 or 2, never 1."""

    @settings(max_examples=120, deadline=None)
    @given(target=st.sampled_from(["scene.scn", "cube.meta", "pipeline.cfg"]),
           line=st.integers(0, 63),
           mutation=st.sampled_from(["drop", "duplicate", "garble", "unknown", "nan", "inf"]),
           garble=GARBLE)
    def test_exit_code_and_message(self, fuzz_base, target, line, mutation, garble):
        lines = (fuzz_base / target).read_text().splitlines()
        index = line % len(lines)
        key = lines[index].partition("=")[0].strip()
        named = {"drop": key, "duplicate": key, "unknown": f"unknown_{garble}",
                 "garble": garble, "nan": "nan", "inf": "inf"}[mutation]
        if mutation == "drop":
            del lines[index]
        elif mutation == "duplicate":
            lines.append(lines[index])
        elif mutation == "unknown":
            lines.append(f"{named} = 1")
        else:
            lines[index] = f"{key} = {named}"

        with tempfile.TemporaryDirectory(dir=fuzz_base) as tmp:
            work = Path(tmp)
            for name in ("scene.scn", "cube.iq", "cube.meta", "pipeline.cfg"):
                shutil.copyfile(fuzz_base / name, work / name)
            (work / target).write_text("\n".join(lines) + "\n")
            command, out = {
                "scene.scn": ("simulate scene.scn", "out.iq"),
                "cube.meta": ("spectrogram cube.iq pipeline.cfg", "out.bin"),
                "pipeline.cfg": ("ra cube.iq pipeline.cfg", "out.bin"),
            }[target]
            sub, *paths = command.split() + [out]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([sub] + [str(work / name) for name in paths])
            assert code in (0, 2), err.getvalue()
            if code == 2:
                assert key in err.getvalue() or named in err.getvalue(), err.getvalue()
            else:
                assert (work / out).exists() and (work / (out + ".manifest")).exists()


class TestCorruptCube:
    @pytest.fixture(params=["nan_in_later_block", "truncated"])
    def bad_cube(self, request, workdir, tmp_path, monkeypatch):
        # 1024 chirps in reads of 256, so the NaN at chirp 700 sits in the third read
        monkeypatch.setattr(ingest, "CHIRP_SLICE", 256)
        raw = np.fromfile(workdir / "cube.iq", dtype="<f4")
        if request.param == "nan_in_later_block":
            raw[2 * DEFAULT_PARAMS.num_fast_samples * 700] = np.nan
            message = "payload contains non-finite samples"
        else:
            raw = raw[:-2]
            message = "payload holds"
        path = tmp_path / "cube" / "bad.iq"
        path.parent.mkdir()
        raw.tofile(path)
        shutil.copyfile(workdir / "cube.meta", path.with_suffix(".meta"))
        return path, message

    @pytest.mark.parametrize("command", ["spectrogram", "ra"])
    def test_exits_two_and_writes_nothing(self, bad_cube, workdir, tmp_path, capsys, command):
        path, message = bad_cube
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), str(workdir / "pipeline.cfg"),
                         str(out / "x.bin")]) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestCubeReadFuzz:
    """A cube of 2 to 9000 chirps, whole, with a NaN or cut short: spectrogram and ra
    from it, in both modes, exit 0 with the bytes of the in-memory API or exit 2
    naming the cause and leaving nothing behind, never 1."""

    @settings(max_examples=40, deadline=None)
    @given(chirps=st.integers(2, 9000), fault=st.sampled_from([None, "nan", "truncated"]),
           where=st.integers(0, 8999), cut=st.integers(1, 2048))
    def test_exit_code_and_output(self, dwell, chirps, fault, where, cut):
        from radoppler.errors import RadopplerError
        from radoppler.ra_core import ra_transform, save_ra_spectrogram
        samples = 2 * DEFAULT_PARAMS.num_fast_samples
        assert f"num_fast_samples = {DEFAULT_PARAMS.num_fast_samples}\n" in (
            dwell.with_suffix(".meta").read_text())
        raw = np.fromfile(dwell, dtype="<f4", count=samples * chirps)
        if fault == "nan":
            raw[samples * (where % chirps)] = np.nan
        payload = raw.tobytes()[:-cut] if fault == "truncated" else raw.tobytes()
        with tempfile.TemporaryDirectory(dir=dwell.parent) as tmp:
            work = Path(tmp)
            cube = work / "cube.iq"
            cube.write_bytes(payload)
            cube.with_suffix(".meta").write_text(dwell.with_suffix(".meta").read_text().replace(
                "num_chirps = 30000\n", f"num_chirps = {chirps}\n"))
            for coherent in (True, False):
                cfg = PipelineConfig(coherent=coherent)
                write_config(cfg, work / "p.cfg")
                api, expected, error = work / f"api_{coherent}", {}, None
                api.mkdir()
                try:
                    spec = spectrogram_from_cube(load_radar_cube(cube), cfg)
                    expected["spectrogram"] = save_spectrogram(spec, api / "spec.bin")
                    expected["ra"] = save_ra_spectrogram(
                        ra_transform(spec, cfg.num_filters, cfg.log_floor), api / "ra.bin")
                except (RadopplerError, ValueError) as exc:
                    error = str(exc)
                for command in ("spectrogram", "ra"):
                    out = work / f"{command}_{coherent}"
                    out.mkdir()
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = cli.main([command, str(cube), str(work / "p.cfg"),
                                         str(out / "x.bin")])
                    err = err.getvalue()
                    if command in expected:
                        assert code == 0, err
                        assert sorted(f.name for f in out.iterdir()) == [
                            "x.bin", "x.bin.manifest", "x.bin.meta"]
                        for suffix in ("", ".meta"):
                            assert (Path(f"{out / 'x.bin'}{suffix}").read_bytes()
                                    == Path(f"{expected[command]}{suffix}").read_bytes())
                        continue
                    # staged .part-* outputs and the spill live in the output's directory
                    assert code == 2, err
                    assert list(out.iterdir()) == [], err
                    assert (str(cube) in err) if fault else (error in err), err


@pytest.fixture(scope="module")
def matrix_fuzz_base(fuzz_base, tmp_path_factory):
    """The fuzz cube's spectrogram as bin and csv and its RA matrix, with sidecars."""
    root = tmp_path_factory.mktemp("matrix_fuzz")
    cfg = str(fuzz_base / "pipeline.cfg")
    shutil.copyfile(cfg, root / "pipeline.cfg")
    for argv in (["spectrogram", fuzz_base / "cube.iq", cfg, root / "spec.bin"],
                 ["spectrogram", fuzz_base / "cube.iq", cfg, root / "spec.csv", "--format", "csv"],
                 ["ra", root / "spec.bin", cfg, root / "ra.bin"]):
        assert cli.main([str(a) for a in argv]) == 0, argv
    return root


MATRIX_FILES = ["spec.bin", "spec.csv", "ra.bin"]
# subcommand, inputs, output
MATRIX_COMMANDS = ["ra spec.bin pipeline.cfg x.bin", "ra spec.csv pipeline.cfg x.bin",
                   "track spec.bin x.csv", "track ra.bin x.csv", "track spec.csv x.csv"]


class TestMatrixInputFuzz:
    """A spectrogram or RA matrix, or its sidecar, cut short, with a byte flipped or with
    a line edited: ra and track on it exit 0 or 2, never 1; an exit 2 leaves no output
    or staged .part-* file, and no run leaves a file open (a ResourceWarning fails)."""

    @seed(23)
    @settings(max_examples=120, deadline=None)
    @given(target=st.sampled_from(MATRIX_FILES + [f"{name}.meta" for name in MATRIX_FILES]),
           mutation=st.sampled_from(["truncate", "flip", "drop", "duplicate", "garble"]),
           where=st.integers(0, 1 << 20), flip=st.integers(1, 255), garble=GARBLE)
    def test_exit_code_and_leftovers(self, matrix_fuzz_base, target, mutation, where, flip,
                                     garble):
        data = bytearray((matrix_fuzz_base / target).read_bytes())
        if mutation == "truncate":
            del data[where % len(data):]
        elif mutation == "flip":
            data[where % len(data)] ^= flip
        else:
            lines = bytes(data).split(b"\n")
            index = where % len(lines)
            if mutation == "drop":
                del lines[index]
            elif mutation == "duplicate":
                lines.insert(index, lines[index])
            else:
                key, equals, _ = lines[index].partition(b"=")
                lines[index] = key + equals + garble.encode()
            data = bytearray(b"\n".join(lines))

        with tempfile.TemporaryDirectory(dir=matrix_fuzz_base.parent) as tmp:
            inputs = shutil.copytree(matrix_fuzz_base, Path(tmp) / "in")
            (inputs / target).write_bytes(data)
            for k, line in enumerate(MATRIX_COMMANDS):
                command, *names, output = line.split()
                out = Path(tmp) / f"out{k}"
                out.mkdir()
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main([command] + [str(inputs / n) for n in names]
                                    + [str(out / output)])
                assert code in (0, 2), (line, err.getvalue())
                left = sorted(f.name for f in out.iterdir())
                if code == 2:
                    assert left == [], (line, err.getvalue())
                else:
                    assert not any(name.startswith(".part-") for name in left), left
                    assert f"{output}.manifest" in left, left


@pytest.fixture(scope="module")
def config_fuzz_cube(tmp_path_factory):
    """A 2000-chirp walk_like cube: 64 range bins at a 2 kHz chirp rate."""
    root = tmp_path_factory.mktemp("config_fuzz")
    scenario = preset("walk_like")
    scenario = dataclasses.replace(
        scenario, params=dataclasses.replace(scenario.params, num_chirps=2000))
    save_scenario(scenario, root / "scene.scn")
    assert cli.main(["simulate", str(root / "scene.scn"), str(root / "cube.iq")]) == 0
    return root / "cube.iq"


def rarely(draw, drawn, *values):
    """A value of the strategy ``drawn``, or one time in eight one of ``values``."""
    return draw(st.sampled_from(values)) if draw(st.sampled_from(range(8))) == 7 else draw(drawn)


def log_uniform(low, high):
    """Floats from 10**low to 10**high, uniform in their exponent."""
    return st.floats(low, high).map(lambda exponent: 10.0**exponent)


@st.composite
def config_keys(draw):
    """PipelineConfig keys that mostly fit together and the cube, each reaching its
    extremes: range bins up to 70 of 64, windows, hops and FFT lengths up to 1024,
    cutoffs from 1e-9 Hz to the 1 kHz Nyquist limit and floors up to 10."""
    fft_length = rarely(draw, st.integers(1, 512).map(lambda half: 2 * half), 1023)
    window_length = rarely(draw, st.integers(1, fft_length), 2048)
    range_bin_end = draw(st.integers(0, 70))
    return {
        "range_bin_start": draw(st.integers(0, range_bin_end)),
        "range_bin_end": range_bin_end,
        "window_kind": draw(st.sampled_from(["hann", "hamming", "rect"])),
        "window_length": window_length,
        "hop": draw(st.integers(1, min(window_length, 1024))),
        "fft_length": fft_length,
        "notch_cutoff": rarely(draw, log_uniform(-9, 3), 1e-9, 1e-6, 3e-6),
        "notch_order": rarely(draw, st.sampled_from([2, 4, 6, 8]), 3),
        "num_filters": rarely(draw, st.integers(2, 64), 300, 1000),
        "log_floor": rarely(draw, log_uniform(-300, -0.01), 1.0, 10.0),
        "coherent": draw(st.booleans()),
    }


@st.composite
def ra_flags(draw):
    """--M and --force-fc (Hz), each left out half the time."""
    flags = {"--M": rarely(draw, st.integers(2, 64), 300, 1000),
             "--force-fc": rarely(draw, st.floats(0.0, 1000.0), -5.0, 1200.0)}
    return {flag: value for flag, value in flags.items() if draw(st.booleans())}


class TestConfigFuzz:
    """A generated config, --M and --force-fc: spectrogram and ra on a cube exit 0 or 2,
    never 1. An exit 2 names the config file, a config key or the flag and leaves no
    output or staged .part-* file; an exit 0 leaves every output with its manifest."""

    @seed(24)
    @settings(max_examples=300, deadline=None)
    @given(keys=config_keys(), flags=ra_flags())
    def test_exit_code_and_outputs(self, config_fuzz_cube, keys, flags):
        with tempfile.TemporaryDirectory(dir=config_fuzz_cube.parent) as tmp:
            cfg = Path(tmp) / "p.cfg"
            cfg.write_text(ingest.format_kv(keys.items()))
            for command, extra in (("spectrogram", {}), ("ra", flags)):
                out = Path(tmp) / command
                out.mkdir()
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    # --flag=value: argparse takes "-1e-05" after a space for an option
                    code = exit_code([command, str(config_fuzz_cube), str(cfg), str(out / "x.bin")]
                                     + [f"{flag}={value!r}" for flag, value in extra.items()])
                err = err.getvalue()
                assert code in (0, 2), (command, err)
                event(f"{command} exit {code}")
                left = sorted(f.name for f in out.iterdir())
                if code == 2:
                    assert left == [], (command, err)
                    assert any(name in err for name in [str(cfg), *keys, *extra]), (command, err)
                else:
                    assert left == ["x.bin", "x.bin.manifest", "x.bin.meta"], left


class TestDiagnostics:
    def test_internal_error_exits_one(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(simulator, "chirp_blocks",
                            lambda scenario: (_ for _ in ()).throw(RuntimeError("boom")))
        code = cli.main(["simulate", str(workdir / "scene.scn"), str(tmp_path / "c.iq")])
        assert code == 1
        assert "internal error: boom" in capsys.readouterr().err

    def test_info_logging_goes_to_stderr(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RADOPPLER_LOG", "info")
        assert cli.main(["track", str(workdir / "spec.bin"), str(tmp_path / "t.csv")]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert "wrote" in err

    def test_info_lines_exact(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RADOPPLER_LOG", "info")
        out = tmp_path / "t.csv"
        assert cli.main(["track", str(workdir / "spec.bin"), str(out)]) == 0
        frames = load_spectrogram(workdir / "spec.bin").num_frames
        assert capsys.readouterr().err.splitlines() == [
            f"radoppler: INFO: wrote {out} ({frames} frames, axis doppler_hz)",
            f"radoppler: INFO: wrote {out}.manifest",
        ]

    def test_debug_prints_traceback_on_internal_error(self, workdir, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.setenv("RADOPPLER_LOG", "debug")
        monkeypatch.setattr(simulator, "chirp_blocks",
                            lambda scenario: (_ for _ in ()).throw(RuntimeError("boom")))
        assert cli.main(["simulate", str(workdir / "scene.scn"), str(tmp_path / "c.iq")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("radoppler: DEBUG: unexpected failure\n"
                              "Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: boom\ninternal error: boom\n")

    def test_unknown_level_stays_quiet(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RADOPPLER_LOG", "verbose")
        assert cli.main(["track", str(workdir / "spec.bin"), str(tmp_path / "t.csv")]) == 0
        assert capsys.readouterr() == ("", "")

    def test_quiet_by_default(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("RADOPPLER_LOG", raising=False)
        assert cli.main(["track", str(workdir / "spec.bin"), str(tmp_path / "t.csv")]) == 0
        out, err = capsys.readouterr()
        assert out == "" and err == ""

    def test_manifest_stable_modulo_timestamp(self, workdir, tmp_path):
        out = tmp_path / "spec2.bin"
        assert cli.main(["spectrogram", str(workdir / "cube.iq"),
                         str(workdir / "pipeline.cfg"), str(out)]) == 0

        def stripped(path):
            return [ln for ln in path.read_text().splitlines()
                    if not ln.startswith("timestamp") and str(tmp_path) not in ln
                    and str(workdir) not in ln]

        first = stripped(workdir / "spec.bin.manifest")
        second = stripped(tmp_path / "spec2.bin.manifest")
        assert first == second


class TestOutputOverwritesInput:
    """An output that resolves to an input exits 2 naming both, before any write."""

    def test_track_onto_its_matrix(self, workdir, tmp_path, capsys):
        spec = tmp_path / "spec.bin"
        for name in ("spec.bin", "spec.bin.meta"):
            shutil.copyfile(workdir / name, tmp_path / name)
        digest = hashlib.sha256(spec.read_bytes()).hexdigest()
        assert cli.main(["track", str(spec), str(spec)]) == 2
        assert capsys.readouterr().err == f"error: output {spec} would overwrite input {spec}\n"
        assert hashlib.sha256(spec.read_bytes()).hexdigest() == digest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.bin", "spec.bin.meta"]

    def test_spectrogram_sidecar_onto_cube_meta(self, workdir, tmp_path, capsys):
        for name in ("cube.iq", "cube.meta"):
            shutil.copyfile(workdir / name, tmp_path / name)
        meta = tmp_path / "cube.meta"
        before = meta.read_bytes()
        assert cli.main(["spectrogram", str(tmp_path / "cube.iq"), str(workdir / "pipeline.cfg"),
                         str(tmp_path / "cube")]) == 2
        assert capsys.readouterr().err == f"error: output {meta} would overwrite input {meta}\n"
        assert meta.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cube.iq", "cube.meta"]

    def test_paths_are_compared_resolved(self, workdir, tmp_path, capsys):
        link = tmp_path / "link.bin"
        link.symlink_to(workdir / "spec.bin")
        out = tmp_path / "sub" / ".." / "link.bin"
        assert cli.main(["ra", str(workdir / "spec.bin"), str(workdir / "pipeline.cfg"),
                         str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: output {out} would overwrite input {workdir / 'spec.bin'}\n"
        assert list(tmp_path.iterdir()) == [link]

    def test_output_hard_linked_to_its_input(self, workdir, tmp_path):
        """An output that is another name of an input's file is renamed over, not written
        through: ra reads spec.bin while it writes, and the input keeps its bytes and the
        manifest its digest."""
        for name in ("spec.bin", "spec.bin.meta"):
            shutil.copyfile(workdir / name, tmp_path / name)
        spec, out = tmp_path / "spec.bin", tmp_path / "ra.bin"
        before = spec.read_bytes()
        os.link(spec, out)
        assert cli.main(["ra", str(spec), str(workdir / "pipeline.cfg"), str(out)]) == 0
        assert spec.read_bytes() == before
        assert out.read_bytes() == (workdir / "ra.bin").read_bytes()
        inputs = [v for k, v in parse_kv((tmp_path / "ra.bin.manifest").read_text())
                  if k == "input"]
        assert inputs[0] == f"{spec} sha256:{hashlib.sha256(before).hexdigest()}"

    def test_simulate_onto_its_scenario(self, workdir, tmp_path, capsys):
        scene = tmp_path / "c.meta"
        shutil.copyfile(workdir / "scene.scn", scene)
        assert cli.main(["simulate", str(scene), str(tmp_path / "c.iq")]) == 2
        assert capsys.readouterr().err == f"error: output {scene} would overwrite input {scene}\n"
        assert list(tmp_path.iterdir()) == [scene]


RUN_JOBS = "\n".join([
    "import json, os, sys",
    "assert 'numpy' not in sys.modules",
    "from radoppler.cli import main",
    "for cwd, argv in json.loads(sys.argv[1]):",
    "    os.chdir(cwd)",
    "    assert main(argv) == 0, argv",
])


@pytest.fixture(scope="module")
def blas_runs(tmp_path_factory):
    """spectrogram, ra from the cube and ra from spec.bin on the four presets in both
    modes, run three ways: a fresh CLI process (one BLAS thread), the same under a
    caller-set OPENBLAS_NUM_THREADS=2, and in this process (BLAS as numpy loaded it)."""
    root = tmp_path_factory.mktemp("blas")
    inputs = root / "inputs"
    inputs.mkdir()
    write_config(PipelineConfig(), inputs / "coherent.cfg")
    write_config(PipelineConfig(coherent=False), inputs / "noncoherent.cfg")
    cases = []
    for name in simulator.PRESET_NAMES:
        cube = write_radar_cube(synthesize(preset(name)), inputs / f"{name}.iq")
        for mode in ("coherent", "noncoherent"):
            cfg = str(inputs / f"{mode}.cfg")
            cases.append((f"{name}-{mode}", [["spectrogram", str(cube), cfg, "spec.bin"],
                                             ["ra", str(cube), cfg, "ra_cube.bin"],
                                             ["ra", "spec.bin", cfg, "ra_spec.bin"]]))

    def jobs(variant):
        out = []
        for case, commands in cases:
            (root / variant / case).mkdir(parents=True)
            out += [(str(root / variant / case), argv) for argv in commands]
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("OPENBLAS_NUM_THREADS", raising=False)
        done = run_python("-c", RUN_JOBS, json.dumps(jobs("pinned")), cwd=root)
        assert done.returncode == 0, done.stderr
        mp.setenv("OPENBLAS_NUM_THREADS", "2")
        done = run_python("-c", RUN_JOBS, json.dumps(jobs("caller_two")), cwd=root)
        assert done.returncode == 0, done.stderr
        mp.delenv("OPENBLAS_NUM_THREADS")
        for cwd, argv in jobs("in_process"):
            mp.chdir(cwd)
            assert cli.main(argv) == 0, argv
    return root


class TestBlasThreadCount:
    @pytest.mark.parametrize("variant", ["caller_two", "in_process"])
    def test_outputs_match_the_pinned_process(self, blas_runs, variant):
        pinned = sorted(p.relative_to(blas_runs / "pinned")
                        for p in (blas_runs / "pinned").rglob("*") if p.is_file())
        other = sorted(p.relative_to(blas_runs / variant)
                       for p in (blas_runs / variant).rglob("*") if p.is_file())
        assert other == pinned and len(pinned) == 8 * 9
        for rel in pinned:
            a, b = (blas_runs / "pinned" / rel).read_bytes(), (blas_runs / variant / rel).read_bytes()
            if rel.suffix == ".manifest":
                a, b = ([ln for ln in x.splitlines() if not ln.startswith(b"timestamp = ")]
                        for x in (a, b))
            assert a == b, rel

    def test_input_digests_hash_the_files(self, blas_runs):
        manifests = sorted(blas_runs.rglob("*.manifest"))
        assert len(manifests) == 3 * 8 * 3
        for manifest in manifests:
            lines = [v for k, v in parse_kv(manifest.read_text()) if k == "input"]
            assert len(lines) == 3
            for line in lines:
                path, _, digest = line.rpartition(" sha256:")
                data = (manifest.parent / path).read_bytes()
                assert digest == hashlib.sha256(data).hexdigest(), (manifest, path)


BLAS_THREADS = "\n".join([
    "import ctypes, re",
    "def blas_threads():",
    "    maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''",
    r"    for lib in sorted(set(re.findall(r'(/\S*openblas\S*\.so\S*)', maps))):",
    "        handle = ctypes.CDLL(lib)",
    "        for symbol in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',",
    "                       'openblas_get_num_threads'):",
    "            if hasattr(handle, symbol):",
    "                return getattr(handle, symbol)()",
])


class TestHashThread:
    """The input hash runs beside the stage and never outlives cli.main."""

    @staticmethod
    def main_leaving_no_thread(argv):
        before = set(threading.enumerate())
        code = cli.main(argv)
        assert set(threading.enumerate()) == before
        return code

    def test_success(self, workdir, tmp_path):
        out = tmp_path / "spec.bin"
        assert self.main_leaving_no_thread(["spectrogram", str(workdir / "cube.iq"),
                                            str(workdir / "pipeline.cfg"), str(out)]) == 0
        assert manifest_of(out)["command"] == "spectrogram"

    def test_config_mismatch_stops_the_hash_within_one_chunk(self, dwell, tmp_path, capsys,
                                                             monkeypatch):
        results = []

        def sha256_after_stop(path, stop):
            assert stop.wait(10)  # set only once the stage has raised
            results.append(cli_sha256(path, stop))
            return results[-1]

        cli_sha256 = cli._sha256
        monkeypatch.setattr(cli, "_sha256", sha256_after_stop)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("range_bin_end = 64\n")
        out = tmp_path / "out"
        out.mkdir()
        assert self.main_leaving_no_thread(["spectrogram", str(dwell), str(cfg),
                                            str(out / "spec.bin")]) == 2
        assert "range_bin_end = 64" in capsys.readouterr().err
        assert results == [None]  # the cube's hash gave up, and no later input was hashed
        assert list(out.iterdir()) == []

    def test_input_vanishing_mid_run_exits_two_naming_it(self, workdir, tmp_path, capsys,
                                                         monkeypatch):
        from radoppler import linspec
        for name in ("cube.iq", "cube.meta"):
            shutil.copyfile(workdir / name, tmp_path / name)
        cube = tmp_path / "cube.iq"
        stage_done = threading.Event()
        cli_sha256, stage = cli._sha256, linspec.open_cube_spectrogram

        def sha256_after_stage(path, stop):
            assert stage_done.wait(10)
            return cli_sha256(path, stop)

        def stage_then_delete(path, cfg):
            spec = stage(path, cfg)
            cube.unlink()
            stage_done.set()
            return spec

        monkeypatch.setattr(cli, "_sha256", sha256_after_stage)
        monkeypatch.setattr(linspec, "open_cube_spectrogram", stage_then_delete)
        out = tmp_path / "out"
        out.mkdir()
        assert self.main_leaving_no_thread(["spectrogram", str(cube),
                                            str(workdir / "pipeline.cfg"),
                                            str(out / "spec.bin")]) == 2
        assert capsys.readouterr().err == (f"error: cannot hash input {cube}: "
                                           f"No such file or directory\n")
        assert list(out.iterdir()) == []

    def test_set_stop_gives_no_digest(self, workdir):
        stop = threading.Event()
        digest = hashlib.sha256((workdir / "cube.iq").read_bytes()).hexdigest()
        assert cli._sha256(workdir / "cube.iq", stop) == digest
        stop.set()
        assert cli._sha256(workdir / "cube.iq", stop) is None

    def test_fresh_import_pins_blas_and_removes_the_variable(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        code = "\n".join(["import os, sys", BLAS_THREADS, "import radoppler.cli",
                          "print('OPENBLAS_NUM_THREADS' in os.environ, blas_threads())"])
        done = run_python("-c", code, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() in (["False", "1"], ["False", "None"])

    @pytest.mark.parametrize("first, env", [
        ("import radoppler.cli", "2"),  # a caller-set value survives
        ("import numpy, radoppler.cli", None),  # numpy loaded first keeps its threading
    ], ids=["caller_set", "numpy_first"])
    def test_caller_keeps_its_blas_threading(self, tmp_path, monkeypatch, first, env):
        if env is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", env)
        report = "print(os.environ.get('OPENBLAS_NUM_THREADS'), blas_threads())"
        plain = run_python("-c", "\n".join(["import os, sys", BLAS_THREADS, "import numpy",
                                            report]), cwd=tmp_path)
        done = run_python("-c", "\n".join(["import os, sys", BLAS_THREADS, first, report]),
                          cwd=tmp_path)
        assert done.returncode == 0 and plain.returncode == 0, done.stderr + plain.stderr
        assert done.stdout == plain.stdout
        assert done.stdout.split()[0] == str(env)


EDGE_FRAMES = (1, 127, 128, 129, 255, 256, 257, 511, 512, 513)
EDGE_CFG = dict(window_length=64, hop=4, fft_length=128, num_filters=16)


@pytest.fixture(scope="module")
def edge_cubes(tmp_path_factory):
    """limp_like cubes whose spectrograms hold 1 to 513 frames, around the FRAME_BLOCK
    and REBIN_BLOCK edges, and a config file per mode."""
    root = tmp_path_factory.mktemp("edges")
    scene = preset("limp_like")
    chirps = EDGE_CFG["window_length"] + EDGE_CFG["hop"] * (max(EDGE_FRAMES) - 1)
    params = dataclasses.replace(scene.params, num_chirps=chirps)
    cube = synthesize(dataclasses.replace(scene, params=params))
    for frames in EDGE_FRAMES:
        count = EDGE_CFG["window_length"] + EDGE_CFG["hop"] * (frames - 1)
        part = RadarCube(params=dataclasses.replace(params, num_chirps=count),
                         samples=cube.samples[:, :count])
        write_radar_cube(part, root / f"cube{frames}.iq")
    for mode in ("coherent", "noncoherent"):
        write_config(PipelineConfig(coherent=mode == "coherent", **EDGE_CFG),
                     root / f"{mode}.cfg")
    return root


def output_digests_hash_their_files(directory):
    """Every manifest output line in ``directory`` names its file's SHA-256."""
    manifests = sorted(directory.glob("*.manifest"))
    assert manifests
    for manifest in manifests:
        outputs = [v for k, v in parse_kv(manifest.read_text()) if k == "output"]
        assert outputs, manifest
        for line in outputs:
            path, _, digest = line.rpartition(" sha256:")
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest(), line


class TestStreamedOutputs:
    """The CLI writes its spectrogram and RA matrices a frame block at a time through the
    API's savers and hashes the staged files; the bytes equal the API's save of the
    in-memory result."""

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("mode", ["coherent", "noncoherent"])
    @pytest.mark.parametrize("frames", EDGE_FRAMES)
    def test_same_bytes_as_the_api(self, edge_cubes, tmp_path, frames, mode, fmt):
        from radoppler.ra_core import load_ra_spectrogram, ra_transform, save_ra_spectrogram
        from radoppler.tracker import track_signature, write_track_csv
        cube, cfg_path = edge_cubes / f"cube{frames}.iq", edge_cubes / f"{mode}.cfg"
        cfg = ingest.load_config(cfg_path)
        out, api = tmp_path / "cli", tmp_path / "api"
        out.mkdir()
        api.mkdir()
        spec_name, ra_name = f"spec.{fmt}", f"ra.{fmt}"
        for argv in (["spectrogram", cube, cfg_path, out / spec_name, "--format", fmt],
                     ["ra", cube, cfg_path, out / ra_name, "--format", fmt],
                     ["ra", out / spec_name, cfg_path, out / f"ra_spec.{fmt}", "--format", fmt],
                     ["track", out / spec_name, out / "track_spec.csv"],
                     ["track", out / ra_name, out / "track_ra.csv"]):
            assert cli.main([str(a) for a in argv]) == 0, argv

        spec = spectrogram_from_file(cube, cfg)
        assert spec.num_frames == frames
        save_spectrogram(spec, api / spec_name, format=fmt)
        ra = ra_transform(spec, num_filters=cfg.num_filters, floor=cfg.log_floor)
        save_ra_spectrogram(ra, api / ra_name, format=fmt)
        for matrix, axis, name, kind in (
                (spec.power, spec.freq_axis, "track_spec.csv", "doppler_hz"),
                (ra.power, ra.warped_axis_hz(), "track_ra.csv", "ra_center_hz")):
            track = track_signature(matrix, axis, spec.time_axis)
            write_track_csv(track, api / name, axis_kind=kind)

        pairs = [(spec_name, spec_name), (ra_name, ra_name), (f"ra_spec.{fmt}", ra_name),
                 ("track_spec.csv", "track_spec.csv"), ("track_ra.csv", "track_ra.csv")]
        pairs += [(a + ".meta", b + ".meta") for a, b in pairs[:3]]
        for cli_name, api_name in pairs:
            assert (out / cli_name).read_bytes() == (api / api_name).read_bytes(), cli_name
        np.testing.assert_array_equal(load_ra_spectrogram(out / ra_name).power, ra.power)
        output_digests_hash_their_files(out)


class TestFailedRunLeavesNoTrace:
    """Each output is written under a temporary name and renamed into place only when
    the run is whole: a failure after the first written block leaves the output
    directory as it was, with no staged output and no spill left open."""

    @staticmethod
    def open_fds():
        fd_dir = Path("/proc/self/fd")
        return len(os.listdir(fd_dir)) if fd_dir.exists() else 0

    @pytest.mark.parametrize("command, failing_cols", [
        ("spectrogram", 256), ("ra_cube", 128), ("ra_cube_spill", 256), ("ra_spec", 128),
        ("track", None)])
    def test_directory_unchanged(self, workdir, tmp_path, capsys, monkeypatch, command,
                                 failing_cols):
        from radoppler import tracker
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("unrelated\n")
        before = sorted(p.name for p in out.iterdir())
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write_block = ingest.MatrixWriter.write

        def write_then_fail(self, block):
            write_block(self, block)
            if self.shape[1] == failing_cols:
                raise full

        def track_then_fail(track, path, axis_kind="doppler_hz"):
            write_csv(track, path, axis_kind)
            raise full

        write_csv = tracker.write_track_csv
        monkeypatch.setattr(ingest.MatrixWriter, "write", write_then_fail)
        monkeypatch.setattr(tracker, "write_track_csv", track_then_fail)
        cfg = str(workdir / "pipeline.cfg")
        argv = {"spectrogram": ["spectrogram", workdir / "cube.iq", cfg, out / "spec.bin"],
                "ra_cube": ["ra", workdir / "cube.iq", cfg, out / "ra.bin"],
                "ra_cube_spill": ["ra", workdir / "cube.iq", cfg, out / "ra.bin"],
                "ra_spec": ["ra", workdir / "spec.bin", cfg, out / "ra.bin"],
                "track": ["track", workdir / "spec.bin", out / "t.csv"]}[command]
        fds = self.open_fds()
        assert cli.main([str(a) for a in argv]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == before
        assert self.open_fds() == fds

    @pytest.mark.parametrize("command, source", [("spectrogram", "cube.iq"),
                                                 ("ra", "cube.iq"), ("ra", "spec.bin")])
    def test_sidecar_write_fails(self, workdir, tmp_path, capsys, monkeypatch, command,
                                 source):
        """A failure once the matrix is whole, while the saver writes its .meta."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("unrelated\n")
        before = sorted(p.name for p in out.iterdir())
        name = {"spectrogram": "spec.bin", "ra": "ra.bin"}[command]
        write_text, staged = Path.write_text, []

        def write_then_fail(self, data, *args, **kwargs):
            count = write_text(self, data, *args, **kwargs)
            if self.name.endswith(f"{name}.meta"):
                matrix = self.with_name(self.name.removesuffix(".meta"))
                staged.append((matrix.name, matrix.stat().st_size))
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return count

        monkeypatch.setattr(Path, "write_text", write_then_fail)
        fds = self.open_fds()
        assert cli.main([command, str(workdir / source), str(workdir / "pipeline.cfg"),
                         str(out / name)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert staged == [(f".part-{os.getpid()}.{name}", (workdir / name).stat().st_size)]
        assert sorted(p.name for p in out.iterdir()) == before
        assert not list(out.glob(".part-*"))
        assert self.open_fds() == fds


    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_cube(self, tmp_path, capsys):
        """Two returns of rcs 1e308 at one range overflow once summed: the cube writer
        rejects the block that holds them, after its sidecar and earlier blocks."""
        scenario = dataclasses.replace(
            preset("limp_like"),
            scatterers=(simulator.ScattererSpec(base_range=2.0, rcs=1e308),) * 2)
        save_scenario(scenario, tmp_path / "inf.scn")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["simulate", str(tmp_path / "inf.scn"), str(out / "cube.iq")]) == 2
        assert "error: cube contains non-finite samples" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestTrackReadsNoBankWeights:
    def test_huge_last_break_point_allocates_nothing(self, workdir, tmp_path):
        """track needs the filter centers p_1..p_M, not the bank's M x (p_(M+1) + 1)
        weights: a sidecar p_65 of 200000 would make them 102 MB."""
        for name in ("ra.bin", "ra.bin.meta"):
            shutil.copyfile(workdir / name, tmp_path / name)
        meta = (tmp_path / "ra.bin.meta").read_text()
        assert "p_65 = 128.0\n" in meta
        (tmp_path / "ra.bin.meta").write_text(meta.replace("p_65 = 128.0\n",
                                                           "p_65 = 200000.0\n"))
        tracemalloc.start()
        try:
            code = cli.main(["track", str(tmp_path / "ra.bin"), str(tmp_path / "t.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert cli.main(["track", str(workdir / "ra.bin"), str(tmp_path / "plain.csv")]) == 0
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        weights = 64 * 200_001 * 8
        assert peak < weights / 8, f"peak {peak / 2**20:.1f} MB"


@pytest.fixture(scope="module")
def long_cube(dwell, tmp_path_factory):
    """The 30 000-chirp dwell four times over: 120 000 chirps, a 15 MB spectrogram."""
    root = tmp_path_factory.mktemp("long")
    payload = dwell.read_bytes()
    with open(root / "long.iq", "wb") as fh:
        for _ in range(4):
            fh.write(payload)
    meta = dwell.with_suffix(".meta").read_text()
    assert "num_chirps = 30000\n" in meta
    (root / "long.meta").write_text(meta.replace("num_chirps = 30000\n",
                                                 "num_chirps = 120000\n"))
    write_config(PipelineConfig(), root / "pipeline.cfg")
    return root / "long.iq"


class TestPeakMemory:
    """No CLI process holds a spectrogram or an RA matrix whole: beyond what the front
    end needs to reduce the cube (one read and its cast, the 16 B/chirp series and the
    filter's working set), each peaks below a quarter of the spectrogram's payload."""

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_simulate(self, tmp_path):
        """simulate holds a few chirp blocks, not the cube: the peak stays below four
        complex128 blocks of CHIRP_SLICE chirps and does not grow from 30 000 to 120 000
        chirps. A first short run imports what simulate imports, outside the trace."""
        peaks = []
        save_scenario(scene_of("walk_like", 1), tmp_path / "scene.scn")
        assert cli.main(["simulate", str(tmp_path / "scene.scn"), str(tmp_path / "cube.iq")]) == 0
        for num_chirps in (30_000, 120_000):
            save_scenario(scene_of("walk_like", num_chirps), tmp_path / "scene.scn")
            code, peak = self.traced_peak(lambda: cli.main(
                ["simulate", str(tmp_path / "scene.scn"), str(tmp_path / "cube.iq")]))
            assert code == 0
            peaks.append(peak)
        blocks = 4 * DEFAULT_PARAMS.num_fast_samples * ingest.CHIRP_SLICE * 16
        assert max(peaks) < blocks, f"{[p / 2**20 for p in peaks]} MB"
        assert abs(peaks[1] - peaks[0]) < 0.1 * max(peaks), f"{[p / 2**20 for p in peaks]} MB"

    @pytest.mark.parametrize("coherent", [True, False])
    def test_front_end(self, long_cube, coherent):
        """Beside the series the front end holds one read, its cast and one filter
        group's working set. In coherent mode the group is the series' own span of
        CHIRP_BLOCK chirps and the read is half its complex128 cast, so the peak stays
        below the series and two casts; in non-coherent mode the group is one
        [bins, CHIRP_BLOCK] array, so the peak stays below the series and four groups."""
        from radoppler.linspec import open_cube_spectrogram
        cfg = PipelineConfig(coherent=coherent)
        params = ingest.CubeReader(long_cube).params
        series = 16 * params.num_chirps
        cast = 16 * params.num_fast_samples * ingest.CHIRP_SLICE
        group = 16 * (cfg.range_bin_end - cfg.range_bin_start + 1) * ingest.CHIRP_BLOCK
        _, peak = self.traced_peak(lambda: open_cube_spectrogram(long_cube, cfg))
        bound = series + 2 * cast if coherent else series + 4 * group
        assert peak < bound, f"{peak / 2**20:.2f} MB against {bound / 2**20:.2f} MB"

    @pytest.mark.parametrize("coherent", [True, False])
    def test_front_end_grows_by_its_series(self, dwell, long_cube, coherent):
        """From 30 000 to 120 000 chirps the front end's peak grows by less than 1.1
        times the series' 16 B/chirp: the filter runs per CHIRP_BLOCK group in both
        modes, so nothing else it holds grows with the dwell."""
        from radoppler.linspec import open_cube_spectrogram
        cfg = PipelineConfig(coherent=coherent)
        open_cube_spectrogram(dwell, cfg)  # imports and the filter's operators, untraced
        peaks = [self.traced_peak(lambda: open_cube_spectrogram(path, cfg))[1]
                 for path in (dwell, long_cube)]
        growth = 16 * (ingest.CubeReader(long_cube).params.num_chirps
                       - ingest.CubeReader(dwell).params.num_chirps)
        assert peaks[1] - peaks[0] < 1.1 * growth, (
            f"{(peaks[1] - peaks[0]) / 2**20:.2f} MB against a series growth of "
            f"{growth / 2**20:.2f} MB")

    @pytest.mark.parametrize("command", ["spectrogram", "ra_cube", "ra_spec", "track_spec",
                                         "track_ra"])
    def test_below_a_quarter_spectrogram(self, long_cube, tmp_path, command):
        from radoppler.linspec import open_cube_spectrogram
        cfg = long_cube.parent / "pipeline.cfg"
        spec, ra = tmp_path / "spec.bin", tmp_path / "ra.bin"
        assert cli.main(["spectrogram", str(long_cube), str(cfg), str(spec)]) == 0
        assert cli.main(["ra", str(spec), str(cfg), str(ra)]) == 0
        argv = {"spectrogram": ["spectrogram", long_cube, cfg, tmp_path / "again.bin"],
                "ra_cube": ["ra", long_cube, cfg, tmp_path / "again.bin"],
                "ra_spec": ["ra", spec, cfg, tmp_path / "again.bin"],
                "track_spec": ["track", spec, tmp_path / "t.csv"],
                "track_ra": ["track", ra, tmp_path / "t.csv"]}[command]
        code, peak = self.traced_peak(lambda: cli.main([str(a) for a in argv]))
        assert code == 0
        front_end = 0
        if argv[1] == long_cube:
            _, front_end = self.traced_peak(
                lambda: open_cube_spectrogram(long_cube, PipelineConfig()))
        payload = spec.stat().st_size
        assert peak - front_end < payload / 4, (
            f"{(peak - front_end) / 2**20:.2f} MB beyond the front end's "
            f"{front_end / 2**20:.2f} MB")

    @pytest.mark.parametrize("command", ["spectrogram", "ra"])
    def test_the_api_streams(self, long_cube, tmp_path, command):
        """save_spectrogram of a cube's lazily computed spectrogram, and
        save_ra_spectrogram of its lazily rebinned RA spectrogram, write the CLI's bytes
        and hold neither matrix whole."""
        from radoppler.linspec import open_cube_spectrogram
        from radoppler.ra_core import ra_frames, save_ra_spectrogram
        cfg_path = long_cube.parent / "pipeline.cfg"
        cfg = ingest.load_config(cfg_path)
        spec, cli_out, api_out = tmp_path / "spec.bin", tmp_path / "cli.bin", tmp_path / "api.bin"
        assert cli.main(["spectrogram", str(long_cube), str(cfg_path), str(spec)]) == 0
        assert cli.main([command, str(long_cube), str(cfg_path), str(cli_out)]) == 0

        def save():
            lazy = open_cube_spectrogram(long_cube, cfg)
            if command == "spectrogram":
                return save_spectrogram(lazy, api_out)
            return save_ra_spectrogram(ra_frames(lazy, cfg.num_filters, cfg.log_floor),
                                       api_out)

        _, peak = self.traced_peak(save)
        _, front_end = self.traced_peak(lambda: open_cube_spectrogram(long_cube, cfg))
        for suffix in ("", ".meta"):
            assert (Path(f"{api_out}{suffix}").read_bytes()
                    == Path(f"{cli_out}{suffix}").read_bytes()), suffix
        payload = spec.stat().st_size
        assert peak - front_end < payload / 4, (
            f"{(peak - front_end) / 2**20:.2f} MB beyond the front end's "
            f"{front_end / 2**20:.2f} MB")
