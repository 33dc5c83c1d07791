import contextlib
import dataclasses
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radoppler import cli, ingest
from radoppler.ingest import (
    load_radar_cube,
    PipelineConfig,
    RadarCube,
    load_matrix,
    parse_kv,
    write_config,
    write_radar_cube,
)
from radoppler.linspec import load_spectrogram, save_spectrogram, spectrogram_from_cube
from radoppler.simulator import DEFAULT_PARAMS, preset, save_scenario


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
    ], ids=["no_p_3", "num_filters_lots", "f_max_x", "frame_dt_nan", "num_filters_8",
            "num_filters_negative", "frame_dt_negative", "ra_frame_dt_zero",
            "num_frames_5", "num_freq_bins_7", "ra_num_frames_5"])
    def test_bad_sidecar_value_exits_two(self, workdir, tmp_path, capsys, matrix, old, new,
                                         named):
        """track, and ra for a spectrogram, exit 2 naming the key and the sidecar."""
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
        for command in commands:
            assert cli.main(command) == 2
            err = capsys.readouterr().err
            assert named in err and f"{path}.meta" in err
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

        monkeypatch.setattr(cli, "synthesize", no_render)
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
        monkeypatch.setattr(cli, "synthesize", lambda scenario: pytest.fail("rendered"))
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
        # 1024 chirps in read blocks of 256
        monkeypatch.setattr(ingest, "CHIRP_BLOCK", 256)
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


class TestDiagnostics:
    def test_internal_error_exits_one(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "synthesize",
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
