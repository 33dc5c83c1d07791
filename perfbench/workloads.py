"""Inputs, operations and timing loops of the three benchmark workloads.

Each workload is a closed loop with one caller: the next operation
starts when the previous one has finished. Inputs come from the seed at
set-up; the program sees only the generated files.

- cli_chain: one operation is the README quick start as six CLI processes
  (simulate, spectrogram, ra from the cube, ra from spec.bin, track on
  spec.bin, track on ra.bin) on a preset or a seeded 1-6 scatterer scene.
- long_dwell: one operation is spectrogram, ra from the cube and track on
  the spectrogram, as CLI processes, on one seeded 60 s dwell.
- ra_batch: a long-lived child process drives the API; one operation is
  load_spectrogram -> ra_transform -> save_ra_spectrogram ->
  track_signature on one seeded spectrogram (256, 1024 or 2048 bins).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

CLI_CODE = "import sys; from radoppler.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 90.0
LOG_FLOOR = 1e-12  # PipelineConfig default, used by every generated config

DWELL_CHIRPS = 120_000  # 60 s at the preset 2 kHz chirp rate
BATCH_SIZES = ((256, 64), (1024, 128), (2048, 256))  # (fft_length, M)


def child_env(**extra) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


# ---------------------------------------------------------------------------
# processes and bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Call:
    wall_s: float
    rss_mb: float
    code: int
    stderr: str


def run_child(argv, cwd, env) -> Call:
    """Run one process to completion through spawn.py: wall time and own peak RSS."""
    stderr_path = Path(cwd) / ".stderr"
    launcher = [sys.executable, str(HERE / "spawn.py"), str(stderr_path), str(CHILD_TIMEOUT_S),
                "--", *argv]
    done = subprocess.run(launcher, cwd=cwd, env=env, stdout=subprocess.PIPE, check=True,
                          timeout=CHILD_TIMEOUT_S + 30)
    report = json.loads(done.stdout)
    tail = stderr_path.read_bytes()[-300:].decode(errors="replace").strip()
    return Call(report["wall_s"], report["rss_mb"], report["code"], tail)


def run_cli(argv, cwd, env) -> Call:
    return run_child([sys.executable, "-c", CLI_CODE, *argv], cwd, env)


def run_cli_inprocess(cli, argv, cwd) -> Call:
    """Drive ``cli.main(argv)`` in this process, from ``cwd``."""
    old = os.getcwd()
    os.chdir(cwd)
    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad argv by exiting
        code = exc.code
    finally:
        wall = time.perf_counter() - start
        os.chdir(old)
    return Call(wall, 0.0, int(code or 0), "")


@dataclass
class Tally:
    """Operations attempted and failed; a failed check is a failed operation."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {'; '.join(errors)}")

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.errors += other["errors"][: max(0, 20 - len(self.errors))]


def guarded(check: Callable[[], list[str]]) -> list[str]:
    """Run a check; an unreadable or malformed artifact is a failure too."""
    try:
        return check()
    except Exception as exc:  # any defect in an output must count, not abort the run
        return [f"check raised {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def seeded_scenario(simulator, rng, num_scatterers, num_chirps, amp):
    """Micro-moving scatterers 1.5-3 m out, below the unambiguous Doppler limit."""
    scatterers = tuple(
        simulator.ScattererSpec(
            base_range=float(rng.uniform(1.5, 3.0)),
            micro_amp=float(rng.uniform(*amp)),
            micro_freq=float(rng.uniform(0.3, 2.0)),
            micro_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
            rcs=float(rng.uniform(0.5, 1.0)),
        )
        for _ in range(num_scatterers)
    )
    params = replace(simulator.DEFAULT_PARAMS, num_chirps=num_chirps)
    return simulator.Scenario(params=params, scatterers=scatterers, noise_power=1e-4,
                              seed=int(rng.integers(2**31)))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# CLI workloads: an operation is a list of CLI steps with their checks
# ---------------------------------------------------------------------------

@dataclass
class Step:
    argv: list[str]
    check: Callable[[], list[str]]


def manifest_check(cwd: Path, out: str, extra=None) -> Callable[[], list[str]]:
    def check():
        errors = checks.check_manifest(cwd / f"{out}.manifest", cwd)
        return errors + (extra() if extra else [])
    return check


class ChainWorkload:
    name = "cli_chain"
    subcommands = ("simulate", "spectrogram", "ra", "track")

    def setup(self, rd, workdir: Path, seed: int) -> list[dict]:
        """Config, six scenario files and their reference cube hashes.

        The scenes are the four presets, rotated by the seed so that every
        preset comes first for some seed, with two seeded scenes after the
        first and second preset. The seeded scenes hold 7 scatterers
        between them, so set-up costs the same for every seed.
        """
        rng = np.random.default_rng(seed)
        names = rd.simulator.PRESET_NAMES
        first = seed % len(names)
        presets = [names[(first + k) % len(names)] for k in range(len(names))]
        entries = [(name, name, rd.simulator.preset(name)) for name in presets]
        count = int(rng.integers(1, 7))
        for k, scatterers in ((1, count), (3, 7 - count)):
            scene = seeded_scenario(rd.simulator, rng, scatterers, 6000, (0.1, 1.4))
            entries.insert(k, (f"seeded{k}", None, scene))
        return self.write_inputs(rd, workdir, entries)

    @staticmethod
    def write_inputs(rd, workdir: Path, entries) -> list[dict]:
        """Config, scenario files, and the hash of each scene's API render."""
        rd.ingest.write_config(rd.ingest.PipelineConfig(), workdir / "pipeline.cfg")
        fresh_dir(workdir / "scenarios")
        fresh_dir(workdir / "ref")
        out = []
        for label, preset, scene in entries:
            rd.simulator.save_scenario(scene, workdir / "scenarios" / f"{label}.scn")
            cube = rd.simulator.synthesize(scene)
            ref = rd.ingest.write_radar_cube(cube, workdir / "ref" / f"{label}.iq")
            out.append({"label": label, "preset": preset, "cube_sha256": checks.sha256_file(ref)})
        return out

    def operation(self, state, workdir: Path, j: int) -> tuple[Path, list[Step]]:
        entry = state[j % len(state)]
        cwd = fresh_dir(workdir / "chain")
        preset = entry["preset"]

        def cube_matches():
            if checks.sha256_file(cwd / "cube.iq") != entry["cube_sha256"]:
                return [f"cube.iq differs from the API render of {entry['label']}"]
            return []

        def ra_ok(out):
            return lambda: checks.check_ra_files(cwd / "spec.bin", cwd / out, LOG_FLOOR, preset)

        def track_ok(matrix, out):
            return lambda: checks.check_track_file(cwd / matrix, cwd / out)

        scn = f"../scenarios/{entry['label']}.scn"
        return cwd, [
            Step(["simulate", scn, "cube.iq"], manifest_check(cwd, "cube.iq", cube_matches)),
            Step(["spectrogram", "cube.iq", "../pipeline.cfg", "spec.bin"],
                 manifest_check(cwd, "spec.bin")),
            Step(["ra", "cube.iq", "../pipeline.cfg", "ra_cube.bin"],
                 manifest_check(cwd, "ra_cube.bin", ra_ok("ra_cube.bin"))),
            Step(["ra", "spec.bin", "../pipeline.cfg", "ra.bin"],
                 manifest_check(cwd, "ra.bin", ra_ok("ra.bin"))),
            Step(["track", "spec.bin", "track_spec.csv"],
                 manifest_check(cwd, "track_spec.csv", track_ok("spec.bin", "track_spec.csv"))),
            Step(["track", "ra.bin", "track_ra.csv"],
                 manifest_check(cwd, "track_ra.csv", track_ok("ra.bin", "track_ra.csv"))),
        ]


class DwellWorkload:
    name = "long_dwell"

    def setup(self, rd, workdir: Path, seed: int) -> dict:
        """One seeded two-scatterer dwell of DWELL_CHIRPS chirps (~123 MB .iq)."""
        rng = np.random.default_rng(seed)
        rd.ingest.write_config(rd.ingest.PipelineConfig(), workdir / "pipeline.cfg")
        scene = seeded_scenario(rd.simulator, rng, 2, DWELL_CHIRPS, (0.2, 1.2))
        cube = rd.simulator.synthesize(scene)
        rd.ingest.write_radar_cube(cube, workdir / "dwell.iq")
        return {"chirps": DWELL_CHIRPS}

    def operation(self, state, workdir: Path, j: int) -> tuple[Path, list[Step]]:
        cwd = fresh_dir(workdir / "pass")

        def ra_ok():
            return checks.check_ra_files(cwd / "spec.bin", cwd / "ra.bin", LOG_FLOOR)

        def track_ok():
            return checks.check_track_file(cwd / "spec.bin", cwd / "track.csv")

        return cwd, [
            Step(["spectrogram", "../dwell.iq", "../pipeline.cfg", "spec.bin"],
                 manifest_check(cwd, "spec.bin")),
            Step(["ra", "../dwell.iq", "../pipeline.cfg", "ra.bin"],
                 manifest_check(cwd, "ra.bin", ra_ok)),
            Step(["track", "spec.bin", "track.csv"], manifest_check(cwd, "track.csv", track_ok)),
        ]


def check_steps(cwd, steps, calls, tally, tamper=None) -> bool:
    """Record every step as one operation; True when all of them passed."""
    ok = True
    for step, call in zip(steps, calls):
        if tamper is not None:
            tamper(cwd, step)
        if call.code != 0:
            errors = [f"exit {call.code}: {call.stderr}"]
        else:
            errors = guarded(step.check)
        tally.record(" ".join(step.argv), errors)
        ok = ok and not errors
    return ok


def run_cli_loop(workload, state, workdir, seconds, tally, env, tamper=None) -> dict:
    """Timed loop: whole operations as CLI processes until ``seconds`` pass."""
    walls, rss, calls_by_sub = [], [], {}
    start = time.perf_counter()
    j = 0
    while j == 0 or time.perf_counter() - start < seconds:
        cwd, steps = workload.operation(state, workdir, j)
        calls = [run_cli(step.argv, cwd, env) for step in steps]
        for step, call in zip(steps, calls):
            calls_by_sub.setdefault(step.argv[0], []).append(call)
        rss += [c.rss_mb for c in calls]
        if check_steps(cwd, steps, calls, tally, tamper):
            walls.append(sum(c.wall_s for c in calls))
        j += 1
    return {"walls": walls, "peak_rss_mb": max(rss), "calls": calls_by_sub}


def run_cli_inprocess_op(workload, cli, state, workdir, j, tally) -> float:
    cwd, steps = workload.operation(state, workdir, j)
    calls = [run_cli_inprocess(cli, step.argv, cwd) for step in steps]
    check_steps(cwd, steps, calls, tally)
    return sum(c.wall_s for c in calls)


# ---------------------------------------------------------------------------
# ra_batch: seeded spectrograms, driven through the API by batch_worker.py
# ---------------------------------------------------------------------------

class BatchWorkload:
    name = "ra_batch"

    def setup(self, rd, workdir: Path, seed: int) -> list[dict]:
        """Two seeded wide-band scenes (2 and 3 scatterers), each at three axis lengths."""
        rng = np.random.default_rng(seed)
        items_dir = fresh_dir(workdir / "items")
        items = []
        for k in range(2):
            scene = seeded_scenario(rd.simulator, rng, 2 + k, 6000, (0.8, 1.4))
            cube = rd.simulator.synthesize(scene)
            profiles = rd.preprocess.range_transform(cube)
            cfg = rd.ingest.PipelineConfig()
            profiles = rd.preprocess.clutter_filter(profiles, cutoff=cfg.notch_cutoff,
                                                    order=cfg.notch_order)
            for fft_length, num_filters in BATCH_SIZES:
                spec = rd.linspec.stft_spectrogram(profiles, replace(cfg, fft_length=fft_length))
                path = rd.linspec.save_spectrogram(spec, items_dir / f"scene{k}_{fft_length}.bin")
                items.append({"spec": str(path), "M": num_filters, "bins": fft_length})
        (workdir / "items.json").write_text(json.dumps(items))
        return items

    def run_worker(self, workdir, label, env, *args) -> tuple[Call, dict]:
        out = Path(workdir) / f"worker-{label}.json"
        argv = [sys.executable, str(HERE / "batch_worker.py"), str(workdir), str(out), *args]
        call = run_child(argv, workdir, env)
        result = json.loads(out.read_text()) if call.code == 0 and out.exists() else None
        return call, result


WORKLOADS = {w.name: w for w in (ChainWorkload(), DwellWorkload(), BatchWorkload())}
