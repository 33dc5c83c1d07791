"""Command-line pipeline: simulate -> spectrogram -> ra -> track.

Stages communicate through files so every intermediate artifact can be
inspected and replayed. Each artifact-producing invocation writes one
``<out>.manifest`` recording the command line, the config snapshot,
SHA-256 hashes of inputs and outputs, and (for ra) the corner report;
reruns are byte-identical except for the timestamp line. While the stage
computes on the main thread, a second thread hashes the inputs (see
``_Files``); an output path that resolves to an input exits 2 before
anything is written. Spectrograms and RA spectrograms pass through a
process in frame blocks, written by the API's savers, and ``simulate``
writes its cube in chirp blocks as they are rendered. Every output is
written under a temporary name, hashed while the input digests finish,
and renamed into place once it is whole, so a failed run leaves its
directory as it found it.

Exit codes: 0 success, 1 internal error, 2 invalid input or config.
RADOPPLER_LOG={error|info|debug} sets stderr verbosity; stdout stays
reserved for nothing (all artifacts are files). Each subcommand imports
the stage modules it runs when it runs, so a process loads only those.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import shlex
import sys
import tempfile
import threading
from datetime import datetime, timezone
from pathlib import Path

# A CLI process computes on one core and hashes on the other, so it loads
# OpenBLAS with one thread: a threaded product's worker spins on the second
# core after every product and starves the hash. OpenBLAS reads the variable
# only when numpy loads it, so it is removed at once; neither this process nor
# its children see it. A caller that set it, or an importer that already
# loaded numpy, keeps its own BLAS threading.
_PIN_BLAS = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
if _PIN_BLAS:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _PIN_BLAS:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import __version__
from .errors import (ConfigMismatchError, DegenerateInputError, FileFormatError, FilterBankError,
                     ForcedCornerError, RadopplerError)
from .ingest import (
    MatrixReader,
    MatrixWriter,
    _cube_paths,
    block_edges,
    field_pairs,
    format_kv,
    load_config,
    read_sidecar,
    sidecar_path,
    sidecar_value,
    write_cube,
)

HASH_CHUNK = 1 << 20  # bytes per read while hashing manifest inputs and outputs
LOG_LEVELS = {"error": 40, "info": 20, "debug": 10}  # RADOPPLER_LOG value -> rank
FLOAT_OPTIONS = ("--force-fc", "--q", "--r")  # options whose value may be negative


def _log(level: str, message: str) -> None:
    """Print ``radoppler: LEVEL: message`` to stderr if RADOPPLER_LOG lets ``level`` through."""
    threshold = LOG_LEVELS.get(os.environ.get("RADOPPLER_LOG", "error").lower(), 40)
    if LOG_LEVELS[level] >= threshold:
        print(f"radoppler: {level.upper()}: {message}", file=sys.stderr)


def _sha256(path, stop: threading.Event | None = None) -> str | None:
    """Hex SHA-256 of a file; None if ``stop`` is set before the last read."""
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        # one buffer for every read, no larger than the file: a HASH_CHUNK buffer
        # for a small input, freed beside the running stage, raised simulate's
        # peak RSS by about 2 MB
        buffer = memoryview(bytearray(max(1, min(HASH_CHUNK, os.fstat(fh.fileno()).st_size))))
        while count := fh.readinto(buffer):
            if stop is not None and stop.is_set():
                return None
            digest.update(buffer[:count])
    return digest.hexdigest()


class _Files:
    """The files one subcommand reads and writes; its manifest is the first output's.

    Entering the block starts a second thread that hashes the inputs while
    the stage computes on the calling thread (hashlib and unbuffered reads
    release the GIL). ``join`` waits for the digests. Leaving the block sets
    ``stop``, which the thread checks after each HASH_CHUNK read, and joins
    it, so no hash outlives the subcommand. An output that resolves to an
    input is refused here, before anything is written.

    Each output is written under the temporary name ``stage`` looks up,
    named here: hidden, beside it, and ending in its name, so the sidecar
    of a staged matrix or cube payload is the staged sidecar. ``commit``
    renames them into place once the input digests are in, the manifest
    last. Leaving the block removes whatever was staged and not committed.
    """

    def __init__(self, inputs, outputs):
        self.inputs = list(inputs)
        self.outputs = [Path(p) for p in outputs]
        self.manifest = Path(f"{self.outputs[0]}.manifest")
        resolved = {Path(p).resolve(): p for p in self.inputs}
        for out in self.outputs + [self.manifest]:
            if out.resolve() in resolved:
                raise RadopplerError(f"output {out} would overwrite input "
                                     f"{resolved[out.resolve()]}")
        self.digests: list[str] = []
        # output -> its temporary name
        self.staged = {out: out.with_name(f".part-{os.getpid()}.{out.name}")
                       for out in self.outputs + [self.manifest]}
        self._error: Exception | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._hash, name="radoppler-hash", daemon=True)

    def _hash(self) -> None:
        for path in self.inputs:
            try:
                digest = _sha256(path, self._stop)
            except OSError as exc:
                self._error = FileFormatError(f"cannot hash input {path}: {exc.strerror or exc}")
                return
            if digest is None:
                return
            self.digests.append(digest)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()
        for temp in self.staged.values():
            temp.unlink(missing_ok=True)

    def join(self) -> None:
        """Wait for the input digests; raise the error that stopped them."""
        self._thread.join()
        if self._error is not None:
            raise self._error

    def stage(self, out) -> Path:
        """The temporary name ``out`` is written under."""
        return self.staged[Path(out)]

    def commit(self) -> None:
        for out, temp in self.staged.items():
            os.replace(temp, out)
        self.staged.clear()


def _subcommand_files(args) -> _Files:
    """A subcommand's inputs, in manifest order and spelled as given, and its outputs.
    A cube is read from ``<name>.iq`` and ``<name>.meta``, and recorded so."""
    if args.command == "simulate":
        return _Files([args.scenario_path], _cube_paths(args.out_cube_path))
    if args.command == "track":
        matrix = Path(args.matrix_path)
        sidecar = sidecar_path(matrix)
        return _Files([matrix, sidecar] if sidecar.exists() else [matrix], [args.out_csv])
    out = Path(args.out_path)
    outputs = [out] if args.format == "pgm" else [out, sidecar_path(out)]
    if args.command == "ra" and Path(args.input_path).suffix != ".iq":
        matrix = Path(args.input_path)
        return _Files([matrix, sidecar_path(matrix), args.config_path], outputs)
    cube = args.cube_path if args.command == "spectrogram" else Path(args.input_path)
    payload, meta = _cube_paths(cube)
    return _Files([cube if Path(cube) == payload else payload, meta, args.config_path], outputs)


def _write_manifest(files: _Files, command, argv, config=None, extra=()):
    """Hash the staged outputs while the input digests finish, write the manifest
    once they are in, then rename every staged output into place, the manifest last."""
    outputs = [("output", f"{p} sha256:{_sha256(files.stage(p), None)}") for p in files.outputs]
    files.join()
    pairs = [
        ("tool_version", __version__),
        ("command", command),
        ("argv", shlex.join(str(a) for a in argv)),
    ]
    if config is not None:
        pairs += [(f"config_{name}", value) for name, value in field_pairs(config)]
    pairs += [("input", f"{p} sha256:{d}") for p, d in zip(files.inputs, files.digests)]
    pairs += outputs
    pairs += list(extra)
    pairs.append(("timestamp", datetime.now(timezone.utc).isoformat()))
    files.stage(files.manifest).write_text(format_kv(pairs))
    files.commit()
    _log("info", f"wrote {files.manifest}")


def _cube_spectrogram(cube_path, cfg, config_path):
    """The cube's spectrogram, its frames computed as they are read (see
    open_cube_spectrogram); a config value the cube cannot hold names both files."""
    from .linspec import open_cube_spectrogram
    try:
        return open_cube_spectrogram(cube_path, cfg)
    except ConfigMismatchError as exc:
        raise ConfigMismatchError(f"{config_path}: {exc} of {cube_path}") from None


def _spill(spec, directory: Path):
    """``spec`` with its frames written once to an unnamed temporary file in ``directory``
    and read back from it as a PowerFile (a MatrixReader that checks its blocks) whose
    peak the write has already found.

    The spill lives on the output's file system, not in memory: neither a
    tmpfs nor a memory map would keep the frames out of the process's
    footprint. The file vanishes when the PowerFile is closed.
    """
    from .linspec import PowerFile
    spill = tempfile.TemporaryFile(dir=directory)
    try:
        writer, peaks = MatrixWriter(spill, *spec.power.shape), []
        for block in spec.power.blocks(block_edges(spec.power)):
            writer.write(block)
            peaks.append(block.max())
        writer.finish()
        spill.seek(0)
        power = PowerFile(spill, f"the spilled spectrogram in {directory}", max(peaks))
    except BaseException:
        spill.close()
        raise
    return dataclasses.replace(spec, power=power)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, argv, files: _Files) -> None:
    from .simulator import chirp_blocks, load_scenario
    scenario = load_scenario(args.scenario_path)
    payload, _ = _cube_paths(args.out_cube_path)
    write_cube(scenario.params, chirp_blocks(scenario), files.stage(payload))
    _log("info", f"wrote {payload} ({scenario.params.num_chirps} chirps)")
    _write_manifest(files, "simulate", argv)


def cmd_spectrogram(args, argv, files: _Files) -> None:
    from .linspec import save_spectrogram
    cfg = load_config(args.config_path)
    spec = _cube_spectrogram(args.cube_path, cfg, args.config_path)
    out = Path(args.out_path)
    save_spectrogram(spec, files.stage(out), format=args.format)
    _log("info", f"wrote {out} ({spec.num_frames} frames x {spec.num_freq_bins} bins)")
    _write_manifest(files, "spectrogram", argv, config=cfg)


def cmd_ra(args, argv, files: _Files) -> None:
    """RA spectrogram in three passes over the frames: the peak, for the log floor;
    the energy profile, for the corner; and the rebin as it is written. A cube's
    frames are spilled once, so the STFT runs once."""
    from .linspec import open_spectrogram
    from .ra_core import ra_frames, save_ra_spectrogram
    cfg = load_config(args.config_path)
    in_path, out = Path(args.input_path), Path(args.out_path)
    if in_path.suffix == ".iq":
        spec = _spill(_cube_spectrogram(in_path, cfg, args.config_path), out.parent)
    else:
        spec = open_spectrogram(in_path)

    with spec.power:
        num_filters = args.M if args.M is not None else cfg.num_filters
        force_bins = None if args.force_fc is None else args.force_fc / spec.hz_per_bin
        try:
            ra = ra_frames(spec, num_filters, cfg.log_floor, force_bins)
        except ForcedCornerError as exc:
            raise ForcedCornerError(f"--force-fc {args.force_fc:g}: {exc}") from None
        except FilterBankError as exc:
            source = (f"--M {args.M}" if args.M is not None
                      else f"{args.config_path}: num_filters = {cfg.num_filters}")
            raise FilterBankError(f"{source}: {exc}") from None
        except (DegenerateInputError, ValueError) as exc:  # too few bins, or no signal
            source = f"{args.config_path} on {in_path}" if in_path.suffix == ".iq" else in_path
            raise DegenerateInputError(f"{source}: {exc}") from None
        corner = ra.corner
        _log("info", f"corner: f_nc={corner.f_nc} f_pc={corner.f_pc} f_c={corner.f_c} bins "
                     f"({corner.f_c * spec.hz_per_bin:.2f} Hz)"
                     f"{' [forced]' if corner.forced else ''}")
        save_ra_spectrogram(ra, files.stage(out), format=args.format)

    extra = [("f_nc_bins", corner.f_nc), ("f_pc_bins", corner.f_pc), ("f_c_bins", corner.f_c),
             ("f_c_hz", corner.f_c * spec.hz_per_bin), ("forced", corner.forced)]
    _write_manifest(files, "ra", argv, config=cfg, extra=extra)


def cmd_track(args, argv, files: _Files) -> None:
    from .tracker import track_signature, write_track_csv
    in_path = Path(args.matrix_path)
    kind = None  # a matrix without a sidecar is tracked on its column index
    if sidecar_path(in_path).exists():
        kind = sidecar_value(in_path, read_sidecar(in_path, None), "kind", str)

    if kind == "spectrogram":
        from .linspec import open_spectrogram
        spec = open_spectrogram(in_path)
        power, axis, times = spec.power, spec.freq_axis, spec.time_axis
        axis_kind = "doppler_hz"
    elif kind == "ra_spectrogram":
        from .ra_core import open_ra_spectrogram
        ra = open_ra_spectrogram(in_path)
        power, axis, times = ra.power, ra.warped_axis_hz(), ra.time_axis
        axis_kind = "ra_center_hz"
    elif kind is None:
        power = MatrixReader.open(in_path)
        axis = np.arange(power.shape[1], dtype=np.float64)
        times = np.arange(power.shape[0], dtype=np.float64)
        axis_kind = "column_index"
    else:
        raise FileFormatError(f"{sidecar_path(in_path)}: key 'kind' = {kind!r} is neither "
                              f"'spectrogram' nor 'ra_spectrogram'")

    with power:
        track = track_signature(power, axis, times, q=args.q, r=args.r)
    write_track_csv(track, files.stage(args.out_csv), axis_kind=axis_kind)
    _log("info", f"wrote {args.out_csv} ({track.raw_peaks.size} frames, axis {axis_kind})")
    _write_manifest(files, "track", argv,
                    extra=[("axis_kind", axis_kind), ("q", args.q), ("r", args.r)])


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse type for float options: NaN, infinities and non-numbers exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _filter_count(text: str) -> int:
    """argparse type for --M: an integer of at least 2 filters per half axis."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 filters, got {value}")
    return value


def _joined_values(argv: list[str]) -> list[str]:
    """argv with ``--force-fc``, ``--q`` or ``--r`` (or an abbreviation) and a following
    number that starts with '-' spelled as one ``--opt=value`` token: argparse takes a
    negative number in exponent notation, such as -1e-05, for an option, and then names
    no value. Tokens after ``--`` are left as they are."""
    out = []
    for k, token in enumerate(argv):
        if token == "--":
            return out + argv[k:]
        if (out and out[-1].startswith("--") and any(o.startswith(out[-1]) for o in FLOAT_OPTIONS)
                and token.startswith("-") and _is_float(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radoppler",
        description="Micro-Doppler spectrogram pipeline with resolution-adaptive warping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scenario file into a radar cube")
    p.add_argument("scenario_path")
    p.add_argument("out_cube_path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrogram", help="cube -> conventional spectrogram")
    p.add_argument("cube_path")
    p.add_argument("config_path")
    p.add_argument("out_path")
    p.add_argument("--format", choices=("csv", "bin", "pgm"), default="bin")
    p.set_defaults(func=cmd_spectrogram)

    p = sub.add_parser("ra", help="cube or spectrogram -> resolution-adaptive spectrogram")
    p.add_argument("input_path")
    p.add_argument("config_path")
    p.add_argument("out_path")
    p.add_argument("--M", type=_filter_count, default=None, help="filter count per half axis")
    p.add_argument("--force-fc", type=_finite_float, default=None, dest="force_fc",
                   help="skip corner detection and use this corner frequency in Hz")
    p.add_argument("--format", choices=("csv", "bin", "pgm"), default="bin")
    p.set_defaults(func=cmd_ra)

    p = sub.add_parser("track", help="matrix -> dominant-signature CSV track")
    p.add_argument("matrix_path")
    p.add_argument("out_csv")
    p.add_argument("--q", type=_finite_float, default=10.0, help="process noise density")
    p.add_argument("--r", type=_finite_float, default=4.0, help="measurement noise variance")
    p.set_defaults(func=cmd_track)
    return parser


def main(argv=None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_joined_values(raw_argv))
    try:
        with _subcommand_files(args) as files:
            args.func(args, raw_argv, files)
        return 0
    except (RadopplerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback
        _log("debug", "unexpected failure\n" + traceback.format_exc().removesuffix("\n"))
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
