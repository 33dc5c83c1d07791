"""Command-line pipeline: simulate -> spectrogram -> ra -> track.

Stages communicate through files so every intermediate artifact can be
inspected and replayed. Each artifact-producing invocation writes one
``<out>.manifest`` recording the command line, the config snapshot,
SHA-256 hashes of inputs and outputs, and (for ra) the corner report;
reruns are byte-identical except for the timestamp line.

Exit codes: 0 success, 1 internal error, 2 invalid input or config.
RADOPPLER_LOG={error|info|debug} sets stderr verbosity; stdout stays
reserved for nothing (all artifacts are files).
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import math
import os
import shlex
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FileFormatError, ForcedCornerError, RadopplerError
from .ingest import (
    _cube_paths,
    field_pairs,
    format_kv,
    load_config,
    load_matrix,
    read_sidecar,
    sidecar_count,
    sidecar_frame_dt,
    sidecar_path,
    sidecar_value,
    write_matrix,
    write_radar_cube,
)
from .linspec import load_spectrogram, save_spectrogram, spectrogram_from_file
from .ra_core import ra_transform, save_ra_spectrogram
from .simulator import load_scenario, synthesize
from .tracker import track_signature, write_track_csv

log = logging.getLogger("radoppler")

HASH_CHUNK = 1 << 20  # bytes per read while hashing manifest inputs and outputs


def _configure_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("RADOPPLER_LOG", "error").lower(), logging.ERROR
    )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(levelname)s: %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_path, command, argv, inputs, outputs, config=None, extra=()):
    pairs = [
        ("tool_version", __version__),
        ("command", command),
        ("argv", shlex.join(str(a) for a in argv)),
    ]
    if config is not None:
        pairs += [(f"config_{name}", value) for name, value in field_pairs(config)]
    pairs += [("input", f"{p} sha256:{_sha256(p)}") for p in inputs if Path(p).exists()]
    pairs += [("output", f"{p} sha256:{_sha256(p)}") for p in outputs if Path(p).exists()]
    pairs += list(extra)
    pairs.append(("timestamp", datetime.now(timezone.utc).isoformat()))
    manifest = Path(str(out_path) + ".manifest")
    manifest.write_text(format_kv(pairs))
    log.info("wrote %s", manifest)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, argv) -> None:
    scenario = load_scenario(args.scenario_path)
    cube = synthesize(scenario)
    payload = write_radar_cube(cube, args.out_cube_path)
    sidecar = _cube_paths(payload)[1]
    log.info("wrote %s (%d chirps)", payload, cube.params.num_chirps)
    _write_manifest(payload, "simulate", argv,
                    inputs=[args.scenario_path], outputs=[payload, sidecar])


def cmd_spectrogram(args, argv) -> None:
    cfg = load_config(args.config_path)
    spec = spectrogram_from_file(args.cube_path, cfg)
    out = Path(args.out_path)
    if args.format == "pgm":
        # frequency on image rows so a steady tone reads as one bright row
        write_matrix(spec.power.T, out, format="pgm")
        outputs = [out]
    else:
        save_spectrogram(spec, out, format=args.format)
        outputs = [out, sidecar_path(out)]
    log.info("wrote %s (%d frames x %d bins)", out, spec.num_frames, spec.num_freq_bins)
    inputs = [args.cube_path, _cube_paths(args.cube_path)[1], args.config_path]
    _write_manifest(out, "spectrogram", argv, inputs=inputs, outputs=outputs, config=cfg)


def cmd_ra(args, argv) -> None:
    cfg = load_config(args.config_path)
    in_path = Path(args.input_path)
    if in_path.suffix == ".iq":
        spec = spectrogram_from_file(in_path, cfg)
        inputs = [in_path, _cube_paths(in_path)[1], args.config_path]
    else:
        spec = load_spectrogram(in_path)
        inputs = [in_path, sidecar_path(in_path), args.config_path]

    num_filters = args.M if args.M is not None else cfg.num_filters
    force_bins = None if args.force_fc is None else args.force_fc / spec.hz_per_bin
    try:
        ra = ra_transform(spec, num_filters=num_filters, floor=cfg.log_floor,
                          force_fc=force_bins)
    except ForcedCornerError as exc:
        raise ForcedCornerError(f"--force-fc {args.force_fc:g}: {exc}") from None
    log.info("corner: f_nc=%d f_pc=%d f_c=%d bins (%.2f Hz)%s",
             ra.corner.f_nc, ra.corner.f_pc, ra.corner.f_c,
             ra.corner.f_c * ra.hz_per_bin, " [forced]" if ra.corner.forced else "")

    out = Path(args.out_path)
    if args.format == "pgm":
        write_matrix(ra.power.T, out, format="pgm")
        outputs = [out]
    else:
        save_ra_spectrogram(ra, out, format=args.format)
        outputs = [out, sidecar_path(out)]
    extra = [
        ("f_nc_bins", ra.corner.f_nc),
        ("f_pc_bins", ra.corner.f_pc),
        ("f_c_bins", ra.corner.f_c),
        ("f_c_hz", ra.corner.f_c * ra.hz_per_bin),
        ("forced", ra.corner.forced),
    ]
    _write_manifest(out, "ra", argv, inputs=inputs, outputs=outputs, config=cfg, extra=extra)


def cmd_track(args, argv) -> None:
    in_path = Path(args.matrix_path)
    sidecar = sidecar_path(in_path)
    kind = None  # a matrix without a sidecar is tracked on its column index
    if sidecar.exists():
        meta = read_sidecar(in_path, None)
        kind = sidecar_value(in_path, meta, "kind", str)
        if kind not in ("spectrogram", "ra_spectrogram"):
            raise FileFormatError(f"{sidecar}: key 'kind' = {kind!r} is neither "
                                  f"'spectrogram' nor 'ra_spectrogram'")

    if kind == "spectrogram":
        spec = load_spectrogram(in_path)
        power, axis, times = spec.power, spec.freq_axis, spec.time_axis
        axis_kind = "doppler_hz"
    elif kind == "ra_spectrogram":
        m_count = sidecar_value(in_path, meta, "num_filters", int)
        power = load_matrix(in_path)
        if m_count < 1 or 2 * m_count != power.shape[1]:
            raise FileFormatError(f"{sidecar}: key 'num_filters' = {m_count} must be at least 1 "
                                  f"and half the {power.shape[1]} matrix columns")
        sidecar_count(in_path, meta, "num_frames", power.shape[0], "rows")
        hz_per_bin = sidecar_value(in_path, meta, "hz_per_bin")
        centers = np.array([sidecar_value(in_path, meta, f"p_{m}") for m in range(1, m_count + 1)])
        axis = np.concatenate([-centers[::-1], centers]) * hz_per_bin
        times = np.arange(power.shape[0]) * sidecar_frame_dt(in_path, meta, power.shape[0])
        axis_kind = "ra_center_hz"
    else:
        power = load_matrix(in_path)
        axis = np.arange(power.shape[1], dtype=np.float64)
        times = np.arange(power.shape[0], dtype=np.float64)
        axis_kind = "column_index"

    track = track_signature(power, axis, times, q=args.q, r=args.r)
    out = write_track_csv(track, args.out_csv, axis_kind=axis_kind)
    log.info("wrote %s (%d frames, axis %s)", out, track.raw_peaks.size, axis_kind)
    inputs = [in_path] + ([sidecar] if sidecar.exists() else [])
    _write_manifest(out, "track", argv, inputs=inputs, outputs=[out],
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
    p.add_argument("--M", type=int, default=None, help="filter count per half axis")
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
    _configure_logging()
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(raw_argv)
    try:
        args.func(args, raw_argv)
        return 0
    except (RadopplerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        log.debug("unexpected failure", exc_info=True)
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
