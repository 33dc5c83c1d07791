"""Pipeline benchmark of radoppler: end-to-end and per-layer numbers.

Run from the root of a radoppler checkout:

    python3 perfbench/run.py --workload cli_chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload ra_batch --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --self-check

``--trace 0`` times the workload with nothing patched and reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` is a separate run that
wraps the package's public functions and reports the per-layer metrics.
Every output is checked; a failed check counts as a failed operation.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Results, the environment record
and (traced) the spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import (ROOT, WORKLOADS, ChainWorkload, Tally, child_env, fresh_dir,
                       run_child, run_cli_inprocess_op, run_cli_loop)

OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# in-process (traced and untraced) operations of a traced run
TRACED_OPS = {"cli_chain": 6, "long_dwell": 1}
TRACED_BATCH_CYCLES = 3
# per-layer names that the spans record under another function's name
ALIASES = {"ra_core.rebin.": "ra_core.ra_transform."}


def load_package():
    """Import radoppler from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "radoppler" / "__init__.py").is_file():
        sys.exit(f"error: {src}/radoppler not found; run from a radoppler checkout")
    sys.path.insert(0, str(src))
    import radoppler
    import radoppler.cli  # noqa: F401  (loads every stage module)
    if not Path(radoppler.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: radoppler imported from {radoppler.__file__}, not {src}")
    return radoppler


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked from the library."""
    maps = Path("/proc/self/maps").read_text() if Path("/proc/self/maps").exists() else ""
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(rd) -> dict:
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (index / "size").read_text().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "corner_backends": list(rd.ra_core.corner_backends()),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(walls) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). A run with fewer than 11
    operations has no such percentile; it reports its slowest operation.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(setup_times, walls, peak_rss_mb) -> tuple[dict, dict]:
    value, percentile, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_wall_p50_ms": statistics.median(walls) * 1e3,
        "op_wall_tail_ms": value * 1e3,
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"ops_timed": len(walls), "tail_percentile": percentile,
              "tail_samples_beyond": beyond, "setup_times_s": setup_times}
    return metrics, detail


def per_layer(names, summary, blas1, extras) -> dict:
    def resolve(name, groups):
        for old, new in ALIASES.items():
            name = name.replace(old, new)
        return tracing.layer_value(groups, name)

    out = {}
    for name in names:
        if name in extras:
            out[name] = float(extras[name])
        elif name.endswith(".blas1"):
            out[name] = resolve(name[: -len(".blas1")], blas1)
        else:
            out[name] = resolve(name, summary)
    return out


def rates(summary) -> dict:
    """Each count per second of its own span time, with the base named."""
    out = {}
    for key, group in summary.items():
        for count in ("bytes", "splits", "madds", "steps"):
            if count in group and group["ms"] > 0:
                base = "self_ms" if count == "madds" else "ms"
                out[f"{key}.{count}_per_s"] = {
                    "value": group[count] / (group[base] / 1e3),
                    "base": f"median {count} per call / median {base} per call",
                    "computed_count": count in tracing.COMPUTED,
                }
    return out


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def setups(workload, rd, workdir, seed):
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(rd, workdir, seed)
        times.append(time.perf_counter() - start)
    return state, times


def timed_run(workload, rd, workdir, seed, seconds, tally):
    state, setup_times = setups(workload, rd, workdir, seed)
    env = child_env()
    if workload.name == "ra_batch":
        call, result = workload.run_worker(workdir, "timed", env, "--seconds", str(seconds))
        if result is None:
            raise RuntimeError(f"batch worker exited {call.code}: {call.stderr}")
        tally.merge(result)
        walls, peak = result["latencies_s"], call.rss_mb
    else:
        loop = run_cli_loop(workload, state, workdir, seconds, tally, env)
        walls, peak = loop["walls"], loop["peak_rss_mb"]
    if not walls:
        raise RuntimeError("no operation completed: " + "; ".join(tally.errors[:3]))
    return end_to_end(setup_times, walls, peak)


def traced_worker(workload, workdir, label, extra_env, tally):
    """One traced batch worker: its result and its spans."""
    args = ("--cycles", str(TRACED_BATCH_CYCLES), "--trace")
    call, result = workload.run_worker(workdir, label, child_env(**extra_env), *args)
    if result is None:
        raise RuntimeError(f"batch worker exited {call.code}: {call.stderr}")
    tally.merge(result)
    lines = (workdir / f"worker-{label}.json.spans.jsonl").read_text().splitlines()
    return result, [json.loads(line) for line in lines]


def traced_run(workload, rd, workdir, seed, tally, names):
    tracer = tracing.Tracer()
    tracer.op = "setup"
    with tracer:
        state, _ = setups(workload, rd, workdir, seed)
    env = child_env()
    extras = {"cli.import_s": statistics.median(
        run_child([sys.executable, "-c", "import radoppler.cli"], workdir, env).wall_s
        for _ in range(3))}
    for sub in ChainWorkload.subcommands:
        extras[f"cli.{sub}.wall_s"] = extras[f"cli.{sub}.peak_rss_mb"] = 0.0
    spans, blas1_spans, overhead = [], [], []
    if workload.name == "ra_batch":
        result, spans = traced_worker(workload, workdir, "traced", {}, tally)
        _, blas1_spans = traced_worker(workload, workdir, "blas1",
                                       {"OPENBLAS_NUM_THREADS": "1"}, tally)
        untraced = result["untraced_s"]
        overhead = [t - u for t, u in zip(result["traced_s"], untraced)]
    else:
        # each subcommand as its own process: wall time and peak RSS
        calls = run_cli_loop(workload, state, workdir, 0, tally, env)["calls"]
        for sub, sub_calls in calls.items():
            extras[f"cli.{sub}.wall_s"] = statistics.median(c.wall_s for c in sub_calls)
            extras[f"cli.{sub}.peak_rss_mb"] = max(c.rss_mb for c in sub_calls)
        cli = rd.cli
        run_cli_inprocess_op(workload, cli, state, workdir, 0, tally)  # warm-up
        untraced = []
        for j in range(TRACED_OPS[workload.name]):
            untraced.append(run_cli_inprocess_op(workload, cli, state, workdir, j, tally))
            tracer.op = f"op{j}"
            with tracer:
                traced = run_cli_inprocess_op(workload, cli, state, workdir, j, tally)
            overhead.append(traced - untraced[-1])
    tracer.self_times()
    spans = tracer.spans + spans
    blas1_spans = [dict(span, op=f"blas1-{span['op']}") for span in blas1_spans]
    extras["trace.overhead_ms"] = statistics.median(overhead) * 1e3
    extras["trace.untraced_op_ms"] = statistics.median(untraced) * 1e3
    summary = tracing.summarize(spans)
    blas1 = tracing.summarize(blas1_spans)
    metrics = per_layer(names, summary, blas1, extras)
    detail = {"layers": summary, "layers_blas1": blas1, "rates": rates(summary),
              "computed_counts": tracing.COMPUTED, "overhead_samples": len(overhead)}
    return metrics, detail, spans + blas1_spans


# ---------------------------------------------------------------------------
# self-check: corrupted outputs must be counted as failures
# ---------------------------------------------------------------------------

def _corrupt_ra(cwd, step):
    """Nudge one non-peak RA value and re-hash it, so only the RA check can tell."""
    if step.argv[-1] != "ra.bin":
        return
    path = cwd / "ra.bin"
    power = checks.read_matrix(path).copy()
    col = int(power[0].argmin())
    power[0, col] = power[0, col] * (1 + 1e-6) + 1e-30
    blob = path.read_bytes()
    header = blob[: len(blob) - power.nbytes]
    path.write_bytes(header + power.astype("<f8").tobytes())
    manifest = cwd / "ra.bin.manifest"
    text = re.sub(r"(output = ra\.bin sha256:)[0-9a-f]+",
                  lambda m: m.group(1) + checks.sha256_file(path), manifest.read_text())
    manifest.write_text(text)


def _corrupt_manifest(cwd, step):
    """Flip one hex digit of a correct output hash."""
    if step.argv[-1] != "spec.bin":
        return
    manifest = cwd / "spec.bin.manifest"
    text = manifest.read_text()
    digest = re.search(r"output = spec\.bin sha256:([0-9a-f]+)", text).group(1)
    flipped = ("1" if digest[0] == "0" else "0") + digest[1:]
    manifest.write_text(text.replace(digest, flipped))


def self_check(rd, workdir) -> int:
    sim = rd.simulator
    scene = sim.Scenario(params=replace(sim.DEFAULT_PARAMS, num_chirps=1024),
                         scatterers=(sim.ScattererSpec(base_range=2.0, micro_amp=0.6,
                                                       micro_freq=1.5),),
                         noise_power=1e-4, seed=7)
    state = ChainWorkload.write_inputs(rd, workdir, [("tiny", None, scene)])
    env = child_env()
    ok = True
    for label, tamper, expected in (("clean", None, 0), ("corrupted RA artifact", _corrupt_ra, 1),
                                    ("corrupted manifest hash", _corrupt_manifest, 1)):
        tally = Tally()
        run_cli_loop(ChainWorkload(), state, workdir, 0, tally, env, tamper)
        share = tally.failed / tally.attempted
        print(f"{label}: failed_share = {share:.4f} ({tally.failed} of {tally.attempted})"
              + "".join(f"\n    {e}" for e in tally.errors))
        ok = ok and tally.failed == expected
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rd = load_package()
    label = "self-check" if args.self_check else f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = fresh_dir(OUT / "work" / label)
    try:
        if args.self_check:
            return self_check(rd, workdir)
        workload = WORKLOADS[args.workload]
        tally = Tally()
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values, detail, spans = traced_run(workload, rd, workdir, args.seed, tally, names)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            (OUT / f"{label}.spans.jsonl").write_text(
                "".join(json.dumps(s) + "\n" for s in spans))
        else:
            values, detail = timed_run(workload, rd, workdir, args.seed, args.seconds, tally)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed_share = tally.failed / tally.attempted
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(rd), "metrics": metrics,
              "attempted": tally.attempted, "failed": tally.failed,
              "failed_share": failed_share, "errors": tally.errors, "detail": detail}
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1))

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_share = {failed_share:.4g} ({tally.failed} of {tally.attempted} operations)")
    if not args.trace:
        print(f"op_wall_tail_ms is p{detail['tail_percentile']:.4g} of {detail['ops_timed']} "
              f"operations ({detail['tail_samples_beyond']} beyond it)")
    for error in tally.errors:
        print(f"failure: {error}")
    print(f"record: {OUT.relative_to(ROOT) / (label + '.json')}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
