"""Long-lived API caller of the ra_batch workload.

    python3 batch_worker.py WORKDIR OUT.json --seconds S
    python3 batch_worker.py WORKDIR OUT.json --cycles C --trace

Reads the item list that set-up wrote to WORKDIR/items.json and runs
load_spectrogram -> ra_transform -> save_ra_spectrogram -> track_signature
on one item after another, timing each item. Outputs are checked after
the timed region: an item whose RA file and raw peaks match an earlier,
fully checked result of the same input passes by equality; any other
result gets the full reference checks. With --trace, each cycle over
the items runs once untraced and once traced, which gives the tracing
overhead; the spans go to OUT.json.spans.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import LOG_FLOOR, Tally, guarded


def run_item(rd, item, out_path):
    spec = rd.linspec.load_spectrogram(item["spec"])
    ra = rd.ra_core.ra_transform(spec, num_filters=item["M"])
    rd.ra_core.save_ra_spectrogram(ra, out_path)
    return rd.tracker.track_signature(ra.power, ra.warped_axis_hz(), ra.time_axis)


def check_item(item, out_path, track, verified: set) -> list[str]:
    blob = Path(out_path).read_bytes() + Path(str(out_path) + ".meta").read_bytes()
    key = (item["spec"], hashlib.sha256(blob).hexdigest(), track.raw_peaks.tobytes())
    if key in verified:
        return []
    meta = checks.read_kv(str(out_path) + ".meta")
    power = checks.read_matrix(out_path)
    errors = checks.check_ra(checks.read_matrix(item["spec"]), power, meta, LOG_FLOOR)
    errors += checks.check_peaks(power, checks.ra_axis(meta), track.raw_peaks)
    if not errors:
        verified.add(key)
    return errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--cycles", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import radoppler.linspec
    import radoppler.ra_core
    import radoppler.tracker
    rd = sys.modules["radoppler"]

    items = json.loads((args.workdir / "items.json").read_text())
    out_dir = args.workdir / "out"
    out_dir.mkdir(exist_ok=True)
    tally, verified = Tally(), set()
    latencies, untraced, traced = [], [], []
    tracer = tracing.Tracer()

    def one(index, sink):
        item = items[index % len(items)]
        out_path = out_dir / f"item{index % len(items)}.bin"
        start = time.perf_counter()
        try:
            track = run_item(rd, item, out_path)
        except Exception as exc:  # a failing item is counted, the batch goes on
            tally.record(item["spec"], [f"{type(exc).__name__}: {exc}"])
            return
        sink.append(time.perf_counter() - start)
        tally.record(item["spec"], guarded(lambda: check_item(item, out_path, track, verified)))

    if args.trace:
        for cycle in range(args.cycles):
            for index in range(len(items)):
                one(index, untraced)
            tracer.op = f"cycle{cycle}"
            with tracer:
                for index in range(len(items)):
                    one(index, traced)
        tracer.self_times()
        tracer.dump(str(args.out) + ".spans.jsonl")
    else:
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < args.seconds:
            one(index, latencies)
            index += 1

    args.out.write_text(json.dumps({
        "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
        "latencies_s": latencies, "untraced_s": untraced, "traced_s": traced,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
