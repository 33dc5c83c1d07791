"""In-memory spans around the package's public functions.

The tracer replaces each traced function by a wrapper in every loaded
``radoppler`` module that refers to it, so a call is caught wherever the
name is looked up (``radoppler.cli.ra_transform`` as well as
``radoppler.ra_core.find_corners``) and spans nest cmd -> ra_transform ->
find_corners. Spans stay in memory; ``dump`` writes them once.

Counts recorded next to a span are either measured (file sizes, input
lengths) or computed from shapes; ``COMPUTED`` names the computed ones.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

COMPUTED = {
    "splits": "(zero_index - 1) * (bins - 2 - zero_index) candidate splits scored",
    "madds": "2 * frames * (half + 1) * M multiply-adds of the two rebin products",
}


def _size(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.exists() else 0


def _with_meta(path) -> int:
    return _size(path) + _size(str(path) + ".meta")


def _cube_payload(path) -> Path:
    path = Path(path)
    return path if path.suffix == ".iq" else path.with_suffix(".iq")


def _axis_of_spec(args, kwargs, result):
    return args[0].num_freq_bins


# name -> (axis tag, counts); each a function of (args, kwargs, result)
TARGETS = {
    "simulator.synthesize": (None, lambda a, k, r: {"scatterers": len(a[0].scatterers)}),
    "ingest.load_radar_cube": (None, lambda a, k, r: {"bytes": _size(_cube_payload(a[0]))}),
    "ingest.write_radar_cube": (None, lambda a, k, r: {"bytes": _size(r)}),
    "ingest.load_matrix": (None, lambda a, k, r: {"bytes": _size(a[0])}),
    "ingest.write_matrix": (None, lambda a, k, r: {"bytes": _size(r)}),
    "ingest.load_config": (None, None),
    "preprocess.range_transform": (None, None),
    "preprocess.clutter_filter": (None, None),
    "linspec.stft_spectrogram": (None, None),
    "linspec.save_spectrogram": (None, lambda a, k, r: {"bytes": _with_meta(r)}),
    "linspec.load_spectrogram": (None, lambda a, k, r: {"bytes": _with_meta(a[0])}),
    "ra_core.energy_profile": (_axis_of_spec, None),
    "ra_core.find_corners": (
        lambda a, k, r: a[0].e.size,
        lambda a, k, r: {"splits": (a[0].zero_index - 1) * (a[0].e.size - 2 - a[0].zero_index)},
    ),
    "ra_core.build_filter_bank": (lambda a, k, r: 2 * int(a[1]), None),
    "ra_core.ra_transform": (
        _axis_of_spec,
        lambda a, k, r: {"madds": 2 * r.power.shape[0] * (a[0].num_freq_bins // 2 + 1)
                         * r.num_filters},
    ),
    "ra_core.save_ra_spectrogram": (
        lambda a, k, r: 2 * int(a[0].bank.f_max),
        lambda a, k, r: {"bytes": _with_meta(r)},
    ),
    "tracker.peak_track": (None, None),
    "tracker.kalman_smooth": (None, lambda a, k, r: {"steps": len(a[0])}),
    "tracker.track_signature": (None, None),
    "tracker.write_track_csv": (None, lambda a, k, r: {"bytes": _size(r)}),
    "cli.cmd_simulate": (None, None),
    "cli.cmd_spectrogram": (None, None),
    "cli.cmd_ra": (None, None),
    "cli.cmd_track": (None, None),
}

# tracemalloc runs only inside these spans, which report its peak
PEAK_MEMORY = {"ra_core.find_corners"}


class Tracer:
    """Collects spans (name, start, end, parent, op id) and their counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, tag_of, counts_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            memory = name in PEAK_MEMORY and not tracemalloc.is_tracing()
            if memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if memory:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
            if tag_of is not None:
                span["axis"] = tag_of(args, kwargs, result)
            if counts_of is not None:
                span.update(counts_of(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function wherever a radoppler module holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "radoppler" or key.startswith("radoppler.")]
        for name, (tag_of, counts_of) in TARGETS.items():
            module, attr = name.split(".")
            if f"radoppler.{module}" not in sys.modules:
                continue
            original = getattr(sys.modules[f"radoppler.{module}"], attr)
            wrapper = self._wrap(name, original, tag_of, counts_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self) -> None:
        """Set each span's duration and self time (duration minus children)."""
        for span in self.spans:
            span["ms"] = (span["end"] - span["start"]) * 1e3
            span["self_ms"] = span["ms"]
        for span in self.spans:
            if span["parent"] is not None:
                self.spans[span["parent"]]["self_ms"] -= span["ms"]

    def dump(self, path) -> None:
        Path(path).write_text("".join(json.dumps(s) + "\n" for s in self.spans))


def summarize(spans) -> dict[str, dict]:
    """Per (name, axis) group: call count plus medians of times and counts."""
    groups: dict[str, list[dict]] = {}
    for span in spans:
        key = span["name"] + (f".f{span['axis']}" if "axis" in span else "")
        groups.setdefault(key, []).append(span)
    out = {}
    for key, members in groups.items():
        fields = [f for f in members[0] if f not in
                  ("id", "name", "op", "parent", "start", "end", "axis")]
        out[key] = {"calls": len(members)}
        out[key].update({f: statistics.median(s[f] for s in members) for f in fields})
    return out


def layer_value(summary, metric: str) -> float:
    """Value of a per-layer metric named ``<module>.<function>[.f<axis>].<field>``.

    A function this run never called reports 0.
    """
    key, _, field = metric.rpartition(".")
    group = summary.get(key)
    return float(group[field]) if group else 0.0
