"""Spans recorded from outside the library, around calls into each layer.

`Tracer.install()` swaps each listed public function for a timing
wrapper in every loaded memsosc module that binds it: `design.py`,
`noise.py` and `cli.py` import names with `from .compensation import ...`,
so patching only the defining module would lose their spans.  Spans stay
in memory (one flat array of doubles) and are written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped in the traced run: every public entry
# point the per-layer metrics name, plus the layer boundaries between them.
TRACED = (
    ("bvd", "sweep"),
    ("compensation", "tank_impedance"),
    ("compensation", "find_motional_operating_point"),
    ("compensation", "find_lc_operating_point"),
    ("compensation", "find_operating_point"),
    ("compensation", "_phase_slope_q"),
    ("compensation", "loaded_q"),
    ("compensation", "analyze_tank"),
    ("compensation", "tune_bank"),
    ("design", "_choose_inductor"),
    ("design", "run_design"),
    ("noise", "sensitivity_sweep"),
    ("noise", "noise_factor_components"),
    ("noise", "leeson_phase_noise"),
    ("noise", "fom_physical"),
    ("mna", "parse_netlist"),
    ("mna", "build_system"),
    ("mna", "ac_sweep"),
    ("mna", "driving_point_impedance"),
    ("cli", "main"),
    ("iodoc", "designspec_from_document"),
    ("iodoc", "resolve_resonator"),
    ("iodoc", "resolve_network"),
    ("iodoc", "response_csv"),
    ("engnotation", "parse_eng"),
)

# Per-span record: name id, parent span index, op index, start, end,
# failed flag, and two function-specific counts (see _COUNTS).
_STRIDE = 8


def _points(args, kwargs, result):
    f = kwargs["f"] if "f" in kwargs else args[2]
    return np.size(f), 0


def _lc_mode(args, kwargs, result):
    return (1 if result[2] == "lc_tank" else 0), 0


def _sweep_points(args, kwargs, result):
    return len(result), int(np.count_nonzero(np.isnan(result.values)))


_COUNTS = {
    "compensation.tank_impedance": _points,
    "compensation.find_operating_point": _lc_mode,
    "mna.ac_sweep": _sweep_points,
}

# Per-layer metric -> (span name, statistic).  count_a/count_b are the
# _COUNTS values summed over spans; lc_frac is count_a over calls.
LAYER_METRICS = {
    "compensation.tank_impedance.calls": ("compensation.tank_impedance", "calls"),
    "compensation.tank_impedance.points": ("compensation.tank_impedance", "count_a"),
    "compensation.tank_impedance.self_s": ("compensation.tank_impedance", "self_s"),
    "compensation.find_motional_operating_point.self_s":
        ("compensation.find_motional_operating_point", "self_s"),
    "compensation.find_lc_operating_point.self_s":
        ("compensation.find_lc_operating_point", "self_s"),
    "compensation.find_lc_operating_point.fails":
        ("compensation.find_lc_operating_point", "fails"),
    "compensation.find_operating_point.calls": ("compensation.find_operating_point", "calls"),
    "compensation.find_operating_point.lc_frac":
        ("compensation.find_operating_point", "lc_frac"),
    "compensation._phase_slope_q.calls": ("compensation._phase_slope_q", "calls"),
    "compensation._phase_slope_q.self_s": ("compensation._phase_slope_q", "self_s"),
    "compensation.loaded_q.total_s": ("compensation.loaded_q", "total_s"),
    "compensation.analyze_tank.total_s": ("compensation.analyze_tank", "total_s"),
    "compensation.tune_bank.self_s": ("compensation.tune_bank", "self_s"),
    "design._choose_inductor.self_s": ("design._choose_inductor", "self_s"),
    "design.run_design.self_s": ("design.run_design", "self_s"),
    "design.run_design.fails": ("design.run_design", "fails"),
    "noise.sensitivity_sweep.self_s": ("noise.sensitivity_sweep", "self_s"),
    "noise.noise_factor_components.self_s": ("noise.noise_factor_components", "self_s"),
    "noise.leeson_phase_noise.self_s": ("noise.leeson_phase_noise", "self_s"),
    "noise.fom_physical.self_s": ("noise.fom_physical", "self_s"),
    "mna.parse_netlist.self_s": ("mna.parse_netlist", "self_s"),
    "mna.build_system.calls": ("mna.build_system", "calls"),
    "mna.build_system.self_s": ("mna.build_system", "self_s"),
    "mna.ac_sweep.points": ("mna.ac_sweep", "count_a"),
    "mna.ac_sweep.singular_points": ("mna.ac_sweep", "count_b"),
    "mna.ac_sweep.self_s": ("mna.ac_sweep", "self_s"),
    "mna.driving_point_impedance.calls": ("mna.driving_point_impedance", "calls"),
    "mna.driving_point_impedance.self_s": ("mna.driving_point_impedance", "self_s"),
    "cli.main.calls": ("cli.main", "calls"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "iodoc.designspec_from_document.self_s": ("iodoc.designspec_from_document", "self_s"),
    "iodoc.resolve_resonator.self_s": ("iodoc.resolve_resonator", "self_s"),
    "iodoc.resolve_network.self_s": ("iodoc.resolve_network", "self_s"),
    "iodoc.response_csv.self_s": ("iodoc.response_csv", "self_s"),
    "engnotation.parse_eng.calls": ("engnotation.parse_eng", "calls"),
    "bvd.sweep.self_s": ("bvd.sweep", "self_s"),
}


class Tracer:
    """Collects nested spans for calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.buf = array("d")
        self._stack: list[int] = []
        self.op = -1  # index of the benchmark operation being run
        self.missing: list[str] = []
        self._wrappers: list[tuple[object, object]] = []   # (original, wrapper)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counts=None):
        name_id = len(self.names)
        self.names.append(name)
        buf = self.buf
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = len(buf)
            buf.extend((name_id, stack[-1] if stack else -1, self.op,
                        clock(), 0.0, 0.0, 0.0, 0.0))
            stack.append(base // _STRIDE)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                buf[base + 4] = clock()
                buf[base + 5] = 1.0
                stack.pop()
                raise
            buf[base + 4] = clock()
            stack.pop()
            if counts is not None:
                try:
                    buf[base + 6], buf[base + 7] = counts(args, kwargs, result)
                except (TypeError, IndexError, KeyError, AttributeError):
                    pass                     # a changed signature counts zero
            return result

        return wrapper

    def _build(self) -> None:
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules.get(f"memsosc.{mod_name}"), fn_name, None)
            if original is None:
                self.missing.append(name)
            else:
                self._wrappers.append((original, self._wrap(name, original,
                                                            _COUNTS.get(name))))

    def install(self) -> None:
        """Replace every traced function wherever a memsosc module binds it.

        Names the library no longer defines go to `missing`; their metrics
        read zero.
        """
        if not self._wrappers and not self.missing:
            self._build()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "memsosc" or n.startswith("memsosc."))]
        for original, wrapper in self._wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def records(self):
        """Spans as (name, parent, op, start, end, failed, count_a, count_b)."""
        buf = self.buf
        for base in range(0, len(buf), _STRIDE):
            row = buf[base:base + _STRIDE]
            yield (self.names[int(row[0])], int(row[1]), int(row[2]), row[3],
                   row[4], bool(row[5]), int(row[6]), int(row[7]))

    def write(self, path) -> None:
        """All spans as gzip JSON lines: [index, parent, op, name, start_s,
        end_s, failed, count_a, count_b], times from the first span."""
        t0 = self.buf[3] if self.buf else 0.0
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, op, start, end, failed, a, b) in enumerate(self.records()):
                fh.write(json.dumps([i, parent, op, name, start - t0, end - t0,
                                     failed, a, b]) + "\n")

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, fails, total_s, self_s and summed counts per span name.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap, so their durations
        sum to the time they cover.
        """
        spans = list(self.records())
        child = [0.0] * len(spans)
        for _, parent, _, start, end, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, _, _, start, end, failed, a, b) in enumerate(spans):
            s = out.setdefault(name, dict.fromkeys(
                ("calls", "fails", "total_s", "self_s", "count_a", "count_b"), 0))
            s["calls"] += 1
            s["fails"] += failed
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["count_a"] += a
            s["count_b"] += b
        for s in out.values():
            s["lc_frac"] = s["count_a"] / s["calls"]
        return out


def layer_metrics(agg: dict[str, dict[str, float]]) -> dict[str, float]:
    """Every LAYER_METRICS entry; layers a run never entered read zero."""
    return {metric: agg[name][stat] if name in agg else 0
            for metric, (name, stat) in LAYER_METRICS.items()}
