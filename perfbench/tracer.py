"""In-memory span recorder wrapped around caslab's public layer functions.

`Tracer.install` replaces each traced function in every caslab module that
holds a reference to it, so calls through names bound on import (``plates``
imports ``enumerate_modes``, ``regulated_trace`` and ``finite_part`` by name)
are recorded as well.  Spans keep their parent's index; self time is a span's
duration minus the durations of its direct children.  Work counts are
attached to the span that did the work.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

MODULES = (
    "specfun",
    "riesz",
    "spectrum",
    "heattrace",
    "stochastic",
    "boxint",
    "plates",
    "acceptance",
    "harness",
)

_DRAW_BATCH = 1 << 16  # rows of stochastic.mc_estimate's draw matrix


def _count_enumerate(args, kwargs, stream):
    return {"modes": stream.mode_count, "distinct_values": len(stream.values)}


def _count_theta(args, kwargs, result):
    return {"theta_terms": result.terms}


def _count_mc(args, kwargs, estimate):
    spec = args[0] if args else kwargs["spec"]
    n_modes = spec.stream.mode_count
    return {
        "draws": estimate.n * n_modes,
        "batch_bytes": _DRAW_BATCH * n_modes * 8,
    }


def _count_pairs(args, kwargs, estimate):
    return {"mc_pairs": estimate.n}


def _count_fit(args, kwargs, model):
    return {"cond": model.condition_number}


# traced layer name -> (module, attribute, work counter)
TARGETS = {
    "specfun.theta_eval": ("specfun", "theta_eval", _count_theta),
    "riesz.momentum_integral": ("riesz", "momentum_integral", None),
    "riesz.schwinger_integral": ("riesz", "schwinger_integral", None),
    "riesz.mollified_reduction": ("riesz", "mollified_reduction", None),
    "riesz.two_step_chain": ("riesz", "two_step_chain", None),
    "spectrum.enumerate_modes": ("spectrum", "enumerate_modes", _count_enumerate),
    "heattrace.regulated_trace": ("heattrace", "regulated_trace", None),
    "heattrace.mixed_cell_heat_trace": ("heattrace", "mixed_cell_heat_trace", None),
    "heattrace.short_time_coefficients": ("heattrace", "short_time_coefficients", None),
    "heattrace.b_coefficient": ("heattrace", "b_coefficient", None),
    "heattrace.finite_part": ("heattrace", "finite_part", _count_fit),
    "stochastic.sample_U": ("stochastic", "sample_U", None),
    "stochastic.mc_estimate": ("stochastic", "mc_estimate", _count_mc),
    "boxint.cell_overlap_energy": ("boxint", "cell_overlap_energy", None),
    "boxint.delta_quadrature": ("boxint", "_delta_quadrature", None),
    "boxint.delta_mc": ("boxint", "_delta_monte_carlo", _count_pairs),
    "boxint.log_concavity_scan": ("boxint", "log_concavity_scan", None),
    "boxint.positivity_chain": ("boxint", "positivity_chain", None),
    "plates.per_area_trace": ("plates", "per_area_trace", None),
    "plates.finite_box_trace": ("plates", "finite_box_trace", None),
    "plates.theta_bar": ("plates", "theta_bar", None),
}

# counters summed per round, except those listed in _MAXIMA
_MAXIMA = {"batch_bytes", "cond"}


class Tracer:
    """Spans as [name, start, end, parent, counts] lists, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                self.spans[index][4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function wherever a caslab module binds it."""
        modules = [importlib.import_module(f"caslab.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        for name, (module, attr, counter) in TARGETS.items():
            original = getattr(by_name[module], attr)
            traced = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by another process under span `parent`.

        time.perf_counter is the system-wide monotonic clock on Linux, so
        the child's timestamps share the parent's time base.
        """
        base = len(self.spans)
        for name, start, end, p, counts in spans:
            self.spans.append([name, start, end, parent if p < 0 else p + base, counts])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def rounds(self, root: str = "round") -> list[dict]:
        """Per-layer calls, self time and work counts for each `root` span."""
        n = len(self.spans)
        child_time = [0.0] * n
        owner = [-1] * n
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                owner[i] = owner[parent]
            if name == root:
                owner[i] = i
        per_round = {
            i: {"calls": defaultdict(int), "self_s": defaultdict(float),
                "total_s": defaultdict(float), "counts": defaultdict(float)}
            for i, span in enumerate(self.spans)
            if span[0] == root
        }
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            if owner[i] < 0 or name == root:
                continue
            agg = per_round[owner[i]]
            agg["calls"][name] += 1
            agg["self_s"][name] += (end - start) - child_time[i]
            agg["total_s"][name] += end - start
            for key, value in (counts or {}).items():
                if key in _MAXIMA:
                    agg["counts"][key] = max(agg["counts"][key], value)
                else:
                    agg["counts"][key] += value
        return [per_round[k] for k in sorted(per_round)]


def median_over(rounds: list[dict], kind: str, key: str) -> float:
    """Median over rounds of one aggregate; 0 when no round recorded it."""
    if not rounds:
        return 0.0
    return float(statistics.median(r[kind].get(key, 0) for r in rounds))
