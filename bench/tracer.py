"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of every latgauss module, and the
membership, gauge and slice methods of each body class, with a wrapper that
records one span per call: name, start, end, parent span and operation id.
Spans stay in memory until the run ends. Self time is computed from the
spans afterwards, never inside the wrappers.

A function is patched everywhere it is bound by name. ``minkowski`` imports
``measure_auto``, ``measure_mc``, ``lll_reduce``, ``nth_minimum`` and
``enumerate_coset_in_ball`` into its own globals, and ``gaussian`` calls
``measure_auto`` through its module globals, so every latgauss module whose
namespace holds the original function object gets the wrapper. Methods are
patched on each class that defines them; the span name carries the body
kind of the instance.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# Fields of one span record (a list, for cheap appends inside the wrappers).
NAME, START, END, PARENT, OP, COUNT, TAG, PEAK = range(8)

BODY_KINDS = ("hpolytope", "ball", "axis_box", "halfspace", "ellipsoid")


@dataclass(frozen=True)
class WrapSpec:
    """One function or method to wrap.

    ``name`` may contain ``{kind}``, filled from the body instance of a
    method call. ``count`` maps (args, kwargs, result) to the work done
    (points, patterns); ``tag`` maps (args, kwargs) to a label kept on the
    span; ``peak`` records the tracemalloc peak above the entry level, with
    tracemalloc running only for the duration of the call, so the rest of
    the traced run does not pay for allocation tracing.
    """

    owner: object
    attr: str
    name: str
    count: Callable | None = None
    tag: Callable | None = None
    peak: bool = False


class Tracer:
    """Context manager that installs span wrappers and removes them on exit."""

    def __init__(self, specs: list[WrapSpec]):
        self.specs = specs
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, spec: WrapSpec):
        spans, stack, tracer = self.spans, self._stack, self
        clock = time.perf_counter
        per_kind = "{kind}" in spec.name
        count, tag, peak = spec.count, spec.tag, spec.peak

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = spec.name.format(kind=args[0].kind) if per_kind else spec.name
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0,
                    tag(args, kwargs) if tag else None, 0]
            stack.append(len(spans))
            spans.append(span)
            if peak:
                own = not tracemalloc.is_tracing()
                if own:
                    tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if peak:
                    span[PEAK] = tracemalloc.get_traced_memory()[1] - base
                    if own:
                        tracemalloc.stop()
            if count:
                span[COUNT] = count(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "latgauss" or k.startswith("latgauss."))]
        for spec in self.specs:
            original = spec.owner.__dict__[spec.attr]
            wrapped = self.wrap(original, spec)
            if isinstance(spec.owner, type):
                self._patch(spec.owner, spec.attr, wrapped, original)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped, original)
        return self

    def _patch(self, owner, key, wrapped, original) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def __exit__(self, *exc):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
        return False


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _rows(index, key):
    return lambda args, kwargs, result: len(_arg(args, kwargs, index, key))


def default_specs() -> list[WrapSpec]:
    """Every wrapped function of the six latgauss modules."""
    from latgauss import balancing, cli, convex, gaussian, lattice, minkowski

    specs = [
        WrapSpec(gaussian, "calibrate_scale", "gaussian.calibrate_scale"),
        WrapSpec(gaussian, "mc_fraction", "gaussian.mc_fraction",
                 count=lambda a, k, r: _arg(a, k, 2, "samples")),
        WrapSpec(gaussian, "measure_exact", "gaussian.measure_exact"),
        WrapSpec(gaussian, "measure_auto", "gaussian.measure_auto"),
        WrapSpec(gaussian, "std_normal_quantile", "gaussian.std_normal_quantile"),
        WrapSpec(convex, "minkowski_combination", "convex.minkowski_combination"),
        WrapSpec(convex, "_chebyshev_center", "convex.chebyshev_center"),
        WrapSpec(lattice, "lll_reduce", "lattice.lll_reduce"),
        WrapSpec(lattice, "_enumerate_ball_coeffs", "lattice.enumerate_ball_coeffs"),
        WrapSpec(lattice, "successive_minima", "lattice.successive_minima"),
        WrapSpec(lattice, "closest_vector", "lattice.closest_vector"),
        WrapSpec(lattice, "enumerate_coset_in_ball", "lattice.enumerate_coset_in_ball",
                 count=lambda a, k, r: len(r[0] if isinstance(r, tuple) else r),
                 peak=True),
        WrapSpec(lattice, "covering_radius", "lattice.covering_radius"),
        WrapSpec(minkowski, "generate_certified_body", "minkowski.generate_certified_body",
                 tag=lambda a, k: _arg(a, k, 1, "kind")),
        WrapSpec(minkowski, "random_theta_lattice", "minkowski.random_theta_lattice"),
        WrapSpec(minkowski, "find_coset_point_in_body", "minkowski.find_coset_point_in_body"),
        WrapSpec(minkowski, "check_theorem_instance", "minkowski.check_theorem_instance"),
        WrapSpec(minkowski, "check_lemma_instance", "minkowski.check_lemma_instance"),
        WrapSpec(minkowski, "check_ehrhard", "minkowski.check_ehrhard"),
        WrapSpec(minkowski, "w_profile", "minkowski.w_profile"),
        WrapSpec(balancing, "balance_exhaustive", "balancing.balance_exhaustive",
                 count=lambda a, k, r: 1 << (len(_arg(a, k, 0, "vectors")) - 1)),
        WrapSpec(balancing, "balance_heuristic", "balancing.balance_heuristic"),
        WrapSpec(balancing, "beta_lower_bound_search", "balancing.beta_lower_bound_search"),
        WrapSpec(cli, "main", "cli.main"),
    ]
    for cls in (convex.HPolytope, convex.Ball, convex.AxisBox, convex.Halfspace,
                convex.Ellipsoid, convex.FullSpace, convex.OracleBody):
        specs.append(WrapSpec(cls, "contains_many", "convex.{kind}.contains_many",
                              count=_rows(1, "points")))
        specs.append(WrapSpec(cls, "gauge_many", "convex.{kind}.gauge_many",
                              count=_rows(1, "points")))
        specs.append(WrapSpec(cls, "slice_at", "convex.slice_at"))
    return specs


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Calls are synchronous, so children nest inside their parent and do not
    overlap each other; the covered part is the sum of child durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _ancestor(spans: list[list], i: int, name: str, tag=None) -> int:
    """Index of the nearest ancestor span called ``name`` (and tagged ``tag``), or -1."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name and (tag is None or spans[p][TAG] == tag):
            return p
        p = spans[p][PARENT]
    return -1


def function_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (outermost calls only), self_s, count, peak."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0, "peak_bytes": 0})
    for i, s in enumerate(spans):
        row = table[s[NAME]]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["count"] += s[COUNT]
        row["peak_bytes"] = max(row["peak_bytes"], s[PEAK])
        if _ancestor(spans, i, s[NAME]) < 0:
            row["busy_s"] += s[END] - s[START]
    return dict(table)


def _per_parent(spans, child: str, parent: str, parent_tag=None) -> float:
    """Mean number of ``child`` calls under each ``parent`` span that has any."""
    parents: dict[int, int] = defaultdict(int)
    for i, s in enumerate(spans):
        if s[NAME] == child:
            p = _ancestor(spans, i, parent, parent_tag)
            if p >= 0:
                parents[p] += 1
    return sum(parents.values()) / len(parents) if parents else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# (function name, whether its busy_s is reported). contains_many calls no
# wrapped function, so its busy time equals its self time and is left out
# to keep the reported list within its size limit.
REPORTED_FUNCTIONS = [
    ("gaussian.calibrate_scale", True), ("gaussian.mc_fraction", True),
    ("gaussian.measure_exact", True), ("gaussian.measure_auto", True),
    ("gaussian.std_normal_quantile", True),
    *[(f"convex.{k}.contains_many", False) for k in BODY_KINDS],
    *[(f"convex.{k}.gauge_many", True) for k in BODY_KINDS],
    ("convex.slice_at", True), ("convex.chebyshev_center", True),
    ("convex.minkowski_combination", True),
    ("lattice.lll_reduce", True), ("lattice.enumerate_ball_coeffs", True),
    ("lattice.successive_minima", True), ("lattice.closest_vector", True),
    ("lattice.enumerate_coset_in_ball", True), ("lattice.covering_radius", True),
    ("minkowski.generate_certified_body", True), ("minkowski.random_theta_lattice", True),
    ("minkowski.find_coset_point_in_body", True), ("minkowski.check_theorem_instance", True),
    ("minkowski.check_lemma_instance", True), ("minkowski.check_ehrhard", True),
    ("minkowski.w_profile", True),
    ("balancing.balance_exhaustive", True), ("balancing.balance_heuristic", True),
    ("balancing.beta_lower_bound_search", True),
    ("cli.main", True),
]

DERIVED = {
    "gaussian.mc_fraction.points": "count",
    "gaussian.mc_fraction.points_per_s": "1/s",
    "gaussian.mc_evals_per_calibration": "count",
    **{f"convex.{k}.contains_many.points_per_s": "1/s" for k in BODY_KINDS},
    **{f"convex.{k}.gauge_many.points_per_s": "1/s" for k in BODY_KINDS},
    "lattice.enumerate_coset_in_ball.points": "count",
    "lattice.enumerate_coset_in_ball.points_per_s": "1/s",
    "lattice.enumerate_coset_in_ball.peak_bytes": "B",
    "minkowski.hpolytope_tries_per_body": "count",
    "minkowski.shells_per_search": "count",
    "balancing.balance_exhaustive.patterns": "count",
    "balancing.balance_exhaustive.patterns_per_s": "1/s",
    "cli.records": "count",
    "cli.bytes_out": "B",
    "trace.span_coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric the traced run reports, in order."""
    units: dict[str, str] = {}
    for name, with_busy in REPORTED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        if with_busy:
            units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


def layer_metrics(spans: list[list], op_time_s: float, records: int, bytes_out: int,
                  overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric, zero for functions the workload never called.

    ``op_time_s`` is the summed wall time of the traced operations; span
    coverage is the share of it spent inside library spans (spans with no
    parent, or whose parent is the CLI entry point).
    """
    table = function_table(spans)
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0, "peak_bytes": 0}
    row = lambda name: table.get(name, zero)
    out: dict[str, float] = {}
    for name, with_busy in REPORTED_FUNCTIONS:
        out[f"{name}.calls"] = row(name)["calls"]
        if with_busy:
            out[f"{name}.busy_s"] = row(name)["busy_s"]
        out[f"{name}.self_s"] = row(name)["self_s"]

    mc = row("gaussian.mc_fraction")
    out["gaussian.mc_fraction.points"] = mc["count"]
    out["gaussian.mc_fraction.points_per_s"] = _rate(mc["count"], mc["busy_s"])
    out["gaussian.mc_evals_per_calibration"] = _per_parent(
        spans, "gaussian.mc_fraction", "gaussian.calibrate_scale")
    for kind in BODY_KINDS:
        for method in ("contains_many", "gauge_many"):
            r = row(f"convex.{kind}.{method}")
            out[f"convex.{kind}.{method}.points_per_s"] = _rate(r["count"], r["busy_s"])
    enum = row("lattice.enumerate_coset_in_ball")
    out["lattice.enumerate_coset_in_ball.points"] = enum["count"]
    out["lattice.enumerate_coset_in_ball.points_per_s"] = _rate(enum["count"], enum["busy_s"])
    out["lattice.enumerate_coset_in_ball.peak_bytes"] = enum["peak_bytes"]
    out["minkowski.hpolytope_tries_per_body"] = _per_parent(
        spans, "gaussian.calibrate_scale", "minkowski.generate_certified_body", "hpolytope")
    out["minkowski.shells_per_search"] = _per_parent(
        spans, "lattice.enumerate_coset_in_ball", "minkowski.find_coset_point_in_body")
    exh = row("balancing.balance_exhaustive")
    out["balancing.balance_exhaustive.patterns"] = exh["count"]
    out["balancing.balance_exhaustive.patterns_per_s"] = _rate(exh["count"], exh["busy_s"])
    out["cli.records"] = records
    out["cli.bytes_out"] = bytes_out
    covered = sum(s[END] - s[START] for s in spans
                  if s[NAME] != "cli.main"
                  and (s[PARENT] < 0 or spans[s[PARENT]][NAME] == "cli.main"))
    out["trace.span_coverage"] = min(covered / op_time_s, 1.0) if op_time_s > 0 else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
