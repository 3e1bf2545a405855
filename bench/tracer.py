"""In-memory span tracer for the package's public functions, and per-layer metrics.

`Tracer.install` wraps every public function of the traced layers (and
``cli.main``) in its defining module and in every other ``cspilot`` module
that imported it, so a call site that moves keeps its span.  Spans stay in
memory and are written out once, when the traced run ends.

`layer_metrics` turns spans into ``<module>.<function>.<stat>`` numbers.
It needs only the standard library.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from summary import median, tail

LAYERS = ("channel", "recovery", "simplex", "detection", "pilots", "netsim")
PACKAGE = "cspilot"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int  # 0 for a root span
    run_id: str
    attrs: dict | None


def _lp_attrs(args, kwargs, result):
    a_ub = kwargs["A_ub"] if "A_ub" in kwargs else args[1]
    rows, cols = a_ub.shape
    return {
        "iterations": int(result.iterations),
        "optimal": result.status == "optimal",
        "rows": int(rows),
        "cols": int(cols),
    }


def _mc_attrs(args, kwargs, result):
    return {"trials": int(kwargs["trials"] if "trials" in kwargs else args[1])}


# counts recorded at the layer boundary where the work happens
_ATTR_HOOKS = {
    "simplex.solve_lp": _lp_attrs,
    "netsim.collision_probability_mc": _mc_attrs,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        hook = _ATTR_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = None
                if hook is not None and result is not None:
                    try:
                        attrs = hook(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        attrs = None  # the call's signature changed: counts go missing
                self.spans.append(Span(name, start, end, span_id, parent, self.run_id, attrs))

        return traced

    def install(self) -> None:
        """Wrap public functions of `LAYERS` plus ``cli.main`` wherever they are bound."""
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        cli = importlib.import_module(f"{PACKAGE}.cli")
        if inspect.isfunction(getattr(cli, "main", None)):
            targets[id(cli.main)] = (cli.main, "cli.main")

        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        self.wrapped = {name for _, name in targets.values()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = targets.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, wrappers[id(obj)])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, child_names=None) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans.

    With `child_names`, only children of those names are subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if child_names is None or s.name in child_names:
            children[s.parent_id].append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - covered(children[s.span_id], s.start, s.end)
        for s in spans
    }


def _durations(spans):
    return [s.end - s.start for s in spans]


def _tail_or_zero(values) -> float:
    found = tail(values)
    return found[1] if found is not None else 0.0


def _attr_values(spans, key):
    return [s.attrs[key] for s in spans if s.attrs]


def _pivots(spans, _all):
    return float(sum(_attr_values(spans, "iterations")))


def _pivots_tail(spans, _all):
    return _tail_or_zero(_attr_values(spans, "iterations"))


def _ms_per_pivot(spans, _all):
    pivots = sum(_attr_values(spans, "iterations"))
    return 1e3 * sum(_durations(spans)) / pivots if pivots else 0.0


def _optimal_ratio(spans, _all):
    flags = _attr_values(spans, "optimal")
    return sum(flags) / len(flags) if flags else 0.0


def _computed_mb(spans, _all):
    # dense float64 tableau of (m+1) x (n+m+1); each pivot's rank-1 update
    # reads and writes all of it once.  Computed from shapes, not measured.
    total = 0
    for s in spans:
        if s.attrs:
            m, n = s.attrs["rows"], s.attrs["cols"]
            total += s.attrs["iterations"] * 2 * 8 * (m + 1) * (n + m + 1)
    return total / 1e6


def _placements_per_s(spans, _all):
    busy = sum(_durations(spans))
    return sum(_attr_values(spans, "trials")) / busy if busy else 0.0


def _self_s(spans, all_spans, child_names=None):
    selfs = self_times(all_spans, child_names)
    return sum(selfs[s.span_id] for s in spans)


def _self_minus_lp(spans, all_spans):
    # dantzig_recover's own work: only its simplex child is taken out, so a
    # helper that becomes traced does not move time out of this figure
    return _self_s(spans, all_spans, {"simplex.solve_lp"})


# rules take the function's spans and all spans of the run
_GENERIC = {
    "s": lambda spans, _all: sum(_durations(spans)),
    "calls": lambda spans, _all: float(len(spans)),
    "self_s": _self_s,
    "p50_ms": lambda spans, _all: 1e3 * median(_durations(spans)) if spans else 0.0,
    "tail_ms": lambda spans, _all: 1e3 * _tail_or_zero(_durations(spans)),
    "p50_us": lambda spans, _all: 1e6 * median(_durations(spans)) if spans else 0.0,
}

# metrics whose name is not <module>.<function>.<generic stat>
_SPECIAL = {
    "simplex.solve_lp.pivots": ("simplex.solve_lp", _pivots),
    "simplex.solve_lp.pivots_tail": ("simplex.solve_lp", _pivots_tail),
    "simplex.solve_lp.ms_per_pivot": ("simplex.solve_lp", _ms_per_pivot),
    "simplex.solve_lp.optimal_ratio": ("simplex.solve_lp", _optimal_ratio),
    "simplex.solve_lp.computed_mb": ("simplex.solve_lp", _computed_mb),
    "netsim.placements_per_s": ("netsim.collision_probability_mc", _placements_per_s),
    "recovery.dantzig_recover.self_s": ("recovery.dantzig_recover", _self_minus_lp),
    "cli.self_s": ("cli.main", _self_s),
}

OVERHEAD = "trace.overhead_ratio"


def source_function(metric: str) -> str | None:
    """The traced function a per-layer metric is computed from."""
    if metric == OVERHEAD:
        return None
    if metric in _SPECIAL:
        return _SPECIAL[metric][0]
    function, _, stat = metric.rpartition(".")
    if stat not in _GENERIC:
        raise ValueError(f"no rule computes per-layer metric {metric!r}")
    return function


def layer_metrics(names, spans, wrapped, overhead_ratio: float):
    """Values of the per-layer metrics `names`, plus the functions that are missing.

    A metric whose function was not found to wrap reads 0 and its function
    is listed as missing.  Functions that were wrapped but never called
    read 0 too; they are not missing.
    """
    spans = list(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    values, missing = {}, set()
    for metric in names:
        if metric == OVERHEAD:
            values[metric] = overhead_ratio
            continue
        function = source_function(metric)
        if function not in wrapped:
            missing.add(function)
        rule = _SPECIAL[metric][1] if metric in _SPECIAL else _GENERIC[metric.rpartition(".")[2]]
        values[metric] = float(rule(by_name[function], spans))
    return values, sorted(missing)
