"""Per-layer tracing of prymlab from outside the package.

``Tracer.install`` wraps every public function of the library modules and
puts the wrapper in place of every module-level binding of that function in
``prymlab`` and its submodules, so names imported across modules (``prym``
does ``from .lattice import image, ...``) are traced as well. Each call
records a span ``(name, start, end, parent)``; a layer's self time is its
spans' time minus their child spans' time. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time

import numpy as np

LAYERS = ("prym", "surface", "lattice", "cover", "corr", "weyl")

# lattice functions whose output is a constant 0/1 matrix; scanning it for
# coefficient size would only add tracing cost
_NO_BITS = {"lattice.zeros", "lattice.eye"}


def _group(name):
    """Inclusive time counts only the outermost span of a group. Each
    function is its own group, except the fiber-matrix constructors of
    ``corr``, which form ``corr.fiber``."""
    layer, short = name.split(".", 1)
    if layer == "corr" and (
        short.startswith("make_") or short.endswith(("_matrix", "_incidence", "_indicator"))
    ):
        return "corr.fiber"
    return name


def _max_bits(value):
    if isinstance(value, np.ndarray):
        return int(np.abs(value).max()).bit_length() if value.size else 0
    if isinstance(value, tuple):
        return max((_max_bits(v) for v in value if isinstance(v, np.ndarray)), default=0)
    return 0


class Tracer:
    """Span recorder; ``install`` hooks it into the library, ``restore``
    undoes that."""

    def __init__(self):
        self.clock = time.perf_counter
        # finished spans as (index, name, start, end, parent index, self
        # seconds, outermost in its group); tuples, so that the garbage
        # collector stops scanning them
        self.spans = []
        self._stack = []  # open spans: [index, seconds covered by children]
        self._open = {}  # group -> spans of that group on the stack
        self._ids = itertools.count()
        self.extra_s = 0.0  # bookkeeping done between spans (bit scans)
        self.build_keys = []  # (op's root span, datum, orbit) per surface.build_all call
        self.rank_sum = 0
        self.det_max_dim = 0
        self.out_bits_max = 0
        self._bindings = []

    def wrap(self, name, fn):
        """``fn`` recording one span per call under ``name``."""
        group = _group(name)
        observe = self._observer(name)
        stack, spans, open_, clock, ids = (
            self._stack, self.spans, self._open, self.clock, self._ids)
        open_.setdefault(group, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = open_[group]
            open_[group] = depth + 1
            idx = next(ids)
            parent = stack[-1][0] if stack else -1
            entry = [idx, 0.0]
            stack.append(entry)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_[group] = depth
                spans.append((idx, name, start, end, parent, end - start - entry[1], depth == 0))
                if stack:
                    stack[-1][1] += end - start
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _observer(self, name):
        if name == "surface.build_all":
            return self._observe_build
        if name == "lattice.det":
            return self._observe_det
        if name.startswith("lattice.") and name not in _NO_BITS:
            return self._observe_bits
        return None

    def _observe_build(self, args, out):
        op = self._stack[0][0] if self._stack else -1
        self.build_keys.append((op, args[0].datum, args[0].orbit))
        self.rank_sum += out.rank

    def _observe_det(self, args, out):
        self.det_max_dim = max(self.det_max_dim, len(args[0]))

    def _observe_bits(self, args, out):
        t = self.clock()
        self.out_bits_max = max(self.out_bits_max, _max_bits(out))
        seconds = self.clock() - t
        # bookkeeping stays out of the enclosing span's self time
        self.extra_s += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def install(self):
        """Wrap the public functions of every layer module at every
        module-level binding inside the package."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"prymlab.{layer}"]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[value] = self.wrap(f"{layer}.{attr}", value)
        for modname, mod in list(sys.modules.items()):
            if modname != "prymlab" and not modname.startswith("prymlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        return self

    def restore(self):
        for mod, attr, value in reversed(self._bindings):
            setattr(mod, attr, value)
        self._bindings.clear()

    # -- results ---------------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds (outermost in its group)
        and self seconds; per group: inclusive seconds; per layer: self
        seconds."""
        by_name, by_group, by_layer = {}, {}, {}
        for _, name, start, end, _, own, outer in self.spans:
            dur = end - start if outer else 0.0
            calls, incl, own_sum = by_name.get(name, (0, 0.0, 0.0))
            by_name[name] = (calls + 1, incl + dur, own_sum + own)
            group = _group(name)
            by_group[group] = by_group.get(group, 0.0) + dur
            layer = name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + own
        return by_name, by_group, by_layer

    def write_spans(self, path):
        """One JSON line per span, in start order: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, name, start, end, parent, _, _ in sorted(self.spans):
                fh.write(json.dumps([idx, name, start, end, parent]) + "\n")


def layer_metrics(tracer, op_seconds):
    """Per-layer metrics of one traced run; sums are per attempted op."""
    ops = len(op_seconds)
    by_name, by_group, by_layer = tracer.summary()

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0] / ops

    def incl(name):
        return by_group.get(name, 0.0) / ops

    def own(name):
        return by_name.get(name, (0, 0.0, 0.0))[2] / ops

    m = {}
    for layer in ("cli",) + LAYERS:
        m[f"{layer}.self_s"] = (by_layer.get(layer, 0.0) / ops, "s/op")
    builds = len(tracer.build_keys)
    m["surface.build_all.calls"] = (builds / ops, "calls/op")
    # distinct covers built within one op: what a per-datum memo would keep
    distinct = len(set(tracer.build_keys))
    m["surface.build_all.distinct"] = (distinct / ops, "covers/op")
    m["surface.build_all.reuse"] = (distinct / builds if builds else 1.0, "ratio")
    m["surface.build_all.self_s"] = (own("surface.build_all"), "s/op")
    m["surface.induced_map_all.self_s"] = (own("surface.induced_map_all"), "s/op")
    m["surface.induced_map_all.calls"] = (calls("surface.induced_map_all"), "calls/op")
    m["surface.homology_rank.sum"] = (tracer.rank_sum / ops, "rank/op")
    m["lattice.det.s"] = (incl("lattice.det"), "s/op")
    m["lattice.det.calls"] = (calls("lattice.det"), "calls/op")
    m["lattice.det.max_dim"] = (tracer.det_max_dim, "rows")
    for fn in ("image", "saturate", "kernel", "divisors", "solve_exact", "ptype"):
        m[f"lattice.{fn}.s"] = (incl(f"lattice.{fn}"), "s/op")
        m[f"lattice.{fn}.calls"] = (calls(f"lattice.{fn}"), "calls/op")
    m["lattice.out_bits.max"] = (tracer.out_bits_max, "bits")
    for fn in ("prym_tyurin_lattice", "mu_check", "verify_scenario", "probe_trial"):
        m[f"prym.{fn}.self_s"] = (own(f"prym.{fn}"), "s/op")
    m["cover.random_simple.s"] = (incl("cover.random_simple"), "s/op")
    m["cover.induce.s"] = (incl("cover.induce"), "s/op")
    m["cover.components.calls"] = (calls("cover.components"), "calls/op")
    m["weyl.classify_subgroup.s"] = (incl("weyl.classify_subgroup"), "s/op")
    m["corr.fiber.s"] = (incl("corr.fiber"), "s/op")
    wall = sum(op_seconds)
    covered = sum(by_layer.values())
    m["trace.covered_share"] = (covered / wall if wall else 0.0, "ratio")
    m["trace.extra_s"] = (tracer.extra_s / ops, "s/op")
    return m
