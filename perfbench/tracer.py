"""In-memory span and counter recorder that wraps inflate_lab's layer functions.

Spans are recorded only from the benchmark's side: each traced function is
replaced, in every ``inflate_lab`` module that binds it by name, with a
wrapper that opens a span (name, start, end, parent) around the call.  Self
time is the span's duration minus the time covered by its child spans.  The
library itself is not modified and no wrapper changes an argument or a return
value, so traced and untraced runs produce the same outputs.

Per layer the tracer keeps, in memory:

* ``<layer>.calls``: number of calls;
* ``<layer>.s``: busy time, the wall time covered by at least one open span
  of that layer (nested same-layer calls are not counted twice);
* ``<layer>.self_s``: busy time minus the time of child spans;
* named counters (``<layer>.<counter>``) updated from arguments and results.

Raw spans are kept up to ``SPAN_CAP`` per tracer; the rest are counted in
``dropped_spans``.  A traced function that is missing from the library is
listed in ``unbound``, and the metrics it feeds are left out rather than
reported as 0, so a lost binding cannot pass for a gain.  :meth:`Tracer.write`
writes everything out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

SPAN_CAP = 50_000
OPERATOR_NORM = "linear_analysis.operator_norm"
VERTEX_CALLS = OPERATOR_NORM + ".vertex_calls"
SVD_CALLS = OPERATOR_NORM + ".svd_calls"
SAMPLED_CALLS = OPERATOR_NORM + ".sampled_calls"
SAMPLED_S = OPERATOR_NORM + ".sampled_s"
BOXCOUNT = "measure_lab.boxcount"
COVERAGE = "measure_lab.coverage"
CALIBRATION = "measure_lab.calibration"


def _segments(curve) -> int:
    if hasattr(curve, "segment_directions"):
        return int(len(curve.segment_directions))
    return int(getattr(curve, "segment_count", 0))


def _rows(args, kwargs) -> int:
    xs = args[1] if len(args) > 1 else kwargs.get("xs")
    return int(getattr(xs, "shape", (0,))[0])


# -- result hooks: (tracer, frame, args, kwargs, result, duration) -> None ----


def _on_eval(tr, frame, args, kwargs, result, dur):
    tr.counters["normed_space.eval.rows"] += _rows(args, kwargs)


def _on_ball_vertices(tr, frame, args, kwargs, result, dur):
    parent = tr.stack[-1] if tr.stack else None
    if result is not None and parent is not None and parent[1] == OPERATOR_NORM:
        parent[4] = "vertex"


def _on_operator_norm(tr, frame, args, kwargs, result, dur):
    if not getattr(result, "exact", True):
        tr.counters[SAMPLED_CALLS] += 1
        tr.counters[SAMPLED_S] += dur
    elif frame[4] == "vertex":
        tr.counters[VERTEX_CALLS] += 1
    else:
        tr.counters[SVD_CALLS] += 1


def _on_search(tr, frame, args, kwargs, result, dur):
    tr.counters["linear_analysis.inflation_search.certified"] += int(result is not None)


def _on_verify(tr, frame, args, kwargs, result, dur):
    tr.counters["linear_analysis.verify_certificate.certified"] += int(bool(result.verified))


def _on_zigzag(tr, frame, args, kwargs, result, dur):
    tr.counters["constructions.zigzag_curve.segments"] += _segments(result)


# -- counter-only hooks: (tracer, args, kwargs, result) -> None ----------------
# Raster counters belong to the innermost open box count, coverage check or
# calibration; boxes of the calibration square are not counted.  Distinct
# boxes are counted in metrics(), outside every span, so the np.unique they
# need is not charged to a layer's time.


def _count(name: str) -> Callable:
    def hook(tr, args, kwargs, result):
        tr.counters[name] += 1
    return hook


def _on_box_keys(tr, args, kwargs, result):
    if tr.open_owner((COVERAGE, CALIBRATION)) == COVERAGE:
        tr.counters[COVERAGE + ".image_points"] += int(len(result))
        tr.distinct.append((COVERAGE + ".keys", [result]))


def _on_patch_keys(tr, args, kwargs, result):
    if result is not None and tr.open_owner((BOXCOUNT, CALIBRATION)) == BOXCOUNT:
        tr.counters[BOXCOUNT + ".patch_keys"] += int(len(result))


def _on_mass_parts(tr, args, kwargs, result):
    if tr.open_owner((BOXCOUNT, CALIBRATION)) == BOXCOUNT:
        parts = args[0] if args else kwargs["parts"]
        tr.distinct.append((BOXCOUNT + ".keys", [p[0] for p in parts]))


# (module, attribute, layer name, result hook, counters the hook updates)
SPANS = (
    ("normed_space", "_eval_many", "normed_space.eval", _on_eval,
     ("normed_space.eval.rows",)),
    # its hook marks the open operator norm as a vertex-path call
    ("normed_space", "ball_vertices", "normed_space.ball_vertices", _on_ball_vertices,
     (VERTEX_CALLS, SVD_CALLS)),
    ("linear_analysis", "operator_norm_report", OPERATOR_NORM, _on_operator_norm,
     (VERTEX_CALLS, SVD_CALLS, SAMPLED_CALLS, SAMPLED_S)),
    ("linear_analysis", "inflation_search", "linear_analysis.inflation_search", _on_search,
     ("linear_analysis.inflation_search.certified",)),
    ("linear_analysis", "verify_certificate", "linear_analysis.verify_certificate", _on_verify,
     ("linear_analysis.verify_certificate.certified",)),
    ("maximal_volume", "max_volume", "maximal_volume.max_volume", None, ()),
    ("constructions", "zigzag_curve", "constructions.zigzag_curve", _on_zigzag,
     ("constructions.zigzag_curve.segments",)),
    ("constructions", "inflate_on_set", "constructions.inflate_on_set", None, ()),
    ("constructions", "inflate_affine", "constructions.inflate_affine", None, ()),
    ("constructions", "GluedMap.eval_many", "constructions.glue_eval", None, ()),
    ("measure_lab", "_adversarial_search", "measure_lab.adversary", None, ()),
    ("measure_lab", "jacobian_integral", "measure_lab.cell_integrals", None, ()),
    ("measure_lab", "superlevel_fraction", "measure_lab.cell_integrals", None, ()),
    ("measure_lab", "boxcount_image_measure", BOXCOUNT, None, ()),
    ("measure_lab", "coverage_check", COVERAGE, None, ()),
    ("measure_lab", "_calibration", CALIBRATION, None, ()),
    ("cli", "_validate", "cli.validate", None, ()),
    ("cli", "run", "cli.run", None, ()),
)


def _calls(module: str, attr: str, name: str) -> tuple:
    return (module, attr, _count(name), (name,))


# (module, attribute, hook, counters the hook updates): no span
COUNTERS = (
    _calls("constructions", "_inflate_on_grid", "constructions.inflate_on_set.grid_attempts"),
    _calls("maximal_volume", "_rescaled_vol", "maximal_volume.max_volume.rescale_calls"),
    _calls("measure_lab", "_sup_dist_nodes", "measure_lab.adversary.projections"),
    ("measure_lab", "_box_keys", _on_box_keys, (COVERAGE + ".image_points", COVERAGE + ".keys")),
    ("measure_lab", "_affine_patch_keys", _on_patch_keys, (BOXCOUNT + ".patch_keys",)),
    ("measure_lab", "_mass_from_parts", _on_mass_parts, (BOXCOUNT + ".keys",)),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _, _ in SPANS))
COUNTER_NAMES = tuple(dict.fromkeys(
    [name for *_, names in SPANS for name in names]
    + [name for *_, names in COUNTERS for name in names]))


def _layer_metrics(layer: str) -> tuple:
    return (layer + ".calls", layer + ".s", layer + ".self_s")


def _resolve(module, dotted: str):
    owner, _, attr = dotted.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, attr


class Tracer:
    """Span/counter recorder; :meth:`install` wraps, :meth:`uninstall` restores."""

    def __init__(self):
        self.stack: list = []      # frames [id, name, start, child_time, note]
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.open_depth: dict = defaultdict(int)
        self.counters: dict = defaultdict(int)
        self.distinct: list = []   # (counter, key arrays of one call)
        self.spans: list = []      # (id, parent id, name, start, end, job)
        self.dropped_spans = 0
        self.job: Optional[str] = None
        self.unbound: list = []
        self.lost: set = set()     # metrics fed by unbound functions
        self._next_id = 0
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([self._next_id, name, time.perf_counter(), 0.0, None])
        self.open_depth[name] += 1

    def exit(self):
        end = time.perf_counter()
        frame = self.stack.pop()
        span_id, name, start, child, _ = frame
        dur = end - start
        if self.stack:
            self.stack[-1][3] += dur
        stat = self.stats[name]
        stat[0] += 1
        stat[2] += dur - child
        self.open_depth[name] -= 1
        if self.open_depth[name] == 0:
            stat[1] += dur
        if len(self.spans) < SPAN_CAP:
            parent = self.stack[-1][0] if self.stack else 0
            self.spans.append((span_id, parent, name, start, end, self.job))
        else:
            self.dropped_spans += 1
        return frame, dur

    def open_owner(self, names) -> Optional[str]:
        for frame in reversed(self.stack):
            if frame[1] in names:
                return frame[1]
        return None

    def reset(self) -> None:
        """Drop recorded data (keeps the installed wrappers)."""
        self.stats.clear()
        self.counters.clear()
        self.distinct.clear()
        self.spans.clear()
        self.dropped_spans = 0

    # -- wrapping -------------------------------------------------------------

    def _span_wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                frame, dur = self.exit()
            if hook is not None:
                hook(self, frame, args, kwargs, result, dur)
            return result
        return wrapper

    def _count_wrapper(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every binding of each traced function in every inflate_lab module."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "inflate_lab" or key.startswith("inflate_lab."))]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        self.unbound, self.lost = [], set()
        plan = [(mod, attr, lambda fn, n=name, h=hook: self._span_wrapper(fn, n, h),
                 _layer_metrics(name) + names)
                for mod, attr, name, hook, names in SPANS]
        plan += [(mod, attr, lambda fn, h=hook: self._count_wrapper(fn, h), names)
                 for mod, attr, hook, names in COUNTERS]
        for mod_name, dotted, make, feeds in plan:
            module = by_name.get(mod_name)
            try:
                holder, attr = _resolve(module, dotted)
                original = getattr(holder, attr)
            except AttributeError:
                self.unbound.append(f"{mod_name}.{dotted}")
                self.lost.update(feeds)
                continue
            wrapper = make(original)
            if holder is module:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, key, original))
                            setattr(m, key, wrapper)
            else:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: calls, busy and self time, plus every counter.

        Metrics fed by an unbound function are left out.
        """
        out: dict = {}
        for layer in LAYERS:
            calls, busy, self_s = self.stats.get(layer, (0, 0.0, 0.0))
            out.update(zip(_layer_metrics(layer), (calls, busy, self_s)))
        counters = defaultdict(int, self.counters)
        for name, keys in self.distinct:
            if keys:
                counters[name] += int(np.unique(np.concatenate(keys)).size)
        for name in COUNTER_NAMES:
            out[name] = counters[name]
        return {k: v for k, v in out.items() if k not in self.lost}

    def write(self, path: str, header: dict) -> None:
        """Write header, per-layer aggregates and raw spans as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header, "unbound": self.unbound,
                                 "dropped_spans": self.dropped_spans}) + "\n")
            for name, (calls, busy, self_s) in sorted(self.stats.items()):
                fh.write(json.dumps({"layer": name, "calls": calls, "s": busy,
                                     "self_s": self_s}) + "\n")
            metrics = self.metrics()
            for name in COUNTER_NAMES:
                if name in metrics:
                    fh.write(json.dumps({"counter": name, "value": metrics[name]}) + "\n")
            for span_id, parent, name, start, end, job in self.spans:
                fh.write(json.dumps({"span": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "job": job}) + "\n")
