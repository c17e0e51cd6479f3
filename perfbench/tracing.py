"""Span tracer for the traced benchmark run.

Hooks replace module attributes that the library looks up at call time
(``implicit.expand_balls``, ``stripes.stripe_mark_line``, methods of
``PlaneStructure`` ...) with wrappers that record one span per call: name,
start, end, parent span and the id of the decide call it belongs to.  Spans
stay in memory in flat arrays and are written once, at the end of the run.

Self time (duration minus the time covered by child spans) and call counts
are accumulated as spans close, so the per-layer metrics need no second pass
over the spans.  Observers attached to a hook derive the paper's counts from
the arguments and results of the wrapped call; their own cost is kept out of
every span's self time and shows up as unattributed time instead.

A hook whose target a later change renames or deletes is reported as absent;
installing never raises for it.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _delta_total(tracer, args, kwargs, result):
    deltas = args[0] if args else kwargs["deltas"]
    tracer.counts["implicit.delta_total"] += sum(len(d) for d in deltas)


def _union_sizes(tracer, args, kwargs, result):
    reps = args[0] if args else kwargs["reps"]
    tracer.counts["intervals.union_in"] += sum(len(rep) for rep in reps)
    tracer.counts["intervals.union_out"] += len(result)


def _interval_total(tracer, args, kwargs, result):
    tracer.counts["explicit.interval_total"] += sum(len(r) for r in result)


def _register_plane(tracer, args, kwargs, result):
    tracer.planes.append(args[0])


def _listed(key):
    def observe(tracer, args, kwargs, result):
        tracer.counts[key] += len(result)
    return observe


# (module, attribute path, span name, observer).  Two attributes may share a
# span name when the library reaches one function under two names.
MODULE_HOOKS = (
    ("kdiam.stripes", "stripe_init", "stripes.init", None),
    ("kdiam.stripes", "stripe_mark_line", "stripes.mark_line", None),
    ("kdiam.stripes", "stripe_list_differences", "stripes.list_differences",
     _listed("stripes.listed_elems")),
    ("kdiam.plane", "PlaneStructure.__init__", "plane.init", _register_plane),
    ("kdiam.plane", "PlaneStructure.mark", "plane.mark", None),
    ("kdiam.plane", "PlaneStructure.list_differences",
     "plane.list_differences", _listed("plane.listed_elems")),
    ("kdiam.implicit", "expand_balls", "implicit.expand_balls", _delta_total),
    ("kdiam.implicit", "simulate_bfs", "implicit.simulate_bfs", None),
    ("kdiam.implicit", "order_from_membership", "order.build", None),
    ("kdiam.order", "order_from_membership", "order.build", None),
    ("kdiam.explicit", "expand_step", "explicit.expand_step", None),
    ("kdiam.explicit", "rebase", "explicit.rebase", _interval_total),
    ("kdiam.intervals", "union_sweep", "intervals.union_sweep", _union_sizes),
    ("kdiam._kernels", "eccentricities", "kernels.eccentricities", None),
    ("kdiam._kernels", "ball_mask", "kernels.ball_mask", None),
    ("kdiam._kernels", "bfs_distances", "kernels.bfs_distances", None),
    ("kdiam.geometry", "intersection_graph_naive",
     "geometry.intersection_graph_naive", None),
    ("kdiam.gen", "intersection_graph_naive",
     "geometry.intersection_graph_naive", None),
)

# Hooks put on each neighbour-set structure the benchmark's factory creates.
INSTANCE_HOOKS = (
    ("add_neighbours", "nsds.add_neighbours", None),
    ("list_differences", "nsds.list_differences",
     _listed("nsds.listed_elems")),
)

# The membership oracle handed to the order construction is wrapped in its
# own span, so its time is excluded from order.build's self time and its
# calls count the membership queries.
MEMBERSHIP_SPAN = "order.membership"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.ncalls: list[int] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        # Plane structures built since the last harvest (their counters are
        # read once the decide call that built them has returned).
        self.planes: list = []
        self.call_id = -1
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.ncalls.append(0)
            self.self_s.append(0.0)
        return nid

    def wrap(self, name: str, fn, observe=None):
        """``fn`` wrapped so that each call records a span called ``name``."""
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        names, parents, callids = (self.span_name, self.span_parent,
                                   self.span_call)
        starts, ends = self.span_start, self.span_end
        ncalls, self_s = self.ncalls, self.self_s
        transform = (self._wrap_membership if name == "order.build"
                     else None)

        def wrapper(*args, **kwargs):
            if transform is not None:
                args, kwargs = transform(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            callids.append(self.call_id)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                ncalls[nid] += 1
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                o0 = clock()
                observe(self, args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - o0
            return result

        return wrapper

    def _wrap_membership(self, args, kwargs):
        if args:
            args = (self.wrap(MEMBERSHIP_SPAN, args[0]),) + args[1:]
        else:
            kwargs = dict(kwargs,
                          membership=self.wrap(MEMBERSHIP_SPAN,
                                               kwargs["membership"]))
        return args, kwargs

    def root(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as the root span of a new call id."""
        self.call_id += 1
        return self.wrap(name, fn)(*args, **kwargs)

    # -- hooks -------------------------------------------------------------

    @contextmanager
    def active(self):
        """Module hooks installed for the duration of the block."""
        for module_name, path, name, observe in MODULE_HOOKS:
            owner, attr = _resolve_owner(module_name, path)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                self.absent.add(name)
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observe))
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def hook_instance(self, obj) -> None:
        """Wrap the neighbour-set operations of one structure instance."""
        for attr, name, observe in INSTANCE_HOOKS:
            method = getattr(obj, attr, None)
            if method is None:
                self.absent.add(name)
                continue
            setattr(obj, attr, self.wrap(name, method, observe))

    def harvest(self, structures) -> None:
        """Add the library's own counters of the structures one decide call
        made (neighbour-set structures and the plane structures under them)
        to the counts, then drop the references."""
        for s in structures:
            for attr in ("add_count", "list_count"):
                self._read_counter(s, attr, f"nsds.{attr}")
            # The hooks reference the structure through its bound methods;
            # dropping them frees it now instead of in a later collection
            # that would land inside some other timed call.
            for attr, _, _ in INSTANCE_HOOKS:
                vars(s).pop(attr, None)
        for p in self.planes:
            self._read_counter(p, "aux_nodes", "plane.aux_nodes")
            per_band = getattr(p, "stripe_node_counters", None)
            if per_band is None:
                self.absent.update(("stripes.mark_nodes", "stripes.list_nodes"))
                continue
            for _marks, mark_nodes, list_nodes in per_band().values():
                self.counts["stripes.mark_nodes"] += mark_nodes
                self.counts["stripes.list_nodes"] += list_nodes
        self.planes.clear()

    def _read_counter(self, obj, attr, key) -> None:
        value = getattr(obj, attr, None)
        if value is None:
            self.absent.add(key)
        else:
            self.counts[key] += value

    # -- results -----------------------------------------------------------

    def span_totals(self) -> dict:
        """{span name: (calls, self seconds)} over every span recorded."""
        return {name: (self.ncalls[i], self.self_s[i])
                for i, name in enumerate(self.names)}

    def dump(self, path) -> int:
        """Write every span to ``path`` (npz); returns the span count."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            call=np.frombuffer(self.span_call, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
        return len(self.span_start)


def _resolve_owner(module_name: str, path: str):
    """(object holding the last attribute, attribute name), or (None, None)
    when the module or an intermediate attribute no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, attr
