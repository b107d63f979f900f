"""Span tracer installed from outside the library.

Each layer is one tysys module.  The tracer wraps the public functions and
methods named in TRACED and records one span per call: name, start, end,
parent span, operation id, and whether the call returned something other
than None.  Spans stay in flat arrays in memory until the run writes them out.

Several modules bind library functions with ``from ... import``, so a wrapper
is installed in every tysys namespace whose attribute *is* the original
object, and on the class (under every alias, e.g. ``__rmul__ = __mul__``) for
methods.  Anything less silently misses calls.
"""

from __future__ import annotations

import sys
import time
from array import array

# Wrapped callables, as "<module>.<qualname>", mapped to the workloads on
# which each is expected to record calls (the tracer self-test checks this).
_LATTICE = ("lattice_periodic", "lattice_growth")
_CLUSTER = ("cluster_belt", "cluster_correspond")
_ALL = _LATTICE + _CLUSTER
TRACED = {
    "cartan.is_tamely_laced": _LATTICE + ("cluster_correspond",),
    "cartan.new_cartan": _ALL,
    "exactmath.laurent_divide_exact": _CLUSTER,
    "exactmath.SemifieldElement.one_plus": _CLUSTER,
    "exactmath.SemifieldElement.__eq__": ("cluster_belt",),
    "exactmath.RationalFunction.__eq__": _CLUSTER,
    "exactmath.RationalFunction.reduced": _CLUSTER,
    "exactmath.LaurentPoly.__mul__": _CLUSTER,
    "tsystem.t_relation": ("lattice_periodic", "cluster_correspond"),
    "tsystem.m_term": _LATTICE + ("cluster_correspond",),
    "tsystem.enumerate_relations": _LATTICE,
    "tsystem.propagate_t": ("lattice_periodic",),
    "tsystem.check_t_solution": ("lattice_periodic",),
    "tsystem.table_from_json": ("lattice_periodic",),
    "tsystem.ValueTable.dump": ("lattice_periodic",),
    "ysystem.y_relation": _LATTICE,
    "ysystem.propagate_y": _LATTICE,
    "ysystem.check_y_solution": _LATTICE,
    "ysystem.t_to_y": _LATTICE,
    "ysystem.detect_period": ("lattice_periodic",),
    "ysystem.y_to_t": ("lattice_growth",),
    "ysystem.recoverable_region": ("lattice_growth",),
    "ysystem.claim_identities_check": ("lattice_growth",),
    "cluster.mutate_seed": _CLUSTER,
    "cluster.run_sequence": _CLUSTER,
    "cluster.check_x_parity": ("cluster_belt",),
    "cluster.check_y_parity": ("cluster_belt",),
    "cluster.check_tb": ("cluster_belt",),
    "cluster.check_yb": ("cluster_belt",),
    "cluster.laurent_check": ("cluster_belt",),
    "cluster.t_to_y_b": ("cluster_belt",),
    "cluster.correspondence_check": ("cluster_correspond",),
    "cli.main": ("lattice_periodic",),
}

# Per-layer metrics reported by a traced run: (callable, stat).
STATS = [
    ("cartan.is_tamely_laced", "calls"),
    ("cartan.new_cartan", "calls"), ("cartan.new_cartan", "total_s"),
    ("exactmath.laurent_divide_exact", "calls"),
    ("exactmath.laurent_divide_exact", "self_s"),
    ("exactmath.laurent_divide_exact", "hit_ratio"),
    ("exactmath.SemifieldElement.one_plus", "calls"),
    ("exactmath.SemifieldElement.one_plus", "total_s"),
    ("exactmath.SemifieldElement.__eq__", "calls"),
    ("exactmath.SemifieldElement.__eq__", "self_s"),
    ("exactmath.RationalFunction.__eq__", "calls"),
    ("exactmath.RationalFunction.__eq__", "self_s"),
    ("exactmath.RationalFunction.reduced", "calls"),
    ("exactmath.RationalFunction.reduced", "self_s"),
    ("exactmath.LaurentPoly.__mul__", "calls"),
    ("exactmath.LaurentPoly.__mul__", "self_s"),
    ("tsystem.t_relation", "calls"), ("tsystem.t_relation", "self_s"),
    ("tsystem.m_term", "calls"), ("tsystem.m_term", "self_s"),
    ("tsystem.enumerate_relations", "total_s"),
    ("tsystem.propagate_t", "self_s"),
    ("tsystem.check_t_solution", "self_s"),
    ("tsystem.table_from_json", "total_s"),
    ("tsystem.ValueTable.dump", "total_s"),
    ("ysystem.y_relation", "calls"), ("ysystem.y_relation", "self_s"),
    ("ysystem.propagate_y", "self_s"),
    ("ysystem.check_y_solution", "self_s"),
    ("ysystem.t_to_y", "self_s"),
    ("ysystem.detect_period", "self_s"),
    ("ysystem.y_to_t", "self_s"),
    ("ysystem.recoverable_region", "self_s"),
    ("ysystem.claim_identities_check", "self_s"),
    ("cluster.mutate_seed", "calls"), ("cluster.mutate_seed", "self_s"),
    ("cluster.run_sequence", "total_s"),
    ("cluster.check_x_parity", "total_s"),
    ("cluster.check_y_parity", "total_s"),
    ("cluster.check_tb", "total_s"),
    ("cluster.check_yb", "total_s"),
    ("cluster.laurent_check", "total_s"),
    ("cluster.t_to_y_b", "total_s"),
    ("cluster.correspondence_check", "self_s"),
    ("cli.main", "calls"), ("cli.main", "self_s"),
]
UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "hit_ratio": "ratio"}
OVERHEAD = "trace.overhead_s"


def _resolve(qualified):
    module, _, qualname = qualified.partition(".")
    owner = sys.modules[f"tysys.{module}"]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install_everywhere(qualified, make_wrapper):
    """Replace `qualified` by make_wrapper(original) in every namespace that
    binds it.  Returns the list of (namespace, attribute, original) to undo."""
    owner, attr = _resolve(qualified)
    original = vars(owner)[attr]
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        spaces = [owner]
    else:
        spaces = [m for n, m in sorted(sys.modules.items())
                  if n == "tysys" or n.startswith("tysys.")]
    undo = []
    for space in spaces:
        for key, value in list(vars(space).items()):
            if value is original:
                setattr(space, key, wrapper)
                undo.append((space, key, original))
    return undo


def uninstall(undo):
    for space, key, original in reversed(undo):
        setattr(space, key, original)


class Tracer:
    """Spans of one traced pass in flat arrays (ns timestamps)."""

    def __init__(self):
        self.names = list(TRACED)
        self.op = -1
        self._undo = []
        self.reset()

    def reset(self):
        self.name = array("H")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.hit = array("b")
        self._stack = []

    def _wrap(self, index):
        clock = time.perf_counter_ns
        stack = self._stack

        def make(fn):
            name, parent, op_id = self.name, self.parent, self.op_id
            start, end, hit = self.start, self.end, self.hit

            def traced(*args, **kwargs):
                sid = len(name)
                name.append(index)
                parent.append(stack[-1] if stack else -1)
                op_id.append(self.op)
                start.append(0)
                end.append(0)
                hit.append(0)
                stack.append(sid)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[sid] = clock()
                    start[sid] = t0
                    stack.pop()
                if result is not None:
                    hit[sid] = 1
                return result

            traced.__wrapped__ = fn
            return traced

        return make

    def install(self):
        self.reset()
        for index, qualified in enumerate(self.names):
            self._undo += install_everywhere(qualified, self._wrap(index))

    def uninstall(self):
        uninstall(self._undo)
        self._undo = []

    # -- analysis ----------------------------------------------------------

    def child_time(self):
        """Per span, the summed duration of its direct children."""
        child = [0] * len(self.name)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[sid] - self.start[sid]
        return child

    def stats(self):
        """{metric name: value} for every STATS entry, from the spans."""
        child = self.child_time()
        calls = [0] * len(self.names)
        hits = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for sid, idx in enumerate(self.name):
            dur = self.end[sid] - self.start[sid]
            calls[idx] += 1
            hits[idx] += self.hit[sid]
            total[idx] += dur
            own[idx] += dur - child[sid]
        out = {}
        for qualified, stat in STATS:
            i = self.names.index(qualified)
            if stat == "calls":
                value = calls[i]
            elif stat == "hit_ratio":
                value = hits[i] / calls[i] if calls[i] else 0.0
            elif stat == "total_s":
                value = total[i] / 1e9
            else:
                value = own[i] / 1e9
            out[f"{qualified}.{stat}"] = value
        return out, dict(zip(self.names, calls))

    def self_test(self, workload, calls):
        """Problems found in the spans: negative self time, children that
        overlap or leave their parent, and expected layers with no calls."""
        problems = []
        resolution = max(1, round(time.get_clock_info("perf_counter").resolution * 1e9))
        child = self.child_time()
        last_end = {}
        for sid, par in enumerate(self.parent):
            s, e = self.start[sid], self.end[sid]
            if e < s:
                problems.append(f"span {sid} ends before it starts")
            if par >= 0:
                if s < self.start[par] or e > self.end[par]:
                    problems.append(f"span {sid} leaves its parent {par}")
                if s < last_end.get(par, s):
                    problems.append(f"span {sid} overlaps a sibling")
                last_end[par] = e
        for sid in range(len(self.name)):
            own = self.end[sid] - self.start[sid] - child[sid]
            if own < -resolution:
                problems.append(f"span {sid} has self time {own} ns")
            if len(problems) > 20:
                break
        missing = [q for q, where in TRACED.items()
                   if workload in where and not calls.get(q)]
        return problems, missing

    def write(self, path):
        """Spans as tab-separated text, one line each, times in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\treturned\n")
            for sid in range(len(self.name)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.op_id[sid]}\t"
                         f"{self.names[self.name[sid]]}\t{self.start[sid]}\t"
                         f"{self.end[sid]}\t{self.hit[sid]}\n")
