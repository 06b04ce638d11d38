"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces every public ``wld`` function, in every module
namespace that binds it, with a wrapper that records a span (trace id, span
id, parent span, name, start, end) and updates per-function counters.  Names
imported with ``from ... import`` are separate bindings of the same function
object, so all of them are replaced by one wrapper; calls through a module
attribute (``dg.arcs``, ``invariants.hom_count``) and calls between functions
of one module (through its globals) are caught as well.  ``uninstall()``
puts the originals back, so untraced runs carry no wrapper at all.

Self time is a span's duration minus the time its child spans cover.  The
process is single-threaded, so children never overlap and no layer waits on
another.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

MODULES = ("wld", "wld.cli", "wld.classify", "wld.invariants", "wld.algebra",
           "wld.diagram", "wld.moves", "wld.arrows")


class Tracer:
    def __init__(self):
        self.names = []
        self.stats = {}        # name -> [calls, total_s, self_s, errors, depth]
        self.counts = {"invariants.simplify_presentation.gens_out": 0,
                       "moves.find_sites.sites": 0}
        self.stack = []        # [span id, child seconds] of the open spans
        self.trace_id = -1
        self.span_trace = array("i")
        self.span_parent = array("i")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._saved = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid, start):
        sid = len(self.span_start)
        self.span_trace.append(self.trace_id)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [sid, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame, stats, end, failed):
        self.stack.pop()
        sid, child = frame
        dur = end - self.span_start[sid]
        self.span_end[sid] = end
        stats[0] += 1
        stats[2] += dur - child
        stats[3] += failed
        stats[4] -= 1
        if stats[4] == 0:      # count nested calls of one function once
            stats[1] += dur
        if self.stack:
            self.stack[-1][1] += dur

    def wrap(self, name, fn, post=None):
        nid = self._name_id(name)
        stats = self.stats[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats[4] += 1
            frame = self._open(nid, clock())
            failed = 1
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                self._close(frame, stats, clock(), failed)
            if post is not None:
                post(result)
            return result

        return traced

    def op(self, trace_id, run):
        """Run one benchmark operation as the root span of its trace."""
        self.trace_id = trace_id
        try:
            return self._op(run)
        finally:
            # an alarm that lands inside a wrapper's own bookkeeping can
            # leave a frame open or a depth raised; start the next
            # operation clean
            if self.stack:
                self.stack.clear()
            for stats in self.stats.values():
                stats[4] = 0

    # -- installation ------------------------------------------------------

    def install(self):
        self._op = self.wrap("op", lambda run: run())
        posts = {"invariants.simplify_presentation": self._count_gens,
                 "moves.find_sites": self._count_sites}
        wrappers = {}
        for modname in MODULES:
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("wld.")
                        or value.__name__.startswith("_")):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__[len('wld.'):]}.{value.__name__}"
                    wrappers[id(value)] = self.wrap(name, value, posts.get(name))
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _count_gens(self, pres):
        self.counts["invariants.simplify_presentation.gens_out"] += pres.ngens

    def _count_sites(self, sites):
        self.counts["moves.find_sites.sites"] += len(sites)

    # -- results -----------------------------------------------------------

    def layer_table(self):
        """name -> {calls, total_s, self_s, errors} for every wrapped function."""
        return {name: {"calls": s[0], "total_s": s[1], "self_s": s[2], "errors": s[3]}
                for name, s in sorted(self.stats.items())}

    def write_spans(self, path):
        """Gzipped tab-separated spans: trace, span, parent, name, start_s,
        end_s.  Returns the number of spans."""
        with gzip.open(path, "wt") as fh:
            fh.write("trace\tspan\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{self.span_trace[sid]}\t{sid}\t{self.span_parent[sid]}\t"
                         f"{self.names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n")
        return len(self.span_start)
