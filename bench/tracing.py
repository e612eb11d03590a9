"""Spans and counters recorded from outside quadder.

The tracer replaces module attributes with wrappers.  A caller that looks
the name up at call time (``netlist.add_batch(...)``, a module-global call
such as ``node_depths`` inside ``measure``, or a method through its class)
goes through the wrapper; a reference captured before installation would
not.  ``analysis`` imports ``build`` by name, so ``analysis.build`` is
wrapped as well as ``builders.build``.

Each wrapped call records a span (id, parent id, layer, job, start, end),
in process CPU seconds like the job times.
A layer's self time is its span's duration minus the durations of its
direct children.  ``qudit`` and ``cells`` are not wrapped: ``evaluate_words``
reaches ``qudit`` through function references held in a table, which a
wrapper installed from outside cannot see, and no hot path uses ``cells``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict


def _gates(nl) -> int:
    return len(nl.gate_nodes())


# (layer, module, attribute path, counter hook).  A hook receives the
# counters, the call's positional arguments and its result.
LAYERS = (
    ("cli.main", "quadder.cli", "main", None),
    ("builders.build", "quadder.builders", "build",
     lambda c, args, out: c.update({"builders.nodes": len(out.nodes)})),
    ("builders.build", "quadder.analysis", "build",
     lambda c, args, out: c.update({"builders.nodes": len(out.nodes)})),
    ("netlist.finish", "quadder.netlist", "NetlistBuilder.finish", None),
    ("netlist.add_batch", "quadder.netlist", "add_batch",
     lambda c, args, out: c.update({"netlist.gate_evals": _gates(args[0]) * len(args[1])})),
    ("netlist.evaluate_words", "quadder.netlist", "evaluate_words", None),
    ("netlist.measure", "quadder.netlist", "measure", None),
    ("netlist.node_depths", "quadder.netlist", "node_depths", None),
    ("netlist.cone", "quadder.netlist", "cone", None),
    ("netlist.count_group", "quadder.netlist", "count_group", None),
    ("netlist.to_json", "quadder.netlist", "to_json",
     lambda c, args, out: c.update({"netlist.json_bytes": len(out)})),
    ("netlist.from_json", "quadder.netlist", "from_json",
     lambda c, args, out: c.update({"netlist.json_bytes": len(args[0])})),
    ("netlist.lower_fanin2", "quadder.netlist", "lower_fanin2",
     lambda c, args, out: c.update({"netlist.lowered_nodes": len(out.nodes)})),
    ("verify.check", "quadder.verify", "check_random",
     lambda c, args, out: c.update({"verify.cases": out.cases_run})),
    ("verify.check", "quadder.verify", "check_exhaustive",
     lambda c, args, out: c.update({"verify.cases": out.cases_run})),
    ("verify.oracle", "quadder.verify", "_oracle_batch", None),
    ("verify.collect_mismatches", "quadder.verify", "_collect_mismatches",
     lambda c, args, out: c.update({"verify.mismatch_records": len(out)})),
    ("verify.report_json", "quadder.verify", "VerifyReport.to_json",
     lambda c, args, out: c.update({"verify.report_bytes": len(out)})),
    ("analysis.compare", "quadder.analysis", "compare",
     lambda c, args, out: c.update({"analysis.rows": 1})),
    ("analysis.notes", "quadder.analysis", "_notes", None),
)

# NetlistBuilder methods counted (not timed) while a build span is open,
# for the intern hit ratio.
BUILDER_ADDS = ("add", "add_input", "add_const")

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

# Layers grouped by the job they do; each workload is designed so that one
# family takes most of its job time.
FAMILIES = {
    "builders": ("builders.build", "netlist.finish"),
    "batch evaluation": ("netlist.add_batch",),
    "scalar evaluation": ("netlist.evaluate_words",),
    "graph analysis": ("netlist.measure", "netlist.node_depths", "netlist.cone",
                       "netlist.count_group"),
    "JSON": ("netlist.to_json", "netlist.from_json"),
    "lowering": ("netlist.lower_fanin2",),
    "verification": ("verify.check", "verify.oracle"),
    "diagnosis": ("verify.collect_mismatches", "verify.report_json"),
    "analysis": ("analysis.compare", "analysis.notes"),
    "cli": ("cli.main",),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs wrappers, records spans and counters, and restores on close."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, layer, job, start, end)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self.job: int | None = None
        self._stack: list[int] = []
        self._open = Counter()
        self._saved: list[tuple] = []

    def install(self) -> None:
        for layer, module, path, hook in LAYERS:
            try:
                owner, attr = _resolve(module, path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{layer} ({module}.{path})")
                continue
            self._patch(owner, attr, self._span_wrapper(layer, fn, hook))
            self.installed.add(layer)
        try:
            builder_cls, _ = _resolve("quadder.netlist", "NetlistBuilder.add")
        except AttributeError:
            self.absent.append("builders.intern_hit_ratio (quadder.netlist.NetlistBuilder)")
            return
        for attr in BUILDER_ADDS:
            fn = getattr(builder_cls, attr, None)
            if fn is None:
                self.absent.append(f"builders.add_calls (NetlistBuilder.{attr})")
            else:
                self._patch(builder_cls, attr, self._count_wrapper(fn))
                self.installed.add("builders.add_calls")

    def close(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, layer, fn, hook):
        spans, stack, counts, opened = self.spans, self._stack, self.counts, self._open

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            opened[layer] += 1
            start = time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                opened[layer] -= 1
                stack.pop()
                spans[sid] = (sid, parent, layer, self.job, start, end)
            if hook is not None:
                hook(counts, args, out)
            return out

        return wrapper

    def _count_wrapper(self, fn):
        counts, opened = self.counts, self._open

        def wrapper(*args, **kwargs):
            counts["trace.count_wrapper_calls"] += 1
            if opened["builders.build"]:
                counts["builders.add_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_totals(self, jobs=None):
        """Per installed layer: [self seconds, calls, total seconds], over
        the spans of the given job ids (all spans when None)."""
        child = defaultdict(float)
        for sid, parent, layer, job, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: [0.0, 0, 0.0] for name in LAYER_NAMES if name in self.installed}
        for sid, parent, layer, job, start, end in self.spans:
            if jobs is not None and job not in jobs:
                continue
            rec = out[layer]
            rec[0] += (end - start) - child[sid]
            rec[1] += 1
            rec[2] += end - start
        return out

