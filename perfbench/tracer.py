"""Outside-in layer tracing of ``herbrand`` for the benchmark's traced run.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper that
records a span (name, parent span, start, end) in flat arrays kept in memory,
in every ``herbrand`` module that holds a reference to it (``from .x import
f`` copies the name into the importing module). A name that no longer exists
is skipped, so the tracer survives refactors that delete or move it.
``uninstall`` restores every original. ``summary`` reduces the spans once, at
the end of the run: a span's self time is its duration minus the durations
of its direct children (single-threaded, so children never overlap).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

# (defining module, attribute, span name). Several attributes may share a
# span name; ``Partition`` is traced through its constructor.
LAYERS = (
    ("cli", "main", "cli.main"),
    ("program", "parse_program", "program.parse_program"),
    ("terms", "build_universe", "terms.build_universe"),
    ("congruence", "Partition", "congruence.Partition"),
    ("congruence", "meet", "congruence.meet"),
    ("congruence", "partitions_equal", "congruence.partitions_equal"),
    ("transfer", "assign_transfer", "transfer.assign_transfer"),
    ("transfer", "nondet_transfer", "transfer.nondet_transfer"),
    ("dataflow", "solve", "dataflow.solve"),
    ("dataflow", "solve_jacobi", "dataflow.solve"),
    ("dataflow", "solve_worklist", "dataflow.solve"),
    ("dataflow", "composite_step", "dataflow.composite_step"),
    ("mop", "mop_table", "mop.mop_table"),
    ("mop", "verify_mop_mfp", "mop.verify_mop_mfp"),
    ("report", "emit_report", "report.emit_report"),
    ("report", "render_json", "report.render_json"),
)

ASSIGN = "transfer.assign_transfer"
NONDET = "transfer.nondet_transfer"
SOLVE = "dataflow.solve"
MOP_TABLE = "mop.mop_table"
MEET = "congruence.meet"


def self_times(names, parents, starts, ends) -> dict[str, list]:
    """``{name: [calls, self seconds]}`` from flat span arrays.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, name in enumerate(names):
        agg = out[name]
        agg[0] += 1
        agg[1] += ends[i] - starts[i] - child[i]
    return dict(out)


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.active: Counter = Counter()
        self.iterations = 0
        self.statement_transfers = 0
        # frontier bookkeeping for mop_table: the values met into the
        # per-node running meet and the nodes whose successors are expanded
        # come in the same order, one level at a time
        self.frontier_entries = 0
        self.distinct_states = 0
        self._level_values: list = []
        self._level_nodes: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name: str):
        tracer = self
        perf = time.perf_counter
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        name_id = self._name_id(name)
        if name == ASSIGN:
            atom_id = self._name_id(f"{ASSIGN}.atom_rhs")
            pair_id = self._name_id(f"{ASSIGN}.pair_rhs")

        def wrapper(*args, **kwargs):
            span_id = name_id
            if name == ASSIGN:
                beta = args[2] if len(args) > 2 else kwargs.get("beta")
                span_id = pair_id if hasattr(beta, "left") else atom_id
            if before is not None:
                before(tracer, args)
            idx = len(tracer.starts)
            tracer.names.append(span_id)
            tracer.parents.append(tracer.stack[-1])
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            tracer.active[name] += 1
            tracer.starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf()
                tracer.stack.pop()
                tracer.active[name] -= 1
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _top(self) -> str | None:
        top = self.stack[-1]
        return self.span_names[self.names[top]] if top >= 0 else None

    def _add_iterations(self, result) -> None:
        if self.active[SOLVE] == 0:  # outermost solver call only
            self.iterations += getattr(result, "iterations", 0)

    def _count_transfer(self, args) -> None:
        # statement transfers made by a solver; nondet's inner assigns are
        # part of its one statement
        if self.active[SOLVE] and not self.active[NONDET]:
            self.statement_transfers += 1

    def _frontier_meet(self, args) -> None:
        if self._top() == MOP_TABLE:
            if self._level_nodes:
                self._flush_level()
            self.frontier_entries += 1
            self._level_values.append(args[1] if len(args) > 1 else None)

    def _flush_level(self, result=None) -> None:
        values, nodes = self._level_values, self._level_nodes
        if len(values) == len(nodes):
            self.distinct_states += len(set(zip(nodes, values)))
        else:
            self.distinct_states += len(set(values))
        self._level_values, self._level_nodes = [], []

    def _wrap_succ(self, fn):
        tracer = self

        def succ(graph, k):
            if tracer._top() == MOP_TABLE:
                tracer._level_nodes.append(k)
            return fn(graph, k)

        return succ

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "herbrand" or n.startswith("herbrand.")]
        for module_name, attr, name in LAYERS:
            home = sys.modules.get(f"herbrand.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            if isinstance(original, type):
                init = original.__init__
                self._patch(original, "__init__", self._wrap(init, name))
                continue
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        dataflow = sys.modules.get("herbrand.dataflow")
        graph_type = getattr(dataflow, "FlowGraph", None)
        if graph_type is not None and hasattr(graph_type, "succ"):
            self._patch(graph_type, "succ", self._wrap_succ(graph_type.succ))

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Totals over every recorded span and counter."""
        names = [self.span_names[i] for i in self.names]
        agg = self_times(names, self.parents, self.starts, self.ends)
        out: dict[str, float] = {}
        for name in self.span_names:
            calls, self_s = agg.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for kind in ("calls", "self_s"):
            parts = (out.get(f"{ASSIGN}.{rhs}.{kind}", 0) for rhs in ("atom_rhs", "pair_rhs"))
            out[f"{ASSIGN}.{kind}"] = sum(parts)
        out["layers.self_s"] = sum(s for _, s in agg.values())
        out["dataflow.iterations"] = self.iterations
        out["dataflow.statement_transfers"] = self.statement_transfers
        out["mop.frontier_entries"] = self.frontier_entries
        out["mop.distinct_states"] = self.distinct_states
        return out


# Counters kept at span boundaries: called with the call's arguments before
# it, or with its result after it.
_BEFORE = {
    ASSIGN: Tracer._count_transfer,
    NONDET: Tracer._count_transfer,
    MEET: Tracer._frontier_meet,
}
_AFTER = {
    SOLVE: Tracer._add_iterations,
    MOP_TABLE: Tracer._flush_level,
}
