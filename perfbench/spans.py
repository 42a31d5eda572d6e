"""Spans recorded from outside the package: each public layer function is
replaced, for the traced run only, by a wrapper that records name, start,
end, parent span and operation id.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import time
from collections import Counter

# layer -> module -> public functions timed as spans, named `layer.function`.
# `gadgets`, `std` and `cli` are not layers: operations replay the CLI's
# call sequence in-process instead.
LAYERS = {
    "formats": ("formats", ("parse_cnf_formula", "serialize_cnf_formula", "parse_functions",
                            "parse_bformula", "serialize_bformula")),
    "classify": ("classify", ("classify_language", "classify_basis")),
    "ihsb": ("ihsb", ("min_ihsb_cnf", "min_ihsb_minus_cnf", "graph_from_cnf",
                      "unsat_check_ihsb", "min_ihsb", "restrict_vocabulary")),
    "bijunctive": ("bijunctive", ("min_bijunctive", "to_literal_graph")),
    "affine": ("affine", ("min_affine",)),
    "post": ("post", ("min_post", "relevant_variables", "build_reach_table")),
    "oracle": ("oracle", ("brute_min_cnf", "brute_min_bformula", "min_unsat_formula")),
    "model": ("model", ("equivalent", "satisfiable")),
}
# methods timed as model spans: truth tables and dualization
METHODS = (("CnfFormula", "solution_mask", "model.solution_mask"),
           ("CnfFormula", "dual", "model.dual"),
           ("BFormula", "dual", "model.dual"))
# work counts read at span boundaries, with their units
COUNTS = {
    "formats.bytes_in": "bytes",
    "ihsb.passes": "count",
    "ihsb.clauses_removed": "count",
    "bijunctive.literal_edges": "count",
    "bijunctive.forced_literals": "count",
    "affine.rank": "count",
    "post.reach_states": "count",
}
# shorter metric names used by the benchmark's per-layer metrics
RENAME = {
    "formats.parse_cnf_formula": "formats.parse_cnf",
    "formats.serialize_cnf_formula": "formats.serialize_cnf",
    "ihsb.unsat_check_ihsb": "ihsb.unsat_check",
}


def span_names() -> list[str]:
    names = [RENAME.get(f"{layer}.{fn}", f"{layer}.{fn}")
             for layer, (_, fns) in LAYERS.items() for fn in fns]
    return names + sorted({name for _, _, name in METHODS})


def _count(counts: Counter, name: str, args, result) -> None:
    """Work counts read at the span boundary from arguments and results."""
    if name in ("formats.parse_cnf", "formats.parse_bformula"):
        counts["formats.bytes_in"] += len(args[0].encode())
    elif name == "ihsb.min_ihsb":
        counts["ihsb.passes"] += result[1]
    elif name == "ihsb.min_ihsb_cnf":
        stats = result[1]
        counts["ihsb.clauses_removed"] += stats.input_clauses - stats.output_clauses
    elif name == "bijunctive.to_literal_graph":
        counts["bijunctive.literal_edges"] += len(result.edges)
        counts["bijunctive.forced_literals"] += len(result.forced)
    elif name == "affine.min_affine":
        counts["affine.rank"] += result[1].rank or 0
    elif name == "post.build_reach_table":
        counts["post.reach_states"] += len(result.states)


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, op id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.op_id))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)
            _count(self.counts, name, args, result)
            return result

        return traced

    def install(self, bm) -> None:
        """Wrap every listed function wherever the package holds a reference
        to it (modules import each other's functions by name)."""
        modules = [m for m in vars(bm).values() if hasattr(m, "__name__")]
        for layer, (module_name, fns) in LAYERS.items():
            for fn_name in fns:
                original = getattr(getattr(bm, module_name), fn_name)
                name = RENAME.get(f"{layer}.{fn_name}", f"{layer}.{fn_name}")
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
        for cls_name, method, name in METHODS:
            cls = getattr(bm.model, cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (self seconds, calls).  Self time is the span's
        duration minus its children's; one thread, so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            busy, calls = out.get(name, (0.0, 0))
            out[name] = (busy + (end - start) - child_time[i], calls + 1)
        return out
