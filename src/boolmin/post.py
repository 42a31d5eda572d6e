"""Tuple dynamic program minimizing formulas over bases of only OR-, only
AND-, or only XOR-functions, for both the literal and the gate measure.

A formula over such a basis is determined by (c, l, n): the constant offset,
the number of relevant distinct variables, and the total number of leaf
occurrences.  Composition acts arithmetically on tuples, so reachability of
(c, l, n) triples over a small table decides minimization.  The search runs
in two phases: compositions first (every state then has a "generic" tree
realization whose relevant variables each label exactly one leaf), then
variable identifications, which commute past compositions and can always be
deferred to the end.  AND-bases are handled by duality.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .classify import classify_basis, function_shape
from .errors import ClassificationError
from .model import (
    BApp,
    BFormula,
    BNode,
    BoolFunction,
    BVar,
    SizeMeasure,
    count_gates,
    count_literals,
    substitute,
)


@dataclass(frozen=True)
class FuncTuple:
    """(constant, relevant variable count, leaf occurrences, gate count)."""

    c: int
    l: int
    n: int
    g: int


def _star(cls: str, a: int, b: int) -> int:
    return a | b if cls == "V" else a ^ b


def _normalize(cls: str, c: int, l: int, n: int) -> tuple[int, int, int]:
    # an OR-composition that turns constant-1 makes every variable irrelevant
    if cls == "V" and c == 1:
        return (1, 0, n)
    return (c, l, n)


def tuple_compose(t1: FuncTuple, t2: FuncTuple, mode: str, cls: str = "V") -> FuncTuple:
    """Substitute t2 for a relevant (mode="relevant") or irrelevant
    (mode="irrelevant") leaf of t1."""
    if mode == "relevant":
        if t1.l < 1:
            raise ValueError("relevant composition needs a relevant variable")
        c, l, n = _normalize(cls, _star(cls, t1.c, t2.c), t1.l + t2.l - 1, t1.n + t2.n - 1)
        return FuncTuple(c, l, n, t1.g + t2.g)
    if mode == "irrelevant":
        if t1.l >= t1.n:
            raise ValueError("irrelevant composition needs an irrelevant occurrence")
        return FuncTuple(t1.c, t1.l, t1.n + t2.n - 1, t1.g + t2.g)
    raise ValueError(f"unknown composition mode {mode!r}")


def tuple_identify(t: FuncTuple, cls: str) -> FuncTuple:
    """Identify two relevant variables; XOR identification cancels both."""
    if t.l < 2:
        raise ValueError("identification needs two relevant variables")
    delta = 2 if cls == "L" else 1
    return FuncTuple(t.c, t.l - delta, t.n, t.g)


def relevant_variables(formula: BFormula, cls: str) -> tuple[frozenset[str], int]:
    """Relevant variables by unit-vector probes, plus the constant offset.

    V and L probe against the all-zero baseline; E is the dual case and
    probes against all ones.
    """
    for f in formula.functions:
        shape = function_shape(f)
        ok = {"V": shape.or_function, "E": shape.and_function, "L": shape.xor_function}[cls]
        if not ok:
            raise ClassificationError(f"function {f.name} is outside class {cls}")
    # one evaluation over n + 1 columns: column 0 is the baseline and
    # column j + 1 flips variable j
    names = formula.var_names
    full = (1 << (len(names) + 1)) - 1
    flip = full if cls == "E" else 0
    columns = {name: flip ^ (2 << j) for j, name in enumerate(names)}
    values = formula.mask(columns, full)
    c = values & 1
    relevant = {name for j, name in enumerate(names) if (values >> (j + 1)) & 1 != c}
    return frozenset(relevant), c


State = tuple[int, int, int]
Ref = tuple


@dataclass(frozen=True)
class ReachTable:
    """Generic-composition reachability: state -> (min gates, back-reference)."""

    cls: str
    states: dict[State, tuple[int, Ref]]


def build_reach_table(
    basis: tuple[BoolFunction, ...], cls: str, n_bound: int
) -> ReachTable:
    """Close the seed tuples under relevant/irrelevant composition, keeping
    the minimum gate count per (c, l, n) cell."""
    states: dict[State, tuple[int, Ref]] = {}

    def offer(state: State, g: int, ref: Ref) -> bool:
        if state[2] > n_bound or state[1] > state[2]:
            return False
        known = states.get(state)
        if known is None or g < known[0]:
            states[state] = (g, ref)
            return True
        return False

    offer((0, 1, 1), 0, ("var",))
    for f in basis:
        shape = function_shape(f)
        seed = _normalize(cls, shape.zero_value, len(shape.relevant), f.arity)
        offer(seed, 1, ("fn", f.name))

    changed = True
    while changed:
        changed = False
        items = list(states.items())
        for s1, (g1, _) in items:
            t1 = FuncTuple(*s1, g1)
            for s2, (g2, _) in items:
                t2 = FuncTuple(*s2, g2)
                if t1.l >= 1:
                    t = tuple_compose(t1, t2, "relevant", cls)
                    if offer((t.c, t.l, t.n), t.g, ("rel", s1, s2)):
                        changed = True
                if t1.l < t1.n:
                    t = tuple_compose(t1, t2, "irrelevant", cls)
                    if offer((t.c, t.l, t.n), t.g, ("irr", s1, s2)):
                        changed = True
    return ReachTable(cls, states)


def _identify_compatible(cls: str, l_state: int, l_target: int) -> bool:
    if l_state == l_target:
        return True
    if l_state < l_target:
        return False
    if cls == "L":
        return (l_state - l_target) % 2 == 0
    return l_target >= 1


def _realize(state: State, table: ReachTable, basis, namer) -> tuple[BNode, list[str]]:
    """Generic tree for a state: every designated (relevant) variable labels
    exactly one leaf, all leaf names fresh and distinct."""
    g, ref = table.states[state]
    if ref[0] == "var":
        name = next(namer)
        return BVar(name), [name]
    if ref[0] == "fn":
        f = basis[ref[1]]
        shape = function_shape(f)
        args = [next(namer) for _ in range(f.arity)]
        if state[0] == 1 and table.cls == "V":
            designated = []
        else:
            designated = [args[i] for i in sorted(shape.relevant)]
        return BApp(f.name, tuple(BVar(a) for a in args)), designated
    _, s1, s2 = ref
    node1, des1 = _realize(s1, table, basis, namer)
    node2, des2 = _realize(s2, table, basis, namer)
    if ref[0] == "rel":
        target = des1[0]
        node = substitute(node1, {target: node2})
        designated = des1[1:] + des2
    else:
        leaves: list[str] = []
        _leaf_names(node1, leaves)
        target = next(name for name in leaves if name not in set(des1))
        node = substitute(node1, {target: node2})
        designated = des1
    if table.cls == "V" and state[0] == 1:
        designated = []
    return node, designated


def _leaf_names(node: BNode, out: list[str]) -> None:
    if isinstance(node, BVar):
        out.append(node.name)
    else:
        for a in node.args:
            _leaf_names(a, out)


@dataclass(frozen=True)
class PostStats:
    measure: SizeMeasure
    min_size: int
    tuple: State

    def lines(self) -> list[str]:
        c, l, n = self.tuple
        return [
            f"measure={self.measure.value}",
            f"min_size={self.min_size}",
            f"tuple=({c},{l},{n})",
        ]


def _finish_witness(
    node: BNode,
    designated: list[str],
    relevant_sorted: list[str],
    cls: str,
    avoid: set[str],
) -> BNode:
    l_target = len(relevant_sorted)
    mapping: dict[str, BNode] = {}
    for i, name in enumerate(designated[:l_target]):
        mapping[name] = BVar(relevant_sorted[i])
    fresh = (f"z{i}" for i in count() if f"z{i}" not in avoid)
    extras = designated[l_target:]
    if cls == "L":
        # extras cancel in pairs, so each pair shares one irrelevant name
        for i in range(0, len(extras), 2):
            z = BVar(next(fresh))
            mapping[extras[i]] = z
            mapping[extras[i + 1]] = z
    else:
        for name in extras:
            mapping[name] = BVar(relevant_sorted[-1])
    leaves: list[str] = []
    _leaf_names(node, leaves)
    for name in leaves:
        if name not in mapping:
            mapping[name] = BVar(next(fresh))
    return substitute(node, mapping)


def min_post(
    basis: tuple[BoolFunction, ...], formula: BFormula, measure: SizeMeasure
) -> tuple[int, BFormula, PostStats] | None:
    """Minimum equivalent basis-formula size with a witness, or None when no
    equivalent basis-formula exists inside the table bound (possible when the
    formula was not built from this basis)."""
    verdict = classify_basis(basis)
    if verdict == "coNP-hard":
        raise ClassificationError(
            "basis mixes OR/AND/XOR shapes; minimization is not polynomial"
        )
    if verdict == "P-and":
        dual = min_post(tuple(f.dual() for f in basis), formula.dual(), measure)
        if dual is None:
            return None
        size, witness, stats = dual
        return size, witness.dual(), stats
    cls = "V" if verdict == "P-or" else "L"

    relevant, c_target = relevant_variables(formula, cls)
    l_target = len(relevant)
    n_phi = count_literals(formula.root)
    g_phi = count_gates(formula.root)
    max_arity = max((f.arity for f in basis), default=0)
    n_bound = max(n_phi, max_arity, 1)
    if max_arity >= 2:
        n_bound = max(n_bound, g_phi * (max_arity - 1) + 1)
    table = build_reach_table(basis, cls, n_bound)

    best: tuple[int, State] | None = None
    for (c, l, n), (g, _) in table.states.items():
        if c != c_target or not _identify_compatible(cls, l, l_target):
            continue
        size = n if measure is SizeMeasure.LITERALS else g
        if best is None or size < best[0] or (size == best[0] and (c, l, n) < best[1]):
            best = (size, (c, l, n))
    if best is None:
        return None
    size, state = best

    namer = (f"_t{i}" for i in count())
    basis_by_name = {f.name: f for f in basis}
    node, designated = _realize(state, table, basis_by_name, namer)
    witness_root = _finish_witness(
        node, designated, sorted(relevant), cls, set(formula.var_names)
    )
    witness = BFormula(basis, witness_root)
    return size, witness, PostStats(measure, size, state)


def gate_lower_bound(relevant_count: int, max_arity: int) -> int:
    """Connected-tree counting bound: g gates of arity at most m reach at
    most g*(m-1)+1 distinct inputs."""
    if relevant_count <= 1:
        return 0
    if max_arity <= 1:
        raise ValueError("no multi-input connective available")
    return -(-(relevant_count - 1) // (max_arity - 1))
