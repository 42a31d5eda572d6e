"""Tuple dynamic program minimizing formulas over bases of only OR-, only
AND-, or only XOR-functions, for both the literal and the gate measure.

A formula over such a basis is determined by (c, l, n): the constant offset,
the number of relevant distinct variables, and the total number of leaf
occurrences.  Composition acts arithmetically on tuples, so reachability of
(c, l, n) triples over a small table decides minimization.  The search runs
in two phases: compositions first (every state then has a "generic" tree
realization whose relevant variables each label exactly one leaf), then
variable identifications, which commute past compositions and can always be
deferred to the end.  An AND-basis runs the OR program over its dual basis:
a formula's dual has the same tree and relevant variables and the
complemented constant, so only the gate names of the witness change, and no
tree is dualized.

The composition phase is one pass in nondecreasing gate count, in the manner
of Knuth's generalization of Dijkstra's algorithm (Knuth 1977): a gate count
only adds under composition, so a cell is final when it leaves the heap.  A
settled cell grows as a host and as a guest against the cells settled so
far.  At a relevant leaf it takes every *unit*, a cell with at most
max-arity leaves.  At an irrelevant leaf it takes only the first settled
leafless cell (a constant).  A guest with leaves at an irrelevant leaf can
be swapped for a bare variable, which keeps (c, l), does not raise n and
removes at least one gate.  So a cell whose cheapest formula needs such a
guest has a cell with the same (c, l), fewer leaves and fewer gates, which
wins under either measure, and only a leafless guest ever needs to go
there.  The table is therefore the minimum gate count over compositions
whose irrelevant guests are leafless, not over all of them.  Cells are
plain int triples, and a pair's leaf counts are checked before it is
composed, so a pair over the leaf bound is never composed.

min_post stops the pass as soon as its optimum is final, which is exact.
Under gates, once the first cell that can become the target settles with g
gates, every cell it could lose to has at most g gates, and all of those
have settled when the heap holds only cells with more.  Under literals,
every candidate has n >= l >= l_target, so the cell (c_target, l_target,
l_target) is the pick the moment it settles.

Units rather than bare seeds keep the leaf bound exact.  Any tree can be
built from its root by insertions in which leafless subtrees (constants)
travel with their parent gate: a relevant leaf takes a gate with its
leafless arguments filled in, which is a unit, and an irrelevant leaf takes
a leafless subtree.  Every open leaf then ends as a subtree with at least
one leaf, so no intermediate cell has more leaves than the tree, and a cell
within n_bound is reached through cells within it.  (min_post's bound is at
least the largest arity, so the units are built within it too.)  Inserting
bare gates and constants one at a time would pass through cells above the
bound.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Callable, Mapping
from itertools import count

from .classify import classify_basis, function_shape
from .errors import ClassificationError
from .model import BFormula, BoolFunction, Record, SizeMeasure, Step, _validate, formula_size


State = tuple[int, int, int]
Ref = tuple


def _compose(host: State, guest: State, relevant: bool, xor: bool) -> State:
    """The cell of guest substituted for a relevant or an irrelevant leaf of
    host, over an XOR (xor) or an OR basis."""
    c, l, n = host
    n += guest[2] - 1
    if not relevant:
        return (c, l, n)
    if xor:
        return (c ^ guest[0], l + guest[1] - 1, n)
    if c | guest[0]:
        # an OR-composition that turns constant-1 makes every variable irrelevant
        return (1, 0, n)
    return (0, l + guest[1] - 1, n)


def max_leaves(basis: tuple[BoolFunction, ...], k: int) -> int:
    """Largest leaf count of a basis-formula with at most k gates, and so
    the largest count of its variables.

    A tree of g gates with arities a_1..a_g has sum(a_i) - (g - 1) leaf
    slots, maximized by using the largest arity throughout.
    """
    max_arity = max((f.arity for f in basis), default=0)
    if max_arity <= 1 or k == 0:
        return 1
    return k * (max_arity - 1) + 1


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


class ReachTable(Record):
    """Generic-composition reachability: state -> (min gates, back-reference),
    the minimum over compositions whose irrelevant guests are leafless.

    A back-reference is ("var",), ("fn", name), or ("rel" | "irr", host,
    guest): guest inserted at a relevant or an irrelevant leaf of host."""

    cls: str
    states: dict[State, tuple[int, Ref]]


def build_reach_table(
    basis: tuple[BoolFunction, ...],
    cls: str,
    n_bound: int,
    gate_cap: Callable[[int, State], float],
) -> ReachTable:
    """Minimum gate count per (c, l, n) cell with at most n_bound leaves,
    over compositions whose irrelevant guests are leafless, settling cells
    in nondecreasing gate count (Knuth 1977).  A cell that is cheaper only
    through a guest with leaves at an irrelevant leaf shows more gates or is
    absent; the module docstring shows that it is never min_post's pick.  A
    pair whose leaves would exceed n_bound is never composed.

    `gate_cap(g, s)`, asked as each cell s settles with g gates, bounds the
    gates of the cells still needed; the pass stops once every cell within
    the least bound given so far has settled.  A cap of g - 1 stops it at
    once.  Cells leave the heap in nondecreasing gate count, so the table
    settled up to the stop is a prefix of the full one, back-references
    included."""
    xor = cls != "V"
    unit_arity = max((f.arity for f in basis), default=0)
    best: dict[State, int] = {}
    heap: list[tuple[int, State, Ref]] = []

    def offer(state: State, g: int, ref: Ref) -> None:
        known = best.get(state)
        if known is None or g < known:
            best[state] = g
            heapq.heappush(heap, (g, state, ref))

    if n_bound >= 1:
        offer((0, 1, 1), 0, ("var",))
    for f in basis:
        if f.arity <= n_bound:
            shape = function_shape(f)
            c, l = shape.zero_value, len(shape.relevant)
            # an OR that is constant 1 has no relevant variable
            offer((1, 0, f.arity) if c and not xor else (c, l, f.arity), 1, ("fn", f.name))

    states: dict[State, tuple[int, Ref]] = {}
    units: list[tuple[State, int]] = []
    rel_hosts: list[tuple[State, int]] = []
    irr_hosts: list[tuple[State, int]] = []
    leafless: tuple[State, int] | None = None  # the one guest of an irrelevant leaf

    # Partners are met in settle order, and among equal-cost offers of a
    # cell the first keeps its back-reference.  A unit is checked against
    # the leaf bound before anything is composed; a leafless guest always fits.
    cap = math.inf
    while heap and heap[0][0] <= cap:
        g, s, ref = heapq.heappop(heap)
        if s in states:
            continue
        states[s] = (g, ref)
        cap = min(cap, gate_cap(g, s))
        if g > cap:
            break
        _, l, n = s
        room = n_bound + 1 - n  # the most leaves a unit partner of s may have
        if n <= unit_arity:
            units.append((s, g))
        if l >= 1:
            rel_hosts.append((s, g))
            for u, gu in units:
                if u[2] <= room:
                    offer(_compose(s, u, True, xor), g + gu, ("rel", s, u))
        if l < n:
            irr_hosts.append((s, g))
            if leafless is not None:
                v, gv = leafless
                offer(_compose(s, v, False, xor), g + gv, ("irr", s, v))
        elif n == 0 and leafless is None:
            leafless = (s, g)
            for h, gh in irr_hosts:
                offer(_compose(h, s, False, xor), gh + g, ("irr", h, s))
        if n <= unit_arity:
            for h, gh in rel_hosts:
                if h[2] <= room:
                    offer(_compose(h, s, True, xor), gh + g, ("rel", h, s))
    return ReachTable(cls, states)


def _identify_compatible(cls: str, l_state: int, l_target: int) -> bool:
    if l_state == l_target:
        return True
    if l_state < l_target:
        return False
    if cls == "L":
        return (l_state - l_target) % 2 == 0
    return l_target >= 1


def _witness(
    state: State,
    table: ReachTable,
    basis: tuple[BoolFunction, ...],
    gate_names: Mapping[str, str],
    relevant_sorted: list[str],
    avoid: set[str],
) -> tuple[Step, ...]:
    """The post-order steps (see `model`) of the tree that a state's
    back-references describe, its designated (relevant) leaves named after
    the target's relevant variables, and each gate of a basis function f
    named gate_names[f.name].

    One explicit-stack walk over the back-references builds each part once.
    Leaves are integer ids, and `slot` keeps the argument list and index that
    holds each one, so a guest goes into its host's leaf in constant time and
    the host's designated and free leaf queues grow in place.  Only gate
    leaves have a slot: a bare variable is never a host or a guest, since
    composing with its cell (0, 1, 1) gives the partner's own cell at the
    partner's gate count, which `offer` never takes.  The finished tree is
    read off in post-order straight into steps, so no tree node is built.
    """
    cls = table.cls
    arities = {f.name: (f.arity, function_shape(f).relevant) for f in basis}
    leaf_ids = count()
    slot: dict[int, tuple[list, int]] = {}
    # (one-element root box, designated leaves, free leaves) per built part
    parts: list[tuple[list, deque[int], deque[int]]] = []
    stack: list[tuple[State, bool]] = [(state, False)]
    while stack:
        s, expanded = stack.pop()
        ref = table.states[s][1]
        tag = ref[0]
        if tag == "var":
            leaf = next(leaf_ids)
            parts.append(([leaf], deque([leaf]), deque()))
        elif tag == "fn":
            arity, relevant = arities[ref[1]]
            args: list = [next(leaf_ids) for _ in range(arity)]
            for i, leaf in enumerate(args):
                slot[leaf] = (args, i)
            des = deque(a for i, a in enumerate(args) if i in relevant)
            free = deque(a for i, a in enumerate(args) if i not in relevant)
            parts.append(([(gate_names[ref[1]], args)], des, free))
        elif not expanded:
            stack.append((s, True))
            stack.append((ref[2], False))
            stack.append((ref[1], False))
            continue
        else:
            guest_box, guest_des, guest_free = parts.pop()
            _, des, free = parts[-1]
            if tag == "rel":
                leaf = des.popleft()
                des.extend(guest_des)
            else:
                # below an irrelevant leaf every leaf of the guest is irrelevant
                leaf = free.popleft()
                free.extend(guest_des)
            free.extend(guest_free)
            args, i = slot.pop(leaf)
            args[i] = guest_box[0]
        if cls == "V" and s[0] == 1:
            # an OR that is constant 1 has no relevant variable left
            _, des, free = parts[-1]
            free.extend(des)
            des.clear()

    box, des, _ = parts[0]
    names = dict(zip(des, relevant_sorted))
    fresh = (f"z{i}" for i in count() if f"z{i}" not in avoid)
    extras = list(des)[len(relevant_sorted):]
    if cls == "L":
        # extras cancel in pairs, so each pair shares one irrelevant name
        for a, b in zip(extras[::2], extras[1::2]):
            names[a] = names[b] = next(fresh)
    else:
        for leaf in extras:
            names[leaf] = relevant_sorted[-1]

    # pre-order with arguments right to left, reversed: the post-order
    todo: list = [box[0]]
    order: list = []
    while todo:
        node = todo.pop()
        order.append(node)
        if not isinstance(node, int):
            todo.extend(node[1])
    order.reverse()
    return tuple(
        (names[node] if node in names else next(fresh))
        if isinstance(node, int)
        else (node[0], len(node[1]))
        for node in order
    )


class PostStats(Record):
    measure: SizeMeasure
    min_size: int
    tuple: State
    reach_states: int

    def lines(self) -> list[str]:
        c, l, n = self.tuple
        return [
            f"measure={self.measure.value}",
            f"min_size={self.min_size}",
            f"tuple=({c},{l},{n})",
            f"reach_states={self.reach_states}",
        ]


def min_post(
    basis: tuple[BoolFunction, ...], formula: BFormula, measure: SizeMeasure
) -> tuple[int, BFormula, PostStats] | None:
    """Minimum equivalent basis-formula size with a witness, or None when no
    equivalent basis-formula exists inside the table bound (possible when the
    formula was not built from this basis).

    The reach table is settled only until the optimum is final (see the
    module docstring), so `reach_states` counts the cells settled by then.
    An AND-basis runs the OR table over its dual basis."""
    verdict = classify_basis(basis)
    if verdict == "coNP-hard":
        raise ClassificationError(
            "basis mixes OR/AND/XOR shapes; minimization is not polynomial"
        )
    cls = {"P-or": "V", "P-and": "E", "P-xor": "L"}[verdict]
    relevant, c_target = relevant_variables(formula, cls)
    l_target = len(relevant)
    dp_basis = basis
    if cls == "E":
        # the formula's dual has the same relevant variables and constant 1 ^ c
        dp_basis, cls, c_target = tuple(f.dual() for f in basis), "V", 1 ^ c_target
    steps = formula.steps
    n_phi = formula_size(formula, SizeMeasure.LITERALS)
    max_arity = max((f.arity for f in basis), default=0)
    n_bound = max(n_phi, max_arity, max_leaves(basis, len(steps) - n_phi))
    goal = (c_target, l_target, l_target)

    def gate_cap(g: int, s: State) -> float:
        if measure is SizeMeasure.LITERALS:
            # every candidate has n >= l >= l_target, so this cell is the pick
            return g - 1 if s == goal else math.inf
        # the first candidate to settle has the fewest gates
        if s[0] == c_target and _identify_compatible(cls, s[1], l_target):
            return g
        return math.inf

    table = build_reach_table(dp_basis, cls, n_bound, gate_cap)

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

    gate_names = {d.name: f.name for d, f in zip(dp_basis, basis)}
    steps = _witness(state, table, dp_basis, gate_names, sorted(relevant), set(formula.var_names))
    if len(gate_names) != len(basis):
        _validate(basis, steps)  # raises: duplicate function names
    # every gate is a basis function at its arity, and the names are unique
    witness = BFormula._trusted(basis, steps)
    return size, witness, PostStats(measure, size, state, len(table.states))
