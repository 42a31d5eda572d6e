import heapq
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

import pytest

from boolmin import post
from boolmin.classify import classify_basis, function_shape
from boolmin.errors import ClassificationError, FormatError
from boolmin.formats import parse_bformula, serialize_bformula
from boolmin.model import (
    BFormula,
    BoolFunction,
    SizeMeasure,
    all_assignments,
    dualize,
    equivalent,
    formula_size,
    substitute,
)
from boolmin.oracle import brute_min_bformula
from boolmin.post import (
    PostStats,
    ReachTable,
    Ref,
    State,
    _compose,
    _identify_compatible,
    _witness,
    build_reach_table,
    min_post,
    relevant_variables,
)
from boolmin.std import fn_and, fn_const, fn_or, fn_xor

from conftest import assert_steps, gate_lower_bound, random_bformula, random_btree


OR2D = BoolFunction("or2d", 3, tuple(int(a or b) for a, b, _ in all_assignments(3)))
XOR2D = BoolFunction("xor2d", 3, tuple(b ^ c for _, b, c in all_assignments(3)))


@dataclass(frozen=True)
class FuncTuple:
    """(constant, relevant variable count, leaf occurrences, gate count)."""

    c: int
    l: int
    n: int
    g: int


def tuple_compose(t1: FuncTuple, t2: FuncTuple, mode: str, cls: str = "V") -> FuncTuple:
    """Substitute t2 for a relevant (mode="relevant") or irrelevant
    (mode="irrelevant") leaf of t1."""
    if mode == "relevant":
        if t1.l < 1:
            raise ValueError("relevant composition needs a relevant variable")
    elif mode == "irrelevant":
        if t1.l >= t1.n:
            raise ValueError("irrelevant composition needs an irrelevant occurrence")
    else:
        raise ValueError(f"unknown composition mode {mode!r}")
    c, l, n = _compose((t1.c, t1.l, t1.n), (t2.c, t2.l, t2.n), mode == "relevant", cls != "V")
    return FuncTuple(c, l, n, t1.g + t2.g)


def test_tuple_compose_rules():
    # OR class: substituting into a relevant slot merges both tuples
    t = tuple_compose(FuncTuple(0, 2, 2, 1), FuncTuple(0, 2, 2, 1), "relevant", "V")
    assert (t.c, t.l, t.n, t.g) == (0, 3, 3, 2)
    # irrelevant substitution leaves c and l alone
    t = tuple_compose(FuncTuple(0, 1, 2, 1), FuncTuple(0, 1, 1, 0), "irrelevant", "V")
    assert (t.c, t.l, t.n) == (0, 1, 2)
    # XOR class: constants add mod 2
    t = tuple_compose(FuncTuple(1, 2, 2, 1), FuncTuple(1, 2, 2, 1), "relevant", "L")
    assert (t.c, t.l, t.n) == (0, 3, 3)
    # OR class turning constant-1 loses all relevant variables
    t = tuple_compose(FuncTuple(0, 2, 2, 1), FuncTuple(1, 0, 1, 1), "relevant", "V")
    assert (t.c, t.l) == (1, 0)
    with pytest.raises(ValueError):
        tuple_compose(FuncTuple(0, 0, 1, 1), FuncTuple(0, 1, 1, 0), "relevant", "V")
    with pytest.raises(ValueError):
        tuple_compose(FuncTuple(0, 2, 2, 1), FuncTuple(0, 1, 1, 0), "irrelevant", "V")


def test_relevant_variables():
    or2 = fn_or(2)
    f = parse_bformula("(or2 x (or2 x y))", (or2,))
    rel, c = relevant_variables(f, "V")
    assert rel == frozenset({"x", "y"}) and c == 0
    xor2 = fn_xor(2)
    g = parse_bformula("(xor2 x x)", (xor2,))
    rel, c = relevant_variables(g, "L")
    assert rel == frozenset() and c == 0
    and2 = fn_and(2)
    h = parse_bformula("(and2 x y)", (and2,))
    rel, c = relevant_variables(h, "E")
    assert rel == frozenset({"x", "y"}) and c == 1
    with pytest.raises(ClassificationError):
        relevant_variables(h, "V")


def test_min_post_examples():
    or2, or3, xor2, and2 = fn_or(2), fn_or(3), fn_xor(2), fn_and(2)
    phi = parse_bformula("(or2 x (or2 x y))", (or2,))
    size, witness, stats = min_post((or2,), phi, SizeMeasure.LITERALS)
    assert size == 2 and equivalent(witness, phi)
    assert stats.lines()[1] == "min_size=2"

    phi = parse_bformula("(or3 x y y)", (or3,))
    size, witness, _ = min_post((or3,), phi, SizeMeasure.LITERALS)
    assert size == 3 and equivalent(witness, phi)

    phi = parse_bformula("(xor2 x x)", (xor2,))
    size, witness, _ = min_post((xor2,), phi, SizeMeasure.GATES)
    assert size == 1 and equivalent(witness, phi)

    phi = parse_bformula("(and2 x (and2 y x))", (and2,))
    size, witness, _ = min_post((and2,), phi, SizeMeasure.LITERALS)
    assert size == 2 and equivalent(witness, phi)


def test_min_post_with_constants():
    or2, c0 = fn_or(2), fn_const(0)
    phi = parse_bformula("(or2 x (or2 x y))", (or2, c0))
    size, witness, _ = min_post((or2, c0), phi, SizeMeasure.LITERALS)
    assert size == 2 and equivalent(witness, phi)
    # a constant-0 leaf lets a bare irrelevant occurrence disappear
    phi2 = parse_bformula("(or2 x (const0))", (or2, c0))
    size2, witness2, _ = min_post((or2, c0), phi2, SizeMeasure.LITERALS)
    assert size2 == 1 and equivalent(witness2, phi2)


def test_min_post_rejects_mixed_basis():
    with pytest.raises(ClassificationError):
        min_post((fn_and(2), fn_xor(2)), BFormula((fn_and(2), fn_xor(2)), ("x",)), SizeMeasure.LITERALS)


def test_min_post_unreachable_target():
    # x xor y cannot be built from xor3 alone (parity of relevant count is odd)
    xor3, xor2 = fn_xor(3), fn_xor(2)
    phi = parse_bformula("(xor2 x y)", (xor2,))
    assert min_post((xor3,), phi, SizeMeasure.LITERALS) is None


def test_min_post_matches_oracle_small():
    rng = random.Random(61)
    bases = [
        (fn_or(2),), (fn_or(3),), (fn_xor(2),), (fn_and(2),),
        (fn_or(2), fn_const(0)), (fn_or(2), fn_const(1)),
        (fn_xor(2), fn_const(1)), (fn_and(2), fn_const(0)),
    ]
    for basis in bases:
        for _ in range(15):
            phi = random_bformula(basis, rng, rng.randint(1, 5))
            for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
                res = min_post(basis, phi, measure)
                assert res is not None
                size, witness, _ = res
                assert equivalent(witness, phi)
                assert formula_size(witness, measure) == size
                oracle = brute_min_bformula(basis, phi, measure, 6)
                assert oracle is not None and oracle[0] == size


def closure_reference(basis, cls, n_bound, any_irrelevant_guest=False):
    """Min gates per (c, l, n): every pairwise composition, in rounds until
    no cell improves.  An irrelevant leaf takes only a leafless guest, as in
    build_reach_table, unless any_irrelevant_guest is set."""
    states = {(0, 1, 1): 0}
    for f in basis:
        shape = function_shape(f)
        c, l = shape.zero_value, len(shape.relevant)
        seed = (1, 0, f.arity) if cls == "V" and c == 1 else (c, l, f.arity)
        if seed[2] <= n_bound:
            states[seed] = min(1, states.get(seed, 1))
    changed = True
    while changed:
        changed = False
        items = [FuncTuple(*s, g) for s, g in states.items()]
        for t1 in items:
            modes = [m for m, ok in (("relevant", t1.l >= 1), ("irrelevant", t1.l < t1.n)) if ok]
            for t2 in items:
                for mode in modes:
                    if mode == "irrelevant" and t2.n and not any_irrelevant_guest:
                        continue
                    t = tuple_compose(t1, t2, mode, cls)
                    s = (t.c, t.l, t.n)
                    if t.n <= n_bound and t.l <= t.n and t.g < states.get(s, t.g + 1):
                        states[s] = t.g
                        changed = True
    return states


def random_post_function(rng, cls, name):
    """An OR (cls "V") or XOR (cls "L") of a random subset of 0..3
    arguments, with a random constant offset."""
    arity = rng.randint(0, 3)
    c = rng.randint(0, 1)
    rel = [i for i in range(arity) if rng.random() < 0.7]
    if cls == "V":
        table = tuple(c | any(t[i] for i in rel) for t in all_assignments(arity))
    else:
        table = tuple((c + sum(t[i] for i in rel)) % 2 for t in all_assignments(arity))
    return BoolFunction(name, arity, tuple(int(v) for v in table))


def never_stop(g, s):
    """A gate cap that lets build_reach_table settle the whole table."""
    return math.inf


def min_gates(basis, cls, n_bound):
    table = build_reach_table(basis, cls, n_bound, never_stop)
    return {s: g for s, (g, _) in table.states.items()}


def closure_cases():
    """(basis, cls, n_bound): 40 seeded random bases, then a 2D state space
    (the dummy argument makes l < n reachable), a constant inside a gate
    (some cells are reached only by inserting a unit, a gate with its
    constant argument, at a relevant leaf) and constants of two arities
    beside or3 (a cell is offered again after it settled, and the stale
    heap entry is skipped)."""
    rng = random.Random(73)
    for _ in range(40):
        cls = rng.choice("VL")
        basis = tuple(random_post_function(rng, cls, f"f{i}") for i in range(rng.randint(1, 3)))
        yield basis, cls, rng.randint(1, 24)
    yield (fn_or(2), OR2D), "V", 32
    yield (fn_const(0), XOR2D), "L", 7
    yield (fn_or(3), fn_const(1), BoolFunction("zero1", 1, (0, 0))), "V", 3


def test_reach_table_matches_pairwise_closure():
    for basis, cls, n_bound in closure_cases():
        assert min_gates(basis, cls, n_bound) == closure_reference(basis, cls, n_bound)


def test_reach_table_dominates_unrestricted_closure():
    # a cell that is cheaper only through a guest with leaves at an
    # irrelevant leaf loses, under either measure, to a kept cell with the
    # same (c, l), fewer leaves and fewer gates
    dominated = 0
    for basis, cls, n_bound in closure_cases():
        table = min_gates(basis, cls, n_bound)
        full = closure_reference(basis, cls, n_bound, any_irrelevant_guest=True)
        assert table.keys() <= full.keys()
        for (c, l, n), g in full.items():
            if table.get((c, l, n)) != g:
                dominated += 1
                assert any(
                    (c2, l2) == (c, l) and n2 < n and g2 < g
                    for (c2, l2, n2), g2 in table.items()
                )
    assert dominated >= 100


def test_no_back_reference_composes_a_bare_variable():
    # composing with the cell (0, 1, 1) gives the partner's own cell at the
    # partner's gate count, which is never taken: `_witness` gives a bare
    # variable no slot
    var = (0, 1, 1)
    for basis, cls, n_bound in closure_cases():
        table = build_reach_table(basis, cls, n_bound, never_stop)
        assert table.states[var] == (0, ("var",))
        assert all(var not in ref[1:] for _, ref in table.states.values())


def balanced_or_tree(leaves):
    """Group a level into or3 gates (or2 where a pair is left) until one
    root remains; leaves and result are post-order steps."""
    level = list(leaves)
    while len(level) > 1:
        nxt = []
        while level:
            k = 2 if len(level) in (2, 4) else min(3, len(level))
            group, level = level[:k], level[k:]
            nxt.append(group[0] if k == 1 else sum(group, ()) + ((f"or{k}", k),))
        level = nxt
    return level[0]


def test_min_post_deep_witness():
    n = 3000
    basis = (fn_or(2), fn_or(3))
    names = [f"x{i}" for i in range(n)]
    phi = BFormula(basis, balanced_or_tree((v,) for v in names))
    for measure, expected in (
        (SizeMeasure.LITERALS, n),
        (SizeMeasure.GATES, gate_lower_bound(n, 3)),
    ):
        size, witness, stats = min_post(basis, phi, measure)
        assert size == expected
        assert formula_size(witness, measure) == size
        assert relevant_variables(witness, "V") == (frozenset(names), 0)
        assert stats.lines()[-1] == f"reach_states={stats.reach_states}"


def test_min_post_duality():
    # the AND run gives the dual of the OR run's witness, and its tuple; the
    # last two AND bases hold fn_const(0) and fn_const(1)
    rng = random.Random(67)
    or23 = (fn_or(2), fn_or(3))
    for or_basis in (or23, or23 + (dualize(fn_const(0)),), or23 + (dualize(fn_const(1)),)):
        dual_basis = tuple(dualize(f) for f in or_basis)
        for _ in range(20):
            phi = random_post_formula(or_basis, rng, rng.randint(1, 5))
            dual_phi = dualize(phi)
            for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
                a = min_post(or_basis, phi, measure)
                b = min_post(dual_basis, dual_phi, measure)
                assert a is not None and b is not None
                assert a[0] == b[0]
                assert serialize_bformula(b[1]) == serialize_bformula(dualize(a[1]))
                assert b[2].tuple == a[2].tuple


def test_gate_lower_bound():
    assert gate_lower_bound(1, 2) == 0
    assert gate_lower_bound(4, 2) == 3
    assert gate_lower_bound(7, 3) == 3
    assert gate_lower_bound(6, 3) == 3
    rng = random.Random(71)
    basis = (fn_or(2), fn_or(3))
    for _ in range(20):
        phi = random_bformula(basis, rng, rng.randint(2, 6))
        res = min_post(basis, phi, SizeMeasure.GATES)
        rel, _ = relevant_variables(phi, "V")
        if res is not None and len(rel) >= 2:
            assert res[0] >= gate_lower_bound(len(rel), 3)


def test_min_post_dummy_argument_chain():
    # f(f(x0, x1, x0), x2, x0)... over f(x, y, z) = x or y: the dummy
    # argument makes l < n reachable, but an irrelevant leaf takes only a
    # leafless guest and the basis has none, so one cell settles per gate
    # count; 2000 variables would take minutes if the pass met every cell
    # of the 2D (l, n) space
    f = BoolFunction("f", 3, tuple(int(a or b) for a, b, _ in all_assignments(3)))
    for n in (100, 2000):
        steps = ["x0"]
        for i in range(1, n):
            steps += [f"x{i}", "x0", ("f", 3)]
        phi = BFormula((f,), steps)
        # g gates of f hold 2g + 1 leaves, so the literal minimum is 2(n - 1) + 1
        for measure, expected in ((SizeMeasure.GATES, n - 1), (SizeMeasure.LITERALS, 2 * n - 1)):
            size, witness, stats = min_post((f,), phi, measure)
            assert size == expected and stats.reach_states == n
            assert formula_size(witness, measure) == size
            assert relevant_variables(witness, "V") == relevant_variables(phi, "V")


def full_table_reference(basis, formula, measure):
    """min_post over the whole reach table, with its selection loop, and an
    AND-basis run as the OR-basis of its dual on the dual formula, the
    witness dualized back.  Returns the result and the table."""
    if classify_basis(basis) == "P-and":
        result, table = full_table_reference(
            tuple(f.dual() for f in basis), formula.dual(), measure
        )
        if result is None:
            return None, table
        size, witness, stats = result
        return (size, witness.dual(), stats), table
    cls = "V" if classify_basis(basis) == "P-or" else "L"
    relevant, c_target = relevant_variables(formula, cls)
    n_phi = formula_size(formula, SizeMeasure.LITERALS)
    g_phi = formula_size(formula, SizeMeasure.GATES)
    max_arity = max(f.arity for f in basis)
    n_bound = max(n_phi, max_arity, 1)
    if max_arity >= 2:
        n_bound = max(n_bound, g_phi * (max_arity - 1) + 1)
    table = build_reach_table(basis, cls, n_bound, never_stop)
    best = None
    for (c, l, n), (g, _) in table.states.items():
        if c != c_target or not _identify_compatible(cls, l, len(relevant)):
            continue
        size = n if measure is SizeMeasure.LITERALS else g
        if best is None or size < best[0] or (size == best[0] and (c, l, n) < best[1]):
            best = (size, (c, l, n))
    if best is None:
        return None, table
    size, state = best
    steps = _witness(
        state, table, basis, {f.name: f.name for f in basis}, sorted(relevant),
        set(formula.var_names),
    )
    witness = BFormula._trusted(basis, steps)
    assert BFormula(basis, steps).steps == steps
    return (size, witness, PostStats(measure, size, state, len(table.states))), table


def random_and_function(rng, name):
    """An AND of a random subset of 0..3 arguments, with a random constant:
    the dual of an OR from random_post_function."""
    f = random_post_function(rng, "V", name)
    return BoolFunction(name, f.arity, dualize(f).table)


def random_basis(rng):
    """One to three functions from random_post_function (OR or XOR) or
    random_and_function, all of one class."""
    cls = rng.choice("VLE")
    if cls == "E":
        return tuple(random_and_function(rng, f"f{i}") for i in range(rng.randint(1, 3)))
    return tuple(random_post_function(rng, cls, f"f{i}") for i in range(rng.randint(1, 3)))


def random_post_formula(basis, rng, leaves):
    """random_bformula, with about one leaf in five a constant of the basis
    when it has one: the leaf name "#f" stands for the constant f."""
    consts = [f.name for f in basis if f.arity == 0]
    pool = ["x", "y", "u", "v"] * len(consts) + [f"#{c}" for c in consts] or "xyuv"
    steps = random_btree(basis, rng, leaves, pool)
    return BFormula(basis, substitute(steps, {f"#{c}": ((c, 0),) for c in consts}))


def test_min_post_matches_full_table_reference(monkeypatch):
    # the pass that stops once the optimum is final gives the full table's
    # result, and its cells are the full table's, back-references included
    stopped = []

    def recording(*args):
        stopped.append(build_reach_table(*args))
        return stopped[-1]

    monkeypatch.setattr(post, "build_reach_table", recording)
    rng = random.Random(79)
    smaller = 0
    for _ in range(300):
        basis = random_basis(rng)
        phi = random_post_formula(basis, rng, rng.randint(1, 9))
        for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
            stopped.clear()
            got = min_post(basis, phi, measure)
            want, full = full_table_reference(basis, phi, measure)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                assert serialize_bformula(got[1]) == serialize_bformula(want[1])
                assert got[2].tuple == want[2].tuple
                assert got[2].reach_states == len(stopped[0].states)
            assert all(full.states[s] == cell for s, cell in stopped[0].states.items())
            smaller += len(stopped[0].states) < len(full.states)
    assert smaller >= 100


def test_min_post_witness_postorder():
    # the witness comes with the steps its output walk wrote, and is the
    # formula that validating those steps gives
    rng = random.Random(83)
    witnesses = 0
    for _ in range(300):
        basis = random_basis(rng)
        phi = random_post_formula(basis, rng, rng.randint(1, 12))
        for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
            got = min_post(basis, phi, measure)
            if got is None:
                continue
            witness = got[1]
            assert_steps(witness)
            validated = BFormula(basis, witness.steps)
            assert witness == validated and hash(witness) == hash(validated)
            assert witness.var_names == validated.var_names
            assert formula_size(witness, measure) == got[0]
            witnesses += 1
    assert witnesses >= 500


def test_min_post_duplicate_basis_names():
    basis = (fn_or(2), fn_or(2))
    phi = BFormula(basis[:1], ("x", "y", ("or2", 2)))
    with pytest.raises(FormatError, match="duplicate function names in basis"):
        min_post(basis, phi, SizeMeasure.LITERALS)


# build_reach_table as it was before an irrelevant leaf took only a leafless
# guest: each irrelevant host met the cheapest cell of every leaf count
def grouped_table_reference(
    basis: tuple[BoolFunction, ...],
    cls: str,
    n_bound: int,
    gate_cap: Callable[[int, State], float],
) -> ReachTable:
    """Minimum gate count per (c, l, n) cell with at most n_bound leaves,
    settling cells in nondecreasing gate count (Knuth 1977).  A pair whose
    leaves would exceed n_bound is never composed.

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
    # by leaf count: the first settled cell, and the hosts of an irrelevant leaf
    cheapest: dict[int, tuple[State, int]] = {}
    irr_hosts: dict[int, list[tuple[State, int]]] = {}

    # Partners are met in settle order, and among equal-cost offers of a
    # cell the first keeps its back-reference.  Each partner is checked
    # against the leaf bound before anything is composed.  The hosts of an
    # irrelevant leaf are grouped by leaf count, so that a group too large
    # for the guest is skipped whole; they give the guest distinct cells, so
    # the grouping changes no back-reference.
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
        room = n_bound + 1 - n  # the most leaves a partner of s may have
        first_of_n = n not in cheapest
        if first_of_n:
            cheapest[n] = (s, g)
        if n <= unit_arity:
            units.append((s, g))
        if l >= 1:
            rel_hosts.append((s, g))
            for u, gu in units:
                if u[2] <= room:
                    offer(_compose(s, u, True, xor), g + gu, ("rel", s, u))
        if l < n:
            irr_hosts.setdefault(n, []).append((s, g))
            for nv, (v, gv) in cheapest.items():
                if nv <= room:
                    offer(_compose(s, v, False, xor), g + gv, ("irr", s, v))
        # as a guest, s meets every host settled so far
        if first_of_n:
            for nh, hosts in irr_hosts.items():
                if nh <= room:
                    for h, gh in hosts:
                        offer(_compose(h, s, False, xor), gh + g, ("irr", h, s))
        if n <= unit_arity:
            for h, gh in rel_hosts:
                if h[2] <= room:
                    offer(_compose(h, s, True, xor), gh + g, ("rel", h, s))
    return ReachTable(cls, states)


def test_min_post_matches_grouped_table_reference(monkeypatch):
    # the grouped table holds every composition's min gate count, yet
    # min_post picks the same cell and witness from either table
    rng = random.Random(83)
    bases = [
        (fn_or(2),), (fn_xor(2),), (fn_and(2),), (fn_or(2), fn_const(0)),
        (fn_xor(2), fn_const(1)), (fn_and(2), fn_const(0)), (OR2D,), (fn_const(0), XOR2D),
    ] + [random_basis(rng) for _ in range(400)]
    cases = [(basis, random_post_formula(basis, rng, rng.randint(1, 12))) for basis in bases]

    def results():
        out = []
        for basis, phi in cases:
            for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
                res = min_post(basis, phi, measure)
                out.append(res and (res[0], serialize_bformula(res[1]), res[2].tuple))
        return out

    got = results()
    monkeypatch.setattr(post, "build_reach_table", grouped_table_reference)
    assert results() == got
    assert sum(res is not None for res in got) >= 600


def packed_tree(basis, leaves):
    """Group each level into gates of the basis's widest arity (a leftover
    group takes the gate of its size, or moves up alone) until one root
    remains; leaves and result are post-order steps."""
    gates = {f.arity: f.name for f in basis}
    level = list(leaves)
    while len(level) > 1:
        width = max(gates)
        groups = [level[i:i + width] for i in range(0, len(level), width)]
        level = [g[0] if len(g) == 1 else sum(g, ()) + ((gates[len(g)], len(g)),) for g in groups]
    return level[0]


@pytest.mark.parametrize("measure", [SizeMeasure.LITERALS, SizeMeasure.GATES])
@pytest.mark.parametrize("basis", [(fn_or(2), fn_or(3)), (fn_xor(2), fn_xor(3)), (fn_and(2),)])
def test_min_post_stops_before_the_full_table(basis, measure):
    # 96 leaves over x0..x11, each variable an odd number of times, so that
    # all twelve stay relevant under XOR too
    labels = [i % 12 for i in range(84)] + [i // 2 for i in range(12)]
    phi = BFormula(basis, packed_tree(basis, ((f"x{i}",) for i in labels)))
    size, witness, stats = min_post(basis, phi, measure)
    want, full = full_table_reference(basis, phi, measure)
    assert (size, serialize_bformula(witness), stats.tuple) == (
        want[0], serialize_bformula(want[1]), want[2].tuple
    )
    assert stats.reach_states < len(full.states)


@pytest.mark.parametrize("basis, text, measure, expected", [
    ((fn_or(2), fn_or(3)), "(or2 (or3 x y x) (or2 z (or2 y w)))", "gates",
     "(or3 (or2 y z) w x)\n"),
    ((fn_xor(2), fn_const(1)), "(xor2 (xor2 x (const1)) (xor2 y (xor2 z x)))", "literals",
     "(xor2 (xor2 y z) (const1))\n"),
    ((fn_and(2), fn_and(3)), "(and3 (and2 x y) (and2 y z) w)", "literals",
     "(and3 (and2 y z) w x)\n"),
    ((OR2D,), "(or2d (or2d x y x) z x)", "gates", "(or2d (or2d y z z0) x z1)\n"),
    ((fn_or(2), fn_const(1)), "(or2 x (or2 y (const1)))", "gates", "(const1)\n"),
    ((fn_or(2), fn_or(3), OR2D), "(or2d (or3 a b (or2 c d)) (or2 e a) f)", "literals",
     "(or3 (or3 c d e) a b)\n"),
    ((fn_xor(3), fn_const(1), XOR2D), "(xor3 (xor3 a b c) (xor2d d e a) (const1))", "gates",
     "(xor3 (xor2d z0 c e) (const1) b)\n"),
    ((fn_xor(3), fn_const(1), XOR2D), "(xor3 (xor3 a b c) (xor2d d e a) (const1))", "literals",
     "(xor3 (const1) (xor2d (const1) c e) b)\n"),
    ((fn_const(0), XOR2D), "(xor2d a (xor2d b c d) (xor2d e a (const0)))", "literals",
     "(xor2d (const0) (xor2d (const0) c d) a)\n"),
])
def test_min_post_witness_text(basis, text, measure, expected):
    # equal-cost cells keep the first back-reference offered, so these
    # witnesses pin the DP's composition order as well as its sizes
    size, witness, _ = min_post(basis, parse_bformula(text, basis), SizeMeasure(measure))
    assert serialize_bformula(witness) == expected
