import random

import pytest

from boolmin.classify import function_shape
from boolmin.errors import ClassificationError
from boolmin.formats import parse_bformula, serialize_bformula
from boolmin.model import (
    BApp,
    BFormula,
    BoolFunction,
    BVar,
    SizeMeasure,
    all_assignments,
    dualize,
    equivalent,
    formula_size,
)
from boolmin.oracle import brute_min_bformula
from boolmin.post import (
    FuncTuple,
    build_reach_table,
    gate_lower_bound,
    min_post,
    relevant_variables,
    tuple_compose,
    tuple_identify,
)
from boolmin.std import fn_and, fn_const, fn_or, fn_xor

from conftest import random_bformula


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


def test_tuple_identify_rules():
    assert tuple_identify(FuncTuple(0, 2, 2, 1), "V").l == 1
    assert tuple_identify(FuncTuple(0, 2, 2, 1), "L").l == 0
    assert tuple_identify(FuncTuple(1, 3, 3, 1), "L").l == 1
    with pytest.raises(ValueError):
        tuple_identify(FuncTuple(0, 1, 2, 1), "V")


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
        min_post((fn_and(2), fn_xor(2)), BFormula((fn_and(2), fn_xor(2)), BVar("x")), SizeMeasure.LITERALS)


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


def closure_reference(basis, cls, n_bound):
    """Min gates per (c, l, n): every pairwise composition, in rounds until
    no cell improves."""
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


def min_gates(basis, cls, n_bound):
    return {s: g for s, (g, _) in build_reach_table(basis, cls, n_bound).states.items()}


def test_reach_table_matches_pairwise_closure():
    rng = random.Random(73)
    for _ in range(40):
        cls = rng.choice("VL")
        basis = tuple(random_post_function(rng, cls, f"f{i}") for i in range(rng.randint(1, 3)))
        n_bound = rng.randint(1, 24)
        assert min_gates(basis, cls, n_bound) == closure_reference(basis, cls, n_bound)
    # a 2D state space: the dummy argument makes l < n reachable
    or2_dummy = BoolFunction("or2d", 3, tuple(int(a or b) for a, b, _ in all_assignments(3)))
    basis = (fn_or(2), or2_dummy)
    assert min_gates(basis, "V", 32) == closure_reference(basis, "V", 32)
    # a constant inside a gate: some cells are reached only by inserting a
    # unit (a gate with its constant argument) at a relevant leaf
    xor2_dummy = BoolFunction("xor2d", 3, tuple(b ^ c for _, b, c in all_assignments(3)))
    basis = (fn_const(0), xor2_dummy)
    assert min_gates(basis, "L", 7) == closure_reference(basis, "L", 7)


def balanced_or_tree(leaves):
    """Group a level into or3 gates (or2 where a pair is left) until one
    root remains."""
    level = list(leaves)
    while len(level) > 1:
        nxt = []
        while level:
            k = 2 if len(level) in (2, 4) else min(3, len(level))
            group, level = level[:k], level[k:]
            nxt.append(group[0] if k == 1 else BApp(f"or{k}", tuple(group)))
        level = nxt
    return level[0]


def test_min_post_deep_witness():
    n = 3000
    basis = (fn_or(2), fn_or(3))
    names = [f"x{i}" for i in range(n)]
    phi = BFormula(basis, balanced_or_tree(BVar(v) for v in names))
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
    rng = random.Random(67)
    or23 = (fn_or(2), fn_or(3))
    for _ in range(20):
        phi = random_bformula(or23, rng, rng.randint(1, 5))
        dual_basis = tuple(dualize(f) for f in or23)
        dual_phi = dualize(phi)
        for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
            a = min_post(or23, phi, measure)
            b = min_post(dual_basis, dual_phi, measure)
            assert a is not None and b is not None
            assert a[0] == b[0]


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
    # argument makes the cell space 2D, with about n_bound^2 / 8 cells
    n = 100
    f = BoolFunction("f", 3, tuple(int(a or b) for a, b, _ in all_assignments(3)))
    node = BVar("x0")
    for i in range(1, n):
        node = BApp("f", (node, BVar(f"x{i}"), BVar("x0")))
    phi = BFormula((f,), node)
    # g gates of f hold 2g + 1 leaves, so the literal minimum is 2(n - 1) + 1
    for measure, expected in ((SizeMeasure.GATES, n - 1), (SizeMeasure.LITERALS, 2 * n - 1)):
        size, witness, stats = min_post((f,), phi, measure)
        assert size == expected and stats.reach_states == 4951
        assert formula_size(witness, measure) == size
        assert relevant_variables(witness, "V") == relevant_variables(phi, "V")


OR2D = BoolFunction("or2d", 3, tuple(int(a or b) for a, b, _ in all_assignments(3)))
XOR2D = BoolFunction("xor2d", 3, tuple(b ^ c for _, b, c in all_assignments(3)))


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
