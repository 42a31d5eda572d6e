import random
from itertools import combinations
from math import comb

import pytest

from boolmin.formats import parse_bformula
from boolmin.gadgets import (
    WEIGHT_BLOCK,
    _arg_order,
    _max_vars_within_gate_bound,
    build_and_or_gadget,
    build_maj_gadget,
    eval_dnf,
    pure_horn_dnf_to_cnf,
    reduce_unsat_to_mee_cnf,
    reduce_unsat_to_mee_post,
)
from boolmin.model import (
    BApp,
    BFormula,
    BoolFunction,
    BVar,
    CnfFormula,
    ConstraintLanguage,
    SizeMeasure,
    all_assignments,
    equivalent,
    formula_size,
    satisfiable,
)
from boolmin.oracle import brute_min_bformula, brute_min_cnf
from boolmin.std import fn_and, fn_or, rel_parity

ANDNOT = BoolFunction("andnot", 2, (0, 0, 1, 0))  # x and not y


def anf(expr):
    return parse_bformula(expr, (ANDNOT,))


def test_post_reduction_examples():
    psi = anf("(andnot x x)")
    # a satisfiable formula with a light satisfying assignment -> negative
    result = reduce_unsat_to_mee_post((ANDNOT,), psi, anf("(andnot x y)"), SizeMeasure.LITERALS)
    assert result.fixed_negative
    # an unsatisfiable formula -> the instance (phi, k)
    result = reduce_unsat_to_mee_post((ANDNOT,), psi, anf("(andnot y y)"), SizeMeasure.LITERALS)
    assert not result.fixed_negative
    assert result.instance.bound == 2
    # phi = psi itself is always a positive instance
    result = reduce_unsat_to_mee_post((ANDNOT,), psi, psi, SizeMeasure.LITERALS)
    assert not result.fixed_negative


def test_post_reduction_requires_unsat_psi():
    with pytest.raises(ValueError):
        reduce_unsat_to_mee_post((ANDNOT,), anf("(andnot x y)"), anf("x"), SizeMeasure.LITERALS)


def test_post_reduction_soundness_both_measures():
    rng = random.Random(73)
    psi = anf("(andnot x x)")
    for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
        k = 2 if measure is SizeMeasure.LITERALS else 2
        for _ in range(40):
            # random small trees over the andnot basis
            depth = rng.randint(1, 3)
            node = BVar(rng.choice("xy"))
            for _ in range(depth):
                other = BVar(rng.choice("xy"))
                node = BApp("andnot", (node, other) if rng.random() < 0.5 else (other, node))
            phi = BFormula((ANDNOT,), node)
            result = reduce_unsat_to_mee_post((ANDNOT,), psi, phi, measure)
            if result.fixed_negative:
                positive = False
            else:
                found = brute_min_bformula((ANDNOT,), phi, measure, result.instance.bound)
                positive = found is not None and found[0] <= result.instance.bound
            assert positive == (not satisfiable(phi))


def _reference_fixed_negative(basis, psi, formula, measure):
    """The verdict probed one assignment at a time, lightest first."""
    k = formula_size(psi, measure)
    cap = k if measure is SizeMeasure.LITERALS else _max_vars_within_gate_bound(basis, k)
    names = formula.var_names
    for size in range(min(cap, len(names)) + 1):
        for true_vars in combinations(names, size):
            if formula.eval({name: int(name in true_vars) for name in names}):
                return True
    return False


def _chain(fn, names):
    node = BVar(names[0])
    for name in names[1:]:
        node = BApp(fn.name, (node, BVar(name)))
    return node


def test_post_reduction_verdict_matches_per_assignment_probe():
    and2, or2, and3 = fn_and(2), fn_or(2), fn_and(3)
    functions = (ANDNOT, and2, or2, and3)
    # psi of 2..5 literals and 1..4 gates, so the weight cap moves
    psis = [BFormula(functions, _chain(ANDNOT, "xxyzu"[:n])) for n in (2, 3, 4, 5)]
    rng = random.Random(83)
    from conftest import random_btree

    verdicts = set()
    for _ in range(200):
        basis = rng.choice(((ANDNOT,), functions))
        psi = rng.choice(psis)
        measure = rng.choice((SizeMeasure.LITERALS, SizeMeasure.GATES))
        phi = BFormula(functions, random_btree(functions, rng, rng.randint(1, 9), "abcdefgh"))
        expected = _reference_fixed_negative(basis, psi, phi, measure)
        assert reduce_unsat_to_mee_post(basis, psi, phi, measure).fixed_negative == expected
        verdicts.add(expected)
    assert verdicts == {False, True}

    # 16 variables put the 4368 sets of weight 5 in two blocks: the only
    # light model, l..p true, is the last set, and 6 true variables are
    # above the cap
    assert comb(16, 5) > WEIGHT_BLOCK
    psi = psis[-1]
    for needed, expected in (("lmnop", True), ("klmnop", False)):
        others = [c for c in "abcdefghijklmnop" if c not in needed]
        phi = BFormula(functions, BApp("andnot", (_chain(and2, needed), _chain(or2, others))))
        assert _reference_fixed_negative((ANDNOT,), psi, phi, SizeMeasure.LITERALS) == expected
        result = reduce_unsat_to_mee_post((ANDNOT,), psi, phi, SizeMeasure.LITERALS)
        assert result.fixed_negative == expected


def test_cnf_reduction_examples():
    lang = ConstraintLanguage((rel_parity(2, 1, "odd2"),))
    unsat = CnfFormula(lang, ("x",), (("odd2", (0, 0)),))
    sat = CnfFormula(lang, ("x", "y"), (("odd2", (0, 1)),))
    r1 = reduce_unsat_to_mee_cnf(lang, unsat)
    assert not r1.fixed_negative and r1.instance.bound == 1
    r2 = reduce_unsat_to_mee_cnf(lang, sat)
    assert r2.fixed_negative


def test_cnf_reduction_soundness():
    rng = random.Random(79)
    lang = ConstraintLanguage((rel_parity(2, 1, "odd2"), rel_parity(3, 0, "even3")))
    from conftest import random_cnf

    for _ in range(40):
        phi = random_cnf(lang, rng, rng.randint(1, 4), rng.randint(1, 4))
        result = reduce_unsat_to_mee_cnf(lang, phi)
        if result.fixed_negative:
            positive = False
        else:
            found = brute_min_cnf(lang, phi, result.instance.bound)
            positive = found is not None
        assert positive == (not satisfiable(phi))


def test_horn_dnf_translation():
    terms = [(("x", True), ("y", False))]
    out = pure_horn_dnf_to_cnf(terms)
    assert out.clauses == (("horn2", (0, 0, 1)),)
    terms = [(("u", True), ("v", True), ("w", False))]
    out = pure_horn_dnf_to_cnf(terms)
    assert out.clauses == (("horn2", (0, 1, 2)),)
    terms = [(("x", True), ("y", False)), (("x", True), ("z", True), ("w", False))]
    out = pure_horn_dnf_to_cnf(terms)
    names = out.var_names
    for bits in all_assignments(len(names)):
        values = dict(zip(names, bits))
        assert out.eval(bits) == 1 - eval_dnf(terms, values)


def test_horn_dnf_validation():
    with pytest.raises(Exception):
        pure_horn_dnf_to_cnf([(("x", True),)])
    with pytest.raises(Exception):
        pure_horn_dnf_to_cnf([(("x", True), ("y", True))])
    with pytest.raises(Exception):
        pure_horn_dnf_to_cnf([(("x", False), ("y", False))])


AND2 = fn_and(2)
ORT = BoolFunction(
    "orT", 3, tuple((a | b) & t for a in (0, 1) for b in (0, 1) for t in (0, 1))
)
MAJ = BoolFunction(
    "maj", 3, tuple(1 if a + b + c >= 2 else 0 for a in (0, 1) for b in (0, 1) for c in (0, 1))
)


def _and_or_parts():
    f_and = BFormula((AND2,), BApp("and2", (BVar("x"), BVar("y"))))
    f_or = BFormula((ORT,), BApp("orT", (BVar("x"), BVar("y"), BVar("t"))))
    return f_and, f_or


def test_and_or_gadget_equal_case():
    f_and, f_or = _and_or_parts()
    h = BFormula((AND2, ORT), BVar("x"))
    gadget, l = build_and_or_gadget(f_and, f_or, h, h, 3)
    # with H1 == H2 the gadget collapses to t and H1
    t_name = next(n for n in gadget.var_names if n.startswith("t"))
    t_and_h = BFormula((AND2,), BApp("and2", (BVar("x"), BVar(t_name))))
    assert equivalent(gadget, t_and_h)
    found = brute_min_bformula((AND2, ORT), gadget, SizeMeasure.GATES, min(7, l))
    assert found is not None and found[0] <= l


def test_and_or_gadget_unequal_case():
    f_and, f_or = _and_or_parts()
    h1 = BFormula((AND2, ORT), BVar("x"))
    h2 = BFormula((AND2, ORT), BVar("y"))
    gadget, l = build_and_or_gadget(f_and, f_or, h1, h2, 3)
    # all z variables are relevant, so nothing within l gates is equivalent
    zs = [n for n in gadget.var_names if n.startswith("z")]
    assert len(zs) == 3 * l
    names = gadget.var_names
    for z in zs:
        flips = False
        for bits in all_assignments(len(names)):
            values = dict(zip(names, bits))
            flipped = dict(values)
            flipped[z] = 1 - flipped[z]
            if gadget.eval(values) != gadget.eval(flipped):
                flips = True
                break
        assert flips, f"{z} should be relevant"
    found = brute_min_bformula((AND2, ORT), gadget, SizeMeasure.GATES, min(7, l))
    assert found is None


def test_and_or_gadget_contract_check():
    f_and, f_or = _and_or_parts()
    h = BFormula((AND2, ORT), BVar("x"))
    # an f_or that computes a conjunction fails the f_or(x, y, 1) = x|y check
    broken_or = BFormula(
        (AND2,), BApp("and2", (BVar("x"), BApp("and2", (BVar("y"), BVar("t")))))
    )
    with pytest.raises(ValueError):
        build_and_or_gadget(f_and, broken_or, h, h, 3)
    # a three-variable f_and is rejected outright
    from boolmin.errors import FormatError

    with pytest.raises(FormatError):
        build_and_or_gadget(f_or, f_or, h, h, 3)


def test_maj_gadget_cases():
    f_maj = BFormula((MAJ,), BApp("maj", (BVar("x"), BVar("y"), BVar("z"))))
    h1 = BFormula((MAJ,), BVar("a"))
    gadget, l = build_maj_gadget(f_maj, h1, h1, 3)
    # H1 == H2: equivalent to the core V(f, E(H1,H2,f), t)
    fname = next(n for n in gadget.var_names if n.startswith("f"))
    tname = next(n for n in gadget.var_names if n.startswith("t"))
    core = BFormula(
        (MAJ,),
        BApp("maj", (BVar(fname), BApp("maj", (BVar("a"), BVar("a"), BVar(fname))), BVar(tname))),
    )
    assert equivalent(gadget, core)
    found = brute_min_bformula((MAJ,), gadget, SizeMeasure.GATES, min(7, l))
    assert found is not None and found[0] <= l

    h2 = BFormula((MAJ,), BVar("b"))
    gadget, l = build_maj_gadget(f_maj, h1, h2, 3)
    found = brute_min_bformula((MAJ,), gadget, SizeMeasure.GATES, min(7, l))
    assert found is None


def test_arg_order_is_left_to_right():
    # pre-order with the last argument first would meet w, z, x, y
    f = parse_bformula("(maj (maj y x y) z (maj x z w))", (MAJ,))
    assert _arg_order(f) == ("y", "x", "z", "w")


def test_maj_gadget_case_table():
    # the four (t, f) cases from the construction
    f_maj = BFormula((MAJ,), BApp("maj", (BVar("x"), BVar("y"), BVar("z"))))
    h1 = BFormula((MAJ,), BVar("a"))
    h2 = BFormula((MAJ,), BVar("b"))
    gadget, _ = build_maj_gadget(f_maj, h1, h2, 3)
    fname = next(n for n in gadget.var_names if n.startswith("f"))
    tname = next(n for n in gadget.var_names if n.startswith("t"))
    zs = [n for n in gadget.var_names if n.startswith("z")]
    for a in (0, 1):
        for b in (0, 1):
            base = {"a": a, "b": b}
            base.update({z: 1 for z in zs})
            # t=1, f=0: gadget value is (H1 and H2) or ((H1 or H2) and Z)
            v = gadget.eval({**base, tname: 1, fname: 0})
            assert v == (a & b) | ((a | b) & 1)
            # t=f=0 forces 0; t=f=1 forces 1
            assert gadget.eval({**base, tname: 0, fname: 0}) == 0
            assert gadget.eval({**base, tname: 1, fname: 1}) == 1
