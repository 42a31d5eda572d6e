import random

import pytest

from boolmin.errors import FormatError, ResourceLimitError
from boolmin.model import (
    BApp,
    BFormula,
    BoolFunction,
    Clause,
    CnfFormula,
    ConstraintLanguage,
    Relation,
    SizeMeasure,
    all_assignments,
    equivalent,
    formula_size,
)
from boolmin.oracle import brute_min_bformula, brute_min_cnf, expressible, min_unsat_formula
from boolmin.std import (
    fn_and,
    fn_or,
    rel_horn_impl,
    rel_impl,
    rel_nand,
    rel_neg,
    rel_or,
    rel_parity,
    rel_pos,
    rel_xor,
)
from boolmin.formats import parse_bformula

from conftest import random_cnf


def test_brute_min_cnf_duplicate_clause(t9):
    f = CnfFormula(t9, ("x", "y"), (Clause("or2", (0, 1)), Clause("or2", (0, 1))))
    count, witness = brute_min_cnf(t9, f, 4)
    assert count == 1
    assert equivalent(witness, f)


def test_brute_min_cnf_example6_language():
    # x or (y and z) alongside plain or2: the combined clause wins
    mix = Relation("mix", 3, frozenset({(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 1)}))
    lang = ConstraintLanguage((rel_or(2), mix))
    f = CnfFormula(lang, ("x", "y1", "y2"), (Clause("or2", (0, 1)), Clause("or2", (0, 2))))
    count, witness = brute_min_cnf(lang, f, 4)
    assert count == 1
    assert witness.clauses[0].relation == "mix"
    assert equivalent(witness, f)


def test_brute_min_cnf_two_clause_chain(t9):
    f = CnfFormula(t9, ("x1", "x2", "x3"), (Clause("or2", (0, 1)), Clause("or2", (1, 2))))
    lang = ConstraintLanguage((rel_or(2),))
    count, _ = brute_min_cnf(lang, f, 4)
    assert count == 2


def test_brute_min_cnf_monotone_in_language(t9):
    rng = random.Random(3)
    small = ConstraintLanguage((rel_or(2), rel_impl()))
    for _ in range(20):
        f = random_cnf(small, rng, 3, rng.randint(1, 3))
        a = brute_min_cnf(small, f, 5)
        b = brute_min_cnf(t9, f, 5)
        assert a is not None and b is not None
        assert b[0] <= a[0]
        assert equivalent(a[1], f) and equivalent(b[1], f)


def test_brute_min_cnf_caps(t9):
    f = CnfFormula(t9, tuple(f"v{i}" for i in range(9)), ())
    with pytest.raises(ResourceLimitError):
        brute_min_cnf(t9, f, 4)


def test_brute_min_bformula_examples():
    or2, or3, and2 = fn_or(2), fn_or(3), fn_and(2)
    phi = parse_bformula("(or2 x y)", (or2,))
    size, witness = brute_min_bformula((or2,), phi, SizeMeasure.LITERALS, 6)
    assert size == 2 and equivalent(witness, phi)
    phi = parse_bformula("(and2 x x)", (and2,))
    size, witness = brute_min_bformula((and2,), phi, SizeMeasure.LITERALS, 6)
    assert size == 1 and equivalent(witness, phi)
    phi = parse_bformula("(or3 x y y)", (or3,))
    size, _ = brute_min_bformula((or3,), phi, SizeMeasure.LITERALS, 6)
    assert size == 3


def test_brute_min_bformula_small_bounds():
    # a constant-1 gate makes (or2 x (k)) a formula without literals
    k = BoolFunction("k", 0, (1,))
    phi = parse_bformula("(or2 x (k))", (fn_or(2), k))
    assert brute_min_bformula(phi.functions, phi, SizeMeasure.LITERALS, 0) == (
        0, BFormula(phi.functions, BApp("k", ())),
    )
    for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
        with pytest.raises(FormatError):
            brute_min_bformula(phi.functions, phi, measure, -1)


def test_brute_min_bformula_witness_sizes():
    or2 = fn_or(2)
    rng = random.Random(17)
    from conftest import random_bformula

    for _ in range(10):
        phi = random_bformula((or2,), rng, rng.randint(1, 5))
        for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
            result = brute_min_bformula((or2,), phi, measure, 6)
            assert result is not None
            size, witness = result
            assert equivalent(witness, phi)
            assert formula_size(witness, measure) == size


def test_expressible_examples():
    horn_base = ConstraintLanguage(
        (rel_pos("x"), rel_neg("nx"), rel_impl("imp1"), rel_horn_impl(2, "imp2"),
         rel_nand(1, "nand1"), rel_nand(2), rel_nand(3))
    )
    assert expressible(rel_impl("target"), horn_base, 8)
    ihsb_base = ConstraintLanguage(
        (rel_pos("x"), rel_neg("nx"), rel_impl("imp"), rel_or(2), rel_or(3))
    )
    assert not expressible(rel_xor(), ihsb_base, 8)
    r = rel_parity(3, 1)
    assert expressible(r, ConstraintLanguage((r,)), 8)


def test_min_unsat_examples():
    xor_lang = ConstraintLanguage((rel_parity(2, 1, "odd2"),))
    result = min_unsat_formula(xor_lang)
    assert result is not None and len(result.clauses) == 1
    assert result.clauses[0].vars == (0, 0)
    or_lang = ConstraintLanguage((rel_or(2), rel_or(3)))
    assert min_unsat_formula(or_lang) is None
    lits = ConstraintLanguage((rel_pos(), rel_neg()))
    result = min_unsat_formula(lits)
    assert result is not None and len(result.clauses) == 2


def test_min_unsat_is_unsatisfiable(t9):
    result = min_unsat_formula(t9)
    assert result is not None
    assert all(result.eval(bits) == 0 for bits in all_assignments(result.n_vars))
