import os
import random
import subprocess
import sys

import pytest

import boolmin
from boolmin.errors import FormatError, ResourceLimitError
from boolmin.model import (
    BApp,
    BFormula,
    BoolFunction,
    BVar,
    Clause,
    CnfFormula,
    ConstraintLanguage,
    Relation,
    SizeMeasure,
    all_assignments,
    count_gates,
    count_literals,
    dualize,
    equivalent,
    formula_size,
    satisfiable,
)
from boolmin.std import fn_and, fn_or, fn_xor, rel_impl

from conftest import random_cnf


def bf(*funcs):
    return tuple(funcs)


def test_eval_or_empty_and_idempotent_cases():
    or2 = fn_or(2)
    f = BFormula(bf(or2), BApp("or2", (BVar("x"), BVar("y"))))
    assert f.eval({"x": 0, "y": 0}) == 0
    g = BFormula(bf(or2), BApp("or2", (BVar("x"), BVar("x"))))
    assert g.eval({"x": 1}) == 1


def test_eval_horn_clause_forced_zero(t9):
    # x and y -> z is violated by (1, 1, 0); encode via the or3-free base
    horn = Relation("horn2", 3, frozenset(t for t in all_assignments(3) if t != (1, 1, 0)))
    lang = ConstraintLanguage((horn,))
    f = CnfFormula(lang, ("x", "y", "z"), (Clause("horn2", (0, 1, 2)),))
    assert f.eval((1, 1, 0)) == 0
    assert f.eval((1, 1, 1)) == 1


def test_eval_errors(t9):
    with pytest.raises(FormatError):
        CnfFormula(t9, ("x",), (Clause("nope", (0,)),))
    with pytest.raises(FormatError):
        CnfFormula(t9, ("x",), (Clause("or2", (0,)),))
    f = CnfFormula(t9, ("x", "y"), (Clause("or2", (0, 1)),))
    with pytest.raises(FormatError):
        f.eval((1,))


def test_equivalence_example6_rewriting(t9):
    # (x or y1) and (x or y2) agrees with x or (y1 and y2)
    f1 = CnfFormula(t9, ("x", "y1", "y2"), (Clause("or2", (0, 1)), Clause("or2", (0, 2))))
    mix = Relation(
        "mix", 3, frozenset({(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 1)})
    )
    f2 = CnfFormula(
        ConstraintLanguage((mix,)), ("x", "y1", "y2"), (Clause("mix", (0, 1, 2)),)
    )
    assert equivalent(f1, f2)
    assert equivalent(f1, f1)
    f3 = CnfFormula(t9, ("x", "y1"), (Clause("or2", (0, 1)),))
    f4 = CnfFormula(t9, ("x", "y1"), (Clause("pos", (0,)), Clause("pos", (1,))))
    assert not equivalent(f3, f4)


def test_equivalence_is_equivalence_relation(t9):
    rng = random.Random(11)
    formulas = [random_cnf(t9, rng, 3, rng.randint(1, 3)) for _ in range(12)]
    for f in formulas:
        assert equivalent(f, f)
    for _ in range(40):
        a, b, c = rng.sample(formulas, 3)
        assert equivalent(a, b) == equivalent(b, a)
        if equivalent(a, b) and equivalent(b, c):
            assert equivalent(a, c)


def test_equivalence_cap():
    or2 = fn_or(2)
    wide = BApp("or2", (BVar("a0"), BVar("a1")))
    for i in range(2, 30):
        wide = BApp("or2", (wide, BVar(f"a{i}")))
    f = BFormula(bf(or2), wide)
    with pytest.raises(ResourceLimitError):
        equivalent(f, f)
    with pytest.raises(ResourceLimitError):
        satisfiable(f)


def test_satisfiable(t9):
    unsat = CnfFormula(
        t9, ("x", "y"), (Clause("pos", (0,)), Clause("imp", (0, 1)), Clause("neg", (1,)))
    )
    assert not satisfiable(unsat)
    assert satisfiable(CnfFormula(t9, ("x", "y"), (Clause("or2", (0, 1)),)))
    xor2 = fn_xor(2)
    assert not satisfiable(BFormula(bf(xor2), BApp("xor2", (BVar("x"), BVar("x")))))


def test_dualize_and_involution():
    and2, or2 = fn_and(2), fn_or(2)
    assert dualize(and2).table == or2.table
    r = rel_impl()
    assert dualize(dualize(r)) == r
    assert dualize(r).tuples == frozenset({(1, 1), (1, 0), (0, 0)})


def test_dual_eval_identity_cnf(t9):
    # relations dualize by flipping tuples, so solutions flip coordinatewise:
    # eval(dual(phi), a) == eval(phi, complement of a)
    rng = random.Random(5)
    for _ in range(25):
        f = random_cnf(t9, rng, 3, rng.randint(1, 4))
        d = dualize(f)
        for bits in all_assignments(3):
            flipped = tuple(1 - b for b in bits)
            assert d.eval(bits) == f.eval(flipped)


def test_dual_bformula():
    or2, and2 = fn_or(2), fn_and(2)
    f = BFormula(bf(or2, and2), BApp("or2", (BVar("x"), BApp("and2", (BVar("y"), BVar("z"))))))
    d = f.dual()
    for bits in all_assignments(3):
        values = dict(zip(f.var_names, bits))
        flipped = {k: 1 - v for k, v in values.items()}
        assert d.eval(values) == 1 - f.eval(flipped)
    assert d.dual() == f


def test_size_measures():
    or2 = fn_or(2)
    f = BFormula(bf(or2), BApp("or2", (BVar("x"), BApp("or2", (BVar("x"), BVar("y"))))))
    assert count_literals(f.root) == 3
    assert count_gates(f.root) == 2
    assert formula_size(f, SizeMeasure.LITERALS) == 3
    assert formula_size(f, SizeMeasure.GATES) == 2
    with pytest.raises(FormatError):
        formula_size(f, SizeMeasure.CLAUSES)


def test_relation_validation():
    with pytest.raises(FormatError):
        Relation("empty", 2, frozenset())
    with pytest.raises(FormatError):
        Relation("wide", 9, frozenset({tuple([0] * 9)}))
    with pytest.raises(FormatError):
        Relation("bad", 2, frozenset({(0, 1, 1)}))


def test_table_bit_order():
    # table index has x1 as most significant bit
    f = BoolFunction("first", 2, (0, 0, 1, 1))  # equals x1
    assert f.value((1, 0)) == 1
    assert f.value((0, 1)) == 0


def test_reimport_releases_earlier_import():
    # A typing.Union over package classes is cached by typing for the life of
    # the process, which keeps every earlier import of the package alive.
    code = """
import gc, importlib, sys, weakref
def fresh():
    for name in [m for m in sys.modules if m.split(".")[0] == "boolmin"]:
        del sys.modules[name]
    return importlib.import_module("boolmin.model")
first = weakref.ref(fresh().BVar)
fresh()
fresh()
gc.collect()
sys.exit(first() is not None)
"""
    src = os.path.dirname(os.path.dirname(boolmin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
