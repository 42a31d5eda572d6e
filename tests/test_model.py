import os
import random
import re
import subprocess
import sys

import pytest

import boolmin
from boolmin.errors import FormatError, ResourceLimitError
from boolmin.formats import parse_bformula, serialize_bformula
from boolmin.model import (
    BApp,
    BFormula,
    BoolFunction,
    BVar,
    CnfFormula,
    ConstraintLanguage,
    Relation,
    SizeMeasure,
    all_assignments,
    clause_mask,
    count_gates,
    count_literals,
    dualize,
    equivalent,
    formula_size,
    satisfiable,
    substitute,
    truth_table,
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
    f = CnfFormula(lang, ("x", "y", "z"), (("horn2", (0, 1, 2)),))
    assert f.eval((1, 1, 0)) == 0
    assert f.eval((1, 1, 1)) == 1


def test_eval_errors(t9):
    with pytest.raises(FormatError):
        CnfFormula(t9, ("x",), (("nope", (0,)),))
    with pytest.raises(FormatError):
        CnfFormula(t9, ("x",), (("or2", (0,)),))
    f = CnfFormula(t9, ("x", "y"), (("or2", (0, 1)),))
    with pytest.raises(FormatError):
        f.eval((1,))


def test_public_constructor_rejects_each_fault(t9):
    with pytest.raises(FormatError, match="^duplicate variable names$"):
        CnfFormula(t9, ("x", "y", "x"), ())
    with pytest.raises(FormatError, match="^unknown relation 'nope'$"):
        CnfFormula(t9, ("x",), (("pos", (0,)), ("nope", (0,))))
    with pytest.raises(FormatError, match="^clause or2: got 1 arguments, arity is 2$"):
        CnfFormula(t9, ("x",), (("or2", (0,)),))
    for bad in (1, -1):
        with pytest.raises(FormatError, match="^clause imp: variable id out of range$"):
            CnfFormula(t9, ("x",), (("imp", (0, bad)),))


@pytest.mark.parametrize("bad", [
    "pos",                 # a bare name
    ("pos", (0,), "x"),    # a 3-tuple
    ("pos",),              # a 1-tuple
    ("pos", [0]),          # vars as a list
    ["pos", (0,)],         # the pair as a list
    (0, (0,)),             # an id for a name
    ("pos", ("x",)),       # a name for an id
])
def test_public_constructor_names_a_malformed_clause(t9, bad):
    """A clause is a (relation, tuple of ids) pair; anything else is named
    in a FormatError here, not left to fail deep inside a minimizer."""
    message = f"malformed clause {bad!r}: expected a (relation, vars) pair"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        CnfFormula(t9, ("x",), (("pos", (0,)), bad))


def test_derived_formulas_pass_the_public_checks(t9, bijunctive_full, affine_lang):
    """Formulas the package builds without validation (duals, minimizer
    outputs, the minimum unsatisfiable formula) are ones the public
    constructor accepts, over the input's language and language path."""
    rng = random.Random(5)
    for lang in (t9, t9.dual(), bijunctive_full, affine_lang):
        for _ in range(40):
            f = random_cnf(lang, rng, rng.randrange(1, 6), rng.randrange(8))
            f = CnfFormula(f.language, f.var_names, f.clauses, "in.lang")
            out, _ = boolmin.minimize(f)
            for g in (out, f.dual(), out.dual(), f.dual().dual()):
                assert CnfFormula(g.language, g.var_names, g.clauses, g.language_path) == g
            assert out.language == lang and out.language_path == "in.lang"
            assert f.dual().dual() == f
            assert equivalent(out, f)


def test_equivalence_example6_rewriting(t9):
    # (x or y1) and (x or y2) agrees with x or (y1 and y2)
    f1 = CnfFormula(t9, ("x", "y1", "y2"), (("or2", (0, 1)), ("or2", (0, 2))))
    mix = Relation(
        "mix", 3, frozenset({(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 1)})
    )
    f2 = CnfFormula(
        ConstraintLanguage((mix,)), ("x", "y1", "y2"), (("mix", (0, 1, 2)),)
    )
    assert equivalent(f1, f2)
    assert equivalent(f1, f1)
    f3 = CnfFormula(t9, ("x", "y1"), (("or2", (0, 1)),))
    f4 = CnfFormula(t9, ("x", "y1"), (("pos", (0,)), ("pos", (1,))))
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
        t9, ("x", "y"), (("pos", (0,)), ("imp", (0, 1)), ("neg", (1,)))
    )
    assert not satisfiable(unsat)
    assert satisfiable(CnfFormula(t9, ("x", "y"), (("or2", (0, 1)),)))
    xor2 = fn_xor(2)
    assert not satisfiable(BFormula(bf(xor2), BApp("xor2", (BVar("x"), BVar("x")))))


def test_dualize_and_involution():
    and2, or2 = fn_and(2), fn_or(2)
    assert dualize(and2).table == or2.table
    r = rel_impl()
    assert dualize(dualize(r)) == r
    assert dualize(r).tuples == frozenset({(1, 1), (1, 0), (0, 0)})


def test_language_dual_is_built_once(t9):
    lang = ConstraintLanguage(t9.relations)
    dual = lang.dual()
    assert dual is lang.dual()
    assert dual.dual() is lang
    assert dual == ConstraintLanguage(tuple(r.dual() for r in lang.relations))
    f = CnfFormula(lang, ("x", "y"), (("imp", (0, 1)),))
    assert f.dual().language is dual and f.dual().dual().language is lang


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


def test_pinned_mask_conventions(t9):
    # variable 0 is the most significant bit of the assignment index
    f = CnfFormula(t9, ("x0", "x1", "x2"), (("pos", (0,)),))
    assert f.solution_mask() == 0b11110000
    g = CnfFormula(t9, ("x0", "x1", "x2"), (("neg", (2,)),))
    assert g.solution_mask() == 0b01010101
    assert CnfFormula(t9, ("x0", "x1", "x2"), ()).solution_mask() == 0xFF
    assert clause_mask(rel_impl(), (1, 1), 3) == 0xFF
    assert clause_mask(rel_impl(), (0, 1), 2) == 0b1011
    wide = CnfFormula(t9, tuple(f"v{i}" for i in range(25)), (("pos", (0,)),))
    with pytest.raises(ResourceLimitError):
        wide.solution_mask()


def test_deep_chain_without_recursion():
    or2 = fn_or(2)

    def chain(last: str) -> BApp:
        root = BVar("x")
        for i in range(5000):
            root = BApp("or2", (root, BVar("y" if i % 2 else "z")))
        return BApp("or2", (root, BVar(last)))

    f = BFormula(bf(or2), chain("x"))
    assert f.var_names == ("x", "y", "z")
    assert f.eval({"x": 0, "y": 0, "z": 1}) == 1
    assert f.eval({"x": 0, "y": 0, "z": 0}) == 0
    assert equivalent(f, f)
    assert satisfiable(f)
    assert parse_bformula(serialize_bformula(f), bf(or2)) == f
    assert f.dual().dual() == f
    assert formula_size(f, SizeMeasure.LITERALS) == 5002
    assert formula_size(f, SizeMeasure.GATES) == 5001
    swapped = substitute(f.root, {"z": BVar("w"), "x": BApp("or2", (BVar("u"), BVar("v")))})
    assert BFormula(bf(or2), swapped).var_names == ("u", "v", "w", "y")
    assert count_literals(swapped) == 5004
    twin = chain("x")
    assert twin is not f.root and twin == f.root and hash(twin) == hash(f.root)
    assert chain("y") != f.root


# --- the mask kernel against pointwise evaluation by definition --------------


def _ref_cnf(f: CnfFormula, bits) -> int:
    return int(all(
        tuple(bits[v] for v in vs) in f.language.get(rel).tuples for rel, vs in f.clauses
    ))


def _ref_node(node, funcs, values) -> int:
    if isinstance(node, BVar):
        return values[node.name]
    return funcs[node.func].value([_ref_node(a, funcs, values) for a in node.args])


def _ref_table(rows) -> int:
    """Mask whose bit idx is the idx-th value (assignments in index order)."""
    return sum(bit << idx for idx, bit in enumerate(rows))


def test_cnf_kernel_matches_pointwise(t9, bijunctive_full, affine_lang):
    rng = random.Random(2024)
    for lang in (t9, bijunctive_full, affine_lang):
        for n in range(1, 11):
            for _ in range(4 if n < 8 else 2):
                f = random_cnf(lang, rng, n, rng.choice((0, 1, 2, 3, n, 2 * n)))
                rel = rng.choice([r for r in lang.relations if r.arity > 1])
                v = rng.randrange(n)
                repeated = (rel.name, (v,) * rel.arity)
                for g in (f, CnfFormula(lang, f.var_names, f.clauses + (repeated,))):
                    rows = [_ref_cnf(g, bits) for bits in all_assignments(n)]
                    assert g.solution_mask() == _ref_table(rows)
                    assert [g.eval(bits) for bits in all_assignments(n)] == rows
                    assert satisfiable(g) == any(rows)
                    assert equivalent(g, g)
                for name, vs in f.clauses:
                    r = lang.get(name)
                    rows = [int(tuple(b[x] for x in vs) in r.tuples) for b in all_assignments(n)]
                    assert clause_mask(r, vs, n) == _ref_table(rows)


def _random_tree(basis, rng, depth):
    usable = [f for f in basis if depth > 0 or f.arity == 0]
    if not usable or rng.random() < 0.25:
        return BVar(rng.choice("abcde"))
    f = rng.choice(usable)
    return BApp(f.name, tuple(_random_tree(basis, rng, depth - 1) for _ in range(f.arity)))


def test_bformula_kernel_matches_pointwise():
    rng = random.Random(7)
    maj3 = BoolFunction("maj3", 3, tuple(int(sum(t) >= 2) for t in all_assignments(3)))
    basis = bf(
        BoolFunction("one", 0, (1,)),
        BoolFunction("zero", 0, (0,)),
        BoolFunction("not", 1, (1, 0)),
        fn_xor(2, 1),
        maj3,
        BoolFunction("imp", 2, (1, 1, 0, 1)),
        BoolFunction("rnd3", 3, tuple(rng.randrange(2) for _ in range(8))),
        fn_and(3),
        fn_or(2),
        fn_xor(3),
    )
    for _ in range(150):
        f = BFormula(basis, _random_tree(basis, rng, rng.randint(0, 5)))
        names = tuple(sorted(set(f.var_names) | {"e"}))
        rows = [_ref_node(f.root, f.by_name, dict(zip(names, bits)))
                for bits in all_assignments(len(names))]
        assert truth_table(f, names) == _ref_table(rows)
        assert [f.eval(dict(zip(names, bits))) for bits in all_assignments(len(names))] == rows
        assert satisfiable(f) == any(rows)
        g = BFormula(basis, BApp("not", (BApp("not", (f.root,)),)))
        assert equivalent(f, g)
        assert not equivalent(f, BFormula(basis, BApp("not", (f.root,))))


def test_equivalence_at_twenty_variables(t9):
    rng = random.Random(20)
    n = 20
    model = [rng.randrange(2) for _ in range(n)]
    clauses = []
    while len(clauses) < 40:
        rel = rng.choice(t9.relations)
        c = (rel.name, tuple(rng.randrange(n) for _ in range(rel.arity)))
        if tuple(model[v] for v in c[1]) in rel.tuples:
            clauses.append(c)
    names = tuple(f"v{i}" for i in range(n))
    f = CnfFormula(t9, names, tuple(clauses))
    assert f.eval(model) == 1
    assert equivalent(f, CnfFormula(t9, names, tuple(reversed(clauses))))
    v = rng.randrange(n)
    excluding = ("neg" if model[v] else "pos", (v,))
    assert not equivalent(f, CnfFormula(t9, names, tuple(reversed(clauses)) + (excluding,)))
