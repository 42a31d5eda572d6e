import os
import pickle
import random
import re
import subprocess
import sys

import pytest

import boolmin
from boolmin.errors import FormatError, ResourceLimitError
from boolmin.formats import parse_bformula, serialize_bformula
from boolmin.model import (
    BFormula,
    BoolFunction,
    CnfFormula,
    ConstraintLanguage,
    Relation,
    SizeMeasure,
    all_assignments,
    dualize,
    equivalent,
    formula_size,
    satisfiable,
    substitute,
    truth_table,
    var_mask,
)
from boolmin.model import _and, _compile, _cover, _or, _xnor, _xor
from boolmin.std import fn_and, fn_const, fn_not, fn_or, fn_xor, rel_impl, rel_or, rel_parity

from conftest import assert_steps, clause_mask, random_bformula, random_cnf, tree_steps


def bf(*funcs):
    return tuple(funcs)


def test_eval_or_empty_and_idempotent_cases():
    or2 = fn_or(2)
    f = BFormula(bf(or2), ("x", "y", ("or2", 2)))
    assert f.mask({"x": 0, "y": 0}, 1) == 0
    g = BFormula(bf(or2), ("x", "x", ("or2", 2)))
    assert g.mask({"x": 1}, 1) == 1


def test_eval_horn_clause_forced_zero(t9):
    # x and y -> z is violated by (1, 1, 0); encode via the or3-free base
    horn = Relation("horn2", 3, frozenset(t for t in all_assignments(3) if t != (1, 1, 0)))
    lang = ConstraintLanguage((horn,))
    f = CnfFormula(lang, ("x", "y", "z"), (("horn2", (0, 1, 2)),))
    assert f.mask((1, 1, 0), 1) == 0
    assert f.mask((1, 1, 1), 1) == 1


def test_eval_errors(t9):
    with pytest.raises(FormatError):
        CnfFormula(t9, ("x",), (("nope", (0,)),))
    with pytest.raises(FormatError):
        CnfFormula(t9, ("x",), (("or2", (0,)),))


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
    wide = ["a0", "a1", ("or2", 2)]
    for i in range(2, 30):
        wide += [f"a{i}", ("or2", 2)]
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
    assert not satisfiable(BFormula(bf(xor2), ("x", "x", ("xor2", 2))))


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


def test_equal_languages_hash_equal_and_share_memo_entries(t9):
    from boolmin.classify import classify_language

    a = ConstraintLanguage(t9.relations)
    b = ConstraintLanguage(
        tuple(Relation(r.name, r.arity, frozenset(r.tuples)) for r in t9.relations)
    )
    assert a is not b and a == b and hash(a) == hash(b)
    report = classify_language(a)
    entries = classify_language.cache_info().currsize
    assert classify_language(b) is report
    assert classify_language.cache_info().currsize == entries
    assert a.dual().dual() is a and hash(a.dual()) == hash(b.dual())


def test_language_pickle_rehashes_in_another_process(t9):
    # str hashes differ between processes, so a pickled language must not
    # carry the hash cached where it was made
    lang = ConstraintLanguage(t9.relations)
    hash(lang)
    dual = lang.dual()
    hash(dual)
    copy = pickle.loads(pickle.dumps(lang))
    assert copy == lang and hash(copy) == hash(lang) and copy.dual().dual() is copy
    code = """
import pickle, sys
from boolmin.model import ConstraintLanguage, Relation
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = ConstraintLanguage(tuple(
    Relation(r.name, r.arity, frozenset(r.tuples)) for r in loaded.relations))
assert loaded is not fresh and hash(loaded) == hash(fresh)
assert {fresh: 1}[loaded] == 1 and {loaded: 1}[fresh] == 1
assert hash(loaded.dual()) == hash(fresh.dual()) and loaded.dual().dual() is loaded
"""
    src = os.path.dirname(os.path.dirname(boolmin.__file__))
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", code], env=env, input=pickle.dumps(lang))
        assert done.returncode == 0


def test_dual_eval_identity_cnf(t9):
    # relations dualize by flipping tuples, so solutions flip coordinatewise:
    # eval(dual(phi), a) == eval(phi, complement of a)
    rng = random.Random(5)
    for _ in range(25):
        f = random_cnf(t9, rng, 3, rng.randint(1, 4))
        d = dualize(f)
        for bits in all_assignments(3):
            flipped = tuple(1 - b for b in bits)
            assert d.mask(bits, 1) == f.mask(flipped, 1)


def test_dual_bformula():
    or2, and2 = fn_or(2), fn_and(2)
    f = BFormula(bf(or2, and2), ("x", "y", "z", ("and2", 2), ("or2", 2)))
    d = f.dual()
    for bits in all_assignments(3):
        values = dict(zip(f.var_names, bits))
        flipped = {k: 1 - v for k, v in values.items()}
        assert d.mask(values, 1) == 1 - f.mask(flipped, 1)
    assert d.dual() == f


def test_size_measures():
    or2 = fn_or(2)
    f = BFormula(bf(or2), ("x", "x", "y", ("or2", 2), ("or2", 2)))
    assert formula_size(f, SizeMeasure.LITERALS) == 3
    assert formula_size(f, SizeMeasure.GATES) == 2
    with pytest.raises(FormatError):
        formula_size(f, SizeMeasure.CLAUSES)


def test_steps_constructor_takes_a_sequence_of_steps():
    or2 = fn_or(2)
    f = BFormula(bf(or2), ["x", "y", ("or2", 2)])
    assert f.steps == ("x", "y", ("or2", 2)) and type(f.steps) is tuple
    assert f == parse_bformula("(or2 x y)", bf(or2))


def _malformed(step):
    return f"malformed step {step!r}: expected a variable name or a (function, count) tuple"


@pytest.mark.parametrize("steps, message", [
    ((), "empty B-formula"),
    ("x", "steps 'x': expected a sequence of steps, not a string"),
    (("x", "y", ["or2", 2]), _malformed(["or2", 2])),  # a list is not hashable
    (("x", "y", ("or2",)), _malformed(("or2",))),
    (("x", "y", ("or2", 2, 0)), _malformed(("or2", 2, 0))),
    (("x", "y", (2, 2)), _malformed((2, 2))),
    (("x", "y", ("or2", "2")), _malformed(("or2", "2"))),
    (("x", None), _malformed(None)),
    (("x", ("or2", -1)), "function or2: negative argument count -1"),
    (("x", ("or2", 2)), "function or2: 2 arguments, but 1 values computed"),
    ((("or2", 1), "x"), "function or2: 1 arguments, but 0 values computed"),
    (("x", "y"), "steps leave 2 values, not one"),
    (("x", "y", ("or2", 2), "z", "u"), "steps leave 3 values, not one"),
])
def test_steps_constructor_rejects_each_fault(steps, message):
    # steps from a caller can be malformed in ways a parsed text cannot
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        BFormula(bf(fn_or(2)), steps)


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
    assert _ref_value(f, (1, 0)) == 1
    assert _ref_value(f, (0, 1)) == 0
    x1 = BFormula((f,), ("x1", "x2", ("first", 2)))
    assert truth_table(x1, ("x1", "x2")) == 0b1100


def test_reimport_releases_earlier_import():
    # A typing.Union over package classes is cached by typing for the life of
    # the process, which keeps every earlier import of the package alive.
    code = """
import gc, importlib, sys, weakref
def fresh():
    for name in [m for m in sys.modules if m.split(".")[0] == "boolmin"]:
        del sys.modules[name]
    return importlib.import_module("boolmin.model")
first = weakref.ref(fresh().BFormula)
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

    def chain(last: str) -> tuple:
        root = "x"
        for i in range(5000):
            root = ("or2", (root, "y" if i % 2 else "z"))
        return ("or2", (root, last))

    f = BFormula(bf(or2), tree_steps(chain("x")))
    assert f.steps[:4] == ("x", "z", ("or2", 2), "y") and f.steps[-2:] == ("x", ("or2", 2))
    assert f.var_names == ("x", "y", "z")
    assert f.mask({"x": 0, "y": 0, "z": 1}, 1) == 1
    assert f.mask({"x": 0, "y": 0, "z": 0}, 1) == 0
    assert equivalent(f, f)
    assert satisfiable(f)
    assert parse_bformula(serialize_bformula(f), bf(or2)) == f
    assert f.dual().dual() == f
    assert formula_size(f, SizeMeasure.LITERALS) == 5002
    assert formula_size(f, SizeMeasure.GATES) == 5001
    swapped = substitute(f.steps, {"z": ("w",), "x": ("u", "v", ("or2", 2))})
    assert BFormula(bf(or2), swapped).var_names == ("u", "v", "w", "y")
    assert formula_size(BFormula(bf(or2), swapped), SizeMeasure.LITERALS) == 5004
    twin = BFormula(bf(or2), tree_steps(chain("x")))
    assert twin is not f and twin == f and hash(twin) == hash(f)
    assert BFormula(bf(or2), tree_steps(chain("y"))) != f
    assert_steps(f)
    assert_steps(parse_bformula(serialize_bformula(f), bf(or2)))
    assert_steps(f.dual())
    # repr and pickle read the flat steps, not the tree
    assert repr(f).startswith("BFormula(functions=") and repr(f) == repr(f.dual().dual())
    assert pickle.loads(pickle.dumps(f)) == f


def test_postorder_and_trusted_formulas():
    # direct and parsed formulas keep the post-order steps of their own
    # tree; a formula built through _trusted from those steps is the
    # validated one for ==, hash, repr and every reader of the steps
    rng = random.Random(61)
    bases = [
        bf(fn_or(2), fn_and(3)),
        bf(fn_xor(2), fn_xor(3, 1)),
        bf(fn_or(2), fn_not(), fn_const(1, "one")),
    ]
    leaves = [BFormula(bases[2], ("x",)), BFormula(bases[2], (("one", 0),))]
    formulas = leaves + [
        random_bformula(rng.choice(bases), rng, rng.randint(1, 20)) for _ in range(200)
    ]
    for f in formulas:
        parsed = parse_bformula(serialize_bformula(f), f.functions)
        assert parsed == f
        for g in (f, parsed):
            assert_steps(g)
            trusted = BFormula._trusted(g.functions, g.steps)
            assert trusted == g and hash(trusted) == hash(g) and repr(trusted) == repr(g)
            assert trusted.steps is g.steps
            assert trusted.var_names == g.var_names
            for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
                assert formula_size(trusted, measure) == formula_size(g, measure)
            names = f.var_names
            assert truth_table(trusted, names) == truth_table(g, names)
        tree = _tree_of(f.steps)
        steps = tree_steps(tree)
        leaves = sum(isinstance(step, str) for step in steps)
        assert formula_size(f, SizeMeasure.LITERALS) == leaves
        assert formula_size(f, SizeMeasure.GATES) == len(steps) - leaves
        # dual maps the steps; substitute splices them
        d = f.dual()
        assert_steps(d)
        assert_steps(d.dual())
        assert d.dual() == f
        spliced = substitute(f.steps, {"x": f.steps, "y": ("w",)})
        expected = _substitute_reference(tree, {"x": tree, "y": "w"})
        assert list(spliced) == tree_steps(expected)
        assert_steps(BFormula(f.functions, spliced))


def _tree_of(steps):
    """The nested-tuple tree of post-order steps: a variable's name, or a
    `(func, args)` pair."""
    out = []
    for step in steps:
        if isinstance(step, str):
            out.append(step)
        else:
            func, arity = step
            args = tuple(out[len(out) - arity:])
            del out[len(out) - arity:]
            out.append((func, args))
    return out[0]


def _reference_text(node) -> str:
    if isinstance(node, str):
        return node
    func, args = node
    return "(" + " ".join([func] + [_reference_text(a) for a in args]) + ")"


def test_step_form_agrees_across_builders():
    # the parser, the validating constructor, _trusted, a double dual and a
    # serialize/parse round trip give the same steps and the same formula:
    # the reference post-order of the tree
    rng = random.Random(97)
    bases = [
        bf(fn_or(2), fn_xor(3), fn_not(), fn_const(0, "zero"), fn_const(1, "one")),
        bf(fn_and(2), fn_or(3), fn_not(), fn_const(1, "one")),
        bf(fn_xor(3), fn_xor(2, 1), fn_not()),
    ]
    for _ in range(500):
        basis = rng.choice(bases)
        tree = _random_tree(basis, rng, rng.randint(0, 5))
        built = BFormula(basis, tree_steps(tree))
        variants = [
            parse_bformula(_reference_text(tree), basis),
            built,
            BFormula._trusted(basis, built.steps),
            built.dual().dual(),
            parse_bformula(serialize_bformula(built), basis),
        ]
        assert list(built.steps) == tree_steps(tree)
        for g in variants:
            assert g.steps == built.steps
            assert g == built and hash(g) == hash(built) and repr(g) == repr(built)
            assert_steps(g)
        assert pickle.loads(pickle.dumps(built)) == built


def _substitute_reference(node, mapping):
    if isinstance(node, str):
        return mapping.get(node, node)
    func, args = node
    return (func, tuple(_substitute_reference(a, mapping) for a in args))


# --- the mask kernel against pointwise evaluation by definition --------------


def _ref_cnf(f: CnfFormula, bits) -> int:
    return int(all(
        tuple(bits[v] for v in vs) in f.language.get(rel).tuples for rel, vs in f.clauses
    ))


def _ref_value(f: BoolFunction, args) -> int:
    """f's table entry at args, the first argument the most significant bit."""
    assert len(args) == f.arity
    code = 0
    for bit in args:
        code = 2 * code + bit
    return f.table[code]


def _ref_node(node, funcs, values) -> int:
    if isinstance(node, str):
        return values[node]
    func, args = node
    return _ref_value(funcs[func], [_ref_node(a, funcs, values) for a in args])


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
                    assert [g.mask(bits, 1) for bits in all_assignments(n)] == rows
                    assert satisfiable(g) == any(rows)
                    assert equivalent(g, g)
                for name, vs in f.clauses:
                    r = lang.get(name)
                    rows = [int(tuple(b[x] for x in vs) in r.tuples) for b in all_assignments(n)]
                    assert clause_mask(r, vs, n) == _ref_table(rows)


def _random_tree(basis, rng, depth):
    usable = [f for f in basis if depth > 0 or f.arity == 0]
    if not usable or rng.random() < 0.25:
        return rng.choice("abcde")
    f = rng.choice(usable)
    return (f.name, tuple(_random_tree(basis, rng, depth - 1) for _ in range(f.arity)))


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
        tree = _random_tree(basis, rng, rng.randint(0, 5))
        f = BFormula(basis, tree_steps(tree))
        names = tuple(sorted(set(f.var_names) | {"e"}))
        rows = [_ref_node(tree, f.by_name, dict(zip(names, bits)))
                for bits in all_assignments(len(names))]
        assert truth_table(f, names) == _ref_table(rows)
        assert [f.mask(dict(zip(names, bits)), 1) for bits in all_assignments(len(names))] == rows
        assert satisfiable(f) == any(rows)
        g = BFormula(basis, f.steps + (("not", 1), ("not", 1)))
        assert equivalent(f, g)
        assert not equivalent(f, BFormula(basis, f.steps + (("not", 1),)))


def _spare_columns(arity: int, seed: int) -> tuple[list[int], int, list[int]]:
    """Argument masks for an arity-k table: the columns of k of k + 1
    variables in shuffled order, so one variable is spare; with the full
    mask and, per argument code c, the mask of the columns whose arguments
    read c, found one column at a time."""
    n = arity + 1
    order = list(range(n))
    random.Random(seed).shuffle(order)
    masks = [var_mask(v, n) for v in order[:arity]]
    reads = [0] * (1 << arity)
    for col in range(1 << n):
        code = 0
        for m in masks:
            code = 2 * code + (m >> col & 1)
        reads[code] |= 1 << col
    return masks, (1 << (1 << n)) - 1, reads


def _pointwise(table: int, reads: list[int]) -> int:
    return sum(cols for code, cols in enumerate(reads) if table >> code & 1)


def test_every_table_to_arity_4_compiles_to_its_pointwise_op():
    for arity in range(5):
        masks, full, reads = _spare_columns(arity, arity)
        for table in range(1 << (1 << arity)):
            assert _compile(table, arity)(masks, full) == _pointwise(table, reads), (arity, table)


def test_seeded_tables_of_arity_5_to_8_compile_to_their_pointwise_ops():
    rng = random.Random(58)
    for k in range(200):
        arity = rng.randint(5, 8)
        table = rng.getrandbits(1 << arity) | 1 << rng.randrange(1 << arity)
        masks, full, reads = _spare_columns(arity, k)
        bits = tuple(table >> code & 1 for code in range(1 << arity))
        f = BoolFunction("f", arity, bits)
        rel = Relation("r", arity, frozenset(t for t, b in zip(all_assignments(arity), bits) if b))
        assert f.mask_op(masks, full) == rel.mask_op(masks, full) == _pointwise(table, reads)


def test_or_and_xor_xnor_tables_compile_to_folds():
    for arity in range(2, 7):
        assert fn_or(arity).mask_op is rel_or(arity).mask_op is _or
        assert fn_and(arity).mask_op is _and
        assert fn_xor(arity).mask_op is rel_parity(arity, 1).mask_op is _xor
        assert fn_xor(arity, 1).mask_op is rel_parity(arity, 0).mask_op is _xnor
    assert fn_const(0).mask_op is _or and fn_const(1).mask_op is _and
    assert BoolFunction("id", 1, (0, 1)).mask_op is _or
    assert fn_not().mask_op is _xnor


def _cover_table(cubes, arity: int) -> int:
    return _cover(cubes, [var_mask(i, arity) for i in range(arity)], (1 << (1 << arity)) - 1)


def _assert_irredundant(table: int, arity: int) -> None:
    op = _compile(table, arity)
    if op in (_or, _and, _xor, _xnor):
        return
    cubes = op.args[0]
    assert op.func is _cover and _cover_table(cubes, arity) == table
    assert len(cubes) <= bin(table).count("1")
    for i, (pos, neg) in enumerate(cubes):
        assert _cover_table(cubes[:i] + cubes[i + 1:], arity) != table
        for j in range(len(pos)):
            shorter = (pos[:j] + pos[j + 1:], neg)
            assert _cover_table(cubes[:i] + (shorter,) + cubes[i + 1:], arity) != table
        for j in range(len(neg)):
            shorter = (pos, neg[:j] + neg[j + 1:])
            assert _cover_table(cubes[:i] + (shorter,) + cubes[i + 1:], arity) != table


def test_covers_are_irredundant_and_prime():
    """Dropping any cube, or any literal of a cube, changes the table; so
    no cover has more cubes than its table has true rows."""
    for arity in range(4):
        for table in range(1 << (1 << arity)):
            _assert_irredundant(table, arity)
    rng = random.Random(46)
    for _ in range(60):
        arity = rng.randint(4, 6)
        _assert_irredundant(rng.getrandbits(1 << arity), arity)
    maj = BoolFunction("maj", 3, (0, 0, 0, 1, 0, 1, 1, 1))
    assert maj.mask_op.args[0] == (((0, 1), ()), ((0, 2), ()), ((1, 2), ()))
    assert rel_impl().mask_op.args[0] == (((), (0,)), ((1,), ()))


def test_compiled_ops_survive_pickle():
    rng = random.Random(3)
    masks, full, _ = _spare_columns(3, 3)
    f = BoolFunction("rnd", 3, tuple(rng.randrange(2) for _ in range(8)))
    for obj in (f, rel_impl(), BoolFunction("maj", 3, (0, 0, 0, 1, 0, 1, 1, 1))):
        before = obj.mask_op(masks, full)
        assert "mask_op" in obj.__dict__
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and "mask_op" in copy.__dict__
        assert copy.mask_op(masks, full) == before


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
    assert f.mask(model, 1) == 1
    assert equivalent(f, CnfFormula(t9, names, tuple(reversed(clauses))))
    v = rng.randrange(n)
    excluding = ("neg" if model[v] else "pos", (v,))
    assert not equivalent(f, CnfFormula(t9, names, tuple(reversed(clauses)) + (excluding,)))
