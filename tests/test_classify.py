import dataclasses
import random
from itertools import product

import pytest

import boolmin
from boolmin.affine import min_affine
from boolmin.bijunctive import min_bijunctive
from boolmin.classify import (
    HornWitness,
    classify_basis,
    classify_language,
    closed_under,
    find_positive_horn_witness,
    function_shape,
    is_irreducible,
    relation_flags,
    report_lines,
)
from boolmin.errors import ClassificationError
from boolmin.formats import parse_functions
from boolmin.ihsb import min_ihsb_cnf, min_ihsb_minus_cnf
from boolmin.model import (
    BoolFunction,
    ConstraintLanguage,
    Relation,
    all_assignments,
    dualize,
    tuple_to_code,
)
from boolmin.std import (
    fn_and,
    fn_const,
    fn_not,
    fn_or,
    fn_xor,
    rel_horn_impl,
    rel_impl,
    rel_nand,
    rel_or,
    rel_parity,
    rel_pos,
    rel_xor,
)

from conftest import random_cnf


def rel_from(name, arity, tuples):
    return Relation(name, arity, frozenset(tuples))


def test_closed_under_examples():
    # the 2-element XOR relation is not IHSB+
    assert not closed_under(rel_xor(), "orAndMix")
    assert closed_under(rel_impl(), "min2")
    singleton = rel_from("one", 2, {(1, 0)})
    assert closed_under(singleton, "maj3")


def test_closure_properties_of_standard_relations():
    assert closed_under(rel_parity(3, 1), "xor3")
    assert not closed_under(rel_or(2), "xor3")
    assert closed_under(rel_or(2), "maj3")
    assert not closed_under(rel_or(3), "maj3")
    assert closed_under(rel_or(3), "orAndMix")
    assert closed_under(rel_nand(3), "andOrMix")
    assert not closed_under(rel_or(2), "min2")
    assert closed_under(rel_nand(2), "min2")


# each closure operation applied to one coordinate of k tuples
CLOSURE_OP_DEFINITIONS = {
    "min2": (2, min),
    "max2": (2, max),
    "maj3": (3, lambda a, b, c: int(a + b + c >= 2)),
    "xor3": (3, lambda a, b, c: a ^ b ^ c),
    "orAndMix": (3, lambda a, b, c: a | (b & c)),
    "andOrMix": (3, lambda a, b, c: a & (b | c)),
}


def closed_under_reference(rel, op):
    """The op applied coordinatewise to every k-tuple of R's tuples stays in R."""
    k, fn = CLOSURE_OP_DEFINITIONS[op]
    return all(tuple(map(fn, *ts)) in rel.tuples for ts in product(rel.tuples, repeat=k))


def test_closed_under_matches_definition():
    rels = [Relation("r", a, t) for a in (1, 2, 3) for t in _nonempty_relations(a)]
    assert len(rels) == 273
    rng = random.Random(4)
    rows = list(all_assignments(4))
    for _ in range(100):
        rels.append(Relation("r", 4, frozenset(rng.sample(rows, rng.randint(1, len(rows))))))
    for rel in rels:
        for op in CLOSURE_OP_DEFINITIONS:
            assert closed_under(rel, op) == closed_under_reference(rel, op), (op, rel.tuples)


def test_irreducibility_examples():
    assert is_irreducible(rel_or(3))
    x_or_yz = rel_from(
        "mix", 3, {(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 1)}
    )
    assert not is_irreducible(x_or_yz)
    assert is_irreducible(rel_parity(2, 1))
    assert not is_irreducible(rel_from("full2", 2, set(all_assignments(2))))
    # full unary relation decomposes into the empty conjunction
    assert not is_irreducible(rel_from("top", 1, {(0,), (1,)}))
    assert is_irreducible(rel_pos())


def test_function_shape_is_memoized_and_read_only():
    text = "function or2 arity 2 table 0111\nfunction and2 arity 2 table 0001\n"
    first, second = parse_functions(text), parse_functions(text)
    assert first[0] is not second[0] and first == second
    for f, g in zip(first, second):
        assert function_shape(f) is function_shape(g)
    f = first[1]
    assert f.dual().dual() is not f
    assert function_shape(f.dual().dual()) is function_shape(f)
    shape = function_shape(f)
    with pytest.raises(dataclasses.FrozenInstanceError):
        shape.or_function = True
    assert shape.and_function and not shape.or_function and shape.relevant == frozenset({0, 1})


def test_function_shape_examples():
    s = function_shape(fn_or(2))
    assert s.or_function and not s.and_function and not s.xor_function
    assert s.relevant == frozenset({0, 1})
    s = function_shape(fn_xor(2))
    assert s.xor_function and s.zero_value == 0
    s = function_shape(fn_and(2))
    assert s.and_function and not s.or_function
    s = function_shape(fn_const(1))
    assert s.or_function and s.and_function and s.xor_function
    s = function_shape(fn_not())
    assert s.xor_function and not s.or_function and not s.and_function
    # or-function with an irrelevant argument
    proj = BoolFunction("fst", 2, (0, 0, 1, 1))
    s = function_shape(proj)
    assert s.or_function and s.and_function and s.xor_function
    assert s.relevant == frozenset({0})


def test_classify_basis():
    assert classify_basis((fn_or(2), fn_or(3))) == "P-or"
    assert classify_basis((fn_const(1), fn_and(2))) == "P-and"
    assert classify_basis((fn_and(2), fn_xor(2))) == "coNP-hard"
    assert classify_basis((fn_xor(2), fn_xor(3, 1))) == "P-xor"


def test_classify_basis_duality_consistent():
    rng = random.Random(31)
    pools = [
        (fn_or(2),),
        (fn_or(2), fn_or(3)),
        (fn_and(2),),
        (fn_xor(2),),
        (fn_xor(2), fn_not()),
        (fn_const(0),),
        (fn_const(1), fn_const(0)),
        (fn_and(2), fn_const(1)),
        (fn_or(2), fn_xor(2)),
    ]
    swap = {"P-or": "P-and", "P-and": "P-or", "P-xor": "P-xor", "coNP-hard": "coNP-hard"}
    for basis in pools:
        dual_basis = tuple(dualize(f) for f in basis)
        assert classify_basis(dual_basis) == swap[classify_basis(basis)]


def test_classify_language_verdicts():
    report = classify_language(ConstraintLanguage((rel_or(2),)))
    assert report.verdict == "P-bijunctive"
    assert report.flags["or2"].ihsb_plus
    report = classify_language(ConstraintLanguage((rel_horn_impl(2),)))
    assert report.verdict == "NP-complete-horn"
    assert report.horn_witness is not None
    report = classify_language(ConstraintLanguage((rel_parity(3, 1),)))
    assert report.verdict == "P-affine"
    report = classify_language(ConstraintLanguage((rel_or(3),)))
    assert report.verdict == "P-ihsb+"
    report = classify_language(ConstraintLanguage((rel_nand(3),)))
    assert report.verdict == "P-ihsb-"
    not_schaefer = Relation("nae", 3, frozenset(set(all_assignments(3)) - {(0, 0, 0), (1, 1, 1)}))
    report = classify_language(ConstraintLanguage((not_schaefer,)))
    assert report.verdict == "coNP-hard-nonschaefer"
    assert not report.schaefer


def test_classify_language_is_memoized_and_read_only():
    def build():
        return ConstraintLanguage((rel_or(3), rel_impl()))

    first, second = build(), build()
    assert first is not second
    report = classify_language(first)
    assert classify_language(second) is report
    with pytest.raises(TypeError):
        report.flags["or3"] = report.flags["imp"]
    with pytest.raises(TypeError):
        del report.flags["imp"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.verdict = "P-affine"
    assert classify_language(build()).verdict == "P-ihsb+"
    assert list(report.flags) == ["or3", "imp"] and report.flags["or3"].ihsb_plus
    assert "or3.ihsb+=true" in report_lines(report)


def test_classify_language_caveat():
    mix = Relation("mix", 3, frozenset({(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 1)}))
    report = classify_language(ConstraintLanguage((rel_or(2), mix)))
    assert report.irreducibility_caveat
    lines = report_lines(report)
    assert any(line.startswith("caveat=") for line in lines)
    assert "verdict=" + report.verdict in lines


@pytest.mark.parametrize("rels, verdict, minimizer", [
    ((rel_or(2), rel_impl()), "P-bijunctive", min_bijunctive),
    ((rel_parity(2, 1), rel_parity(3, 0)), "P-affine", min_affine),
    ((rel_or(3), rel_impl()), "P-ihsb+", min_ihsb_cnf),
    ((rel_nand(3), rel_impl()), "P-ihsb-", min_ihsb_minus_cnf),
])
def test_minimize_dispatches_by_verdict(rels, verdict, minimizer):
    lang = ConstraintLanguage(rels)
    assert classify_language(lang).verdict == verdict
    rng = random.Random(61)
    for _ in range(20):
        f = random_cnf(lang, rng, rng.randint(1, 5), rng.randint(1, 6))
        assert boolmin.minimize(f) == minimizer(f)


def test_minimize_refusals_raise():
    reducible = ConstraintLanguage((rel_or(2), Relation("top", 1, frozenset({(0,), (1,)}))))
    horn = ConstraintLanguage((rel_horn_impl(2),))
    with pytest.raises(ClassificationError, match="reducible relations"):
        boolmin.minimize(random_cnf(reducible, random.Random(1), 2, 2))
    with pytest.raises(ClassificationError, match="no polynomial minimizer applies"):
        boolmin.minimize(random_cnf(horn, random.Random(1), 3, 2))


def test_ihsb_implies_horn_side():
    # IHSB+ implies dual Horn, IHSB- implies Horn, on every arity-<=3 relation
    for arity in (1, 2, 3):
        for tuples in _nonempty_relations(arity):
            rel = Relation("r", arity, tuples)
            flags = relation_flags(rel)
            if flags.ihsb_plus:
                assert flags.dual_horn
            if flags.ihsb_minus:
                assert flags.horn


def _nonempty_relations(arity):
    rows = list(all_assignments(arity))
    for mask in range(1, 1 << len(rows)):
        yield frozenset(t for i, t in enumerate(rows) if (mask >> i) & 1)


def test_horn_witness_examples():
    w = find_positive_horn_witness(ConstraintLanguage((rel_horn_impl(2),)))
    assert w is not None and w.k == 2 and w.permutation == (0, 1, 2)
    # x -> y alone is IHSB-, so no witness
    assert find_positive_horn_witness(ConstraintLanguage((rel_impl(),))) is None
    # permuted arguments: head in the middle
    permuted = Relation(
        "perm", 3, frozenset(t for t in all_assignments(3) if t != (1, 0, 1))
    )
    w = find_positive_horn_witness(ConstraintLanguage((permuted,)))
    assert w is not None and w.k == 2
    # permutation moves the head position last
    assert w.permutation == (0, 2, 1)


def test_dual_horn_witness_reported():
    dual = dualize(rel_horn_impl(2))
    report = classify_language(ConstraintLanguage((dual,)))
    assert report.verdict == "NP-complete-dualhorn"
    assert report.horn_witness is not None
    assert report.horn_witness.relation == dual.name
    assert "witness=none" not in report_lines(report)


def test_hardness_verdict_without_witness_prints_witness_none():
    # x <-> (y and z) is irreducible Horn, not IHSB-, and matches no template
    andeq = Relation("andeq", 3, frozenset(t for t in all_assignments(3) if t[0] == t[1] & t[2]))
    for lang, verdict in (
        (ConstraintLanguage((andeq,)), "NP-complete-horn"),
        (ConstraintLanguage((dualize(andeq),)), "NP-complete-dualhorn"),
    ):
        report = classify_language(lang)
        assert report.verdict == verdict and report.horn_witness is None
        assert report_lines(report)[:4] == [
            f"verdict={verdict}", "schaefer=true", "irreducible=true", "witness=none"
        ]


# Row-by-row references for the mask tests: relevance by scanning row pairs,
# shapes by checking every row, irreducibility through projection code sets.


def _relevant_reference(f):
    n = f.arity
    return frozenset(
        i
        for i in range(n)
        if any(
            f.table[code] != f.table[code | 1 << (n - 1 - i)]
            for code in range(1 << n)
            if not code & 1 << (n - 1 - i)
        )
    )


def function_shape_reference(f):
    n, zero, one = f.arity, f.table[0], f.table[-1]
    relevant = _relevant_reference(f)
    rows = [(t, f.table[tuple_to_code(t)]) for t in all_assignments(n)]
    ors = {i for i in range(n) if f.table[1 << (n - 1 - i)] == 1}
    ands = {i for i in range(n) if f.table[((1 << n) - 1) ^ (1 << (n - 1 - i))] == 0}
    xors = {i for i in range(n) if f.table[1 << (n - 1 - i)] != zero}
    is_or = not relevant or (zero == 0 and all(v == any(t[i] for i in ors) for t, v in rows))
    is_and = not relevant or (one == 1 and all(v == all(t[i] for i in ands) for t, v in rows))
    is_xor = all(v == (zero + sum(t[i] for i in xors)) % 2 for t, v in rows)
    return is_or, is_and, is_xor, relevant, zero


def _drop(code, bit_pos):
    return ((code >> (bit_pos + 1)) << bit_pos) | (code & ((1 << bit_pos) - 1))


def is_irreducible_reference(rel):
    n = rel.arity
    projections = [{_drop(c, n - 1 - i) for c in rel.codes} for i in range(n)]
    return any(
        code not in rel.codes
        and all(_drop(code, n - 1 - i) in projections[i] for i in range(n))
        for code in range(1 << n)
    )


def horn_witness_reference(rel):
    """find_positive_horn_witness of the one-relation language {rel}."""
    n = rel.arity
    if not (is_irreducible_reference(rel) and closed_under(rel, "min2")):
        return None
    if closed_under(rel, "andOrMix") or n < 3 or len(rel.tuples) != (1 << n) - 1:
        return None
    missing = next(iter(set(all_assignments(n)) - rel.tuples))
    if missing.count(0) != 1:
        return None
    head = missing.index(0)
    return HornWitness(rel.name, n - 1, tuple(i for i in range(n) if i != head) + (head,))


def test_function_shape_matches_reference_on_every_small_table():
    for arity in range(4):
        for code in range(1 << (1 << arity)):
            table = tuple((code >> row) & 1 for row in range(1 << arity))
            f = BoolFunction("f", arity, table)
            s = function_shape(f)
            got = (s.or_function, s.and_function, s.xor_function, s.relevant, s.zero_value)
            assert got == function_shape_reference(f), table


def test_irreducibility_matches_reference():
    rels = [Relation("r", a, t) for a in (1, 2, 3) for t in _nonempty_relations(a)]
    rng = random.Random(12)
    for _ in range(2000):
        arity = rng.choice((4, 5))
        rows = list(all_assignments(arity))
        rels.append(Relation("r", arity, frozenset(rng.sample(rows, rng.randint(1, len(rows))))))
    for rel in rels:
        assert is_irreducible(rel) == is_irreducible_reference(rel), rel.tuples


def test_horn_witness_matches_reference_on_every_arity3_relation():
    for tuples in _nonempty_relations(3):
        rel = Relation("r", 3, tuples)
        got = find_positive_horn_witness(ConstraintLanguage((rel,)))
        assert got == horn_witness_reference(rel), tuples
