import dataclasses
import os
import random

import pytest

from boolmin import graph, ihsb
from boolmin.classify import relation_shape
from boolmin.errors import ClassificationError
from boolmin.formats import load_language, serialize_cnf_formula
from boolmin.ihsb import (
    ImplGraph,
    PartitionedFormula,
    dual_templates,
    graph_from_cnf,
    language_templates,
    min_ihsb,
    min_ihsb_cnf,
    min_ihsb_minus_cnf,
    unsat_check_ihsb,
)
from boolmin.model import (
    CnfFormula,
    ConstraintLanguage,
    Relation,
    dual_name,
    equivalent,
    satisfiable,
)
from boolmin.oracle import brute_min_cnf
from boolmin.std import (
    rel_eq,
    rel_impl,
    rel_nand,
    rel_neg,
    rel_or,
    rel_pos,
    rel_xor,
    theorem9_language,
)

from conftest import mutual_classes, random_cnf, reach_sets, reduced_edges

# IHSB+ without equality: cycles stay implication cycles in the output
NO_EQ = ConstraintLanguage((rel_pos(), rel_neg(), rel_impl(), rel_or(2), rel_or(3)))


def F(lang, names, *specs):
    return CnfFormula(lang, tuple(names), tuple((r, tuple(v)) for r, v in specs))


def successors(g: ImplGraph) -> list[list[int]]:
    succ = [[] for _ in range(g.n)]
    for u, v in g.impl:
        succ[u].append(v)
    return succ


def falsified(g: ImplGraph, reach: list[int]) -> int:
    """Reference falsified set: the variables leading to a negative literal."""
    neg = graph.bits(g.neg)
    return graph.bits(u for u in range(g.n) if reach[u] & neg)


def unsatisfiable(g: ImplGraph) -> bool:
    """Reference check: a positive literal, or every member of some
    OR-clause, leads to a negative literal."""
    falsy = falsified(g, reach_sets(successors(g)))
    return bool(graph.bits(g.pos) & falsy) or any(not graph.bits(c) & ~falsy for c in g.ors)


def minimize(f):
    out, stats = min_ihsb_cnf(f)
    assert equivalent(out, f)
    return out, stats


def test_template_matching():
    assert relation_shape(rel_pos()) == ("pos",)
    assert relation_shape(rel_neg()) == ("neg",)
    assert relation_shape(rel_impl()) == ("imp", False)
    flipped = Relation("pmi", 2, frozenset({(0, 0), (1, 0), (1, 1)}))
    assert relation_shape(flipped) == ("imp", True)
    assert relation_shape(rel_eq()) == ("eq",)
    assert relation_shape(rel_or(3)) == ("or", 3)
    assert relation_shape(rel_nand(2)) == ("nand",)
    assert relation_shape(rel_xor()) == ("xor",)
    assert relation_shape(rel_nand(3)) is None


def test_normalize_clause_orientations(t9):
    flipped = Relation("pmi", 2, frozenset({(0, 0), (1, 0), (1, 1)}))
    lang = ConstraintLanguage((rel_impl(), flipped))
    f = F(lang, "ab", ("imp", (0, 1)), ("pmi", (0, 1)))
    g, _ = graph_from_cnf(f)
    assert g.impl == {(0, 1), (1, 0)}


def test_misclassified_language_rejected():
    # nand and xor have a shape, but not an IHSB+ one
    for rel in (rel_nand(2), rel_xor(), rel_nand(3)):
        with pytest.raises(ClassificationError):
            language_templates(ConstraintLanguage((rel,)))


def test_templates_are_memoized_and_read_only(t9):
    plain = language_templates(t9)
    assert language_templates(theorem9_language(3)) is plain
    assert not plain.dual and plain.or_arities == {2: "or2", 3: "or3"}
    with pytest.raises(dataclasses.FrozenInstanceError):
        plain.pos = "neg"
    with pytest.raises(TypeError):
        plain.or_arities[4] = "or3"
    with pytest.raises(TypeError):
        plain.shapes["pos"] = ("neg",)
    # an IHSB- language reads the dual relations' shapes under its own names
    minus = dual_templates(t9.dual())
    assert dual_templates(theorem9_language(3).dual()) is minus
    assert minus.dual
    assert dict(minus.shapes) == {dual_name(k): v for k, v in plain.shapes.items()}
    assert (minus.pos, minus.neg, minus.eq) == tuple(map(dual_name, (plain.pos, plain.neg, plain.eq)))
    assert minus.imp == (dual_name(plain.imp[0]), plain.imp[1])
    assert dict(minus.or_arities) == {m: dual_name(r) for m, r in plain.or_arities.items()}
    with pytest.raises(TypeError):
        minus.shapes["pos~"] = ("neg",)


def test_leadsto(t9):
    f = F(t9, "xyz", ("imp", (0, 1)), ("imp", (1, 2)))
    reach, _, _ = graph.condense(successors(graph_from_cnf(f)[0]))
    assert reach[0] >> 0 & 1
    assert reach[0] >> 2 & 1
    assert not reach[2] >> 0 & 1
    h = F(t9, "xy", ("eq", (0, 1)),)
    reach, rep, _ = graph.condense(successors(graph_from_cnf(h)[0]))
    assert reach[1] >> 0 & 1 and reach[0] >> 1 & 1
    assert rep == [0, 0]


def test_unsat_check(t9):
    f = F(t9, "xy", ("pos", (0,)), ("imp", (0, 1)), ("neg", (1,)))
    g, _ = graph_from_cnf(f)
    assert unsat_check_ihsb(g) is None
    g2, _ = graph_from_cnf(F(t9, "xy", ("or2", (0, 1))))
    assert unsat_check_ihsb(g2) == 0
    g3, _ = graph_from_cnf(F(t9, "x", ("pos", (0,)), ("neg", (0,))))
    assert unsat_check_ihsb(g3) is None
    g4, _ = graph_from_cnf(F(t9, "xyz", ("or2", (0, 1)), ("neg", (0,)), ("imp", (1, 2)),
                             ("neg", (2,))))
    assert unsat_check_ihsb(g4) is None


def test_unsat_check_matches_truth_table(t9):
    rng = random.Random(97)
    for _ in range(120):
        f = random_cnf(t9, rng, rng.randint(2, 5), rng.randint(1, 6))
        g, _ = graph_from_cnf(f)
        assert (unsat_check_ihsb(g) is None) == (not satisfiable(f))


def test_falsified_set_passed_on_matches_fresh_one(t9):
    # min_ihsb_cnf computes the falsified set once, in the check, and hands
    # it to min_ihsb: it equals the set read off fresh reach sets
    rng = random.Random(41)
    for _ in range(60):
        f = random_cnf(t9, rng, rng.randint(2, 6), rng.randint(1, 8))
        g, _ = graph_from_cnf(f)
        falsy = unsat_check_ihsb(g)
        assert (falsy is None) == unsatisfiable(g)
        if falsy is not None:
            assert falsy == falsified(g, reach_sets(successors(g)))


def test_empty_formula(t9):
    f = CnfFormula(t9, ("x",), ())
    out, stats = min_ihsb_cnf(f)
    assert out.clauses == () and stats.output_clauses == 0


def test_or_subsumption(t9):
    f = F(t9, "xyz", ("or2", (0, 1)), ("or3", (0, 1, 2)))
    out, _ = minimize(f)
    assert len(out.clauses) == 1
    assert out.clauses[0][0] == "or2"


def test_transitive_reduction(t9):
    f = F(t9, "xyz", ("imp", (0, 1)), ("imp", (1, 2)), ("imp", (0, 2)))
    out, _ = minimize(f)
    assert len(out.clauses) == 2


def test_cycle_collapse(t9):
    f = F(t9, "xy", ("imp", (0, 1)), ("imp", (1, 0)))
    out, _ = minimize(f)
    assert len(out.clauses) == 1
    assert out.clauses[0][0] == "eq"


def test_positive_propagation(t9):
    f = F(t9, "xy", ("pos", (0,)), ("imp", (0, 1)))
    out, _ = minimize(f)
    assert len(out.clauses) == 2
    assert {rel for rel, _ in out.clauses} == {"pos"}


def test_unsat_input_replaced(t9):
    f = F(t9, "xy", ("pos", (0,)), ("imp", (0, 1)), ("neg", (1,)))
    out, _ = min_ihsb_cnf(f)
    assert not satisfiable(out)
    assert len(out.clauses) == 2
    assert equivalent(out, f)


def test_restricted_vocabulary_eq_as_implications():
    lang = ConstraintLanguage((rel_impl(),))
    f = F(lang, "xy", ("imp", (0, 1)), ("imp", (1, 0)))
    out, _ = minimize(f)
    assert len(out.clauses) == 2
    assert {rel for rel, _ in out.clauses} == {"imp"}


def test_interleaved_classes_are_written_in_sorted_order(t9):
    # classes {a, c, e} and {b, d}: their chains interleave once sorted
    f = F(t9, "abcde", ("eq", (0, 2)), ("eq", (4, 2)), ("eq", (3, 1)))
    g, _ = graph_from_cnf(f)
    assert min_ihsb(g, unsat_check_ihsb(g))[0].classes == ((0, 2, 4), (1, 3))
    out, _ = minimize(f)
    assert list(out.clauses) == [("eq", (0, 2)), ("eq", (1, 3)), ("eq", (2, 4))]
    # without equality, each class's cycle merges into the sorted implications
    imps = ((0, 2), (2, 0), (4, 2), (2, 4), (3, 1), (1, 3))
    out, _ = minimize(F(NO_EQ, "abcde", *[("imp", e) for e in imps]))
    assert list(out.clauses) == [("imp", e) for e in ((0, 2), (1, 3), (2, 4), (3, 1), (4, 0))]


def test_restricted_vocabulary_literal_as_or():
    lang = ConstraintLanguage((rel_or(2),))
    f = F(lang, "xy", ("or2", (0, 0)), ("or2", (0, 1)))
    out, _ = minimize(f)
    # x forces the whole thing; emitted as or2(x, x)
    assert len(out.clauses) == 1
    assert out.clauses[0] == ("or2", (0, 0))


def test_restricted_vocabulary_or_padding():
    lang = ConstraintLanguage((rel_or(3), rel_neg()))
    f = F(lang, "xyz", ("or3", (0, 1, 2)), ("neg", (2,)))
    out, _ = minimize(f)
    # z is false, so the or shrinks to {x, y} and pads back to arity 3
    assert ("or3", (0, 1, 1)) in out.clauses
    assert len(out.clauses) == 2


def test_ihsb_minus_examples():
    lang = ConstraintLanguage((rel_nand(2), rel_nand(3), rel_impl(), rel_neg()))
    f = F(lang, "xyz", ("nand2", (0, 1)), ("nand3", (0, 1, 2)))
    out, _ = min_ihsb_minus_cnf(f)
    assert len(out.clauses) == 1 and equivalent(out, f)
    g = F(lang, "xy", ("neg", (0,)), ("imp", (1, 0)))
    out, _ = min_ihsb_minus_cnf(g)
    assert len(out.clauses) == 2 and equivalent(out, g)
    assert {rel for rel, _ in out.clauses} == {"neg"}
    h = F(lang, "xy", ("nand2", (0, 1)))
    out, _ = min_ihsb_minus_cnf(h)
    assert out.clauses == h.clauses


def test_entailed_literal_appears(t9):
    # Fact 1: every entailed literal is present as a literal clause
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        f = random_cnf(t9, rng, rng.randint(2, 5), rng.randint(1, 5))
        if not satisfiable(f):
            continue
        checked += 1
        out, _ = min_ihsb_cnf(f)
        pos_lits = {vs[0] for rel, vs in out.clauses if rel == "pos"}
        neg_lits = {vs[0] for rel, vs in out.clauses if rel == "neg"}
        for v in range(out.n_vars):
            forced_true = not satisfiable(
                CnfFormula(t9, f.var_names, f.clauses + (("neg", (v,)),))
            )
            forced_false = not satisfiable(
                CnfFormula(t9, f.var_names, f.clauses + (("pos", (v,)),))
            )
            if forced_true:
                assert v in pos_lits
            if forced_false:
                assert v in neg_lits


def test_entailed_implications_from_components(t9):
    # Fact 2: implications entailed by the output follow from its
    # implication, literal and equality parts alone
    rng = random.Random(43)
    checked = 0
    while checked < 25:
        f = random_cnf(t9, rng, rng.randint(2, 4), rng.randint(1, 5))
        if not satisfiable(f):
            continue
        checked += 1
        out, _ = min_ihsb_cnf(f)
        skeleton = CnfFormula(
            t9,
            out.var_names,
            tuple(c for c in out.clauses if c[0] in ("imp", "eq", "pos", "neg")),
        )
        for u in range(out.n_vars):
            for v in range(out.n_vars):
                if u == v:
                    continue
                test_clauses = (("pos", (u,)), ("neg", (v,)))
                whole = not satisfiable(
                    CnfFormula(t9, out.var_names, out.clauses + test_clauses)
                )
                part = not satisfiable(
                    CnfFormula(t9, out.var_names, skeleton.clauses + test_clauses)
                )
                if whole:
                    assert part


def check_optimality_and_idempotence(lang, minimize, seed, count):
    rng = random.Random(seed)
    checked = 0
    while checked < count:
        f = random_cnf(lang, rng, rng.randint(2, 6), rng.randint(1, 6))
        if not satisfiable(f):
            continue
        checked += 1
        out, _ = minimize(f)
        assert equivalent(out, f)
        oracle = brute_min_cnf(lang, f, max(1, len(f.clauses)))
        assert len(out.clauses) == oracle[0]
        again, _ = minimize(out)
        assert again.clauses == out.clauses


def test_random_optimality_and_idempotence(t9):
    check_optimality_and_idempotence(t9, min_ihsb_cnf, 47, 120)


@pytest.mark.parametrize(
    "lang, minimize",
    [(NO_EQ, min_ihsb_cnf), (NO_EQ.dual(), min_ihsb_minus_cnf)],
    ids=["ihsb+", "ihsb-"],
)
def test_random_optimality_without_equality(lang, minimize):
    check_optimality_and_idempotence(lang, minimize, 53, 80)


def test_mutually_entailing_ors_keep_one():
    # a <-> c and b <-> d: each OR-clause entails the other
    specs = [("or2", (0, 1)), ("or2", (2, 3))]
    specs += [("imp", e) for e in ((0, 2), (2, 0), (1, 3), (3, 1))]
    out, _ = minimize(F(NO_EQ, "abcd", *specs))
    # both name the classes {a, c} and {b, d} by their least members
    assert [c for c in out.clauses if c[0] == "or2"] == [("or2", (0, 1))]
    assert len(out.clauses) == 5


def test_mutual_members_keep_least():
    # a <-> b inside one OR-clause: the clause needs only the least of them
    f = F(NO_EQ, "abc", ("or3", (0, 1, 2)), ("imp", (0, 1)), ("imp", (1, 0)))
    out, _ = minimize(f)
    assert ("or2", (0, 2)) in out.clauses
    assert len(out.clauses) == 3


def test_or_subsumption_chain_in_one_pass(t9):
    # {a, b} entails {c, d}, which entails {e, f}
    specs = [("or2", (0, 1)), ("or2", (2, 3)), ("or2", (4, 5))]
    specs += [("imp", e) for e in ((0, 2), (1, 3), (2, 4), (3, 5))]
    out, stats = minimize(F(t9, "abcdef", *specs))
    assert [c for c in out.clauses if c[0] == "or2"] == [("or2", (0, 1))]
    assert len(out.clauses) == 5
    # one pass drops both weaker clauses, one more finds nothing to do
    # one pass drops both weaker clauses
    assert stats.passes == 1


def test_positive_literal_drops_several_ors(t9):
    f = F(t9, "abcdef", ("pos", (0,)), ("imp", (0, 1)),
          ("or2", (1, 2)), ("or2", (3, 1)), ("or3", (0, 4, 5)))
    out, stats = minimize(f)
    assert sorted(out.clauses, key=lambda c: c[1]) == [
        ("pos", (0,)), ("pos", (1,))]
    assert stats.passes == 1


def test_emptied_or_clause_is_an_error():
    # unsatisfiable: both members of the OR-clause are negative literals
    g = ImplGraph(2)
    g.ors.add(frozenset({0, 1}))
    g.neg.update({0, 1})
    with pytest.raises(RuntimeError, match="OR-clause emptied.*this is a bug"):
        min_ihsb(g, falsified(g, reach_sets(successors(g))))


def test_forced_and_falsified_variable_is_an_error():
    # unsatisfiable: x is a positive literal and leads to a negative one
    g = ImplGraph(2)
    g.pos.add(0)
    g.impl.add((0, 1))
    g.neg.add(1)
    with pytest.raises(RuntimeError, match="forced variable is falsified.*this is a bug"):
        min_ihsb(g, falsified(g, reach_sets(successors(g))))


def test_forced_pass_raises_exactly_on_unsatisfiable_input(t9):
    # handed an unsatisfiable graph, min_ihsb's forced pass finds an emptied
    # OR-clause or a forced variable that is falsified; on a satisfiable one
    # it finds neither
    rng = random.Random(43)
    kinds = set()
    for _ in range(300):
        f = random_cnf(t9, rng, rng.randint(1, 6), rng.randint(1, 9))
        g, _ = graph_from_cnf(f)
        try:
            min_ihsb(g, falsified(g, reach_sets(successors(g))))
        except RuntimeError as err:
            assert not satisfiable(f)
            kinds.add(str(err).split(":")[0])
        else:
            assert satisfiable(f)
    assert kinds == {"OR-clause emptied by falsified members", "a forced variable is falsified"}


# implication with its arguments swapped: pmi(a, b) is b -> a
PMI_EQ = ConstraintLanguage(
    (Relation("pmi", 2, frozenset({(0, 0), (1, 0), (1, 1)})), rel_eq(), rel_neg(), rel_or(3))
)


@pytest.mark.parametrize(
    "lang, minimize",
    [(PMI_EQ, min_ihsb_cnf), (PMI_EQ.dual(), min_ihsb_minus_cnf)],
    ids=["ihsb+", "ihsb-"],
)
def test_random_optimality_flipped_implication(lang, minimize):
    check_optimality_and_idempotence(lang, minimize, 59, 80)


@pytest.mark.parametrize(
    "cycle, member",
    [([(1, 0), (0, 1)], 1), ([(0, 1), (1, 2), (2, 0)], 2), ([(2, 1), (1, 0), (0, 2)], 1)],
    ids=["two", "three", "three-reversed"],
)
def test_or_member_names_its_class(t9, cycle, member):
    # an OR-clause on a non-least member of an implication cycle
    size = 1 + max(max(e) for e in cycle)
    names = "abcd"[: size + 1]
    specs = [("imp", e) for e in cycle] + [("or2", (member, size))]
    out, _ = minimize(F(t9, names, *specs))
    # with equality: a chain over the class, and the OR on its least member
    chain = [("eq", (u, u + 1)) for u in range(size - 1)]
    assert list(out.clauses) == chain + [("or2", (0, size))]
    # without: the cycle stays, and the OR names the class's least member
    out, _ = minimize(F(NO_EQ, names, *specs))
    ring = sorted([(u, u + 1) for u in range(size - 1)] + [(size - 1, 0)])
    assert list(out.clauses) == [("imp", e) for e in ring] + [("or2", (0, size))]


# The rewrite loop that min_ihsb replaced, kept as its reference: six rules
# applied in order to all of their matches, pass after pass, until a pass
# changes nothing.


def _add_literals(literals: set[int], mask: int) -> bool:
    new = mask & ~graph.bits(literals)
    literals.update(graph.members(new))
    return bool(new)


# Each rule applies to every match against the reach sets of the pass and
# returns whether it changed the graph.  Every rewrite keeps the formula
# equivalent: literals it adds are entailed, and clauses it drops or shrinks
# are entailed by clauses that the same rule keeps.  Implications made
# tautological by new literals are left to the tautology rule.


def _rule_or_subsumption(g: ImplGraph, reach) -> bool:
    """Drop every OR-clause entailed by another one or by a positive literal.

    Clause j entails clause k when each x in j leads to some y in k.  Of
    clauses entailing each other the last in sorted order stays."""
    ors = sorted(g.ors, key=sorted)
    occ = [0] * g.n  # occ[y]: indices of the clauses containing y
    for j, c in enumerate(ors):
        for y in c:
            occ[y] |= 1 << j
    # hit[x]: clauses containing some y that x leads to
    hit = [0] * g.n
    for x in range(g.n):
        for y in graph.members(reach[x]):
            hit[x] |= occ[y]
    dropped = 0
    for p in g.pos:
        dropped |= hit[p]
    # Entailment is a preorder, so scanning from the end, a clause not yet
    # dropped is the last of its class and entailed by nothing stronger.
    for j in range(len(ors) - 1, -1, -1):
        if not dropped >> j & 1:
            entailed = -1
            for x in ors[j]:
                entailed &= hit[x]
            dropped |= entailed & ~(1 << j)
    for j in graph.members(dropped):
        g.ors.discard(ors[j])
    return bool(dropped)


def _rule_literal_intro(g: ImplGraph, reach) -> bool:
    """A variable every member of an OR-clause leads to is entailed."""
    common = 0
    for c in g.ors:
        both = -1
        for x in c:
            both &= reach[x]
        common |= both
    return _add_literals(g.pos, common)


def _rule_positive_propagation(g: ImplGraph, reach) -> bool:
    entailed = 0
    for p in g.pos:
        entailed |= reach[p]
    return _add_literals(g.pos, entailed)


def _rule_negative_propagation(g: ImplGraph, reach) -> bool:
    return _add_literals(g.neg, falsified(g, reach))


def _rule_shrink_ors(g: ImplGraph, reach) -> bool:
    """Drop from each OR-clause the falsified members and every member that
    leads to another member; of members leading to each other the least
    stays."""
    falsy = falsified(g, reach)
    fired = False
    for c in list(g.ors):
        mask = graph.bits(c)
        drop = {x for x in c if falsy >> x & 1} | {
            x for x in c for y in graph.members(reach[x] & mask & ~(1 << x))
            if y < x or not reach[y] >> x & 1
        }
        if drop == c:
            raise RuntimeError(
                "OR-clause emptied by falsified members: the input was "
                "unsatisfiable; this is a bug"
            )
        if drop:
            fired = True
            g.ors.discard(c)
            rest = c - drop
            if len(rest) == 1:
                g.pos.update(rest)
            else:
                g.ors.add(rest)
    return fired


def _rule_tautology_removal(g: ImplGraph, reach) -> bool:
    kept = {(u, w) for u, w in g.impl if w not in g.pos and u not in g.neg}
    fired = len(kept) != len(g.impl)
    g.impl = kept
    return fired


_RULES = (
    _rule_or_subsumption,
    _rule_literal_intro,
    _rule_positive_propagation,
    _rule_negative_propagation,
    _rule_shrink_ors,
    _rule_tautology_removal,
)


def fixpoint_reference(g: ImplGraph, falsy: int | None = None) -> tuple[PartitionedFormula, int]:
    """Run the fixpoint rules to completion and canonicalize.

    Each pass applies every rule, in order, to all of its matches; reach is
    recomputed after a rule that removed implications.  Passes repeat until
    one changes nothing, and the count of passes is returned.  `falsy`, the
    falsified set `min_ihsb` takes, is not read: the rules find it.
    """
    cap = (len(g.pos) + len(g.neg) + len(g.impl) + len(g.ors) + g.n) ** 2 + 16
    passes = 0
    changed = True
    reach = reach_sets(successors(g))
    while changed:
        passes += 1
        if passes > cap:
            raise RuntimeError("ihsb fixpoint did not stabilize; this is a bug")
        changed = False
        for rule in _RULES:
            edges = len(g.impl)
            if rule(g, reach):
                changed = True
                if len(g.impl) != edges:
                    reach = reach_sets(successors(g))

    # The implications of forced variables are gone (tautology rule), so the
    # components are the equality classes of the free variables.  Canonical
    # form: the unique transitive reduction of the condensation, plus each
    # class of two or more as its sorted members.  OR members name their
    # class.
    comp = mutual_classes({u for e in g.impl for u in e}, reach)
    impl = reduced_edges(g.impl, comp, reach)
    classes: dict[int, list[int]] = {}
    for u, c in comp.items():
        classes.setdefault(c, []).append(u)
    ors = {frozenset(comp.get(x, x) for x in c) for c in g.ors}

    result = PartitionedFormula(
        g.n,
        tuple(sorted(g.pos)),
        tuple(sorted(g.neg)),
        tuple(sorted(impl)),
        tuple(sorted(tuple(sorted(c)) for c in classes.values() if len(c) > 1)),
        tuple(sorted(tuple(sorted(c)) for c in ors)),
    )
    return result, passes


def satisfiable_corpus(lang, seed, count, shape_weights={"imp": 6}):
    """Seeded random formulas that pass the IHSB satisfiability check, with
    each relation drawn by the weight of its shape (default 1): implications
    weighted up so that cycles, and OR-clauses over them, are common."""
    rng = random.Random(seed)
    weights = [shape_weights.get(relation_shape(r)[0], 1) for r in lang.relations]
    found = 0
    while found < count:
        n_vars = rng.randint(2, 9)
        rels = rng.choices(lang.relations, weights, k=rng.randint(1, 14))
        f = CnfFormula(lang, tuple(f"v{i}" for i in range(n_vars)), tuple(
            (r.name, tuple(rng.randrange(n_vars) for _ in range(r.arity))) for r in rels
        ))
        if not unsatisfiable(graph_from_cnf(f)[0]):
            found += 1
            yield f


# no literals, which force or falsify OR-clause members, and OR-clauses
# weighted up: most outputs keep an OR-clause
OR_WEIGHTS = {"imp": 6, "or": 4, "pos": 0, "neg": 0}
# the corpora the reference tests run, each with the least share of outputs
# that keep an OR-clause: the default weights keep one in about a fifth
REFERENCE_CORPORA = (({"imp": 6}, 6), (OR_WEIGHTS, 3))


@pytest.mark.parametrize("lang", ["t9", "no-eq", "pmi-eq"])
def test_one_pass_matches_fixpoint_reference(t9, lang):
    lang = {"t9": t9, "no-eq": NO_EQ, "pmi-eq": PMI_EQ}[lang]
    for weights, share in REFERENCE_CORPORA:
        with_or = 0
        for f in satisfiable_corpus(lang, 61, 600, weights):
            g, _ = graph_from_cnf(f)
            want, _ = fixpoint_reference(g)
            g, _ = graph_from_cnf(f)
            got, passes = min_ihsb(g, unsat_check_ihsb(g))
            assert got == want and passes == 1
            with_or += bool(got.or_clauses)
        assert with_or >= 600 // share


@pytest.mark.parametrize("lang", [NO_EQ.dual(), PMI_EQ.dual()], ids=["no-eq", "pmi-eq"])
def test_ihsb_minus_matches_fixpoint_reference(lang, monkeypatch):
    formulas = [f.dual() for f in satisfiable_corpus(lang.dual(), 67, 300)]
    got = [min_ihsb_minus_cnf(f)[0] for f in formulas]
    monkeypatch.setattr(ihsb, "min_ihsb", fixpoint_reference)
    assert got == [min_ihsb_minus_cnf(f)[0] for f in formulas]


def test_mutual_ors_name_the_least_member_of_each_class():
    # Through a -> d and c <-> d, {a, d, e} and {c, e} entail each other, and
    # so do {d, e} and {c, e}: the two inputs are equivalent, and both keep
    # one clause on the class {c, d}, named by c
    imps = [("imp", e) for e in ((0, 3), (2, 3), (3, 2))]
    for ors in ([("or3", (0, 3, 4)), ("or2", (2, 4))], [("or2", (3, 4)), ("or2", (2, 4))]):
        g, _ = graph_from_cnf(F(NO_EQ, "abcde", *ors, *imps))
        got, _ = min_ihsb(g, unsat_check_ihsb(g))
        assert got.or_clauses == ((2, 4),)


def equivalent_inputs(f, templates, minimize, rng):
    """Three inputs equivalent to f: its clauses shuffled, its clauses plus
    those of its minimum, and each OR-clause member replaced by a random
    other member of its equality class, if it has one."""
    shuffled = list(f.clauses)
    rng.shuffle(shuffled)
    g, _ = graph_from_cnf(f, templates)
    comp = mutual_classes(range(g.n), reach_sets(successors(g)))
    others = [[v for v in range(g.n) if comp[v] == comp[u] != v] or [u] for u in range(g.n)]
    substituted = [
        (name, tuple(rng.choice(others[v]) for v in vs))
        if templates.shapes[name][0] == "or" else (name, vs)
        for name, vs in f.clauses
    ]
    plus_minimum = f.clauses + minimize(f)[0].clauses
    return [dataclasses.replace(f, clauses=tuple(cs))
            for cs in (shuffled, plus_minimum, substituted)]


@pytest.mark.parametrize("lang", ["t9", "no-eq", "pmi-eq"])
@pytest.mark.parametrize("minus", [False, True], ids=["ihsb+", "ihsb-"])
def test_equivalent_inputs_give_identical_outputs(t9, lang, minus):
    lang = {"t9": t9, "no-eq": NO_EQ, "pmi-eq": PMI_EQ}[lang]
    rng = random.Random(101)
    substituted = 0
    for f in satisfiable_corpus(lang, 103, 300, OR_WEIGHTS):
        minimize, templates = min_ihsb_cnf, language_templates(lang)
        if minus:
            f = f.dual()
            minimize, templates = min_ihsb_minus_cnf, dual_templates(f.language)
        want = serialize_cnf_formula(minimize(f)[0], "in.lang")
        others = equivalent_inputs(f, templates, minimize, rng)
        for other in others:
            assert equivalent(other, f)
            assert serialize_cnf_formula(minimize(other)[0], "in.lang") == want
        substituted += others[-1].clauses != f.clauses
    assert substituted >= 30


def graph_of(base: PartitionedFormula) -> ImplGraph:
    """The base formula as working state: a class is its equality chain,
    and an equality is its two implications."""
    g = ImplGraph(base.n)
    g.pos.update(base.pos_literals)
    g.neg.update(base.neg_literals)
    g.impl.update(base.impl_clauses)
    for c in base.classes:
        for u, v in zip(c, c[1:]):
            g.impl.update(((u, v), (v, u)))
    g.ors.update(frozenset(c) for c in base.or_clauses)
    return g


@pytest.mark.parametrize("lang", ["t9", "no-eq", "pmi-eq"])
def test_no_rule_fires_on_the_output(t9, lang):
    lang = {"t9": t9, "no-eq": NO_EQ, "pmi-eq": PMI_EQ}[lang]
    for weights, share in REFERENCE_CORPORA:
        with_or = 0
        for f in satisfiable_corpus(lang, 71, 300, weights):
            g, _ = graph_from_cnf(f)
            out = graph_of(min_ihsb(g, unsat_check_ihsb(g))[0])
            reach = reach_sets(successors(out))
            for rule in _RULES:
                assert not rule(out, reach), rule.__name__
            with_or += bool(out.ors)
        assert with_or >= 300 // share


@pytest.mark.parametrize("lang", ["t9", "no-eq", "pmi-eq"])
def test_min_ihsb_only_reads_its_graph(t9, lang):
    lang = {"t9": t9, "no-eq": NO_EQ, "pmi-eq": PMI_EQ}[lang]
    changed = 0
    for f in satisfiable_corpus(lang, 79, 200):
        g, templates = graph_from_cnf(f)
        before = {name: set(value) for name, value in vars(g).items() if name != "n"}
        got, _ = min_ihsb(g, unsat_check_ihsb(g))
        assert {name: value for name, value in vars(g).items() if name != "n"} == before
        changed += graph_of(got).impl != g.impl
    # the output's implications differ from the input's in many cases
    assert changed >= 50


def dual_route_reference(formula):
    """The IHSB- route before `dual_templates`: minimize the dual formula as
    IHSB+ and dualize the result back, over the dual of the dual language,
    which is the input's own language."""
    dual_out, stats = min_ihsb_cnf(formula.dual())
    return dual_out.dual(), stats


BENCH_MINUS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "data", "ihsb_minus.lang"
)


@pytest.mark.parametrize("lang", ["no-eq", "pmi-eq", "t9", "bench"])
def test_ihsb_minus_matches_dual_route_reference(t9, lang):
    if lang == "bench":
        lang = load_language(BENCH_MINUS)
    else:
        lang = {"no-eq": NO_EQ, "pmi-eq": PMI_EQ, "t9": t9}[lang].dual()
    rng = random.Random(89)
    # satisfiable formulas rich in cycles, and plain random ones, many of
    # them unsatisfiable
    formulas = [f.dual() for f in satisfiable_corpus(lang.dual(), 73, 150)]
    formulas += [random_cnf(lang, rng, rng.randint(1, 7), rng.randint(1, 10)) for _ in range(150)]
    unsatisfiable = 0
    for f in formulas:
        f = CnfFormula(lang, f.var_names, f.clauses, "in.lang")
        got, got_stats = min_ihsb_minus_cnf(f)
        want, want_stats = dual_route_reference(f)
        assert serialize_cnf_formula(got) == serialize_cnf_formula(want)
        assert got_stats == want_stats
        assert got.language is f.language and want.language is f.language
        unsatisfiable += not satisfiable(f)
    assert unsatisfiable >= 20
