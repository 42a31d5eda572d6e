import itertools
import random
import tracemalloc

import pytest

from boolmin import graph
from boolmin.bijunctive import _emit, min_bijunctive, neg_lit, pos_lit, to_literal_graph
from boolmin.errors import ClassificationError, VocabularyError
from boolmin.formats import serialize_cnf_formula
from boolmin.model import (
    CnfFormula,
    ConstraintLanguage,
    Relation,
    equivalent,
    satisfiable,
    var_mask,
)
from boolmin.oracle import brute_min_cnf, unsat_minimum
from boolmin.std import rel_eq, rel_impl, rel_nand, rel_neg, rel_or, rel_pos, rel_xor

from conftest import clause_mask, mutual_classes, random_cnf, reach_sets, reduced_edges

BASE = {
    "pos": rel_pos(),
    "neg": rel_neg(),
    "or2": rel_or(2),
    "nand2": rel_nand(2),
    "imp": rel_impl(),
    "pmi": Relation("pmi", 2, frozenset({(0, 0), (1, 0), (1, 1)})),  # y -> x
    "eq": rel_eq(),
    "xor": rel_xor(),
}


def lang_of(*names):
    return ConstraintLanguage(tuple(BASE[n] for n in names))


def F(lang, names, *specs):
    return CnfFormula(lang, tuple(names), tuple((r, tuple(v)) for r, v in specs))


def literal_reach(g):
    """Reach sets over all 2n literals of a literal graph."""
    succ = [[] for _ in range(2 * g.n)]
    for a, b in g.edges:
        succ[a].append(b)
    return reach_sets(succ)


def test_literal_graph_encoding(bijunctive_full):
    f = F(bijunctive_full, "xy", ("or2", (0, 1)))
    g = to_literal_graph(f)
    assert (neg_lit(0), pos_lit(1)) in g.edges
    assert (neg_lit(1), pos_lit(0)) in g.edges
    f = F(bijunctive_full, "x", ("nand2", (0, 0)))
    g = to_literal_graph(f)
    assert neg_lit(0) in g.forced
    f = F(bijunctive_full, "xy", ("xor", (0, 1)))
    g = to_literal_graph(f)
    assert (pos_lit(0), neg_lit(1)) in g.edges
    assert (neg_lit(0), pos_lit(1)) in g.edges


def _two_sat_mask(g, n: int) -> int:
    """Solutions of the literal graph read as 2-SAT: every forced literal
    holds and every edge a -> b is satisfied."""
    full = (1 << (1 << n)) - 1
    if g.contradictory:
        return 0

    def holds(lit):
        return var_mask(lit // 2, n) ^ (full if lit & 1 else 0)

    mask = full
    for lit in g.forced:
        mask &= holds(lit)
    for a, b in g.edges:
        mask &= (full ^ holds(a)) | holds(b)
    return mask


@pytest.mark.parametrize("name", list(BASE))
def test_literal_graph_reads_as_clause(name):
    # every argument pattern over two variables, repeated variable included
    rel = BASE[name]
    lang = lang_of(name)
    for args in itertools.product(range(2), repeat=rel.arity):
        g = to_literal_graph(F(lang, "xy", (name, args)))
        assert _two_sat_mask(g, 2) == clause_mask(rel, args, 2), (name, args)


def test_template_rejects_ternary(t9):
    f = F(t9, "xyz", ("or3", (0, 1, 2)))
    with pytest.raises(ClassificationError):
        to_literal_graph(f)


def test_same_edge_pair_collapses(bijunctive_full):
    # or2(x,y) and or2(y,x) induce the same skew pair
    f = F(bijunctive_full, "xy", ("or2", (0, 1)), ("or2", (1, 0)))
    out, _ = min_bijunctive(f)
    assert len(out.clauses) == 1 and equivalent(out, f)


def test_scc_to_equality(bijunctive_full):
    f = F(bijunctive_full, "xy", ("imp", (0, 1)), ("imp", (1, 0)))
    out, _ = min_bijunctive(f)
    assert len(out.clauses) == 1
    assert out.clauses[0] == ("eq", (0, 1))


def test_transitive_reduction(bijunctive_full):
    f = F(bijunctive_full, "xyz", ("imp", (0, 1)), ("imp", (1, 2)), ("imp", (0, 2)))
    out, _ = min_bijunctive(f)
    assert len(out.clauses) == 2 and equivalent(out, f)


def test_unsat_paths(bijunctive_full):
    f = F(bijunctive_full, "x", ("xor", (0, 0)))
    out, _ = min_bijunctive(f)
    assert not satisfiable(out) and equivalent(out, f)
    g = F(bijunctive_full, "xy", ("eq", (0, 1)), ("xor", (0, 1)), ("pos", (0,)))
    out, _ = min_bijunctive(g)
    assert not satisfiable(out) and equivalent(out, g)


def test_implication_cycle_without_equality():
    lang = lang_of("imp")
    f = F(lang, "xyz", ("imp", (0, 1)), ("imp", (1, 2)), ("imp", (2, 0)), ("imp", (0, 2)))
    out, _ = min_bijunctive(f)
    assert len(out.clauses) == 3 and equivalent(out, f)


def test_forced_pinning_via_links():
    lang = lang_of("pos", "imp", "xor")
    # pos(x) and xor(x,y) force y = 0 without any negative unary
    f = F(lang, "xy", ("pos", (0,)), ("xor", (0, 1)))
    out, _ = min_bijunctive(f)
    assert len(out.clauses) == 2 and equivalent(out, f)


def test_forced_pinning_via_pair():
    lang = lang_of("imp", "xor")
    f = F(lang, "xy", ("xor", (1, 0)), ("imp", (1, 0)))
    out, _ = min_bijunctive(f)
    assert len(out.clauses) == 2 and equivalent(out, f)


def test_forced_pinning_via_wedge():
    lang = lang_of("pos", "imp", "xor")
    f = F(lang, "abc", ("imp", (0, 1)), ("imp", (0, 2)), ("xor", (2, 1)))
    out, _ = min_bijunctive(f)
    assert len(out.clauses) == 3 and equivalent(out, f)


def test_contraposition_closure_preserved(bijunctive_full):
    # the output's literal reachability equals the input's
    rng = random.Random(53)
    checked = 0
    while checked < 30:
        f = random_cnf(bijunctive_full, rng, rng.randint(2, 5), rng.randint(1, 6))
        if not satisfiable(f):
            continue
        checked += 1
        out, _ = min_bijunctive(f)
        g_in, g_out = to_literal_graph(f), to_literal_graph(out)
        # compare semantic content through reachability plus forced closure,
        # restricted to unforced variables, which determines equivalence here
        assert equivalent(out, f)
        reach_in, reach_out = literal_reach(g_in), literal_reach(g_out)
        forced = 0
        seeds = set(g_in.forced) | {
            lit ^ 1 for lit in range(2 * g_in.n) if reach_in[lit] >> (lit ^ 1) & 1
        }
        for s in seeds:
            forced |= reach_in[s]
        forced_vars = {lit // 2 for lit in range(2 * g_in.n) if forced >> lit & 1}
        for a in range(2 * g_in.n):
            for b in range(2 * g_in.n):
                if a // 2 in forced_vars or b // 2 in forced_vars:
                    continue
                assert (reach_in[a] >> b & 1) == (reach_out[a] >> b & 1)


def test_long_chain_with_skip_edges():
    # x_i -> x_{i+1} and x_i -> x_{i+2}: the skip edges are all redundant
    n = 2000
    lang = lang_of("imp")
    specs = [("imp", (i, i + 1)) for i in range(n - 1)]
    specs += [("imp", (i, i + 2)) for i in range(n - 2)]
    f = F(lang, [f"x{i}" for i in range(n)], *specs)
    out, stats = min_bijunctive(f)
    assert set(out.clauses) == {("imp", (i, i + 1)) for i in range(n - 1)}
    assert len(out.clauses) == stats.output_clauses == n - 1


def test_enumerated_languages_against_oracle():
    rng = random.Random(59)
    names = list(BASE)
    singles = [lang_of(n) for n in names]
    pairs = [lang_of(*c) for c in itertools.combinations(names, 2)]
    for lang in singles + pairs:
        for _ in range(4):
            f = random_cnf(lang, rng, rng.randint(2, 5), rng.randint(1, 5))
            out, _ = min_bijunctive(f)
            assert equivalent(out, f)
            if satisfiable(f):
                oracle = brute_min_cnf(lang, f, max(1, len(f.clauses)))
                assert oracle is not None
                assert len(out.clauses) == oracle[0]
            again, _ = min_bijunctive(out)
            assert again.clauses == out.clauses


# --- units first against the former all-pairs reach ----------------------


def all_pairs_min_bijunctive(formula):
    """The former min_bijunctive: reach sets over all 2n literals, the
    forced closure of the units and of every literal that reaches its
    negation read off them, and classes and reduction on the same sets.
    It re-emits through the same `_emit`, so the two differ only in how
    they find the forced literals, the classes and the reduced edges."""
    g = to_literal_graph(formula)
    if g.contradictory:
        return unsat_minimum(formula)
    reach = literal_reach(g)
    seeds = g.forced | {lit ^ 1 for lit in range(2 * g.n) if reach[lit] >> (lit ^ 1) & 1}
    forced_mask = 0
    for s in seeds:
        forced_mask |= reach[s]
    forced = set(graph.members(forced_mask))
    if any(lit ^ 1 in forced for lit in forced):
        return unsat_minimum(formula)
    forced_vars = {lit // 2 for lit in forced}
    free_lits = [lit for lit in range(2 * g.n) if lit // 2 not in forced_vars]
    class_of = mutual_classes(free_lits, reach)
    return _emit(formula, forced, class_of, list(reduced_edges(g.edges, class_of, reach)))


def outcome(minimizer, f):
    """The output text and stats lines, or the error a minimizer raises."""
    try:
        out, stats = minimizer(f)
    except VocabularyError as err:
        return "VocabularyError", str(err)
    return serialize_cnf_formula(out, "b.lang"), stats.lines()


def reference_corpus():
    """Hand-made cases, then seeded random formulas with units, repeated
    arguments and a planted solution for half of them, over languages with
    and without unary relations."""
    full = ConstraintLanguage(tuple(BASE.values()))
    no_unary = [lang_of("imp", "xor"), lang_of("imp", "nand2"), lang_of("or2", "nand2", "eq"),
                lang_of("imp", "xor", "or2")]
    names = [f"v{i}" for i in range(12)]
    chain = [("imp", (i, i + 1)) for i in range(7)]
    cases = [
        # x -> y and x -> ~y: x is false, which unit propagation misses
        (full, ("imp", (0, 1)), ("nand2", (0, 1))),
        (lang_of("imp", "nand2"), ("imp", (0, 1)), ("nand2", (0, 1)), ("imp", (2, 3))),
        (lang_of("pos", "imp", "xor"), ("imp", (0, 1)), ("imp", (0, 2)), ("xor", (2, 1))),
        # contradictory units, directly and along a chain, and unit chains
        (full, ("pos", (0,)), ("neg", (0,))),
        (full, ("pos", (0,)), *chain, ("neg", (7,))),
        (full, ("pos", (0,)), *chain, ("or2", (8, 9))),
        (full, ("neg", (7,)), *chain, ("eq", (8, 9))),
        # classes of both polarities, with an edge between two classes
        (full, ("eq", (0, 1)), ("xor", (1, 2)), ("imp", (2, 3)), ("imp", (3, 2)), ("or2", (3, 4))),
        (lang_of("imp", "xor"), ("xor", (0, 1)), ("imp", (0, 2)), ("imp", (2, 0)), ("imp", (4, 5))),
        # diagonal clauses: forced, contradictory and empty
        (full, ("or2", (0, 0)), ("imp", (0, 1)), ("nand2", (2, 2)), ("eq", (3, 3)), ("imp", (4, 4))),
        (full, ("xor", (0, 0)), ("imp", (0, 1))),
        (lang_of("imp", "nand2"), ("nand2", (0, 0)), ("nand2", (1, 1)), ("imp", (2, 3))),
        (lang_of("or2", "nand2"), ("or2", (0, 0)), ("nand2", (1, 1)), ("or2", (2, 3))),
        # a failed literal whose negation then forces a chain
        (full, ("imp", (0, 1)), ("imp", (1, 2)), ("nand2", (0, 2)), ("or2", (0, 3)), ("imp", (3, 4))),
    ]
    for lang, *specs in cases:
        yield F(lang, names, *specs)
    rng = random.Random(61)
    languages = [full, *no_unary, lang_of("pos", "imp", "xor"), lang_of("neg", "or2", "eq")]
    for _ in range(1000):
        lang = rng.choice(languages)
        n = rng.randint(1, 12)
        plant = [rng.randrange(2) for _ in range(n)]
        planted = rng.random() < 0.5
        m = rng.randint(1, 3 * n)
        clauses = []
        while len(clauses) < m:
            rel = rng.choice(lang.relations)
            ids = tuple(rng.randrange(n) for _ in range(rel.arity))
            if not planted or tuple(plant[v] for v in ids) in rel.tuples:
                clauses.append((rel.name, ids))
        yield F(lang, names[:n], *clauses)


def test_units_first_matches_all_pairs_reference():
    kinds = dict.fromkeys(("unsat", "units", "failed", "classes"), 0)
    for f in reference_corpus():
        got = outcome(min_bijunctive, f)
        assert got == outcome(all_pairs_min_bijunctive, f), f.clauses
        g = to_literal_graph(f)
        reach = literal_reach(g)
        propagated = graph.bits(b for u in g.forced for b in graph.members(reach[u]))
        kinds["unsat"] += not satisfiable(f)
        kinds["units"] += bool(g.forced)
        # a literal that reaches its negation, on a variable the units miss
        kinds["failed"] += any(reach[lit] >> (lit ^ 1) & 1 and not propagated >> (lit & ~1) & 3
                               for lit in range(2 * g.n))
        kinds["classes"] += any(reach[a] >> b & 1 and reach[b] >> a & 1
                                for a in range(2 * g.n) for b in range(a + 1, 2 * g.n))
    assert min(kinds.values()) >= 50, kinds


def test_forced_chain_keeps_memory_linear():
    # one unit forces a 10^4-variable implication chain; reach sets over all
    # its 2 * 10^4 literals (the all-pairs reference) peak at about 73 MB
    n = 10_000
    f = F(lang_of("pos", "imp"), [f"x{i}" for i in range(n)],
          ("pos", (0,)), *[("imp", (i, i + 1)) for i in range(n - 1)])
    tracemalloc.start()
    try:
        out, _ = min_bijunctive(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.clauses == tuple(("pos", (i,)) for i in range(n))
    assert peak < 20 * 2**20, peak
