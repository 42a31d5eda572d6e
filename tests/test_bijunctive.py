import itertools
import random

import pytest

from boolmin.bijunctive import min_bijunctive, neg_lit, pos_lit, to_literal_graph
from boolmin.errors import ClassificationError
from boolmin.model import (
    Clause,
    CnfFormula,
    ConstraintLanguage,
    Relation,
    clause_mask,
    equivalent,
    satisfiable,
    var_mask,
)
from boolmin.oracle import brute_min_cnf
from boolmin.std import rel_eq, rel_impl, rel_nand, rel_neg, rel_or, rel_pos, rel_xor

from conftest import random_cnf

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
    return CnfFormula(lang, tuple(names), tuple(Clause(r, tuple(v)) for r, v in specs))


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
    assert out.clauses[0] == Clause("eq", (0, 1))


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
        reach_in, reach_out = g_in.reach(), g_out.reach()
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
    assert set(out.clauses) == {Clause("imp", (i, i + 1)) for i in range(n - 1)}
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
