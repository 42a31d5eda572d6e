import random

import pytest

from boolmin.affine import clause_to_equation, min_affine, parity_constant
from boolmin.errors import ClassificationError
from boolmin.formats import serialize_cnf_formula
from boolmin.model import (
    CnfFormula,
    all_assignments,
    equivalent,
    satisfiable,
)
from boolmin.oracle import brute_min_cnf, min_unsat_formula
from boolmin.std import rel_or, rel_parity, rel_pos

from conftest import random_cnf


def F(lang, names, *specs):
    return CnfFormula(lang, tuple(names), tuple((r, tuple(v)) for r, v in specs))


def test_parity_template():
    assert parity_constant(rel_parity(3, 1)) == 1
    assert parity_constant(rel_parity(2, 0)) == 0
    assert parity_constant(rel_pos()) == 1
    assert parity_constant(rel_or(2)) is None


def test_clause_to_equation(affine_lang):
    odd2 = affine_lang.get("odd2")
    coeffs, c = clause_to_equation(("odd2", (0, 1)), odd2)
    assert (coeffs, c) == (0b11, 1)
    # repeated variable cancels itself
    coeffs, c = clause_to_equation(("odd2", (0, 0)), odd2)
    assert (coeffs, c) == (0, 1)
    even3 = affine_lang.get("even3")
    coeffs, c = clause_to_equation(("even3", (0, 1, 1)), even3)
    assert (coeffs, c) == (0b001 << 0, 0)


def test_clause_to_equation_rejects_non_xor(t9):
    with pytest.raises(ClassificationError):
        clause_to_equation(("or2", (0, 1)), t9.get("or2"))


def test_min_affine_dependent_clause(affine_lang):
    # x+y=1, y+z=1, x+z=0: the third row is the sum of the first two
    f = F(affine_lang, "xyz", ("odd2", (0, 1)), ("odd2", (1, 2)), ("even2", (0, 2)))
    out, stats = min_affine(f)
    assert len(out.clauses) == 2
    assert out.clauses == f.clauses[:2]
    assert stats.rank == 2
    assert equivalent(out, f)


def test_min_affine_duplicate_and_single(affine_lang):
    f = F(affine_lang, "xy", ("odd2", (0, 1)), ("odd2", (0, 1)))
    out, _ = min_affine(f)
    assert len(out.clauses) == 1
    g = F(affine_lang, "xy", ("odd2", (0, 1)))
    out, _ = min_affine(g)
    assert out.clauses == g.clauses


def test_min_affine_unsat(affine_lang):
    f = F(affine_lang, "x", ("odd2", (0, 0)))
    out, _ = min_affine(f)
    assert not satisfiable(out)
    assert len(out.clauses) == 1
    # contradiction discovered across clauses
    g = F(affine_lang, "xy", ("odd2", (0, 1)), ("even2", (0, 1)))
    out, _ = min_affine(g)
    assert not satisfiable(out) and equivalent(out, g)


def _independent_rank(rows):
    """Textbook full forward elimination, independent of min_affine's greedy."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_output_count_equals_rank_and_solution_law(affine_lang):
    rng = random.Random(23)
    for _ in range(60):
        f = random_cnf(affine_lang, rng, rng.randint(2, 5), rng.randint(1, 6))
        out, stats = min_affine(f)
        assert equivalent(out, f)
        if not satisfiable(f):
            continue
        n = out.n_vars
        rows = []
        for c in out.clauses:
            coeffs, const = clause_to_equation(c, affine_lang.get(c[0]))
            rows.append([(coeffs >> i) & 1 for i in range(n)] + [const])
        assert stats.rank == _independent_rank(rows)
        solutions = sum(out.eval(bits) for bits in all_assignments(n))
        assert solutions == 1 << (n - stats.rank)


def test_irredundance_and_submultiset(affine_lang):
    rng = random.Random(29)
    for _ in range(40):
        f = random_cnf(affine_lang, rng, rng.randint(2, 5), rng.randint(1, 5))
        if not satisfiable(f):
            continue
        out, _ = min_affine(f)
        # output clauses all come from the input
        remaining = list(f.clauses)
        for c in out.clauses:
            assert c in remaining
            remaining.remove(c)
        # removing any output clause changes the solution set
        for i in range(len(out.clauses)):
            smaller = CnfFormula(
                affine_lang, out.var_names, out.clauses[:i] + out.clauses[i + 1 :]
            )
            assert not equivalent(smaller, out)


def test_min_affine_matches_oracle(affine_lang):
    rng = random.Random(31)
    for _ in range(40):
        f = random_cnf(affine_lang, rng, rng.randint(2, 4), rng.randint(1, 4))
        if not satisfiable(f):
            continue
        out, _ = min_affine(f)
        oracle = brute_min_cnf(affine_lang, f, max(1, len(f.clauses)))
        assert oracle is not None
        assert len(out.clauses) == oracle[0]


# --- the pivot-indexed elimination against the former all-rows loop ---------


def _reference_kept(rows):
    """The former O(m·rank) elimination: each new row is reduced by every
    basis row in turn.  Kept row indices, or None if the system is
    inconsistent."""
    basis = []
    kept = []
    for idx, (coeffs, const) in enumerate(rows):
        for pivot, bcoeffs, bconst in basis:
            if coeffs & pivot:
                coeffs ^= bcoeffs
                const ^= bconst
        if coeffs == 0:
            if const == 1:
                return None
            continue
        basis.append((1 << (coeffs.bit_length() - 1), coeffs, const))
        kept.append(idx)
    return kept


def _elimination_corpus(lang):
    """Random systems of units and 2- and 3-term parities, n up to 1500, with
    inserted cancelling clauses and duplicates.  Unplanted systems (random
    constants) are mostly inconsistent; planted ones (constants read off a
    hidden assignment) are consistent and keep up to about n rows."""
    names = {(1, 0): "neg", (1, 1): "pos", (2, 0): "even2", (2, 1): "odd2",
             (3, 0): "even3", (3, 1): "odd3"}
    rng = random.Random(47)
    for n in (1, 2, 3, 6, 15, 40, 120, 400, 1500):
        for ratio in (0.05, 0.3, 0.7, 1.2):
            for planted in (False, True):
                hidden = [rng.randrange(2) for _ in range(n)]

                def clause(ids):
                    const = sum(hidden[v] for v in ids) % 2 if planted else rng.randrange(2)
                    return (names[len(ids), const], ids)

                clauses = [
                    clause(tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))))
                    for _ in range(max(1, int(ratio * n)))
                ]
                for _ in range(rng.randint(0, 3)):
                    # x+y+x cancels to y, x+x to the constant alone
                    x, y = rng.randrange(n), rng.randrange(n)
                    extra = clause(rng.choice([(x, y, x), (x, x)]))
                    clauses.insert(rng.randrange(len(clauses) + 1), extra)
                for _ in range(rng.randint(0, 3)):
                    clauses.insert(rng.randrange(len(clauses) + 1), rng.choice(clauses))
                if rng.random() < 0.1:
                    # x+x = 1 cancels to 0 = 1
                    clauses.insert(rng.randrange(len(clauses) + 1), ("odd2", (0, 0)))
                yield CnfFormula(lang, tuple(f"v{i}" for i in range(n)), tuple(clauses))


def test_min_affine_matches_all_rows_reference(affine_lang):
    unsat = serialize_cnf_formula(min_unsat_formula(affine_lang), "affine.lang")
    consistent = inconsistent = 0
    largest_kept = 0
    for f in _elimination_corpus(affine_lang):
        rows = [clause_to_equation(c, affine_lang.get(c[0])) for c in f.clauses]
        kept = _reference_kept(rows)
        out, stats = min_affine(f)
        text = serialize_cnf_formula(out, "affine.lang")
        if kept is None:
            inconsistent += 1
            assert text == unsat
            continue
        consistent += 1
        largest_kept = max(largest_kept, len(kept))
        expected = CnfFormula(affine_lang, f.var_names, tuple(f.clauses[i] for i in kept))
        assert out.clauses == expected.clauses
        assert text == serialize_cnf_formula(expected, "affine.lang")
        assert stats.rank == len(kept) and stats.reductions is not None
    assert consistent >= 20 and inconsistent >= 20
    assert largest_kept > 1000
