import random
from itertools import product

import pytest

from boolmin.errors import FormatError, ResourceLimitError
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
    equivalent,
    formula_size,
    truth_table,
    var_mask,
)
from boolmin.oracle import (
    _compositions,
    brute_min_bformula,
    brute_min_cnf,
    expressible,
    min_unsat_formula,
)
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
from boolmin.formats import parse_bformula, serialize_bformula

from conftest import random_cnf


def test_brute_min_cnf_duplicate_clause(t9):
    f = CnfFormula(t9, ("x", "y"), (("or2", (0, 1)), ("or2", (0, 1))))
    count, witness = brute_min_cnf(t9, f, 4)
    assert count == 1
    assert equivalent(witness, f)


def test_brute_min_cnf_example6_language():
    # x or (y and z) alongside plain or2: the combined clause wins
    mix = Relation("mix", 3, frozenset({(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 1)}))
    lang = ConstraintLanguage((rel_or(2), mix))
    f = CnfFormula(lang, ("x", "y1", "y2"), (("or2", (0, 1)), ("or2", (0, 2))))
    count, witness = brute_min_cnf(lang, f, 4)
    assert count == 1
    assert witness.clauses[0][0] == "mix"
    assert equivalent(witness, f)


def test_brute_min_cnf_two_clause_chain(t9):
    f = CnfFormula(t9, ("x1", "x2", "x3"), (("or2", (0, 1)), ("or2", (1, 2))))
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
    assert result.clauses[0][1] == (0, 0)
    or_lang = ConstraintLanguage((rel_or(2), rel_or(3)))
    assert min_unsat_formula(or_lang) is None
    lits = ConstraintLanguage((rel_pos(), rel_neg()))
    result = min_unsat_formula(lits)
    assert result is not None and len(result.clauses) == 2


def test_min_unsat_is_unsatisfiable(t9):
    result = min_unsat_formula(t9)
    assert result is not None
    assert all(result.eval(bits) == 0 for bits in all_assignments(result.n_vars))


# --- the least-size search against the level builders it replaced -----------


def _reference_levels_by_literals(basis, var_masks, full, bound):
    """levels[s] maps truth-table mask -> some tree with exactly s leaves."""
    levels = {s: {} for s in range(bound + 1)}
    if bound >= 1:
        levels[1] = {mask: BVar(name) for name, mask in var_masks.items()}
    # constant applications add size-0 subtrees and unary/constant feedback
    # within a level, so iterate to a fixpoint
    changed = True
    while changed:
        changed = False
        for size in range(bound + 1):
            level = levels[size]
            for f in basis:
                if f.arity == 0 and size != 0:
                    continue
                for split in _compositions(size, f.arity):
                    for combo in product(*(list(levels[s]) for s in split)):
                        out = f.mask_op(combo, full)
                        if out not in level:
                            level[out] = _reference_app(f, levels, split, combo)
                            changed = True
    return levels


def _reference_levels_by_gates(basis, var_masks, full, bound):
    """levels[g] maps truth-table mask -> some tree with exactly g gates."""
    levels = {g: {} for g in range(bound + 1)}
    for name, mask in var_masks.items():
        levels[0][mask] = BVar(name)
    for g in range(1, bound + 1):
        level = levels[g]
        for f in basis:
            for split in _compositions(g - 1, f.arity):
                for combo in product(*(list(levels[s]) for s in split)):
                    out = f.mask_op(combo, full)
                    if out not in level:
                        level[out] = _reference_app(f, levels, split, combo)
    return levels


def _reference_app(f, levels, split, combo):
    return BApp(f.name, tuple(levels[s][m] for s, m in zip(split, combo)))


def _reference_min_bformula(basis, formula, measure, bound):
    """Every level up to the bound in full, then the least one holding the
    target: the search as it was before levels kept least sizes only."""
    fresh = "w"
    while fresh in formula.var_names:
        fresh += "w"
    pool = tuple(sorted(set(formula.var_names) | {fresh}))
    target = truth_table(formula, pool)
    full = (1 << (1 << len(pool))) - 1
    var_masks = {name: var_mask(i, len(pool)) for i, name in enumerate(pool)}
    if measure is SizeMeasure.LITERALS:
        levels = _reference_levels_by_literals(basis, var_masks, full, bound)
    else:
        levels = _reference_levels_by_gates(basis, var_masks, full, bound)
    for size in sorted(levels):
        if target in levels[size]:
            return size, BFormula(basis, levels[size][target])
    return None


def _random_basis(rng, prefix):
    functions = []
    for i in range(rng.randint(1, 2)):
        arity = rng.choice((0, 1, 2, 2, 3))
        table = tuple(rng.randint(0, 1) for _ in range(1 << arity))
        functions.append(BoolFunction(f"{prefix}{i}", arity, table))
    return tuple(functions)


def _random_tree(basis, rng, depth, pool):
    """A variable or an application (a constant among them), at most `depth`
    applications deep."""
    if depth == 0 or rng.random() < 0.3:
        return BVar(rng.choice(pool))
    f = rng.choice(basis)
    return BApp(f.name, tuple(_random_tree(basis, rng, depth - 1, pool) for _ in range(f.arity)))


def test_least_size_search_matches_level_builders():
    """Sizes agree everywhere, witnesses byte for byte wherever one sweep
    settles a level: every gates search, and every literals search over a
    basis without constants and unary functions.  Elsewhere the fixpoint
    may settle a level in another order; such a witness must still have
    the same size and be equivalent."""
    rng = random.Random(2011)
    nones = other_witness = 0
    for _ in range(600):
        basis = _random_basis(rng, "f")
        # half the targets come from a foreign basis, which puts some above
        # the bound or out of reach
        own = basis if rng.random() < 0.5 else _random_basis(rng, "g")
        if not any(f.arity for f in own):
            own += (fn_or(2),)
        phi = BFormula(own, _random_tree(own, rng, 3, "xy"[: rng.randint(1, 2)]))
        measure = rng.choice((SizeMeasure.LITERALS, SizeMeasure.GATES))
        # a ternary function at bound 5 costs the reference up to 1.5 s
        bound = rng.randint(3, 4 if any(f.arity == 3 for f in basis) else 5)
        expected = _reference_min_bformula(basis, phi, measure, bound)
        found = brute_min_bformula(basis, phi, measure, bound)
        if expected is None:
            assert found is None
            nones += 1
            continue
        assert found is not None and found[0] == expected[0]
        if serialize_bformula(found[1]) != serialize_bformula(expected[1]):
            assert measure is SizeMeasure.LITERALS and any(f.arity <= 1 for f in basis)
            assert equivalent(found[1], phi)
            assert formula_size(found[1], measure) == found[0]
            other_witness += 1
    assert nones >= 30
    print(f"[least-size search] searches=600 none={nones} other_witness={other_witness}")
