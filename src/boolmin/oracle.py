"""Brute-force ground truth: exhaustive minimum-size searches, definitional
expressibility, and minimum unsatisfiable formulas.

Everything here works on solution bitmasks (one bit per assignment) and is
deliberately independent of the polynomial-time minimizers it validates.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import FormatError, ResourceLimitError
from .graph import bits
from .model import (
    BApp,
    BFormula,
    BNode,
    BoolFunction,
    BVar,
    Clause,
    CnfFormula,
    ConstraintLanguage,
    MinimizeStats,
    Relation,
    SizeMeasure,
    truth_table,
    var_mask,
)

MAX_ORACLE_VARS = 8
MAX_ORACLE_CLAUSES = 8
MAX_ORACLE_BF_SIZE = 8


def _candidate_clauses(
    lang: ConstraintLanguage, n_vars: int, superset_of: int
) -> tuple[list[int], list[Clause]]:
    """Deduplicated clause masks (with a representative clause each) whose
    solution sets contain `superset_of`, in deterministic first-seen order."""
    masks: list[int] = []
    reps: list[Clause] = []
    seen: set[int] = set()
    columns = [var_mask(i, n_vars) for i in range(n_vars)]
    full = (1 << (1 << n_vars)) - 1
    for rel in lang.relations:
        op = rel.mask_op
        for ids in product(range(n_vars), repeat=rel.arity):
            mask = op([columns[v] for v in ids], full)
            if mask in seen:
                continue
            seen.add(mask)
            if mask & superset_of == superset_of:
                masks.append(mask)
                reps.append((rel.name, ids))
    return masks, reps


def _check_clause_bound(k_max: int) -> None:
    if k_max < 0:
        raise FormatError("clause bound must be nonnegative")
    if k_max > MAX_ORACLE_CLAUSES:
        raise ResourceLimitError(f"clause bound capped at {MAX_ORACLE_CLAUSES}")


def _min_cover(masks: list[int], universe: int, k_max: int) -> list[int] | None:
    """Smallest selection of masks (as candidate indices) whose non-solution
    sets cover `universe`; None if impossible within k_max.

    Every candidate mask contains the target solution set, so a selection is
    an exact conjunction iff its exclusions cover all non-solutions.
    """
    if universe == 0:
        return []
    elements = [i for i in range(universe.bit_length()) if (universe >> i) & 1]
    coverers: dict[int, list[int]] = {}
    for e in elements:
        cov = [ci for ci, m in enumerate(masks) if not (m >> e) & 1]
        if not cov:
            return None
        coverers[e] = cov

    def dfs(uncovered: int, depth: int, chosen: list[int]) -> list[int] | None:
        if uncovered == 0:
            return list(chosen)
        if depth == 0:
            return None
        # fail-first: branch on the uncovered assignment with fewest options
        best_cov = None
        for e in elements:
            if (uncovered >> e) & 1:
                cov = coverers[e]
                if best_cov is None or len(cov) < len(best_cov):
                    best_cov = cov
                    if len(cov) == 1:
                        break
        for ci in best_cov:
            chosen.append(ci)
            result = dfs(uncovered & masks[ci], depth - 1, chosen)
            chosen.pop()
            if result is not None:
                return result
        return None

    for k in range(1, k_max + 1):
        result = dfs(universe, k, [])
        if result is not None:
            return result
    return None


def brute_min_cnf(
    lang: ConstraintLanguage, formula: CnfFormula, k_max: int
) -> tuple[int, CnfFormula] | None:
    """Smallest clause count (within k_max) of a lang-formula over the same
    variables equivalent to `formula`, with a witness."""
    n = formula.n_vars
    if n > MAX_ORACLE_VARS:
        raise ResourceLimitError(f"brute_min_cnf supports at most {MAX_ORACLE_VARS} variables")
    _check_clause_bound(k_max)
    target = formula.solution_mask()
    masks, reps = _candidate_clauses(lang, n, target)
    universe = ((1 << (1 << n)) - 1) & ~target
    picked = _min_cover(masks, universe, k_max)
    if picked is None:
        return None
    # the input's language path names lang's relations only if lang is its language
    path = formula.language_path if lang == formula.language else None
    witness = CnfFormula(lang, formula.var_names, tuple(reps[ci] for ci in picked), path)
    return len(picked), witness


def expressible(rel: Relation, base: ConstraintLanguage, clause_bound: int) -> bool:
    """True iff a conjunction of at most clause_bound base-clauses over
    exactly R's variables (no auxiliaries) expresses R."""
    n = rel.arity
    if n > 4:
        raise ResourceLimitError("expressible supports relations of arity at most 4")
    _check_clause_bound(clause_bound)
    target = bits(rel.codes)
    masks, _ = _candidate_clauses(base, n, target)
    universe = ((1 << (1 << n)) - 1) & ~target
    return _min_cover(masks, universe, clause_bound) is not None


@lru_cache(maxsize=None)
def min_unsat_formula(lang: ConstraintLanguage, clause_bound: int = 4) -> CnfFormula | None:
    """Minimum-clause unsatisfiable lang-formula, or None if every formula
    within the bound is satisfiable.

    Searched over a single variable first (identifying all variables keeps an
    unsatisfiable formula unsatisfiable without raising the clause count, so
    the one-variable search is already exhaustive), then widened to two
    variables as a safety net.
    """
    _check_clause_bound(clause_bound)
    for n in (1, 2):
        var_names = tuple(f"u{i}" for i in range(n))
        masks, reps = _candidate_clauses(lang, n, 0)
        universe = (1 << (1 << n)) - 1
        picked = _min_cover(masks, universe, clause_bound)
        if picked is not None:
            clauses = tuple(reps[ci] for ci in picked)
            return CnfFormula(lang, var_names, clauses)
    return None


def unsat_minimum(formula: CnfFormula) -> tuple[CnfFormula, MinimizeStats]:
    """The minimum unsatisfiable formula of the language, as the minimized
    form of an unsatisfiable input (over its language path), with its stats."""
    unsat = min_unsat_formula(formula.language)
    if unsat is None:
        raise RuntimeError("unsatisfiable formula but no cached minimum one; this is a bug")
    out = CnfFormula._trusted(
        formula.language, unsat.var_names, unsat.clauses, formula.language_path
    )
    return out, MinimizeStats(len(formula.clauses), len(unsat.clauses))


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_min_bformula(
    basis: tuple[BoolFunction, ...],
    formula: BFormula,
    measure: SizeMeasure,
    bound: int,
) -> tuple[int, BFormula] | None:
    """Exhaustive least-size search over basis-formula trees up to `bound`
    leaves or gates; smallest size of one equivalent to `formula`, with a
    witness.

    Enumeration is semantic: trees are identified by their truth table over
    var(formula) plus one fresh variable.  Any tree can be renamed into that
    pool without changing its function or size (variables irrelevant to the
    tree may share one name), so the search is exact.

    Sizes are built in increasing order, each truth table is kept only at
    the least size it has, and the search stops at the first tree found for
    the target.  The pruning loses no minimum: every subtree of a least-size
    tree is least-size for its own table, since swapping in a cheaper
    subtree would keep the function and lower the size.
    """
    if bound < 0:
        raise FormatError("size bound must be nonnegative")
    if bound > MAX_ORACLE_BF_SIZE:
        raise ResourceLimitError(f"brute_min_bformula bound capped at {MAX_ORACLE_BF_SIZE}")
    if measure not in (SizeMeasure.LITERALS, SizeMeasure.GATES):
        raise ValueError("B-formula sizes are literal or gate counts")
    fresh = "w"
    while fresh in formula.var_names:
        fresh += "w"
    pool = tuple(sorted(set(formula.var_names) | {fresh}))
    target = truth_table(formula, pool)
    full = (1 << (1 << len(pool))) - 1
    var_masks = {name: var_mask(i, len(pool)) for i, name in enumerate(pool)}
    # a gate costs 1 and a variable 0, or the reverse
    gate_cost = 1 if measure is SizeMeasure.GATES else 0
    trees: dict[int, BNode] = {}  # each truth table's first tree of least size
    levels: list[list[int]] = []  # levels[s]: the tables of least size s
    for size in range(bound + 1):
        level: list[int] = []
        levels.append(level)
        if size == 1 - gate_cost:
            for name, mask in var_masks.items():
                trees[mask] = BVar(name)
                level.append(mask)
            if target in trees:
                return size, BFormula(basis, trees[target])
        # a gates level reads smaller levels only, so one sweep settles it; a
        # literals level reads itself through size-0 subtrees (constants) and
        # unary functions, so it is swept to a fixpoint
        changed = size >= gate_cost
        while changed:
            changed = False
            for f in basis:
                op = f.mask_op
                for split in _compositions(size - gate_cost, f.arity):
                    for combo in product(*(levels[s] for s in split)):
                        out = op(combo, full)
                        if out not in trees:
                            trees[out] = BApp(f.name, tuple(trees[m] for m in combo))
                            level.append(out)
                            if out == target:
                                return size, BFormula(basis, trees[out])
                            changed = not gate_cost
    return None
