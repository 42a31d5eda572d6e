"""Brute-force ground truth: exhaustive minimum-size searches, definitional
expressibility, and minimum unsatisfiable formulas.

Everything here works on solution bitmasks (one bit per assignment) and is
deliberately independent of the polynomial-time minimizers it validates.

Each search space is built once and kept for the life of the process.  The
distinct clauses of a language over n variables (`_clause_table`) are
memoized per (language, n); `brute_min_cnf`, `expressible` and
`min_unsat_formula` each take from them the fewest whose conjunction is the
target (`_least_cover`).  `brute_min_bformula`'s least-size search depends
on the basis, the pool size and the measure only, and is kept per such key
and resumed by later calls (`_SEARCHES`).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import count, product
from typing import Sequence

from .errors import FormatError, ResourceLimitError
from .graph import bits, members
from .model import (
    BFormula,
    BoolFunction,
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


@lru_cache(maxsize=None)
def _clause_table(
    lang: ConstraintLanguage, n_vars: int
) -> tuple[tuple[int, ...], tuple[Clause, ...]]:
    """Every distinct clause mask of `lang` over n_vars variables, with the
    first clause that gives it, in first-seen order: relations in language
    order, variable tuples in lexicographic order.  Built once per language
    value and variable count."""
    first: dict[int, Clause] = {}
    columns = [var_mask(i, n_vars) for i in range(n_vars)]
    full = (1 << (1 << n_vars)) - 1
    for rel in lang.relations:
        op = rel.mask_op
        for ids in product(range(n_vars), repeat=rel.arity):
            first.setdefault(op([columns[v] for v in ids], full), (rel.name, ids))
    return tuple(first), tuple(first.values())


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
    elements = list(members(universe))
    # coverers[e]: the candidates excluding assignment e, in ascending order
    coverers: dict[int, list[int]] = {e: [] for e in elements}
    covered = 0
    for ci, m in enumerate(masks):
        excluded = universe & ~m
        covered |= excluded
        for e in members(excluded):
            coverers[e].append(ci)
    if covered != universe:
        return None

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


def _least_cover(
    lang: ConstraintLanguage, n_vars: int, target: int, k_max: int
) -> list[Clause] | None:
    """The fewest clauses of `lang` over n_vars variables, at most k_max,
    whose conjunction has the solution set `target`, from the clauses of
    `_clause_table` whose solution sets contain it; None if there are none."""
    masks, reps = _clause_table(lang, n_vars)
    picked = [i for i, mask in enumerate(masks) if mask & target == target]
    universe = ((1 << (1 << n_vars)) - 1) & ~target
    cover = _min_cover([masks[i] for i in picked], universe, k_max)
    return None if cover is None else [reps[picked[ci]] for ci in cover]


def brute_min_cnf(
    lang: ConstraintLanguage, formula: CnfFormula, k_max: int
) -> tuple[int, CnfFormula] | None:
    """Smallest clause count (within k_max) of a lang-formula over the same
    variables equivalent to `formula`, with a witness."""
    n = formula.n_vars
    if n > MAX_ORACLE_VARS:
        raise ResourceLimitError(f"brute_min_cnf supports at most {MAX_ORACLE_VARS} variables")
    _check_clause_bound(k_max)
    clauses = _least_cover(lang, n, formula.solution_mask(), k_max)
    if clauses is None:
        return None
    # the input's language path names lang's relations only if lang is its language
    path = formula.language_path if lang == formula.language else None
    return len(clauses), CnfFormula(lang, formula.var_names, tuple(clauses), path)


def expressible(rel: Relation, base: ConstraintLanguage, clause_bound: int) -> bool:
    """True iff a conjunction of at most clause_bound base-clauses over
    exactly R's variables (no auxiliaries) expresses R."""
    n = rel.arity
    if n > 4:
        raise ResourceLimitError("expressible supports relations of arity at most 4")
    _check_clause_bound(clause_bound)
    return _least_cover(base, n, bits(rel.codes), clause_bound) is not None


@lru_cache(maxsize=None)
def min_unsat_formula(lang: ConstraintLanguage, clause_bound: int = 4) -> CnfFormula | None:
    """Minimum-clause unsatisfiable lang-formula, or None if every formula
    within the bound is satisfiable.

    Searched over a single variable: identifying all variables keeps an
    unsatisfiable formula unsatisfiable without raising the clause count, so
    that search is exhaustive.
    """
    _check_clause_bound(clause_bound)
    clauses = _least_cover(lang, 1, 0, clause_bound)
    return None if clauses is None else CnfFormula(lang, ("u0",), tuple(clauses))


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


# the least-size searches by (basis, pool size, measure), grown on demand
_SEARCHES: dict[tuple[tuple[BoolFunction, ...], int, SizeMeasure], "_LeastSizeSearch"] = {}


class _LeastSizeSearch:
    """One least-size search over a basis, a pool of n variables and a size
    measure, grown only as far as a call needs.  `steps_of` maps each truth
    table found so far to its first tree of least size, as post-order steps
    whose leaves are pool positions; levels up to `complete` are swept to
    the end."""

    def __init__(self, basis: tuple[BoolFunction, ...], n: int, measure: SizeMeasure):
        self.gate_cost = 1 if measure is SizeMeasure.GATES else 0
        self.steps_of: dict[int, tuple] = {}
        self.complete = -1
        self._found = _discoveries(basis, n, self.gate_cost, self.steps_of)

    def least(self, target: int, bound: int) -> tuple[int, tuple] | None:
        """The least size of `target` and its tree, if that size is at most
        `bound`; else None."""
        if target not in self.steps_of:
            found = self._found
            while self.complete < bound:
                out = next(found)
                if out is None:
                    self.complete += 1
                elif out == target:
                    break
        steps = self.steps_of.get(target)
        if steps is None:
            return None
        leaves = sum(step.__class__ is int for step in steps)
        size = len(steps) - leaves if self.gate_cost else leaves
        return (size, steps) if size <= bound else None


def _discoveries(basis: tuple[BoolFunction, ...], n: int, gate_cost: int, steps_of: dict):
    """Enter each truth table over n variables into `steps_of` at its least
    size, level by level, and yield it; yield None after each level.

    A gates level reads smaller levels only, so one sweep settles it; a
    literals level reads itself through size-0 subtrees (constants) and
    unary functions, so it is swept to a fixpoint.  A table keeps its first
    tree: the steps of its argument tables, concatenated, then the
    application.
    """
    full = (1 << (1 << n)) - 1
    levels: list[list[int]] = []  # levels[s]: the tables of least size s
    for size in count():
        level: list[int] = []
        levels.append(level)
        if size == 1 - gate_cost:
            for i in range(n):
                mask = var_mask(i, n)
                steps_of[mask] = (i,)
                level.append(mask)
                yield mask
        changed = size >= gate_cost
        while changed:
            changed = False
            for f in basis:
                op, app = f.mask_op, ((f.name, f.arity),)
                for split in _compositions(size - gate_cost, f.arity):
                    for combo in product(*(levels[s] for s in split)):
                        out = op(combo, full)
                        if out not in steps_of:
                            steps_of[out] = sum(map(steps_of.__getitem__, combo), ()) + app
                            level.append(out)
                            changed = not gate_cost
                            yield out
        yield None


def brute_min_bformula(
    basis: Sequence[BoolFunction],
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
    the target.  A table keeps its first tree as post-order steps (see
    `model`).  The pruning loses no minimum: every subtree of a least-size
    tree is least-size for its own table, since swapping in a cheaper
    subtree would keep the function and lower the size.

    The search depends only on the basis, the pool's size and the measure,
    so it is kept per `(tuple(basis), len(pool), measure)` for the life of
    the process, with pool positions for leaves that are renamed to the
    pool on return.  A later call resumes it where an earlier one stopped;
    its discovery order is fixed, so every answer is the one a fresh search
    gives.  A search that raises partway is dropped.
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
    key = (tuple(basis), len(pool), measure)
    search = _SEARCHES.get(key)
    if search is None:
        search = _SEARCHES[key] = _LeastSizeSearch(*key)
    try:
        found = search.least(target, bound)
    except BaseException:
        # the search's generator is closed once it raised
        _SEARCHES.pop(key, None)
        raise
    if found is None:
        return None
    size, steps = found
    return size, BFormula(basis, tuple(pool[s] if s.__class__ is int else s for s in steps))
