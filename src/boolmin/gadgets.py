"""Instance generators materializing the hardness reductions: unsat-to-MEE
in both frameworks, the AND/OR and majority equivalence gadgets, and the
pure-Horn DNF translation."""
from __future__ import annotations

from itertools import combinations, combinations_with_replacement, count, islice, product

from .errors import ClassificationError, FormatError, ResourceLimitError
from .model import (
    BFormula,
    BoolFunction,
    CnfFormula,
    ConstraintLanguage,
    MeeInstance,
    Record,
    SizeMeasure,
    Step,
    formula_size,
    satisfiable,
    substitute,
    truth_table,
    var_mask,
)
from .oracle import min_unsat_formula
from .post import max_leaves
from .std import rel_horn_impl


# assignments of one weight checked per mask call by reduce_unsat_to_mee_post
WEIGHT_BLOCK = 1 << 12


class ReductionResult(Record):
    """Either a genuine MEE instance or the canonical fixed-negative
    instance (bound 0 plus an explicit marker, so downstream tools never
    mistake it for a real question)."""

    instance: MeeInstance
    fixed_negative: bool


def _fixed_negative(formula, measure: SizeMeasure) -> ReductionResult:
    return ReductionResult(MeeInstance(formula, 0, measure), True)


def reduce_unsat_to_mee_post(
    basis: tuple[BoolFunction, ...],
    psi_unsat: BFormula,
    formula: BFormula,
    measure: SizeMeasure,
) -> ReductionResult:
    """Reduce non-satisfiability of `formula` to an MEE instance, given a
    fixed unsatisfiable basis-formula."""
    if satisfiable(psi_unsat):
        raise FormatError("psi_unsat must be unsatisfiable")
    k = formula_size(psi_unsat, measure)
    weight_cap = k if measure is SizeMeasure.LITERALS else max_leaves(basis, k)
    names = formula.var_names
    weight_cap = min(weight_cap, len(names))
    for weight in range(weight_cap + 1):
        # one mask bit per set of `weight` true variables, in blocks that
        # keep the columns small when there are many such sets
        subsets = combinations(names, weight)
        while block := list(islice(subsets, WEIGHT_BLOCK)):
            columns = dict.fromkeys(names, 0)
            for bit, true_vars in enumerate(block):
                for name in true_vars:
                    columns[name] |= 1 << bit
            if formula.mask(columns, (1 << len(block)) - 1):
                return _fixed_negative(formula, measure)
    return ReductionResult(MeeInstance(formula, k, measure), False)


def _merged_functions(*formulas: BFormula) -> tuple[BoolFunction, ...]:
    merged: dict[str, BoolFunction] = {}
    for f in formulas:
        for fn in f.functions:
            known = merged.get(fn.name)
            if known is not None and known != fn:
                raise FormatError(f"conflicting definitions for function {fn.name}")
            merged[fn.name] = fn
    return tuple(merged.values())


def _arg_order(formula: BFormula) -> tuple[str, ...]:
    """Connective argument roles follow first occurrence in the tree, left
    to right (the order of the leaves in post-order)."""
    leaves = (step for step in formula.steps if isinstance(step, str))
    return tuple(dict.fromkeys(leaves))


def _check_table(formula: BFormula, names: tuple[str, ...], expected) -> None:
    """`expected` maps the names' variable masks to the intended mask."""
    columns = [var_mask(i, len(names)) for i in range(len(names))]
    if truth_table(formula, names) != expected(*columns):
        raise FormatError(f"gadget connective contract violated by {names}")


def _fresh_names(avoid: set[str], n: int, prefix: str) -> list[str]:
    out = []
    for i in count(1):
        if len(out) == n:
            break
        name = f"{prefix}{i}"
        if name not in avoid:
            out.append(name)
    return out


# a formula's post-order steps (see `model`), composed by `substitute`
Steps = tuple[Step, ...]


def _conj_tree(pair, leaves: list[Steps]) -> Steps:
    """Balanced conjunction of leaves using the supplied binary combiner."""
    if len(leaves) == 1:
        return leaves[0]
    mid = len(leaves) // 2
    return pair(_conj_tree(pair, leaves[:mid]), _conj_tree(pair, leaves[mid:]))


def build_and_or_gadget(
    f_and: BFormula,
    f_or: BFormula,
    h1: BFormula,
    h2: BFormula,
    m: int,
    measure: SizeMeasure = SizeMeasure.GATES,
) -> tuple[BFormula, int]:
    """The equivalence gadget for bases implementing AND and OR-given-true:
    G is equivalent to (H1 and H2) or ((H1 or H2) and Z) for a block Z of
    fresh conjoined variables, and has a small equivalent formula iff
    H1 and H2 are equivalent."""
    and_vars = _arg_order(f_and)
    if len(and_vars) != 2:
        raise FormatError("f_and must use exactly two variables")
    _check_table(f_and, and_vars, lambda a, b: a & b)
    or_vars = _arg_order(f_or)
    if len(or_vars) != 3:
        raise FormatError("f_or must use exactly three variables (x, y, t)")
    ox, oy, ot = or_vars
    x, y, full = var_mask(0, 2), var_mask(1, 2), 0b1111
    if f_or.mask({ox: x, oy: y, ot: full}, full) != x | y:
        raise FormatError("f_or(x, y, 1) must equal x or y")

    functions = _merged_functions(f_and, f_or, h1, h2)

    def fand(a: Steps, b: Steps) -> Steps:
        return substitute(f_and.steps, {and_vars[0]: a, and_vars[1]: b})

    def for3(a: Steps, b: Steps, t: Steps) -> Steps:
        return substitute(f_or.steps, {ox: a, oy: b, ot: t})

    used = set(h1.var_names) | set(h2.var_names)
    t_name = _fresh_names(used, 1, "t")[0]
    t_var, s1, s2 = (t_name,), h1.steps, h2.steps
    probe = BFormula(functions, fand(s1, t_var))
    l = formula_size(probe, measure)
    width = m * l if measure is SizeMeasure.GATES else l
    z_names = _fresh_names(used | {t_name}, width, "z")
    z_block = _conj_tree(fand, [(z,) for z in z_names])

    inner = fand(for3(s1, s2, t_var), z_block)
    g_steps = fand(for3(fand(s1, s2), inner, t_var), t_var)
    return BFormula(functions, g_steps), l


def build_maj_gadget(
    f_maj: BFormula,
    h1: BFormula,
    h2: BFormula,
    m: int,
    measure: SizeMeasure = SizeMeasure.GATES,
) -> tuple[BFormula, int]:
    """The equivalence gadget for bases implementing ternary majority."""
    maj_vars = _arg_order(f_maj)
    if len(maj_vars) != 3:
        raise FormatError("f_maj must use exactly three variables")
    _check_table(f_maj, maj_vars, lambda a, b, c: (a & b) | (a & c) | (b & c))
    mx, my, mz = maj_vars

    functions = _merged_functions(f_maj, h1, h2)

    def maj(a: Steps, b: Steps, c: Steps) -> Steps:
        return substitute(f_maj.steps, {mx: a, my: b, mz: c})

    used = set(h1.var_names) | set(h2.var_names)
    f_name, t_name = _fresh_names(used, 2, "f")[0], _fresh_names(used, 1, "t")[0]
    fv, tv, s1, s2 = (f_name,), (t_name,), h1.steps, h2.steps

    core = maj(fv, maj(s1, s2, fv), tv)
    l = formula_size(BFormula(functions, core), measure)
    width = m * l if measure is SizeMeasure.GATES else l + 1
    z_names = _fresh_names(used | {f_name, t_name}, width, "z")
    e_star = _conj_tree(lambda a, b: maj(a, b, fv), [(z,) for z in z_names])

    part2 = maj(maj(tv, maj(s1, s2, tv), fv), e_star, fv)
    h_steps = maj(core, part2, tv)
    return BFormula(functions, h_steps), l


MAX_CNF_REDUCTION_FORMULAS = 200_000


def reduce_unsat_to_mee_cnf(lang: ConstraintLanguage, formula: CnfFormula) -> ReductionResult:
    """Reduce non-satisfiability of a lang-formula to an MEE instance via
    the minimum unsatisfiable formula of the language."""
    unsat_min = min_unsat_formula(lang)
    if unsat_min is None:
        raise ClassificationError(
            "language has no unsatisfiable formula; reduction undefined"
        )
    k_min = len(unsat_min.clauses)
    n = formula.n_vars

    candidates = []
    for rel in lang.relations:
        for ids in product(range(n), repeat=rel.arity):
            candidates.append((rel.name, ids))
    count_formulas = 1
    for j in range(1, k_min + 1):
        count_formulas += len(candidates) ** j
    if count_formulas > MAX_CNF_REDUCTION_FORMULAS:
        raise ResourceLimitError("too many candidate formulas for the reduction")

    small_formulas = [()]
    for j in range(1, k_min + 1):
        small_formulas.extend(combinations_with_replacement(candidates, j))

    for clause_tuple in small_formulas:
        # the assignments to the variables the trial uses, all others 0
        used = sorted({v for _, vs in clause_tuple for v in vs})
        trial = CnfFormula(lang, formula.var_names, tuple(clause_tuple))
        columns = [0] * n
        for k, var in enumerate(used):
            columns[var] = var_mask(k, len(used))
        full = (1 << (1 << len(used))) - 1
        if trial.mask(columns, full) & formula.mask(columns, full):
            return _fixed_negative(formula, SizeMeasure.CLAUSES)
    return ReductionResult(MeeInstance(formula, k_min, SizeMeasure.CLAUSES), False)


PURE_HORN_LANGUAGE = ConstraintLanguage((rel_horn_impl(2, "horn2"),))

DnfTerm = tuple[tuple[str, bool], ...]


def pure_horn_dnf_to_cnf(terms: list[DnfTerm]) -> CnfFormula:
    """Translate a pure-Horn-3-DNF into a formula over the positive Horn
    relation; the output is equivalent to the negation of the DNF.

    Each term has 2 or 3 literals with exactly one negative: x & ~y becomes
    (x -> y) via premise repetition, x & y & ~z becomes (x and y -> z).
    """
    var_order: list[str] = []
    index: dict[str, int] = {}

    def var_id(name: str) -> int:
        if name not in index:
            index[name] = len(var_order)
            var_order.append(name)
        return index[name]

    clauses = []
    for term in terms:
        if len(term) not in (2, 3):
            raise FormatError("pure-Horn-3 terms have 2 or 3 literals")
        negatives = [name for name, positive in term if not positive]
        positives = [name for name, positive in term if positive]
        if len(negatives) != 1:
            raise FormatError("pure-Horn-3 terms have exactly one negative literal")
        if len(set(n for n, _ in term)) != len(term):
            raise FormatError("repeated variable in a DNF term")
        premise = [var_id(p) for p in positives]
        head = var_id(negatives[0])
        if len(premise) == 1:
            premise = premise * 2
        clauses.append(("horn2", (premise[0], premise[1], head)))
    return CnfFormula(PURE_HORN_LANGUAGE, tuple(var_order), tuple(clauses))


def eval_dnf(terms: list[DnfTerm], values: dict[str, int]) -> int:
    """1 iff some term is satisfied; the independent reading of a DNF."""
    for term in terms:
        if all(values[name] == (1 if positive else 0) for name, positive in term):
            return 1
    return 0
