"""Minimization over irreducible affine languages: clauses become GF(2)
equations and a maximal linearly independent subset of them is minimum."""
from __future__ import annotations

from .errors import ClassificationError
from .model import Clause, CnfFormula, MinimizeStats, Relation
from .oracle import unsat_minimum


def parity_constant(rel: Relation) -> int | None:
    """The constant c if R is x1 xor ... xor xn = c, else None.

    These are exactly the irreducible affine relations (single-variable
    literals included, as 1-ary parity relations).
    """
    n = rel.arity
    if len(rel.tuples) != 1 << (n - 1):
        return None
    constants = {sum(t) % 2 for t in rel.tuples}
    if len(constants) != 1:
        return None
    return constants.pop()


def _xor_constant(rel: Relation) -> int:
    c = parity_constant(rel)
    if c is None:
        raise ClassificationError(
            f"relation {rel.name} is not an XOR clause; language misclassified as irreducible affine"
        )
    return c


def _coefficients(clause: Clause) -> int:
    coeffs = 0
    for v in clause.vars:
        coeffs ^= 1 << v
    return coeffs


def clause_to_equation(clause: Clause, rel: Relation) -> tuple[int, int]:
    """GF(2) row (coefficient bitmask keyed by variable id, constant bit).

    Repeated variables in a clause cancel pairwise.
    """
    return _coefficients(clause), _xor_constant(rel)


def min_affine(formula: CnfFormula) -> tuple[CnfFormula, MinimizeStats]:
    """Keep a maximal independent subset of clause rows, greedily in input
    order; inconsistent systems yield the cached minimum unsatisfiable
    formula for the language."""
    lang = formula.language
    constants: dict[str, int] = {}
    rows = []
    for idx, clause in enumerate(formula.clauses):
        if clause.relation not in constants:
            constants[clause.relation] = _xor_constant(lang.get(clause.relation))
        rows.append(((_coefficients(clause), constants[clause.relation]), idx))

    # incremental elimination; each basis row is keyed by its top bit, and a
    # new row is reduced only while its own top bit is one of those pivots
    basis: dict[int, tuple[int, int]] = {}
    kept: list[int] = []
    reductions = 0
    inconsistent = False
    for (coeffs, const), idx in rows:
        while coeffs:
            pivot = coeffs.bit_length() - 1
            row = basis.get(pivot)
            if row is None:
                break
            coeffs ^= row[0]
            const ^= row[1]
            reductions += 1
        if coeffs == 0:
            if const == 1:
                inconsistent = True
                break
            continue
        basis[pivot] = (coeffs, const)
        kept.append(idx)

    if inconsistent:
        return unsat_minimum(formula)

    out = CnfFormula._trusted(
        lang,
        formula.var_names,
        tuple(formula.clauses[i] for i in kept),
        formula.language_path,
    )
    stats = MinimizeStats(
        len(formula.clauses), len(kept), rank=len(kept), reductions=reductions
    )
    return out, stats
