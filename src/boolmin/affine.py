"""Minimization over irreducible affine languages: clauses become GF(2)
equations and a maximal linearly independent subset of them is minimum."""
from __future__ import annotations

from collections import Counter
from itertools import chain

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


def clause_to_equation(clause: Clause, rel: Relation) -> tuple[int, int]:
    """GF(2) row (coefficient bitmask keyed by variable id, constant bit).

    Repeated variables in a clause cancel pairwise.
    """
    coeffs = 0
    for v in clause[1]:
        coeffs ^= 1 << v
    return coeffs, _xor_constant(rel)


def min_affine(formula: CnfFormula) -> tuple[CnfFormula, MinimizeStats]:
    """Keep a maximal independent subset of clause rows, greedily in input
    order; inconsistent systems yield the cached minimum unsatisfiable
    formula for the language.

    A row is one int: the constant in bit 0 and variable v at bit
    `col[v]`.  Columns go by occurrence, the most used variable lowest, so
    a row's top bit, its pivot, is its least used variable (a static
    Markowitz order, which slows the fill-in of the basis rows).  Which rows are
    independent does not depend on the column order, so neither does the
    result.  `reductions` counts the row XORs under this column order, which
    for the same input are usually fewer than under variable-id order."""
    lang = formula.language
    clauses = formula.clauses
    occurrences = Counter(chain.from_iterable(vs for _, vs in clauses))
    col = {v: bit for bit, (v, _) in enumerate(occurrences.most_common(), 1)}
    constants: dict[str, int] = {}
    # basis[k]: the basis row whose bit_length is k, else 0
    basis = [0] * (len(col) + 2)
    kept: list[int] = []
    reductions = 0
    for idx, (name, vs) in enumerate(clauses):
        row = constants.get(name)
        if row is None:
            row = constants[name] = _xor_constant(lang.get(name))
        for v in vs:
            row ^= 1 << col[v]
        while row > 1:
            top = row.bit_length()
            pivot_row = basis[top]
            if not pivot_row:
                basis[top] = row
                kept.append(idx)
                break
            row ^= pivot_row
            reductions += 1
        else:
            if row:  # 0 = 1
                return unsat_minimum(formula)

    out = CnfFormula._trusted(
        lang,
        formula.var_names,
        tuple(clauses[i] for i in kept),
        formula.language_path,
    )
    stats = MinimizeStats(
        len(clauses), len(kept), rank=len(kept), reductions=reductions
    )
    return out, stats
