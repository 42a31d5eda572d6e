"""Minimization over irreducible affine languages: clauses become GF(2)
equations and a maximal linearly independent subset of them is minimum."""
from __future__ import annotations

from .errors import ClassificationError
from .model import CnfFormula, MinimizeStats, Relation
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


def min_affine(formula: CnfFormula) -> tuple[CnfFormula, MinimizeStats]:
    """Keep a maximal independent subset of clause rows, greedily in input
    order; inconsistent systems yield the cached minimum unsatisfiable
    formula for the language.

    Clause i is kept iff its row is not in the span of the rows before it,
    that is iff clause i is a pivot column of the transposed system.  So the
    elimination runs on one int per variable over the clause bits, clause i
    at bit m - 1 - i, whose top bit is its earliest clause; pivot columns do
    not depend on the row order, so the sparsest rows go in first, and each
    leaves the list of rows as it enters the basis.  The system is
    consistent iff the row of clause constants reduces to 0 through the
    basis.  `reductions` counts the row XORs: variable rows against the
    basis, then the constants row."""
    lang = formula.language
    clauses = formula.clauses
    m = len(clauses)
    constants: dict[str, int] = {}
    rows = [0] * formula.n_vars
    rhs = 0
    for idx, (name, vs) in enumerate(clauses):
        c = constants.get(name)
        if c is None:
            c = constants[name] = _xor_constant(lang.get(name))
        bit = 1 << (m - 1 - idx)
        if c:
            rhs |= bit
        for v in vs:
            rows[v] ^= bit
    # basis[k]: the basis row whose top bit is clause m - k, else 0
    basis = [0] * (m + 1)
    reductions = 0
    # popped from the end: sparsest first, ties in variable order
    pending = sorted(filter(None, rows), key=int.bit_count)
    pending.reverse()
    del rows
    while pending:
        row = pending.pop()
        while row:
            top = row.bit_length()
            pivot_row = basis[top]
            if not pivot_row:
                basis[top] = row
                break
            row ^= pivot_row
            reductions += 1
    while rhs:
        pivot_row = basis[rhs.bit_length()]
        if not pivot_row:  # 0 = 1
            return unsat_minimum(formula)
        rhs ^= pivot_row
        reductions += 1

    kept = [clauses[i] for i in range(m) if basis[m - i]]
    out = CnfFormula._trusted(lang, formula.var_names, tuple(kept), formula.language_path)
    stats = MinimizeStats(m, len(kept), rank=len(kept), reductions=reductions)
    return out, stats
