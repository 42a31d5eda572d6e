"""boolmin: minimization of restricted propositional formulas.

Classifies constraint languages and Boolean-function bases by the
polynomial/hard dichotomy, runs the polynomial-time minimizers (IHSB+/-,
bijunctive, affine, and the OR/AND/XOR tuple DP), and validates results
against brute-force oracles at desk scale.

The package exports `minimize` and the names the README and the demos
import from it; everything else is imported from its module.
"""

from .affine import min_affine
from .bijunctive import min_bijunctive
from .classify import (
    classify_basis,
    classify_language,
    closed_under,
    find_positive_horn_witness,
    function_shape,
    is_irreducible,
)
from .errors import ClassificationError
from .gadgets import (
    build_and_or_gadget,
    pure_horn_dnf_to_cnf,
    reduce_unsat_to_mee_cnf,
    reduce_unsat_to_mee_post,
)
from .ihsb import min_ihsb_cnf, min_ihsb_minus_cnf
from .model import (
    BFormula,
    BoolFunction,
    CnfFormula,
    ConstraintLanguage,
    MinimizeStats,
    Relation,
    SizeMeasure,
    equivalent,
    satisfiable,
)
from .oracle import brute_min_bformula, brute_min_cnf
from .post import min_post


def minimize(formula: CnfFormula) -> tuple[CnfFormula, MinimizeStats]:
    """Minimize a CNF formula with the polynomial minimizer that the
    classification of its language selects.

    Raises ClassificationError when the language holds a reducible relation
    (minimality is guaranteed only for irreducible languages) or when no
    polynomial minimizer applies to its verdict."""
    report = classify_language(formula.language)
    if report.irreducibility_caveat:
        raise ClassificationError(
            "language contains reducible relations; minimization is "
            "guaranteed only for irreducible languages"
        )
    minimizer = {
        "P-affine": min_affine,
        "P-bijunctive": min_bijunctive,
        "P-ihsb+": min_ihsb_cnf,
        "P-ihsb-": min_ihsb_minus_cnf,
    }.get(report.verdict)
    if minimizer is None:
        raise ClassificationError(f"verdict={report.verdict}; no polynomial minimizer applies")
    return minimizer(formula)
