"""boolmin: minimization of restricted propositional formulas.

Classifies constraint languages and Boolean-function bases by the
polynomial/hard dichotomy, runs the polynomial-time minimizers (IHSB+/-,
bijunctive, affine, and the OR/AND/XOR tuple DP), and validates results
against brute-force oracles at desk scale.
"""

from .affine import clause_to_equation, min_affine, parity_constant
from .bijunctive import LiteralGraph, min_bijunctive, to_literal_graph
from .classify import (
    ClassificationReport,
    FunctionShape,
    HornWitness,
    classify_basis,
    classify_language,
    closed_under,
    find_positive_horn_witness,
    function_shape,
    is_irreducible,
    relation_flags,
)
from .errors import (
    BoolminError,
    ClassificationError,
    FormatError,
    ResourceLimitError,
    VocabularyError,
)
from .gadgets import (
    ReductionResult,
    build_and_or_gadget,
    build_maj_gadget,
    pure_horn_dnf_to_cnf,
    reduce_unsat_to_mee_cnf,
    reduce_unsat_to_mee_post,
)
from .ihsb import (
    ImplGraph,
    PartitionedFormula,
    graph_from_cnf,
    leadsto,
    min_ihsb,
    min_ihsb_cnf,
    min_ihsb_minus_cnf,
    restrict_vocabulary,
    unsat_check_ihsb,
)
from .model import (
    Assignment,
    BApp,
    BFormula,
    BoolFunction,
    BVar,
    Clause,
    CnfFormula,
    ConstraintLanguage,
    MeeInstance,
    MinimizeStats,
    Relation,
    SizeMeasure,
    dualize,
    equivalent,
    satisfiable,
)
from .oracle import brute_min_bformula, brute_min_cnf, expressible, min_unsat_formula
from .post import ReachTable, gate_lower_bound, min_post, relevant_variables

__version__ = "0.1.0"


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
