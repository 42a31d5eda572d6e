"""Structural classification of relations, constraint languages and bases:
closure properties, irreducibility, function shapes and the dichotomy
verdicts that drive minimizer dispatch."""
from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache

from .graph import bits
from .model import (
    BoolFunction,
    ConstraintLanguage,
    FrozenDict,
    Record,
    Relation,
    dual_name,
    var_mask,
)

CLOSURE_OPS = ("min2", "max2", "maj3", "xor3", "orAndMix", "andOrMix")

_UNARY_SHAPES = {frozenset({(1,)}): ("pos",), frozenset({(0,)}): ("neg",)}
_BINARY_SHAPES = {
    frozenset({(0, 0), (0, 1), (1, 1)}): ("imp", False),
    frozenset({(0, 0), (1, 0), (1, 1)}): ("imp", True),
    frozenset({(0, 0), (1, 1)}): ("eq",),
    frozenset({(0, 0), (0, 1), (1, 0)}): ("nand",),
    frozenset({(0, 1), (1, 0)}): ("xor",),
}


def closed_under(rel: Relation, op: str) -> bool:
    """True iff applying op coordinatewise to tuples of R stays inside R.

    Coordinatewise application is bitwise arithmetic on tuple codes, so the
    checks below run on small integers.
    """
    if op not in CLOSURE_OPS:
        raise ValueError(f"unknown closure operation {op!r}")
    codes = sorted(rel.codes)
    inside = rel.codes

    if op == "min2":
        return all((a & b) in inside for a in codes for b in codes)
    if op == "max2":
        return all((a | b) in inside for a in codes for b in codes)
    if op == "xor3":
        # closed under x^y^z iff the code set is an affine subspace
        a0 = codes[0]
        return all((a0 ^ b ^ c) in inside for b in codes for c in codes)
    if op == "orAndMix":
        meets = {b & c for b in codes for c in codes}
        return all((a | m) in inside for a in codes for m in meets)
    if op == "andOrMix":
        joins = {b | c for b in codes for c in codes}
        return all((a & m) in inside for a in codes for m in joins)
    # maj3: (a&b)|(a&c)|(b&c) == (a & (b|c)) | (b&c) for fixed (b, c)
    combos = {(b | c, b & c) for b in codes for c in codes}
    return all(((a & u) | v) in inside for a in codes for (u, v) in combos)


def relation_shape(rel: Relation):
    """The base shape of a relation, or None.

    ("pos",) and ("neg",) are the literals x and not-x; ("imp", flipped) is
    x -> y, or y -> x when flipped; ("eq",), ("nand",) and ("xor",) are the
    binary equality, NAND and XOR; ("or", m) is the m-ary OR.
    """
    if rel.arity == 1:
        return _UNARY_SHAPES.get(rel.tuples)
    if rel.arity == 2 and rel.tuples in _BINARY_SHAPES:
        return _BINARY_SHAPES[rel.tuples]
    if len(rel.tuples) == (1 << rel.arity) - 1 and all(any(t) for t in rel.tuples):
        return ("or", rel.arity)
    return None


def _flip(mask: int, i: int, n: int) -> int:
    """Table mask over n variables with variable i negated: each row trades
    its value with the row across column i."""
    col = var_mask(i, n)
    h = 1 << (n - 1 - i)
    return ((mask & col) >> h) | ((mask << h) & col)


def is_irreducible(rel: Relation) -> bool:
    """True iff R is not equivalent to the conjunction of its n projections
    that each omit one coordinate (the tightest decomposition into clauses
    each missing a variable).  Lifted back to n coordinates, the projection
    omitting coordinate i is R | flip_i(R)."""
    n = rel.arity
    mask = bits(rel.codes)
    lifted = (1 << (1 << n)) - 1
    for i in range(n):
        lifted &= mask | _flip(mask, i, n)
    return lifted != mask


class FunctionShape(Record):
    """Which of the three tractable shapes a function has, with its
    relevant-variable set and its value at the all-zero assignment."""

    or_function: bool
    and_function: bool
    xor_function: bool
    relevant: frozenset[int]
    zero_value: int


@lru_cache(maxsize=None)
def function_shape(f: BoolFunction) -> FunctionShape:
    """Detect OR/AND/XOR shape by comparing the table mask with the OR, the
    AND and the parity of the relevant variables' columns.

    Variable i is relevant iff negating it changes the table.  Constants have
    all three shapes.  Memoized by function value: equal functions share one
    shape.
    """
    n = f.arity
    mask = bits(code for code, value in enumerate(f.table) if value)
    relevant = frozenset(i for i in range(n) if _flip(mask, i, n) != mask)
    full = (1 << (1 << n)) - 1
    any_of, all_of, parity = 0, full, full if f.table[0] else 0
    for i in relevant:
        col = var_mask(i, n)
        any_of |= col
        all_of &= col
        parity ^= col
    constant = not relevant
    return FunctionShape(
        constant or mask == any_of, constant or mask == all_of, mask == parity, relevant, f.table[0]
    )


def classify_basis(funcs) -> str:
    """P-or / P-and / P-xor when all members share a shape, else coNP-hard."""
    shapes = [function_shape(f) for f in funcs]
    if not shapes:
        raise ValueError("basis must be nonempty")
    if all(s.xor_function for s in shapes):
        return "P-xor"
    if all(s.or_function for s in shapes):
        return "P-or"
    if all(s.and_function for s in shapes):
        return "P-and"
    return "coNP-hard"


class RelationFlags(Record):
    affine: bool
    bijunctive: bool
    horn: bool
    dual_horn: bool
    ihsb_plus: bool
    ihsb_minus: bool
    irreducible: bool


def relation_flags(rel: Relation) -> RelationFlags:
    return RelationFlags(
        closed_under(rel, "xor3"),
        closed_under(rel, "maj3"),
        closed_under(rel, "min2"),
        closed_under(rel, "max2"),
        closed_under(rel, "orAndMix"),
        closed_under(rel, "andOrMix"),
        is_irreducible(rel),
    )


class HornWitness(Record):
    """A relation of the language equal, up to argument permutation, to
    x1 and ... and xk -> y."""

    relation: str
    k: int
    permutation: tuple[int, ...]


class ClassificationReport(Record):
    """A language's verdict and per-relation flags.  One report is shared by
    every caller (see `classify_language`), so `flags` is read-only."""

    flags: Mapping[str, RelationFlags]
    verdict: str
    schaefer: bool
    irreducibility_caveat: bool
    horn_witness: HornWitness | None


def _implication_template_match(rel: Relation) -> HornWitness | None:
    """Match R against permutations of the (k+1)-ary implication, k >= 2.

    Such a relation misses exactly one tuple, and that tuple has a single 0.
    """
    n = rel.arity
    if n < 3 or len(rel.tuples) != (1 << n) - 1:
        return None
    missing = (((1 << (1 << n)) - 1) ^ bits(rel.codes)).bit_length() - 1
    zeros = ((1 << n) - 1) ^ missing  # the missing tuple's 0 coordinates
    if zeros.bit_count() != 1:
        return None
    head = n - zeros.bit_length()
    perm = tuple(i for i in range(n) if i != head) + (head,)
    return HornWitness(rel.name, n - 1, perm)


def find_positive_horn_witness(lang: ConstraintLanguage) -> HornWitness | None:
    """Theorem-15 style witness for irreducible Horn languages that are not
    IHSB-: a relation that is a permuted (k+1)-ary implication with k >= 2."""
    flags = [relation_flags(r) for r in lang.relations]
    if not all(f.irreducible and f.horn for f in flags):
        return None
    if all(f.ihsb_minus for f in flags):
        return None
    for rel in lang.relations:
        witness = _implication_template_match(rel)
        if witness is not None:
            return witness
    return None


@lru_cache(maxsize=None)
def classify_language(lang: ConstraintLanguage) -> ClassificationReport:
    """Dichotomy verdict with per-relation flags.

    Verdict precedence among the polynomial classes: affine > bijunctive >
    ihsb+ > ihsb-; the caveat flag is set when some relation is reducible,
    in which case the verdict is only guaranteed for irreducible languages.

    Memoized by language value: equal languages share one report.
    """
    flags = {r.name: relation_flags(r) for r in lang.relations}
    fs = list(flags.values())
    affine = all(f.affine for f in fs)
    bijunctive = all(f.bijunctive for f in fs)
    horn = all(f.horn for f in fs)
    dual_horn = all(f.dual_horn for f in fs)
    ihsb_plus = all(f.ihsb_plus for f in fs)
    ihsb_minus = all(f.ihsb_minus for f in fs)
    schaefer = affine or bijunctive or horn or dual_horn
    caveat = not all(f.irreducible for f in fs)

    witness = None
    if affine:
        verdict = "P-affine"
    elif bijunctive:
        verdict = "P-bijunctive"
    elif ihsb_plus:
        verdict = "P-ihsb+"
    elif ihsb_minus:
        verdict = "P-ihsb-"
    elif horn:
        verdict = "NP-complete-horn"
        witness = find_positive_horn_witness(lang)
    elif dual_horn:
        verdict = "NP-complete-dualhorn"
        dual_witness = find_positive_horn_witness(lang.dual())
        if dual_witness is not None:
            witness = HornWitness(
                dual_name(dual_witness.relation), dual_witness.k, dual_witness.permutation
            )
    else:
        verdict = "coNP-hard-nonschaefer"
    return ClassificationReport(FrozenDict(flags), verdict, schaefer, caveat, witness)


def report_lines(report: ClassificationReport) -> list[str]:
    """Serialize a report as key=value lines."""
    lines = [
        f"verdict={report.verdict}",
        f"schaefer={'true' if report.schaefer else 'false'}",
        f"irreducible={'true' if not report.irreducibility_caveat else 'false'}",
    ]
    if report.irreducibility_caveat:
        lines.append("caveat=classification-guaranteed-only-for-irreducible-languages")
    if report.horn_witness is not None:
        w = report.horn_witness
        perm = ",".join(str(p) for p in w.permutation)
        lines.append(f"witness={w.relation} witness_k={w.k} witness_perm={perm}")
    elif report.verdict.startswith("NP-complete"):
        # the hardness claim rests on a witness that was not found
        lines.append("witness=none")
    for name, f in report.flags.items():
        for key, value in (
            ("affine", f.affine),
            ("bijunctive", f.bijunctive),
            ("horn", f.horn),
            ("dualhorn", f.dual_horn),
            ("ihsb+", f.ihsb_plus),
            ("ihsb-", f.ihsb_minus),
            ("irreducible", f.irreducible),
        ):
            lines.append(f"{name}.{key}={'true' if value else 'false'}")
    return lines
