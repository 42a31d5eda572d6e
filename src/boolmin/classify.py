"""Structural classification of relations, constraint languages and bases:
closure properties, irreducibility, function shapes and the dichotomy
verdicts that drive minimizer dispatch."""
from __future__ import annotations

from dataclasses import dataclass

from .model import BoolFunction, ConstraintLanguage, Relation, all_assignments, tuple_to_code

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


def _drop_coordinate(code: int, bit_pos: int) -> int:
    low = code & ((1 << bit_pos) - 1)
    return ((code >> (bit_pos + 1)) << bit_pos) | low


def projection_codes(rel: Relation, omit: int) -> frozenset[int]:
    """Codes of the projection of R onto all coordinates except `omit`."""
    bit_pos = rel.arity - 1 - omit
    return frozenset(_drop_coordinate(code, bit_pos) for code in rel.codes)


def is_irreducible(rel: Relation) -> bool:
    """True iff R is not equivalent to the conjunction of its n projections
    that each omit one coordinate (the tightest decomposition into clauses
    each missing a variable)."""
    n = rel.arity
    projections = [projection_codes(rel, i) for i in range(n)]
    inside = rel.codes
    for code in range(1 << n):
        if code in inside:
            continue
        if all(
            _drop_coordinate(code, n - 1 - i) in projections[i] for i in range(n)
        ):
            # a tuple outside R survives every projection constraint
            return True
    return False


@dataclass(frozen=True)
class FunctionShape:
    """Which of the three tractable shapes a function has, with its
    relevant-variable set and the values at the two constant baselines."""

    or_function: bool
    and_function: bool
    xor_function: bool
    relevant: frozenset[int]
    zero_value: int
    one_value: int

    @property
    def constant(self) -> int:
        """Offset against the all-zero baseline."""
        return self.zero_value


def _semantic_relevant(f: BoolFunction) -> frozenset[int]:
    n = f.arity
    relevant = set()
    for i in range(n):
        flip = 1 << (n - 1 - i)
        for code in range(1 << n):
            if not code & flip and f.table[code] != f.table[code | flip]:
                relevant.add(i)
                break
    return frozenset(relevant)


def function_shape(f: BoolFunction) -> FunctionShape:
    """Detect OR/AND/XOR shape by the unit-vector test plus a full table check.

    Constants have all three shapes.
    """
    n = f.arity
    zero = f.table[0]
    one = f.table[-1]
    relevant = _semantic_relevant(f)

    is_or = False
    if not relevant:
        is_or = True
    elif zero == 0:
        unit_set = {i for i in range(n) if f.table[1 << (n - 1 - i)] == 1}
        is_or = all(
            f.table[tuple_to_code(t)] == (1 if any(t[i] for i in unit_set) else 0)
            for t in all_assignments(n)
        )

    is_and = False
    if not relevant:
        is_and = True
    elif one == 1:
        full = (1 << n) - 1
        unit_set = {i for i in range(n) if f.table[full ^ (1 << (n - 1 - i))] == 0}
        is_and = all(
            f.table[tuple_to_code(t)] == (1 if all(t[i] for i in unit_set) else 0)
            for t in all_assignments(n)
        )

    unit_set = {i for i in range(n) if f.table[1 << (n - 1 - i)] != zero}
    is_xor = all(
        f.table[tuple_to_code(t)] == (zero + sum(t[i] for i in unit_set)) % 2
        for t in all_assignments(n)
    )

    return FunctionShape(is_or, is_and, is_xor, relevant, zero, one)


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


@dataclass(frozen=True)
class RelationFlags:
    affine: bool
    bijunctive: bool
    horn: bool
    dual_horn: bool
    ihsb_plus: bool
    ihsb_minus: bool
    irreducible: bool


def relation_flags(rel: Relation) -> RelationFlags:
    return RelationFlags(
        affine=closed_under(rel, "xor3"),
        bijunctive=closed_under(rel, "maj3"),
        horn=closed_under(rel, "min2"),
        dual_horn=closed_under(rel, "max2"),
        ihsb_plus=closed_under(rel, "orAndMix"),
        ihsb_minus=closed_under(rel, "andOrMix"),
        irreducible=is_irreducible(rel),
    )


@dataclass(frozen=True)
class HornWitness:
    """A relation of the language equal, up to argument permutation, to
    x1 and ... and xk -> y."""

    relation: str
    k: int
    permutation: tuple[int, ...]


@dataclass(frozen=True)
class ClassificationReport:
    flags: dict[str, RelationFlags]
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
    missing = next(iter(set(all_assignments(n)) - rel.tuples))
    if missing.count(0) != 1:
        return None
    head = missing.index(0)
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


def classify_language(lang: ConstraintLanguage) -> ClassificationReport:
    """Dichotomy verdict with per-relation flags.

    Verdict precedence among the polynomial classes: affine > bijunctive >
    ihsb+ > ihsb-; the caveat flag is set when some relation is reducible,
    in which case the verdict is only guaranteed for irreducible languages.
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
            from .model import dual_name

            witness = HornWitness(
                dual_name(dual_witness.relation), dual_witness.k, dual_witness.permutation
            )
    else:
        verdict = "coNP-hard-nonschaefer"
    return ClassificationReport(flags, verdict, schaefer, caveat, witness)


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
