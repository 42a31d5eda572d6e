"""Core data model: relations, constraint languages, CNF formulas, Boolean
functions and nested formulas over a basis, plus evaluation, truth-table
equivalence and dualization.

Bit conventions used throughout the package:

* A relation tuple lists the first argument first; its integer code has the
  first argument as the most significant bit.
* A function table has length 2**arity; entry i is the value at the
  assignment whose binary encoding is i with x1 as the most significant bit.
* An assignment over variables 0..n-1 is indexed the same way: variable 0
  is the most significant bit of the assignment index.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Iterator, Mapping, Sequence

from .errors import FormatError, ResourceLimitError

MAX_RELATION_ARITY = 8
DEFAULT_VAR_CAP = 24

DUAL_SUFFIX = "~"

# bit vector indexed by variable id; length equals the formula's variable count
Assignment = tuple[int, ...]


def dual_name(name: str) -> str:
    """Toggle the dual marker so that dualizing twice restores the name."""
    if name.endswith(DUAL_SUFFIX):
        return name[: -len(DUAL_SUFFIX)]
    return name + DUAL_SUFFIX


def all_assignments(n: int) -> Iterator[tuple[int, ...]]:
    """All 0/1 tuples of length n in ascending index order."""
    return product((0, 1), repeat=n)


def check_var_cap(n: int, cap: int = DEFAULT_VAR_CAP) -> None:
    if n > cap:
        raise ResourceLimitError(
            f"operation would enumerate 2^{n} assignments (cap {cap} variables)"
        )


@dataclass(frozen=True)
class Relation:
    """A named, nonempty set of fixed-arity Boolean tuples."""

    name: str
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if not 1 <= self.arity <= MAX_RELATION_ARITY:
            raise FormatError(
                f"relation {self.name}: arity {self.arity} outside 1..{MAX_RELATION_ARITY}"
            )
        if not self.tuples:
            raise FormatError(f"relation {self.name}: empty relations are not allowed")
        for t in self.tuples:
            if len(t) != self.arity or any(b not in (0, 1) for b in t):
                raise FormatError(f"relation {self.name}: bad tuple {t}")

    @cached_property
    def codes(self) -> frozenset[int]:
        """Tuples as integers, first argument = most significant bit."""
        return frozenset(tuple_to_code(t) for t in self.tuples)

    def contains(self, t: tuple[int, ...]) -> bool:
        return t in self.tuples

    def dual(self) -> "Relation":
        flipped = frozenset(tuple(1 - b for b in t) for t in self.tuples)
        return Relation(dual_name(self.name), self.arity, flipped)


def tuple_to_code(t: Sequence[int]) -> int:
    code = 0
    for b in t:
        code = (code << 1) | b
    return code


def code_to_tuple(code: int, arity: int) -> tuple[int, ...]:
    return tuple((code >> (arity - 1 - i)) & 1 for i in range(arity))


@dataclass(frozen=True)
class ConstraintLanguage:
    """Finite ordered list of relations with unique names."""

    relations: tuple[Relation, ...]

    def __post_init__(self):
        if not self.relations:
            raise FormatError("a constraint language must contain at least one relation")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise FormatError("duplicate relation names in constraint language")

    @cached_property
    def by_name(self) -> dict[str, Relation]:
        return {r.name: r for r in self.relations}

    def get(self, name: str) -> Relation:
        try:
            return self.by_name[name]
        except KeyError:
            raise FormatError(f"unknown relation {name!r}") from None

    def dual(self) -> "ConstraintLanguage":
        return ConstraintLanguage(tuple(r.dual() for r in self.relations))


@dataclass(frozen=True)
class Clause:
    """Application of a named relation to variable ids (repeats allowed)."""

    relation: str
    vars: tuple[int, ...]


@dataclass(frozen=True)
class CnfFormula:
    """Conjunction of clauses over a constraint language.

    Variable ids are dense 0..n-1; var_names[i] is the display name of
    variable i and defines the canonical order.
    """

    language: ConstraintLanguage
    var_names: tuple[str, ...]
    clauses: tuple[Clause, ...]
    language_path: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(set(self.var_names)) != len(self.var_names):
            raise FormatError("duplicate variable names")
        n = len(self.var_names)
        for c in self.clauses:
            rel = self.language.get(c.relation)
            if len(c.vars) != rel.arity:
                raise FormatError(
                    f"clause {c.relation}: got {len(c.vars)} arguments, arity is {rel.arity}"
                )
            if any(not 0 <= v < n for v in c.vars):
                raise FormatError(f"clause {c.relation}: variable id out of range")

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def eval(self, values: Sequence[int]) -> int:
        """1 iff the assignment (indexed by variable id) satisfies every clause."""
        if len(values) != self.n_vars:
            raise FormatError("assignment length does not match variable count")
        for c in self.clauses:
            rel = self.language.get(c.relation)
            if tuple(values[v] for v in c.vars) not in rel.tuples:
                return 0
        return 1

    def solution_mask(self) -> int:
        """Bitmask over 2^n assignment indices; variable 0 is the MSB."""
        check_var_cap(self.n_vars)
        mask = (1 << (1 << self.n_vars)) - 1
        for c in self.clauses:
            mask &= clause_mask(self.language.get(c.relation), c.vars, self.n_vars)
        return mask

    def dual(self) -> "CnfFormula":
        return CnfFormula(
            self.language.dual(),
            self.var_names,
            tuple(Clause(dual_name(c.relation), c.vars) for c in self.clauses),
            self.language_path,
        )


@dataclass(frozen=True)
class MinimizeStats:
    input_clauses: int
    output_clauses: int
    passes: int = 0
    rank: int | None = None

    def lines(self) -> list[str]:
        out = [
            f"input_clauses={self.input_clauses}",
            f"output_clauses={self.output_clauses}",
            f"passes={self.passes}",
        ]
        if self.rank is not None:
            out.append(f"rank={self.rank}")
        return out


def clause_mask(rel: Relation, var_ids: Sequence[int], n_vars: int) -> int:
    """Solution bitmask of a single clause over an n-variable assignment space."""
    codes = rel.codes
    arity = rel.arity
    shifts = [n_vars - 1 - v for v in var_ids]
    mask = 0
    for idx in range(1 << n_vars):
        code = 0
        for s in shifts:
            code = (code << 1) | ((idx >> s) & 1)
        if code in codes:
            mask |= 1 << idx
    return mask


@dataclass(frozen=True)
class BoolFunction:
    """Truth-table-defined connector of fixed arity (arity 0 allowed)."""

    name: str
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 0:
            raise FormatError(f"function {self.name}: negative arity")
        if len(self.table) != 1 << self.arity:
            raise FormatError(
                f"function {self.name}: table length {len(self.table)} != 2^{self.arity}"
            )
        if any(b not in (0, 1) for b in self.table):
            raise FormatError(f"function {self.name}: table entries must be bits")

    def value(self, args: Sequence[int]) -> int:
        if len(args) != self.arity:
            raise FormatError(f"function {self.name}: expected {self.arity} arguments")
        return self.table[tuple_to_code(args)]

    def dual(self) -> "BoolFunction":
        size = 1 << self.arity
        flipped = tuple(1 - self.table[size - 1 - i] for i in range(size))
        return BoolFunction(dual_name(self.name), self.arity, flipped)


@dataclass(frozen=True)
class BVar:
    name: str


@dataclass(frozen=True)
class BApp:
    func: str
    args: tuple["BNode", ...]


BNode = BVar | BApp


@dataclass(frozen=True)
class BFormula:
    """Formula tree whose connectors come from a finite basis of functions."""

    functions: tuple[BoolFunction, ...]
    root: BNode

    def __post_init__(self):
        names = [f.name for f in self.functions]
        if len(set(names)) != len(names):
            raise FormatError("duplicate function names in basis")
        _check_node(self.root, self.by_name)

    @cached_property
    def by_name(self) -> dict[str, BoolFunction]:
        return {f.name: f for f in self.functions}

    @cached_property
    def var_names(self) -> tuple[str, ...]:
        """Variables of the tree in canonical (sorted) order."""
        seen: set[str] = set()
        _collect_vars(self.root, seen)
        return tuple(sorted(seen))

    def eval(self, values: Mapping[str, int]) -> int:
        return _eval_node(self.root, self.by_name, values)

    def size(self, measure: "SizeMeasure") -> int:
        if measure is SizeMeasure.LITERALS:
            return count_literals(self.root)
        if measure is SizeMeasure.GATES:
            return count_gates(self.root)
        raise FormatError("clause count is only defined for CNF formulas")

    def dual(self) -> "BFormula":
        return BFormula(
            tuple(f.dual() for f in self.functions), _dual_node(self.root)
        )


def _check_node(node: BNode, funcs: dict[str, BoolFunction]) -> None:
    if isinstance(node, BVar):
        return
    f = funcs.get(node.func)
    if f is None:
        raise FormatError(f"unknown function {node.func!r}")
    if len(node.args) != f.arity:
        raise FormatError(
            f"function {node.func}: got {len(node.args)} arguments, arity is {f.arity}"
        )
    for a in node.args:
        _check_node(a, funcs)


def _collect_vars(node: BNode, out: set[str]) -> None:
    if isinstance(node, BVar):
        out.add(node.name)
    else:
        for a in node.args:
            _collect_vars(a, out)


def _eval_node(node: BNode, funcs: dict[str, BoolFunction], values: Mapping[str, int]) -> int:
    if isinstance(node, BVar):
        try:
            return values[node.name]
        except KeyError:
            raise FormatError(f"assignment does not cover variable {node.name!r}") from None
    args = tuple(_eval_node(a, funcs, values) for a in node.args)
    return funcs[node.func].value(args)


def _dual_node(node: BNode) -> BNode:
    if isinstance(node, BVar):
        return node
    return BApp(dual_name(node.func), tuple(_dual_node(a) for a in node.args))


def count_literals(node: BNode) -> int:
    """Number of variable-leaf occurrences (constant applications count 0)."""
    if isinstance(node, BVar):
        return 1
    return sum(count_literals(a) for a in node.args)


def count_gates(node: BNode) -> int:
    """Number of function symbols in the tree."""
    if isinstance(node, BVar):
        return 0
    return 1 + sum(count_gates(a) for a in node.args)


def substitute(node: BNode, mapping: Mapping[str, BNode]) -> BNode:
    """Replace variable leaves according to mapping (missing names stay)."""
    if isinstance(node, BVar):
        return mapping.get(node.name, node)
    return BApp(node.func, tuple(substitute(a, mapping) for a in node.args))


class SizeMeasure(Enum):
    LITERALS = "literals"
    GATES = "gates"
    CLAUSES = "clauses"


Formula = CnfFormula | BFormula


@dataclass(frozen=True)
class MeeInstance:
    """A formula together with a size bound; positive iff an equivalent
    formula within the bound exists."""

    formula: Formula
    bound: int
    measure: SizeMeasure

    def __post_init__(self):
        if self.bound < 0:
            raise FormatError("size bound must be nonnegative")


def formula_size(formula: Formula, measure: SizeMeasure) -> int:
    if isinstance(formula, CnfFormula):
        if measure is not SizeMeasure.CLAUSES:
            raise FormatError("CNF formulas are sized by clause count")
        return len(formula.clauses)
    return formula.size(measure)


def formula_vars(formula: Formula) -> tuple[str, ...]:
    if isinstance(formula, CnfFormula):
        return formula.var_names
    return formula.var_names


def eval_by_name(formula: Formula, values: Mapping[str, int]) -> int:
    """Evaluate either formula kind against an assignment keyed by name."""
    if isinstance(formula, CnfFormula):
        return formula.eval([values[name] for name in formula.var_names])
    return formula.eval(values)


def equivalent(f1: Formula, f2: Formula, var_cap: int = DEFAULT_VAR_CAP) -> bool:
    """True iff the truth tables over the union of variable sets agree."""
    names = sorted(set(formula_vars(f1)) | set(formula_vars(f2)))
    check_var_cap(len(names), var_cap)
    for bits in all_assignments(len(names)):
        values = dict(zip(names, bits))
        if eval_by_name(f1, values) != eval_by_name(f2, values):
            return False
    return True


def satisfiable(formula: Formula, var_cap: int = DEFAULT_VAR_CAP) -> bool:
    """True iff some assignment evaluates to 1."""
    names = formula_vars(formula)
    check_var_cap(len(names), var_cap)
    for bits in all_assignments(len(names)):
        if eval_by_name(formula, dict(zip(names, bits))):
            return True
    return False


def dualize(obj):
    """Dual of a function, relation, language or formula; an involution."""
    if isinstance(obj, (BoolFunction, Relation, ConstraintLanguage, CnfFormula, BFormula)):
        return obj.dual()
    raise FormatError(f"cannot dualize object of type {type(obj).__name__}")
