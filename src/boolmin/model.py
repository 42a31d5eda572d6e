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

A CNF clause is a plain `(relation, vars)` tuple, such as `("or2", (0, 1))`,
and every consumer reads it by unpacking (`for name, vs in f.clauses`).
`Clause` is only the alias for annotations.  The cyclic garbage collector
untracks a tuple whose items it does not track: the vars tuple of ints at the
first collection that sees it, and the clause at that collection or the
next.  So the clauses of a large formula drop out of its walks, where a
record class (a dataclass, or even a `NamedTuple`, whose instances are never
untracked) would be walked again by every collection of its generation.

All truth-table work runs on one bit-parallel kernel.  A *mask* is an int
with one bit per assignment column (bit idx of a full table is the value at
assignment idx); `full` sets every column and `var_mask(i, n)` is variable
i's column.  Relations and functions compile once (`mask_op`, cached) to
`op(masks, full)`, applied pointwise: OR, AND and XOR/XNOR tables fold with
one bit operation per argument, other tables are a sum of products over
their true rows.  `CnfFormula.mask` and `BFormula.mask` evaluate over any
columns: all 2^n assignments (`truth_table`), one assignment (`eval`, with
`full = 1`), or the n + 1 probes of `post.relevant_variables`.

What depends on a constraint language alone is computed once per language
value, not once per formula: its classification
(`classify.classify_language`), its IHSB base templates
(`ihsb.language_templates`, `ihsb.dual_templates`), its bijunctive clause
table and its minimum unsatisfiable formula (`oracle.min_unsat_formula`)
are memoized by the language, and `formats.load_language` gives equal
include-free texts one language object.  The dual language is kept on the
language object itself, so that the dual of the dual is that object.  These
results are shared by every caller: the report and the templates are
read-only, and nothing writes an emitter after it is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial, reduce
from itertools import product
from operator import and_, or_, xor
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

from .errors import FormatError, ResourceLimitError

MAX_RELATION_ARITY = 8
VAR_CAP = 24

DUAL_SUFFIX = "~"

# bit vector indexed by variable id; length equals the formula's variable count
Assignment = tuple[int, ...]

T = TypeVar("T")


def dual_name(name: str) -> str:
    """Toggle the dual marker so that dualizing twice restores the name."""
    if name.endswith(DUAL_SUFFIX):
        return name[: -len(DUAL_SUFFIX)]
    return name + DUAL_SUFFIX


def all_assignments(n: int) -> Iterator[tuple[int, ...]]:
    """All 0/1 tuples of length n in ascending index order."""
    return product((0, 1), repeat=n)


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

    @cached_property
    def mask_op(self) -> MaskOp:
        """The relation as a function, applied pointwise to argument masks."""
        return _compile(tuple(int(code in self.codes) for code in range(1 << self.arity)))

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
        """The language of the dual relations, built once per language
        object; its dual is this very object."""
        dual = self.__dict__.get("_dual")
        if dual is None:
            dual = ConstraintLanguage(tuple(r.dual() for r in self.relations))
            # frozen instances: store as `cached_property` does, past __setattr__
            dual.__dict__["_dual"] = self
            self.__dict__["_dual"] = dual
        return dual


# a named relation applied to variable ids (repeats allowed); a plain tuple,
# for the reason in the module docstring
Clause = tuple[str, tuple[int, ...]]


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
            if not (
                isinstance(c, tuple)
                and len(c) == 2
                and isinstance(c[0], str)
                and isinstance(c[1], tuple)
                and all(isinstance(v, int) for v in c[1])
            ):
                raise FormatError(f"malformed clause {c!r}: expected a (relation, vars) pair")
            name, vs = c
            rel = self.language.get(name)
            if len(vs) != rel.arity:
                raise FormatError(
                    f"clause {name}: got {len(vs)} arguments, arity is {rel.arity}"
                )
            if any(not 0 <= v < n for v in vs):
                raise FormatError(f"clause {name}: variable id out of range")

    @classmethod
    def _trusted(
        cls,
        language: ConstraintLanguage,
        var_names: tuple[str, ...],
        clauses: tuple[Clause, ...],
        language_path: str | None = None,
    ) -> "CnfFormula":
        """A formula from parts already checked, without `__post_init__`:
        the parser's own checks, or clauses derived from a checked formula
        over relations of the language they name, at their arity."""
        formula = object.__new__(cls)
        # field by field, as the frozen dataclass's own __init__ sets them
        set_field = object.__setattr__
        set_field(formula, "language", language)
        set_field(formula, "var_names", var_names)
        set_field(formula, "clauses", clauses)
        set_field(formula, "language_path", language_path)
        return formula

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def eval(self, values: Sequence[int]) -> int:
        """1 iff the assignment (indexed by variable id) satisfies every clause."""
        if len(values) != self.n_vars:
            raise FormatError("assignment length does not match variable count")
        return self.mask(values, 1)

    def mask(self, columns: Sequence[int], full: int) -> int:
        """Conjunction of the clause masks, given each variable id's mask."""
        out = full
        for name, vs in self.clauses:
            out &= self.language.get(name).mask_op([columns[v] for v in vs], full)
        return out

    def solution_mask(self) -> int:
        """Bitmask over 2^n assignment indices; variable 0 is the MSB."""
        return truth_table(self, self.var_names)

    def dual(self) -> "CnfFormula":
        """The formula over the dual relations."""
        return CnfFormula._trusted(
            self.language.dual(),
            self.var_names,
            tuple((dual_name(name), vs) for name, vs in self.clauses),
            self.language_path,
        )


@dataclass(frozen=True)
class MinimizeStats:
    input_clauses: int
    output_clauses: int
    passes: int = 0
    rank: int | None = None
    reductions: int | None = None

    def lines(self) -> list[str]:
        out = [
            f"input_clauses={self.input_clauses}",
            f"output_clauses={self.output_clauses}",
            f"passes={self.passes}",
        ]
        if self.rank is not None:
            out.append(f"rank={self.rank}")
        if self.reductions is not None:
            out.append(f"reductions={self.reductions}")
        return out


def var_mask(i: int, n: int) -> int:
    """Variable i's column over the 2^n assignments: the block of h zeros
    and h ones, h = 2^(n-1-i), doubled by shifts (linear in 2^n)."""
    h = 1 << (n - 1 - i)
    mask, width = ((1 << h) - 1) << h, 2 * h
    while width < 1 << n:
        mask |= mask << width
        width <<= 1
    return mask


def clause_mask(rel: Relation, var_ids: Sequence[int], n_vars: int) -> int:
    """Solution bitmask of a single clause over an n-variable assignment space."""
    return rel.mask_op([var_mask(v, n_vars) for v in var_ids], (1 << (1 << n_vars)) - 1)


# op(masks, full) -> mask: a function applied pointwise to argument masks
MaskOp = Callable[[Sequence[int], int], int]


def _compile(table: tuple[int, ...]) -> MaskOp:
    """Mask operator of a truth table (entry i at the argument code i)."""
    size = len(table)
    parity = tuple(bin(code).count("1") & 1 for code in range(size))
    if table == (0,) + (1,) * (size - 1):
        return _or
    if table == (0,) * (size - 1) + (1,):
        return _and
    if table == parity:
        return _xor
    if all(a != b for a, b in zip(table, parity)):
        return _xnor
    arity = size.bit_length() - 1
    return partial(_sum_of_products, [code_to_tuple(c, arity) for c in range(size) if table[c]])


def _or(masks: Sequence[int], full: int) -> int:
    return reduce(or_, masks, 0)


def _and(masks: Sequence[int], full: int) -> int:
    return reduce(and_, masks, full)


def _xor(masks: Sequence[int], full: int) -> int:
    return reduce(xor, masks, 0)


def _xnor(masks: Sequence[int], full: int) -> int:
    return full ^ reduce(xor, masks, 0)


def _sum_of_products(rows: list[tuple[int, ...]], masks: Sequence[int], full: int) -> int:
    """OR over the true rows of the AND of the matching literal masks."""
    literals = ([full ^ m for m in masks], masks)
    out = 0
    for row in rows:
        term = full
        for i, bit in enumerate(row):
            term &= literals[bit][i]
        out |= term
    return out


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

    @cached_property
    def mask_op(self) -> MaskOp:
        """The function applied pointwise to argument masks."""
        return _compile(self.table)

    def dual(self) -> "BoolFunction":
        size = 1 << self.arity
        flipped = tuple(1 - self.table[size - 1 - i] for i in range(size))
        return BoolFunction(dual_name(self.name), self.arity, flipped)


@dataclass(frozen=True)
class BVar:
    name: str


@dataclass(frozen=True, eq=False)
class BApp:
    """Equality and hashing compare the pre-order node keys, which with the
    arities determine the tree, so neither recurses."""

    func: str
    args: tuple["BNode", ...]

    def __eq__(self, other) -> bool:
        return isinstance(other, BApp) and _key(self) == _key(other)

    def __hash__(self) -> int:
        return hash(_key(self))


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
        funcs = self.by_name
        for node in _walk(self.root):
            if isinstance(node, BVar):
                continue
            f = funcs.get(node.func)
            if f is None:
                raise FormatError(f"unknown function {node.func!r}")
            if len(node.args) != f.arity:
                raise FormatError(
                    f"function {node.func}: got {len(node.args)} arguments, arity is {f.arity}"
                )

    @cached_property
    def by_name(self) -> dict[str, BoolFunction]:
        return {f.name: f for f in self.functions}

    @cached_property
    def var_names(self) -> tuple[str, ...]:
        """Variables of the tree in canonical (sorted) order."""
        return tuple(sorted({node.name for node in _walk(self.root) if isinstance(node, BVar)}))

    def eval(self, values: Mapping[str, int]) -> int:
        return self.mask(values, 1)

    def mask(self, columns: Mapping[str, int], full: int) -> int:
        """The root's mask, given each variable's mask."""
        funcs = self.by_name

        def leaf(node: BVar) -> int:
            if node.name not in columns:
                raise FormatError(f"assignment does not cover variable {node.name!r}")
            return columns[node.name]

        return fold(self.root, leaf, lambda node, args: funcs[node.func].mask_op(args, full))

    def dual(self) -> "BFormula":
        return BFormula(
            tuple(f.dual() for f in self.functions),
            fold(self.root, lambda v: v, lambda n, args: BApp(dual_name(n.func), tuple(args))),
        )


def _walk(root: BNode) -> Iterator[BNode]:
    """Every node occurrence of the tree in pre-order, arguments right to
    left, without recursion."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BApp):
            stack.extend(node.args)


def _key(root: BNode) -> tuple:
    return tuple((n.func, len(n.args)) if isinstance(n, BApp) else n.name for n in _walk(root))


def fold(root: BNode, leaf: Callable[[BVar], T], app: Callable[[BApp, list[T]], T]) -> T:
    """Post-order evaluation without recursion: `leaf(v)` at each variable,
    `app(node, values)` at each application, values left to right.  (`_walk`
    yields arguments right to left, so its reverse is that post-order.)"""
    out: list[T] = []
    for node in reversed(list(_walk(root))):
        if isinstance(node, BVar):
            out.append(leaf(node))
        else:
            split = len(out) - len(node.args)
            value = app(node, out[split:])
            del out[split:]
            out.append(value)
    return out[0]


def count_literals(node: BNode) -> int:
    """Number of variable-leaf occurrences (constant applications count 0)."""
    return sum(isinstance(n, BVar) for n in _walk(node))


def count_gates(node: BNode) -> int:
    """Number of function symbols in the tree."""
    return sum(isinstance(n, BApp) for n in _walk(node))


def substitute(node: BNode, mapping: Mapping[str, BNode]) -> BNode:
    """Replace variable leaves according to mapping (missing names stay)."""
    return fold(node, lambda v: mapping.get(v.name, v), lambda n, args: BApp(n.func, tuple(args)))


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
    if measure is SizeMeasure.LITERALS:
        return count_literals(formula.root)
    if measure is SizeMeasure.GATES:
        return count_gates(formula.root)
    raise FormatError("clause count is only defined for CNF formulas")


def truth_table(formula: Formula, names: Sequence[str]) -> int:
    """Mask over the 2^len(names) assignments to names (names[0] is the MSB
    of the index); names must cover the formula's variables."""
    n = len(names)
    if n > VAR_CAP:
        raise ResourceLimitError(
            f"operation would enumerate 2^{n} assignments (cap {VAR_CAP} variables)"
        )
    columns = {name: var_mask(i, n) for i, name in enumerate(names)}
    full = (1 << (1 << n)) - 1
    if isinstance(formula, CnfFormula):
        return formula.mask([columns[name] for name in formula.var_names], full)
    return formula.mask(columns, full)


def equivalent(f1: Formula, f2: Formula) -> bool:
    """True iff the truth tables over the union of variable sets agree."""
    names = sorted(set(f1.var_names) | set(f2.var_names))
    return truth_table(f1, names) == truth_table(f2, names)


def satisfiable(formula: Formula) -> bool:
    """True iff some assignment evaluates to 1."""
    return truth_table(formula, formula.var_names) != 0


def dualize(obj):
    """Dual of a function, relation, language or formula; an involution."""
    if isinstance(obj, (BoolFunction, Relation, ConstraintLanguage, CnfFormula, BFormula)):
        return obj.dual()
    raise FormatError(f"cannot dualize object of type {type(obj).__name__}")
