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
record class (a `Record`, or even a `NamedTuple`, whose instances are never
untracked) would be walked again by every collection of its generation.

The value classes (relations, languages, formulas, functions, and the
stats, shapes, reports and templates of the other modules) derive from
`Record`.  A class annotates its fields; `Record`'s `__init__` stores them,
given positionally, straight into `self.__dict__`, and a class whose
arguments need checks or defaults writes its own `__init__` that does the
same after them; `Record._trusted` stores them, given in order, without
the checks.  `Record` gives `==`, `hash` and `repr` over the annotated
fields, in order, read through one `operator.attrgetter` built when the
class is created, and refuses to assign or delete an attribute with
`dataclasses.FrozenInstanceError`.  A field that holds a mapping holds a
`FrozenDict`, so the record still hashes and pickles.
`cached_property`, a language's cached hash and pickling read and write
`__dict__` directly.  So a class costs no generated code when the package
is imported, unlike a dataclass, whose decorator compiles its methods from
source; and `dataclasses`, which loads `inspect`, is imported only when an
assignment is refused.

All truth-table work runs on one bit-parallel kernel.  A *mask* is an int
with one bit per assignment column (bit idx of a full table is the value at
assignment idx); `full` sets every column and `var_mask(i, n)` is variable
i's column.  Relations and functions compile once (`mask_op`, cached) to
`op(masks, full)`, applied pointwise.  OR, AND and XOR/XNOR tables fold
with one bit operation per argument.  Every other table becomes an
irredundant sum of prime cubes (Minato-Morreale ISOP, Minato 1992), which
one interpreter, `_cover`, runs: `imp` becomes ¬a ∨ b and `maj` becomes
ab ∨ ac ∨ bc.  `CnfFormula.mask` and `BFormula.mask` evaluate over any
columns: all 2^n assignments (`truth_table`), one assignment (`full = 1`),
or the n + 1 probes of `post.relevant_variables`.

A `BFormula` is one flat tuple of post-order *steps*, in the manner of a
Boolean chain (Knuth, TAOCP 4A §7.1.2): a variable's name (`str`), or a
`(function name, argument count)` pair applied to the last that many
values.  This straight-line program is the formula's one form; there are no
tree nodes.  Every reader runs it: `mask`, `var_names`, `dual` (a map over
the steps), the size counts of `formula_size` and `post.min_post`, `==`,
`hash`, `repr` and pickling.  `BFormula(functions, steps)` validates the
steps (`_validate`); `substitute` splices step tuples, which is how the
gadgets compose formulas.  Whoever writes steps already checked hands them
over through `BFormula._trusted`, which skips validation: the parser, which
checks each application as it closes, `dual`, and the `post.min_post`
witness builder.  The steps' tuples hold only strings and ints, so the
cyclic garbage collector untracks them, as it does clauses.

What depends on a constraint language alone is computed once per language
value, not once per formula: its classification
(`classify.classify_language`), its IHSB base templates
(`ihsb.language_templates`, `ihsb.dual_templates`), its bijunctive clause
table, its minimum unsatisfiable formula (`oracle.min_unsat_formula`) and,
per variable count, the oracles' table of its distinct clauses
(`oracle._clause_table`) are memoized by the language, and
`formats.load_language` gives equal
include-free texts one language object.  The dual language is kept on the
language object itself, so that the dual of the dual is that object, and so
is its hash, which every one of those memo lookups reads (a pickle leaves
the hash behind: str hashes differ between processes).  In the
same way a function's shape (`classify.function_shape`) is computed once per
function value, so a basis parsed again, or dualized for `post.min_post`'s
AND route, reads the shapes already computed, and `oracle.brute_min_bformula`
keeps one least-size search per basis value, pool size and measure, grown
only as far as a call needs, within a budget of tables.  These results are
shared by every caller: the report, the templates, the shapes and the
clause tables are read-only, and nothing writes an emitter after it is
built.
"""
from __future__ import annotations

from enum import Enum
from functools import cached_property, partial, reduce
from itertools import product
from operator import and_, attrgetter, or_, xor
from typing import Callable, Iterator, Mapping, Sequence

from .errors import FormatError, ResourceLimitError

MAX_RELATION_ARITY = 8
VAR_CAP = 24

DUAL_SUFFIX = "~"


def dual_name(name: str) -> str:
    """Toggle the dual marker so that dualizing twice restores the name."""
    if name.endswith(DUAL_SUFFIX):
        return name[: -len(DUAL_SUFFIX)]
    return name + DUAL_SUFFIX


def all_assignments(n: int) -> Iterator[tuple[int, ...]]:
    """All 0/1 tuples of length n in ascending index order."""
    return product((0, 1), repeat=n)


class Record:
    """Immutable value with `==`, `hash` and `repr` over the fields its class
    annotates, in order (see the module docstring).  `_compared`, when a
    class sets it, names the fields that `==` and `hash` read instead.  The
    default `__init__` takes the fields positionally, in order."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls.__dict__.get("__annotations__")
        if fields:  # a subclass that annotates nothing keeps its base's fields
            cls._fields = tuple(fields)
            cls._key = attrgetter(*cls.__dict__.get("_compared", cls._fields))

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    @classmethod
    def _trusted(cls, *values):
        """A record from fields already checked, given positionally in
        order, without the checks of its class's own `__init__`."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values, strict=True))
        return record

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> Exception:
    # imported only here: loading `dataclasses` also loads `inspect`
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class FrozenDict(dict):
    """A read-only dict, for the mappings a `Record` holds: it hashes as
    the set of its items, and a pickle carries it as a plain dict."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return FrozenDict, (dict(self),)

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


class Relation(Record):
    """A named, nonempty set of fixed-arity Boolean tuples."""

    name: str
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __init__(self, name: str, arity: int, tuples: frozenset[tuple[int, ...]]):
        if not 1 <= arity <= MAX_RELATION_ARITY:
            raise FormatError(f"relation {name}: arity {arity} outside 1..{MAX_RELATION_ARITY}")
        if not tuples:
            raise FormatError(f"relation {name}: empty relations are not allowed")
        for t in tuples:
            if len(t) != arity or any(b not in (0, 1) for b in t):
                raise FormatError(f"relation {name}: bad tuple {t}")
        self.__dict__.update(name=name, arity=arity, tuples=tuples)

    @cached_property
    def codes(self) -> frozenset[int]:
        """Tuples as integers, first argument = most significant bit."""
        return frozenset(tuple_to_code(t) for t in self.tuples)

    @cached_property
    def mask_op(self) -> MaskOp:
        """The relation as a function, applied pointwise to argument masks."""
        return _compile(sum(1 << code for code in self.codes), self.arity)

    def dual(self) -> "Relation":
        flipped = frozenset(tuple(1 - b for b in t) for t in self.tuples)
        return Relation(dual_name(self.name), self.arity, flipped)


def tuple_to_code(t: Sequence[int]) -> int:
    code = 0
    for b in t:
        code = (code << 1) | b
    return code


class ConstraintLanguage(Record):
    """Finite ordered list of relations with unique names."""

    relations: tuple[Relation, ...]

    def __init__(self, relations: tuple[Relation, ...]):
        if not relations:
            raise FormatError("a constraint language must contain at least one relation")
        names = [r.name for r in relations]
        if len(set(names)) != len(names):
            raise FormatError("duplicate relation names in constraint language")
        self.__dict__["relations"] = relations

    @cached_property
    def by_name(self) -> dict[str, Relation]:
        return {r.name: r for r in self.relations}

    def get(self, name: str) -> Relation:
        try:
            return self.by_name[name]
        except KeyError:
            raise FormatError(f"unknown relation {name!r}") from None

    def __hash__(self) -> int:
        """The hash of the relations, computed once per language object:
        every memo keyed by the language looks it up."""
        h = self.__dict__.get("_hash")
        if h is None:
            # frozen instances: store as `cached_property` does, past __setattr__
            h = self.__dict__["_hash"] = hash(self.relations)
        return h

    def __getstate__(self) -> dict:
        # str hashes differ between processes, so a pickle carries no hash
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def dual(self) -> "ConstraintLanguage":
        """The language of the dual relations, built once per language
        object; its dual is this very object."""
        dual = self.__dict__.get("_dual")
        if dual is None:
            dual = ConstraintLanguage(tuple(r.dual() for r in self.relations))
            dual.__dict__["_dual"] = self
            self.__dict__["_dual"] = dual
        return dual


# a named relation applied to variable ids (repeats allowed); a plain tuple,
# for the reason in the module docstring
Clause = tuple[str, tuple[int, ...]]


class CnfFormula(Record):
    """Conjunction of clauses over a constraint language.

    Variable ids are dense 0..n-1; var_names[i] is the display name of
    variable i and defines the canonical order.  `==` and `hash` leave out
    the path the language was loaded from.  `_trusted` takes all four fields
    without checks, from the parser, which checks them itself, or as
    clauses derived from a checked formula over relations of the language
    they name, at their arity.
    """

    language: ConstraintLanguage
    var_names: tuple[str, ...]
    clauses: tuple[Clause, ...]
    language_path: str | None
    _compared = ("language", "var_names", "clauses")

    def __init__(
        self,
        language: ConstraintLanguage,
        var_names: tuple[str, ...],
        clauses: tuple[Clause, ...],
        language_path: str | None = None,
    ):
        if len(set(var_names)) != len(var_names):
            raise FormatError("duplicate variable names")
        n = len(var_names)
        for c in clauses:
            if not (
                isinstance(c, tuple)
                and len(c) == 2
                and isinstance(c[0], str)
                and isinstance(c[1], tuple)
                and all(isinstance(v, int) for v in c[1])
            ):
                raise FormatError(f"malformed clause {c!r}: expected a (relation, vars) pair")
            name, vs = c
            rel = language.get(name)
            if len(vs) != rel.arity:
                raise FormatError(
                    f"clause {name}: got {len(vs)} arguments, arity is {rel.arity}"
                )
            if any(not 0 <= v < n for v in vs):
                raise FormatError(f"clause {name}: variable id out of range")
        self.__dict__.update(
            language=language, var_names=var_names, clauses=clauses, language_path=language_path
        )

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

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


class MinimizeStats(Record):
    input_clauses: int
    output_clauses: int
    passes: int
    rank: int | None
    reductions: int | None

    def __init__(self, input_clauses, output_clauses, passes=0, rank=None, reductions=None):
        self.__dict__.update(
            input_clauses=input_clauses,
            output_clauses=output_clauses,
            passes=passes,
            rank=rank,
            reductions=reductions,
        )

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


# op(masks, full) -> mask: a function applied pointwise to argument masks
MaskOp = Callable[[Sequence[int], int], int]


def _compile(table: int, arity: int) -> MaskOp:
    """Mask operator of a truth table given as one int whose bit c is the
    value at the argument code c: a fold for OR, AND, XOR and XNOR (one
    operation per argument), else an irredundant cover of the table."""
    size = 1 << arity
    full = (1 << size) - 1
    parity = reduce(xor, (var_mask(i, arity) for i in range(arity)), 0)
    if table == full ^ 1:
        return _or
    if table == 1 << (size - 1):
        return _and
    if table == parity:
        return _xor
    if table == full ^ parity:
        return _xnor
    return partial(_cover, tuple(_isop(table, table, arity, 0)[0]) if table else ())


def _or(masks: Sequence[int], full: int) -> int:
    return reduce(or_, masks, 0)


def _and(masks: Sequence[int], full: int) -> int:
    return reduce(and_, masks, full)


def _xor(masks: Sequence[int], full: int) -> int:
    return reduce(xor, masks, 0)


def _xnor(masks: Sequence[int], full: int) -> int:
    return full ^ reduce(xor, masks, 0)


# a product term: the argument ids it reads positive, then those it negates
Cube = tuple[tuple[int, ...], tuple[int, ...]]


def _isop(lower: int, upper: int, n: int, var: int) -> tuple[list[Cube], int]:
    """Minato-Morreale ISOP (Minato 1992): prime cubes over arguments var..
    that cover every 1 of `lower` (nonzero) and no 0 of `upper`, none of
    them redundant, with the table of their sum.  Both bounds are tables
    over the last n arguments; argument var is the top bit of their code,
    so its cofactors are the low and the high halves."""
    ones = (1 << (1 << n)) - 1
    if upper == ones:
        return [((), ())], ones
    half = 1 << (n - 1)
    low = (1 << half) - 1
    lower0, lower1, upper0, upper1 = lower & low, lower >> half, upper & low, upper >> half
    # the cubes that need the literal not-var, then var, then neither
    cubes, cover0, cover1, cover = [], 0, 0, 0
    if need := lower0 & ~upper1:
        sub, cover0 = _isop(need, upper0, n - 1, var + 1)
        cubes += [(pos, (var,) + neg) for pos, neg in sub]
    if need := lower1 & ~upper0:
        sub, cover1 = _isop(need, upper1, n - 1, var + 1)
        cubes += [((var,) + pos, neg) for pos, neg in sub]
    if need := (lower0 & ~cover0) | (lower1 & ~cover1):
        sub, cover = _isop(need, upper0 & upper1, n - 1, var + 1)
        cubes += sub
    return cubes, (cover1 | cover) << half | cover0 | cover


def _cover(cubes: tuple[Cube, ...], masks: Sequence[int], full: int) -> int:
    """OR over the cubes of the AND of their literals' masks."""
    out = 0
    for pos, neg in cubes:
        term = full
        for i in pos:
            term &= masks[i]
        for i in neg:
            term &= ~masks[i]
        out |= term
    return out


class BoolFunction(Record):
    """Truth-table-defined connector of fixed arity (arity 0 allowed)."""

    name: str
    arity: int
    table: tuple[int, ...]

    def __init__(self, name: str, arity: int, table: tuple[int, ...]):
        if arity < 0:
            raise FormatError(f"function {name}: negative arity")
        size = len(table)
        # compares without building 2^arity, which a huge arity cannot afford
        if arity != size.bit_length() - 1 or size & (size - 1):
            raise FormatError(f"function {name}: table length {size} != 2^{arity}")
        if any(b not in (0, 1) for b in table):
            raise FormatError(f"function {name}: table entries must be bits")
        self.__dict__.update(name=name, arity=arity, table=table)

    @cached_property
    def mask_op(self) -> MaskOp:
        """The function applied pointwise to argument masks."""
        return _compile(sum(bit << code for code, bit in enumerate(self.table)), self.arity)

    def dual(self) -> "BoolFunction":
        size = 1 << self.arity
        flipped = tuple(1 - self.table[size - 1 - i] for i in range(size))
        return BoolFunction(dual_name(self.name), self.arity, flipped)


# a post-order step: a variable's name, or (function name, argument count)
# applied to the last that many values
Step = str | tuple[str, int]


class BFormula(Record):
    """Formula over a finite basis of functions, given by its post-order
    steps, such as `("x", "y", ("or2", 2))` for `(or2 x y)`; `==`, `hash`,
    `repr` and pickling read the basis and the steps.  `_trusted` takes a
    basis with unique names and a tuple of well-formed steps whose every
    application names a basis function at its arity."""

    functions: tuple[BoolFunction, ...]
    steps: tuple[Step, ...]

    def __init__(self, functions: tuple[BoolFunction, ...], steps: Sequence[Step]):
        if isinstance(steps, str):
            raise FormatError(f"steps {steps!r}: expected a sequence of steps, not a string")
        steps = tuple(steps)
        _validate(functions, steps)
        self.__dict__.update(functions=functions, steps=steps)

    def __reduce__(self):
        return BFormula._trusted, (self.functions, self.steps)

    @cached_property
    def by_name(self) -> dict[str, BoolFunction]:
        return {f.name: f for f in self.functions}

    @cached_property
    def var_names(self) -> tuple[str, ...]:
        """Variables of the formula in canonical (sorted) order."""
        return tuple(sorted({step for step in self.steps if isinstance(step, str)}))

    def mask(self, columns: Mapping[str, int], full: int) -> int:
        """The formula's mask, given each variable's mask."""
        funcs = self.by_name
        out: list[int] = []
        for step in self.steps:
            if isinstance(step, str):
                if step not in columns:
                    raise FormatError(f"assignment does not cover variable {step!r}")
                out.append(columns[step])
            else:
                func, arity = step
                split = len(out) - arity
                value = funcs[func].mask_op(out[split:], full)
                del out[split:]
                out.append(value)
        return out[0]

    def dual(self) -> "BFormula":
        """The formula over the dual basis, with the same tree shape; names
        stay unique and arities unchanged, since `dual_name` is a bijection."""
        return BFormula._trusted(
            tuple(f.dual() for f in self.functions),
            tuple(
                step if isinstance(step, str) else (dual_name(step[0]), step[1])
                for step in self.steps
            ),
        )


def _validate(functions: tuple[BoolFunction, ...], steps: Sequence[Step]) -> None:
    """Raise the first fault: duplicate basis names; then, in post-order, a
    step that is neither a name nor a `(name, count)` tuple, a negative
    count or a count above the values computed so far; then steps that
    leave no value or several; then the first application, in pre-order
    with arguments right to left (the steps reversed), that names no basis
    function or has the wrong arity."""
    names = [f.name for f in functions]
    if len(set(names)) != len(names):
        raise FormatError("duplicate function names in basis")
    depth = 0  # values computed and not yet consumed
    for step in steps:
        if isinstance(step, str):
            depth += 1
            continue
        if not (
            isinstance(step, tuple)
            and len(step) == 2
            and isinstance(step[0], str)
            and isinstance(step[1], int)
        ):
            raise FormatError(
                f"malformed step {step!r}: expected a variable name or a (function, count) tuple"
            )
        func, n_args = step
        if n_args < 0:
            raise FormatError(f"function {func}: negative argument count {n_args}")
        if n_args > depth:
            raise FormatError(f"function {func}: {n_args} arguments, but {depth} values computed")
        depth += 1 - n_args
    if depth != 1:
        raise FormatError("empty B-formula" if not depth else f"steps leave {depth} values, not one")
    arities = {f.name: f.arity for f in functions}
    for step in reversed(steps):
        if isinstance(step, str):
            continue
        func, n_args = step
        arity = arities.get(func)
        if arity is None:
            raise FormatError(f"unknown function {func!r}")
        if n_args != arity:
            raise FormatError(f"function {func}: got {n_args} arguments, arity is {arity}")


def substitute(steps: Sequence[Step], mapping: Mapping[str, Sequence[Step]]) -> tuple[Step, ...]:
    """Replace each variable in mapping by its steps (missing names stay).
    In post-order that is a flat splice: an argument's steps are contiguous."""
    out: list[Step] = []
    for step in steps:
        if isinstance(step, str) and step in mapping:
            out.extend(mapping[step])
        else:
            out.append(step)
    return tuple(out)


class SizeMeasure(Enum):
    LITERALS = "literals"
    GATES = "gates"
    CLAUSES = "clauses"


Formula = CnfFormula | BFormula


class MeeInstance(Record):
    """A formula together with a size bound; positive iff an equivalent
    formula within the bound exists."""

    formula: Formula
    bound: int
    measure: SizeMeasure

    def __init__(self, formula: Formula, bound: int, measure: SizeMeasure):
        if bound < 0:
            raise FormatError("size bound must be nonnegative")
        self.__dict__.update(formula=formula, bound=bound, measure=measure)


def formula_size(formula: Formula, measure: SizeMeasure) -> int:
    if isinstance(formula, CnfFormula):
        if measure is not SizeMeasure.CLAUSES:
            raise FormatError("CNF formulas are sized by clause count")
        return len(formula.clauses)
    if measure is SizeMeasure.CLAUSES:
        raise FormatError("clause count is only defined for CNF formulas")
    steps = formula.steps
    leaves = sum(isinstance(step, str) for step in steps)
    return leaves if measure is SizeMeasure.LITERALS else len(steps) - leaves


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
