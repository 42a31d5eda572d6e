"""One-pass minimization for formulas over irreducible IHSB+ languages,
with the IHSB- case handled by duality.

An IHSB- formula is not dualized: its clauses are read through the
templates of the dual relations (`dual_templates`), which carry the
formula's own relation names, so the same pass runs on it and the result is
emitted in those names.  An unsatisfiable formula of either class is
answered with its language's minimum unsatisfiable formula.  Templates are
computed once per language (see `model`).

A formula is rewritten in the base vocabulary {x, not-x, ->, =, OR^m}.  An
equality is the implication pair u -> v, v -> u, so the equality classes are
the strongly connected components of the implications (Aspvall-Plass-Tarjan
1979).  The minimum is the fixpoint of the rewrite rules that add entailed
literals, shrink OR-clauses, drop entailed OR-clauses and drop tautological
implications.  One pass over the implications' condensation computes it:

1. A variable is falsified iff it leads to a negative literal, and the
   formula is unsatisfiable iff a positive literal or a whole OR-clause is.
2. A variable is forced iff a positive literal leads to it, or every
   unfalsified member of some OR-clause does: unit propagation
   (Dowling-Gallier 1984) in closed form.  A forced variable leads only to
   forced ones.  Besides falsified members, the later steps drop only
   members that lead to a kept member and clauses entailed by a kept
   clause, so they never shrink the set that a clause's unfalsified
   members all lead to: nothing more becomes forced.
3. OR-clauses with a forced member go.  The others lose their falsified
   members and every member that leads to a member of another class, and
   each member left is named by its class: the least member, `rep`.  Then
   only the clauses that no other clause entails stay.  Named so, no two
   clauses entail each other, so no tie is left to break: equivalent
   inputs keep the same clauses.
4. Implications into a forced variable or out of a falsified one go.  The
   rest join live (unforced, unfalsified) variables, and every path between
   live variables stays live, so among them the components (`rep`) and the
   reduced edges that `graph.condense` read off the whole graph as its
   components closed are those of the implications left.  Each live class
   is kept as its sorted members, whatever the language: the minimum is a
   normal form in the base vocabulary, and only `restrict_vocabulary`
   writes a class, as an equality chain or as one implication cycle.

So no rule finds anything to do on the result: the literal sets are closed
under implication, every common successor of an OR-clause's members is
forced and no longer reachable from them, and the clauses kept neither
shrink nor entail each other: each member of a clause is the only one of
its class there and leads to no other member.
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache

from . import graph
from .classify import relation_shape
from .errors import ClassificationError, VocabularyError
from .model import Clause, CnfFormula, ConstraintLanguage, FrozenDict, MinimizeStats, Record
from .oracle import unsat_minimum


class BaseTemplates(Record):
    """Which base shapes the language offers, and through which relation;
    `shapes` holds the shape of every relation name.  Templates are shared
    by every formula over the language, so they are read-only."""

    pos: str | None
    neg: str | None
    imp: tuple[str, bool] | None
    eq: str | None
    or_arities: Mapping[int, str]
    shapes: Mapping[str, tuple]


def _match_templates(lang: ConstraintLanguage, read: ConstraintLanguage) -> BaseTemplates:
    """Match each relation of `read` against the base shapes, under the name
    of the relation at its place in `lang` (the language itself, or the
    dual of `read`).  The first relation of a shape serves it."""
    pos = neg = imp = eq = None
    or_arities: dict[int, str] = {}
    shapes: dict[str, tuple] = {}
    for name, rel in zip((r.name for r in lang.relations), read.relations):
        kind = relation_shape(rel)
        if kind is None or kind[0] in ("nand", "xor"):
            raise ClassificationError(
                f"relation {rel.name} is not an IHSB+ base shape; "
                "language misclassified as irreducible IHSB+"
            )
        shapes[name] = kind
        if kind[0] == "pos" and pos is None:
            pos = name
        elif kind[0] == "neg" and neg is None:
            neg = name
        elif kind[0] == "imp" and imp is None:
            imp = (name, kind[1])
        elif kind[0] == "eq" and eq is None:
            eq = name
        elif kind[0] == "or" and kind[1] not in or_arities:
            or_arities[kind[1]] = name
    return BaseTemplates(pos, neg, imp, eq, FrozenDict(or_arities), FrozenDict(shapes))


@lru_cache(maxsize=None)
def language_templates(lang: ConstraintLanguage) -> BaseTemplates:
    """Match every relation of the language against the base shapes;
    memoized by language value.

    A mismatch means the language is not irreducible IHSB+ and was
    misclassified by the caller.
    """
    return _match_templates(lang, lang)


@lru_cache(maxsize=None)
def dual_templates(lang: ConstraintLanguage) -> BaseTemplates:
    """The templates of an IHSB- language: the shapes of its dual relations,
    which are IHSB+, under its own relation names; memoized by language
    value.  Read through them, its formulas minimize as IHSB+ ones and are
    emitted in its own vocabulary."""
    return _match_templates(lang, lang.dual())


class ImplGraph:
    """A formula in the base vocabulary: literals, implications and
    OR-clauses over the variables.  An equality is held as its two
    implications."""

    def __init__(self, n: int):
        self.n = n
        self.pos: set[int] = set()
        self.neg: set[int] = set()
        self.impl: set[tuple[int, int]] = set()
        self.ors: set[frozenset[int]] = set()


def graph_from_cnf(
    formula: CnfFormula, templates: BaseTemplates | None = None
) -> tuple[ImplGraph, BaseTemplates]:
    """normalize_to_base: rewrite every clause as a base clause, reading its
    relation through `templates` (by default the language's own)."""
    if templates is None:
        templates = language_templates(formula.language)
    g = ImplGraph(formula.n_vars)
    shapes = templates.shapes
    for name, vs in formula.clauses:
        kind = shapes[name]
        if kind[0] == "pos":
            g.pos.add(vs[0])
        elif kind[0] == "neg":
            g.neg.add(vs[0])
        elif kind[0] == "imp":
            a, b = vs
            if a != b:
                g.impl.add((b, a) if kind[1] else (a, b))
        elif kind[0] == "eq":
            a, b = vs
            if a != b:
                g.impl.update(((a, b), (b, a)))
        else:
            members = frozenset(vs)
            if len(members) == 1:
                g.pos.add(vs[0])
            else:
                g.ors.add(members)
    return g, templates


def unsat_check_ihsb(g: ImplGraph) -> int | None:
    """The falsified variables, those leading to a negative literal, as a
    bitset; None when the formula is unsatisfiable: a positive literal, or
    every member of some OR-clause, is falsified.  Without negative literals
    every variable true satisfies it, and nothing is walked."""
    if not g.neg:
        return 0
    pred: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.impl:
        pred[v].append(u)
    falsified = graph.descendants(pred, g.neg)
    if not g.pos.isdisjoint(falsified) or any(c <= falsified for c in g.ors):
        return None
    return graph.bits(falsified)


def _unsatisfiable(what: str) -> RuntimeError:
    return RuntimeError(f"{what}: the input was unsatisfiable; this is a bug")


def _shrink(c: frozenset[int], live: int, reach: list[int], rep: list[int]) -> set[int]:
    """The classes (`rep`) of the members of an OR-clause that are live (not
    falsified; `live` is their bitset) and lead to no live member outside
    their own class."""
    rest = set()
    for x in c:
        others = reach[x] & live & ~(1 << x)
        if live >> x & 1 and (
            not others or all(rep[y] == rep[x] for y in graph.members(others))
        ):
            rest.add(rep[x])
    return rest


def _strongest(ors: list[tuple[int, ...]], hit: list[int]) -> list[tuple[int, ...]]:
    """The clauses of `ors` entailed by no other one, in order.  Clause j
    entails clause k when each member x of j leads to some member of k, that
    is, when hit[x] has bit k."""
    dropped = 0
    # No two of the clauses entail each other (see `min_ihsb`), so entailment
    # orders them strictly, and a clause not dropped when it is reached
    # drops every clause it entails.
    for j, c in enumerate(ors):
        if not dropped >> j & 1:
            entailed = -1
            for x in c:
                entailed &= hit[x]
            dropped |= entailed & ~(1 << j)
    return [c for j, c in enumerate(ors) if not dropped >> j & 1]


class PartitionedFormula(Record):
    """Canonical minimized formula in the base vocabulary, the same for
    every language: each class of two or more live variables, sorted."""

    n: int
    pos_literals: tuple[int, ...]
    neg_literals: tuple[int, ...]
    impl_clauses: tuple[tuple[int, int], ...]
    classes: tuple[tuple[int, ...], ...]
    or_clauses: tuple[tuple[int, ...], ...]


def min_ihsb(g: ImplGraph, falsy: int) -> tuple[PartitionedFormula, int]:
    """Minimize in one pass (see the module docstring) and canonicalize;
    `g` is only read.  The pass count, always 1, is returned with the
    result.

    The input must be satisfiable, and `falsy` is its falsified set from
    `unsat_check_ihsb`; callers handle unsatisfiable formulas by
    substituting the precomputed minimum unsatisfiable formula.
    """
    succ: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.impl:
        succ[u].append(v)
    reach, rep, reduced = graph.condense(succ)
    forced = 0
    for p in g.pos:
        forced |= reach[p]
    for c in g.ors:
        common = -1
        for x in c:
            if not falsy >> x & 1:
                common &= reach[x]
        if common == -1:
            raise _unsatisfiable("OR-clause emptied by falsified members")
        forced |= common
    if forced & falsy:
        raise _unsatisfiable("a forced variable is falsified")

    # Each OR-clause with no forced member shrinks to the classes of its
    # live members that lead to no live member of another class.  Two such
    # clauses never entail each other: a member x of one would lead to a
    # member of the other and back to a member of its own, which shrinking
    # puts in x's class, so each member of either is a member of the other.
    # Only a member that is falsified or leads elsewhere can drop, and only
    # a member with a successor can share its class.
    movable = falsy | graph.bits(u for u, out in enumerate(succ) if out)
    shrunk = set()
    for c in g.ors:
        mask = graph.bits(c)
        if not mask & forced:
            if mask & movable:
                c = _shrink(c, mask & ~falsy, reach, rep)
            shrunk.add(tuple(sorted(c)))
    ors = sorted(shrunk)
    # hit[x] for a rep x: the clauses containing a class that x leads to,
    # folded over the reduced edges in the order `condense` closed them
    hit = [0] * g.n
    for j, c in enumerate(ors):
        for y in c:
            hit[y] |= 1 << j
    for c, d in reduced:
        hit[c] |= hit[d]

    # Among live variables the components and reduced edges of the whole
    # graph are those of the implications left (step 4): the reduced edges
    # between live classes, and each live class of two or more members.
    impl = [(c, d) for c, d in reduced if not (falsy >> c | forced >> d) & 1]
    classes: dict[int, list[int]] = {}
    for u, c in enumerate(rep):
        if c != u and not (forced | falsy) >> u & 1:
            classes.setdefault(c, [c]).append(u)
    return PartitionedFormula(
        g.n,
        tuple(graph.members(forced)),
        tuple(graph.members(falsy)),
        tuple(sorted(impl)),
        tuple(sorted(map(tuple, classes.values()))),
        tuple(_strongest(ors, hit)),
    ), 1


def restrict_vocabulary(
    base: PartitionedFormula,
    templates: BaseTemplates,
    lang: ConstraintLanguage,
    var_names: tuple[str, ...],
    language_path: str | None = None,
) -> CnfFormula:
    """Emit one language clause per base clause.  A class is written as an
    equality chain when the language has an equality relation, and else as
    one implication cycle, merged into the sorted implications."""
    or_arities = sorted(templates.or_arities)
    clauses: list[Clause] = []
    for v in base.pos_literals:
        if templates.pos is not None:
            clauses.append((templates.pos, (v,)))
        elif or_arities:
            m = or_arities[0]
            clauses.append((templates.or_arities[m], (v,) * m))
        else:
            raise VocabularyError("language cannot express a positive literal")
    for v in base.neg_literals:
        if templates.neg is None:
            raise VocabularyError("language cannot express a negative literal")
        clauses.append((templates.neg, (v,)))
    impl = base.impl_clauses
    chains = [e for c in base.classes for e in zip(c, c[1:])]
    if templates.eq is None:
        impl = sorted([*impl, *chains, *((c[-1], c[0]) for c in base.classes)])
        chains = []
    for u, v in impl:
        if templates.imp is None:
            raise VocabularyError("language cannot express an implication")
        name, flipped = templates.imp
        clauses.append((name, (v, u) if flipped else (u, v)))
    for u, v in sorted(chains):
        clauses.append((templates.eq, (u, v)))
    for c in base.or_clauses:
        fitting = [m for m in or_arities if m >= len(c)]
        if not fitting:
            raise VocabularyError(f"no OR relation of arity >= {len(c)} available")
        m = fitting[0]
        padded = c + (c[-1],) * (m - len(c))
        clauses.append((templates.or_arities[m], padded))

    return CnfFormula._trusted(lang, var_names, tuple(clauses), language_path)


def min_ihsb_cnf(
    formula: CnfFormula, templates: BaseTemplates | None = None
) -> tuple[CnfFormula, MinimizeStats]:
    """Full pipeline for irreducible IHSB+ languages: rewrite to the base
    vocabulary, check satisfiability, minimize, re-emit in the language's
    own vocabulary.  `templates` reads the formula's relations: by default
    the language's own, and for IHSB- its `dual_templates`.  An
    unsatisfiable formula is answered with `unsat_minimum`."""
    g, templates = graph_from_cnf(formula, templates)
    falsy = unsat_check_ihsb(g)
    if falsy is None:
        return unsat_minimum(formula)
    base, passes = min_ihsb(g, falsy)
    out = restrict_vocabulary(
        base, templates, formula.language, formula.var_names, formula.language_path
    )
    return out, MinimizeStats(len(formula.clauses), len(out.clauses), passes)


def min_ihsb_minus_cnf(formula: CnfFormula) -> tuple[CnfFormula, MinimizeStats]:
    """IHSB- languages minimize through duality, with no dual formula built:
    the input's clauses are read through the templates of the dual
    relations, and the result is emitted in the input's relation names."""
    return min_ihsb_cnf(formula, dual_templates(formula.language))
