"""One-pass minimization for formulas over irreducible IHSB+ languages,
with the IHSB- case handled by duality.

An IHSB- formula is not dualized: its clauses are read through the
templates of the dual relations (`dual_templates`), which carry the
formula's own relation names, so the same pass runs on it and the result is
emitted in those names.  Only an unsatisfiable one takes the dual route, to
answer with the dual language's minimum unsatisfiable formula, renamed back.
Templates are computed once per language (see `model`).

A formula is rewritten in the base vocabulary {x, not-x, ->, =, OR^m}.  An
equality is the implication pair u -> v, v -> u, so the equality classes are
the strongly connected components of the implications (Aspvall-Plass-Tarjan
1979).  The minimum is the fixpoint of the rewrite rules that add entailed
literals, shrink OR-clauses, drop entailed OR-clauses and drop tautological
implications.  One pass over the implications' reach sets computes it:

1. A variable is falsified iff it leads to a negative literal.
2. A variable is forced iff a positive literal leads to it, or every
   unfalsified member of some OR-clause does: unit propagation
   (Dowling-Gallier 1984) in closed form.  A forced variable leads only to
   forced ones.  Besides falsified members, the later steps drop only
   members that lead to a kept member and clauses entailed by a kept
   clause, so they never shrink the set that a clause's unfalsified
   members all lead to: nothing more becomes forced.
3. OR-clauses with a forced member go.  The others lose their falsified
   members and every member that leads to another one (of members leading
   to each other the least stays), and then only the clauses that no other
   clause entails stay.
4. Implications into a forced variable or out of a falsified one go.  The
   rest join live (unforced, unfalsified) variables, and every path between
   live variables stays live, so the reach sets among them do not change.

So no rule finds anything to do on the result: the literal sets are closed
under implication, every common successor of an OR-clause's members is
forced and no longer reachable from them, and the clauses kept neither
shrink nor entail each other.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from . import graph
from .classify import relation_shape
from .errors import ClassificationError, VocabularyError
from .model import Clause, CnfFormula, ConstraintLanguage, MinimizeStats
from .oracle import unsat_minimum


@dataclass(frozen=True)
class BaseTemplates:
    """Which base shapes the language offers, and through which relation;
    `shapes` holds the shape of every relation name.  `dual` marks the
    templates of an IHSB- language, whose shapes are those of the dual
    relations.  Templates are shared by every formula over the language, so
    they are read-only."""

    pos: str | None
    neg: str | None
    imp: tuple[str, bool] | None
    eq: str | None
    or_arities: Mapping[int, str]
    shapes: Mapping[str, tuple]
    dual: bool


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
    return BaseTemplates(
        pos, neg, imp, eq, MappingProxyType(or_arities), MappingProxyType(shapes), read is not lang
    )


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
    """Working state: literals, implications and OR-clauses over the
    variables.  An equality is held as its two implications."""

    def __init__(self, n: int):
        self.n = n
        self.pos: set[int] = set()
        self.neg: set[int] = set()
        self.impl: set[tuple[int, int]] = set()
        self.ors: set[frozenset[int]] = set()

    def successors(self) -> list[list[int]]:
        succ: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.impl:
            succ[u].append(v)
        return succ

    def reach(self) -> list[int]:
        """Reachability bitsets: bit v of reach[u] is set iff u leads to v
        through implications (u leads to u)."""
        return graph.reach(self.successors())


def leadsto(g: ImplGraph, u: int, v: int) -> bool:
    """u leads to v through implications and equalities (u leads to u)."""
    succ = g.successors()
    seen = {u}
    stack = [u]
    while stack and v not in seen:
        for y in succ[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return v in seen


def graph_from_cnf(
    formula: CnfFormula, templates: BaseTemplates | None = None
) -> tuple[ImplGraph, BaseTemplates]:
    """normalize_to_base: rewrite every clause as a base clause, reading its
    relation through `templates` (by default the language's own)."""
    if templates is None:
        templates = language_templates(formula.language)
    g = ImplGraph(formula.n_vars)
    for name, vs in formula.clauses:
        kind = templates.shapes[name]
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


def _falsy(g: ImplGraph, reach: list[int]) -> int:
    """Bitset of the nodes that lead to a negative literal."""
    neg = graph.bits(g.neg)
    return graph.bits(u for u in range(g.n) if reach[u] & neg)


def unsat_check_ihsb(g: ImplGraph, reach: list[int] | None = None) -> bool:
    """True iff some OR-clause (literals count as 1-ary OR-clauses) has every
    disjunct leading to a variable occurring as a negative literal.  `reach`
    is `g.reach()` if the caller already has it."""
    falsy = _falsy(g, g.reach() if reach is None else reach)
    return bool(graph.bits(g.pos) & falsy) or any(not graph.bits(c) & ~falsy for c in g.ors)


def _unsatisfiable(what: str) -> RuntimeError:
    return RuntimeError(f"{what}: the input was unsatisfiable; this is a bug")


def _shrink(c: list[int], falsy: int, reach: list[int]) -> list[int]:
    """The members of an OR-clause that are not falsified and lead to no
    other such member, in the clause's order; of members leading to each
    other the least stays."""
    live = graph.bits(c) & ~falsy
    rest = []
    for x in c:
        others = reach[x] & live & ~(1 << x)
        if live >> x & 1 and (
            not others or all(x < y and reach[y] >> x & 1 for y in graph.members(others))
        ):
            rest.append(x)
    return rest


def _strongest(order: Sequence[int], members, hit: list[int]) -> list[int]:
    """The clauses of `order` entailed by no other one, in order.  Clause j
    entails clause k when each x in members[j] leads to some member of k,
    that is, when hit[x] has bit k; of clauses entailing each other the last
    in `order` stays."""
    dropped = 0
    # Entailment is a preorder, so scanning from the end, a clause not yet
    # dropped is the last of its class and entailed by nothing stronger.
    for j in reversed(order):
        if not dropped >> j & 1:
            entailed = -1
            for x in members[j]:
                entailed &= hit[x]
            dropped |= entailed & ~(1 << j)
    return [j for j in order if not dropped >> j & 1]


@dataclass(frozen=True)
class PartitionedFormula:
    """Canonical minimized formula in the base vocabulary."""

    n: int
    pos_literals: tuple[int, ...]
    neg_literals: tuple[int, ...]
    impl_clauses: tuple[tuple[int, int], ...]
    eq_clauses: tuple[tuple[int, int], ...]
    or_clauses: tuple[tuple[int, ...], ...]

    def clause_count(self) -> int:
        return (
            len(self.pos_literals)
            + len(self.neg_literals)
            + len(self.impl_clauses)
            + len(self.eq_clauses)
            + len(self.or_clauses)
        )


def min_ihsb(
    g: ImplGraph, eq_available: bool = True, reach: list[int] | None = None
) -> tuple[PartitionedFormula, int]:
    """Minimize in one pass (see the module docstring) and canonicalize;
    `g` is left at the rewrite rules' fixpoint.  The pass count, always 1,
    is returned with the result.

    The input must be satisfiable; callers handle unsatisfiable formulas by
    substituting the precomputed minimum unsatisfiable formula.  `reach` is
    `g.reach()` if the caller already has it.
    """
    if reach is None:
        reach = g.reach()
    falsy = _falsy(g, reach)
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

    # Of OR-clauses entailing each other the last in sorted order stays,
    # compared first as given and then as shrunk, which keeps the clause
    # that the rewrite rules keep: they drop entailed clauses before they
    # shrink.  An unfalsified variable leads to a member of a clause iff it
    # leads to a member of its shrunk form, so one closure serves both scans.
    ors = sorted(sorted(c) for c in g.ors if not graph.bits(c) & forced)
    occ = [0] * g.n  # occ[y]: indices of the clauses containing y
    for j, c in enumerate(ors):
        for y in c:
            occ[y] |= 1 << j
    # hit[x]: clauses containing some y that x leads to
    hit = graph.closure(g.successors(), occ) if len(ors) > 1 else occ
    shrunk = {j: _shrink(ors[j], falsy, reach) for j in _strongest(range(len(ors)), ors, hit)}
    kept = _strongest(sorted(shrunk, key=shrunk.__getitem__), shrunk, hit)
    g.ors = {frozenset(shrunk[j]) for j in kept}
    g.pos = set(graph.members(forced))
    g.neg = set(graph.members(falsy))
    if forced | falsy:
        g.impl = {(u, w) for u, w in g.impl if not (forced >> w | falsy >> u) & 1}

    # Every implication left joins two live (unforced, unfalsified)
    # variables, and every path between live variables stays live, so the
    # reach sets above still group and reduce them, and the components are
    # the equality classes of the live variables.  Canonical form: the
    # unique transitive reduction of the condensation, plus each class as an
    # equality chain, or as one implication cycle when the language cannot
    # express equality; OR members name their class.
    comp = graph.components({u for e in g.impl for u in e}, reach)
    impl = graph.reduction(g.impl, comp, reach)
    classes: dict[int, list[int]] = {}
    for u, c in comp.items():
        classes.setdefault(c, []).append(u)
    eq_out: list[tuple[int, int]] = []
    for members in classes.values():
        if len(members) < 2:
            continue
        chain = list(zip(members, members[1:]))
        if eq_available:
            eq_out.extend(chain)
        else:
            impl.update(chain)
            impl.add((members[-1], members[0]))
    ors = g.ors
    if eq_available:
        ors = {frozenset(comp.get(x, x) for x in c) for c in ors}

    result = PartitionedFormula(
        g.n,
        tuple(sorted(g.pos)),
        tuple(sorted(g.neg)),
        tuple(sorted(impl)),
        tuple(sorted(eq_out)),
        tuple(sorted(tuple(sorted(c)) for c in ors)),
    )
    return result, 1


def restrict_vocabulary(
    base: PartitionedFormula,
    templates: BaseTemplates,
    lang: ConstraintLanguage,
    var_names: tuple[str, ...],
    language_path: str | None = None,
) -> CnfFormula:
    """Emit one language clause per base clause (equalities may need an
    implication pair when the equality relation is unavailable)."""
    or_arities = sorted(templates.or_arities)
    clauses: list[Clause] = []

    def emit_pos(v: int) -> None:
        if templates.pos is not None:
            clauses.append((templates.pos, (v,)))
            return
        if or_arities:
            m = or_arities[0]
            clauses.append((templates.or_arities[m], (v,) * m))
            return
        raise VocabularyError("language cannot express a positive literal")

    def emit_imp(u: int, v: int) -> None:
        if templates.imp is None:
            raise VocabularyError("language cannot express an implication")
        name, flipped = templates.imp
        clauses.append((name, (v, u) if flipped else (u, v)))

    for v in base.pos_literals:
        emit_pos(v)
    for v in base.neg_literals:
        if templates.neg is None:
            raise VocabularyError("language cannot express a negative literal")
        clauses.append((templates.neg, (v,)))
    for u, v in base.impl_clauses:
        emit_imp(u, v)
    for u, v in base.eq_clauses:
        if templates.eq is not None:
            clauses.append((templates.eq, (u, v)))
        else:
            emit_imp(u, v)
            emit_imp(v, u)
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
    the language's own, and for IHSB- its `dual_templates`."""
    g, templates = graph_from_cnf(formula, templates)
    reach = g.reach()
    if unsat_check_ihsb(g, reach):
        if not templates.dual:
            return unsat_minimum(formula)
        # the dual language's minimum unsatisfiable formula, renamed back
        dual_out, stats = unsat_minimum(formula.dual())
        return dual_out.dual(), stats
    base, passes = min_ihsb(g, templates.eq is not None, reach)
    out = restrict_vocabulary(
        base, templates, formula.language, formula.var_names, formula.language_path
    )
    return out, MinimizeStats(len(formula.clauses), len(out.clauses), passes)


def min_ihsb_minus_cnf(formula: CnfFormula) -> tuple[CnfFormula, MinimizeStats]:
    """IHSB- languages minimize through duality, with no dual formula built:
    the input's clauses are read through the templates of the dual
    relations, and the result is emitted in the input's relation names."""
    return min_ihsb_cnf(formula, dual_templates(formula.language))
