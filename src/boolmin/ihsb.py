"""Fixpoint minimization for formulas over irreducible IHSB+ languages, with
the IHSB- case handled by duality.

The algorithm rewrites a formula in the base vocabulary {x, not-x, ->, =,
OR^m} until no rule fires, then canonicalizes the implication and equality
components.  An equality is the implication pair u -> v, v -> u, so the
equality classes are the strongly connected components of the implications
(Aspvall-Plass-Tarjan 1979).  Rules only ever remove or shrink clauses or
grow the literal sets, so the loop terminates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import graph
from .classify import relation_shape
from .errors import ClassificationError, VocabularyError
from .model import Clause, CnfFormula, ConstraintLanguage, MinimizeStats
from .oracle import unsat_minimum


@dataclass
class BaseTemplates:
    """Which base shapes the language offers, and through which relation;
    `shapes` holds the shape of every relation name."""

    pos: str | None = None
    neg: str | None = None
    imp: tuple[str, bool] | None = None
    eq: str | None = None
    or_arities: dict[int, str] = field(default_factory=dict)
    shapes: dict[str, tuple] = field(default_factory=dict)


def language_templates(lang: ConstraintLanguage) -> BaseTemplates:
    """Match every relation of the language against the base shapes.

    A mismatch means the language is not irreducible IHSB+ and was
    misclassified by the caller.
    """
    t = BaseTemplates()
    for rel in lang.relations:
        kind = relation_shape(rel)
        if kind is None or kind[0] in ("nand", "xor"):
            raise ClassificationError(
                f"relation {rel.name} is not an IHSB+ base shape; "
                "language misclassified as irreducible IHSB+"
            )
        t.shapes[rel.name] = kind
        if kind[0] == "pos" and t.pos is None:
            t.pos = rel.name
        elif kind[0] == "neg" and t.neg is None:
            t.neg = rel.name
        elif kind[0] == "imp" and t.imp is None:
            t.imp = (rel.name, kind[1])
        elif kind[0] == "eq" and t.eq is None:
            t.eq = rel.name
        elif kind[0] == "or" and kind[1] not in t.or_arities:
            t.or_arities[kind[1]] = rel.name
    return t


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

    def clause_count(self) -> int:
        return len(self.pos) + len(self.neg) + len(self.impl) + len(self.ors)


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


def graph_from_cnf(formula: CnfFormula) -> tuple[ImplGraph, BaseTemplates]:
    """normalize_to_base: rewrite every clause as a base clause."""
    templates = language_templates(formula.language)
    g = ImplGraph(formula.n_vars)
    for clause in formula.clauses:
        kind = templates.shapes[clause.relation]
        if kind[0] == "pos":
            g.pos.add(clause.vars[0])
        elif kind[0] == "neg":
            g.neg.add(clause.vars[0])
        elif kind[0] == "imp":
            a, b = clause.vars
            if a != b:
                g.impl.add((b, a) if kind[1] else (a, b))
        elif kind[0] == "eq":
            a, b = clause.vars
            if a != b:
                g.impl.update(((a, b), (b, a)))
        else:
            members = frozenset(clause.vars)
            if len(members) == 1:
                g.pos.add(clause.vars[0])
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


def _add_literals(literals: set[int], mask: int) -> bool:
    new = mask & ~graph.bits(literals)
    literals.update(graph.members(new))
    return bool(new)


# Each rule applies to every match against the reach sets of the pass and
# returns whether it changed the graph.  Every rewrite keeps the formula
# equivalent: literals it adds are entailed, and clauses it drops or shrinks
# are entailed by clauses that the same rule keeps.  Implications made
# tautological by new literals are left to the tautology rule.


def _rule_or_subsumption(g: ImplGraph, reach) -> bool:
    """Drop every OR-clause entailed by another one or by a positive literal.

    Clause j entails clause k when each x in j leads to some y in k.  Of
    clauses entailing each other the last in sorted order stays."""
    ors = sorted(g.ors, key=sorted)
    occ = [0] * g.n  # occ[y]: indices of the clauses containing y
    for j, c in enumerate(ors):
        for y in c:
            occ[y] |= 1 << j
    # hit[x]: clauses containing some y that x leads to
    hit = graph.closure(g.successors(), occ)
    dropped = 0
    for p in g.pos:
        dropped |= hit[p]
    # Entailment is a preorder, so scanning from the end, a clause not yet
    # dropped is the last of its class and entailed by nothing stronger.
    for j in range(len(ors) - 1, -1, -1):
        if not dropped >> j & 1:
            entailed = -1
            for x in ors[j]:
                entailed &= hit[x]
            dropped |= entailed & ~(1 << j)
    for j in graph.members(dropped):
        g.ors.discard(ors[j])
    return bool(dropped)


def _rule_literal_intro(g: ImplGraph, reach) -> bool:
    """A variable every member of an OR-clause leads to is entailed."""
    common = 0
    for c in g.ors:
        both = -1
        for x in c:
            both &= reach[x]
        common |= both
    return _add_literals(g.pos, common)


def _rule_positive_propagation(g: ImplGraph, reach) -> bool:
    entailed = 0
    for p in g.pos:
        entailed |= reach[p]
    return _add_literals(g.pos, entailed)


def _rule_negative_propagation(g: ImplGraph, reach) -> bool:
    return _add_literals(g.neg, _falsy(g, reach))


def _rule_shrink_ors(g: ImplGraph, reach) -> bool:
    """Drop from each OR-clause the falsified members and every member that
    leads to another member; of members leading to each other the least
    stays."""
    falsy = _falsy(g, reach)
    fired = False
    for c in list(g.ors):
        mask = graph.bits(c)
        drop = {x for x in c if falsy >> x & 1} | {
            x for x in c for y in graph.members(reach[x] & mask & ~(1 << x))
            if y < x or not reach[y] >> x & 1
        }
        if drop == c:
            raise RuntimeError(
                "OR-clause emptied by falsified members: the input was "
                "unsatisfiable; this is a bug"
            )
        if drop:
            fired = True
            g.ors.discard(c)
            rest = c - drop
            if len(rest) == 1:
                g.pos.update(rest)
            else:
                g.ors.add(rest)
    return fired


def _rule_tautology_removal(g: ImplGraph, reach) -> bool:
    kept = {(u, w) for u, w in g.impl if w not in g.pos and u not in g.neg}
    fired = len(kept) != len(g.impl)
    g.impl = kept
    return fired


_RULES = (
    _rule_or_subsumption,
    _rule_literal_intro,
    _rule_positive_propagation,
    _rule_negative_propagation,
    _rule_shrink_ors,
    _rule_tautology_removal,
)


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
    """Run the fixpoint rules to completion and canonicalize.

    Each pass applies every rule, in order, to all of its matches; reach is
    recomputed after a rule that removed implications.  Passes repeat until
    one changes nothing, and the count of passes is returned.

    The input must be satisfiable; callers handle unsatisfiable formulas by
    substituting the precomputed minimum unsatisfiable formula.  `reach` is
    `g.reach()` if the caller already has it.
    """
    cap = (g.clause_count() + g.n) ** 2 + 16
    passes = 0
    changed = True
    if reach is None:
        reach = g.reach()
    while changed:
        passes += 1
        if passes > cap:
            raise RuntimeError("ihsb fixpoint did not stabilize; this is a bug")
        changed = False
        for rule in _RULES:
            edges = len(g.impl)
            if rule(g, reach):
                changed = True
                if len(g.impl) != edges:
                    reach = g.reach()

    # The implications of forced variables are gone (tautology rule), so the
    # components are the equality classes of the free variables.  Canonical
    # form: the unique transitive reduction of the condensation, plus each
    # class as an equality chain, or as one implication cycle when the
    # language cannot express equality; OR members name their class.
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
    return result, passes


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
            clauses.append(Clause(templates.pos, (v,)))
            return
        if or_arities:
            m = or_arities[0]
            clauses.append(Clause(templates.or_arities[m], (v,) * m))
            return
        raise VocabularyError("language cannot express a positive literal")

    def emit_imp(u: int, v: int) -> None:
        if templates.imp is None:
            raise VocabularyError("language cannot express an implication")
        name, flipped = templates.imp
        clauses.append(Clause(name, (v, u) if flipped else (u, v)))

    for v in base.pos_literals:
        emit_pos(v)
    for v in base.neg_literals:
        if templates.neg is None:
            raise VocabularyError("language cannot express a negative literal")
        clauses.append(Clause(templates.neg, (v,)))
    for u, v in base.impl_clauses:
        emit_imp(u, v)
    for u, v in base.eq_clauses:
        if templates.eq is not None:
            clauses.append(Clause(templates.eq, (u, v)))
        else:
            emit_imp(u, v)
            emit_imp(v, u)
    for c in base.or_clauses:
        fitting = [m for m in or_arities if m >= len(c)]
        if not fitting:
            raise VocabularyError(f"no OR relation of arity >= {len(c)} available")
        m = fitting[0]
        padded = c + (c[-1],) * (m - len(c))
        clauses.append(Clause(templates.or_arities[m], padded))

    return CnfFormula._trusted(lang, var_names, tuple(clauses), language_path)


def min_ihsb_cnf(formula: CnfFormula) -> tuple[CnfFormula, MinimizeStats]:
    """Full pipeline for irreducible IHSB+ languages: rewrite to the base
    vocabulary, check satisfiability, minimize, re-emit in the language's
    own vocabulary."""
    g, templates = graph_from_cnf(formula)
    reach = g.reach()
    if unsat_check_ihsb(g, reach):
        return unsat_minimum(formula)
    base, passes = min_ihsb(g, templates.eq is not None, reach)
    out = restrict_vocabulary(
        base, templates, formula.language, formula.var_names, formula.language_path
    )
    return out, MinimizeStats(len(formula.clauses), len(out.clauses), passes)


def min_ihsb_minus_cnf(formula: CnfFormula) -> tuple[CnfFormula, MinimizeStats]:
    """IHSB- languages minimize through duality: dualize, minimize, dualize
    back over the input's own language."""
    dual_out, stats = min_ihsb_cnf(formula.dual())
    return dual_out.dual(formula.language), stats
