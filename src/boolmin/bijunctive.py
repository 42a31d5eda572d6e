"""Minimization over irreducible bijunctive languages.

Every irreducible binary or unary relation encodes as implications between
literals, so a formula becomes a directed graph on the 2n literals (closed
under contraposition).  Minimization finds the forced literals units first:
one pass propagates the explicit units, and only the literals of the
variables left unforced are condensed, over the residual graph between
them (`graph.condense`).  That one walk gives their reach sets, where a
literal that reaches its negation forces the other side, their strongly
connected classes and the transitive reduction of the condensation; the
free literals keep the classes and reduced edges among them.  It then pins
the forced variables, ties each class together and emits the reduced
edges, a skew-paired edge as one clause, all in the language's own
relations.  The construction is validated against the brute-force oracle.

Both directions read one table per relation of arity <= 2: its diagonal
(the values it allows one variable repeated in every argument) and the value
pairs it allows on (u, v) when applied as (u, v) and as (v, u).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from . import graph
from .classify import relation_shape
from .errors import ClassificationError, VocabularyError
from .model import Clause, CnfFormula, ConstraintLanguage, MinimizeStats, Relation
from .oracle import unsat_minimum


def pos_lit(v: int) -> int:
    return 2 * v


def neg_lit(v: int) -> int:
    return 2 * v + 1


def negate(lit: int) -> int:
    return lit ^ 1


def lit_var(lit: int) -> int:
    return lit // 2


def _lit(v: int, value: int) -> int:
    """The literal `v = value`."""
    return 2 * v + 1 - value


# every value pair of two arguments, and the pairs allowed by = and xor
_PAIRS = frozenset(itertools.product((0, 1), repeat=2))
_EQ = frozenset({(0, 0), (1, 1)})
_XOR = frozenset({(0, 1), (1, 0)})


def _diagonal(rel: Relation) -> frozenset[int]:
    """The values a relation allows one variable repeated in every argument."""
    return frozenset(t[0] for t in rel.tuples if len(set(t)) == 1)


@dataclass
class LiteralGraph:
    """Directed edges over 2n literals, closed under contraposition, plus
    literals forced by unit or degenerate clauses."""

    n: int
    edges: set[tuple[int, int]] = field(default_factory=set)
    forced: set[int] = field(default_factory=set)
    contradictory: bool = False


def to_literal_graph(formula: CnfFormula) -> LiteralGraph:
    """Encode every clause as literal implications or forced marks.

    A binary relation that excludes the pair (x, y) puts the skew pair
    u = x -> v != y on its arguments (u, v).  A unary relation, or a binary
    one on a repeated variable, reads the diagonal instead: no value is a
    contradiction and a single value is forced."""
    g = LiteralGraph(formula.n_vars)
    rules: dict[str, tuple[frozenset[int], frozenset[tuple[int, int]]]] = {}
    for name, vs in formula.clauses:
        rule = rules.get(name)
        if rule is None:
            rel = formula.language.get(name)
            if relation_shape(rel) is None or rel.arity > 2:
                raise ClassificationError(
                    f"relation {name} is not an irreducible binary shape; "
                    "language misclassified as irreducible bijunctive"
                )
            rule = rules[name] = (_diagonal(rel), _PAIRS - rel.tuples)
        diagonal, excluded = rule
        u, v = vs[0], vs[-1]
        if u == v:
            if not diagonal:
                g.contradictory = True
            elif len(diagonal) == 1:
                g.forced.add(_lit(u, *diagonal))
            continue
        for x, y in excluded:
            a, b = _lit(u, x), _lit(v, 1 - y)
            g.edges.add((a, b))
            g.edges.add((negate(b), negate(a)))
    return g


class _Emitter:
    """Finds language clauses realizing units, equivalences and edge pairs.
    Every lookup keeps the first match in language order, and within one
    relation the application (u, v) before (v, u).  One emitter serves every
    formula over its language (`_emitter`), so nothing writes its tables
    after __init__."""

    def __init__(self, lang: ConstraintLanguage):
        # (name, swapped, pairs allowed on (u, v)); symmetric relations twice
        self.oriented = [
            (rel.name, swap, pairs)
            for rel in lang.relations if rel.arity == 2
            for swap, pairs in ((False, rel.tuples), (True, frozenset(t[::-1] for t in rel.tuples)))
        ]
        self.first: dict[frozenset, tuple[str, bool]] = {}
        for name, swap, pairs in self.oriented:
            self.first.setdefault(pairs, (name, swap))
        # literal a (u = 1 - sa) implies literal b (v = 1 - sb) alone iff the
        # clause excludes exactly (1 - sa, sb)
        self.edges = {
            (sa, sb): self.first.get(_PAIRS - {(1 - sa, sb)}) for sa in (0, 1) for sb in (0, 1)
        }
        self.units: dict[int, Relation] = {}
        for rel in lang.relations:
            diagonal = _diagonal(rel)
            if rel.arity <= 2 and len(diagonal) == 1:
                self.units.setdefault(*diagonal, rel)
        self.same_cost, self.anti_cost = (
            None if pair is None else len(pair) for pair in (self.same_pair(0, 1), self.anti_pair(0, 1))
        )

    @staticmethod
    def _clause(hit: tuple[str, bool] | None, u: int, v: int) -> Clause | None:
        return None if hit is None else (hit[0], (v, u) if hit[1] else (u, v))

    def unit(self, v: int, want: int) -> Clause | None:
        rel = self.units.get(want)
        return None if rel is None else (rel.name, (v,) * rel.arity)

    def pin_link(self, u: int, a: int, v: int, b: int) -> Clause | None:
        """A clause over pinned u (value a) that forces v to b."""
        return next((self._clause((name, swap), u, v) for name, swap, pairs in self.oriented
                     if {y for x, y in pairs if x == a} == {b}), None)

    def pair_pin(self, u: int, a: int, v: int, b: int) -> list[Clause] | None:
        """Two clauses over {u, v} whose conjunction pins (u, v) = (a, b);
        needed when the language has no unary-capable relation at all."""
        options = [(pairs, self._clause((name, swap), u, v))
                   for name, swap, pairs in self.oriented if (a, b) in pairs]
        return next(([c1, c2] for i, (s1, c1) in enumerate(options)
                     for s2, c2 in options[i + 1 :] if s1 & s2 == {(a, b)}), None)

    def edge_clause(self, a: int, b: int) -> Clause | None:
        """One clause whose literal encoding is the pair {a->b, ~b->~a}."""
        return self._clause(self.edges[a & 1, b & 1], lit_var(a), lit_var(b))

    def _one_or_two(self, pairs: frozenset, u: int, v: int, *edges) -> list[Clause] | None:
        """One clause allowing exactly `pairs` on (u, v), else one edge clause
        per literal edge."""
        one = self._clause(self.first.get(pairs), u, v)
        if one is not None:
            return [one]
        two = [self.edge_clause(a, b) for a, b in edges]
        return None if None in two else two

    def same_pair(self, u: int, v: int) -> list[Clause] | None:
        return self._one_or_two(_EQ, u, v, (pos_lit(u), pos_lit(v)), (pos_lit(v), pos_lit(u)))

    def anti_pair(self, u: int, v: int) -> list[Clause] | None:
        return self._one_or_two(_XOR, u, v, (pos_lit(u), neg_lit(v)), (neg_lit(u), pos_lit(v)))


@lru_cache(maxsize=None)
def _emitter(lang: ConstraintLanguage) -> _Emitter:
    """The language's emitter, built once per language value."""
    return _Emitter(lang)


def _first_edge(emitter: _Emitter, sources: list[int], targets: list[int]) -> Clause | None:
    """The edge clause of the first (source, target) literal pair that has one."""
    return next((c for a in sources for b in targets
                 if (c := emitter.edge_clause(a, b)) is not None), None)


def _class_tree_clauses(members: dict[int, int], emitter: _Emitter) -> list[Clause]:
    """Spanning structure for one equivalence class of at least two
    variables; members maps variable -> polarity (1 for same as
    representative literal, 0 for opposite).

    Costs: a same-polarity link costs 1 with an equality relation else 2 via
    implications; an opposite link costs 1 with XOR else 2 via OR plus NAND.
    The cheapest of (polarity chains + one cross link), (all cross links)
    and a cycle of edge clauses is emitted.
    """
    plus = sorted(v for v, s in members.items() if s == 1)
    minus = sorted(v for v, s in members.items() if s == 0)

    def chains_plus_cross() -> list[Clause] | None:
        if emitter.same_cost is None and (len(plus) > 1 or len(minus) > 1):
            return None
        if plus and minus and emitter.anti_cost is None:
            return None
        out: list[Clause] = []
        for group in (plus, minus):
            for x, y in zip(group, group[1:]):
                out.extend(emitter.same_pair(x, y))
        if plus and minus:
            out.extend(emitter.anti_pair(plus[0], minus[0]))
        return out

    def all_cross() -> list[Clause] | None:
        if not plus or not minus or emitter.anti_cost is None:
            return None
        out: list[Clause] = []
        for v in plus:
            out.extend(emitter.anti_pair(v, minus[0]))
        for w in minus[1:]:
            out.extend(emitter.anti_pair(plus[0], w))
        return out

    def cycle() -> list[Clause] | None:
        # a directed cycle through the literals: one clause per edge, beating
        # pairwise links when no single-clause equivalence relation exists
        lits = [pos_lit(v) for v in plus] + [neg_lit(v) for v in minus]
        out = [emitter.edge_clause(x, y) for x, y in zip(lits, lits[1:] + lits[:1])]
        return None if None in out else out

    options = [c for c in (chains_plus_cross(), all_cross(), cycle()) if c is not None]
    if not options:
        raise VocabularyError("language cannot express an equivalence class")
    return min(options, key=len)


def _pin_clauses(forced: set[int], emitter: _Emitter, wedge) -> list[Clause]:
    """Pin every forced variable, cheapest mechanism first: a unary clause
    or a link from an already-pinned variable costs one clause per variable,
    two joint binary clauses pin a pair, and as a last resort a two-clause
    wedge into a free anti-equivalent literal class pins one variable."""
    values = {lit_var(lit): 1 - (lit & 1) for lit in forced}
    clauses: list[Clause] = []
    pinned: list[int] = []
    pending: list[int] = []
    for v in sorted(values):
        unit = emitter.unit(v, values[v])
        if unit is None:
            pending.append(v)
        else:
            clauses.append(unit)
            pinned.append(v)
    while pending:
        # (variables, clauses) of the first mechanism that applies; pending
        # stays sorted, so each pair has u < v
        step = next(
            (([v], [c]) for v in pending for u in pinned
             if (c := emitter.pin_link(u, values[u], v, values[v])) is not None), None
        ) or next(
            (([u, v], cs) for i, u in enumerate(pending) for v in pending[i + 1 :]
             if (cs := emitter.pair_pin(u, values[u], v, values[v])) is not None), None
        ) or next(
            (([v], cs) for v in pending if (cs := wedge(v, values[v])) is not None), None
        )
        if step is None:
            raise VocabularyError(f"language cannot pin variables {pending}")
        clauses.extend(step[1])
        pinned.extend(step[0])
        pending = [v for v in pending if v not in step[0]]
    return clauses


def min_bijunctive(formula: CnfFormula) -> tuple[CnfFormula, MinimizeStats]:
    """Minimize a formula over an irreducible bijunctive language.

    Units first: the explicit units propagate through the literal graph in
    one linear pass, and every literal they reach is forced.  Then the
    residual: the literals of the variables left unforced, numbered densely
    in literal order, are condensed over the edges between them alone.  A
    residual literal that reaches its negation is untenable, so its
    negation's residual reach is forced as well.  The literals still free
    keep the classes and reduced edges of that condensation among them."""
    g = to_literal_graph(formula)
    if g.contradictory:
        return unsat_minimum(formula)
    succ: list[list[int]] = [[] for _ in range(2 * g.n)]
    for a, b in g.edges:
        succ[a].append(b)
    forced = graph.descendants(succ, g.forced)
    forced_vars = {lit_var(lit) for lit in forced}

    # a residual literal leads only to residual or forced-true literals (one
    # leading to a forced-false literal would be forced false), so paths
    # between residual literals stay in the residual graph; the dense pair
    # (2k, 2k + 1) is both literals of one variable, so negation is still ^ 1
    lits = [lit for lit in range(2 * g.n) if lit_var(lit) not in forced_vars]
    dense = {lit: u for u, lit in enumerate(lits)}
    succ = [[dense[b] for b in succ[a] if b in dense] for a in lits]
    reach, rep, edges = graph.condense(succ)
    failed = 0
    for u, mask in enumerate(reach):
        if mask >> negate(u) & 1:
            failed |= reach[negate(u)]
    forced.update(lits[u] for u in graph.members(failed))
    if any(negate(lit) in forced for lit in forced):
        return unsat_minimum(formula)

    # a free literal reaches only free or forced-true literals, so no class
    # crosses into the forced ones, and every path between free literals
    # stays free: the reduced edges between them are those of the free graph
    class_of = {lits[u]: lits[rep[u]] for u in range(len(lits)) if not failed >> (u & ~1) & 3}
    reduced = [(lits[c], lits[d]) for c, d in edges if lits[c] in class_of and lits[d] in class_of]
    return _emit(formula, forced, class_of, reduced)


def _emit(
    formula: CnfFormula,
    forced: set[int],
    class_of: dict[int, int],
    reduced: list[tuple[int, int]],
) -> tuple[CnfFormula, MinimizeStats]:
    """Re-emit in the language: pin the forced literals, tie each class of
    free literals together, then one clause per skew pair of reduced edges.

    class_of maps every free literal to the least literal of its class, and
    reduced holds the transitive reduction of the condensation as edges
    between those least literals."""
    lang = formula.language
    emitter = _emitter(lang)
    class_members: dict[int, list[int]] = {}
    for lit in sorted(class_of):
        class_members.setdefault(class_of[lit], []).append(lit)
    class_roots = sorted(class_members)

    def wedge(v: int, want: int) -> list[Clause] | None:
        # implying both sides of an anti-equivalent free class makes the
        # source literal untenable, which pins v without a unary relation
        src = [_lit(v, 1 - want)]
        for root in class_roots:
            mirror = class_of[negate(root)]
            if mirror == root:
                continue
            first = _first_edge(emitter, src, class_members[root])
            second = _first_edge(emitter, src, class_members[mirror])
            if first is not None and second is not None:
                return [first, second]
        return None

    clauses = _pin_clauses(forced, emitter, wedge)

    # one canonical class per mirror pair: the one holding the positive
    # literal of its smallest variable
    seen_roots = set()
    for root in class_roots:
        if root in seen_roots:
            continue
        seen_roots.update({root, class_of[negate(root)]})
        members = class_members[root]
        if len(members) > 1:
            polarity = {lit_var(lit): 1 - (lit & 1) for lit in members}
            clauses.extend(_class_tree_clauses(polarity, emitter))

    emitted_pairs = set()
    for r, s in sorted(reduced):
        if (class_of[negate(s)], class_of[negate(r)]) in emitted_pairs:
            continue
        emitted_pairs.add((r, s))
        clause = _first_edge(emitter, class_members[r], class_members[s])
        if clause is None:
            raise VocabularyError("language cannot express a literal implication edge")
        clauses.append(clause)

    out = CnfFormula._trusted(lang, formula.var_names, tuple(clauses), formula.language_path)
    return out, MinimizeStats(len(formula.clauses), len(clauses))
