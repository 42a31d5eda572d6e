"""Minimization over irreducible bijunctive languages.

Every irreducible binary or unary relation encodes as implications between
literals, so a formula becomes a directed graph on the 2n literals (closed
under contraposition).  Minimization collapses strongly connected literal
classes, pins forced variables, transitive-reduces the condensation counting
a skew-paired edge as one clause, and re-emits using the language's own
relations.  The construction is validated against the brute-force oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import graph
from .classify import relation_shape
from .errors import ClassificationError, VocabularyError
from .model import Clause, CnfFormula, ConstraintLanguage, MinimizeStats
from .oracle import unsat_minimum


def pos_lit(v: int) -> int:
    return 2 * v


def neg_lit(v: int) -> int:
    return 2 * v + 1


def negate(lit: int) -> int:
    return lit ^ 1


def lit_var(lit: int) -> int:
    return lit // 2


@dataclass
class LiteralGraph:
    """Directed edges over 2n literals, closed under contraposition, plus
    literals forced by unit or degenerate clauses."""

    n: int
    edges: set[tuple[int, int]] = field(default_factory=set)
    forced: set[int] = field(default_factory=set)
    contradictory: bool = False

    def add_pair(self, a: int, b: int) -> None:
        self.edges.add((a, b))
        self.edges.add((negate(b), negate(a)))

    def force(self, lit: int) -> None:
        self.forced.add(lit)

    def reach(self) -> list[int]:
        """Reachability bitsets over the 2n literals (see graph.reach)."""
        succ: list[list[int]] = [[] for _ in range(2 * self.n)]
        for a, b in self.edges:
            succ[a].append(b)
        return graph.reach(succ)


def to_literal_graph(formula: CnfFormula) -> LiteralGraph:
    """Encode every clause as literal implications or forced marks."""
    g = LiteralGraph(formula.n_vars)
    for clause in formula.clauses:
        rel = formula.language.get(clause.relation)
        kind = relation_shape(rel)
        if kind is None or rel.arity > 2:
            raise ClassificationError(
                f"relation {clause.relation} is not an irreducible binary shape; "
                "language misclassified as irreducible bijunctive"
            )
        if rel.arity == 1:
            v = clause.vars[0]
            g.force(pos_lit(v) if kind[0] == "pos" else neg_lit(v))
            continue
        a, b = clause.vars
        if kind[0] == "imp" and kind[1]:
            a, b = b, a
        if a == b:
            diag = {bits[0] for bits in rel.tuples if bits[0] == bits[1]}
            if diag == {0, 1}:
                continue
            if diag == {1}:
                g.force(pos_lit(a))
            elif diag == {0}:
                g.force(neg_lit(a))
            else:
                g.contradictory = True
            continue
        if kind[0] == "or":
            g.add_pair(neg_lit(a), pos_lit(b))
        elif kind[0] == "nand":
            g.add_pair(pos_lit(a), neg_lit(b))
        elif kind[0] == "imp":
            g.add_pair(pos_lit(a), pos_lit(b))
        elif kind[0] == "eq":
            g.add_pair(pos_lit(a), pos_lit(b))
            g.add_pair(pos_lit(b), pos_lit(a))
        elif kind[0] == "xor":
            g.add_pair(pos_lit(a), neg_lit(b))
            g.add_pair(neg_lit(a), pos_lit(b))
    return g


class _Emitter:
    """Finds language clauses realizing units, equivalences and edge pairs."""

    def __init__(self, lang: ConstraintLanguage):
        self.lang = lang
        self.kinds = [(rel, relation_shape(rel)) for rel in lang.relations]

    def unit(self, v: int, want: int) -> Clause | None:
        for rel, kind in self.kinds:
            if rel.arity == 1 and kind[0] == ("pos" if want else "neg"):
                return Clause(rel.name, (v,))
            if rel.arity == 2:
                diag = {bits[0] for bits in rel.tuples if bits[0] == bits[1]}
                if diag == {want}:
                    return Clause(rel.name, (v, v))
        return None

    def pin_link(self, u: int, a: int, v: int, b: int) -> Clause | None:
        """A clause over pinned u (value a) that forces v to b."""
        for rel, _ in self.kinds:
            if rel.arity != 2:
                continue
            if (a, b) in rel.tuples and {y for x, y in rel.tuples if x == a} == {b}:
                return Clause(rel.name, (u, v))
            if (b, a) in rel.tuples and {x for x, y in rel.tuples if y == a} == {b}:
                return Clause(rel.name, (v, u))
        return None

    def pair_pin(self, u: int, a: int, v: int, b: int) -> list[Clause] | None:
        """Two clauses over {u, v} whose conjunction pins (u, v) = (a, b);
        needed when the language has no unary-capable relation at all."""
        options: list[tuple[frozenset, Clause]] = []
        for rel, _ in self.kinds:
            if rel.arity != 2:
                continue
            if (a, b) in rel.tuples:
                options.append((frozenset(rel.tuples), Clause(rel.name, (u, v))))
            if (b, a) in rel.tuples:
                flipped = frozenset((y, x) for x, y in rel.tuples)
                options.append((flipped, Clause(rel.name, (v, u))))
        for i, (s1, c1) in enumerate(options):
            for s2, c2 in options[i + 1 :]:
                if s1 & s2 == {(a, b)}:
                    return [c1, c2]
        return None

    def edge_clause(self, a: int, b: int) -> Clause | None:
        """One clause whose literal encoding is the pair {a->b, ~b->~a}."""
        u, v = lit_var(a), lit_var(b)
        sa, sb = a & 1, b & 1
        for rel, kind in self.kinds:
            if rel.arity != 2:
                continue
            if kind[0] == "or" and (sa, sb) == (1, 0):
                return Clause(rel.name, (u, v))
            if kind[0] == "nand" and (sa, sb) == (0, 1):
                return Clause(rel.name, (u, v))
            if kind[0] == "imp":
                if (sa, sb) == (0, 0):
                    return Clause(rel.name, (v, u) if kind[1] else (u, v))
                if (sa, sb) == (1, 1):
                    # ~u -> ~v is the contrapositive of v -> u
                    return Clause(rel.name, (u, v) if kind[1] else (v, u))
        return None

    def same_pair(self, u: int, v: int) -> list[Clause] | None:
        for rel, kind in self.kinds:
            if kind[0] == "eq":
                return [Clause(rel.name, (u, v))]
        first = self.edge_clause(pos_lit(u), pos_lit(v))
        second = self.edge_clause(pos_lit(v), pos_lit(u))
        if first is not None and second is not None:
            return [first, second]
        return None

    def anti_pair(self, u: int, v: int) -> list[Clause] | None:
        for rel, kind in self.kinds:
            if kind[0] == "xor":
                return [Clause(rel.name, (u, v))]
        first = self.edge_clause(pos_lit(u), neg_lit(v))
        second = self.edge_clause(neg_lit(u), pos_lit(v))
        if first is not None and second is not None:
            return [first, second]
        return None

    def same_cost(self) -> int | None:
        pair = self.same_pair(0, 1)
        return None if pair is None else len(pair)

    def anti_cost(self) -> int | None:
        pair = self.anti_pair(0, 1)
        return None if pair is None else len(pair)


def _class_tree_clauses(members: dict[int, int], emitter: _Emitter) -> list[Clause]:
    """Spanning structure for one equivalence class; members maps variable ->
    polarity (1 for same as representative literal, 0 for opposite).

    Costs: a same-polarity link costs 1 with an equality relation else 2 via
    implications; an opposite link costs 1 with XOR else 2 via OR plus NAND.
    The cheaper of (polarity chains + one cross link) and (all cross links)
    is emitted.
    """
    plus = sorted(v for v, s in members.items() if s == 1)
    minus = sorted(v for v, s in members.items() if s == 0)
    a = emitter.same_cost()
    b = emitter.anti_cost()

    def chains_plus_cross() -> list[Clause] | None:
        if plus and minus:
            if a is None and (len(plus) > 1 or len(minus) > 1):
                return None
            if b is None:
                return None
        elif a is None:
            return None
        out: list[Clause] = []
        for group in (plus, minus):
            for x, y in zip(group, group[1:]):
                out.extend(emitter.same_pair(x, y))
        if plus and minus:
            out.extend(emitter.anti_pair(plus[0], minus[0]))
        return out

    def all_cross() -> list[Clause] | None:
        if not plus or not minus or b is None:
            return None
        out: list[Clause] = []
        root = minus[0]
        for v in plus:
            out.extend(emitter.anti_pair(v, root))
        for w in minus[1:]:
            out.extend(emitter.anti_pair(plus[0], w))
        return out

    def cycle() -> list[Clause] | None:
        # a directed cycle through the literals: one clause per edge, beating
        # pairwise links when no single-clause equivalence relation exists
        lits = [pos_lit(v) for v in plus] + [neg_lit(v) for v in minus]
        out: list[Clause] = []
        for x, y in zip(lits, lits[1:] + lits[:1]):
            clause = emitter.edge_clause(x, y)
            if clause is None:
                return None
            out.append(clause)
        return out

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
    pending = sorted(values)
    for v in list(pending):
        unit = emitter.unit(v, values[v])
        if unit is not None:
            clauses.append(unit)
            pinned.append(v)
            pending.remove(v)
    while pending:
        progress = False
        for v in list(pending):
            for u in pinned:
                link = emitter.pin_link(u, values[u], v, values[v])
                if link is not None:
                    clauses.append(link)
                    pinned.append(v)
                    pending.remove(v)
                    progress = True
                    break
            if progress:
                break
        if progress:
            continue
        for u in list(pending):
            for v in list(pending):
                if v <= u:
                    continue
                pair = emitter.pair_pin(u, values[u], v, values[v])
                if pair is not None:
                    clauses.extend(pair)
                    pinned.extend((u, v))
                    pending.remove(u)
                    pending.remove(v)
                    progress = True
                    break
            if progress:
                break
        if progress:
            continue
        for v in list(pending):
            pinning = wedge(v, values[v])
            if pinning is not None:
                clauses.extend(pinning)
                pinned.append(v)
                pending.remove(v)
                progress = True
                break
        if not progress:
            raise VocabularyError(f"language cannot pin variables {pending}")
    return clauses


def min_bijunctive(formula: CnfFormula) -> tuple[CnfFormula, MinimizeStats]:
    """Minimize a formula over an irreducible bijunctive language."""
    lang = formula.language
    g = to_literal_graph(formula)
    emitter = _Emitter(lang)
    if g.contradictory:
        return unsat_minimum(formula)
    reach = g.reach()

    # forced closure: explicit units plus literals whose negation is untenable
    seeds = set(g.forced)
    for lit in range(2 * g.n):
        if reach[lit] >> negate(lit) & 1:
            seeds.add(negate(lit))
    forced_mask = 0
    for s in seeds:
        forced_mask |= reach[s]
    forced = set(graph.members(forced_mask))
    if any(negate(lit) in forced for lit in forced):
        return unsat_minimum(formula)
    forced_vars = {lit_var(lit) for lit in forced}

    free_lits = [
        lit for lit in range(2 * g.n) if lit_var(lit) not in forced_vars
    ]
    # strongly connected literal classes among free literals: a free literal
    # reaches only free or forced-true literals (reaching a forced-false one
    # would force it), so no class crosses into the forced ones
    class_of = graph.components(free_lits, reach)
    class_members: dict[int, list[int]] = {}
    for lit in free_lits:
        class_members.setdefault(class_of[lit], []).append(lit)
    class_roots = sorted(class_members)

    def wedge(v: int, want: int) -> list[Clause] | None:
        # implying both sides of an anti-equivalent free class makes the
        # source literal untenable, which pins v without a unary relation
        src = pos_lit(v) if want == 0 else neg_lit(v)
        for root in class_roots:
            mirror = class_of[negate(root)]
            if mirror == root:
                continue
            first = second = None
            for lit in class_members[root]:
                first = emitter.edge_clause(src, lit)
                if first is not None:
                    break
            for lit in class_members[mirror]:
                second = emitter.edge_clause(src, lit)
                if second is not None:
                    break
            if first is not None and second is not None:
                return [first, second]
        return None

    clauses: list[Clause] = []
    clauses.extend(_pin_clauses(forced, emitter, wedge))

    # one canonical class per mirror pair: the one holding the positive
    # literal of its smallest variable
    canonical_classes = []
    seen_roots = set()
    for root in class_roots:
        if root in seen_roots:
            continue
        members = class_members[root]
        mirror_root = class_of[negate(root)]
        seen_roots.update({root, mirror_root})
        canonical_classes.append((root, members))
    for root, members in canonical_classes:
        if len(members) < 2:
            continue
        polarity = {lit_var(lit): 1 - (lit & 1) for lit in members}
        clauses.extend(_class_tree_clauses(polarity, emitter))

    emitted_pairs = set()
    for r, s in sorted(graph.reduction(g.edges, class_of, reach)):
        mirror = (class_of[negate(s)], class_of[negate(r)])
        if mirror in emitted_pairs:
            continue
        emitted_pairs.add((r, s))
        clause = None
        for a in class_members[r]:
            for b in class_members[s]:
                clause = emitter.edge_clause(a, b)
                if clause is not None:
                    break
            if clause is not None:
                break
        if clause is None:
            raise VocabularyError("language cannot express a literal implication edge")
        clauses.append(clause)

    out = CnfFormula(lang, formula.var_names, tuple(clauses), formula.language_path)
    stats = MinimizeStats(len(formula.clauses), len(clauses))
    return out, stats
