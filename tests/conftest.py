"""Shared helpers: standard languages, seeded random generators, and the
reference helpers several test modules use."""
from __future__ import annotations

import random

import pytest

from boolmin.affine import _xor_constant
from boolmin.model import BFormula, CnfFormula, ConstraintLanguage, Relation, var_mask
from boolmin.std import (
    rel_eq,
    rel_impl,
    rel_nand,
    rel_neg,
    rel_or,
    rel_parity,
    rel_pos,
    rel_xor,
    theorem9_language,
)


@pytest.fixture(scope="session")
def t9():
    return theorem9_language(3)


@pytest.fixture(scope="session")
def bijunctive_full():
    return ConstraintLanguage(
        (rel_pos(), rel_neg(), rel_or(2), rel_nand(2), rel_impl(), rel_eq(), rel_xor())
    )


@pytest.fixture(scope="session")
def affine_lang():
    return ConstraintLanguage(
        (rel_pos(), rel_neg(), rel_parity(2, 0, "even2"), rel_parity(2, 1, "odd2"),
         rel_parity(3, 0, "even3"), rel_parity(3, 1, "odd3"))
    )


def clause_mask(rel: Relation, var_ids, n_vars: int) -> int:
    """Solution bitmask of a single clause over an n-variable assignment space."""
    return rel.mask_op([var_mask(v, n_vars) for v in var_ids], (1 << (1 << n_vars)) - 1)


def random_cnf(lang: ConstraintLanguage, rng: random.Random, n_vars: int, n_clauses: int) -> CnfFormula:
    clauses = []
    for _ in range(n_clauses):
        rel = rng.choice(lang.relations)
        ids = tuple(rng.randrange(n_vars) for _ in range(rel.arity))
        clauses.append((rel.name, ids))
    return CnfFormula(lang, tuple(f"v{i}" for i in range(n_vars)), tuple(clauses))


def random_btree(basis, rng: random.Random, leaf_budget: int, var_pool="xyuv") -> tuple:
    """The post-order steps of a random tree with `leaf_budget` leaves at
    most.  Each call draws from rng before its arguments', left to right."""
    if leaf_budget <= 1:
        return (rng.choice(var_pool),)
    usable = [f for f in basis if 1 <= f.arity <= leaf_budget]
    if not usable or rng.random() < 0.15:
        return (rng.choice(var_pool),)
    f = rng.choice(usable)
    parts = [1] * f.arity
    for _ in range(leaf_budget - f.arity):
        parts[rng.randrange(f.arity)] += 1
    args = [random_btree(basis, rng, p, var_pool) for p in parts]
    return sum(args, ()) + ((f.name, f.arity),)


def random_bformula(basis, rng: random.Random, leaf_budget: int) -> BFormula:
    return BFormula(tuple(basis), random_btree(basis, rng, leaf_budget))


def tree_steps(root) -> list:
    """Reference post-order steps of a nested-tuple tree, whose node is a
    variable's name or a `(func, args)` pair with a tuple of argument
    nodes: a name, or `(func, argument count)` after the application's
    arguments, left to right.  A post-order walk with an explicit stack, so
    a deep chain does not recurse."""
    steps = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, str):
            steps.append(node)
        elif expanded:
            steps.append((node[0], len(node[1])))
        else:
            stack.append((node, True))
            stack.extend((arg, False) for arg in reversed(node[1]))
    return steps


def assert_steps(formula: BFormula) -> None:
    """`formula.steps` is a tuple of well-formed steps that leaves exactly
    one value: no application takes more values than are computed before
    it."""
    steps = formula.steps
    assert type(steps) is tuple
    depth = 0
    for step in steps:
        if type(step) is str:
            depth += 1
            continue
        assert type(step) is tuple and len(step) == 2
        assert type(step[0]) is str and type(step[1]) is int
        assert 0 <= step[1] <= depth
        depth += 1 - step[1]
    assert depth == 1


def reach_sets(succ: list[list[int]]) -> list[int]:
    """Reference reach bitsets, one depth-first search per node: bit v of
    the u-th set is set iff u leads to v (every node leads to itself)."""
    out = []
    for start in range(len(succ)):
        seen = {start}
        stack = [start]
        while stack:
            for v in succ[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        out.append(sum(1 << v for v in seen))
    return out


def mutual_classes(nodes, reach: list[int]) -> dict[int, int]:
    """Each of the given nodes, in increasing order, mapped to the least of
    them that it leads to and is led to by."""
    order = sorted(nodes)
    return {u: min(v for v in order if reach[u] >> v & 1 and reach[v] >> u & 1) for u in order}


def reduced_edges(edges, comp: dict[int, int], reach: list[int]) -> set[tuple[int, int]]:
    """The transitive reduction of the condensation by its definition: an
    edge from class c to class d stays, as (c, d), iff no node of a third
    class lies on a path from c to d.  Edges with an end outside comp are
    ignored."""
    out = set()
    for u, v in edges:
        if u in comp and v in comp and comp[u] != comp[v]:
            c, d = comp[u], comp[v]
            if not any(comp[w] not in (c, d) and reach[c] >> w & 1 and reach[w] >> d & 1
                       for w in comp):
                out.add((c, d))
    return out


def clause_to_equation(clause, rel: Relation) -> tuple[int, int]:
    """GF(2) row (coefficient bitmask keyed by variable id, constant bit).

    Repeated variables in a clause cancel pairwise.
    """
    coeffs = 0
    for v in clause[1]:
        coeffs ^= 1 << v
    return coeffs, _xor_constant(rel)


def gate_lower_bound(relevant_count: int, max_arity: int) -> int:
    """Connected-tree counting bound: g gates of arity at most m reach at
    most g*(m-1)+1 distinct inputs."""
    if relevant_count <= 1:
        return 0
    if max_arity <= 1:
        raise ValueError("no multi-input connective available")
    return -(-(relevant_count - 1) // (max_arity - 1))
