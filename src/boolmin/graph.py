"""Implication-graph kernel shared by the CNF minimizers: the nodes a set of
sources leads to, reachability as int bitsets, strongly connected
components, and the unique transitive reduction of the condensation.

Nodes are 0..n-1 and `succ[u]` lists the successors of u.  A reach set is an
int whose bit v is set iff the node leads to v (every node leads to itself).
"""
from __future__ import annotations

from typing import Iterable, Iterator


def bits(vs: Iterable[int]) -> int:
    mask = 0
    for v in vs:
        mask |= 1 << v
    return mask


def members(mask: int) -> Iterator[int]:
    """Set bit positions of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure(succ: list[list[int]], labels: list[int]) -> list[int]:
    """out[u] is the OR of labels[v] over every v that u leads to.

    Tarjan's strongly connected components, iteratively: a component closes
    only after every component it reaches has closed, so its value is its
    members' labels plus its successors' finished values."""
    n = len(succ)
    out = list(labels)  # final for sinks, which are never visited
    order: dict[int, int] = {}
    low = [n] * n  # n for sinks and closed nodes: lowers nothing
    stack: list[int] = []
    for root in range(n):
        if root in order or not succ[root]:
            continue
        work = [(root, 0)]
        while work:
            u, i = work.pop()
            if i == 0:
                order[u] = low[u] = len(order)
                stack.append(u)
            else:
                low[u] = min(low[u], low[succ[u][i - 1]])
            if i < len(succ[u]):
                work.append((u, i + 1))
                v = succ[u][i]
                if v not in order and succ[v]:
                    work.append((v, 0))
            elif low[u] == order[u]:
                group = [stack.pop()]
                while group[-1] != u:
                    group.append(stack.pop())
                value = 0
                for w in group:
                    low[w] = n
                    value |= labels[w]
                    for x in succ[w]:
                        value |= out[x]
                for w in group:
                    out[w] = value
    return out


def descendants(succ: list[list[int]], sources: Iterable[int]) -> set[int]:
    """Every node some source leads to, the sources included, in one pass
    over the edges."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for v in succ[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def reach(succ: list[list[int]]) -> list[int]:
    """Reach set of every node."""
    return closure(succ, [1 << u for u in range(len(succ))])


def components(nodes: Iterable[int], reach: list[int]) -> dict[int, int]:
    """Map each node to the least of the given nodes in its strongly connected
    component: nodes with equal reach sets lead to each other.

    Equal sets are grouped by sorting, not hashing: the reach sets of a chain
    are 2^n - 2^u, which Python's int hash folds onto 61 values."""
    order = sorted(nodes)
    comp: dict[int, int] = {}
    first = None
    # a stable sort keeps each group in node order, least member first
    for u in sorted(order, key=reach.__getitem__):
        if first is None or reach[u] != reach[first]:
            first = u
        comp[u] = first
    return {u: comp[u] for u in order}


def reduction(
    edges: Iterable[tuple[int, int]], comp: dict[int, int], reach: list[int]
) -> set[tuple[int, int]]:
    """Transitive reduction of the condensation, as edges between component
    representatives: (c, d) for each edge from c's component to d's that no
    other path from c to d makes redundant.  Edges with an end outside comp
    are ignored."""
    succ = dict.fromkeys(comp.values(), 0)
    for u, v in edges:
        if u in comp and v in comp and comp[u] != comp[v]:
            succ[comp[u]] |= 1 << comp[v]
    out: set[tuple[int, int]] = set()
    for c, mask in succ.items():
        further = 0
        for d in members(mask):
            further |= reach[d] & ~(1 << d)
        out.update((c, d) for d in members(mask & ~further))
    return out
