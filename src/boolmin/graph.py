"""Implication-graph kernel shared by the CNF minimizers.  Nodes are 0..n-1
and `succ[u]` lists the successors of u.  A reach set is an int whose bit v
is set iff the node leads to v (every node leads to itself).

`condense` is one walk, Tarjan's (1972, iterative), which closes the
strongly connected components in close order: each after every component it
reaches.  As a component closes, the walk sets its reach set, its `rep` (the
least member) and its edges in the transitive reduction of the condensation
(Aho-Garey-Ullman 1972).  The reduction keeps every reachability between
components, and its edges come in close order, so any other closure over the
graph is one fold over them (see `condense`).  Most components of a sparse
implication graph are single nodes, whose close builds no member list, and
a component with one target appends its edge without sorting.
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


def condense(succ: list[list[int]]) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """(reach, rep, edges): every node's reach set and the least member of
    its component, and the transitive reduction of the condensation as
    (rep c, rep d) pairs.  A successor d of c is redundant iff another
    successor leads to it, which closed after d: taking them in decreasing
    close order, d stays iff no successor kept before it leads to it.

    The edges out of a component are appended together as it closes, so
    every edge out of d comes before every edge into d.  A fold that runs
    `value[c] |= value[d]` over the edges in list order, starting from one
    value per rep, therefore reads each d final and leaves on each rep the
    OR of the starting values of every component it reaches, its own
    included.

    The walk visits only nodes with successors: a sink is a component that
    reaches nothing else, with reach and rep final from the start."""
    n = len(succ)
    reach = [0 if s else 1 << u for u, s in enumerate(succ)]  # final for sinks
    rep = list(range(n))
    rank = [-1] * n  # close index of each component's rep; -1 for sinks
    edges: list[tuple[int, int]] = []
    order = [-1] * n  # DFS number; -1 until visited
    low = [n] * n  # n for sinks and closed nodes: lowers nothing
    stack: list[int] = []
    visited = closed = 0
    for root in range(n):
        if order[root] >= 0 or not succ[root]:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            u, out = work[-1]
            for v in out:
                if order[v] >= 0:
                    if low[v] < low[u]:
                        low[u] = low[v]
                elif succ[v]:
                    order[v] = low[v] = visited
                    visited += 1
                    stack.append(v)
                    work.append((v, iter(succ[v])))
                    break
            else:
                work.pop()
                lu = low[u]
                if work and lu < low[work[-1][0]]:
                    low[work[-1][0]] = lu
                if lu != order[u]:
                    continue
                # u closes its component, whose members lie on the stack
                # from u up; every node they lead to outside it is closed
                targets = set()
                if stack[-1] == u:  # a single node
                    stack.pop()
                    low[u] = n
                    c = u
                    value = 1 << u
                    for x in succ[u]:
                        if rep[x] != c:
                            targets.add(rep[x])
                    for d in targets:
                        value |= reach[d]
                    reach[u] = value
                else:
                    group = [stack.pop()]
                    while group[-1] != u:
                        group.append(stack.pop())
                    c = min(group)
                    value = 0
                    for w in group:
                        rep[w] = c
                        low[w] = n
                        value |= 1 << w
                    for w in group:
                        for x in succ[w]:
                            if rep[x] != c:
                                targets.add(rep[x])
                    for d in targets:
                        value |= reach[d]
                    for w in group:
                        reach[w] = value
                rank[c] = closed
                closed += 1
                if len(targets) == 1:
                    edges.append((c, targets.pop()))
                    continue
                further = 0
                for d in sorted(targets, key=rank.__getitem__, reverse=True):
                    if not further >> d & 1:
                        edges.append((c, d))
                        further |= reach[d]
    return reach, rep, edges
