import random

from boolmin import graph


def random_digraph(rng, n):
    """Sinks and cycles come with the edge density; about one successor
    list in four repeats an edge."""
    p = rng.choice((0.1, 0.2, 0.35))
    edges = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
    succ = [[] for _ in range(n)]
    for u, v in sorted(edges):
        succ[u].append(v)
    for out in succ:
        if out and rng.random() < 0.25:
            out.insert(rng.randrange(len(out) + 1), rng.choice(out))
    return edges, succ


def clustered_digraph(rng, n):
    """Many multi-node components, each closed by a cycle through its
    members, with edges only from a component to later ones, and several
    sinks that many components point to; node numbers are shuffled."""
    label = list(range(n))
    rng.shuffle(label)
    sinks = rng.randint(2, 5)
    groups, rest = [], label[sinks:]
    while rest:
        size = rng.randint(1, 4)
        groups.append(rest[:size])
        rest = rest[size:]
    edges = set()
    for k, group in enumerate(groups):
        if len(group) > 1:
            edges.update(zip(group, group[1:] + group[:1]))
        later = [v for g in groups[k + 1:] for v in g] + label[:sinks]
        for u in group:
            edges.update((u, v) for v in group if u != v and rng.random() < 0.3)
            edges.update((u, v) for v in later if rng.random() < 0.15)
    succ = [[] for _ in range(n)]
    for u, v in sorted(edges, key=lambda e: rng.random()):
        succ[u].append(v)
    return edges, succ


def dfs(succ, start):
    seen = {start}
    stack = [start]
    while stack:
        for v in succ[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def cases(seed, count=300):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        yield rng, n, *random_digraph(rng, n)
    for _ in range(count // 3):
        n = rng.randint(6, 24)
        yield rng, n, *clustered_digraph(rng, n)


def test_bits_and_members():
    assert graph.bits([]) == 0
    assert graph.bits([0, 3, 3, 5]) == 0b101001
    assert list(graph.members(0b101001)) == [0, 3, 5]
    assert list(graph.members(0)) == []


def test_reach_matches_dfs():
    for _, n, _, succ in cases(1):
        reach, _, _ = graph.condense(succ)
        assert reach == [graph.bits(dfs(succ, u)) for u in range(n)]


def test_descendants_match_dfs():
    for rng, n, _, succ in cases(5):
        sources = rng.sample(range(n), rng.randint(0, n))
        expected = set().union(*(dfs(succ, u) for u in sources))
        assert graph.descendants(succ, sources) == expected


def fold(succ, labels):
    """Each node's OR of labels over the nodes it leads to, read off
    `condense`: labels gather on their component's rep, then flow back
    along the reduced edges in list order."""
    _, rep, reduced = graph.condense(succ)
    value = list(labels)
    for u, c in enumerate(rep):
        if c != u:
            value[c] |= labels[u]
    for c, d in reduced:
        value[c] |= value[d]
    return [value[c] for c in rep]


def test_fold_over_reduced_edges_ors_labels_over_reachable_nodes():
    for rng, n, _, succ in cases(2):
        # every edge out of a component comes before every edge into it
        _, _, reduced = graph.condense(succ)
        last_out = {c: i for i, (c, _) in enumerate(reduced)}
        assert all(last_out.get(d, -1) < i for i, (_, d) in enumerate(reduced))
        labels = [rng.getrandbits(8) for _ in range(n)]
        out = fold(succ, labels)
        for u in range(n):
            expected = 0
            for v in dfs(succ, u):
                expected |= labels[v]
            assert out[u] == expected


def test_components_are_mutual_reachability_classes():
    for _, n, _, succ in cases(3):
        _, rep, _ = graph.condense(succ)
        for u in range(n):
            mutual = [v for v in dfs(succ, u) if u in dfs(succ, v)]
            assert rep[u] == min(mutual)


def test_reduction_keeps_edges_without_another_path():
    for _, n, edges, succ in cases(4):
        _, rep, reduced = graph.condense(succ)
        down = {u: {rep[v] for v in dfs(succ, u)} for u in range(n)}
        expected = set()
        for u, v in edges:
            c, d = rep[u], rep[v]
            # another path from c to d passes through a third component
            if c != d and not any(
                w not in (c, d) and d in down[w] for w in down[c]
            ):
                expected.add((c, d))
        assert sorted(reduced) == sorted(expected)


def reference_condense(succ):
    """Tarjan's walk written recursively, with the same close: a
    component's members come off the stack from the top down to its root,
    its targets are gathered member by member in that order, and they are
    kept in decreasing close order, ties (sinks) in the order gathered."""
    n = len(succ)
    order, low, stack, closed = {}, {}, [], []

    def visit(u):
        order[u] = low[u] = len(order)
        stack.append(u)
        for v in succ[u]:
            if v not in order:
                if succ[v]:
                    visit(v)
                    low[u] = min(low[u], low[v])
            elif v in stack:
                low[u] = min(low[u], order[v])
        if low[u] == order[u]:
            group = [stack.pop()]
            while group[-1] != u:
                group.append(stack.pop())
            closed.append(group)

    for u in range(n):
        if u not in order and succ[u]:
            visit(u)
    reach = [0 if s else 1 << u for u, s in enumerate(succ)]
    rep = list(range(n))
    rank = [-1] * n
    edges = []
    for k, group in enumerate(closed):
        c = min(group)
        rank[c] = k
        for w in group:
            rep[w] = c
        targets = set()
        for w in group:
            for x in succ[w]:
                if rep[x] != c:
                    targets.add(rep[x])
        value = graph.bits(group)
        for d in targets:
            value |= reach[d]
        for w in group:
            reach[w] = value
        further = 0
        for d in sorted(targets, key=rank.__getitem__, reverse=True):
            if not further >> d & 1:
                edges.append((c, d))
                further |= reach[d]
    return reach, rep, edges


def test_condense_matches_recursive_reference_edge_order_included():
    for _, _, _, succ in cases(6):
        assert graph.condense(succ) == reference_condense(succ)


def test_long_path_and_cycle_do_not_recurse():
    n = 20000
    path = [[u + 1] for u in range(n - 1)] + [[]]
    reach, rep, reduced = graph.condense(path)
    assert reach[0] == (1 << n) - 1 and reach[n - 1] == 1 << (n - 1)
    assert rep == list(range(n)) and sorted(reduced) == [(u, u + 1) for u in range(n - 1)]
    assert fold(path, [0] * (n - 1) + [1]) == [1] * n
    path[0].append(2)
    assert sorted(graph.condense(path)[2]) == [(u, u + 1) for u in range(n - 1)]
    cycle = [[(u + 1) % n] for u in range(n)]
    _, rep, reduced = graph.condense(cycle)
    assert rep == [0] * n and reduced == []
    # a chain of 2-cycles closes a two-node component at every step
    pairs = [[u + 1] if u % 2 == 0 else [u - 1, u + 1] for u in range(n - 1)] + [[n - 2]]
    reach, rep, reduced = graph.condense(pairs)
    assert reach[0] == (1 << n) - 1 and reach[n - 1] == 3 << (n - 2)
    assert rep == [u & ~1 for u in range(n)]
    assert sorted(reduced) == [(u, u + 2) for u in range(0, n - 2, 2)]
