import random

from boolmin import graph


def random_digraph(rng, n):
    p = rng.choice((0.1, 0.2, 0.35))
    edges = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
    succ = [[] for _ in range(n)]
    for u, v in sorted(edges):
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


def test_bits_and_members():
    assert graph.bits([]) == 0
    assert graph.bits([0, 3, 3, 5]) == 0b101001
    assert list(graph.members(0b101001)) == [0, 3, 5]
    assert list(graph.members(0)) == []


def test_reach_matches_dfs():
    for _, n, _, succ in cases(1):
        reach = graph.reach(succ)
        assert reach == [graph.bits(dfs(succ, u)) for u in range(n)]


def test_descendants_match_dfs():
    for rng, n, _, succ in cases(5):
        sources = rng.sample(range(n), rng.randint(0, n))
        expected = set().union(*(dfs(succ, u) for u in sources))
        assert graph.descendants(succ, sources) == expected


def test_closure_ors_labels_over_reachable_nodes():
    for rng, n, _, succ in cases(2):
        labels = [rng.getrandbits(8) for _ in range(n)]
        out = graph.closure(succ, labels)
        for u in range(n):
            expected = 0
            for v in dfs(succ, u):
                expected |= labels[v]
            assert out[u] == expected


def test_components_are_mutual_reachability_classes():
    for rng, n, _, succ in cases(3):
        reach = graph.reach(succ)
        nodes = [u for u in range(n) if rng.random() < 0.8]
        comp = graph.components(nodes, reach)
        assert list(comp) == nodes
        for u in nodes:
            mutual = [v for v in nodes if v in dfs(succ, u) and u in dfs(succ, v)]
            assert comp[u] == min(mutual)


def test_reduction_keeps_edges_without_another_path():
    for _, n, edges, succ in cases(4):
        reach = graph.reach(succ)
        comp = graph.components(range(n), reach)
        down = {u: {comp[v] for v in dfs(succ, u)} for u in range(n)}
        expected = set()
        for u, v in edges:
            c, d = comp[u], comp[v]
            # another path from c to d passes through a third component
            if c != d and not any(
                w not in (c, d) and d in down[w] for w in down[c]
            ):
                expected.add((c, d))
        assert graph.reduction(edges, comp, reach) == expected


def test_reduction_ignores_edges_leaving_comp():
    succ = [[1], [2], []]
    reach = graph.reach(succ)
    comp = graph.components([0, 1], reach)
    assert graph.reduction({(0, 1), (1, 2), (0, 2)}, comp, reach) == {(0, 1)}


def test_long_path_and_cycle_do_not_recurse():
    n = 20000
    path = [[u + 1] for u in range(n - 1)] + [[]]
    reach = graph.reach(path)
    assert reach[0] == (1 << n) - 1 and reach[n - 1] == 1 << (n - 1)
    comp = graph.components(range(n), reach)
    edges = {(u, u + 1) for u in range(n - 1)}
    assert graph.reduction(edges | {(0, 2)}, comp, reach) == edges
    cycle = [[(u + 1) % n] for u in range(n)]
    reach = graph.reach(cycle)
    assert set(graph.components(range(n), reach).values()) == {0}
