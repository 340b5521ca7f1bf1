"""The graph helpers against brute-force definitions, on seeded random
digraphs of 1-9 nodes with self-loops and parallel edges."""

import random
from math import gcd
from fractions import Fraction as F

from cantorint import graph


def random_graphs(count=200, seed=4):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        yield [[(rng.randrange(n), rng.randint(-2, 3))
                for _ in range(rng.randrange(4))] for _ in range(n)]


def closure(succ):
    """reach[u][v]: a path (possibly empty) leads from u to v."""
    n = len(succ)
    reach = [[u == v for v in range(n)] for u in range(n)]
    for u, out in enumerate(succ):
        for v, _ in out:
            reach[u][v] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


def fixpoint_alive(succ):
    """States on an infinite path, as the automaton once computed them:
    drop any state without an edge to a live state until nothing changes."""
    alive = [True] * len(succ)
    changed = True
    while changed:
        changed = False
        for i, out in enumerate(succ):
            if alive[i] and not any(alive[t] for t, _ in out):
                alive[i] = False
                changed = True
    return alive


def labelled_simple_cycles(succ):
    """Every simple cycle as (node list from its least node, label list),
    one entry per choice among parallel edges."""
    found = []

    def extend(nodes, labels):
        for w, x in succ[nodes[-1]]:
            if w == nodes[0]:
                found.append((tuple(nodes), labels + [x]))
            elif w > nodes[0] and w not in nodes:
                extend(nodes + [w], labels + [x])

    for s in range(len(succ)):
        extend([s], [])
    return found


def test_trim_matches_fixpoint():
    for succ in random_graphs():
        alive = fixpoint_alive(succ)
        assert graph.trim(succ) == [
            [(v, x) for v, x in out if alive[v]] if alive[u] else []
            for u, out in enumerate(succ)]


def test_sccs_are_mutual_reachability_classes():
    for succ in random_graphs():
        n = len(succ)
        reach = closure(succ)
        comps = graph.sccs(succ)
        assert sorted(u for c in comps for u in c) == list(range(n))
        assert all(c == sorted(c) for c in comps)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)
        comp_of = {u: i for i, c in enumerate(comps) for u in c}
        for u in range(n):
            for v in range(n):
                assert (comp_of[u] == comp_of[v]) == \
                    (reach[u][v] and reach[v][u])


def test_karp_matches_exhaustive_cycle_means():
    for succ in random_graphs():
        means = [F(sum(labels), len(labels))
                 for _, labels in labelled_simple_cycles(succ)]
        assert graph.max_cycle_mean(succ) == (max(means) if means else None)


def random_digit_graphs(count=1000, seed=23):
    """Graphs of 1-8 nodes, each with 1-3 out-edges labelled from {-1,0,1},
    so that edges of one node often tie on their label."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        yield [[(rng.randrange(n), rng.randint(-1, 1))
                for _ in range(rng.randint(1, 3))] for _ in range(n)]


def largest_word(succ, length):
    """The largest length-digit word of any path, by the recurrence
    best_k(u) = max over the edges u -> v of (d,) + best_(k-1)(v)."""
    best = [()] * len(succ)
    for _ in range(length):
        best = [max((d,) + best[v] for v, d in out) for out in succ]
    return max(best)


def test_max_path_matches_largest_words():
    ties = 0
    for succ in random_digit_graphs():
        pre, per = graph.max_path(succ)
        n = 3 * len(succ)
        assert per and len(pre) + len(per) <= len(succ)
        assert (pre + per * n)[:n] == largest_word(succ, n)
        ties += any(len({d for _, d in out}) < len(out) for out in succ)
    assert ties > 500



def test_cyclic_classes_on_known_graphs():
    def cycle(n, start=0):
        return [[((u + 1) % n + start, 1)] for u in range(n)]

    assert graph.cyclic_classes(cycle(5), list(range(5))) == \
        [[0], [1], [2], [3], [4]]
    assert graph.cyclic_classes([[(0, 2)]], [0]) == [[0]]  # a self-loop
    assert graph.cyclic_classes([[]], [0]) == []  # no edge, no cycle
    # cycles of lengths 2 and 3 through node 0: gcd 1, one class
    succ = [[(1, 1), (2, 1)], [(0, 1)], [(3, 1)], [(0, 1)]]
    assert graph.cyclic_classes(succ, [0, 1, 2, 3]) == [[0, 1, 2, 3]]
    # cycles of lengths 2 and 4 through node 0: period 2
    succ = [[(1, 1), (2, 1)], [(0, 1)], [(3, 1)], [(4, 1)], [(0, 1)]]
    assert graph.cyclic_classes(succ, [0, 1, 2, 3, 4]) == [[0, 3], [1, 2, 4]]
    # reducible: a 3-cycle on 1..3 feeds a 2-cycle on 4, 5 and is fed by 0;
    # edges out of a component do not count
    succ = [[(1, 1)], [(2, 1)], [(3, 1), (4, 1)], [(1, 1)], [(5, 1)],
            [(4, 1)]]
    assert graph.cyclic_classes(succ, [1, 2, 3]) == [[1], [2], [3]]
    assert graph.cyclic_classes(succ, [4, 5]) == [[4], [5]]
    assert graph.cyclic_classes(succ, [0]) == []


def test_cyclic_classes_follow_every_edge():
    # on each component: h is the gcd of its simple cycle lengths, the
    # classes split its members with the least one in C_0, and every edge
    # inside it goes from some C_i to C_(i+1 mod h)
    periodic = 0
    for succ in random_graphs(400, seed=41):
        cycles = labelled_simple_cycles(succ)
        for members in graph.sccs(succ):
            classes = graph.cyclic_classes(succ, members)
            inside = [len(nodes) for nodes, _ in cycles
                      if nodes[0] in members]
            if not inside:
                assert classes == []
                continue
            h = 0
            for k in inside:
                h = gcd(h, k)
            assert len(classes) == h
            periodic += h > 1
            assert sorted(u for c in classes for u in c) == members
            assert classes[0][0] == members[0]
            assert all(c == sorted(c) for c in classes)
            cls = {u: i for i, c in enumerate(classes) for u in c}
            for u in members:
                for v, _ in succ[u]:
                    if v in cls:
                        assert cls[v] == (cls[u] + 1) % h
    assert periodic > 30
