"""Directed graphs as successor lists, and the algorithms run on them.

A graph on the nodes 0..n-1 is a list ``succ`` in which ``succ[u]`` holds
one ``(v, label)`` pair per edge u -> v; self-loops and parallel edges are
allowed.  Labels are digits in the expansion automaton and ``max_path``,
multiplicities in a count matrix and 0/1 weights in the zero-frequency bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence


def successors(matrix: Sequence[Sequence[int]]) -> list:
    """Successor lists of a square matrix: ``(j, m[i][j])`` per nonzero
    entry, columns ascending."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in matrix]


def trim(succ: list) -> list:
    """The subgraph on the nodes that start an infinite path, in O(V+E):
    nodes of out-degree zero leave by a worklist that lowers the out-degree
    of their predecessors.  Node numbers are kept; exactly the removed nodes
    have empty lists, and edges into them are dropped.  On an expansion
    automaton over {-1,0,1} at alpha >= 1/3 it removes nothing: the child
    intervals [d - u, d + u] cover s/alpha in [-1 - u, 1 + u] once
    u = alpha/(1 - alpha) >= 1/2, so every state has a child."""
    pred: list = [[] for _ in succ]
    for u, out in enumerate(succ):
        for v, _ in out:
            pred[v].append(u)
    degree = [len(out) for out in succ]
    dead = [u for u, k in enumerate(degree) if not k]
    for v in dead:  # the worklist grows while it is walked
        for u in pred[v]:
            degree[u] -= 1
            if not degree[u]:
                dead.append(u)
    gone = set(dead)
    return [[] if u in gone else [(v, x) for v, x in out if v not in gone]
            for u, out in enumerate(succ)]


def sccs(succ: list) -> list:
    """Strongly connected components (Kosaraju, iterative), as member
    lists in ascending order, ordered by their least member."""
    n = len(succ)
    pred: list = [[] for _ in range(n)]
    for u, out in enumerate(succ):
        for v, _ in out:
            pred[v].append(u)
    order, seen = [], [False] * n
    for s in range(n):
        if not seen[s]:
            seen[s] = True
            stack = [(s, iter(succ[s]))]
            while stack:
                u, it = stack[-1]
                for v, _ in it:
                    if not seen[v]:
                        seen[v] = True
                        stack.append((v, iter(succ[v])))
                        break
                else:
                    order.append(u)
                    stack.pop()
    comps, placed = [], [False] * n
    for s in reversed(order):
        if not placed[s]:
            placed[s] = True
            members = [s]
            for u in members:  # grows while it is walked
                for v in pred[u]:
                    if not placed[v]:
                        placed[v] = True
                        members.append(v)
            comps.append(sorted(members))
    return sorted(comps)


def cyclic_classes(succ: list, members: list) -> list:
    """The cyclic classes C_0 .. C_(h-1) of the strongly connected component
    ``members``, [] if it has no edge: each edge inside it goes from some
    C_i to C_(i+1 mod h), h its period (Berman and Plemmons 1979, ch. 2).
    Levels from one breadth-first search from its least member give h, the
    gcd of level(u) + 1 - level(v) over its edges, and C_i, the members of
    level i mod h."""
    inside, level, queue = set(members), {members[0]: 0}, [members[0]]
    for u in queue:  # grows while it is walked
        for v, _ in succ[u]:
            if v in inside and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    h = gcd(*(level[u] + 1 - level[v] for u in members
              for v, _ in succ[u] if v in inside))
    if not h:  # one member and no self-loop
        return []
    classes: list = [[] for _ in range(h)]
    for u in members:
        classes[level[u] % h].append(u)
    return classes


def max_path(succ: list) -> tuple:
    """Digits (pre, per), pre then per forever, of the lexicographically
    largest infinite path of a digit-labelled graph whose every node has an
    out-edge.  Moore's partition refinement ranks the nodes by the first k
    digits of their largest paths: rank_(k+1)(u) ranks the largest
    label * V + rank_k(v) over the edges u -> v.  Within V rounds no class
    splits, and then the ranks order the paths themselves, ties and all.
    Best edges from the top node, until a node repeats, spell the path."""
    n = len(succ)
    edges = [(u, v, d * n) for u, out in enumerate(succ) for v, d in out]
    floor = min(dn for _, _, dn in edges) - 1
    rank, classes, keys = [0] * n, 0, [0]
    while len(keys) > classes:
        classes, best = len(keys), [floor] * n
        for u, v, dn in edges:
            if dn + rank[v] > best[u]:
                best[u] = dn + rank[v]
        keys = sorted(set(best))
        rank = [*map(dict(zip(keys, range(n))).__getitem__, best)]
    seen, digits, u = {}, [], rank.index(classes - 1)
    while u not in seen:
        seen[u] = len(digits)
        d, u = next((d, v) for v, d in succ[u] if d * n + rank[v] == best[u])
        digits.append(d)
    return tuple(digits[:seen[u]]), tuple(digits[seen[u]:])


def max_cycle_mean(succ: list) -> Optional[Fraction]:
    """Largest mean label over the cycles of a graph with integer labels,
    or None if it has no cycle: Karp's algorithm on each strongly connected
    component, from its least member.  Candidate means stay int pairs
    (sum, length), compared by cross-multiplication, and the largest
    becomes one Fraction at the end."""
    best = None  # (p, q): the mean p/q, q > 0
    for members in sccs(succ):
        n = len(members)
        pos = {u: i for i, u in enumerate(members)}
        edges = [(pos[u], pos[v], w) for u in members for v, w in succ[u]
                 if v in pos]
        # d[k][v]: largest label sum of a k-edge walk from members[0] to v
        d = [[0] + [None] * (n - 1)]
        for _ in range(n):
            prev, row = d[-1], [None] * n
            for u, v, w in edges:
                if prev[u] is not None and (row[v] is None
                                            or prev[u] + w > row[v]):
                    row[v] = prev[u] + w
            d.append(row)
        for v in range(n):
            if d[n][v] is not None:
                (p, q), *rest = [(d[n][v] - d[k][v], n - k) for k in range(n)
                                 if d[k][v] is not None]
                for a, b in rest:  # the least (d_n - d_k) / (n - k)
                    if a * q < p * b:
                        p, q = a, b
                if best is None or p * best[1] > best[0] * q:
                    best = p, q
    return None if best is None else Fraction(*best)

