"""Shared brute-force oracles.

Everything here recomputes results by direct enumeration, with no code
shared with the library's search machinery, so that agreement between the
two routes is meaningful evidence of correctness.  The ``forked_pools``
fixture makes a census with two workers fork on any host.
"""

from __future__ import annotations

import itertools
import os
import random
import sys

import pytest

# a bytecode cache under src/ would shorten the benchmark's setup_s, so
# neither the suite nor the interpreters it starts write one
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from unicolor.graphs import Graph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def brute_count_partitions(g: Graph, k: int, cap: int | None = None) -> int:
    """Partitions of V into at most k non-empty independent classes.

    Enumerates every set partition via restricted-growth strings and filters
    for independence afterwards; exponential, for small n only.
    """
    n = g.n
    if n == 0:
        return 1
    count = 0
    for labels in _restricted_growth(n):
        classes = max(labels) + 1
        if classes > k:
            continue
        if all(not g.has_edge(u, v) for u in range(n) for v in range(u + 1, n) if labels[u] == labels[v]):
            count += 1
            if cap is not None and count >= cap:
                return count
    return count


def _restricted_growth(n: int):
    labels = [0] * n

    def rec(i: int, top: int):
        if i == n:
            yield tuple(labels)
            return
        for c in range(top + 2):
            labels[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(1, 0)


def brute_chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if brute_count_partitions(g, k, cap=1) > 0:
            return k
    raise AssertionError("unreachable")


def brute_sigma(g: Graph) -> int:
    """Smallest class size over the partitions into chi(g) independent
    classes, by restricted-growth strings; g must have a vertex."""
    n = g.n
    chi = brute_chromatic_number(g)
    best = n
    for labels in _restricted_growth(n):
        if max(labels) + 1 != chi:
            continue
        if any(g.has_edge(u, v) for u in range(n) for v in range(u + 1, n) if labels[u] == labels[v]):
            continue
        best = min(best, *(labels.count(c) for c in range(chi)))
    return best


def brute_clique_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                return size
    return best


def _connected_after_removal(g: Graph, removed: set[int]) -> bool:
    keep = [v for v in range(g.n) if v not in removed]
    if not keep:
        return True
    seen = {keep[0]}
    todo = [keep[0]]
    while todo:
        u = todo.pop()
        for v in keep:
            if v not in seen and g.has_edge(u, v):
                seen.add(v)
                todo.append(v)
    return len(seen) == len(keep)


def brute_vertex_connectivity_at_least(g: Graph, t: int) -> bool:
    if t <= 0:
        return True
    n = g.n
    if all(g.has_edge(u, v) for u in range(n) for v in range(u + 1, n)):
        return n >= t + 1  # complete graphs by convention
    if not _connected_after_removal(g, set()):
        return False
    for size in range(1, t):
        for combo in itertools.combinations(range(n), size):
            if not _connected_after_removal(g, set(combo)):
                return False
    return True


def brute_is_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    n = g1.n
    for perm in itertools.permutations(range(n)):
        if all(g2.has_edge(perm[u], perm[v]) == g1.has_edge(u, v)
               for u in range(n) for v in range(u + 1, n)):
            return True
    return False


def brute_automorphism_count(g: Graph) -> int:
    n = g.n
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(g.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
               for u in range(n) for v in range(u + 1, n)):
            count += 1
    return count


def group_order(gens: list[list[int]], n: int) -> int:
    """Order of the permutation group on 0..n-1 that ``gens`` generate, by
    listing every element."""
    identity = tuple(range(n))
    seen = {identity}
    todo = [identity]
    for p in todo:
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return len(seen)


def is_automorphism(g: Graph, perm: list[int]) -> bool:
    n = g.n
    return sorted(perm) == list(range(n)) and all(
        g.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
        for u in range(n) for v in range(u + 1, n))


def _brute_cells(g: Graph) -> list[list[int]]:
    """The cells of iterated neighbourhood refinement in ascending colour
    order: colours rank degrees first, then each round ranks the pairs
    (colour, sorted colours of the neighbours) until no cell splits."""
    n = g.n
    cols = [g.degree(v) for v in range(n)]
    while True:
        sigs = [(cols[v], sorted(cols[u] for u in range(n) if g.has_edge(u, v)))
                for v in range(n)]
        order = sorted({(c, tuple(nb)) for c, nb in sigs})
        new = [order.index((c, tuple(nb))) for c, nb in sigs]
        if len(set(new)) == len(set(cols)):
            break
        cols = new
    return [[v for v in range(n) if new[v] == c] for c in sorted(set(new))]


def brute_canonical_graph6(g: Graph) -> bytes:
    """graph6 bytes of the labelling with the greatest word sequence among
    all labellings that list the refined cells in ascending colour order.

    The word of the vertex at position j has bit n-1-i set iff it is
    adjacent to the vertex at position i < j; word sequences compare
    lexicographically.  Tries every such labelling; for n <= 7 only.
    """
    n = g.n
    best_words = best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in _brute_cells(g))):
        order = [v for part in parts for v in part]
        words = [sum(1 << (n - 1 - i) for i in range(j) if g.has_edge(order[i], order[j]))
                 for j in range(n)]
        if best_words is None or words > best_words:
            best_words, best = words, order
    bits = [int(g.has_edge(best[i], best[j])) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    digits = [63 + int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return bytes([63 + n] + digits)


@pytest.fixture
def forked_pools(monkeypatch):
    """Two CPUs on every host, so that a census with threads=2 forks even on
    a one-CPU runner; the list of the pool sizes the census opens."""
    import multiprocessing

    pools: list[int] = []
    get_context = multiprocessing.get_context

    class Recording:
        def __init__(self, method):
            self.ctx = get_context(method)

        def Pool(self, processes):
            pools.append(processes)
            return self.ctx.Pool(processes=processes)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", Recording)
    return pools
