"""Constructions that manufacture uniquely colourable graphs.

The centrepiece is ``nu``: given a properly k-coloured seed H on n vertices
it returns a (k+1)n-vertex graph built from H, k extra copies of V(H) joined
to H in lexicographic-product style, and one star per seed vertex linking
its copies through the copy matching its colour class.  Seeds that are
uniquely k-colourable (k >= 3) yield uniquely (k+1)-colourable outputs.

Also here: single-vertex unique extensions, independent-transversal
expansion, the random sparse k-partite sampler with short-cycle removal,
and the hard-coded catalogue of the three minimal triangle-free balanced
uniquely 3-colourable graphs on 12 vertices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .colouring import Colouring, is_proper
from .graphs import (
    MAX_ORDER,
    Graph,
    OrderLimitError,
    _check_order,
    _shortest_cycle,
    complete_graph,
    path_graph,
)


class ConstructionError(ValueError):
    """Raised when a construction's input admits no valid output."""


@dataclass(frozen=True)
class ColouredGraph:
    """A graph together with a proper colouring of it."""

    graph: Graph
    colouring: Colouring

    def __post_init__(self):
        if not is_proper(self.graph, self.colouring):
            raise ConstructionError("colouring is not a proper colouring of the graph")

    @property
    def k(self) -> int:
        return self.colouring.k


def _copy_index(n: int, copy: int, v: int) -> int:
    # copy 0 is the seed itself; copies 1..k hold the duplicated vertex sets
    return n * copy + v


def nu(h: ColouredGraph) -> ColouredGraph:
    """The (k+1)n-vertex expansion of a k-coloured seed.

    Vertex layout: indices 0..n-1 are the seed; copy p (1 <= p <= k) of seed
    vertex v sits at index n*p + v.  Edges:

    * the seed's own edges,
    * each copy repeats the seed's edges internally,
    * seed vertex v is joined to copy-p images of each seed neighbour of v,
    * the copies of a seed vertex v in class i form a star centred on v's
      copy i+1 (the copy matching its colour class).

    The output colouring keeps each seed class together with its non-central
    copies and adds one new class holding all star centres.
    """
    g, c = h.graph, h.colouring
    n, k = g.n, c.k
    if n == 0:
        raise ConstructionError("seed graph must have at least one vertex")
    order = (k + 1) * n
    _check_order(order, "expansion order")  # before the edge list is built
    edges: list[tuple[int, int]] = list(g.edges())
    for u, v in g.edges():
        for p in range(1, k + 1):
            edges.append((_copy_index(n, p, u), _copy_index(n, p, v)))
            edges.append((u, _copy_index(n, p, v)))
            edges.append((v, _copy_index(n, p, u)))
    for v in range(n):
        centre = _copy_index(n, c.assignment[v] + 1, v)
        for q in range(1, k + 1):
            other = _copy_index(n, q, v)
            if other != centre:
                edges.append((centre, other))
    out = Graph(order, edges)

    assignment = [0] * order
    new_class = k
    for v in range(n):
        i = c.assignment[v]
        assignment[v] = i
        for p in range(1, k + 1):
            idx = _copy_index(n, p, v)
            assignment[idx] = new_class if p == i + 1 else i
    out_col = Colouring(assignment)

    # structural identities of the expansion, checked on every call
    m = g.edge_count()
    assert out.n == (k + 1) * n
    assert out.edge_count() == (3 * k + 1) * m + (k - 1) * n
    assert out_col.k == k + 1 and is_proper(out, out_col)
    sizes = out_col.class_sizes()
    seed_sizes = c.class_sizes()
    assert sizes[new_class] == n
    assert all(sizes[i] == k * seed_sizes[i] for i in range(k))
    for v in range(n):
        assert out.degree(v) == (k + 1) * g.degree(v)
        for p in range(1, k + 1):
            expect = 2 * g.degree(v) + (k - 1 if p == c.assignment[v] + 1 else 1)
            assert out.degree(_copy_index(n, p, v)) == expect
    assert all(out.adj[v] & ((1 << n) - 1) == g.adj[v] for v in range(n))  # seed induced

    return ColouredGraph(out, out_col)


def iterate_nu(h: ColouredGraph, times: int) -> ColouredGraph:
    """Apply ``nu`` repeatedly; raises OrderLimitError when a step overflows."""
    if times < 0:
        raise ValueError("times must be non-negative")
    for _ in range(times):
        h = nu(h)
    return h


def extend_uniquely(h: ColouredGraph, class_index: int) -> ColouredGraph:
    """Add one vertex adjacent to everything outside one class, joining it.

    Preserves unique k-colourability of the seed: the new vertex dominates
    every other class, so it can only ever sit in the chosen one.
    """
    g, c = h.graph, h.colouring
    if not 0 <= class_index < c.k:
        raise ConstructionError(f"class index {class_index} out of range 0..{c.k - 1}")
    mask = ((1 << g.n) - 1) & ~c.classes()[class_index]
    out = g.with_vertex(mask)
    assignment = list(c.assignment) + [class_index]
    return ColouredGraph(out, Colouring(assignment))


def independent_transversals(h: ColouredGraph, size: int) -> list[tuple[int, ...]]:
    """All independent vertex sets of the given size meeting every class."""
    g, c = h.graph, h.colouring
    masks = c.classes()
    out = []
    for cand in combinations(range(g.n), size):
        cmask = 0
        ok = True
        for v in cand:
            if g.adj[v] & cmask:
                ok = False
                break
            cmask |= 1 << v
        if not ok:
            continue
        if all(cmask & cl for cl in masks):
            out.append(cand)
    return out


def nesetril_step(h: ColouredGraph) -> ColouredGraph:
    """Expand by one colour class using independent transversals.

    With j+1 input classes, every independent set of size j+2 that meets all
    classes becomes one new vertex adjacent exactly to its members; the new
    vertices form the new class (mutually non-adjacent).  Raises
    ConstructionError when no such set exists.
    """
    g, c = h.graph, h.colouring
    if c.k < 2:
        raise ConstructionError("expansion needs at least two input classes")
    size = c.k + 1
    members = independent_transversals(h, size)
    if not members:
        raise ConstructionError("no independent transversals of the required size")
    edges = list(g.edges())
    assignment = list(c.assignment)
    for i, group in enumerate(members):
        w = g.n + i
        edges.extend((w, v) for v in group)
        assignment.append(c.k)
    return ColouredGraph(Graph(g.n + len(members), edges), Colouring(assignment))


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of the sparse random k-partite sampler.

    ``epsilon`` steers the edge count m = round(C(k,2) * n^(1+epsilon));
    staying below 1/(4*girth_target) keeps the parameters in the regime
    where sparse sampling plus short-cycle surgery is known to work at
    scale.  Larger epsilon values are accepted (callers may want denser
    experiments) but flagged via ``epsilon_in_safe_range``.
    """

    k: int
    n: int
    epsilon: Fraction
    girth_target: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("sampler needs at least two parts")
        if self.n < 1:
            raise ValueError("parts must be non-empty")
        if self.k * self.n > MAX_ORDER:
            raise OrderLimitError(f"order {self.k * self.n} exceeds {MAX_ORDER}")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        if self.girth_target < 2:
            raise ValueError("girth target must be at least 2")

    @property
    def epsilon_in_safe_range(self) -> bool:
        return self.epsilon < Fraction(1, 4 * self.girth_target)

    @property
    def edge_target(self) -> int:
        raw = (self.k * (self.k - 1) / 2) * self.n ** (1 + float(self.epsilon))
        return math.floor(raw + 0.5)  # round half up


def bollobas_sauer_sample(cfg: SamplerConfig) -> ColouredGraph:
    """Uniform sparse k-partite graph: m distinct cross-part edges, seeded.

    Vertices n*i..n*i+n-1 form part i; the m edge slots are drawn uniformly
    without replacement from all C(k,2)*n^2 cross-part slots.  Deterministic
    for a fixed config.
    """
    k, n = cfg.k, cfg.n
    m = cfg.edge_target
    pairs = list(combinations(range(k), 2))
    total = len(pairs) * n * n
    if m > total:
        raise ConstructionError(f"edge target {m} exceeds the {total} available slots")
    rng = random.Random(cfg.seed)
    slots = rng.sample(range(total), m)
    edges = []
    for slot in slots:
        pair, offset = divmod(slot, n * n)
        a, b = divmod(offset, n)
        i, j = pairs[pair]
        edges.append((n * i + a, n * j + b))
    g = Graph(k * n, edges)
    assignment = [v // n for v in range(k * n)]
    return ColouredGraph(g, Colouring(assignment))


def remove_short_cycles(g: Graph, girth_target: int) -> tuple[Graph, int]:
    """Delete edges until no cycle shorter than the target remains.

    Repeatedly finds a shortest cycle and removes its lexicographically
    smallest edge; deterministic.  Returns (graph, removed edge count).
    Removing an edge never shortens the girth, so each search after the
    first stops at the first root with a cycle as short as the last one.
    """
    if girth_target < 3:
        raise ValueError("girth target must be at least 3")
    removed = 0
    length = 3
    while True:
        found = _shortest_cycle(g, length)
        if found is None or found[0] >= girth_target:
            return g, removed
        length, cyc = found
        cycle_edges = []
        for idx, u in enumerate(cyc):
            v = cyc[(idx + 1) % length]
            cycle_edges.append((min(u, v), max(u, v)))
        u, v = min(cycle_edges)
        rows = list(g.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        g = Graph.from_rows(rows)
        removed += 1


# -- the minimal triangle-free balanced witnesses ---------------------------

# Vertex layout: 0..7 ring vertices, 8..11 the four outer vertices.
_RIM = [(i, (i + 1) % 8) for i in range(8)]
_DIAGONALS = [(i, i + 4) for i in range(4)]
_SPOKES = [(8, 1), (8, 7), (9, 0), (9, 6), (10, 5), (10, 3), (11, 2)]
_OUTER = [(11, 8), (10, 9), (10, 11)]
_BASE_EDGES = _RIM + _DIAGONALS + _SPOKES + _OUTER
_WITNESS_EXTRA = {"figure1a": [], "figure1b": [(11, 4)], "figure1c": [(8, 4)]}
_WITNESS_CLASSES = [[2, 5, 8, 9], [1, 4, 7, 10], [0, 3, 6, 11]]


def figure1_graphs() -> dict[str, ColouredGraph]:
    """The three 12-vertex triangle-free balanced uniquely 3-colourable graphs.

    All three share a 22-edge core (an 8-ring with four long chords plus four
    outer vertices); the second and third add one extra edge each.  The
    common colouring splits the vertices into three classes of four.
    """
    out = {}
    for name, extra in _WITNESS_EXTRA.items():
        g = Graph(12, _BASE_EDGES + extra)
        out[name] = ColouredGraph(g, Colouring.from_classes(12, _WITNESS_CLASSES))
    return out


def builtin_catalog() -> dict[str, ColouredGraph]:
    """Named seed graphs: complete graphs K3..K8, paths P4..P12, the
    12-vertex witnesses.  Each carries its natural proper colouring."""
    out: dict[str, ColouredGraph] = {}
    for k in range(3, 9):
        out[f"K{k}"] = ColouredGraph(complete_graph(k), Colouring(list(range(k))))
    for n in range(4, 13):
        out[f"P{n}"] = ColouredGraph(path_graph(n), Colouring([v % 2 for v in range(n)]))
    out.update(figure1_graphs())
    return out
