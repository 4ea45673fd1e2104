"""Bit-matrix simple graphs of order <= 1,024 and structural primitives on them.

Vertices are 0..n-1.  Adjacency is a tuple of n Python-int bitmasks; bit u of
row v is set iff uv is an edge.  All operations treat graphs as immutable
values; "mutators" return new graphs.  The order cap ``MAX_ORDER`` bounds what
outside input (graph6 strings, constructions, sampler sizes) can ask for; only
``_check_order`` here and the sampler's configuration test it.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations
from typing import Iterable, Sequence

from .budget import Budget

MAX_ORDER = 1024
CANON_MAX_ORDER = 32

# the clique and colouring searches nest one Python frame per vertex
sys.setrecursionlimit(max(sys.getrecursionlimit(), MAX_ORDER + 1000))

_G6_LONG = ord("~") - 63  # the code that prefixes a multi-byte order


class Graph6Error(ValueError):
    """Raised for malformed graph6 input."""


class OrderLimitError(ValueError):
    """Raised when an operation would exceed a supported vertex count."""


def _check_order(n: int, what: str = "order") -> None:
    """Raise OrderLimitError if an order of ``n`` vertices is past the cap."""
    if n > MAX_ORDER:
        raise OrderLimitError(f"{what} {n} exceeds {MAX_ORDER}")


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"order {n} is negative")
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Graph":
        """Trusted constructor from symmetric, irreflexive bitmask rows."""
        g = object.__new__(cls)
        g.n = len(rows)
        g.adj = tuple(rows)
        return g

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.adj]

    def min_degree(self) -> int:
        return min((r.bit_count() for r in self.adj), default=0)

    def max_degree(self) -> int:
        return max((r.bit_count() for r in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            m = self.adj[v] >> (v + 1)
            base = v + 1
            while m:
                b = m & -m
                out.append((v, base + b.bit_length() - 1))
                m ^= b
        return out

    def neighbours(self, v: int) -> int:
        """Neighbourhood of v as a bitmask."""
        return self.adj[v]

    # -- derived graphs ------------------------------------------------

    def with_vertex(self, nbhd_mask: int) -> "Graph":
        """New graph with one extra vertex adjacent to the masked vertices."""
        n = self.n
        _check_order(n + 1)
        if nbhd_mask >> n:
            raise ValueError("neighbourhood mask addresses missing vertices")
        bit = 1 << n
        rows = [self.adj[v] | bit if (nbhd_mask >> v) & 1 else self.adj[v] for v in range(n)]
        rows.append(nbhd_mask)
        return Graph.from_rows(rows)

    def without_vertex(self, v: int) -> "Graph":
        """Induced subgraph on all vertices but v (indices above v shift down)."""
        n = self.n
        low = (1 << v) - 1
        rows = []
        for u in range(n):
            if u == v:
                continue
            r = self.adj[u]
            rows.append((r & low) | ((r >> (v + 1)) << v))
        return Graph.from_rows(rows)

    def permuted(self, placement: Sequence[int]) -> "Graph":
        """Relabelled copy: new vertex i is old vertex placement[i]."""
        n = self.n
        inv = [0] * n
        for i, v in enumerate(placement):
            inv[v] = i
        rows = [0] * n
        for i, v in enumerate(placement):
            m = self.adj[v]
            r = 0
            while m:
                b = m & -m
                r |= 1 << inv[b.bit_length() - 1]
                m ^= b
            rows[i] = r
        return Graph.from_rows(rows)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph.from_rows([full & ~(r | (1 << v)) for v, r in enumerate(self.adj)])

    # -- value semantics -----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


# -- builders ------------------------------------------------------------


def complete_graph(k: int) -> Graph:
    return Graph(k, combinations(range(k), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union of g1 and g2 plus all edges between the two parts."""
    _check_order(g1.n + g2.n, "join order")
    left_full = (1 << g1.n) - 1
    right_full = ((1 << g2.n) - 1) << g1.n
    rows = [r | right_full for r in g1.adj]
    rows += [(r << g1.n) | left_full for r in g2.adj]
    return Graph.from_rows(rows)


# -- graph6 interchange ----------------------------------------------------


def _g6_order_prefix(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    # 63..258047 use "~" plus three 6-bit digits; MAX_ORDER keeps us here
    return "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))


def emit_graph6(g: Graph) -> str:
    """Standard graph6 encoding (column-major upper triangle, 6 bits/char)."""
    out = [_g6_order_prefix(g.n)]
    acc = 0
    nbits = 0
    for col in range(1, g.n):
        row = g.adj[col]
        for i in range(col):
            acc = (acc << 1) | ((row >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string; raises Graph6Error with a specific reason.

    Accepts the optional ``>>graph6<<`` header and surrounding whitespace.
    """
    s = text.strip()
    if s.startswith(">>"):
        header = ">>graph6<<"
        if not s.startswith(header):
            raise Graph6Error("malformed graph6 header")
        s = s[len(header):]
    if not s:
        raise Graph6Error("empty graph6 string")
    codes = []
    for ch in s:
        o = ord(ch)
        if o < 63 or o > 126:
            raise Graph6Error(f"invalid graph6 character {ch!r}")
        codes.append(o - 63)
    if codes[0] == _G6_LONG:
        start = 2 if codes[1:2] == [_G6_LONG] else 1  # "~~" leads six digits, "~" three
        pos = 4 * start
        if len(codes) < pos:
            raise Graph6Error("truncated graph6 order field")
        n = 0
        for code in codes[start:pos]:
            n = (n << 6) | code
        if start == 2 and n < 258048:
            raise Graph6Error(f"graph6 order field '~~' used for order {n} below 258048")
        if start == 1 and n < 63:
            raise Graph6Error(f"graph6 order field '~' used for order {n} below 63")
    else:
        n, pos = codes[0], 1
    if n > MAX_ORDER:
        raise Graph6Error(f"graph6 order {n} exceeds supported maximum {MAX_ORDER}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    got = len(codes) - pos
    if got < need:
        raise Graph6Error("truncated graph6 data")
    if got > need:
        raise Graph6Error("trailing garbage after graph6 data")
    rows = [0] * n
    bit = 0
    i, col = 0, 1  # the pair of the next bit, in column-major upper triangle
    for code in codes[pos:]:
        for shift in (5, 4, 3, 2, 1, 0):
            if bit >= nbits:
                if (code >> shift) & 1:
                    raise Graph6Error("nonzero padding bits in graph6 data")
                continue
            if (code >> shift) & 1:
                rows[i] |= 1 << col
                rows[col] |= 1 << i
            bit += 1
            i += 1
            if i == col:
                i = 0
                col += 1
    return Graph.from_rows(rows)


# -- connectivity ----------------------------------------------------------


def _component(adj: Sequence[int], seed: int, mask: int) -> int:
    """The component of the seed vertex, given as a one-bit mask inside
    ``mask``, in the subgraph induced on ``mask``; a bitmask."""
    seen = frontier = seed
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= adj[b.bit_length() - 1]
            m ^= b
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    """Connectivity; graphs of order 0 and 1 count as connected."""
    if g.n <= 1:
        return True
    full = (1 << g.n) - 1
    return _component(g.adj, 1, full) == full


def _split_rows(g: Graph) -> list[int]:
    """Residual rows of g's node-split digraph before any flow.

    Vertex v becomes in(v) = v and out(v) = n + v, with one unit arc
    in(v) -> out(v) and one unit arc out(u) -> in(v) for each edge uv.  Bit b
    of row a is set iff arc a -> b has residual capacity; no two arcs join
    the same pair of nodes in opposite directions, so capacities stay 0 or 1.
    """
    n = g.n
    return [1 << (n + v) for v in range(n)] + list(g.adj)


def _max_vertex_flow(
    split: Sequence[int], s: int, t: int, cap_at: int, budget: Budget | None = None
) -> int:
    """Number of internally vertex-disjoint s-t paths, capped at cap_at.

    ``split`` holds the residual rows that _split_rows builds; they are
    copied, not changed.  s and t must not be adjacent.

    The flow starts warm: the paths s -> x -> t through the common
    neighbours x are internally disjoint (distinct middle vertices), so
    they are routed at once, and a pair with at least cap_at common
    neighbours returns cap_at without copying a row.  Augmenting from any
    feasible flow reaches the same capped maximum, so the answer is the
    cold start's.

    Each further augmenting path is found by a breadth-first search from
    out(s), one layer of nodes (a bitmask) at a time; it spends one budget
    node, and the warm start spends none.  A node's unseen successors are
    ``row & ~seen``.  The in(v) of a vertex that carries no flow has the
    one arc in(v) -> out(v), so those nodes of a layer step to their out
    nodes together.  The search ends at the first layer that holds a node
    with an unused arc into in(t), and parents are looked up only along
    the path found.
    """
    n = len(split) >> 1
    src = n + s
    common = split[src] & split[n + t]
    flow = common.bit_count()
    if flow >= cap_at:
        return cap_at
    res = list(split)
    # out(s) -> in(x) -> out(x) -> in(t), toggled as an augmenting path is
    res[src] ^= common
    res[t] |= common << n
    m = common
    while m:
        b = m & -m
        m ^= b
        x = b.bit_length() - 1
        res[x] = 1 << src
        res[n + x] ^= b | 1 << t
    # out(x) for each neighbour x of t; once out(x) -> in(t) carries flow,
    # no search reaches out(x) again, as its one residual in-arc leaves in(t)
    into_t = split[n + t] << n
    # vertices that carry no flow
    free = ((1 << n) - 1) ^ common
    snk = 1 << t
    while flow < cap_at:
        if budget is not None:
            budget.spend()
        seen = frontier = 1 << src
        layers = []  # per layer: (node, the nodes it reached first)
        while frontier:
            hit = frontier & into_t
            if hit:
                a = (hit & -hit).bit_length() - 1
                layers.append([(a, snk)])
                break
            bulk = frontier & free
            nxt = (bulk << n) & ~seen
            seen |= nxt
            layer = [(-1, nxt)]  # -1: out(v) was reached from in(v)
            frontier ^= bulk
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                a = b.bit_length() - 1
                new = res[a] & ~seen
                if new:
                    seen |= new
                    nxt |= new
                    layer.append((a, new))
            layers.append(layer)
            frontier = nxt
        else:
            break
        b = t
        for layer in reversed(layers):
            for a, new in layer:
                if new >> b & 1:
                    break
            if a < 0:
                a = b - n
            res[a] ^= 1 << b
            res[b] ^= 1 << a
            if abs(a - b) == n:  # in(v) -> out(v) used, or its flow cancelled
                free ^= 1 << min(a, b)
            b = a
        flow += 1
    return flow


def vertex_connectivity_at_least(g: Graph, t: int, budget: Budget | None = None) -> bool:
    """True iff g is complete on >= t+1 vertices or no < t vertices separate it.

    Even's test (S. Even, SIAM J. Comput. 4, 1975).  A separator S with
    |S| < t misses one of the first t vertices, u; some vertex w cut off
    from u by S is then not adjacent to u and has at most |S| < t internally
    vertex-disjoint u-w paths (Menger).  So capped flows from each of
    u = 0..t-1 to its non-neighbours decide the question: at most t*(n-1)
    flows, on residual rows built once.  Minimum degree below t (kappa <=
    delta) and t = 1 (connectivity) are answered without flows.  Each flow
    starts from the paths through the pair's common neighbours, which are
    internally disjoint, so a pair with t of them is decided without a
    search and the answer is unchanged.  Each augmenting-path search spends
    one node of ``budget``; BudgetExceededError propagates.
    """
    if t <= 0:
        return True
    n = g.n
    full = (1 << n) - 1
    complete = all(g.adj[v] == full ^ (1 << v) for v in range(n))
    if complete:
        return n >= t + 1
    if g.min_degree() < t:
        return False
    if t == 1:
        return is_connected(g)
    split = _split_rows(g)
    for u in range(t):
        # pairs with an earlier source were decided from that source
        todo = full & ~g.adj[u] & ~((2 << u) - 1)
        while todo:
            b = todo & -todo
            todo ^= b
            if _max_vertex_flow(split, u, b.bit_length() - 1, t, budget) < t:
                return False
    return True


# -- girth -----------------------------------------------------------------


def shortest_cycle(g: Graph) -> tuple[int, list[int]] | None:
    """A shortest cycle as (length, vertex list), or None for forests.

    Deterministic: BFS from each root in index order, ascending neighbour
    order, keeping the first strict improvement.
    """
    return _shortest_cycle(g, 3)


def _shortest_cycle(g: Graph, floor: int) -> tuple[int, list[int]] | None:
    """shortest_cycle(g), given that g has no cycle shorter than ``floor``.

    The search stops at the first root that finds a cycle of length
    ``floor``, since no later root can improve on it strictly.
    """
    n, adj = g.n, g.adj
    best_len = -1
    best: list[int] | None = None
    for root in range(n):
        if best_len == floor:
            break
        dist = [-1] * n
        par = [-1] * n
        dist[root] = 0
        queue = [root]
        for u in queue:
            du = dist[u]
            if best_len > 0 and 2 * du + 1 >= best_len:
                break
            m = adj[u]
            while m:
                b = m & -m
                v = b.bit_length() - 1
                m ^= b
                if dist[v] < 0:
                    dist[v] = du + 1
                    par[v] = u
                    queue.append(v)
                elif v != par[u]:
                    length = du + dist[v] + 1
                    if best_len < 0 or length < best_len:
                        best_len = length
                        best = _rebuild_cycle(par, u, v)
    if best is None:
        return None
    return best_len, best


def _rebuild_cycle(par: list[int], u: int, v: int) -> list[int]:
    path_u = [u]
    while par[path_u[-1]] >= 0:
        path_u.append(par[path_u[-1]])
    on_u = {x: i for i, x in enumerate(path_u)}
    path_v = [v]
    while path_v[-1] not in on_u:
        path_v.append(par[path_v[-1]])
    meet = path_v[-1]
    return path_u[: on_u[meet] + 1] + path_v[-2::-1]


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; math.inf for forests."""
    found = shortest_cycle(g)
    return math.inf if found is None else found[0]


# -- cliques ---------------------------------------------------------------


def clique_number(g: Graph) -> int:
    """Exact clique number via branch and bound with a greedy colour bound."""
    n = g.n
    if n == 0:
        return 0
    adj = g.adj
    best = 1

    def expand(cand: int, size: int) -> None:
        nonlocal best
        # greedy colouring of the candidate set; colour index bounds clique growth
        order: list[tuple[int, int]] = []
        colour = 0
        rest = cand
        while rest:
            colour += 1
            avail = rest
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                order.append((v, colour))
                avail &= ~adj[v]
                avail ^= b
                rest ^= b
        for v, c in reversed(order):
            if size + c <= best:
                return
            sub = cand & adj[v]
            if size + 1 > best:
                best = size + 1
            if sub:
                expand(sub, size + 1)
            cand &= ~(1 << v)

    expand((1 << n) - 1, 0)
    del expand  # the search refers to itself; drop that cycle for reference counting
    return best


def independence_number(g: Graph) -> int:
    return clique_number(g.complement())


def is_triangle_free(g: Graph) -> bool:
    adj = g.adj
    for u, v in g.edges():
        if adj[u] & adj[v]:
            return False
    return True


# -- canonical forms -------------------------------------------------------


def _neighbour_lists(rows: Sequence[int]) -> list[list[int]]:
    """Each vertex's neighbours in ascending order, read off its bitmask row."""
    nbrs = []
    for r in rows:
        nb = []
        while r:
            b = r & -r
            nb.append(b.bit_length() - 1)
            r ^= b
        nbrs.append(nb)
    return nbrs


def _refine_colours(
    n: int, nbrs: Sequence[Sequence[int]], last: int | None = None
) -> list[list[int]] | None:
    """Iterated neighbourhood refinement, on the neighbour lists ``nbrs``:
    the cells of a stable, isomorphism-invariant colouring, in ascending
    colour order, each listing its vertices in ascending order.  A vertex's
    colour is the index of its cell.

    The first cells group the vertices by degree.  Each round splits every
    cell by its vertices' sorted tuples of neighbour colours under the
    previous round's cells, smallest tuple first, and the refinement ends
    with the first round that splits no cell.  One-vertex cells cannot
    split and are skipped.  A tuple is read as one number, the sum over the
    neighbours of B**(m-1-c) for a neighbour of colour c among m cells,
    where B is a power of two above every degree: the vertices of one cell
    have one degree, so a larger sum is a smaller tuple, and a cell's parts
    follow in descending order of their sums.  A vertex that leaves the top
    cell never returns to it.

    With ``last`` given, the result is None from the first round in which
    vertex ``last`` is not in the top cell, as it then cannot be placed last
    by the canonical labelling.  Each round splits the top cell first, so
    such a round ends there.
    """
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(len(nbrs[v]), []).append(v)
    cells = list(map(by_degree.__getitem__, sorted(by_degree)))
    if last is not None and last not in cells[-1]:
        return None
    digit = n.bit_length()  # bits of B
    weight = [0] * n
    while len(cells) < n:
        shift = 0
        for cell in reversed(cells):
            w = 1 << shift
            for v in cell:
                weight[v] = w
            shift += digit
        new: list[list[int]] = []  # the top cell's parts, then every other cell's
        top = 0  # the number of parts of the top cell
        for cell in (cells[-1], *cells[:-1]):
            parts: dict[int, list[int]] = {}
            if len(cell) > 1:
                for v in cell:
                    parts.setdefault(sum(map(weight.__getitem__, nbrs[v])), []).append(v)
            if len(parts) > 1:
                new += map(parts.__getitem__, sorted(parts, reverse=True))
            else:
                new.append(cell)
            if not top:
                top = len(new)
                if last is not None and last not in new[-1]:
                    return None
        if len(new) == len(cells):
            return cells
        cells = new[top:] + new[:top]
    return cells


def _canonical_placement(
    n: int,
    rows: Sequence[int],
    cells: Sequence[Sequence[int]],
    autos: list[list[int]] | None,
    nbrs: Sequence[Sequence[int]],
) -> list[int]:
    """Vertex placement maximising the adjacency bitstring among labellings
    that list refinement cells in ascending colour order.

    Exact: refinement cells are isomorphism-invariant, so restricting the
    search to cell-respecting labellings keeps the form canonical while
    pruning most of the n! permutations.  Twin vertices (identical rows) are
    interchangeable and only explored once per search node.  ``cells`` are
    the graph's refined cells as _refine_colours lists them, and ``nbrs``
    its neighbour lists.  A discrete refinement, n one-vertex cells, is its
    own placement.

    Labellings are compared by their words: the word of the vertex placed at
    position j has bit n-1-i set iff it is adjacent to the vertex placed at
    position i < j, and the search returns the placement of the first leaf
    whose sequence of words is greatest.  A position is forced when one
    vertex of its cell is left for it: every position of a one-vertex cell,
    and the last position of any other cell.  A run of forced positions is
    placed in a loop inside one search frame, without branching: each word
    is compared with the best leaf's word at its position, and the run is
    undone when the frame returns.  A single candidate has no twin to skip,
    so this is what a frame per position would do.  A discrete refinement
    is one such run.

    When ``autos`` is a list, automorphisms the search meets are appended to
    it as permutation lists (vertex x maps to p[x]): for each leaf equal to
    the best so far, best_place[i] -> place[i]; for each twin, the first
    time it is skipped, its transposition with the twin of the same row
    explored at that node.  Every best leaf outside a skipped subtree is
    such a leaf, and a skipped subtree is the image of an explored one under
    a transposition of twins, so together they generate the whole
    automorphism group.  One transposition per twin is enough.  Twins share
    a cell and have equal words, and the first node the search reaches at
    the start of that cell comes before any leaf, so nothing is cut there:
    it explores the lowest twin of each class, skips the others, and records
    each one's transposition with the lowest.  These generate every
    permutation of the class, which holds every later transposition.
    """
    if len(cells) == n:
        return [cell[0] for cell in cells]
    pos_cells: list[Sequence[int]] = []
    cell_mask: list[int] = []  # per position, its cell as a bitmask
    for cell in cells:
        mask = 0
        for v in cell:
            mask |= 1 << v
        pos_cells += [cell] * len(cell)
        cell_mask += [mask] * len(cell)
    # per position, the end of the run of forced positions that starts there
    run_end = [n] * (n + 1)
    for i in range(n - 2, -1, -1):
        run_end[i] = run_end[i + 1] if cell_mask[i + 1] != cell_mask[i] else i

    best: list[int] | None = None
    best_place: list[int] | None = None
    gen = 0
    # per-vertex adjacency word against the placed prefix: bit n-1-i is set
    # when the vertex is adjacent to the vertex placed at position i
    w = [0] * n
    # the vertex and word placed at each position of the current path
    place = [0] * n
    cur = [0] * n
    used = 0  # the vertices placed at positions that are not forced
    swapped = 0  # the twins whose transposition autos holds

    def rec(pos: int, strictly_greater: bool) -> None:
        nonlocal best, best_place, gen, used, swapped
        start = pos
        end = run_end[pos]
        while pos < end:
            v = (cell_mask[pos] & ~used).bit_length() - 1
            wv = w[v]
            if not strictly_greater and best is not None:
                b = best[pos]
                if wv < b:
                    break
                strictly_greater = wv > b
            place[pos] = v
            cur[pos] = wv
            bit = 1 << (n - 1 - pos)
            for x in nbrs[v]:
                w[x] |= bit
            pos += 1
        else:
            if pos == n:
                if best is None or strictly_greater:
                    best = cur.copy()
                    best_place = place.copy()
                    gen += 1
                elif autos is not None:
                    perm = [0] * n
                    for x, y in zip(best_place, place):
                        perm[x] = y
                    autos.append(perm)
            else:
                cands = [v for v in pos_cells[pos] if not (used >> v) & 1]
                if len(cands) > 1:
                    cands.sort(key=w.__getitem__, reverse=True)
                seen_f: dict[int, int] | None = None  # row -> the twin explored with it
                seen_t: dict[int, int] | None = None  # closed row -> likewise
                bit = 1 << (n - 1 - pos)
                for v in cands:
                    wv = w[v]
                    if not strictly_greater and best is not None:
                        b = best[pos]
                        if wv < b:
                            break
                        child_greater = wv > b
                    else:
                        child_greater = strictly_greater
                    kf = rows[v]
                    kt = kf | (1 << v)
                    if seen_f is not None:
                        u = seen_f.get(kf, seen_t.get(kt))
                        if u is not None:
                            if autos is not None and not swapped >> v & 1:
                                swapped |= 1 << v
                                perm = list(range(n))
                                perm[u], perm[v] = v, u
                                autos.append(perm)
                            continue
                    g0 = gen
                    place[pos] = v
                    cur[pos] = wv
                    used |= 1 << v
                    for x in nbrs[v]:
                        w[x] |= bit
                    rec(pos + 1, child_greater)
                    for x in nbrs[v]:
                        w[x] ^= bit
                    used ^= 1 << v
                    if gen != g0 and strictly_greater:
                        # a descendant replaced best; our prefix now equals its prefix
                        strictly_greater = False
                    if seen_f is None:
                        seen_f = {}
                        seen_t = {}
                    seen_f[kf] = v
                    seen_t[kt] = v
        # undo the run placed in this frame
        for p in range(start, pos):
            bit = 1 << (n - 1 - p)
            for x in nbrs[place[p]]:
                w[x] ^= bit

    rec(0, False)
    del rec  # the search refers to itself; drop that cycle for reference counting
    assert best_place is not None
    return best_place


def _canonical(
    n: int,
    rows: Sequence[int],
    cells: Sequence[Sequence[int]] | None = None,
    autos: list[list[int]] | None = None,
    nbrs: Sequence[Sequence[int]] | None = None,
) -> tuple[Graph, list[int]]:
    """The canonically labelled graph plus the placement that labels it:
    canonical vertex i is vertex placement[i] of ``rows``.  ``cells`` and
    ``nbrs`` are the graph's refined cells and neighbour lists when the
    caller has them already.  ``autos`` collects generators of the
    automorphism group, as in _canonical_placement.  Canonical row i sets
    the bit of each neighbour's canonical position."""
    if nbrs is None:
        nbrs = _neighbour_lists(rows)
    if cells is None:
        cells = _refine_colours(n, nbrs)
    placement = _canonical_placement(n, rows, cells, autos, nbrs)
    bit = [0] * n  # per vertex, the bit of its canonical position
    for i, v in enumerate(placement):
        bit[v] = 1 << i
    return Graph.from_rows([sum(map(bit.__getitem__, nbrs[v])) for v in placement]), placement


def _canonical_if_last(
    n: int,
    rows: Sequence[int],
    v: int,
    autos: list[list[int]] | None,
    nbrs: Sequence[Sequence[int]],
) -> tuple[Graph, list[int]] | None:
    """_canonical(n, rows), or None when v cannot be the vertex it places
    last; ``nbrs`` are the graph's neighbour lists.

    The placement lists cells in ascending colour order, and colours rank by
    degree first, so its last vertex has maximum degree and lies in the top
    refined cell.  A vertex outside that cell is rejected without labelling,
    in the first refinement round in which it leaves the cell; otherwise the
    labelling reuses the cells, and fills ``autos`` as _canonical does.
    Callers that can read degrees more cheaply than the neighbour lists may
    reject by degree first.
    """
    cells = _refine_colours(n, nbrs, v)
    if cells is None:
        return None
    return _canonical(n, rows, cells, autos, nbrs)


def canonical_form(g: Graph) -> bytes:
    """Canonical representative of g's isomorphism class, as graph6 bytes:
    the graph6 of g canonically labelled.

    Two graphs are isomorphic iff their canonical forms are equal; the bytes
    decode (via parse_graph6) to a relabelled copy of g.
    """
    if g.n > CANON_MAX_ORDER:
        raise OrderLimitError(f"canonical form limited to order {CANON_MAX_ORDER}")
    return emit_graph6(_canonical(g.n, g.adj)[0]).encode("ascii")


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    if g1.n > CANON_MAX_ORDER:
        raise OrderLimitError(f"canonical form limited to order {CANON_MAX_ORDER}")
    return _canonical(g1.n, g1.adj)[0] == _canonical(g2.n, g2.adj)[0]


# -- DOT export ------------------------------------------------------------

_DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#ffff33", "#a65628", "#f781bf", "#999999", "#66c2a5",
)


def to_dot(g: Graph, class_of: Sequence[int] | None = None, name: str = "G") -> str:
    """GraphViz source; vertices are filled by colour class when given."""
    lines = [f"graph {name} {{", "  node [shape=circle style=filled];"]
    for v in range(g.n):
        if class_of is not None:
            fill = _DOT_PALETTE[class_of[v] % len(_DOT_PALETTE)]
            lines.append(f'  {v} [fillcolor="{fill}"];')
        else:
            lines.append(f'  {v} [fillcolor="white"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
