"""Isomorph-free census of small graphs and the unique-colourability witness search.

Generation is by canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  A graph of order r+1 is produced
from exactly one parent class, namely the one obtained by deleting the
vertex its canonical labelling places last.  A child of a processed parent
is kept iff that canonically last vertex w is the new vertex r or lies in
r's orbit under the child's automorphism group, whose generators its
labelling collects.  No global "seen" set is needed, so runs can be split
at checkpoints or across workers and merged without coordination.

Only one neighbourhood mask per orbit of the parent's automorphism group is
tried.  Masks in one orbit give isomorphic children, which get the same
verdict, so the first mask of each orbit in candidate order stands for the
others, and they are skipped before their child is built; the
``duplicate_siblings`` stat counts them.  The generators of a parent's
group come from the labelling that accepted it as a child, whose tie search
meets them anyway, and are carried down the tree in canonical labels, to
forked workers too; roots loaded from a checkpoint get theirs from one
labelling.

The rule alone yields each class once, given generators of the whole group.
No class is lost: a class's canonically last vertex w leaves a graph of the
parent class, one of whose masks puts the new vertex in w's place, and the
first mask of its orbit gives an isomorphic child with the new vertex in the
orbit of its canonically last vertex.  No class repeats: a class has one
parent class, and two kept siblings are never isomorphic, for an isomorphism
between them maps one new vertex to the other, both being orbit mates of
their canonically last vertices, and so restricts to an automorphism of the
parent that maps one mask to the other, which puts both masks in one orbit.

Most other extensions are rejected before they are labelled.  The
canonically last vertex has maximum degree and lies in the top refined
cell, so a new vertex of lower degree than some vertex of the child, read
from the parent's degrees and the neighbourhood mask, is rejected at once:
masks smaller than the parent's top degree are never built.  A new vertex
outside the top cell is rejected by a refinement that stops in the first
round in which it leaves that cell; a full refinement's cells are reused
by the labelling.  No class is lost: an orbit mate of the canonically last
vertex has its degree and refined colour, so the child that the rule keeps
passes both tests.

A class is carried as its canonically labelled graph, whose graph6 string
is its canonical form: checkpoint tokens and witnesses record that string.

Hereditary constraints (triangle-freeness, edge-count ceiling) prune during
generation, together with sound lookahead bounds for the degree floor and
the edge-window lower bound: a partial graph is dropped only when no
sequence of vertex additions can repair it.  Connectivity and the exact
degree floor / edge window apply at full order.

The witness search prunes with necessary conditions for unique
k-colourability: minimum degree k-1 and connectivity, as above; Xu's bound
(S. Xu, J. Combin. Theory Ser. B 50, 1990), at least (k-1)n - k(k-1)/2
edges, as the floor of the edge window, so that the lookahead prunes with it
too; and k-colourability, which is hereditary, so a class below full order
that is not k-colourable, tested by one partition enumeration capped at
one, is not expanded.  A uniquely 1-colourable graph is edgeless, so
connectivity is required only for k >= 2.  At full order the children of
one parent that pass the structural and orbit filters are decided together,
by one listing of the parent's partitions into at most k classes: each
partition gives a child one partition per slot for the new vertex (a class
disjoint from its neighbourhood, or a new class while there are fewer than
k), and the listing stops once every child has two.  The chromatic number
is never computed.  The balanced test follows on a child's one colouring.
Both are isomorphism-invariant and run before any child is built, refined
or labelled, so the many children they reject are never labelled.  A child
that passes is labelled and tested for canonicity as above, and its
colouring is carried to its canonical labels, so each class is enumerated
once.  The stats count accordingly: ``battery_candidates``,
``failed_unique`` and ``failed_balanced`` count full-order children, while
``visited`` and the full-order ``classes_order_<n>`` count the accepted
classes that passed.
Only witnesses get a report, and so the (k-1)-connectivity test, which a
uniquely k-colourable graph always passes.  A witness loaded from a
checkpoint is decided and reported again, and the token is rejected unless
the stored witness matches.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .budget import Budget, BudgetExceededError
from .colouring import (
    Colouring,
    VerificationReport,
    _colouring_of,
    _Decision,
    _enumerate_partitions,
    _report,
    count_colour_partitions,
)
from .graphs import (
    Graph,
    _canonical,
    _canonical_if_last,
    _component,
    _neighbour_lists,
    emit_graph6,
    independence_number,
    is_connected,
    is_triangle_free,
    parse_graph6,
)

CHECKPOINT_VERSION = 1
_MAX_CENSUS_ORDER = 14


@dataclass(frozen=True)
class CensusTask:
    """A census request: structural constraints plus the colouring target."""

    n: int
    k: int = 3
    triangle_free: bool = False
    connected: bool = False
    min_degree: int = 0
    balanced: bool = False
    edge_window: tuple[int, int] | None = None
    budget_nodes: int | None = None
    budget_seconds: float | None = None

    def __post_init__(self):
        ints = [self.n, self.k, self.min_degree]
        if self.edge_window is not None:
            if not isinstance(self.edge_window, tuple) or len(self.edge_window) != 2:
                raise ValueError("edge window must be a pair of integers")
            ints += self.edge_window
        if not all(type(x) is int for x in ints):
            raise ValueError("order, k, degree floor and edge window must be integers")
        if not all(type(x) is bool for x in (self.triangle_free, self.connected, self.balanced)):
            raise ValueError("triangle_free, connected and balanced must be booleans")
        self.budget()  # Budget owns the budget rules
        if self.budget_nodes == 0:
            # a run must expand its first parent, or its resume chain never ends
            raise ValueError("census node budget must be at least 1")
        if not 1 <= self.n <= _MAX_CENSUS_ORDER:
            raise ValueError(f"census order must be 1..{_MAX_CENSUS_ORDER}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.min_degree < 0:
            raise ValueError("degree floor must be non-negative")
        if self.balanced and self.n % self.k != 0:
            raise ValueError("balanced classes need k to divide n")
        if self.edge_window is not None:
            lo, hi = self.edge_window
            if lo < 0 or hi < lo:
                raise ValueError("edge window must satisfy 0 <= lo <= hi")

    def budget(self) -> Budget | None:
        if self.budget_nodes is None and self.budget_seconds is None:
            return None
        return Budget(self.budget_nodes, self.budget_seconds)

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["edge_window"] is not None:
            d["edge_window"] = list(d["edge_window"])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CensusTask":
        """Inverse of to_dict; raises ValueError unless ``d`` has exactly the
        task's keys and values of usable types."""
        names = {f.name for f in fields(cls)}
        if not isinstance(d, dict) or set(d) != names:
            raise ValueError(f"a census task needs exactly the keys {sorted(names)}")
        d = dict(d)
        try:
            if d["edge_window"] is not None:
                d["edge_window"] = tuple(d["edge_window"])
            return cls(**d)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad census task: {exc}") from None


class Witness(NamedTuple):
    """One graph that passed the full uniquely-k-colourable battery."""

    graph6: str
    n: int
    k: int
    edges: int
    report: VerificationReport

    def to_json_dict(self) -> dict:
        d = self._asdict()
        d["report"] = self.report._asdict()
        return d


@dataclass
class CensusResult:
    task: CensusTask
    stats: dict[str, int] = field(default_factory=dict)
    witnesses: list[Witness] = field(default_factory=list)
    checkpoint: dict | None = None

    @property
    def complete(self) -> bool:
        return self.checkpoint is None


def _bump(stats: dict[str, int], key: str, by: int = 1) -> None:
    stats[key] = stats.get(key, 0) + by


def _edge_window(task: CensusTask) -> tuple[int, int]:
    """The task's edge window; by default every edge count of its order."""
    n = task.n
    return task.edge_window if task.edge_window is not None else (0, n * (n - 1) // 2)


def _max_addable(order: int, n: int, alpha_bound: int) -> int:
    """Upper bound on edges gained by growing from ``order`` to ``n`` vertices.

    Each added vertex at current order i contributes at most min(i, a) edges
    where a bounds the independence number at that point (a grows by at most
    one per addition); for unrestricted tasks pass alpha_bound >= n.
    """
    total = 0
    a = alpha_bound
    for i in range(order, n):
        total += min(i, a)
        a += 1
    return total


def _candidate_masks(
    rows: Sequence[int], req: int, free: int, lo_sz: int, hi_sz: int, independent: bool
) -> list[int]:
    """Neighbourhood masks N with req <= N <= req|free and |N| in [lo_sz, hi_sz].

    When ``independent`` is set, N must be an independent set of the parent.
    """
    base = req.bit_count()
    if base > hi_sz:
        return []
    if independent:
        m = req
        while m:
            b = m & -m
            v = b.bit_length() - 1
            if rows[v] & req:
                return []
            free &= ~rows[v]
            m ^= b
    out: list[int] = []

    def go(cur: int, size: int, cand: int) -> None:
        if size + cand.bit_count() < lo_sz:
            return
        if size >= lo_sz:
            out.append(cur)
        if size == hi_sz:
            return
        while cand:
            b = cand & -cand
            cand ^= b
            nxt = cand & ~rows[b.bit_length() - 1] if independent else cand
            go(cur | b, size + 1, nxt)
            if size + cand.bit_count() < lo_sz:
                return

    go(req, base, free)
    del go  # the search refers to itself; drop that cycle for reference counting
    return out


def _components(rows: Sequence[int]) -> list[int]:
    """The vertex sets of the components of the graph with these rows."""
    comps = []
    rest = (1 << len(rows)) - 1
    while rest:
        comps.append(_component(rows, rest & -rest, rest))
        rest &= ~comps[-1]
    return comps


def _mask_maps(gens: list[list[int]]) -> list[tuple[list[int], list[int]]]:
    """Per permutation of the parent's vertices, the images of every mask of its low 7 bits
    and of every mask of its bits from 7 up: the image of a mask m is
    ``low[m & 127] | high[m >> 7]``."""
    maps = []
    for p in gens:
        images = [1 << x for x in p]
        tables = []
        for part in (images[:7], images[7:]):
            table = [0]
            for image in part:  # the masks with this bit follow those without
                table += [t | image for t in table]
            tables.append(table)
        maps.append((tables[0], tables[1]))
    return maps


def _in_orbit(gens: list[list[int]], v: int, w: int) -> bool:
    """Whether the permutations ``gens`` generate one that maps v to w."""
    if v == w:
        return True
    seen = 1 << v
    todo = [v]
    for x in todo:
        for p in gens:
            y = p[x]
            if y == w:
                return True
            if not seen >> y & 1:
                seen |= 1 << y
                todo.append(y)
    return False


def _extend_parent(
    task: CensusTask,
    parent: Graph,
    gens: list[list[int]],
    stats: dict[str, int],
    decide: Callable[[Graph, list[int], CensusTask, dict], list[_Decision | None]] | None = None,
) -> list[tuple[Graph, list[list[int]] | _Decision]]:
    """The accepted children of one parent, each canonically labelled, with
    what it carries.

    ``gens`` generate the parent's automorphism group.  Children have order
    r+1; when r+1 == task.n the full-order structural filters (connectivity,
    exact degree floor, edge window) apply, otherwise hereditary constraints
    plus sound lookahead bounds.  A child is accepted by McKay's rule alone:
    its canonically last vertex is the new vertex r or, by the generators
    its labelling collects, an orbit mate of r.  Each child below full order
    comes with those generators, in its canonical labels.  A full-order
    child comes with [] or, when ``decide`` is given, with its decision
    carried to its canonical labels:
    ``decide(parent, masks, task, stats)`` is called once, on the masks that
    pass the filters, before any child is built, and a child whose decision
    is None is never built or labelled.

    A child is built as rows and neighbour lists, not as a Graph: both are
    the parent's lists, built once per parent, in which each neighbour of
    the new vertex r takes the row or list that already has r added.
    """
    n = task.n
    dmin = task.min_degree
    lo, hi = _edge_window(task)
    _bump(stats, "parents_processed")
    r = parent.n
    rows = parent.adj
    e = parent.edge_count()
    r1 = r + 1
    after = n - r1  # vertices still to come after this extension
    floor_child = max(0, dmin - after)
    req = 0
    if floor_child > 0:
        for v in range(r):
            if rows[v].bit_count() < floor_child:
                req |= 1 << v
    if task.triangle_free:
        alpha_next = independence_number(parent) + 1
    else:
        alpha_next = n
    degrees = parent.degrees()
    top = max(degrees)
    top_set = sum(1 << v for v, d in enumerate(degrees) if d == top)
    # the new vertex must end with maximum degree to be canonically last
    lo_sz = max(floor_child, top, lo - e - _max_addable(r1, n, alpha_next))
    hi_sz = hi - e
    if hi_sz < 0:
        return []
    free = ((1 << r) - 1) & ~req
    masks = _candidate_masks(rows, req, free, lo_sz, hi_sz, task.triangle_free)
    _bump(stats, "extensions_tried", len(masks))
    comps = _components(rows) if r1 == n and task.connected else None
    maps = None  # the generators' mask tables, built when first needed
    tried: set[int] = set()  # masks in the orbit of a mask already tried
    survivors: list[int] = []
    for mask in masks:
        # a neighbour of top degree would end above the new vertex
        if mask.bit_count() == top and mask & top_set:
            _bump(stats, "rejected_not_canonical")
            continue
        if comps is not None and not all(mask & c for c in comps):
            _bump(stats, "full_rejected_connected")
            continue
        if gens:
            # masks in one orbit of the parent's group give isomorphic
            # children: try the first and skip the rest
            if mask in tried:
                _bump(stats, "duplicate_siblings")
                continue
            if maps is None:
                maps = _mask_maps(gens)
            orbit = [mask]
            tried.add(mask)
            for m in orbit:
                low, high = m & 127, m >> 7
                for lo_map, hi_map in maps:
                    x = lo_map[low] | hi_map[high]
                    if x not in tried:
                        tried.add(x)
                        orbit.append(x)
        survivors.append(mask)
    decided: list[tuple[int, _Decision | None]] = [(m, None) for m in survivors]
    if decide is not None and r1 == n and survivors:
        # the decision is isomorphism-invariant and rejects most full-order
        # children, so it runs on them all before any is built or labelled
        decisions = decide(parent, survivors, task, stats)
        decided = [(m, d) for m, d in zip(survivors, decisions) if d is not None]
    # the parent's rows and neighbour lists, and copies of them that list r
    nbrs = _neighbour_lists(rows)
    rbit = 1 << r
    rows_r = [row | rbit for row in rows]
    nbrs_r = [nb + [r] for nb in nbrs]
    accepted: list[tuple[Graph, list[list[int]] | _Decision]] = []
    for mask, decision in decided:
        child_rows = list(rows)
        child_nbrs = nbrs.copy()
        mine = []  # the new vertex's neighbours
        m = mask
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            child_rows[v] = rows_r[v]
            child_nbrs[v] = nbrs_r[v]
            mine.append(v)
        child_rows.append(mask)
        child_nbrs.append(mine)
        autos: list[list[int]] = []
        labelled = _canonical_if_last(r1, child_rows, r, autos, child_nbrs)
        # McKay's rule: the canonically last vertex must be r or an orbit mate
        if labelled is None or not _in_orbit(autos, r, labelled[1][-1]):
            _bump(stats, "rejected_not_canonical")
            continue
        canon, placement = labelled
        _bump(stats, f"classes_order_{r1}")
        extra: list[list[int]] | _Decision = []
        if decision is not None:
            colours = decision.colouring.assignment
            extra = decision._replace(colouring=Colouring([colours[v] for v in placement]))
        elif r1 < n and autos:
            label = [0] * r1
            for i, v in enumerate(placement):
                label[v] = i
            extra = [[label[p[v]] for v in placement] for p in autos]
        accepted.append((canon, extra))
    return accepted


def _search(
    eff: CensusTask,
    visit: Callable[[Graph, list | _Decision, CensusResult], None],
    keep: Callable[[Graph], bool] | None,
    decide: Callable[[Graph, list[int], CensusTask, dict], list[_Decision | None]] | None,
    stack: list[tuple[Graph, list[list[int]]]],
) -> tuple[dict[str, int], list[Witness], list[str]]:
    """Depth-first search for the classes of ``eff`` below the (canonically
    labelled graph, generators of its group) entries of ``stack``, under a
    budget of its own.  Returns its stats, the witnesses ``visit`` recorded
    and, if the budget runs out, its pending graphs as canonical graph6
    strings, else [].  The clock is not checked before the first parent, so
    each run of a resume chain expands at least one parent and the chain
    ends."""
    part = CensusResult(task=eff)
    stats = part.stats
    budget = eff.budget()
    first = True
    while stack:
        parent, gens = stack.pop()
        if budget is not None:
            try:
                budget.spend(1)
                if not first:
                    budget.check_time()
            except BudgetExceededError:
                stack.append((parent, gens))
                return stats, part.witnesses, [emit_graph6(g) for g, _ in stack]
        first = False
        for child, extra in _extend_parent(eff, parent, gens, stats, decide):
            if child.n == eff.n:
                _bump(stats, "visited")
                visit(child, extra, part)
            elif keep is None or keep(child):
                stack.append((child, extra))
    return stats, part.witnesses, []


def _make_token(task: CensusTask, pending: list[str], stats: dict, mode: str,
                witnesses: list[Witness] | None = None) -> dict:
    token = {
        "version": CHECKPOINT_VERSION,
        "kind": "census-checkpoint",
        "mode": mode,
        "task": task.to_dict(),
        "pending": pending,
        "stats": dict(stats),
    }
    if witnesses is not None:
        token["witnesses"] = [w.to_json_dict() for w in witnesses]
    return token


def _check_token(token: dict, task: CensusTask | None = None, mode: str | None = None) -> None:
    """Reject a token of the wrong kind, version or shape, or one that does
    not match the expected ``mode`` and ``task`` when these are given."""
    if not isinstance(token, dict) or token.get("kind") != "census-checkpoint":
        raise ValueError("not a census checkpoint token")
    if token.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {token.get('version')!r}")
    if mode is not None and token.get("mode") != mode:
        raise ValueError(f"checkpoint holds a {token.get('mode')!r} run, expected {mode!r}")
    if not isinstance(token.get("task"), dict):
        raise ValueError("checkpoint token has no task")
    if not isinstance(token.get("pending"), list) or not isinstance(token.get("stats"), dict):
        raise ValueError("checkpoint token needs a pending list and a stats object")
    if not all(type(v) is int and v >= 0 for v in token["stats"].values()):
        raise ValueError("checkpoint stats must be non-negative integers")
    if not isinstance(token.get("witnesses", []), list):
        raise ValueError("checkpoint witnesses must be a list")
    if token.get("mode") == "generate" and "witnesses" in token:
        raise ValueError("a generate checkpoint holds no witnesses")
    # canonical augmentation reaches each class once, and distinct roots
    # have disjoint subtrees, so an honest token names no graph twice
    witnesses = [w.get("graph6") for w in token.get("witnesses", []) if isinstance(w, dict)]
    for key, names in (("pending", token["pending"]), ("witnesses", witnesses)):
        names = [s for s in names if isinstance(s, str)]
        if len(set(names)) != len(names):
            raise ValueError(f"checkpoint {key} list a graph more than once")
    if task is not None and token["task"] != task.to_dict():
        raise ValueError("checkpoint was produced by a different task")


def _canonical_graph(
    s, lo: int, hi: int, what: str, autos: list[list[int]] | None = None
) -> Graph:
    """The graph of ``s``, which must be the canonical graph6 string of a
    graph of order lo..hi; ``what`` names the entry in the error.  ``autos``
    collects generators of its automorphism group, as _canonical does."""
    g = parse_graph6(s) if isinstance(s, str) else None
    if (
        g is None
        or not lo <= g.n <= hi
        or emit_graph6(_canonical(g.n, g.adj, None, autos)[0]) != s
    ):
        orders = str(lo) if lo == hi else f"{lo}..{hi}"
        raise ValueError(f"{what} {s!r} is not a canonical graph6 of order {orders}")
    return g


def _load_stack(pending: list, n: int) -> list[tuple[Graph, list[list[int]]]]:
    """The search stack of a token's pending roots, each with generators of
    its automorphism group.  Each must be the canonical graph6 string of a
    graph of order 1..n-1."""
    stack = []
    for s in pending:
        gens: list[list[int]] = []
        g = _canonical_graph(s, 1, n - 1, "pending entry", gens)
        stack.append((g, gens))
    return stack


def _drive(
    task: CensusTask,
    eff: CensusTask,
    mode: str,
    visit: Callable[[Graph, list | _Decision, CensusResult], None],
    checkpoint: dict | None = None,
    threads: int = 1,
    keep: Callable[[Graph], bool] | None = None,
    decide: Callable[[Graph, list[int], CensusTask, dict], list[_Decision | None]] | None = None,
) -> CensusResult:
    """The one census driver behind generate and find_unique_k_witnesses.

    Searches for the classes of ``eff`` and hands each full-order class to
    ``visit`` once, as its canonically labelled graph, with what
    _extend_parent carries for it and the result it records into.  With
    ``decide``, the full-order children of each parent are decided together
    before any is built, and only a child that passes is labelled and
    visited, with its decision in canonical labels; the order-1 task, which
    is settled without a search, is decided as the child of the order-0
    graph by mask 0.  A class below full order that ``keep`` rejects is not
    expanded.  A canonical parent is an
    induced subgraph of its children, so when ``keep`` holds for every
    induced subgraph of a graph it holds for, the only full-order classes
    lost are those that fail ``keep`` themselves.  The search starts from
    the pending roots of ``checkpoint``, whose witnesses are rebuilt and
    checked, or from the order-1 root.  With ``threads`` > 1 the tree is
    first grown breadth-first, without a budget, to 4 roots per worker or a
    root one vertex short of full order.  The roots are dealt into at most
    one share per worker and per CPU, each searched by _search under the
    whole budget of ``eff``, forked when there are two shares or more.  The
    shares merge, and the result carries one resume token for every
    pending root.
    """
    result = CensusResult(task=task)
    stats = result.stats
    if checkpoint is not None:
        _check_token(checkpoint, task, mode)
        stack = _load_stack(checkpoint["pending"], task.n)
        stats.update(checkpoint["stats"])
        entries = checkpoint.get("witnesses", [])
        result.witnesses.extend(_witness_from_dict(d, eff) for d in entries)
    elif eff.n == 1:
        if eff.min_degree <= 0 and _edge_window(eff)[0] <= 0:
            # the order-1 graph is the child of the order-0 graph by mask 0
            extra = [] if decide is None else decide(Graph(0), [0], eff, stats)[0]
            if extra is not None:
                _bump(stats, "visited")
                visit(Graph(1), extra, result)
        return result
    else:
        stack = [(Graph(1), [])]
    threads = min(threads, os.cpu_count() or 1)
    if threads > 1:
        # a full-order class is visited inside a search, so the frontier
        # stops one vertex short of full order
        while stack and len(stack) < threads * 4 and max(g.n for g, _ in stack) < eff.n - 1:
            level, stack = stack, []
            for parent, gens in level:
                stack += [(child, extra) for child, extra
                          in _extend_parent(eff, parent, gens, stats, decide)
                          if keep is None or keep(child)]
    shares = [stack[i::threads] for i in range(min(threads, len(stack)))]
    search = partial(_search, eff, visit, keep, decide)
    if len(shares) > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(processes=len(shares)) as pool:
            parts = pool.map(search, shares)
    else:
        parts = map(search, shares)
    pending: list[str] = []
    for part_stats, found, part_pending in parts:
        for key, val in part_stats.items():
            _bump(stats, key, val)
        result.witnesses.extend(found)
        pending += part_pending
    if pending:
        witnesses = result.witnesses if mode == "witness" else None
        result.checkpoint = _make_token(task, pending, stats, mode, witnesses)
    else:
        result.witnesses.sort(key=lambda w: (w.edges, w.graph6))
    return result


def generate(
    task: CensusTask,
    visit: Callable[[Graph], None] | None = None,
    checkpoint: dict | None = None,
) -> CensusResult:
    """Visit one canonical representative per isomorphism class.

    Classes satisfy: order task.n, triangle-freeness, degree floor, edge
    window and connectivity as requested.  With a budget, the result's
    ``checkpoint`` is a resumable token (pass it back via ``checkpoint``).
    Balance constrains a colouring, which only the witness search finds, so
    a balanced task raises ValueError.
    """
    if task.balanced:
        raise ValueError("balanced classes apply only to the witness search")

    def on_class(g: Graph, extra: list, result: CensusResult) -> None:
        if visit is not None:
            visit(g)

    return _drive(task, task, "generate", on_class, checkpoint)


def _child_partitions(
    parent: Graph, masks: Sequence[int], k: int
) -> list[tuple[int, tuple[int, ...] | None]]:
    """For each mask m, the partitions into <= k classes of the child
    ``parent.with_vertex(m)``: their number capped at 2 and, when there is
    exactly one, its classes as bitmasks.

    A partition of the child restricts to one of the parent, and the new
    vertex r sits in a class disjoint from m or alone, so the child's
    partitions correspond one to one with pairs of a parent partition and a
    slot for r: a class disjoint from m, or a new class while the partition
    has fewer than k.  One listing of the parent's partitions adds each
    child's slots, and stops once every child has two.
    """
    rbit = 1 << parent.n
    counts = [0] * len(masks)
    ones: list[tuple[int, ...] | None] = [None] * len(masks)
    pending = list(range(len(masks)))

    def leaf(classes: tuple[int, ...]) -> bool:
        nonlocal pending
        spare = len(classes) < k
        full = False
        for i in pending:
            m = masks[i]
            slot = -1
            ways = spare
            for j, c in enumerate(classes):
                if not c & m:
                    ways += 1
                    slot = j
            if not ways:
                continue
            if counts[i] or ways > 1:
                counts[i] = 2
                full = True
            else:
                counts[i] = 1
                if slot < 0:
                    ones[i] = (*classes, rbit)
                else:
                    ones[i] = (*classes[:slot], classes[slot] | rbit, *classes[slot + 1:])
        if full:
            pending = [i for i in pending if counts[i] < 2]
        return not pending

    if pending:
        _enumerate_partitions(parent, k, None, on_leaf=leaf)
    return [(c, ones[i] if c == 1 else None) for i, c in enumerate(counts)]


def _battery(
    parent: Graph, masks: Sequence[int], task: CensusTask, stats: dict
) -> list[_Decision | None]:
    """The colouring decision on each full-order child
    ``parent.with_vertex(m)``, cheapest check first: None for a child that
    is not a witness.

    All children of the parent are decided by one listing of its
    partitions, stopped once every child has two (_child_partitions; the
    chromatic number is never computed).  A child is uniquely k-colourable
    iff it has exactly one partition and that has k classes, as _decide
    decides, whose decision it then gets.  The balanced test follows on that
    colouring.  Both are isomorphism-invariant, so the census runs them on
    the children before it labels any.  Xu's edge bound needs no test: it
    is the floor of the task's edge window, which the search applies at full
    order.
    """
    _bump(stats, "battery_candidates", len(masks))
    out: list[_Decision | None] = []
    for count, classes in _child_partitions(parent, masks, task.k):
        if count != 1 or len(classes) != task.k:
            _bump(stats, "failed_unique")
            out.append(None)
        elif task.balanced and len({c.bit_count() for c in classes}) != 1:
            _bump(stats, "failed_balanced")
            out.append(None)
        else:
            out.append(_Decision(_colouring_of(parent.n + 1, classes), 1, False, "yes"))
    return out


def _witness(g: Graph, k: int, decision: _Decision) -> Witness:
    """The witness of a canonically labelled graph that passed _battery.

    Its report is the only step that runs the (k-1)-connectivity test, which
    cannot fail here: a uniquely k-colourable graph is (k-1)-connected
    (Chartrand and Geller, 1969).
    """
    report = _report(g, k, decision)
    assert report.connectivity_ok and report.xu_slack >= 0
    return Witness(graph6=report.graph6, n=g.n, k=k, edges=g.edge_count(), report=report)


def _meets_filters(g: Graph, task: CensusTask) -> bool:
    """Whether a graph of order task.n passes the task's structural filters."""
    lo, hi = _edge_window(task)
    return (
        lo <= g.edge_count() <= hi
        and g.min_degree() >= task.min_degree
        and (not task.triangle_free or is_triangle_free(g))
        and (not task.connected or is_connected(g))
    )


def _witness_from_dict(d: dict, task: CensusTask) -> Witness:
    """The witness that the checkpoint entry ``d`` names, rebuilt from its
    graph, which is decided as the child of its first n-1 vertices.

    Raises ValueError unless ``d`` names the canonical graph6 of a graph of
    order task.n that passes the task's filters and _battery, and ``d`` is
    exactly the JSON form of the witness rebuilt from it.
    """
    s = d.get("graph6") if isinstance(d, dict) else None
    g = _canonical_graph(s, task.n, task.n, "witness")
    if not _meets_filters(g, task):
        raise ValueError(f"witness {s!r} does not pass the task's filters")
    decision = _battery(g.without_vertex(g.n - 1), [g.adj[-1]], task, {})[0]
    if decision is None:
        raise ValueError(f"witness {s!r} fails the uniquely {task.k}-colourable decision")
    w = _witness(g, task.k, decision)
    if w.to_json_dict() != d:
        raise ValueError(f"witness {s!r} differs from the witness rebuilt from its graph")
    return w


def _add_witness(g: Graph, decision: _Decision, result: CensusResult) -> None:
    _bump(result.stats, "witnesses")
    result.witnesses.append(_witness(g, result.task.k, decision))


def _colourable(k: int, g: Graph) -> bool:
    return count_colour_partitions(g, k, cap=1) == 1


def find_unique_k_witnesses(
    task: CensusTask, threads: int = 1, checkpoint: dict | None = None
) -> CensusResult:
    """Census filtered down to uniquely k-colourable graphs.

    Runs the census under necessary conditions for unique k-colourability:
    the degree floor k-1, connectivity when k >= 2 (a uniquely 1-colourable
    graph is edgeless), Xu's edge floor as the floor of the edge window, and
    k-colourability of every class below full order.  The full-order
    children of each parent are decided by one _battery call, which lists
    the parent's partitions once, before any child is labelled, and each
    class that passes is reported once.  Witnesses are reported sorted by
    (edges, graph6).
    ``threads`` > 1 distributes the search tree over worker processes, each
    under the task's whole budget.
    """
    if type(threads) is not int or threads < 1:
        raise ValueError("threads must be an integer of at least 1")
    n, k = task.n, task.k
    lo, hi = _edge_window(task)
    lo = max(lo, (k - 1) * n - k * (k - 1) // 2)
    if lo > hi:
        # no graph in the window has enough edges to be uniquely k-colourable
        if checkpoint is not None:
            _check_token(checkpoint, task, "witness")
        return CensusResult(task=task)
    eff = replace(task, min_degree=max(task.min_degree, k - 1),
                  connected=task.connected or k > 1, edge_window=(lo, hi))

    return _drive(task, eff, "witness", _add_witness, checkpoint, threads,
                  partial(_colourable, k), _battery)


def resume(checkpoint: dict, visit: Callable[[Graph], None] | None = None) -> CensusResult:
    """Continue a budget-interrupted run from its checkpoint token."""
    _check_token(checkpoint)
    task = CensusTask.from_dict(checkpoint["task"])
    mode = checkpoint.get("mode")
    if mode == "generate":
        return generate(task, visit=visit, checkpoint=checkpoint)
    if mode == "witness":
        return find_unique_k_witnesses(task, checkpoint=checkpoint)
    raise ValueError(f"unknown checkpoint mode {mode!r}")


def checkpoint_dumps(token: dict) -> str:
    return json.dumps(token, sort_keys=True)


def checkpoint_loads(text: str) -> dict:
    token = json.loads(text)
    _check_token(token)
    return token
