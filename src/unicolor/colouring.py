"""Exact colouring engine: partition counting, uniqueness, critical chromatic number.

A colouring is a partition of the vertex set into non-empty independent
classes; class labels carry no meaning.  Counting therefore counts
partitions, not labelled colourings, using "open-class" symmetry breaking:
class j may be used for the first time only when classes 0..j-1 are already
in use, so every partition is generated exactly once.

The search colours next the vertex of largest (saturation, degree, -index),
Brelaz's DSATUR order (Comm. ACM 22, 1979), without scanning: it relabels
the vertices by descending degree once per call and keeps one bitmask of
uncoloured vertices per saturation level, so the choice is the lowest bit of
the highest nonempty level.  Every partition is reached as one leaf node.

An exact count (no ``on_leaf``, ``cap`` None or above 2) also memoises each
subtree's (leaves, budget units) on its residual state up to class
relabelling: the uncoloured set, the number of open classes and the sorted
neighbourhoods of the open classes in that set.  Open classes differ only
in those neighbourhoods, so the state fixes every saturation level, DSATUR
choice and dead-branch test below it.  A stored subtree is reused only when
it cannot reach ``cap``, so counts, caps and node budgets end exactly as
without the memo; on cycles and wheels the count becomes polynomial.  The
memo stops storing at ``_MEMO_MAX`` entries, so its memory stays bounded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .budget import Budget, BudgetExceededError
from .graphs import (
    Graph,
    _component,
    clique_number,
    emit_graph6,
    is_connected,
    vertex_connectivity_at_least,
)


class ColouringError(ValueError):
    """Raised for invalid colouring inputs or undefined colouring quantities."""


class Colouring:
    """A vertex partition in canonical form.

    ``assignment[v]`` is the class index of vertex v.  Classes are
    renumbered on construction so that they appear in order of their
    minimum vertex; a partition therefore has exactly one representation.
    """

    __slots__ = ("assignment", "k")

    def __init__(self, assignment: Sequence[int]):
        relabel: dict[int, int] = {}
        canon = []
        for v, c in enumerate(assignment):
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ColouringError(f"vertex {v} has invalid class label {c!r}")
            if c not in relabel:
                relabel[c] = len(relabel)
            canon.append(relabel[c])
        self.assignment = tuple(canon)
        self.k = len(relabel)

    @classmethod
    def from_classes(cls, n: int, classes: Iterable[Iterable[int]]) -> "Colouring":
        assignment = [-1] * n
        for idx, cl in enumerate(classes):
            members = list(cl)
            if not members:
                raise ColouringError(f"class {idx} is empty")
            for v in members:
                if not 0 <= v < n:
                    raise ColouringError(f"vertex {v} outside range 0..{n - 1}")
                if assignment[v] != -1:
                    raise ColouringError(f"vertex {v} appears in two classes")
                assignment[v] = idx
        if any(a == -1 for a in assignment):
            missing = [v for v, a in enumerate(assignment) if a == -1]
            raise ColouringError(f"vertices {missing} not covered by any class")
        return cls(assignment)

    @property
    def n(self) -> int:
        return len(self.assignment)

    def classes(self) -> tuple[int, ...]:
        """Class bitmasks, ordered by class index."""
        masks = [0] * self.k
        for v, c in enumerate(self.assignment):
            masks[c] |= 1 << v
        return tuple(masks)

    def class_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.k
        for c in self.assignment:
            sizes[c] += 1
        return tuple(sizes)

    def __eq__(self, other) -> bool:
        return isinstance(other, Colouring) and self.assignment == other.assignment

    def __hash__(self) -> int:
        return hash(self.assignment)

    def __repr__(self) -> str:
        return f"Colouring({list(self.assignment)!r})"


def is_proper(g: Graph, c: Colouring) -> bool:
    """No edge inside a class, and the colouring covers exactly V(g)."""
    if c.n != g.n:
        return False
    for mask in c.classes():
        m = mask
        while m:
            b = m & -m
            if g.adj[b.bit_length() - 1] & mask:
                return False
            m ^= b
    return True


class _CapReached(Exception):
    """Stops the enumeration: ``cap`` leaves reached, or ``on_leaf`` returned true."""


# entries one count memo stores at most; past it, lookups go on but nothing new is stored
_MEMO_MAX = 1 << 16


def _enumerate_partitions(
    g: Graph,
    k: int,
    cap: int | None,
    on_leaf: Callable[[tuple[int, ...]], bool | None] | None = None,
    budget: Budget | None = None,
) -> tuple[int, bool]:
    """The one search behind counting, search, chi, sigma and the decision.

    Enumerates every partition of V(g) into at most k non-empty independent
    classes exactly once.  Vertices are chosen by descending saturation
    degree (ties: degree, then lowest index).  Returns (count, capped);
    capped means enumeration stopped early: ``cap`` leaves were reached, or
    ``on_leaf`` returned a true value at the last leaf counted.  That is
    the one way a caller stops the search; ``count`` then includes that
    leaf, and the budget is charged as for a count capped there.

    Position p is the p-th vertex by descending degree (ties: lowest index).
    ``by_sat[s]`` holds the uncoloured positions whose neighbours use s
    classes; a neighbour that gains a class moves up one level.  ``obit[p]``
    is the bit of position p's vertex, so the class masks handed to
    ``on_leaf`` are in the graph's own labels.

    When counting with ``cap`` None or above 2, ``memo`` maps the residual
    state (remaining, nopen, sorted open-class neighbourhoods within
    remaining) to the leaves below a node and the budget units spent below
    it.  That key is a canonical form of the subproblem under class
    relabelling, so the subtree below it is the same up to the order of its
    branches.  A hit adds the leaves and spends the units at once, but only
    when count + leaves stays below ``cap``; otherwise the search descends
    and stops at the same leaf and node as it would uncached.  With cap <= 2
    no entry could ever be used, and subtrees without leaves are not stored,
    so the memo holds one entry per distinct state with leaves below it, up
    to ``_MEMO_MAX`` entries, and lives for one call.  A full memo only stops
    storing, so every outcome stays exact.  States with fewer than two
    uncoloured vertices are not looked up: one node and its leaves are
    cheaper to reach than a key is to build.
    """
    n = g.n
    if k < 0:
        raise ValueError("class budget k must be non-negative")
    if n == 0:
        stopped = on_leaf is not None and bool(on_leaf(()))
        return (1 if cap is None or cap >= 1 else 0, stopped)
    if k == 0:
        return 0, False
    rows = g.adj
    order = sorted(range(n), key=[-r.bit_count() for r in rows].__getitem__)
    pbit = [0] * n  # vertex -> bit of its position
    for p, v in enumerate(order):
        pbit[v] = 1 << p
    adj = []
    for v in order:
        row = 0
        m = rows[v]
        while m:
            b = m & -m
            row |= pbit[b.bit_length() - 1]
            m ^= b
        adj.append(row)
    obit = [1 << v for v in order]
    by_sat = [0] * (k + 1)
    by_sat[0] = (1 << n) - 1
    nbr = [0] * k  # positions adjacent to each class
    class_masks = [0] * k  # each class, in vertex bits
    top = k - 1
    count = 0
    spent = 0  # units charged to the budget, for the memo's node counts
    memo: dict[tuple, tuple[int, int]] | None = (
        {} if on_leaf is None and (cap is None or cap > 2) else None
    )

    def rec(remaining: int, nopen: int) -> None:
        nonlocal count, spent
        if budget is not None:
            budget.spend()
            spent += 1
        if not remaining:
            count += 1
            if on_leaf is not None and on_leaf(tuple(class_masks[:nopen])):
                raise _CapReached
            if cap is not None and count >= cap:
                raise _CapReached
            return
        s = nopen
        while not by_sat[s]:
            s -= 1
        level = by_sat[s]
        vbit = level & -level
        rest = remaining ^ vbit
        key = None
        if memo is not None and rest:  # two or more vertices remain
            key = (remaining, nopen, tuple(sorted([nbr[c] & remaining for c in range(nopen)])))
            hit = memo.get(key)
            if hit is not None and (cap is None or count + hit[0] < cap):
                count += hit[0]
                if budget is not None:
                    budget.spend(hit[1])
                    spent += hit[1]
                return
            count0, spent0 = count, spent
        by_sat[s] = level ^ vbit
        saved = by_sat[:]
        v = vbit.bit_length() - 1
        row = adj[v] & rest
        ob = obit[v]
        # the open classes, lowest first, then a new class if one is left
        for c in range(nopen + 1 if nopen < k else k):
            old = nbr[c]
            if old & vbit:
                continue
            gain = row & ~old
            now_open = nopen + 1 if c == nopen else nopen
            if now_open == k and gain & by_sat[top]:
                continue  # a neighbour would see all k classes
            t = nopen
            while gain:
                x = by_sat[t] & gain
                if x:
                    by_sat[t] ^= x
                    by_sat[t + 1] |= x
                    gain ^= x
                t -= 1
            nbr[c] = old | row
            class_masks[c] |= ob
            rec(rest, now_open)
            class_masks[c] ^= ob
            nbr[c] = old
            by_sat[:] = saved
        by_sat[s] = level
        if key is not None and count > count0 and len(memo) < _MEMO_MAX:
            memo[key] = (count - count0, spent - spent0)

    try:
        rec((1 << n) - 1, 0)
    except _CapReached:
        return count, True
    finally:
        del rec  # the search refers to itself; drop that cycle for reference counting
    return count, False


def count_colour_partitions(
    g: Graph, k: int, cap: int = 2, budget: Budget | None = None
) -> int:
    """Number of partitions into <= k non-empty independent classes, capped.

    Returns min(true count, cap); a result equal to cap means "at least cap".
    The order-0 graph has exactly one such partition (the empty one).
    """
    if cap < 1:
        raise ColouringError("cap must be at least 1")
    count, _ = _enumerate_partitions(g, k, cap, budget=budget)
    return count


def _colouring_of(n: int, masks: tuple[int, ...]) -> Colouring:
    """The colouring of vertices 0..n-1 whose classes are the bitmasks ``masks``."""
    assignment = [0] * n
    for idx, mask in enumerate(masks):
        m = mask
        while m:
            b = m & -m
            assignment[b.bit_length() - 1] = idx
            m ^= b
    return Colouring(assignment)


def find_colour_partition(g: Graph, k: int, budget: Budget | None = None) -> Colouring | None:
    """Some proper partition into <= k classes, or None.  Deterministic."""
    holder: list[tuple[int, ...]] = []
    _enumerate_partitions(g, k, 1, on_leaf=holder.append, budget=budget)
    return _colouring_of(g.n, holder[0]) if holder else None


def chromatic_number(g: Graph, budget: Budget | None = None) -> int:
    """Exact chromatic number; 0 for the order-0 graph by convention.

    Tries k = omega(g), omega(g) + 1, ... until a partition into <= k classes
    exists.  The enumeration's first path is the DSATUR greedy colouring, so
    once k reaches the greedy bound the search succeeds in about n nodes.
    """
    if g.n == 0:
        return 0
    k = clique_number(g)
    while count_colour_partitions(g, k, cap=1, budget=budget) == 0:
        k += 1
    return k


def _sigma(g: Graph, chi: int, budget: Budget | None) -> int:
    """Smallest class size over all partitions into ``chi`` = chi(g) classes.

    The enumeration stops at the first partition with a one-vertex class,
    since no class is smaller.
    """
    best = g.n + 1

    def leaf(masks: tuple[int, ...]) -> bool:
        nonlocal best
        best = min(best, *map(int.bit_count, masks))
        return best == 1

    _enumerate_partitions(g, chi, None, on_leaf=leaf, budget=budget)
    return best


def sigma(g: Graph, budget: Budget | None = None) -> int:
    """Smallest class size over all chromatic colourings (full enumeration)."""
    if g.n == 0:
        raise ColouringError("sigma undefined for the order-0 graph")
    return _sigma(g, chromatic_number(g, budget), budget)


def chi_cr(g: Graph, budget: Budget | None = None) -> Fraction:
    """Critical chromatic number (chi - 1) * n / (n - sigma), exact rational."""
    chi = chromatic_number(g, budget)
    if chi <= 1:
        raise ColouringError("critical chromatic number undefined when chi <= 1")
    return Fraction((chi - 1) * g.n, g.n - _sigma(g, chi, budget))


def is_uniquely_k_colourable(g: Graph, k: int, budget: Budget | None = None) -> bool:
    """Exactly one partition into <= k independent classes, and chi = k.

    Raises BudgetExceededError when the budget runs out before the decision.
    """
    verdict = _decide(g, k, budget=budget).verdict
    if verdict == "unknown-capped":
        raise BudgetExceededError("budget exhausted before the decision")
    return verdict == "yes"


def kempe_change(g: Graph, c: Colouring, class_a: int, class_b: int, seed: int) -> Colouring:
    """Swap classes a and b on the component of g[A ∪ B] containing seed.

    The result is again proper; classes are renumbered canonically (a class
    may disappear when its vertices all move).
    """
    if not is_proper(g, c):
        raise ColouringError("kempe_change requires a proper colouring")
    if class_a == class_b:
        raise ColouringError("kempe_change needs two distinct classes")
    masks = c.classes()
    if not (0 <= class_a < c.k and 0 <= class_b < c.k):
        raise ColouringError("class index out of range")
    union = masks[class_a] | masks[class_b]
    if not 0 <= seed < g.n or not (union >> seed) & 1:
        raise ColouringError(f"seed vertex {seed} not in either class")
    comp = _component(g.adj, 1 << seed, union)
    assignment = list(c.assignment)
    m = comp
    while m:
        b = m & -m
        v = b.bit_length() - 1
        assignment[v] = class_b if assignment[v] == class_a else class_a
        m ^= b
    out = Colouring(assignment)
    assert is_proper(g, out)
    return out


def two_class_connected(g: Graph, c: Colouring) -> bool:
    """Is g[A ∪ B] connected for every pair of colour classes A, B?"""
    if not is_proper(g, c):
        raise ColouringError("two_class_connected requires a proper colouring")
    masks = c.classes()
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            union = masks[i] | masks[j]
            if _component(g.adj, union & -union, union) != union:
                return False
    return True


def xu_bound_holds(g: Graph, k: int) -> tuple[bool, int]:
    """Edge lower bound (k-1) n - k (k-1) / 2 for uniquely k-colourable graphs.

    Returns (bound holds, slack); slack = |E| minus the bound.
    """
    if k < 1:
        raise ColouringError("k must be at least 1")
    bound = (k - 1) * g.n - k * (k - 1) // 2
    slack = g.edge_count() - bound
    return slack >= 0, slack


class VerificationReport(NamedTuple):
    """Outcome of the full uniquely-k-colourable battery on one graph.

    ``uniquely_colourable`` is "yes" (exactly one partition into <= k
    classes, and it has k classes), "no" (any other count, or one partition
    of fewer than k classes), or "unknown-capped" when the search budget ran
    out before the decision.  ``partition_count`` is the number of
    partitions into <= k classes found, stopped at the enumeration's cap; when
    ``count_capped`` is true it is a lower bound, and under "unknown-capped"
    it counts those reached before the budget ran out.  ``connectivity_ok``
    is None when the budget ran out during the (k-1)-connectivity test.
    ``two_class_connected_ok`` is None when chi != k or when the budget ran
    out before chi = k was known.
    """

    graph6: str
    k: int
    min_degree_ok: bool
    connected_ok: bool
    connectivity_ok: bool | None
    xu_slack: int
    two_class_connected_ok: bool | None
    partition_count: int
    count_capped: bool
    uniquely_colourable: str

    def to_json_dict(self) -> dict:
        return self._asdict()


class _Decision(NamedTuple):
    """What the colouring enumeration found.  ``colouring`` is the first
    partition it reached, the one find_colour_partition returns, or None."""

    colouring: Colouring | None
    count: int
    capped: bool
    verdict: str


def _decide(g: Graph, k: int, cap: int = 2, budget: Budget | None = None) -> _Decision:
    """One enumeration of the partitions into <= k classes, stopped at
    ``cap``, keeping its first partition as the colouring.

    The verdict is "yes" iff the count is 1 and that partition has exactly
    k classes, which is exact without the chromatic number.  When chi = k
    every partition has k classes.  When chi < k, either some class of a
    chi-colouring has two vertices, and splitting it gives a second
    partition, or the graph is K_n with n < k, whose one partition has n
    classes.
    """
    if k < 1:
        raise ColouringError("k must be at least 1")
    if cap < 2:
        raise ColouringError("cap below 2 cannot certify uniqueness")
    first: list[tuple[int, ...]] = []
    reached = 0

    def keep_first(masks: tuple[int, ...]) -> None:
        nonlocal reached
        reached += 1
        if not first:
            first.append(masks)

    try:
        count, capped = _enumerate_partitions(g, k, cap, keep_first, budget)
        verdict = "yes" if count == 1 and len(first[0]) == k else "no"
    except BudgetExceededError:
        count, capped, verdict = reached, True, "unknown-capped"
    colouring = _colouring_of(g.n, first[0]) if first else None
    return _Decision(colouring, count, capped, verdict)


def _report(
    g: Graph, k: int, decision: _Decision, budget: Budget | None = None
) -> VerificationReport:
    """The report on a decision: adds the structural checks, and is the only
    step that runs the (k-1)-connectivity test, under ``budget``.
    ``connectivity_ok`` is None when the budget runs out during that test.
    ``two_class_connected_ok`` is None unless chi(g) = k is known: a count of
    1 settles it, a larger count one more enumeration at k - 1 under the
    same budget; a count of 0 or a first partition of fewer than k classes
    means chi != k.  Under "unknown-capped" the count is only a lower bound,
    so one partition does not settle it."""
    n = g.n
    first = decision.colouring
    chi_is_k = decision.verdict == "yes"
    if decision.count >= 2 and first.k == k:  # chi = k unless g is (k-1)-colourable
        try:
            chi_is_k = count_colour_partitions(g, k - 1, 1, budget) == 0
        except BudgetExceededError:
            pass
    two_ok = two_class_connected(g, first) if chi_is_k else None
    try:
        connectivity_ok: bool | None = vertex_connectivity_at_least(g, k - 1, budget)
    except BudgetExceededError:
        connectivity_ok = None
    return VerificationReport(
        graph6=emit_graph6(g),
        k=k,
        min_degree_ok=n > 0 and g.min_degree() >= k - 1,
        connected_ok=n > 0 and is_connected(g),
        connectivity_ok=connectivity_ok,
        xu_slack=xu_bound_holds(g, k)[1],
        two_class_connected_ok=two_ok,
        partition_count=decision.count,
        count_capped=decision.capped,
        uniquely_colourable=decision.verdict,
    )


def verify(g: Graph, k: int, cap: int = 2, budget: Budget | None = None) -> VerificationReport:
    """Run every check of the battery and report them together.

    The colouring decision runs first, under the budget: one enumeration of
    the partitions into <= k classes capped at ``cap``.  The structural
    checks follow, among them the (k-1)-connectivity test, which spends what
    is left of the same budget and reports ``connectivity_ok`` None when it
    runs out.  The verdict is "yes" only when the exact partition count is 1
    and that partition has k classes, that is chi(g) = k; a count that
    merely hit ``cap`` yields "no" (there are at least cap partitions),
    while budget exhaustion yields "unknown-capped".
    """
    return _report(g, k, _decide(g, k, cap, budget), budget)
