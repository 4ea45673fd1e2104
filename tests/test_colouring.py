import json
import random
import sys
from contextlib import nullcontext
from fractions import Fraction
from math import comb, factorial

import pytest

from conftest import brute_chromatic_number, brute_count_partitions, brute_sigma, random_graph
from unicolor.budget import Budget, BudgetExceededError
from unicolor.colouring import (
    Colouring,
    ColouringError,
    _enumerate_partitions,
    chi_cr,
    chromatic_number,
    count_colour_partitions,
    find_colour_partition,
    is_proper,
    is_uniquely_k_colourable,
    kempe_change,
    sigma,
    two_class_connected,
    verify,
    xu_bound_holds,
)
from unicolor.graphs import (
    MAX_ORDER,
    Graph,
    clique_number,
    complete_graph,
    complete_join,
    cycle_graph,
    emit_graph6,
    path_graph,
)


class TestColouring:
    def test_canonical_relabelling(self):
        a = Colouring([2, 0, 2, 1])
        b = Colouring([0, 1, 0, 2])
        assert a == b and hash(a) == hash(b)
        assert a.assignment == (0, 1, 0, 2)
        assert a.k == 3

    def test_from_classes(self):
        c = Colouring.from_classes(4, [[1, 3], [0, 2]])
        assert c.assignment == (0, 1, 0, 1)
        assert c.classes() == (0b0101, 0b1010)
        assert c.class_sizes() == (2, 2)

    def test_from_classes_validation(self):
        with pytest.raises(ColouringError, match="empty"):
            Colouring.from_classes(2, [[0, 1], []])
        with pytest.raises(ColouringError):
            Colouring.from_classes(2, [[0], [0, 1]])  # overlap
        with pytest.raises(ColouringError):
            Colouring.from_classes(3, [[0], [1]])  # vertex 2 uncovered
        with pytest.raises(ColouringError):
            Colouring.from_classes(2, [[0], [5]])  # out of range
        with pytest.raises(ColouringError):
            Colouring([0, -1])
        with pytest.raises(ColouringError, match="True"):
            Colouring([True, False])  # a bool is no class label

    def test_is_proper(self):
        g = path_graph(4)
        assert is_proper(g, Colouring([0, 1, 0, 1]))
        assert not is_proper(g, Colouring([0, 0, 1, 0]))


class TestCounting:
    def test_against_brute_force_random(self):
        rng = random.Random(4100)
        checked = 0
        for _ in range(250):
            n = rng.randrange(0, 8)
            g = random_graph(rng, n, rng.random())
            k = rng.randrange(1, 5)
            mine = count_colour_partitions(g, k, cap=10 ** 9)
            brute = brute_count_partitions(g, k)
            assert mine == brute, (emit_graph6(g), k)
            checked += 1
        assert checked == 250

    def test_cap_semantics(self):
        g = Graph(6)  # edgeless: many partitions
        assert count_colour_partitions(g, 3, cap=2) == 2
        assert count_colour_partitions(g, 1, cap=2) == 1

    def test_knowns(self):
        assert count_colour_partitions(complete_graph(4), 4, cap=10) == 1
        assert count_colour_partitions(cycle_graph(5), 2, cap=10) == 0
        # C5 at 3 colours: 5 partitions
        assert count_colour_partitions(cycle_graph(5), 3, cap=100) == 5
        assert count_colour_partitions(Graph(0), 3, cap=10) == 1

    def test_budget_abort(self):
        g = Graph(14)
        with pytest.raises(BudgetExceededError):
            count_colour_partitions(g, 6, cap=10 ** 9, budget=Budget(max_nodes=50))

    def test_find_partition(self):
        c = find_colour_partition(cycle_graph(6), 2)
        assert c is not None and is_proper(cycle_graph(6), c)
        assert find_colour_partition(cycle_graph(5), 2) is None


def _spent(budget: Budget) -> int:
    return 10 ** 9 - budget.nodes_left


def _mycielskian(g: Graph) -> Graph:
    """Shadow n + v copies the neighbourhood of v; apex 2n joins every shadow."""
    n = g.n
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v)]
    edges += [(u, n + v) for u, v in edges] + [(v, n + u) for u, v in edges]
    edges += [(n + v, 2 * n) for v in range(n)]
    return Graph(2 * n + 1, edges)


def _dsatur_greedy(g: Graph) -> Colouring:
    """Brelaz's greedy colouring: the uncoloured vertex of largest
    (saturation, degree, -index) takes the lowest class its neighbours miss."""
    colour = [-1] * g.n
    for _ in range(g.n):
        def key(u: int) -> tuple[int, int, int]:
            seen = {colour[w] for w in range(g.n) if g.has_edge(u, w) and colour[w] >= 0}
            return (len(seen), g.degree(u), -u)

        v = max((u for u in range(g.n) if colour[u] < 0), key=key)
        used = {colour[w] for w in range(g.n) if g.has_edge(v, w)}
        colour[v] = min(c for c in range(g.n) if c not in used)
    return Colouring(colour)


def _count_from_polynomial(poly, k: int) -> int:
    """Partitions into at most k independent classes, from the chromatic
    polynomial P(x) = sum_j a_j x(x-1)...(x-j+1), where a_j counts the
    partitions into exactly j classes: a_j = sum_i (-1)^(j-i) C(j, i) P(i) / j!."""
    return sum(
        sum((-1) ** (j - i) * comb(j, i) * poly(i) for i in range(j + 1)) // factorial(j)
        for j in range(1, k + 1)
    )


def _repeated_state_cases():
    """C12 and the edgeless Graph(8), whose residual states repeat heavily,
    and 20 seeded random graphs."""
    yield cycle_graph(12), 4
    yield Graph(8), 4
    rng = random.Random(4600)
    for _ in range(20):
        n = rng.randrange(6, 13)
        g = random_graph(rng, n, rng.uniform(0.3, 0.6))
        yield g, chromatic_number(g) + rng.randrange(2)


def _listing(g: Graph, k: int) -> tuple[int, list[int], int]:
    """The uncached search, listing every leaf: (count, units spent when
    each leaf was reached, units spent in all).  A listing capped at c stops
    right after its c-th leaf, so this gives its outcome for every cap."""
    budget = Budget(max_nodes=10 ** 9)
    marks: list[int] = []
    count, _ = _enumerate_partitions(g, k, None, lambda _: marks.append(_spent(budget)), budget)
    return count, marks, _spent(budget)


class TestEnumerationKernel:
    def test_differential_against_brute_force(self):
        rng = random.Random(4300)
        rows = 0
        for n in [rng.randrange(0, 9) for _ in range(78)] + [9, 10]:  # brute force is slow past 8
            g = random_graph(rng, n, rng.random())
            for k in range(6):
                brute = brute_count_partitions(g, k)
                for cap in (None, 1, 2, 5):
                    counted, listed = Budget(max_nodes=10 ** 9), Budget(max_nodes=10 ** 9)
                    leaves: list[tuple[int, ...]] = []
                    got = _enumerate_partitions(g, k, cap, budget=counted)
                    assert got == _enumerate_partitions(g, k, cap, leaves.append, listed)
                    assert _spent(counted) == _spent(listed), (emit_graph6(g), k, cap)
                    want = brute if cap is None else min(brute, cap)
                    capped = n > 0 and cap is not None and brute >= cap  # order 0: one leaf, no search
                    assert got == (want, capped), (emit_graph6(g), k, cap)
                    assert len(leaves) == want
                    for masks in leaves:  # in the graph's own labels
                        classes = [[v for v in range(n) if m >> v & 1] for m in masks]
                        assert is_proper(g, Colouring.from_classes(n, classes))
                    rows += 1
        assert rows == 80 * 6 * 4

    def test_cap_inside_one_bulk_step(self):
        g = Graph(3)  # five partitions; the last vertex closes 2 and then 3 of them at once
        for cap in range(1, 7):
            budget = Budget(max_nodes=10 ** 9)
            assert _enumerate_partitions(g, 3, cap, budget=budget) == (min(5, cap), cap <= 5)
            leaves: list[tuple[int, ...]] = []
            listed = Budget(max_nodes=10 ** 9)
            assert _enumerate_partitions(g, 3, cap, leaves.append, listed) == (min(5, cap), cap <= 5)
            assert _spent(budget) == _spent(listed)

    def test_on_leaf_stop_ends_the_search_like_a_cap(self):
        # an on_leaf that returns True on its j-th leaf reaches no further
        # leaf and spends what a count capped at j spends
        rng = random.Random(4700)
        cases = [(Graph(3), 3), (cycle_graph(7), 3), (path_graph(5), 3)]
        cases += [(random_graph(rng, 8, 0.4), 4) for _ in range(3)]
        for g, k in cases:
            count, marks, _ = _listing(g, k)
            for j in range(1, count + 1):
                reached: list[tuple[int, ...]] = []

                def stop_at_j(masks: tuple[int, ...]) -> bool:
                    reached.append(masks)
                    return len(reached) == j

                stopped, capped = Budget(max_nodes=10 ** 9), Budget(max_nodes=10 ** 9)
                assert _enumerate_partitions(g, k, None, stop_at_j, stopped) == (j, True)
                assert len(reached) == j
                assert _enumerate_partitions(g, k, j, budget=capped) == (j, True)
                assert _spent(stopped) == _spent(capped) == marks[j - 1], (emit_graph6(g), k, j)
        assert _enumerate_partitions(Graph(0), 2, None, lambda _: True) == (1, True)

    def test_first_leaf_is_the_dsatur_greedy_colouring(self):
        rng = random.Random(4400)
        checked = 0
        for _ in range(200):
            n = rng.randrange(1, 12)
            g = random_graph(rng, n, rng.random())
            greedy = _dsatur_greedy(g)
            for k in range(greedy.k, greedy.k + 2):
                assert find_colour_partition(g, k) == greedy, (emit_graph6(g), k)
                checked += 1
        assert checked == 400

    def test_search_node_counts_are_pinned(self):
        m5 = _mycielskian(_mycielskian(_mycielskian(complete_graph(2))))  # K2 -> C5 -> M4 -> M5
        assert m5.n == 23
        budget = Budget(max_nodes=10 ** 9)
        assert chromatic_number(m5, budget) == 5 and _spent(budget) == 825
        budget = Budget(max_nodes=10 ** 9)
        assert count_colour_partitions(cycle_graph(10), 4, 2 ** 62, budget) == 2461
        assert _spent(budget) == 4107
        w9 = complete_join(cycle_graph(9), Graph(1))
        budget = Budget(max_nodes=10 ** 9)
        assert count_colour_partitions(w9, 5, 2 ** 62, budget) == 820
        assert _spent(budget) == 1373

    def test_cycle_and_wheel_counts_from_chromatic_polynomials(self):
        # equivalent residual states are counted once, so even C60 into five
        # classes (about 1.6e34 partitions) is counted well inside the budget
        budget = Budget(max_seconds=10)
        for n in range(3, 61):
            def cycle(x: int) -> int:
                return (x - 1) ** n + (-1) ** n * (x - 1)

            def wheel(x: int) -> int:
                return x * cycle(x - 1)

            graphs = ((cycle_graph(n), cycle), (complete_join(cycle_graph(n), Graph(1)), wheel))
            for k in range(3, 6):
                for g, poly in graphs:
                    got = count_colour_partitions(g, k, 2 ** 200, budget)
                    assert got == _count_from_polynomial(poly, k), (emit_graph6(g), k)

    def test_cached_count_stops_like_the_listing_at_every_cap(self):
        for g, k in _repeated_state_cases():
            count, marks, full = _listing(g, k)
            for cap in range(3, count + 2):
                budget = Budget(max_nodes=10 ** 9)
                got = _enumerate_partitions(g, k, cap, budget=budget)
                assert got == (min(count, cap), cap <= count), (emit_graph6(g), k, cap)
                assert _spent(budget) == (marks[cap - 1] if cap <= count else full)

    def test_cached_count_exhausts_node_budgets_like_the_listing(self):
        for g, k in _repeated_state_cases():
            full = _listing(g, k)[2]
            for max_nodes in range(max(0, full - 4), full + 4):
                raised = []
                for on_leaf in (None, lambda _: None):
                    try:
                        _enumerate_partitions(g, k, None, on_leaf, Budget(max_nodes=max_nodes))
                        raised.append(False)
                    except BudgetExceededError:
                        raised.append(True)
                assert raised == [max_nodes < full] * 2, (emit_graph6(g), k, max_nodes)

    def test_full_memo_changes_no_outcome(self, monkeypatch):
        # a memo that stops storing after 4 entries still ends every capped
        # count and every node budget where the listing does; the caps are
        # thinned out, since a count that stores almost nothing is slow
        import unicolor.colouring as colouring_module

        monkeypatch.setattr(colouring_module, "_MEMO_MAX", 4)
        for g, k in _repeated_state_cases():
            count, marks, full = _listing(g, k)
            caps = set(range(3, min(count, 40) + 2)) | set(range(3, count + 2, 1 + count // 40))
            for cap in sorted(caps | {count, count + 1}):
                budget = Budget(max_nodes=10 ** 9)
                got = _enumerate_partitions(g, k, cap, budget=budget)
                assert got == (min(count, cap), cap <= count), (emit_graph6(g), k, cap)
                assert _spent(budget) == (marks[cap - 1] if cap <= count else full)
            for max_nodes in range(max(0, full - 4), full + 4):
                with pytest.raises(BudgetExceededError) if max_nodes < full else nullcontext():
                    _enumerate_partitions(g, k, None, budget=Budget(max_nodes=max_nodes))


class TestChromaticNumber:
    def test_against_brute(self):
        rng = random.Random(4200)
        for _ in range(150):
            n = rng.randrange(0, 8)
            g = random_graph(rng, n, rng.random())
            assert chromatic_number(g) == brute_chromatic_number(g)

    def test_knowns(self):
        assert chromatic_number(Graph(0)) == 0
        assert chromatic_number(Graph(3)) == 1
        assert chromatic_number(complete_graph(7)) == 7
        assert chromatic_number(cycle_graph(9)) == 3


class TestSigmaChiCr:
    def test_knowns(self):
        # K_n: singleton classes, chi_cr = (n-1)*n/(n-1) = n (balanced)
        assert sigma(complete_graph(4)) == 1
        assert chi_cr(complete_graph(4)) == Fraction(4)
        # C5: some 3-partition has a singleton
        assert sigma(cycle_graph(5)) == 1
        assert chi_cr(cycle_graph(5)) == Fraction(2 * 5, 4)
        # C6 bipartition 3+3, balanced
        assert sigma(cycle_graph(6)) == 3
        assert chi_cr(cycle_graph(6)) == Fraction(2)
        # star K_{1,3}: classes {centre}, {leaves}
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert sigma(star) == 1
        assert chi_cr(star) == Fraction(4, 3)

    def test_against_brute_force(self):
        rng = random.Random(4500)
        for _ in range(160):
            n = rng.randrange(1, 9)
            g = random_graph(rng, n, rng.random())
            want = brute_sigma(g)
            assert sigma(g) == want, emit_graph6(g)
            chi = brute_chromatic_number(g)
            if chi >= 2:
                assert chi_cr(g) == Fraction((chi - 1) * n, n - want), emit_graph6(g)

    def test_stops_at_a_one_vertex_class(self):
        # the first 3-partition of C21 has one, so 349,525 partitions go unlisted
        assert sigma(cycle_graph(21), Budget(max_nodes=200)) == 1

    def test_undefined_cases(self):
        with pytest.raises(ColouringError):
            sigma(Graph(0))
        with pytest.raises(ColouringError):
            chi_cr(Graph(3))  # chi = 1

    def test_bounds_and_equality_iff_balanced(self):
        rng = random.Random(4300)
        seen_equal = seen_strict = 0
        for _ in range(120):
            n = rng.randrange(2, 8)
            g = random_graph(rng, n, rng.uniform(0.2, 0.9))
            chi = chromatic_number(g)
            if chi < 2:
                continue
            value = chi_cr(g)
            assert chi - 1 < value <= chi
            # equality iff every chi-partition is balanced
            balanced_all = _all_chi_partitions_balanced(g, chi)
            assert (value == chi) == balanced_all
            seen_equal += balanced_all
            seen_strict += not balanced_all
        assert seen_equal > 5 and seen_strict > 5


def _all_chi_partitions_balanced(g: Graph, chi: int) -> bool:
    from conftest import _restricted_growth

    for labels in _restricted_growth(g.n):
        classes = max(labels) + 1
        if classes > chi:
            continue
        if any(g.has_edge(u, v) for u in range(g.n) for v in range(u + 1, g.n)
               if labels[u] == labels[v]):
            continue
        sizes = [labels.count(c) for c in range(classes)]
        if len(set(sizes)) != 1:
            return False
    return True


class TestUniqueColourability:
    def test_against_brute_definition(self):
        rng = random.Random(4400)
        positives = 0
        for _ in range(300):
            n = rng.randrange(1, 8)
            g = random_graph(rng, n, rng.random())
            k = rng.randrange(1, 5)
            brute = (brute_chromatic_number(g) == k
                     and brute_count_partitions(g, k) == 1)
            assert is_uniquely_k_colourable(g, k) == brute, (emit_graph6(g), k)
            positives += brute
        assert positives > 10

    def test_decision_without_chi_matches_brute(self):
        # the verdict, the capped count and whether chi = k (which only
        # two_class_connected_ok reveals) against the restricted-growth oracle
        rng = random.Random(4450)
        rows = {"chi = k, count >= 2": 0, "chi < k": 0, "yes": 0}
        for _ in range(160):
            n = rng.randrange(1, 8)
            g = random_graph(rng, n, rng.random())
            chi = brute_chromatic_number(g)
            for k in range(1, 6):
                brute = brute_count_partitions(g, k, cap=2)
                report = verify(g, k)
                label = (emit_graph6(g), k)
                expected = "yes" if chi == k and brute == 1 else "no"
                assert report.uniquely_colourable == expected, label
                assert report.partition_count == min(brute, 2), label
                assert report.count_capped == (brute >= 2), label
                assert (report.two_class_connected_ok is None) == (chi != k), label
                if chi == k:
                    first = find_colour_partition(g, k)
                    assert report.two_class_connected_ok == two_class_connected(g, first), label
                rows["chi = k, count >= 2"] += chi == k and brute >= 2
                rows["chi < k"] += chi < k
                rows["yes"] += expected == "yes"
        assert min(rows.values()) > 20, rows

    def test_knowns(self):
        assert is_uniquely_k_colourable(complete_graph(5), 5)
        assert is_uniquely_k_colourable(cycle_graph(6), 2)  # connected bipartite
        assert not is_uniquely_k_colourable(Graph(4, [(0, 1), (2, 3)]), 2)
        assert not is_uniquely_k_colourable(cycle_graph(5), 3)  # 5 partitions
        assert is_uniquely_k_colourable(Graph(3), 1)  # edgeless
        assert not is_uniquely_k_colourable(path_graph(3), 1)

    def test_searches_reach_the_order_cap(self):
        # each search nests one frame per vertex, past Python's default
        # limit of 1,000 frames; importing unicolor raises the limit
        assert sys.getrecursionlimit() >= MAX_ORDER + 1000
        assert clique_number(complete_graph(MAX_ORDER)) == MAX_ORDER
        assert verify(path_graph(MAX_ORDER), 2).uniquely_colourable == "yes"

    def test_k_validation(self):
        with pytest.raises(ColouringError):
            is_uniquely_k_colourable(Graph(2), 0)


class TestKempe:
    def test_swap_and_undo(self):
        g = cycle_graph(5)
        c = find_colour_partition(g, 3)
        assert c is not None
        moved = kempe_change(g, c, 0, 1, seed=_first_vertex_of_class(c, 0))
        assert is_proper(g, moved)
        back = kempe_change(g, moved, 0, 1, seed=_first_vertex_of_class(moved, 0))
        # swapping the same component back restores the partition
        assert back == c or moved == c

    def test_unique_graph_kempe_fixed(self):
        # on a uniquely colourable graph every Kempe move keeps the partition
        g = cycle_graph(6)
        c = find_colour_partition(g, 2)
        moved = kempe_change(g, c, 0, 1, seed=0)
        assert moved == c

    def test_validation(self):
        g = cycle_graph(5)
        c = find_colour_partition(g, 3)
        with pytest.raises(ColouringError):
            kempe_change(g, c, 0, 0, seed=0)
        with pytest.raises(ColouringError):
            kempe_change(g, c, 0, 9, seed=0)
        with pytest.raises(ColouringError):
            kempe_change(g, Colouring([0, 0, 1, 2, 1]), 0, 1, seed=0)  # improper


def _first_vertex_of_class(c: Colouring, idx: int) -> int:
    return c.assignment.index(idx)


class TestTwoClassConnected:
    def test_cases(self):
        g = cycle_graph(6)
        assert two_class_connected(g, find_colour_partition(g, 2))
        h = Graph(4, [(0, 1), (2, 3)])
        assert not two_class_connected(h, Colouring([0, 1, 0, 1]))


class TestXuBound:
    def test_complete_graphs_are_tight(self):
        for k in range(3, 9):
            ok, slack = xu_bound_holds(complete_graph(k), k)
            assert ok and slack == 0

    def test_formula(self):
        # 24 vertices, 45 edges, k=3: bound is 2*24 - 3 = 45, slack 0
        edges = []
        for u in range(24):
            for v in range(u + 1, 24):
                if len(edges) < 45:
                    edges.append((u, v))
        g = Graph(24, edges)
        ok, slack = xu_bound_holds(g, 3)
        assert ok and slack == 0
        ok, slack = xu_bound_holds(path_graph(4), 3)
        assert not ok and slack == 3 - (2 * 4 - 3)


class TestVerify:
    def test_report_shape_and_field_order(self):
        report = verify(cycle_graph(6), 2)
        d = report.to_json_dict()
        assert list(d) == [
            "graph6", "k", "min_degree_ok", "connected_ok", "connectivity_ok",
            "xu_slack", "two_class_connected_ok", "partition_count",
            "count_capped", "uniquely_colourable",
        ]
        assert d["uniquely_colourable"] == "yes"
        assert d["partition_count"] == 1
        assert d["graph6"] == emit_graph6(cycle_graph(6))
        json.dumps(d)  # serialisable

    def test_no_verdict(self):
        report = verify(complete_graph(4), 3)
        assert report.uniquely_colourable == "no"

    def test_budget_capped_verdict(self):
        # unique graphs need the full enumeration, so a tiny budget fires
        report = verify(complete_graph(8), 8, budget=Budget(max_nodes=3))
        assert report.uniquely_colourable == "unknown-capped"
        assert report.count_capped

    def test_validation(self):
        with pytest.raises(ColouringError):
            verify(Graph(2), 0)
        with pytest.raises(ColouringError):
            verify(Graph(2), 1, cap=1)
