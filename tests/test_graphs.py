import hashlib
import math
import random

import pytest

from conftest import (
    brute_automorphism_count,
    brute_canonical_graph6,
    brute_clique_number,
    brute_is_isomorphic,
    brute_vertex_connectivity_at_least,
    group_order,
    is_automorphism,
    random_graph,
)
import unicolor.graphs as graphs_module
from unicolor.budget import Budget, BudgetExceededError
from unicolor.constructions import builtin_catalog, nu
from unicolor.graphs import (
    Graph,
    _canonical,
    _canonical_if_last,
    _canonical_placement,
    _neighbour_lists,
    _refine_colours,
    Graph6Error,
    OrderLimitError,
    canonical_form,
    clique_number,
    complete_graph,
    complete_join,
    cycle_graph,
    emit_graph6,
    girth,
    independence_number,
    is_connected,
    is_isomorphic,
    is_triangle_free,
    parse_graph6,
    path_graph,
    shortest_cycle,
    to_dot,
    vertex_connectivity_at_least,
)


class TestGraphBasics:
    def test_construction_and_accessors(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4), (0, 1)])
        assert g.n == 5
        assert g.edge_count() == 3  # duplicate edge collapses
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.degree(1) == 2
        assert g.degrees() == [1, 2, 1, 1, 1]
        assert sorted(g.edges()) == [(0, 1), (1, 2), (3, 4)]
        assert g.neighbours(1) == 0b101  # bitmask of {0, 2}

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(-1)
        with pytest.raises(OrderLimitError):
            Graph(1025)

    def test_builders(self):
        assert complete_graph(4).edge_count() == 6
        assert path_graph(5).edge_count() == 4
        assert cycle_graph(5).edge_count() == 5
        j = complete_join(path_graph(2), path_graph(2))
        assert j.n == 4 and j.edge_count() == 2 + 4
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complement_and_removal(self):
        g = path_graph(4)
        c = g.complement()
        assert c.edge_count() == 6 - 3
        h = g.without_vertex(1)  # indices shift down
        assert h.n == 3 and sorted(h.edges()) == [(1, 2)]
        w = g.with_vertex(0b0101)
        assert w.n == 5 and w.degree(4) == 2 and w.has_edge(4, 0) and w.has_edge(4, 2)

    def test_equality_and_hash(self):
        assert path_graph(3) == Graph(3, [(0, 1), (1, 2)])
        assert hash(path_graph(3)) == hash(Graph(3, [(1, 2), (0, 1)]))
        assert path_graph(3) != cycle_graph(3)


class TestGraph6:
    def test_known_encodings(self):
        assert emit_graph6(complete_graph(3)) == "Bw"
        assert emit_graph6(Graph(0)) == "?"
        assert emit_graph6(Graph(1)) == "@"
        assert parse_graph6("Bw") == complete_graph(3)

    def test_round_trip_random(self):
        rng = random.Random(7001)
        for _ in range(300):
            n = rng.randrange(0, 17)
            g = random_graph(rng, n, rng.random())
            assert parse_graph6(emit_graph6(g)) == g

    def test_round_trip_long_form_orders(self):
        rng = random.Random(7002)
        for n in (62, 63, 64, 1024):
            g = random_graph(rng, n, 0.1)
            s = emit_graph6(g)
            if n >= 63:
                assert s.startswith("~")
            assert parse_graph6(s) == g

    def test_header_and_whitespace_accepted(self):
        assert parse_graph6(">>graph6<<Bw") == complete_graph(3)
        assert parse_graph6("Bw\n") == complete_graph(3)

    def test_error_taxonomy(self):
        with pytest.raises(Graph6Error, match="empty"):
            parse_graph6("")
        with pytest.raises(Graph6Error, match="character"):
            parse_graph6("B#")
        with pytest.raises(Graph6Error, match="truncated graph6 data"):
            parse_graph6("D")
        with pytest.raises(Graph6Error, match="trailing"):
            parse_graph6("BwBw")
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("B" + chr(63 + 0b111111))
        with pytest.raises(Graph6Error, match="order 1025 exceeds"):
            parse_graph6("~?O@")
        with pytest.raises(Graph6Error, match="order 258048 exceeds"):
            parse_graph6("~~???~??")  # the eight-byte form starts above the cap
        with pytest.raises(Graph6Error, match="order field"):
            parse_graph6("~~???")
        with pytest.raises(Graph6Error, match="order field"):
            parse_graph6("~~??????")  # the eight-byte form below 258,048
        with pytest.raises(Graph6Error, match="order field"):
            parse_graph6("~?")
        with pytest.raises(Graph6Error, match="order field"):
            parse_graph6("~??Bw")  # K3 through the four-byte form, which starts at 63
        with pytest.raises(Graph6Error, match="header"):
            parse_graph6(">>graph6<")


class TestConnectivity:
    def test_is_connected_basics(self):
        assert is_connected(path_graph(6))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
        assert is_connected(Graph(1))
        assert not is_connected(Graph(2))

    def test_menger_vs_brute(self):
        rng = random.Random(7003)
        for _ in range(120):
            n = rng.randrange(2, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.9))
            for t in range(0, n + 1):
                assert vertex_connectivity_at_least(g, t) == \
                    brute_vertex_connectivity_at_least(g, t), (emit_graph6(g), t)

    def test_connectivity_knowns(self):
        assert vertex_connectivity_at_least(complete_graph(5), 4)
        assert not vertex_connectivity_at_least(complete_graph(5), 5)
        assert vertex_connectivity_at_least(cycle_graph(8), 2)
        assert not vertex_connectivity_at_least(cycle_graph(8), 3)
        assert not vertex_connectivity_at_least(path_graph(5), 2)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(7011)
        graphs = []
        for i in range(30):
            g = random_graph(rng, rng.randrange(12, 41), rng.uniform(0.15, 0.6) + i % 2 * 0.2)
            # half of them lose every edge between two sides of a small
            # random set, so that kappa falls below the minimum degree
            if i % 2:
                cut = set(rng.sample(range(g.n), rng.randrange(1, 5)))
                side = {v: rng.random() < 0.5 for v in range(g.n)}
                g = Graph(g.n, [(u, v) for u, v in g.edges()
                                if u in cut or v in cut or side[u] == side[v]])
            graphs.append(g)
        catalog = builtin_catalog()
        for name in ("K3", "figure1a", "figure1b"):
            g = nu(catalog[name]).graph
            placement = list(range(g.n))
            rng.shuffle(placement)
            graphs.append(g.permuted(placement))
        for g in graphs:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            kappa = nx.node_connectivity(h)
            for t in range(g.min_degree() + 2):
                assert vertex_connectivity_at_least(g, t) == (kappa >= t), (emit_graph6(g), t)

    def test_flow_count(self, monkeypatch):
        import unicolor.graphs as graphs_module

        calls = 0
        flow = graphs_module._max_vertex_flow

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return flow(*args, **kwargs)

        monkeypatch.setattr(graphs_module, "_max_vertex_flow", counted)
        g = nu(builtin_catalog()["figure1a"]).graph
        assert g.n == 48
        assert vertex_connectivity_at_least(g, 3)
        assert 0 < calls <= 3 * (g.n - 1)
        calls = 0
        low = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)])
        assert low.min_degree() == 2 and not vertex_connectivity_at_least(low, 3)
        assert calls == 0

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            vertex_connectivity_at_least(cycle_graph(8), 2, Budget(max_nodes=0))
        budget = Budget(max_nodes=10 ** 6)
        assert vertex_connectivity_at_least(cycle_graph(8), 2, budget)
        assert budget.nodes_left < 10 ** 6
        # complete graphs are decided without a search
        assert vertex_connectivity_at_least(complete_graph(8), 7, Budget(max_nodes=0))


class TestWarmStartFlow:
    """The capped flow starts from the paths through common neighbours."""

    @staticmethod
    def _graphs():
        rng = random.Random(7013)
        for i in range(10):
            g = random_graph(rng, rng.randrange(6, 31), rng.uniform(0.2, 0.7))
            if i % 2:  # a few crossing edges, so that kappa falls below delta
                side = {v: rng.random() < 0.5 for v in range(g.n)}
                g = Graph(g.n, [(u, v) for u, v in g.edges()
                                if side[u] == side[v] or rng.random() < 0.1])
            yield g

    def test_matches_networkx_local_connectivity(self):
        nx = pytest.importorskip("networkx")
        rows = {"below": 0, "equal": 0, "above": 0}
        for g in self._graphs():
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            split = graphs_module._split_rows(g)
            before = list(split)
            for s in range(g.n):
                for t in range(s + 1, g.n):
                    if g.has_edge(s, t):
                        continue
                    kappa = nx.node_connectivity(h, s, t)
                    common = (g.adj[s] & g.adj[t]).bit_count()
                    for cap in range(1, g.min_degree() + 2):
                        rows["below" if common < cap else "equal" if common == cap else "above"] += 1
                        assert graphs_module._max_vertex_flow(split, s, t, cap) == \
                            min(cap, kappa), (emit_graph6(g), s, t, cap)
            assert split == before
        assert min(rows.values()) > 500, rows

    def test_enough_common_neighbours_spend_no_node(self):
        g = complete_join(Graph(2), Graph(5))  # 0 and 1 share five neighbours
        split = graphs_module._split_rows(g)
        for cap in range(1, 6):
            assert graphs_module._max_vertex_flow(split, 0, 1, cap, Budget(max_nodes=0)) == cap
        with pytest.raises(BudgetExceededError):
            graphs_module._max_vertex_flow(split, 0, 1, 6, Budget(max_nodes=0))
        # the sixth path does not exist: one search, which fails
        budget = Budget(max_nodes=1)
        assert graphs_module._max_vertex_flow(split, 0, 1, 6, budget) == 5
        assert budget.nodes_left == 0

    def test_nodes_spent_on_nu_figure1a(self):
        # one node per augmenting-path search past the warm start
        g = nu(builtin_catalog()["figure1a"]).graph
        budget = Budget(max_nodes=10 ** 6)
        assert vertex_connectivity_at_least(g, 3, budget)
        assert 10 ** 6 - budget.nodes_left == 36


class TestCycles:
    def test_girth_knowns(self):
        assert girth(path_graph(9)) == math.inf
        assert girth(cycle_graph(5)) == 5
        assert girth(complete_graph(4)) == 3
        assert girth(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)])) == 4

    def test_shortest_cycle_is_a_real_cycle(self):
        rng = random.Random(7004)
        for _ in range(150):
            g = random_graph(rng, rng.randrange(3, 10), rng.uniform(0.1, 0.7))
            res = shortest_cycle(g)
            if res is None:
                assert girth(g) == math.inf
                continue
            length, cyc = res
            assert girth(g) == length == len(cyc)
            assert len(set(cyc)) == length
            for i in range(length):
                assert g.has_edge(cyc[i], cyc[(i + 1) % length])

    def test_girth_minimality_brute(self):
        # no shorter closed walk exists: check all vertex subsets of smaller size
        import itertools
        rng = random.Random(7005)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(3, 8), 0.4)
            res = shortest_cycle(g)
            if res is None:
                continue
            length = res[0]
            for size in range(3, length):
                for combo in itertools.combinations(range(g.n), size):
                    degs = [sum(1 for u in combo if g.has_edge(u, v)) for v in combo]
                    assert not all(d >= 2 for d in degs) or not _has_cycle_within(g, combo)


class TestCliques:
    def test_clique_vs_brute(self):
        rng = random.Random(7006)
        for _ in range(150):
            g = random_graph(rng, rng.randrange(0, 10), rng.random())
            assert clique_number(g) == brute_clique_number(g)

    def test_independence_is_complement_clique(self):
        rng = random.Random(7007)
        for _ in range(80):
            g = random_graph(rng, rng.randrange(1, 9), rng.random())
            assert independence_number(g) == brute_clique_number(g.complement())

    def test_triangle_free(self):
        assert is_triangle_free(cycle_graph(5))
        assert not is_triangle_free(complete_graph(3))
        assert is_triangle_free(Graph(0))


def _has_cycle_within(g: Graph, combo) -> bool:
    # DFS cycle detection restricted to the induced subgraph
    sub = set(combo)
    seen: set[int] = set()
    for root in combo:
        if root in seen:
            continue
        stack = [(root, -1)]
        seen.add(root)
        while stack:
            u, parent = stack.pop()
            for v in combo:
                if not g.has_edge(u, v) or v == parent:
                    continue
                if v in seen:
                    return True
                seen.add(v)
                stack.append((v, u))
    return False


class TestCanonicalForm:
    def test_permutation_invariance(self):
        rng = random.Random(7008)
        for _ in range(200):
            n = rng.randrange(1, 11)
            g = random_graph(rng, n, rng.random())
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.permuted(perm)
            assert canonical_form(g) == canonical_form(h)

    def test_distinguishes_non_isomorphic(self):
        c6 = cycle_graph(6)
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert c6.edge_count() == two_triangles.edge_count()
        assert canonical_form(c6) != canonical_form(two_triangles)

    def test_canonical_bytes_decode_to_isomorphic_copy(self):
        rng = random.Random(7009)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(1, 8), rng.random())
            rep = parse_graph6(canonical_form(g).decode("ascii"))
            assert brute_is_isomorphic(g, rep)

    def test_is_isomorphic_vs_brute(self):
        rng = random.Random(7010)
        agree = disagree = 0
        for _ in range(200):
            n = rng.randrange(1, 7)
            g1 = random_graph(rng, n, rng.random())
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                g2 = g1.permuted(perm)
            else:
                g2 = random_graph(rng, n, rng.random())
            expected = brute_is_isomorphic(g1, g2)
            assert is_isomorphic(g1, g2) == expected
            agree += expected
            disagree += not expected
        assert agree > 20 and disagree > 20  # both branches exercised

    def test_order_limit(self):
        with pytest.raises(OrderLimitError):
            canonical_form(Graph(33))

    def test_last_vertex_has_top_degree_and_top_colour(self):
        # census rejects extensions before labelling on exactly this invariant
        rng = random.Random(7011)
        for _ in range(300):
            n = rng.randrange(1, 11)
            g = random_graph(rng, n, rng.random())
            nbrs = _neighbour_lists(g.adj)
            cells = _refine_colours(n, nbrs)
            last = _canonical_placement(n, g.adj, cells, None, nbrs)[-1]
            assert g.degree(last) == g.max_degree()
            assert last in cells[-1]
            for v in range(n):
                got = _canonical_if_last(n, g.adj, v, None, nbrs)
                if v in cells[-1]:
                    assert got == _canonical(n, g.adj)
                else:
                    assert got is None

    def test_automorphism_free_orbit_identity(self):
        # sum over classes of n!/|Aut| must recover the number of labelled
        # graphs; catches both missed and duplicated classes
        from unicolor.census import CensusTask, generate

        reps: list[Graph] = []
        generate(CensusTask(n=5), visit=reps.append)
        total = sum(math.factorial(5) // brute_automorphism_count(g) for g in reps)
        assert total == 2 ** 10


def _with_twins(rng: random.Random, g: Graph, n: int) -> Graph:
    """g grown to order n by copies of random vertices, each copy adjacent
    to its original or not, so the group has twin transpositions."""
    while g.n < n:
        v = rng.randrange(g.n)
        mask = g.adj[v] | (1 << v) if rng.random() < 0.5 else g.adj[v]
        g = g.with_vertex(mask)
    return g


class TestAutomorphismGenerators:
    def test_collected_permutations_generate_the_group(self):
        rng = random.Random(7012)
        nontrivial = 0
        for _ in range(320):
            n = rng.randrange(0, 8)
            g = random_graph(rng, n, rng.random())
            if n > 1 and rng.random() < 0.5:
                g = _with_twins(rng, random_graph(rng, rng.randrange(1, n), rng.random()), n)
            autos: list[list[int]] = []
            assert _canonical(n, g.adj, autos=autos) == _canonical(n, g.adj)
            assert all(is_automorphism(g, p) for p in autos), emit_graph6(g)
            order = brute_automorphism_count(g)
            assert group_order(autos, n) == order, emit_graph6(g)
            nontrivial += order > 1
        assert nontrivial > 100

    def test_symmetric_graphs(self):
        k33 = complete_join(Graph(3), Graph(3))
        for g in (Graph(7), complete_graph(7), cycle_graph(7), cycle_graph(6), k33,
                  path_graph(6), k33.complement()):
            autos: list[list[int]] = []
            _canonical(g.n, g.adj, autos=autos)
            assert all(is_automorphism(g, p) for p in autos)
            assert group_order(autos, g.n) == brute_automorphism_count(g), emit_graph6(g)

    def test_one_transposition_per_twin(self):
        # all eight vertices are twins: seven transpositions generate S_8
        for g in (Graph(8), complete_graph(8)):
            autos: list[list[int]] = []
            _canonical(8, g.adj, autos=autos)
            assert len(autos) == 7
            assert group_order(autos, 8) == math.factorial(8)

    def test_only_collected_when_asked(self):
        g = cycle_graph(6)
        nbrs = _neighbour_lists(g.adj)
        cells = _refine_colours(6, nbrs)
        autos: list[list[int]] = []
        assert _canonical_if_last(6, g.adj, 5, autos, nbrs) == _canonical(6, g.adj, cells)
        assert group_order(autos, 6) == 12


class TestLabellingGolden:
    @staticmethod
    def _graphs(rng: random.Random, count: int, max_order: int):
        """Seeded random graphs of order 0..max_order; every third one of
        order 2 or more is grown from a smaller one by twins."""
        for i in range(count):
            n = rng.randrange(0, max_order + 1)
            if n > 1 and i % 3 == 0:
                yield _with_twins(rng, random_graph(rng, rng.randrange(1, n), rng.random()), n)
            else:
                yield random_graph(rng, n, rng.random())

    def test_bytes_placements_and_generators(self):
        # pinned before singleton runs and before the labelling returned graphs
        digest = hashlib.sha1()
        for g in self._graphs(random.Random(7014), 3000, 14):
            autos: list[list[int]] = []
            canon, placement = _canonical(g.n, g.adj, autos=autos)
            digest.update(emit_graph6(canon).encode("ascii")
                          + repr((placement, autos)).encode("ascii") + b"\n")
        assert digest.hexdigest() == "28f430e7bc7878122fdb4afd144c8b86c904ac2a"

    def test_brute_force_greatest_words(self):
        for g in self._graphs(random.Random(7015), 300, 7):
            canon, placement = _canonical(g.n, g.adj)
            assert emit_graph6(canon).encode("ascii") == brute_canonical_graph6(g), emit_graph6(g)
            assert canon == g.permuted(placement)


class TestDot:
    def test_plain_and_coloured(self):
        g = cycle_graph(4)
        plain = to_dot(g)
        assert plain.count("--") == 4 and "fillcolor" in plain
        coloured = to_dot(g, [0, 1, 0, 1], name="C4")
        assert "graph C4 {" in coloured
        assert coloured.count("--") == 4
