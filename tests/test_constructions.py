import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_graph
from unicolor.budget import Budget
from unicolor.colouring import (
    Colouring,
    chromatic_number,
    count_colour_partitions,
    find_colour_partition,
    is_proper,
    is_uniquely_k_colourable,
    verify,
)
from unicolor.constructions import (
    ColouredGraph,
    ConstructionError,
    SamplerConfig,
    bollobas_sauer_sample,
    builtin_catalog,
    extend_uniquely,
    figure1_graphs,
    independent_transversals,
    iterate_nu,
    nesetril_step,
    nu,
    remove_short_cycles,
)
from unicolor.graphs import (
    MAX_ORDER,
    Graph,
    OrderLimitError,
    canonical_form,
    clique_number,
    complete_graph,
    cycle_graph,
    emit_graph6,
    girth,
    is_triangle_free,
    parse_graph6,
    path_graph,
    shortest_cycle,
)


def _coloured(g: Graph, k: int) -> ColouredGraph:
    c = find_colour_partition(g, k)
    assert c is not None
    return ColouredGraph(g, c)


class TestColouredGraph:
    def test_rejects_improper(self):
        with pytest.raises(ConstructionError):
            ColouredGraph(path_graph(2), Colouring([0, 0]))

    def test_k_property(self):
        cg = _coloured(cycle_graph(6), 2)
        assert cg.k == 2


class TestNu:
    # the construction itself asserts its size/degree/class identities on
    # every call; these tests re-state the contract from the outside

    def test_size_identities(self):
        for seed_graph, k in [(complete_graph(3), 3), (complete_graph(4), 4),
                              (path_graph(5), 2), (cycle_graph(7), 3)]:
            h = _coloured(seed_graph, k)
            out = nu(h)
            n, m = seed_graph.n, seed_graph.edge_count()
            assert out.graph.n == (k + 1) * n
            assert out.graph.edge_count() == (3 * k + 1) * m + (k - 1) * n
            assert out.k == k + 1

    def test_seed_appears_as_induced_subgraph(self):
        h = _coloured(cycle_graph(5), 3)
        out = nu(h)
        n = 5
        seed_mask = (1 << n) - 1
        for v in range(n):
            assert out.graph.adj[v] & seed_mask == h.graph.adj[v]

    def test_degree_formula(self):
        h = _coloured(path_graph(4), 2)
        out = nu(h)
        k, n = 2, 4
        class_of = h.colouring.assignment
        for v in range(n):
            d = h.graph.degree(v)
            assert out.graph.degree(v) == (k + 1) * d
            for p in range(1, k + 1):
                expect = 2 * d + (k - 1) if p == class_of[v] + 1 else 2 * d + 1
                assert out.graph.degree(n * p + v) == expect

    def test_clique_number_steps_up(self):
        for g, k in [(complete_graph(3), 3), (cycle_graph(5), 3)]:
            h = _coloured(g, k)
            assert clique_number(nu(h).graph) == clique_number(g) + 1

    def test_min_degree_identity(self):
        for g, k in [(complete_graph(3), 3), (path_graph(6), 2), (cycle_graph(8), 2)]:
            h = _coloured(g, k)
            assert nu(h).graph.min_degree() == 2 * g.min_degree() + 1

    def test_output_colouring_proper_with_expected_sizes(self):
        h = _coloured(complete_graph(3), 3)
        out = nu(h)
        assert is_proper(out.graph, out.colouring)
        sizes = sorted(out.colouring.class_sizes())
        # old classes grow k-fold, the new star class has size n
        assert sizes == sorted([3 * s for s in h.colouring.class_sizes()] + [3])

    def test_uniqueness_preserved_from_k3(self):
        out = nu(_coloured(complete_graph(3), 3))
        assert out.graph.n == 12
        assert is_uniquely_k_colourable(out.graph, 4)

    def test_uniqueness_preserved_from_k4(self):
        out = nu(_coloured(complete_graph(4), 4))
        assert out.graph.n == 20
        assert is_uniquely_k_colourable(out.graph, 5)

    def test_two_colour_seed_runs_but_is_not_asserted_unique(self):
        # uniqueness is only guaranteed to carry over for k >= 3 seeds; for
        # k = 2 we only demand a structurally valid output
        out = nu(_coloured(path_graph(4), 2))
        assert out.graph.n == 12 and out.k == 3
        assert is_proper(out.graph, out.colouring)

    def test_iterate_and_order_limit(self):
        h = _coloured(complete_graph(3), 3)
        assert iterate_nu(h, 0) is h
        assert iterate_nu(h, 1).graph.n == 12
        assert iterate_nu(h, 3).graph.n == 360
        with pytest.raises(OrderLimitError):
            iterate_nu(h, 4)  # 3 -> 12 -> 60 -> 360 -> 2,520 vertices

    def test_order_limit_before_the_edge_list(self, monkeypatch):
        # nu(K32) would have 33 * 32 = 1,056 vertices; the cap must refuse it
        # before any edge of the expansion is listed
        h = _coloured(complete_graph(32), 32)

        def no_edges(self):
            raise AssertionError("edge list built past the order cap")

        monkeypatch.setattr(Graph, "edges", no_edges)
        with pytest.raises(OrderLimitError, match="expansion order 1056 exceeds"):
            nu(h)


class TestIteratedNuWitnesses:
    """The paper's family beyond k = 4: nu^2 of each figure-1 graph is a
    K_5-free uniquely 5-colourable graph with five classes of 48, and
    nu^3(K3) a uniquely 6-colourable graph with six classes of 60."""

    CASES = [("figure1a", 2, 5, 48, 4), ("figure1b", 2, 5, 48, 4),
             ("figure1c", 2, 5, 48, 4), ("K3", 3, 6, 60, 6)]

    @pytest.mark.parametrize("name, times, k, size, omega", CASES)
    def test_verified_with_the_built_partition(self, name, times, k, size, omega):
        h = iterate_nu(builtin_catalog()[name], times)
        g = h.graph
        assert g.n == k * size and h.k == k
        report = verify(g, k, budget=Budget(max_nodes=10 ** 6))
        assert report.uniquely_colourable == "yes"
        assert report.connectivity_ok and report.two_class_connected_ok
        assert h.colouring.class_sizes() == (size,) * k
        assert clique_number(g) == omega
        assert find_colour_partition(g, k) == h.colouring
        text = emit_graph6(g)
        assert text.startswith("~") and parse_graph6(text) == g

    def test_connectivity_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        g = iterate_nu(builtin_catalog()["figure1a"], 2).graph
        assert nx.node_connectivity(nx.Graph(g.edges())) >= 4


class TestExtendUniquely:
    def test_preserves_uniqueness(self):
        fig = figure1_graphs()["figure1a"]
        bigger = extend_uniquely(fig, 0)
        assert bigger.graph.n == 13
        assert is_uniquely_k_colourable(bigger.graph, 3)
        # new vertex is adjacent to everything outside class 0
        new = 12
        cls0 = fig.colouring.classes()[0]
        assert bigger.graph.adj[new] == ((1 << 12) - 1) & ~cls0

    def test_class_index_validation(self):
        fig = figure1_graphs()["figure1a"]
        with pytest.raises(ConstructionError):
            extend_uniquely(fig, 3)


def _brute_transversals(cg: ColouredGraph, size: int) -> list[tuple[int, ...]]:
    g, c = cg.graph, cg.colouring
    out = []
    for combo in itertools.combinations(range(g.n), size):
        if any(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
            continue
        if len({c.assignment[v] for v in combo}) == c.k:
            out.append(combo)
    return out


class TestIndependentTransversals:
    def test_against_brute(self):
        cases = [(_coloured(path_graph(6), 2), 3),
                 (_coloured(cycle_graph(6), 2), 3),
                 (_coloured(cycle_graph(9), 3), 4),
                 (figure1_graphs()["figure1a"], 4)]
        for cg, size in cases:
            assert independent_transversals(cg, size) == _brute_transversals(cg, size)


class TestNesetrilStep:
    def test_p6_exact(self):
        out = nesetril_step(_coloured(path_graph(6), 2))
        assert out.graph.n == 8 and out.k == 3
        # frozen from the brute transversal list of P6
        assert out.graph.adj[6] == 0b0100101  # {0, 2, 5}
        assert out.graph.adj[7] == 0b0101001  # {0, 3, 5}
        assert not out.graph.has_edge(6, 7)
        assert is_proper(out.graph, out.colouring)
        assert chromatic_number(out.graph) <= 3

    def test_new_class_size_matches_brute_counts(self):
        # P30 would expand to 2,396 vertices, past the order cap, so there
        # the count identity is checked without materialising
        for n in (6, 8, 10, 12, 30):
            h = _coloured(path_graph(n), 2)
            count = len(independent_transversals(h, 3))
            assert count == len(_brute_transversals(h, 3))
            if n + count <= MAX_ORDER:
                out = nesetril_step(h)
                assert out.graph.n == n + count
                assert out.colouring.class_sizes()[-1] == count
            else:
                with pytest.raises(OrderLimitError):
                    nesetril_step(h)

    def test_no_transversal_raises(self):
        with pytest.raises(ConstructionError, match="no independent transversals"):
            nesetril_step(_coloured(path_graph(4), 2))

    def test_k1_rejected(self):
        with pytest.raises(ConstructionError):
            nesetril_step(ColouredGraph(Graph(2), Colouring([0, 0])))


class TestSampler:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(k=1, n=4, epsilon=Fraction(1, 20))
        with pytest.raises(ValueError):
            SamplerConfig(k=3, n=0, epsilon=Fraction(1, 20))
        with pytest.raises(ValueError):
            SamplerConfig(k=3, n=4, epsilon=Fraction(0))
        with pytest.raises(ValueError):
            SamplerConfig(k=3, n=4, epsilon=Fraction(1))
        with pytest.raises(OrderLimitError):
            SamplerConfig(k=5, n=205, epsilon=Fraction(1, 20))
        with pytest.raises(ValueError):
            SamplerConfig(k=3, n=4, epsilon=Fraction(1, 20), girth_target=1)

    def test_safe_range_boundary(self):
        assert SamplerConfig(k=3, n=4, epsilon=Fraction(1, 17), girth_target=4).epsilon_in_safe_range
        assert not SamplerConfig(k=3, n=4, epsilon=Fraction(1, 16), girth_target=4).epsilon_in_safe_range

    def test_edge_target_knowns(self):
        assert SamplerConfig(k=3, n=4, epsilon=Fraction(1, 5)).edge_target == 16
        assert SamplerConfig(k=3, n=8, epsilon=Fraction(1, 20)).edge_target == 27

    def test_sample_structure(self):
        cfg = SamplerConfig(k=3, n=5, epsilon=Fraction(1, 20), seed=11)
        cg = bollobas_sauer_sample(cfg)
        g = cg.graph
        assert g.n == 15
        assert g.edge_count() == cfg.edge_target
        # parts are contiguous blocks and independent
        for part in range(3):
            block = list(range(5 * part, 5 * part + 5))
            assert all(not g.has_edge(u, v) for u, v in itertools.combinations(block, 2))
            assert all(cg.colouring.assignment[v] == cg.colouring.assignment[block[0]]
                       for v in block)

    def test_determinism(self):
        cfg = SamplerConfig(k=3, n=6, epsilon=Fraction(1, 20), seed=5)
        assert bollobas_sauer_sample(cfg).graph == bollobas_sauer_sample(cfg).graph
        other = SamplerConfig(k=3, n=6, epsilon=Fraction(1, 20), seed=6)
        assert bollobas_sauer_sample(cfg).graph != bollobas_sauer_sample(other).graph


class TestRemoveShortCycles:
    def test_k4_trace(self):
        cleaned, removed = remove_short_cycles(complete_graph(4), 4)
        assert removed == 3
        assert sorted(cleaned.edges()) == [(0, 3), (1, 3), (2, 3)]

    def test_girth_reached_on_random_samples(self):
        rng = random.Random(901)
        for _ in range(40):
            n = rng.randrange(4, 10)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            g = Graph(n, edges)
            target = rng.choice([4, 5])
            cleaned, removed = remove_short_cycles(g, target)
            assert girth(cleaned) >= target
            assert g.edge_count() - cleaned.edge_count() == removed

    def test_validation(self):
        with pytest.raises(ValueError):
            remove_short_cycles(complete_graph(3), 2)

    @staticmethod
    def _reference(g, target):
        """The surgery with a whole shortest_cycle search per removal."""
        removed = 0
        while True:
            found = shortest_cycle(g)
            if found is None or found[0] >= target:
                return g, removed
            length, cyc = found
            u, v = min((min(a, b), max(a, b)) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
            g = Graph(g.n, [e for e in g.edges() if e != (u, v)])
            removed += 1

    def test_matches_a_whole_search_per_removal(self):
        rng = random.Random(903)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(4, 25), rng.uniform(0.1, 0.6))
            target = rng.randrange(3, 8)
            assert remove_short_cycles(g, target) == self._reference(g, target)
        cfg = SamplerConfig(k=4, n=30, epsilon=Fraction(1, 20), girth_target=6, seed=3)
        g = bollobas_sauer_sample(cfg).graph
        cleaned, removed = remove_short_cycles(g, 6)
        assert removed > 20 and girth(cleaned) >= 6
        assert (cleaned, removed) == self._reference(g, 6)


class TestFigure1Catalog:
    def test_structural_facts(self):
        figs = figure1_graphs()
        assert set(figs) == {"figure1a", "figure1b", "figure1c"}
        edge_counts = sorted(cg.graph.edge_count() for cg in figs.values())
        assert edge_counts == [22, 23, 23]
        for name, cg in figs.items():
            g = cg.graph
            assert g.n == 12
            assert is_triangle_free(g)
            assert girth(g) == 4
            assert g.min_degree() >= 2
            assert is_proper(g, cg.colouring)
            assert cg.k == 3
            assert sorted(cg.colouring.class_sizes()) == [4, 4, 4]

    def test_unique_partition_is_the_catalog_one(self):
        for cg in figure1_graphs().values():
            assert is_uniquely_k_colourable(cg.graph, 3)
            assert find_colour_partition(cg.graph, 3) == cg.colouring
            assert count_colour_partitions(cg.graph, 3, cap=5) == 1

    def test_pairwise_non_isomorphic(self):
        forms = [canonical_form(cg.graph) for cg in figure1_graphs().values()]
        assert len(set(forms)) == 3

    def test_builtin_catalog(self):
        cat = builtin_catalog()
        expected = {f"K{i}" for i in range(3, 9)} | {f"P{i}" for i in range(4, 13)} \
            | {"figure1a", "figure1b", "figure1c"}
        assert set(cat) == expected
        assert len(cat) == 18
        for cg in cat.values():
            assert is_proper(cg.graph, cg.colouring)
