"""Acceptance suite: eleven end-to-end criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The order-12 census (criterion 6) dominates the runtime; everything else
finishes in seconds.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (
    brute_clique_number,
    brute_count_partitions,
    brute_vertex_connectivity_at_least,
    random_graph,
)
from unicolor.budget import Budget
from unicolor.census import CensusTask, find_unique_k_witnesses
from unicolor.colouring import (
    chi_cr,
    chromatic_number,
    count_colour_partitions,
    find_colour_partition,
    is_proper,
    sigma,
    two_class_connected,
    verify,
    xu_bound_holds,
)
from unicolor.constructions import (
    ColouredGraph,
    bollobas_sauer_sample,
    builtin_catalog,
    figure1_graphs,
    independent_transversals,
    iterate_nu,
    nesetril_step,
    nu,
    remove_short_cycles,
    SamplerConfig,
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
    parse_graph6,
    path_graph,
    vertex_connectivity_at_least,
)


@contextmanager
def verdict(number: int, title: str, detail: str = ""):
    """Print exactly one PASS/FAIL line for an acceptance criterion."""
    info = {"detail": detail}
    try:
        yield info
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    suffix = f" ({info['detail']})" if info["detail"] else ""
    print(f"ACCEPTANCE {number:02d} {title}: PASS{suffix}")


@pytest.fixture(scope="session")
def witness_census_n12():
    """The restricted order-12 witness search (criterion 6); shared because
    criteria 8 and 11 reuse its witnesses as corpus members."""
    task = CensusTask(n=12, k=3, triangle_free=True, connected=True,
                      min_degree=2, balanced=True, edge_window=(22, 23),
                      budget_seconds=3600)
    start = time.perf_counter()
    result = find_unique_k_witnesses(task)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01_figure1_verification():
    with verdict(1, "figure-1 catalog verification") as info:
        start = time.perf_counter()
        figs = figure1_graphs()
        assert sorted(cg.graph.edge_count() for cg in figs.values()) == [22, 23, 23]
        for cg in figs.values():
            g = cg.graph
            assert g.n == 12
            assert clique_number(g) == 2
            assert count_colour_partitions(g, 3, cap=2) == 1
            assert chromatic_number(g) == 3
            assert sigma(g) == 4
            assert chi_cr(g) == Fraction(3)
        forms = {canonical_form(cg.graph) for cg in figs.values()}
        assert len(forms) == 3
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        info["detail"] = f"3 graphs verified in {elapsed:.3f}s"


def test_criterion_02_expansion_uniqueness_at_desk_scale():
    with verdict(2, "uniqueness preserved by expansion of figure1a") as info:
        big = nu(figure1_graphs()["figure1a"])
        g = big.graph
        assert g.n == 48
        report = verify(g, 4, budget=Budget(max_seconds=600))
        if report.uniquely_colourable == "yes":
            assert report.partition_count == 1
            info["detail"] = "exact count path"
            return
        # budget ran out: the documented fallback battery must fully pass
        assert report.uniquely_colourable == "unknown-capped"
        small = nu(builtin_catalog()["K3"])
        start = time.perf_counter()
        small_report = verify(small.graph, 4)
        assert small_report.uniquely_colourable == "yes"
        assert time.perf_counter() - start < 1.0
        assert g.min_degree() >= 3
        assert vertex_connectivity_at_least(g, 3)
        ok, slack = xu_bound_holds(g, 4)
        assert ok and slack >= 0
        assert two_class_connected(g, big.colouring)
        info["detail"] = "fallback battery path"


def _expansion_seed_pool() -> list[ColouredGraph]:
    def coloured(g: Graph) -> ColouredGraph:
        c = find_colour_partition(g, chromatic_number(g))
        return ColouredGraph(g, c)

    seeds = [coloured(complete_graph(k)) for k in (3, 4, 5)]
    seeds += [coloured(cycle_graph(n)) for n in (5, 7, 9)]
    seeds += [coloured(path_graph(n)) for n in (4, 5, 6, 7, 8)]
    seeds += list(figure1_graphs().values())
    for n, k in [(5, 2), (6, 3)]:
        for w in find_unique_k_witnesses(CensusTask(n=n, k=k)).witnesses:
            seeds.append(coloured(parse_graph6(w.graph6)))
    return seeds


def test_criterion_03_expansion_formula_suite():
    with verdict(3, "expansion size/degree/clique identities") as info:
        seeds = _expansion_seed_pool()
        assert len(seeds) >= 20
        for cg in seeds:
            g, k = cg.graph, cg.k
            n, m = g.n, g.edge_count()
            out = nu(cg)
            assert out.graph.n == (k + 1) * n
            assert out.graph.edge_count() == (3 * k + 1) * m + (k - 1) * n
            assert clique_number(out.graph) == clique_number(g) + 1
            assert out.graph.min_degree() == 2 * g.min_degree() + 1
            seed_mask = (1 << n) - 1
            class_of = cg.colouring.assignment
            for v in range(n):
                assert out.graph.adj[v] & seed_mask == g.adj[v]
                d = g.degree(v)
                assert out.graph.degree(v) == (k + 1) * d
                for p in range(1, k + 1):
                    expected = 2 * d + (k - 1) if p == class_of[v] + 1 else 2 * d + 1
                    assert out.graph.degree(n * p + v) == expected
        info["detail"] = f"{len(seeds)} seeds, zero tolerance"


def test_criterion_04_iterated_expansion_instance():
    with verdict(4, "48-vertex clique-free expansion instance") as info:
        out = iterate_nu(figure1_graphs()["figure1a"], 1)
        assert out.graph.n == 48 == 2 * math.factorial(4)
        assert clique_number(out.graph) == 3  # no K4
        assert out.k == 4
        assert sorted(out.colouring.class_sizes()) == [12, 12, 12, 12]
        info["detail"] = "order 48, clique number 3, classes 4x12"


def test_criterion_05_no_small_triangle_free_witnesses():
    with verdict(5, "triangle-free searches empty at orders 3/6/9") as info:
        start = time.perf_counter()
        for n in (3, 6, 9):
            res = find_unique_k_witnesses(
                CensusTask(n=n, k=3, triangle_free=True, balanced=True))
            assert res.complete and res.witnesses == []
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0
        info["detail"] = f"all empty in {elapsed:.2f}s"


def test_criterion_06_order12_census_discovery(witness_census_n12):
    with verdict(6, "order-12 census finds the three catalog graphs") as info:
        result, elapsed = witness_census_n12
        assert result.complete, "budget of 3600s was exhausted"
        assert elapsed < 3600.0
        assert len(result.witnesses) >= 3
        found = {w.graph6 for w in result.witnesses}
        catalog_forms = {canonical_form(cg.graph).decode("ascii")
                         for cg in figure1_graphs().values()}
        assert catalog_forms <= found
        info["detail"] = (f"{len(result.witnesses)} witnesses in {elapsed:.0f}s; "
                          f"all 3 catalog forms present")


def test_criterion_07_oracle_equivalence():
    with verdict(7, "search engines match brute-force oracles") as info:
        rng = random.Random(20260815)
        for _ in range(500):
            g = random_graph(rng, rng.randrange(0, 9), rng.random())
            k = rng.randrange(1, 5)
            assert count_colour_partitions(g, k, cap=10 ** 9) == \
                brute_count_partitions(g, k), (emit_graph6(g), k)
        for _ in range(120):
            g = random_graph(rng, rng.randrange(0, 11), rng.random())
            assert clique_number(g) == brute_clique_number(g), emit_graph6(g)
        for _ in range(60):
            n = rng.randrange(2, 13)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            for t in range(0, 6):
                assert vertex_connectivity_at_least(g, t) == \
                    brute_vertex_connectivity_at_least(g, t), (emit_graph6(g), t)
        info["detail"] = "500 partition counts, 120 cliques, 60 connectivities"


def test_criterion_08_edge_bound_spot_checks(witness_census_n12):
    with verdict(8, "minimum-edge-count bound spot checks") as info:
        for k in range(3, 9):
            ok, slack = xu_bound_holds(complete_graph(k), k)
            assert ok and slack == 0
        # the classic 24-vertex, 45-edge tight instance: bound (k-1)n - kC2
        edges = list(itertools.islice(itertools.combinations(range(24), 2), 45))
        ok, slack = xu_bound_holds(Graph(24, edges), 3)
        assert ok and slack == 0
        corpus = list(witness_census_n12[0].witnesses)
        for n, k in [(4, 2), (5, 2), (6, 3)]:
            corpus += find_unique_k_witnesses(CensusTask(n=n, k=k)).witnesses
        assert len(corpus) >= 10
        for w in corpus:
            ok, slack = xu_bound_holds(parse_graph6(w.graph6), w.k)
            assert ok and slack >= 0
        info["detail"] = f"K3..K8 tight, (24,45) tight, {len(corpus)} witnesses slack >= 0"


def test_criterion_09_transversal_expansion_oracle():
    with verdict(9, "path-seed transversal expansion counts") as info:
        counts = {}
        for n in (6, 8, 10, 12, 30):
            g = path_graph(n)
            cg = ColouredGraph(g, find_colour_partition(g, 2))
            transversals = independent_transversals(cg, 3)
            brute = [c for c in itertools.combinations(range(n), 3)
                     if all(abs(a - b) > 1 for a, b in itertools.combinations(c, 2))
                     and len({v % 2 for v in c}) == 2]
            assert transversals == brute
            counts[n] = len(transversals)
            if n + len(transversals) <= MAX_ORDER:
                out = nesetril_step(cg)
                assert out.graph.n == n + len(transversals)
                assert out.colouring.class_sizes()[-1] == len(transversals)
                assert is_proper(out.graph, out.colouring)
                assert chromatic_number(out.graph) <= 3
            else:
                # past the order cap: count identity checked above
                with pytest.raises(OrderLimitError):
                    nesetril_step(cg)
        assert counts[6] == 2
        info["detail"] = f"counts {counts}; P30 exceeds order cap as designed"


def test_criterion_10_sampler_contract():
    with verdict(10, "sparse sampler structural contract") as info:
        runs = 0
        for seed in range(100):
            n = 2 + seed % 7  # parts of size 2..8
            cfg = SamplerConfig(k=3, n=n, epsilon=Fraction(1, 20),
                                girth_target=4, seed=seed)
            assert cfg.epsilon_in_safe_range
            cg = bollobas_sauer_sample(cfg)
            g = cg.graph
            assert g.n == 3 * n
            assert g.edge_count() == cfg.edge_target
            for part in range(3):
                block = range(n * part, n * part + n)
                for u, v in itertools.combinations(block, 2):
                    assert not g.has_edge(u, v)
            cleaned, removed = remove_short_cycles(g, 4)
            assert girth(cleaned) >= 4
            assert removed == g.edge_count() - cleaned.edge_count()
            again = bollobas_sauer_sample(cfg)
            assert emit_graph6(again.graph) == emit_graph6(g)
            runs += 1
        assert runs == 100
        info["detail"] = "100 seeded runs, k-partite, exact m, girth >= 4, reproducible"


def _all_chi_partitions_balanced(g: Graph, chi: int) -> bool:
    total = count_colour_partitions(g, chi, cap=10 ** 9)
    if total == 1:
        c = find_colour_partition(g, chi)
        return len(set(c.class_sizes())) == 1
    # enumerate labelled assignments and reduce to partitions (small n only)
    seen_unbalanced = False
    for labels in itertools.product(range(chi), repeat=g.n):
        if any(g.has_edge(u, v) for u in range(g.n) for v in range(u + 1, g.n)
               if labels[u] == labels[v]):
            continue
        sizes = sorted(labels.count(c) for c in range(chi) if labels.count(c))
        if len(set(sizes)) != 1:
            seen_unbalanced = True
            break
    return not seen_unbalanced


def test_criterion_11_critical_chromatic_bounds(witness_census_n12):
    with verdict(11, "critical chromatic number bounds") as info:
        corpus: list[Graph] = [cg.graph for cg in builtin_catalog().values()]
        corpus += [parse_graph6(w.graph6) for w in witness_census_n12[0].witnesses]
        rng = random.Random(1234)
        while len(corpus) < 60:
            g = random_graph(rng, rng.randrange(2, 9), rng.uniform(0.2, 0.9))
            if chromatic_number(g) >= 2:
                corpus.append(g)
        equal = strict = 0
        for g in corpus:
            chi = chromatic_number(g)
            assert chi >= 2
            value = chi_cr(g)
            assert chi - 1 < value <= chi
            if g.n <= 9 or count_colour_partitions(g, chi, cap=2) == 1:
                balanced = _all_chi_partitions_balanced(g, chi)
                assert (value == chi) == balanced
                equal += balanced
                strict += not balanced
        assert equal > 5 and strict > 5
        info["detail"] = (f"{len(corpus)} graphs; bounds exact; "
                          f"equality<->balanced on {equal + strict} decidable cases")


def test_order12_witness_list_is_the_figure1_graphs(witness_census_n12):
    # the restricted order-12 census finds exactly the three figure-1 graphs
    result = witness_census_n12[0]
    forms = [canonical_form(cg.graph).decode("ascii") for cg in figure1_graphs().values()]
    want = sorted((parse_graph6(s).edge_count(), s) for s in forms)
    assert [(w.edges, w.graph6) for w in result.witnesses] == want
