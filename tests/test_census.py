import gc
import hashlib
import math
import os
import random
from dataclasses import replace

import pytest

from conftest import (
    brute_automorphism_count,
    brute_chromatic_number,
    brute_count_partitions,
    group_order,
    is_automorphism,
    random_graph,
)
from unicolor.budget import Budget, BudgetExceededError
from unicolor.census import (
    CensusTask,
    _battery,
    _candidate_masks,
    _child_partitions,
    _extend_parent,
    checkpoint_dumps,
    checkpoint_loads,
    find_unique_k_witnesses,
    generate,
    resume,
)
from unicolor.cli import main
from unicolor.colouring import (
    _colouring_of,
    _decide,
    _enumerate_partitions,
    find_colour_partition,
    sigma,
)
from unicolor.graphs import (
    Graph,
    _canonical,
    canonical_form,
    clique_number,
    complete_graph,
    cycle_graph,
    emit_graph6,
    is_connected,
    is_triangle_free,
    parse_graph6,
    path_graph,
)


class TestTaskValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            CensusTask(n=0)
        with pytest.raises(ValueError):
            CensusTask(n=15)
        with pytest.raises(ValueError):
            CensusTask(n=4, k=0)
        with pytest.raises(ValueError):
            CensusTask(n=7, k=3, balanced=True)  # 3 does not divide 7
        with pytest.raises(ValueError):
            CensusTask(n=5, edge_window=(4, 2))
        with pytest.raises(ValueError):
            CensusTask(n=5, min_degree=-1)

    @pytest.mark.parametrize("bad", [
        dict(n=True), dict(n=7.0), dict(k=2.5), dict(k=None), dict(min_degree=1.5),
        dict(budget_nodes="5"), dict(budget_nodes=False), dict(budget_nodes=-1), dict(budget_nodes=0),
        dict(triangle_free="yes"), dict(connected=1), dict(balanced=None), dict(edge_window=[1, 9]),
        dict(edge_window=(1, 2, 3)), dict(edge_window=(1, 9.0)), dict(edge_window=5),
        dict(budget_seconds="1"), dict(budget_seconds=True), dict(budget_seconds=0),
        dict(budget_seconds=float("nan")),  # a deadline of NaN never passes
    ], ids=str)
    def test_field_types(self, bad):
        with pytest.raises(ValueError):
            CensusTask(**{"n": 6, **bad})

    def test_well_typed_fields(self):
        task = CensusTask(n=6, k=2, triangle_free=True, connected=True, min_degree=1,
                          balanced=True, edge_window=(5, 9), budget_nodes=10, budget_seconds=2)
        assert CensusTask.from_dict(task.to_dict()) == task
        assert CensusTask(n=6, budget_seconds=0.5).budget_seconds == 0.5

    def test_generate_refuses_balance(self):
        # balance constrains a colouring, which only the witness search finds
        with pytest.raises(ValueError, match="balanced"):
            generate(CensusTask(n=6, balanced=True))

    def test_round_trip_dict(self):
        task = CensusTask(n=6, k=3, triangle_free=True, edge_window=(3, 9))
        assert CensusTask.from_dict(task.to_dict()) == task


class TestClassCounts:
    # reference values are the classical counts of isomorphism classes
    def test_all_graphs(self):
        for n, want in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044),
                        (8, 12346)]:  # A000088
            assert generate(CensusTask(n=n)).stats.get("visited", 0) == want

    def test_triangle_free(self):
        for n, want in [(4, 7), (5, 14), (6, 38), (7, 107), (8, 410), (9, 1897),
                        (10, 12172)]:  # A006785
            r = generate(CensusTask(n=n, triangle_free=True))
            assert r.stats.get("visited", 0) == want

    def test_connected(self):
        for n, want in [(3, 2), (4, 6), (5, 21), (6, 112), (7, 853), (8, 11117)]:  # A001349
            r = generate(CensusTask(n=n, connected=True))
            assert r.stats.get("visited", 0) == want


class TestIsomorphFreeness:
    def test_no_duplicates_and_canonical_labelling(self):
        reps: list[Graph] = []
        generate(CensusTask(n=6), visit=reps.append)
        forms = [canonical_form(g) for g in reps]
        assert len(forms) == len(set(forms)) == 156
        assert all(emit_graph6(g).encode("ascii") == f for g, f in zip(reps, forms))

    def test_orbit_counting_identity(self):
        # sum of orbit sizes n!/|Aut| over the classes must equal the number
        # of labelled graphs, 2^C(n,2); catches missed or repeated classes
        reps: list[Graph] = []
        generate(CensusTask(n=6), visit=reps.append)
        total = sum(math.factorial(6) // brute_automorphism_count(g) for g in reps)
        assert total == 2 ** 15

    def test_visited_graphs_satisfy_filters(self):
        task = CensusTask(n=7, triangle_free=True, connected=True, min_degree=2,
                          edge_window=(8, 11))
        reps: list[Graph] = []
        generate(task, visit=reps.append)
        assert reps, "filtered census should not be empty"
        for g in reps:
            assert is_triangle_free(g)
            assert is_connected(g)
            assert g.min_degree() >= 2
            assert 8 <= g.edge_count() <= 11


class TestPruningParity:
    # lookahead pruning must not change the result set, only the work done
    def _post_filtered(self, n: int, task: CensusTask) -> list[bytes]:
        keep = []

        def sieve(g: Graph) -> None:
            lo, hi = task.edge_window if task.edge_window else (0, n * (n - 1) // 2)
            if not lo <= g.edge_count() <= hi:
                return
            if g.min_degree() < task.min_degree:
                return
            if task.connected and not is_connected(g):
                return
            if task.triangle_free and not is_triangle_free(g):
                return
            keep.append(canonical_form(g))

        generate(CensusTask(n=n), visit=sieve)
        return sorted(keep)

    def test_parity(self):
        combos = [
            dict(min_degree=3),
            dict(edge_window=(7, 10), connected=True),
            dict(triangle_free=True, min_degree=2, edge_window=(6, 9)),
        ]
        for n in (5, 6):
            for kw in combos:
                task = CensusTask(n=n, **kw)
                direct: list[bytes] = []
                generate(task, visit=lambda g: direct.append(canonical_form(g)))
                assert sorted(direct) == self._post_filtered(n, task), (n, kw)


class TestCheckpointResume:
    def test_chain_reassembles_exactly(self):
        full: list[bytes] = []
        generate(CensusTask(n=7, triangle_free=True), visit=lambda g: full.append(canonical_form(g)))
        for budget in (1, 23):
            task = CensusTask(n=7, triangle_free=True, budget_nodes=budget)
            parts: list[bytes] = []
            res = generate(task, visit=lambda g: parts.append(canonical_form(g)))
            hops = 0
            while not res.complete:
                token = checkpoint_loads(checkpoint_dumps(res.checkpoint))
                res = resume(token, visit=lambda g: parts.append(canonical_form(g)))
                hops += 1
                assert hops < 10 ** 4
            assert sorted(parts) == sorted(full)
            assert len(parts) == len(set(parts)), "classes must not repeat across hops"
            assert hops >= 1

    def test_witness_mode_chain(self):
        # the sequential run, a forked one and a budget -> resume chain
        # decide the same children and report the same witnesses
        direct = find_unique_k_witnesses(CensusTask(n=6, k=2))
        forked = find_unique_k_witnesses(CensusTask(n=6, k=2), threads=2)
        task = CensusTask(n=6, k=2, budget_nodes=2)
        res = find_unique_k_witnesses(task)
        hops = 0
        while not res.complete:
            res = resume(checkpoint_loads(checkpoint_dumps(res.checkpoint)))
            hops += 1
        assert hops >= 2
        want = [w.to_json_dict() for w in direct.witnesses]
        assert len(want) == 17
        for other in (forked, res):
            assert [w.to_json_dict() for w in other.witnesses] == want
            assert other.stats == direct.stats

    def test_time_budget_chain_ends(self):
        # each run expands at least its first parent, however short its clock
        direct = find_unique_k_witnesses(CensusTask(n=5, k=2))
        res = find_unique_k_witnesses(CensusTask(n=5, k=2, budget_seconds=1e-9))
        runs = 1
        while not res.complete:
            assert runs < direct.stats["parents_processed"]
            res = resume(checkpoint_loads(checkpoint_dumps(res.checkpoint)))
            runs += 1
        assert direct.stats["parents_processed"] == 13
        assert [w.to_json_dict() for w in res.witnesses] == [
            w.to_json_dict() for w in direct.witnesses]
        assert res.stats == direct.stats

    def test_budgeted_tokens_pinned(self):
        # pinned while the search stack carried each class's canonical bytes
        # beside its graph; the tokens must not change without them
        def sha1(value) -> str:
            return hashlib.sha1(checkpoint_dumps(value).encode("ascii")).hexdigest()

        plain = generate(CensusTask(n=7, triangle_free=True, budget_nodes=23)).checkpoint
        assert plain["pending"][:3] == ["C?", "DGC", "D_K"]
        assert sha1(plain["pending"]) == "3f1926a2c9e13055f18fb4149b3e840bd37f8c17"
        found = find_unique_k_witnesses(CensusTask(n=7, k=3, budget_nodes=23)).checkpoint
        assert found["pending"][:3] == ["B?", "C`", "EqKw"]
        assert sha1(found["pending"]) == "1e17b937e5ab86f155cd95c9fe41701b0909ec22"
        assert sha1(found["witnesses"]) == "8968c37e10db6a1f4b452bb940f5d2c1e52c4150"

    def test_witness_outside_the_task_is_rejected(self):
        # a uniquely 2-colourable graph with 5 edges, in the token of a task
        # that asks for 4: it passes the decision but not the edge window
        task = CensusTask(n=5, k=2, edge_window=(4, 4), budget_nodes=1)
        token = find_unique_k_witnesses(task).checkpoint
        [five] = find_unique_k_witnesses(CensusTask(n=5, k=2, edge_window=(5, 5))).witnesses
        with pytest.raises(ValueError, match="filters"):
            find_unique_k_witnesses(task, checkpoint=dict(token, witnesses=[five.to_json_dict()]))

    def test_token_validation(self):
        task = CensusTask(n=6, budget_nodes=1)
        res = generate(task)
        token = res.checkpoint
        assert token is not None and token["version"] == 1
        with pytest.raises(ValueError, match="checkpoint"):
            checkpoint_loads("{}")
        bad_mode = dict(token, mode="witness")
        with pytest.raises(ValueError, match="different task|mode|run"):
            generate(task, checkpoint=bad_mode)
        bad_version = dict(token, version=99)
        with pytest.raises(ValueError, match="version"):
            generate(task, checkpoint=bad_version)
        other = CensusTask(n=6, k=4, budget_nodes=1)
        with pytest.raises(ValueError, match="different task"):
            generate(other, checkpoint=token)


class TestWitnessSearch:
    def test_k2_small_orders(self):
        # uniquely 2-colourable = connected bipartite
        res = find_unique_k_witnesses(CensusTask(n=4, k=2))
        assert [w.edges for w in res.witnesses] == [3, 3, 4]
        forms = {w.graph6 for w in res.witnesses}
        p4 = canonical_form(parse_graph6("CF")).decode()
        assert p4 in forms
        res5 = find_unique_k_witnesses(CensusTask(n=5, k=2))
        assert len(res5.witnesses) == 5

    def test_matches_brute_definition(self):
        for n, k in [(5, 2), (5, 3), (6, 3), (7, 3), (7, 4)]:
            expected = set()

            def sieve(g: Graph) -> None:
                if brute_chromatic_number(g) == k and brute_count_partitions(g, k) == 1:
                    expected.add(canonical_form(g).decode("ascii"))

            generate(CensusTask(n=n), visit=sieve)
            res = find_unique_k_witnesses(CensusTask(n=n, k=k))
            assert {w.graph6 for w in res.witnesses} == expected, (n, k)

    def test_triangle_free_k3_empty_below_order_nine(self):
        for n in (6, 7, 8):
            res = find_unique_k_witnesses(CensusTask(n=n, k=3, triangle_free=True))
            assert res.witnesses == []

    def test_witness_reports_are_affirmative(self):
        res = find_unique_k_witnesses(CensusTask(n=6, k=3))
        assert res.witnesses
        for w in res.witnesses:
            assert w.report.uniquely_colourable == "yes"
            assert w.report.partition_count == 1
            assert w.report.xu_slack >= 0
            assert parse_graph6(w.graph6).edge_count() == w.edges

    def test_sorted_output(self):
        res = find_unique_k_witnesses(CensusTask(n=6, k=3))
        keys = [(w.edges, w.graph6) for w in res.witnesses]
        assert keys == sorted(keys)

    def test_balanced_filter(self):
        plain = find_unique_k_witnesses(CensusTask(n=6, k=3))
        balanced = find_unique_k_witnesses(CensusTask(n=6, k=3, balanced=True))
        bal_forms = {w.graph6 for w in balanced.witnesses}
        assert bal_forms <= {w.graph6 for w in plain.witnesses}
        for w in plain.witnesses:
            c = find_colour_partition(parse_graph6(w.graph6), 3)
            is_bal = len(set(c.class_sizes())) == 1
            assert (w.graph6 in bal_forms) == is_bal


class TestParallel:
    def test_two_workers_match_sequential(self):
        seq = find_unique_k_witnesses(CensusTask(n=6, k=3))
        par = find_unique_k_witnesses(CensusTask(n=6, k=3), threads=2)
        assert [w.graph6 for w in par.witnesses] == [w.graph6 for w in seq.witnesses]
        assert par.stats.get("witnesses", 0) == seq.stats.get("witnesses", 0)

    def test_budget_with_threads_rejected(self):
        with pytest.raises(ValueError):
            find_unique_k_witnesses(CensusTask(n=6, budget_nodes=5), threads=2)

    def test_bad_thread_count(self):
        with pytest.raises(ValueError):
            find_unique_k_witnesses(CensusTask(n=4), threads=0)


class TestDegenerateOrders:
    def test_order_one(self):
        res = generate(CensusTask(n=1))
        assert res.stats.get("visited", 0) == 1
        res = generate(CensusTask(n=1, min_degree=1))
        assert res.stats.get("visited", 0) == 0
        wit = find_unique_k_witnesses(CensusTask(n=1, k=1))
        assert len(wit.witnesses) == 1 and wit.witnesses[0].graph6 == "@"

    def test_order_two(self):
        res = find_unique_k_witnesses(CensusTask(n=2, k=2))
        assert [w.graph6 for w in res.witnesses] == [emit_graph6(Graph(2, [(0, 1)]))]


class TestTokenShape:
    def test_task_dict_needs_exactly_the_task_keys(self):
        d = CensusTask(n=6, k=3).to_dict()
        with pytest.raises(ValueError, match="keys"):
            CensusTask.from_dict(dict(d, colour="red"))
        with pytest.raises(ValueError, match="keys"):
            CensusTask.from_dict({key: v for key, v in d.items() if key != "k"})
        with pytest.raises(ValueError, match="bad census task"):
            CensusTask.from_dict(dict(d, n="6"))

    def test_token_without_task_rejected(self):
        token = generate(CensusTask(n=6, budget_nodes=1)).checkpoint
        no_task = {key: v for key, v in token.items() if key != "task"}
        with pytest.raises(ValueError, match="no task"):
            resume(no_task)
        with pytest.raises(ValueError, match="no task"):
            checkpoint_loads(checkpoint_dumps(no_task))

    @pytest.mark.parametrize("entry", [
        "E~~w",  # order 6: not below the task's order
        "B_",  # a path of order 3, but not its canonical labelling "BG"
        "B",  # truncated graph6
        " BG",  # canonical up to whitespace only
        7,
    ])
    def test_pending_entries_validated(self, entry):
        task = CensusTask(n=6, budget_nodes=1)
        token = generate(task).checkpoint
        bad = dict(token, pending=[*token["pending"], entry])
        with pytest.raises(ValueError):
            generate(task, checkpoint=bad)


class TestEachCheckOnce:
    def test_call_counts(self, monkeypatch):
        import unicolor.census as census_module
        import unicolor.colouring as colouring_module

        calls = {"connectivity": 0, "chromatic": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        conn = counted("connectivity", colouring_module.vertex_connectivity_at_least)
        monkeypatch.setattr(colouring_module, "vertex_connectivity_at_least", conn)
        monkeypatch.setattr(census_module, "vertex_connectivity_at_least", conn, raising=False)
        monkeypatch.setattr(colouring_module, "chromatic_number",
                            counted("chromatic", colouring_module.chromatic_number))
        res = find_unique_k_witnesses(CensusTask(n=6, k=3))
        stats = res.stats
        assert res.witnesses
        assert calls["connectivity"] == stats["witnesses"] == len(res.witnesses)
        assert stats["battery_candidates"] > stats["witnesses"]
        assert "failed_xu" not in stats
        assert calls["chromatic"] == 0


class TestRejectBeforeLabelling:
    def test_most_extensions_are_never_labelled(self, monkeypatch):
        import unicolor.census as census_module
        import unicolor.graphs as graphs_module

        calls = 0
        canonical = graphs_module._canonical

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return canonical(*args, **kwargs)

        monkeypatch.setattr(graphs_module, "_canonical", counted)
        monkeypatch.setattr(census_module, "_canonical", counted)
        res = generate(CensusTask(n=7))
        assert res.stats["visited"] == 1044
        assert calls < res.stats["extensions_tried"] / 2


class TestDecideBeforeLabelling:
    @pytest.mark.parametrize("task", [CensusTask(n=7, k=3), CensusTask(n=6, k=3, balanced=True)])
    def test_only_full_order_witnesses_are_labelled(self, monkeypatch, task):
        import unicolor.census as census_module

        labelled: list[Graph] = []
        if_last = census_module._canonical_if_last

        def spy(n, rows, *rest):
            if n == task.n:
                labelled.append(Graph.from_rows(rows))
            return if_last(n, rows, *rest)

        monkeypatch.setattr(census_module, "_canonical_if_last", spy)
        res = find_unique_k_witnesses(task)
        stats = res.stats
        assert res.witnesses and len(labelled) >= len(res.witnesses)
        for g in labelled:
            assert brute_chromatic_number(g) == task.k and brute_count_partitions(g, task.k) == 1
            if task.balanced:
                assert len(set(find_colour_partition(g, task.k).class_sizes())) == 1
        decided = stats["battery_candidates"]
        failed = stats["failed_unique"] + stats.get("failed_balanced", 0)
        assert failed > 0 and decided - failed == len(labelled)
        assert stats["visited"] == stats["witnesses"] == len(res.witnesses)


def _visit_sha1(visits: list[Graph]) -> str:
    return hashlib.sha1("".join(emit_graph6(g) + "\n" for g in visits).encode("ascii")).hexdigest()


class TestGoldenCensus:
    # visit sequences pinned before orbit pruning of sibling masks; any
    # change to the search that moves a class, or its order, shows here
    @pytest.mark.parametrize("kw, classes, sha1", [
        (dict(n=7), 1044, "4b4ff4408585f0abf8758d921b299b61f9f54b81"),
        (dict(n=8), 12346, "8d858e4fe5148a1df42dd8df10be93385e5c0262"),
        (dict(n=9, triangle_free=True), 1897, "bc007e3bb489ed338287efdb167253e7792fc2db"),
        (dict(n=7, connected=True), 853, "3d67426b409cc2760342de63763637ef34cbd434"),
        (dict(n=8, min_degree=2), 7459, "38ea7d89b8a2a1f7b91b9d85f33a50d4f6b4e3c9"),
        (dict(n=8, edge_window=(10, 14)), 6158, "961c05609ea93365ac77cd4ba73253914ebd54f0"),
    ])
    def test_visit_sequence(self, kw, classes, sha1):
        visits: list[Graph] = []
        generate(CensusTask(**kw), visit=visits.append)
        assert len(visits) == classes
        assert _visit_sha1(visits) == sha1

    def test_cli_witness_list(self, capsys):
        assert main(["census", "--n", "8", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha1(out.encode("utf-8")).hexdigest() == \
            "bf07b09281ca04acc64071a5ecec8ae24bb7b8c2"


class TestGoldenWitnessLists:
    # stdout of `unicolor census --n N --k K`, pinned before the witness
    # search pruned by k-colourability and Xu's edge floor
    @pytest.mark.parametrize("n, k, lines, sha1", [
        (2, 2, 1, "3e0a09ea124a6917fab558683db7b80147027901"),
        (3, 2, 1, "69253af73a00fa0e81a7f16b8376681e396508be"),
        (3, 3, 1, "d2743e54a47b21d1d2a4d830dde874dc142b0302"),
        (4, 2, 3, "87569c9ecc1c7412fb03a22d9e848822d1621214"),
        (4, 3, 1, "da2d08d6288c69f4ec349712e29e4822b754b5d9"),
        (4, 4, 1, "5e1e5a3a2f1899d6fecad4828e32473838284127"),
        (5, 2, 5, "7516303d989b4fb807d0b6b3498903673e3f08e6"),
        (5, 3, 3, "05cb2038e8844b38092879dc86aedf0bc3ee62b8"),
        (5, 4, 1, "7248d36484e72f29367a75e2164dcc7f4de03db7"),
        (5, 5, 1, "be8cb78b455c0c79d1d3d5cb2b425d41a67bf0e5"),
        (6, 2, 17, "5f23fb9b6db24e9911628c5c55770c6008996c4a"),
        (6, 3, 12, "c3730a87390a374f24e20f540202e9582c8ac73a"),
        (6, 4, 3, "910e041f3e948b3e5459cb5651ec9ff1439ce31c"),
        (6, 5, 1, "f33febcbbabc9bbc40dc29ba68205949547ceb2f"),
        (7, 2, 44, "5684a439a48191f30432ec69f6588558543a5b36"),
        (7, 3, 72, "a59e9853363ed4ef8eae2037794cfb892930ba92"),
        (7, 4, 12, "a1a356e28a540d6a7f45e7b02c18b7d0d21d1079"),
        (7, 5, 3, "3dcf3de37e0587ca12628c7bbc2ec8363bdedb52"),
        (8, 2, 182, "20e4a70258d30cdd2404c4f6c862061408c3f8ea"),
        # (8, 3) is TestGoldenCensus.test_cli_witness_list
        (8, 4, 127, "5d4abd0aef8ea24acd94dd7b57e8e8a8b5f7b475"),
        (8, 5, 12, "29a4dd80cd2512a6197bfa6d80d1fa9a8fcb0c25"),
        (9, 4, 3426, "11f377037ff710d535d197a7e082edd9085e68b5"),
    ])
    def test_witness_list(self, capsys, n, k, lines, sha1):
        assert main(["census", "--n", str(n), "--k", str(k)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == lines
        assert hashlib.sha1(out.encode("utf-8")).hexdigest() == sha1

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(n + 1, 6)])
    def test_no_witnesses_below_order_k(self, capsys, n, k):
        assert main(["census", "--n", str(n), "--k", str(k)]) == 0
        assert capsys.readouterr().out == ""


class TestWitnessPrunes:
    @pytest.mark.parametrize("task", [
        CensusTask(n=8, k=3, edge_window=(0, 10)),  # below Xu's floor, 2 * 8 - 3 = 13
        CensusTask(n=6, k=7),
    ])
    def test_tasks_without_witnesses_complete(self, task):
        res = find_unique_k_witnesses(task)
        assert res.complete and res.witnesses == [] and res.task == task

    @pytest.mark.parametrize("n", [5, 8])
    def test_k1_witness_is_the_edgeless_graph(self, n):
        # a uniquely 1-colourable graph is edgeless, and need not be connected
        res = find_unique_k_witnesses(CensusTask(n=n, k=1))
        assert res.complete and [w.graph6 for w in res.witnesses] == [emit_graph6(Graph(n))]

    def test_xu_floor_is_exact(self):
        below = find_unique_k_witnesses(CensusTask(n=8, k=3, edge_window=(0, 12)))
        at = find_unique_k_witnesses(CensusTask(n=8, k=3, edge_window=(0, 13)))
        assert below.witnesses == [] and below.stats == {}
        assert at.witnesses and all(w.edges == 13 for w in at.witnesses)

    def test_window_below_xu_floor_still_checks_the_token(self):
        token = find_unique_k_witnesses(CensusTask(n=6, k=2, budget_nodes=5)).checkpoint
        with pytest.raises(ValueError, match="different task"):
            find_unique_k_witnesses(CensusTask(n=8, k=3, edge_window=(0, 10)), checkpoint=token)

    def test_uncolourable_parents_are_not_expanded(self, monkeypatch):
        import unicolor.census as census_module

        parents: list[Graph] = []
        extend = census_module._extend_parent

        def spy(task, parent, *args):
            parents.append(parent)
            return extend(task, parent, *args)

        monkeypatch.setattr(census_module, "_extend_parent", spy)
        res = find_unique_k_witnesses(CensusTask(n=6, k=2))
        assert len(res.witnesses) == 17
        assert max(g.n for g in parents) == 5
        assert all(is_triangle_free(g) for g in parents)
        assert all(brute_chromatic_number(g) <= 2 for g in parents)


class TestOrbitPruning:
    def _tree(self, task: CensusTask):
        """Every (child, generators) pair the census accepts below full order."""
        stats: dict[str, int] = {}
        stack = [(Graph(1), [])]
        while stack:
            parent, gens = stack.pop()
            for child, child_gens in _extend_parent(task, parent, gens, stats):
                assert emit_graph6(child).encode("ascii") == canonical_form(child)
                if child.n < task.n:
                    yield child, child_gens
                    stack.append((child, child_gens))
                else:
                    assert child_gens == []

    def test_children_carry_their_whole_group(self):
        checked = 0
        for task in (CensusTask(n=7), CensusTask(n=8, triangle_free=True)):
            for child, gens in self._tree(task):
                assert all(is_automorphism(child, p) for p in gens), emit_graph6(child)
                assert group_order(gens, child.n) == brute_automorphism_count(child)
                checked += 1
        assert checked == (2 + 4 + 11 + 34 + 156) + (2 + 3 + 7 + 14 + 38 + 107)

    def test_pruned_masks_count_as_duplicate_siblings(self):
        stats = generate(CensusTask(n=7)).stats
        assert stats["duplicate_siblings"] == 1492
        # masks below the parent's top degree are never built: of the 11,290
        # masks tried before that floor, 6,116 were rejected by it one by one
        assert stats["rejected_not_canonical"] == 2431
        assert stats["extensions_tried"] == 5174

    def test_checkpoint_chain_repeats_the_sequential_run(self):
        task = CensusTask(n=7, min_degree=1)
        full: list[Graph] = []
        direct = generate(task, visit=full.append)
        for budget in (3, 40):
            parts: list[Graph] = []
            res = generate(replace(task, budget_nodes=budget), visit=parts.append)
            while not res.complete:
                res = resume(checkpoint_loads(checkpoint_dumps(res.checkpoint)),
                             visit=parts.append)
            assert parts == full
            assert res.stats == direct.stats

    def test_forked_workers_repeat_the_sequential_stats(self):
        task = CensusTask(n=7, k=3)
        seq = find_unique_k_witnesses(task)
        par = find_unique_k_witnesses(task, threads=2)
        assert par.witnesses == seq.witnesses
        assert par.stats == seq.stats

    def test_workers_are_capped_at_the_cpu_count(self, monkeypatch):
        import multiprocessing

        pools = []
        get_context = multiprocessing.get_context

        class Recording:
            def __init__(self, method):
                self.ctx = get_context(method)

            def Pool(self, processes):
                pools.append(processes)
                return self.ctx.Pool(processes=processes)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_context", Recording)
        task = CensusTask(n=7, k=3)
        seq = find_unique_k_witnesses(task)
        par = find_unique_k_witnesses(task, threads=64)
        assert pools == [2]
        assert par.witnesses == seq.witnesses
        assert par.stats == seq.stats


def _labellings(monkeypatch, task: CensusTask) -> dict[str, int]:
    """Run generate(task) and count its labellings: all of them, and the
    reduced ones that _extend_parent asks for itself."""
    import unicolor.census as census_module
    import unicolor.graphs as graphs_module

    calls = {"all": 0, "reduced": 0}
    canonical = graphs_module._canonical

    def counted(*args, **kwargs):
        calls["all"] += 1
        return canonical(*args, **kwargs)

    def reduced(*args, **kwargs):
        calls["reduced"] += 1
        return counted(*args, **kwargs)

    monkeypatch.setattr(graphs_module, "_canonical", counted)
    monkeypatch.setattr(census_module, "_canonical", reduced)
    generate(task)
    return calls


class TestOrbitShortcut:
    # stats pinned before the orbit test replaced most reduced labellings
    @pytest.mark.parametrize("kw, stats", [
        (dict(n=1), {"visited": 1}),
        (dict(n=2), {"classes_order_2": 2, "extensions_tried": 2, "parents_processed": 1,
            "visited": 2}),
        (dict(n=3), {"classes_order_2": 2, "classes_order_3": 4, "duplicate_siblings": 1,
            "extensions_tried": 9, "parents_processed": 3, "rejected_not_canonical": 2,
            "visited": 4}),
        (dict(n=4), {"classes_order_2": 2, "classes_order_3": 4, "classes_order_4": 11,
            "duplicate_siblings": 6, "extensions_tried": 32, "parents_processed": 7,
            "rejected_not_canonical": 9, "visited": 11}),
        (dict(n=5), {"classes_order_2": 2, "classes_order_3": 4, "classes_order_4": 11,
            "classes_order_5": 34, "duplicate_siblings": 39, "extensions_tried": 142,
            "parents_processed": 18, "rejected_not_canonical": 52, "visited": 34}),
        (dict(n=6), {"classes_order_2": 2, "classes_order_3": 4, "classes_order_4": 11,
            "classes_order_5": 34, "classes_order_6": 156, "duplicate_siblings": 203,
            "extensions_tried": 702, "parents_processed": 52, "rejected_not_canonical": 292,
            "visited": 156}),
        (dict(n=7), {"classes_order_2": 2, "classes_order_3": 4, "classes_order_4": 11,
            "classes_order_5": 34, "classes_order_6": 156, "classes_order_7": 1044,
            "duplicate_siblings": 1492, "extensions_tried": 5174, "parents_processed": 208,
            "rejected_not_canonical": 2431, "visited": 1044}),
        (dict(n=8), {"classes_order_2": 2, "classes_order_3": 4, "classes_order_4": 11,
            "classes_order_5": 34, "classes_order_6": 156, "classes_order_7": 1044,
            "classes_order_8": 12346, "duplicate_siblings": 12975, "extensions_tried": 55912,
            "parents_processed": 1252, "rejected_not_canonical": 29340, "visited": 12346}),
        (dict(n=9, triangle_free=True), {"classes_order_2": 2, "classes_order_3": 3,
            "classes_order_4": 7, "classes_order_5": 14, "classes_order_6": 38,
            "classes_order_7": 107, "classes_order_8": 410, "classes_order_9": 1897,
            "duplicate_siblings": 5157, "extensions_tried": 11259, "parents_processed": 582,
            "rejected_not_canonical": 3624, "visited": 1897}),
    ])
    def test_stats_unchanged(self, kw, stats):
        assert generate(CensusTask(**kw)).stats == stats

    def test_labellings(self, monkeypatch):
        # before the orbit test: 2,984 labellings, 504 of them reduced; before
        # McKay's rule alone: 2,482, 2 of them reduced
        calls = _labellings(monkeypatch, CensusTask(n=9, triangle_free=True))
        assert calls == {"all": 2480, "reduced": 0}

    def test_no_reduced_labelling(self, monkeypatch):
        # a child whose last vertex is no orbit mate of the new one is
        # rejected without labelling the reduced graph
        calls = _labellings(monkeypatch, CensusTask(n=8))
        assert calls["reduced"] == 0

    @pytest.mark.parametrize("kw, mode", [
        *((dict(n=n), "generate") for n in range(2, 9)),
        (dict(n=9, triangle_free=True), "generate"),
        (dict(n=8, k=3), "witness"),
    ])
    def test_accepted_siblings_never_repeat(self, monkeypatch, kw, mode):
        # McKay's rule with one mask per orbit keeps at most one child of a
        # class per parent, with no record of the siblings kept
        import unicolor.census as census_module

        extend = census_module._extend_parent
        parents = 0

        def spy(*args):
            nonlocal parents
            children = extend(*args)
            forms = [canonical_form(child) for child, _ in children]
            assert len(forms) == len(set(forms)), emit_graph6(args[1])
            parents += 1
            return children

        monkeypatch.setattr(census_module, "_extend_parent", spy)
        task = CensusTask(**kw)
        res = generate(task) if mode == "generate" else find_unique_k_witnesses(task)
        assert parents == res.stats["parents_processed"] > 0


class TestWitnessStatsGolden:
    # find_unique_k_witnesses stats pinned before full-order children were
    # decided in one batch per parent: battery_candidates, failed_unique and
    # failed_balanced count full-order children, one by one
    @pytest.mark.parametrize("kw, stats", [
        (dict(n=1, k=1), {"battery_candidates": 1, "visited": 1, "witnesses": 1}),
        (dict(n=5, k=1), {"battery_candidates": 5, "classes_order_2": 2, "classes_order_3": 3,
            "classes_order_4": 4, "classes_order_5": 1, "duplicate_siblings": 16,
            "extensions_tried": 30, "failed_unique": 4, "parents_processed": 4, "visited": 1,
            "witnesses": 1}),
        (dict(n=1, k=2), {}),
        (dict(n=2, k=2), {"battery_candidates": 1, "classes_order_2": 1, "extensions_tried": 1,
            "parents_processed": 1, "visited": 1, "witnesses": 1}),
        (dict(n=3, k=2), {"battery_candidates": 2, "classes_order_2": 2, "classes_order_3": 1,
            "extensions_tried": 6, "failed_unique": 1, "parents_processed": 3,
            "rejected_not_canonical": 2, "visited": 1, "witnesses": 1}),
        (dict(n=4, k=2), {"battery_candidates": 5, "classes_order_2": 2, "classes_order_3": 4,
            "classes_order_4": 3, "duplicate_siblings": 2, "extensions_tried": 17,
            "failed_unique": 2, "parents_processed": 6, "rejected_not_canonical": 4,
            "visited": 3, "witnesses": 3}),
        (dict(n=5, k=2), {"battery_candidates": 18, "classes_order_2": 2, "classes_order_3": 4,
            "classes_order_4": 10, "classes_order_5": 5, "duplicate_siblings": 20,
            "extensions_tried": 77, "failed_unique": 12, "full_rejected_connected": 2,
            "parents_processed": 13, "rejected_not_canonical": 22, "visited": 5,
            "witnesses": 5}),
        (dict(n=6, k=2), {"battery_candidates": 69, "classes_order_2": 2, "classes_order_3": 4,
            "classes_order_4": 10, "classes_order_5": 29, "classes_order_6": 17,
            "duplicate_siblings": 85, "extensions_tried": 281, "failed_unique": 50,
            "full_rejected_connected": 5, "parents_processed": 26, "rejected_not_canonical": 79,
            "visited": 17, "witnesses": 17}),
        (dict(n=7, k=2), {"battery_candidates": 357, "classes_order_2": 2, "classes_order_3": 4,
            "classes_order_4": 10, "classes_order_5": 29, "classes_order_6": 100,
            "classes_order_7": 44, "duplicate_siblings": 559, "extensions_tried": 1509,
            "failed_unique": 299, "full_rejected_connected": 42, "parents_processed": 61,
            "rejected_not_canonical": 420, "visited": 44, "witnesses": 44}),
        (dict(n=8, k=2), {"battery_candidates": 2126, "classes_order_2": 2,
            "classes_order_3": 4, "classes_order_4": 10, "classes_order_5": 29,
            "classes_order_6": 100, "classes_order_7": 442, "classes_order_8": 182,
            "duplicate_siblings": 2816, "extensions_tried": 7537, "failed_unique": 1887,
            "full_rejected_connected": 167, "parents_processed": 149,
            "rejected_not_canonical": 1898, "visited": 182, "witnesses": 182}),
        (dict(n=1, k=3), {}),
        (dict(n=2, k=3), {"extensions_tried": 0, "parents_processed": 1}),
        (dict(n=3, k=3), {"battery_candidates": 1, "classes_order_2": 1, "classes_order_3": 1,
            "extensions_tried": 2, "parents_processed": 2, "visited": 1, "witnesses": 1}),
        (dict(n=4, k=3), {"battery_candidates": 2, "classes_order_2": 2, "classes_order_3": 2,
            "classes_order_4": 1, "extensions_tried": 11, "failed_unique": 1,
            "parents_processed": 5, "rejected_not_canonical": 5, "visited": 1, "witnesses": 1}),
        (dict(n=5, k=3), {"battery_candidates": 7, "classes_order_2": 2, "classes_order_3": 4,
            "classes_order_4": 6, "classes_order_5": 3, "duplicate_siblings": 5,
            "extensions_tried": 37, "failed_unique": 4, "parents_processed": 12,
            "rejected_not_canonical": 13, "visited": 3, "witnesses": 3}),
        (dict(n=6, k=3), {"battery_candidates": 45, "classes_order_2": 2, "classes_order_3": 4,
            "classes_order_4": 11, "classes_order_5": 21, "classes_order_6": 12,
            "duplicate_siblings": 38, "extensions_tried": 214, "failed_unique": 31,
            "parents_processed": 35, "rejected_not_canonical": 95, "visited": 12,
            "witnesses": 12}),
        (dict(n=7, k=3), {"battery_candidates": 471, "classes_order_2": 2, "classes_order_3": 4,
            "classes_order_4": 11, "classes_order_5": 33, "classes_order_6": 113,
            "classes_order_7": 72, "duplicate_siblings": 390, "extensions_tried": 1781,
            "failed_unique": 367, "parents_processed": 132, "rejected_not_canonical": 789,
            "visited": 72, "witnesses": 72}),
        (dict(n=8, k=3), {"battery_candidates": 7747, "classes_order_2": 2,
            "classes_order_3": 4, "classes_order_4": 11, "classes_order_5": 33,
            "classes_order_6": 150, "classes_order_7": 821, "classes_order_8": 856,
            "duplicate_siblings": 4198, "extensions_tried": 21848, "failed_unique": 6424,
            "parents_processed": 706, "rejected_not_canonical": 9349, "visited": 856,
            "witnesses": 856}),
        (dict(n=1, k=4), {}),
        (dict(n=2, k=4), {"extensions_tried": 0, "parents_processed": 1}),
        (dict(n=3, k=4), {"extensions_tried": 0, "parents_processed": 1}),
        (dict(n=4, k=4), {"battery_candidates": 1, "classes_order_2": 1, "classes_order_3": 1,
            "classes_order_4": 1, "extensions_tried": 3, "parents_processed": 3, "visited": 1,
            "witnesses": 1}),
        (dict(n=5, k=4), {"battery_candidates": 2, "classes_order_2": 2, "classes_order_3": 2,
            "classes_order_4": 2, "classes_order_5": 1, "extensions_tried": 17,
            "failed_unique": 1, "parents_processed": 7, "rejected_not_canonical": 9,
            "visited": 1, "witnesses": 1}),
        (dict(n=6, k=4), {"battery_candidates": 7, "classes_order_2": 2, "classes_order_3": 4,
            "classes_order_4": 6, "classes_order_5": 7, "classes_order_6": 3,
            "duplicate_siblings": 5, "extensions_tried": 62, "failed_unique": 4,
            "parents_processed": 19, "rejected_not_canonical": 31, "visited": 3,
            "witnesses": 3}),
        (dict(n=7, k=4), {"battery_candidates": 75, "classes_order_2": 2, "classes_order_3": 4,
            "classes_order_4": 11, "classes_order_5": 22, "classes_order_6": 43,
            "classes_order_7": 12, "duplicate_siblings": 71, "extensions_tried": 467,
            "failed_unique": 63, "parents_processed": 79, "rejected_not_canonical": 239,
            "visited": 12, "witnesses": 12}),
        (dict(n=8, k=4), {"battery_candidates": 1537, "classes_order_2": 2,
            "classes_order_3": 4, "classes_order_4": 11, "classes_order_5": 34,
            "classes_order_6": 117, "classes_order_7": 399, "classes_order_8": 127,
            "duplicate_siblings": 969, "extensions_tried": 6377, "failed_unique": 1373,
            "parents_processed": 528, "rejected_not_canonical": 3341, "visited": 127,
            "witnesses": 127}),
        (dict(n=6, k=3, balanced=True), {"battery_candidates": 45, "classes_order_2": 2,
            "classes_order_3": 4, "classes_order_4": 11, "classes_order_5": 21,
            "classes_order_6": 7, "duplicate_siblings": 38, "extensions_tried": 214,
            "failed_balanced": 5, "failed_unique": 31, "parents_processed": 35,
            "rejected_not_canonical": 95, "visited": 7, "witnesses": 7}),
        (dict(n=8, k=2, balanced=True), {"battery_candidates": 2126, "classes_order_2": 2,
            "classes_order_3": 4, "classes_order_4": 10, "classes_order_5": 29,
            "classes_order_6": 100, "classes_order_7": 442, "classes_order_8": 93,
            "duplicate_siblings": 2816, "extensions_tried": 7537, "failed_balanced": 107,
            "failed_unique": 1887, "full_rejected_connected": 167, "parents_processed": 149,
            "rejected_not_canonical": 1880, "visited": 93, "witnesses": 93}),
        (dict(n=9, k=3, triangle_free=True), {"battery_candidates": 116, "classes_order_2": 2,
            "classes_order_3": 3, "classes_order_4": 7, "classes_order_5": 14,
            "classes_order_6": 38, "classes_order_7": 105, "classes_order_8": 162,
            "duplicate_siblings": 468, "extensions_tried": 1318, "failed_unique": 116,
            "parents_processed": 332, "rejected_not_canonical": 403}),
        (dict(n=10, k=3, triangle_free=True), {"battery_candidates": 1221, "classes_order_2": 2,
            "classes_order_3": 3, "classes_order_4": 7, "classes_order_5": 14,
            "classes_order_6": 38, "classes_order_7": 107, "classes_order_8": 406,
            "classes_order_9": 953, "duplicate_siblings": 2300, "extensions_tried": 7620,
            "failed_unique": 1221, "parents_processed": 1531, "rejected_not_canonical": 2569}),
    ])
    def test_stats(self, kw, stats):
        assert find_unique_k_witnesses(CensusTask(**kw)).stats == stats


def _batch_cases():
    """Seeded random parents of order 0..7 at k = 1..4, and K_{k+1}."""
    rng = random.Random(1616)
    for n in range(8):
        for k in range(1, 5):
            yield random_graph(rng, n, rng.choice((0.3, 0.5, 0.7))), k
    for k in range(1, 5):
        yield complete_graph(k + 1), k


class TestBatchedDecision:
    """Every full-order child of a parent decided by one listing of the
    parent's partitions, against a listing per child and brute force."""

    @pytest.mark.parametrize("parent, k", list(_batch_cases()))
    def test_every_mask_matches_decide(self, parent, k):
        masks = list(range(1 << parent.n))
        stats: dict[str, int] = {}
        found = _child_partitions(parent, masks, k)
        decisions = _battery(parent, masks, CensusTask(n=parent.n + 1, k=k), stats)
        assert stats["battery_candidates"] == len(masks)
        assert stats.get("failed_unique", 0) == decisions.count(None)
        for mask, (count, classes), decision in zip(masks, found, decisions):
            child = parent.with_vertex(mask)
            ref = _decide(child, k)
            assert count == ref.count
            assert count == brute_count_partitions(child, k, cap=2)
            if count == 1:
                assert _colouring_of(child.n, classes) == ref.colouring
            else:
                assert classes is None
            assert decision == (ref if ref.verdict == "yes" else None)

    def test_parent_without_partitions(self):
        for k in range(1, 4):
            parent = complete_graph(k + 1)
            found = _child_partitions(parent, list(range(1 << parent.n)), k)
            assert found == [(0, None)] * (1 << parent.n)

    def test_order_zero_parent(self):
        # the order-1 task: the one child of the order-0 graph, by mask 0
        assert _child_partitions(Graph(0), [0], 2) == [(1, (1,))]
        task = CensusTask(n=1, k=1)
        assert _battery(Graph(0), [0], task, {}) == [_decide(Graph(1), 1)]
        assert _battery(Graph(0), [0], replace(task, k=2), {}) == [None]

    def _leaves(self, monkeypatch, parent, masks, k) -> tuple[list, int]:
        """_child_partitions(parent, masks, k), and the leaves its one listing reached."""
        import unicolor.census as census_module

        calls: list[int] = []
        enumerate_partitions = census_module._enumerate_partitions

        def spy(g, k, cap, on_leaf):
            calls.append(0)

            def counted(classes):
                calls[-1] += 1
                return on_leaf(classes)

            return enumerate_partitions(g, k, cap, on_leaf=counted)

        monkeypatch.setattr(census_module, "_enumerate_partitions", spy)
        found = _child_partitions(parent, masks, k)
        assert len(calls) == 1
        return found, calls[0]

    def test_listing_stops_once_every_child_has_two(self, monkeypatch):
        parent = Graph(5)  # 41 partitions into at most 3 classes
        masks = list(range(1, 1 << 5))
        found, leaves = self._leaves(monkeypatch, parent, masks, 3)
        assert found == [(2, None)] * len(masks)
        assert leaves < brute_count_partitions(parent, 3) == 41

    def test_listing_runs_to_the_end_for_a_witness(self, monkeypatch):
        parent = path_graph(3)  # {0, 2} {1} and three singletons
        found, leaves = self._leaves(monkeypatch, parent, [0b111, 0], 3)
        # joined to the whole path, r can only open a third class: K4 - e
        (count, classes), other = found
        assert count == 1 and set(classes) == {0b101, 0b010, 0b1000}
        assert other == (2, None)
        assert leaves == brute_count_partitions(parent, 3) == 2


def _out_of_budget() -> None:
    try:
        _enumerate_partitions(cycle_graph(9), 3, None, budget=Budget(max_nodes=20))
    except BudgetExceededError:
        return
    raise AssertionError("the budget did not run out")


class TestNoCyclicGarbage:
    # a recursive search closure that still refers to itself, or a class made
    # per call, is a reference cycle that only the cyclic collector frees;
    # none of these calls may leave one behind
    @pytest.mark.parametrize("call", [
        lambda: _canonical(7, cycle_graph(7).adj, autos=[]),
        lambda: clique_number(cycle_graph(7)),
        lambda: _candidate_masks(cycle_graph(7).adj, 0, (1 << 7) - 1, 1, 3, True),
        lambda: _enumerate_partitions(cycle_graph(7), 3, None),
        lambda: _enumerate_partitions(cycle_graph(7), 3, 2),
        _out_of_budget,
        lambda: _child_partitions(Graph(5), list(range(1, 1 << 5)), 3),
        lambda: _decide(cycle_graph(7), 3),
        lambda: sigma(cycle_graph(7)),
        lambda: generate(CensusTask(n=6, triangle_free=True)),
        lambda: find_unique_k_witnesses(CensusTask(n=6, k=3)),
    ], ids=["labelling", "clique", "masks", "enumerate", "enumerate-capped",
            "enumerate-out-of-budget", "child-partitions-settled", "decide", "sigma",
            "census", "witness-census"])
    def test_no_cycles_left(self, call):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            call()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
