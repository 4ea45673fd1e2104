import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unicolor
from unicolor.budget import Budget
from unicolor.census import checkpoint_loads, resume
from unicolor.cli import build_parser, main
from unicolor.colouring import _decide
from unicolor.constructions import builtin_catalog, nu
from unicolor.graphs import emit_graph6, parse_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestCheck:
    def test_catalog_yes(self, capsys):
        code, out, err = run(capsys, "check", "--catalog", "figure1a", "--k", "3")
        assert code == 0
        (row,) = out_lines(out)
        assert row["uniquely_colourable"] == "yes"
        assert row["partition_count"] == 1
        assert row["name"] == "figure1a"

    def test_positional_no(self, capsys):
        code, out, _ = run(capsys, "check", "C~", "--k", "3")  # K4 is not 3-colourable
        assert code == 1
        assert out_lines(out)[0]["uniquely_colourable"] == "no"

    def test_budget_exhausted(self, capsys):
        code, out, _ = run(capsys, "check", "--catalog", "K8", "--k", "8",
                           "--budget-nodes", "3")
        assert code == 3
        assert out_lines(out)[0]["uniquely_colourable"] == "unknown-capped"

    def test_budget_exhausted_counts_partitions_reached(self, capsys):
        # the budget runs out after the first 3-colouring is found
        code, out, _ = run(capsys, "check", "--catalog", "figure1a", "--k", "3",
                           "--budget-nodes", "30")
        assert code == 3
        (row,) = out_lines(out)
        assert row["uniquely_colourable"] == "unknown-capped"
        assert row["partition_count"] == 1 and row["count_capped"] is True
        assert row["two_class_connected_ok"] is None

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("# comment\nEhEG\nC~\n")
        code, out, _ = run(capsys, "check", "--input", str(path), "--k", "3")
        rows = out_lines(out)
        assert len(rows) == 2
        assert code == 1  # the K4 row fails

    def test_empty_input_file(self, capsys, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("# only a comment\n\n")
        for argv in (("check", "--k", "3"), ("nu",)):
            code, out, err = run(capsys, *argv, "--input", str(path))
            assert code == 2 and out == ""
            assert "holds no usable lines" in err

    def test_source_exclusivity(self, capsys):
        code, _, err = run(capsys, "check", "Bw", "--catalog", "K3", "--k", "3")
        assert code == 2 and "exactly one" in err

    def test_bad_graph6(self, capsys):
        code, _, err = run(capsys, "check", "##", "--k", "3")
        assert code == 2 and "error" in err

    def test_unknown_catalog(self, capsys):
        code, _, err = run(capsys, "check", "--catalog", "nope", "--k", "3")
        assert code == 2 and "available" in err

    def test_dot_output(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "check", "--catalog", "K3", "--k", "3",
                         "--dot", str(dot))
        assert code == 0
        text = dot.read_text()
        assert text.startswith("graph") and "--" in text


class TestNu:
    def test_catalog_matches_library(self, capsys):
        code, out, _ = run(capsys, "nu", "--catalog", "K3")
        assert code == 0
        (row,) = out_lines(out)
        expected = nu(builtin_catalog()["K3"])
        assert row["graph6"] == emit_graph6(expected.graph)
        assert row["n"] == 12 and row["m"] == 36 and row["k"] == 4
        assert row["colouring"] == list(expected.colouring.assignment)

    def test_bare_graph_gets_coloured(self, capsys):
        code, out, _ = run(capsys, "nu", "Bw")  # K3, chromatic number found
        assert code == 0
        assert out_lines(out)[0]["input_k"] == 3

    def test_iterations(self, capsys):
        code, out, _ = run(capsys, "nu", "--catalog", "K3", "--iterations", "0")
        assert code == 0
        assert out_lines(out)[0]["n"] == 3

    def test_json_lines_input(self, capsys, tmp_path):
        path = tmp_path / "seeds.jsonl"
        g = parse_graph6("EhEG")  # C6
        path.write_text(json.dumps({"graph6": "EhEG", "colouring": [0, 1, 0, 1, 0, 1]}) + "\n")
        code, out, _ = run(capsys, "nu", "--input", str(path))
        assert code == 0
        row = out_lines(out)[0]
        assert row["input_k"] == 2 and row["n"] == 18

    def test_json_lines_bad_payload(self, capsys, tmp_path):
        path = tmp_path / "seeds.jsonl"
        path.write_text('{"graph6": "EhEG"}\n')
        code, _, err = run(capsys, "nu", "--input", str(path))
        assert code == 2 and "colouring" in err

    @pytest.mark.parametrize("payload, words", [
        ({"graph6": 5, "colouring": [0, 1]}, "expected {\"graph6\""),
        ({"graph6": "A_", "colouring": [True, False]}, "invalid class label True"),
    ], ids=["graph6-not-a-string", "bool-labels"])
    def test_malformed_line_is_an_input_error(self, capsys, tmp_path, payload, words):
        path = tmp_path / "seeds.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        code, out, err = run(capsys, "nu", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and words in err

    def test_improper_colouring_rejected(self, capsys, tmp_path):
        path = tmp_path / "seeds.jsonl"
        path.write_text(json.dumps({"graph6": "Bw", "colouring": [0, 0, 1]}) + "\n")
        code, _, err = run(capsys, "nu", "--input", str(path))
        assert code == 2

    def test_overflow_is_input_error(self, capsys):
        code, _, err = run(capsys, "nu", "--catalog", "K3", "--iterations", "4")
        assert code == 2 and "exceeds" in err


class TestCensus:
    def test_small_run(self, capsys):
        code, out, err = run(capsys, "census", "--n", "4", "--k", "2")
        assert code == 0
        rows = out_lines(out)
        assert len(rows) == 3
        assert all(r["report"]["uniquely_colourable"] == "yes" for r in rows)
        assert "census stats" in err

    def test_requires_n(self, capsys):
        code, _, err = run(capsys, "census")
        assert code == 2 and "--n" in err

    def test_bad_edge_window(self, capsys):
        code, _, err = run(capsys, "census", "--n", "5", "--edges", "five")
        assert code == 2

    def test_checkpoint_round_trip(self, capsys, tmp_path):
        cp = tmp_path / "token.json"
        code, out1, _ = run(capsys, "census", "--n", "5", "--k", "2",
                            "--budget-nodes", "2", "--checkpoint", str(cp))
        assert code == 3
        assert cp.exists()
        rows = []
        while code == 3:
            code, out, _ = run(capsys, "census", "--resume", "--checkpoint", str(cp))
            rows = out_lines(out)
        assert code == 0
        direct_code, direct_out, _ = run(capsys, "census", "--n", "5", "--k", "2")
        assert [r["graph6"] for r in rows] == [r["graph6"] for r in out_lines(direct_out)]

    def test_unwritable_checkpoint_is_an_input_error(self, capsys, tmp_path):
        cp = tmp_path / "no" / "such" / "dir" / "t.json"
        code, _, err = run(capsys, "census", "--n", "6", "--k", "2",
                           "--budget-nodes", "5", "--checkpoint", str(cp))
        assert code == 2
        assert "cannot write checkpoint" in err and "Traceback" not in err
        assert "census stats" not in err  # refused before the search, not after it
        assert not cp.parent.exists()

    def test_directory_checkpoint_is_refused_and_leaves_no_tmp(self, capsys, tmp_path):
        cp = tmp_path / "t.json"
        cp.mkdir()
        code, _, err = run(capsys, "census", "--n", "6", "--k", "2",
                           "--budget-nodes", "5", "--checkpoint", str(cp))
        assert code == 2 and "is a directory" in err
        assert "census stats" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]

    def test_failed_write_removes_the_tmp_file(self, capsys, tmp_path, monkeypatch):
        cp = tmp_path / "t.json"

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("unicolor.cli.os.replace", refuse)
        code, _, err = run(capsys, "census", "--n", "6", "--k", "2",
                           "--budget-nodes", "5", "--checkpoint", str(cp))
        assert code == 2 and "cannot write checkpoint" in err
        assert list(tmp_path.iterdir()) == []

    def test_resume_needs_checkpoint_path(self, capsys):
        code, _, err = run(capsys, "census", "--resume")
        assert code == 2 and "--checkpoint" in err

    def test_threads_flag(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "5", "--k", "2", "--threads", "2")
        assert code == 0
        direct = run(capsys, "census", "--n", "5", "--k", "2")[1]
        assert sorted(out.splitlines()) == sorted(direct.splitlines())

    def test_threads_come_from_the_flag_alone(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UNICOLOR_THREADS", "2")
        cp = tmp_path / "t.json"
        code, _, _ = run(capsys, "census", "--n", "7", "--k", "3",
                         "--budget-nodes", "5", "--checkpoint", str(cp))
        assert code == 3 and cp.exists()

    def test_resume_refuses_threads(self, capsys, tmp_path):
        cp = tmp_path / "t.json"
        assert run(capsys, "census", "--n", "7", "--k", "3", "--budget-nodes", "5",
                   "--checkpoint", str(cp))[0] == 3
        code, out, err = run(capsys, "census", "--resume", "--checkpoint", str(cp),
                             "--threads", "2")
        assert (code, out) == (2, "")
        assert "single-worker" in err and "census stats" not in err
        assert "resuming" not in err


class TestSample:
    def test_deterministic(self, capsys):
        args = ("sample", "--k", "3", "--n", "6", "--eps", "1/20", "--seed", "9")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        row = out_lines(out1)[0]
        assert row["n"] == 18 and row["eps_safe"] is True
        assert row["girth"] is None or row["girth"] >= 4

    def test_unsafe_eps_warns(self, capsys):
        code, out, err = run(capsys, "sample", "--k", "3", "--n", "4", "--eps", "1/5")
        assert code == 0
        assert "warning" in err
        assert out_lines(out)[0]["eps_safe"] is False

    def test_girth_null_for_forest(self, capsys):
        code, out, _ = run(capsys, "sample", "--k", "2", "--n", "1", "--eps", "1/20")
        assert code == 0
        row = out_lines(out)[0]
        assert row["m"] == 1 and row["girth"] is None

    def test_bad_eps(self, capsys):
        code, _, err = run(capsys, "sample", "--k", "3", "--n", "4", "--eps", "x")
        assert code == 2

    def test_dot(self, capsys, tmp_path):
        dot = tmp_path / "s.dot"
        code, _, _ = run(capsys, "sample", "--k", "2", "--n", "3", "--eps", "1/20",
                         "--dot", str(dot))
        assert code == 0 and dot.exists()


class TestLibraryInputErrors:
    # the library raises ValueError for bad values, and main reports it once
    @pytest.mark.parametrize("argv, line", [
        (["census", "--n", "15"], "error: census order must be 1..14\n"),
        (["sample", "--k", "1", "--n", "4", "--eps", "1/20"],
         "error: sampler needs at least two parts\n"),
        (["check", "A_", "--k", "2", "--budget-seconds", "nan"],
         "error: max_seconds must be positive\n"),
        (["census", "--n", "5", "--budget-seconds", "nan"],
         "error: max_seconds must be positive\n"),
        (["census", "--n", "6", "--k", "3", "--budget-nodes", "0"],
         "error: census node budget must be at least 1\n"),
    ], ids=["census-order", "sample-parts", "check-nan-seconds", "census-nan-seconds",
            "census-zero-nodes"])
    def test_one_error_line(self, capsys, argv, line):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", line)


class TestCheckConnectivityBudget:
    def test_budget_runs_out_in_connectivity(self, capsys):
        g = builtin_catalog()["figure1a"].graph
        budget = Budget(max_nodes=10 ** 6)
        assert _decide(g, 3, budget=budget).verdict == "yes"
        decision_nodes = 10 ** 6 - budget.nodes_left
        code, out, _ = run(capsys, "check", "--catalog", "figure1a", "--k", "3",
                           "--budget-nodes", str(decision_nodes))
        assert code == 3
        assert '"connectivity_ok": null' in out
        (row,) = out_lines(out)
        assert row["uniquely_colourable"] == "yes" and row["connectivity_ok"] is None
        code, out, _ = run(capsys, "check", "--catalog", "figure1a", "--k", "3",
                           "--budget-nodes", str(decision_nodes + 1000))
        assert code == 0 and out_lines(out)[0]["connectivity_ok"] is True


class TestCheckDotBudget:
    def test_dot_stays_inside_the_budget(self, capsys, tmp_path):
        dot = tmp_path / "k8.dot"
        code, _, _ = run(capsys, "check", "--catalog", "K8", "--k", "8",
                         "--budget-nodes", "3", "--dot", str(dot))
        assert code == 3
        fills = [line for line in dot.read_text().splitlines() if "fillcolor=" in line]
        assert len(fills) == 8
        assert all('fillcolor="white"' in line for line in fills)


def _budgeted_token(capsys, path) -> dict:
    code, _, _ = run(capsys, "census", "--n", "5", "--k", "2",
                     "--budget-nodes", "2", "--checkpoint", str(path))
    assert code == 3
    return json.loads(path.read_text())


# A witness of the task `census --n 5 --k 2`: the star K_{1,4}, canonically labelled.
_STAR = {"graph6": "D?{", "n": 5, "k": 2, "edges": 4, "report": {
    "graph6": "D?{", "k": 2, "min_degree_ok": True, "connected_ok": True,
    "connectivity_ok": True, "xu_slack": 0, "two_class_connected_ok": True,
    "partition_count": 1, "count_capped": False, "uniquely_colourable": "yes"}}


def _with_witness(token: dict, report: dict | None = None, **changes) -> dict:
    """``token`` holding the star witness, with some of its keys and of its
    report's keys replaced, or dropped where the new value is None."""
    def edit(d, ch):
        return {key: v for key, v in {**d, **ch}.items() if v is not None}

    witness = edit(dict(_STAR, report=edit(_STAR["report"], report or {})), changes)
    return dict(token, witnesses=[witness])


class TestResumeTokens:
    @pytest.mark.parametrize("mutate", [
        lambda t: {key: v for key, v in t.items() if key != "task"},
        lambda t: dict(t, task=dict(t["task"], colour="red")),
        lambda t: dict(t, task={key: v for key, v in t["task"].items() if key != "k"}),
        lambda t: dict(t, pending=[*t["pending"], "D~{"]),  # order 5 = n
        lambda t: dict(t, pending=[*t["pending"], "B_"]),  # not canonical
        lambda t: dict(t, witnesses={}),
        lambda t: dict(t, witnesses=["D?{"]),
        lambda t: _with_witness(t, edges=None),
        lambda t: _with_witness(t, colour="red"),
        lambda t: _with_witness(t, report={"k": None}),
        lambda t: _with_witness(t, report={"colour": "red"}),
        lambda t: dict(t, witnesses=[dict(_STAR, report="yes")]),
        lambda t: _with_witness(t, graph6="CR"),  # order 4 < n
        lambda t: _with_witness(t, graph6="Ds_"),  # the star, not canonically labelled
        lambda t: _with_witness(t, graph6=5),
        lambda t: _with_witness(t, edges=5),
    ], ids=["no-task", "unknown-task-key", "missing-task-key", "pending-order", "pending-canon",
            "witnesses-not-list", "witness-not-dict", "witness-missing-key", "witness-extra-key",
            "report-missing-key", "report-extra-key", "report-not-dict", "witness-order",
            "witness-canon", "witness-not-str", "witness-edges"])
    def test_malformed_token_is_an_input_error(self, capsys, tmp_path, mutate):
        cp = tmp_path / "token.json"
        token = _budgeted_token(capsys, cp)
        cp.write_text(json.dumps(mutate(token)))
        code, _, err = run(capsys, "census", "--resume", "--checkpoint", str(cp))
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("part, key, value", [
        ("stats", "parents_processed", [1]),
        ("stats", "parents_processed", -1),
        ("stats", "parents_processed", True),
        ("task", "k", 2.5),
        ("task", "budget_nodes", "5"),
        ("task", "min_degree", 1.5),
        ("task", "triangle_free", "yes"),
        ("task", "n", True),
        ("task", "edge_window", [9, "12"]),
        ("task", "budget_seconds", "1"),
        ("task", "budget_seconds", float("nan")),
    ], ids=["stats-list", "stats-negative", "stats-bool", "k-float", "budget-str",
            "min-degree-float", "flag-str", "n-bool", "window-str", "seconds-str", "seconds-nan"])
    def test_malformed_field_is_rejected(self, capsys, tmp_path, part, key, value):
        cp = tmp_path / "token.json"
        code, _, _ = run(capsys, "census", "--n", "7", "--k", "3",
                         "--budget-nodes", "5", "--checkpoint", str(cp))
        token = json.loads(cp.read_text())
        assert code == 3 and key in token[part]
        token[part][key] = value
        with pytest.raises(ValueError):
            resume(token)
        cp.write_text(json.dumps(token))
        code, out, err = run(capsys, "census", "--resume", "--checkpoint", str(cp))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_witnesses_survive_resume(self, capsys, tmp_path):
        _, direct, _ = run(capsys, "census", "--n", "6", "--k", "2")
        cp = tmp_path / "token.json"
        # the search expands 26 parents: 15 stops it halfway, with 4 witnesses
        code, _, _ = run(capsys, "census", "--n", "6", "--k", "2",
                         "--budget-nodes", "15", "--checkpoint", str(cp))
        assert code == 3 and json.loads(cp.read_text())["witnesses"]
        while code == 3:
            code, out, _ = run(capsys, "census", "--resume", "--checkpoint", str(cp))
        assert code == 0 and out == direct

    @pytest.mark.parametrize("forge, forge_report, message", [
        # the canonical F??~w has 7 vertices and 9 edges, is connected and
        # has a triangle: it passes every filter of the task but is not
        # uniquely 2-colourable
        (dict(graph6="F??~w", edges=9), dict(graph6="F??~w"), "decision"),
        ({}, dict(xu_slack=0), "differs"),
        ({}, dict(two_class_connected_ok=False), "differs"),
    ], ids=["not-a-witness", "report-xu-slack", "report-two-class"])
    def test_forged_witness_is_an_input_error(self, capsys, tmp_path, forge, forge_report,
                                              message):
        cp = tmp_path / "token.json"
        code, _, _ = run(capsys, "census", "--n", "7", "--k", "2",
                         "--budget-nodes", "20", "--checkpoint", str(cp))
        token = json.loads(cp.read_text())
        assert code == 3 and token["witnesses"]
        first = token["witnesses"][0]
        assert first["report"]["xu_slack"] != 0
        token["witnesses"][0] = dict(first, report=dict(first["report"], **forge_report), **forge)
        cp.write_text(json.dumps(token))
        code, out, err = run(capsys, "census", "--resume", "--checkpoint", str(cp))
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err

    def test_well_formed_witness_is_kept(self, capsys, tmp_path):
        cp = tmp_path / "token.json"
        cp.write_text(json.dumps(_with_witness(_budgeted_token(capsys, cp))))
        code, out, _ = run(capsys, "census", "--resume", "--checkpoint", str(cp))
        assert code == 3
        assert out_lines(out) == [_STAR]

    def test_unwritable_checkpoint_is_refused_before_resuming(self, capsys, tmp_path, monkeypatch):
        cp = tmp_path / "token.json"
        _budgeted_token(capsys, cp)
        before = cp.read_text()
        monkeypatch.setattr("unicolor.cli.os.access", lambda path, mode: False)
        code, _, err = run(capsys, "census", "--resume", "--checkpoint", str(cp))
        assert code == 2 and "not writable" in err
        assert "census stats" not in err and cp.read_text() == before

    def test_failed_write_keeps_the_previous_token(self, capsys, tmp_path, monkeypatch):
        cp = tmp_path / "token.json"
        _budgeted_token(capsys, cp)
        before = cp.read_text()

        def crash(token):
            raise RuntimeError("crash while writing the checkpoint")

        monkeypatch.setattr("unicolor.census.checkpoint_dumps", crash)
        with pytest.raises(RuntimeError, match="crash"):
            main(["census", "--resume", "--checkpoint", str(cp)])
        assert cp.read_text() == before
        assert checkpoint_loads(before)["pending"]


class TestClosedStdout:
    def test_reader_gone_exits_141_without_a_traceback(self):
        # the sample is one JSON line of about 90 KB, more than a 64 KiB pipe
        # holds, so the command is still writing when the reader closes
        src = str(Path(unicolor.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-m", "unicolor.cli", "sample", "--k", "5", "--n", "204",
             "--eps", "1/20"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestParserBuiltOnce:
    @pytest.fixture
    def builds(self, monkeypatch):
        import unicolor.cli as cli_module

        count = [0]
        build = cli_module.build_parser

        def counted():
            count[0] += 1
            return build()

        monkeypatch.setattr(cli_module, "build_parser", counted)
        cli_module._parser.cache_clear()
        yield count
        cli_module._parser.cache_clear()

    def test_two_calls_build_it_once(self, capsys, builds):
        first = run(capsys, "check", "--catalog", "figure1a", "--k", "3")
        second = run(capsys, "check", "--catalog", "figure1a", "--k", "3")
        assert builds[0] == 1
        assert first == second and first[0] == 0 and first[1]

    @pytest.mark.parametrize("argv", [["--help"], ["census", "--help"], ["check", "--help"]])
    def test_help_unchanged(self, capsys, builds, argv):
        # the help a fresh parser prints, then main's, twice from one parser
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 0
        expected = capsys.readouterr().out
        assert expected.startswith("usage: unicolor")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out == expected
        assert builds[0] == 1
