import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_FAKE_RUN = """\
import json
import sys

workload = sys.argv[sys.argv.index("--workload") + 1]
print("round 1: a progress line")
metrics = {"wall_s": WALLS[workload], "setup_s": 0.5, "peak_rss_mib": RSS}
if sys.argv[sys.argv.index("--trace") + 1] == "1":
    metrics["graphs.maxflow_calls"] = 1113
print(json.dumps({"correct": True, "attempted": 3, "failed": FAILED,
                  "metrics": {k: {"value": v, "unit": "?"} for k, v in metrics.items()}}))
"""


def _checkout(root: Path, walls: dict[str, float], rss: float = 20.0, failed: int = 0,
              bounds: dict[str, float] | None = None) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        f"WALLS = {walls!r}\nRSS = {rss!r}\nFAILED = {failed!r}\n" + _FAKE_RUN)
    if bounds is not None:
        declared = [{"name": name, "better": "lower", "bound": bound}
                    for name, bound in bounds.items()]
        (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": declared}))
    return root


class TestSeveralWorkloads:
    def test_one_summary_per_workload(self, tmp_path, capsys):
        parent = _checkout(tmp_path / "parent", {"census-tf10": 2.0, "partitions": 1.0})
        change = _checkout(tmp_path / "change", {"census-tf10": 1.0, "partitions": 1.0})
        out = tmp_path / "bench.json"
        code = bench_pairs.main([str(parent), str(change), "--workload", "census-tf10",
                                 "--workload", "partitions", "--pairs", "3",
                                 "--seed-base", "40", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["workloads"] == ["census-tf10", "partitions"]
        assert report["seeds"] == [40, 41, 42] and report["all_correct"]
        census, parts = report["results"]["census-tf10"], report["results"]["partitions"]
        wall = census["summary"]["wall_s"]
        assert wall["median"] == {"parent": 2.0, "change": 1.0}
        assert wall["pairs_won_by_change"] == 3 and wall["gain"]
        wall = parts["summary"]["wall_s"]
        assert wall["pairs_won_by_change"] == wall["pairs_lost_by_change"] == 0
        assert not wall["gain"]
        for result in (census, parts):
            assert [pair["parent"]["ran"] for pair in result["runs"]] == \
                ["first", "second", "first"]
            assert [pair["change"]["seed"] for pair in result["runs"]] == [40, 41, 42]
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert printed["census-tf10"]["wall_s"]["gain"] is True
        assert set(printed) == {"census-tf10", "partitions"}


class TestAcceptanceRule:
    def test_bounds_from_the_parent_and_operation_totals(self, tmp_path):
        bounds = {"wall_s": 0.25, "peak_rss_mib": 0.1}
        parent = _checkout(tmp_path / "parent", {"check-nu": 1.0, "partitions": 1.0},
                           bounds=bounds)
        # the change's own bounds are ignored: only the parent's count
        change = _checkout(tmp_path / "change", {"check-nu": 1.2, "partitions": 1.3},
                           rss=23.0, failed=1, bounds={"wall_s": 1.0, "peak_rss_mib": 1.0})
        out = tmp_path / "bench.json"
        assert bench_pairs.main([str(parent), str(change), "--workload", "check-nu",
                                 "--workload", "partitions", "--pairs", "2",
                                 "--seed-base", "20", "--traced", "check-nu",
                                 "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        results = report["results"]
        check, parts = results["check-nu"], results["partitions"]
        assert check["summary"]["wall_s"]["within_bound"] is True  # 1.2 <= 1.25
        assert parts["summary"]["wall_s"]["within_bound"] is False  # 1.3 > 1.25
        assert check["summary"]["peak_rss_mib"]["within_bound"] is False  # 23 > 22
        assert check["summary"]["setup_s"]["within_bound"] is None  # no bound declared
        for result in (check, parts):
            assert result["attempted"] == {"parent": 6, "change": 6}
            assert result["failed"] == {"parent": 0, "change": 2}
        assert set(report["traced"]) == {"check-nu"}
        for side in ("parent", "change"):
            run = report["traced"]["check-nu"][side]
            assert run["seed"] == 7 and run["metrics"]["graphs.maxflow_calls"] == 1113
        assert "graphs.maxflow_calls" not in check["summary"]


_FAILING_RUN = """\
import sys

if sys.argv[sys.argv.index("--seed") + 1] == "31":
    print("worker crashed on seed 31", file=sys.stderr)
    if MALFORMED:
        print("round 1: a progress line, then no result")
        sys.exit(1)
    sys.exit(2)
"""


class TestFailedRun:
    @pytest.mark.parametrize("malformed", [False, True])
    def test_completed_pairs_are_kept(self, tmp_path, capsys, malformed):
        parent = _checkout(tmp_path / "parent", {"census-tf10": 2.0, "partitions": 1.0})
        change = _checkout(tmp_path / "change", {"census-tf10": 1.0, "partitions": 1.0})
        run_py = change / "perfbench" / "run.py"
        text = run_py.read_text()
        header, _, body = text.partition("import json\n")
        run_py.write_text(f"MALFORMED = {malformed!r}\n" + header + _FAILING_RUN
                          + "import json\n" + body)
        out = tmp_path / "bench.json"
        code = bench_pairs.main([str(parent), str(change), "--workload", "census-tf10",
                                 "--workload", "partitions", "--pairs", "4",
                                 "--seed-base", "30", "--traced", "census-tf10",
                                 "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        # pair 2 (seed 31) runs the change first, so it fails before any run of that pair
        census, parts = report["results"]["census-tf10"], report["results"]["partitions"]
        assert [pair["change"]["seed"] for pair in census["runs"]] == [30]
        assert [pair["change"]["seed"] for pair in parts["runs"]] == [30]
        assert census["summary"]["wall_s"]["median"] == {"parent": 2.0, "change": 1.0}
        assert report["traced"] == {}
        failed = report["failed_run"]
        assert (failed["side"], failed["workload"], failed["seed"]) == ("change", "census-tf10", 31)
        assert failed["exit_code"] == (1 if malformed else 2)
        assert failed["stderr_tail"] == ["worker crashed on seed 31"]
        assert "failed" in capsys.readouterr().err

    def test_a_complete_series_has_no_failed_run(self, tmp_path):
        parent = _checkout(tmp_path / "parent", {"check-nu": 1.0})
        change = _checkout(tmp_path / "change", {"check-nu": 1.0})
        out = tmp_path / "bench.json"
        assert bench_pairs.main([str(parent), str(change), "--workload", "check-nu",
                                 "--pairs", "1", "--seed-base", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["failed_run"] is None


class TestBytecodeCaches:
    def test_a_cache_under_src_stops_the_series(self, tmp_path, capsys):
        parent = _checkout(tmp_path / "parent", {"partitions": 1.0})
        change = _checkout(tmp_path / "change", {"partitions": 1.0})
        caches = [parent / "src" / "unicolor" / "__pycache__",
                  change / "src" / "unicolor" / "sub" / "__pycache__"]
        for cache in caches:
            cache.mkdir(parents=True)
            (cache / "graphs.cpython-311.pyc").write_bytes(b"")
        (change / "perfbench" / "__pycache__").mkdir()  # outside src: allowed
        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main([str(parent), str(change), "--workload", "partitions",
                              "--pairs", "1", "--seed-base", "5", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(str(cache) in err for cache in caches)
        assert str(change / "perfbench" / "__pycache__") not in err
        assert all(cache.is_dir() for cache in caches) and not out.exists()
