import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from unicolor.census import CensusTask, find_unique_k_witnesses

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
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

    def test_one_checkout_on_both_sides_names_each_cache_once(self, tmp_path, capsys):
        checkout = _checkout(tmp_path / "both", {"partitions": 1.0})
        cache = checkout / "src" / "unicolor" / "__pycache__"
        cache.mkdir(parents=True)
        with pytest.raises(SystemExit):
            bench_pairs.main([str(checkout), str(checkout), "--workload", "partitions",
                              "--seed-base", "5", "--out", str(tmp_path / "bench.json")])
        assert capsys.readouterr().err.count(str(cache)) == 1


_FAKE_CENSUS = """\
class CensusTask:
    def __init__(self, **kw):
        self.kw = kw


class _Result:
    complete = True
    stats = STATS
    witnesses = []


def find_unique_k_witnesses(task, threads=1):
    if STATS is None:
        raise RuntimeError("no census here")
    return _Result()
"""


def _census_checkout(root: Path, stats: dict | None) -> Path:
    package = root / "src" / "unicolor"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "census.py").write_text(f"STATS = {stats!r}\n" + _FAKE_CENSUS)
    return root


def _pairs(parent: Path, change: Path, out: Path, *args: str) -> tuple[int, dict]:
    code = bench_pairs.main([str(parent), str(change), *args, "--seed-base", "1",
                             "--out", str(out)])
    return code, json.loads(out.read_text())


class TestCensusTasks:
    def test_repo_on_both_sides(self, tmp_path):
        checkout = tmp_path / "repo"
        shutil.copytree(ROOT / "src", checkout / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        tasks = ["n6k3", "n6k3t2"]  # the second forks two workers on a host with two CPUs
        code, report = _pairs(checkout, checkout, tmp_path / "pairs.json", "--task", tasks[0],
                              "--task", tasks[1], "--pairs", "2")
        assert code == 0 and report["failed_run"] is None
        assert report["tasks"] == tasks and report["identical_outputs"]
        direct = find_unique_k_witnesses(CensusTask(n=6, k=3))
        for task in tasks:
            result = report["results"][task]
            assert result["stats"] == direct.stats
            assert result["witnesses"] == [w.graph6 for w in direct.witnesses]
            assert [pair["parent"]["ran"] for pair in result["runs"]] == ["first", "second"]
            wall = result["summary"]["wall_s"]
            assert set(wall["median"]) == {"parent", "change"}
            assert wall["pairs_won_by_change"] + wall["pairs_lost_by_change"] <= 2

    def test_different_outputs_fail(self, tmp_path):
        parent = _census_checkout(tmp_path / "parent", {"visited": 1})
        change = _census_checkout(tmp_path / "change", {"visited": 2})
        code, report = _pairs(parent, change, tmp_path / "pairs.json", "--task", "tf11",
                              "--pairs", "1")
        assert code == 1 and report["failed_run"] is None
        assert not report["identical_outputs"]
        assert report["results"]["tf11"]["stats"] == {"visited": 1}

    def test_failed_run_keeps_the_completed_pairs(self, tmp_path):
        parent = _census_checkout(tmp_path / "parent", {"visited": 1})
        change = _census_checkout(tmp_path / "change", None)
        code, report = _pairs(parent, change, tmp_path / "pairs.json", "--task", "order12")
        assert code == 1
        failed = report["failed_run"]
        assert failed["side"] == "change" and failed["task"] == "order12"
        assert "no census here" in "\n".join(failed["stderr_tail"])
        assert report["results"]["order12"]["runs"] == []

    def test_workloads_and_tasks_in_one_series(self, tmp_path, monkeypatch):
        # the task runs themselves must keep src/ free of bytecode caches
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        parent = _census_checkout(_checkout(tmp_path / "parent", {"check-nu": 2.0}),
                                  {"visited": 1})
        change = _census_checkout(_checkout(tmp_path / "change", {"check-nu": 1.0}),
                                  {"visited": 1})
        code, report = _pairs(parent, change, tmp_path / "pairs.json", "--workload",
                              "check-nu", "--task", "n6k3", "--pairs", "3")
        assert code == 0 and report["failed_run"] is None
        assert (report["workloads"], report["tasks"]) == (["check-nu"], ["n6k3"])
        assert report["all_correct"] and report["identical_outputs"]
        check, task = report["results"]["check-nu"], report["results"]["n6k3"]
        assert check["summary"]["wall_s"]["median"] == {"parent": 2.0, "change": 1.0}
        assert set(task["summary"]) == {"wall_s"} and task["stats"] == {"visited": 1}
        for result in (check, task):
            assert [pair["parent"]["ran"] for pair in result["runs"]] == \
                ["first", "second", "first"]
        assert all(len(pair[side]["outputs_sha1"]) == 40
                   for pair in task["runs"] for side in ("parent", "change"))
        assert not list(tmp_path.rglob("__pycache__"))

    @pytest.mark.parametrize("args", [
        [], ["--workload", "order12"], ["--task", "n6k3", "--traced", "tf11"],
    ], ids=["no-job", "task-as-workload", "task-traced"])
    def test_bad_job_lists_are_refused(self, tmp_path, args):
        checkout = _census_checkout(tmp_path / "c", {"visited": 1})
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main([str(checkout), str(checkout), *args, "--seed-base", "1",
                              "--out", str(tmp_path / "bench.json")])
        assert exc.value.code == 2
