import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_FAKE_RUN = """\
import json
import sys

workload = sys.argv[sys.argv.index("--workload") + 1]
print("round 1: a progress line")
metrics = {"wall_s": WALLS[workload], "setup_s": 0.5, "peak_rss_mib": 20.0}
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "?"} for k, v in metrics.items()}}))
"""


def _checkout(root: Path, walls: dict[str, float]) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(f"WALLS = {walls!r}\n" + _FAKE_RUN)
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
