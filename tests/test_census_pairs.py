import json
import subprocess
import sys
from pathlib import Path

from unicolor.census import CensusTask, find_unique_k_witnesses

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "census_pairs.py"

_FAKE_CENSUS = """\
class CensusTask:
    def __init__(self, **kw):
        self.kw = kw


class _Result:
    complete = True
    stats = STATS
    witnesses = []


def find_unique_k_witnesses(task):
    if STATS is None:
        raise RuntimeError("no census here")
    return _Result()
"""


def _fake_checkout(root: Path, stats: dict | None) -> Path:
    package = root / "src" / "unicolor"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "census.py").write_text(f"STATS = {stats!r}\n" + _FAKE_CENSUS)
    return root


def _pairs(parent: Path, change: Path, out: Path, *args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change), *args,
                           "--out", str(out)], capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(out.read_text())


class TestCensusPairs:
    def test_repo_on_both_sides(self, tmp_path):
        code, report = _pairs(ROOT, ROOT, tmp_path / "pairs.json", "--task", "n6k3",
                              "--pairs", "2")
        assert code == 0 and report["failed_run"] is None
        assert report["tasks"] == ["n6k3"] and report["identical_outputs"]
        result = report["results"]["n6k3"]
        direct = find_unique_k_witnesses(CensusTask(n=6, k=3))
        assert result["stats"] == direct.stats
        assert result["witnesses"] == [w.graph6 for w in direct.witnesses]
        assert [pair["parent"]["ran"] for pair in result["runs"]] == ["first", "second"]
        wall = result["summary"]["wall_s"]
        assert set(wall["median"]) == {"parent", "change"}
        assert wall["pairs_won_by_change"] + wall["pairs_lost_by_change"] <= 2

    def test_different_outputs_fail(self, tmp_path):
        parent = _fake_checkout(tmp_path / "parent", {"visited": 1})
        change = _fake_checkout(tmp_path / "change", {"visited": 2})
        code, report = _pairs(parent, change, tmp_path / "pairs.json", "--task", "tf11",
                              "--pairs", "1")
        assert code == 1 and report["failed_run"] is None
        assert not report["identical_outputs"]
        assert report["results"]["tf11"]["stats"] == {"visited": 1}

    def test_failed_run_keeps_the_completed_pairs(self, tmp_path):
        parent = _fake_checkout(tmp_path / "parent", {"visited": 1})
        change = _fake_checkout(tmp_path / "change", None)
        code, report = _pairs(parent, change, tmp_path / "pairs.json", "--task", "order12")
        assert code == 1
        failed = report["failed_run"]
        assert failed["side"] == "change" and failed["task"] == "order12"
        assert "no census here" in "\n".join(failed["stderr_tail"])
        assert report["results"]["order12"]["runs"] == []
