"""Alternating parent/change pairs of named witness-census tasks, summarised as JSON.

    python3 scripts/census_pairs.py PARENT_DIR CHANGE_DIR --task order12 --task tf11 \
        --pairs 5 --out BENCH_census.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  The tasks are
witness searches (``find_unique_k_witnesses``) that no perfbench workload runs:

- ``order12``: the restricted order-12 search of acceptance criterion 6 (k = 3,
  triangle-free, connected, minimum degree 2, balanced, 22..23 edges);
- ``tf11``: the unrestricted triangle-free census at n = 11, k = 3;
- ``n6k3``: the census at n = 6, k = 3, small enough for a smoke test.

``--task`` may be given more than once.  Pair i runs, for each task in turn,
each checkout once, the parent first in even pairs and the change first in odd
ones, so a drift in the host's speed falls on both sides alike.  Each run is a
fresh Python process that imports unicolor from that checkout's ``src`` and
prints one JSON line: the seconds spent in ``find_unique_k_witnesses``
(``wall_s``), the stats and the witnesses.

The output file holds, per task, the stats and witness graph6 list of the
first parent run, whether every run on both sides printed the same stats and
witnesses (``identical_outputs``), every run's ``wall_s`` and output sha1, and
the summary of ``wall_s`` that ``bench_pairs.py`` computes: both sides'
medians and quartiles, the pairs won, the parent's quartile spread and
``gain``.  It also records the Python version, the CPU count and each
checkout's git commit.  The script exits 1, after writing the file, when a run
fails or when the outputs differ anywhere.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

from bench_pairs import SIDES, STDERR_TAIL, RunFailed, _commit, summarise

TASKS = {
    "order12": dict(n=12, k=3, triangle_free=True, connected=True, min_degree=2,
                    balanced=True, edge_window=[22, 23]),
    "tf11": dict(n=11, k=3, triangle_free=True),
    "n6k3": dict(n=6, k=3),
}

_RUNNER = """\
import json, sys, time
from unicolor.census import CensusTask, find_unique_k_witnesses
kw = json.loads(sys.argv[1])
if kw.get("edge_window") is not None:
    kw["edge_window"] = tuple(kw["edge_window"])
task = CensusTask(**kw)
began = time.perf_counter()
result = find_unique_k_witnesses(task)
wall = time.perf_counter() - began
print(json.dumps({"wall_s": wall, "complete": result.complete, "stats": result.stats,
                  "witnesses": [w.to_json_dict() for w in result.witnesses]}))
"""


def _run(checkout: str, side: str, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    cmd = [sys.executable, "-c", _RUNNER, json.dumps(TASKS[name])]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    try:
        out = json.loads(proc.stdout.splitlines()[-1])
        wall = float(out["wall_s"])
        outputs = {"complete": out["complete"], "stats": out["stats"],
                   "witnesses": out["witnesses"]}
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        raise RunFailed({"side": side, "task": name, "exit_code": proc.returncode,
                         "reason": f"no usable result line: {exc!r}",
                         "stderr_tail": proc.stderr.splitlines()[-STDERR_TAIL:]}) from None
    digest = hashlib.sha1(json.dumps(outputs, sort_keys=True).encode("utf-8")).hexdigest()
    return {"metrics": {"wall_s": wall}, "outputs_sha1": digest, "outputs": outputs}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--task", required=True, action="append", choices=sorted(TASKS),
                    help="a task to run; repeat for several")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, path in dirs.items():
        if not os.path.isdir(os.path.join(path, "src", "unicolor")):
            ap.error(f"{side} checkout {path} has no src/unicolor")
    tasks = list(dict.fromkeys(args.task))
    runs: dict[str, list[dict[str, dict]]] = {name: [] for name in tasks}
    first: dict[str, dict] = {}
    failed_run = None
    try:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for name in tasks:
                pair = {}
                for position, side in enumerate(order):
                    run = _run(dirs[side], side, name)
                    if side == "parent":
                        first.setdefault(name, run["outputs"])
                    del run["outputs"]
                    run["ran"] = "first" if position == 0 else "second"
                    pair[side] = run
                runs[name].append(pair)
                walls = ", ".join(f"{side} {pair[side]['metrics']['wall_s']:.3f} s"
                                  for side in SIDES)
                print(f"pair {i + 1}/{args.pairs} {name}: {walls}", file=sys.stderr)
    except RunFailed as exc:
        failed_run = exc.record
        print(f"run failed, report keeps the completed pairs: {json.dumps(failed_run)}",
              file=sys.stderr)
    results = {}
    for name, pairs in runs.items():
        digests = {pair[side]["outputs_sha1"] for pair in pairs for side in SIDES}
        outputs = first.get(name, {})
        results[name] = {
            "task": TASKS[name],
            "identical_outputs": len(digests) == 1,
            "stats": outputs.get("stats"),
            "witnesses": [w["graph6"] for w in outputs.get("witnesses", [])],
            "summary": summarise(pairs) if pairs else {},
            "runs": pairs,
        }
    report = {
        "tasks": tasks,
        "pairs": args.pairs,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commits": {side: _commit(path) for side, path in dirs.items()},
        "identical_outputs": all(r["identical_outputs"] for r in results.values()),
        "failed_run": failed_run,
        "results": results,
    }
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps({name: {"wall_s_median": r["summary"].get("wall_s", {}).get("median"),
                             "identical_outputs": r["identical_outputs"]}
                      for name, r in results.items()}))
    return 0 if failed_run is None and report["identical_outputs"] else 1


if __name__ == "__main__":
    sys.exit(main())
