"""Alternating parent/change pairs of benchmark workloads and census tasks, summarised as JSON.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload census-tf10 \
        --workload partitions --task order12 --pairs 10 --seed-base 2001 --out BENCH.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Two kinds of
job run, each flag repeatable, and at least one job is needed:

- ``--workload W`` runs the checkout's own ``perfbench/run.py --workload W
  --seed (seed-base + i) --seconds 25 --trace 0`` in that checkout;
- ``--task T`` times one witness search (``find_unique_k_witnesses``) that no
  perfbench workload runs, in a fresh Python process that imports unicolor
  from the checkout's ``src`` and writes no bytecode.  The tasks take no seed:
  ``order12`` is the restricted order-12 search of acceptance criterion 6
  (k = 3, triangle-free, connected, minimum degree 2, balanced, 22..23
  edges), ``tf11`` the unrestricted triangle-free census at n = 11, k = 3,
  and ``n6k3`` the census at n = 6, k = 3, small enough for a smoke test.
  ``tf11t2`` and ``n6k3t2`` run ``tf11`` and ``n6k3`` with ``threads=2``,
  so that the forked search is timed too.

Pair i runs every workload and then every task, each on both checkouts, the
parent first in even pairs and the change first in odd ones, so a drift in
the host's speed falls on both sides alike.  Nothing under ``perfbench/`` is
imported: each run is a separate process whose last stdout line is its
result.

The output file holds, per job, every run (seed, order, exit code, metrics)
and for each end-to-end metric the median and quartiles of both sides, the
pairs the change won (ties count for neither side), the parent's quartile
spread, ``gain``: the change won at least nine tenths of the pairs and its
median beats the parent's by more than that spread, and ``within_bound``: the
change's median is no worse than the parent's by more than the metric's
``bound`` in the parent checkout's ``BENCHMARK.json``, read as a fraction of
the parent's median (null where the parent declares no bound).  A workload
also has each side's total of attempted and of failed operations.  A task,
whose one metric is the seconds spent in the search (``wall_s``), also has
the stats and witness graph6 list of the first parent run, each run's output
sha1, and whether every run on both sides printed the same stats and
witnesses (``identical_outputs``).  The file also records the Python version,
the CPU count and each checkout's git commit, where there is one.  Each
``--traced`` workload then runs once more per side with ``--trace 1`` and
seed 7; those runs, with their per-layer metrics, are kept under ``traced``.

A ``__pycache__`` directory under either checkout's ``src/`` stops the script
before the first pair with exit code 2, naming every such directory and
deleting none: the runs write no bytecode but still read it, so a cache on
one side only would shorten that side's ``setup_s``.

A run that prints no result line, or a last line that is not a result, ends
the series: the output file then holds the pairs completed before it and,
under ``failed_run``, its side, job, seed, exit code and the tail of its
stderr.  The script exits 1, after writing the file, when a run failed or
when a task's outputs differ anywhere.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SECONDS = 25
TRACE_SEED = 7
SIDES = ("parent", "change")
STDERR_TAIL = 20  # lines of a failed run's stderr kept in the report

TASKS = {
    "order12": dict(n=12, k=3, triangle_free=True, connected=True, min_degree=2,
                    balanced=True, edge_window=[22, 23]),
    "tf11": dict(n=11, k=3, triangle_free=True),
    "n6k3": dict(n=6, k=3),
    "tf11t2": dict(n=11, k=3, triangle_free=True, threads=2),
    "n6k3t2": dict(n=6, k=3, threads=2),
}

# prints its result in perfbench's shape: one line whose "metrics" hold values
_RUNNER = """\
import json, sys, time
from unicolor.census import CensusTask, find_unique_k_witnesses
kw = json.loads(sys.argv[1])
threads = kw.pop("threads", 1)
if kw.get("edge_window") is not None:
    kw["edge_window"] = tuple(kw["edge_window"])
task = CensusTask(**kw)
began = time.perf_counter()
result = find_unique_k_witnesses(task, threads=threads)
wall = time.perf_counter() - began
print(json.dumps({"metrics": {"wall_s": {"value": wall, "unit": "s"}},
                  "complete": result.complete, "stats": result.stats,
                  "witnesses": [w.to_json_dict() for w in result.witnesses]}))
"""


def _commit(checkout: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


class RunFailed(Exception):
    """A run that printed no usable result line; ``record`` says which."""

    def __init__(self, record: dict):
        super().__init__(record)
        self.record = record


def _run(checkout: str, side: str, job: str, seed: int, trace: bool = False) -> dict:
    """One run of workload or task ``job`` in ``checkout``."""
    if job in TASKS:
        cmd = [sys.executable, "-c", _RUNNER, json.dumps(TASKS[job])]
        env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
    else:
        cmd = [sys.executable, "perfbench/run.py", "--workload", job, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", str(int(trace))]
        env = None
    began = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    run = {"seed": seed, "exit_code": proc.returncode, "elapsed_s": time.monotonic() - began}
    lines = proc.stdout.splitlines()
    reason = None
    if proc.returncode == 2 or not lines:  # run.py could not run: no result
        reason = "no result line"
    else:
        try:
            result = json.loads(lines[-1])
            run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
            if job in TASKS:
                outputs = {key: result[key] for key in ("complete", "stats", "witnesses")}
                run["outputs_sha1"] = hashlib.sha1(
                    json.dumps(outputs, sort_keys=True).encode("utf-8")).hexdigest()
                run["outputs"] = outputs
            else:
                run.update(correct=result["correct"], attempted=result["attempted"],
                           failed=result["failed"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            reason = f"malformed result line: {exc!r}"
    if reason is not None:
        raise RunFailed({"side": side, "task" if job in TASKS else "workload": job,
                         "seed": seed, "trace": trace, "exit_code": proc.returncode,
                         "reason": reason,
                         "stderr_tail": proc.stderr.splitlines()[-STDERR_TAIL:]})
    return run


def _bytecode_caches(checkout: str) -> list[str]:
    """Every ``__pycache__`` directory under ``checkout/src``."""
    return sorted(os.path.join(root, "__pycache__")
                  for root, dirs, _ in os.walk(os.path.join(checkout, "src"))
                  if "__pycache__" in dirs)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def _bounds(checkout: str) -> dict[str, dict]:
    """The end-to-end metrics that ``checkout``'s BENCHMARK.json declares, by name."""
    try:
        with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh).get("end_to_end", [])
    except FileNotFoundError:
        return {}
    return {m["name"]: m for m in declared}


def _within_bound(medians: dict[str, float], metric: dict | None) -> bool | None:
    if metric is None or "bound" not in metric:
        return None
    return medians["change"] <= medians["parent"] * (1 + metric["bound"])


def summarise(runs: list[dict[str, dict]], bounds: dict[str, dict] | None = None) -> dict:
    """Per metric: both sides' medians and quartiles, the pairs won, and
    whether the change stays within the metric's entry in ``bounds``.

    Every metric the benchmark reports end to end is better when lower."""
    bounds = bounds or {}
    out = {}
    for name in runs[0]["parent"]["metrics"]:
        values = {side: [pair[side]["metrics"][name] for pair in runs] for side in SIDES}
        quart = {side: _quartiles(values[side]) for side in SIDES}
        won = sum(c < p for p, c in zip(values["parent"], values["change"]))
        lost = sum(c > p for p, c in zip(values["parent"], values["change"]))
        spread = quart["parent"][2] - quart["parent"][0]
        medians = {side: statistics.median(values[side]) for side in SIDES}
        out[name] = {
            "median": medians,
            "quartiles": quart,
            "pairs_won_by_change": won,
            "pairs_lost_by_change": lost,
            "parent_spread": spread,
            "change_over_parent": medians["change"] / medians["parent"] if medians["parent"] else None,
            "gain": 10 * won >= 9 * len(runs) and medians["parent"] - medians["change"] > spread,
            "within_bound": _within_bound(medians, bounds.get(name)),
        }
    return out


def _result(job: str, pairs: list[dict[str, dict]], first: dict, bounds: dict) -> dict:
    """The report's entry for ``job``; ``first`` is a task's first parent output."""
    if job in TASKS:
        digests = {pair[side]["outputs_sha1"] for pair in pairs for side in SIDES}
        entry = {
            "task": TASKS[job],
            "identical_outputs": len(digests) == 1,
            "stats": first.get("stats"),
            "witnesses": [w["graph6"] for w in first.get("witnesses", [])],
        }
    else:
        entry = {
            "all_correct": all(pair[side]["correct"] for pair in pairs for side in SIDES),
            **{total: {side: sum(pair[side][total] for pair in pairs) for side in SIDES}
               for total in ("attempted", "failed")},
        }
    return entry | {"summary": summarise(pairs, bounds) if pairs else {}, "runs": pairs}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", action="append", default=[],
                    help="a perfbench workload to run; repeat for several")
    ap.add_argument("--task", action="append", default=[], choices=sorted(TASKS),
                    help="a census task to run; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--traced", action="append", default=[], metavar="WORKLOAD",
                    help="after the pairs, one traced run of this workload per side; repeatable")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads, tasks = list(dict.fromkeys(args.workload)), list(dict.fromkeys(args.task))
    if not workloads and not tasks:
        ap.error("give at least one --workload or --task")
    if set(workloads + args.traced) & set(TASKS):
        ap.error("--workload and --traced take perfbench workloads, not census tasks")
    needs = ["perfbench/run.py"] * bool(workloads) + ["src/unicolor"] * bool(tasks)
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, path in dirs.items():
        for need in needs:
            if not os.path.exists(os.path.join(path, need)):
                ap.error(f"{side} checkout {path} has no {need}")
    caches = [cache for path in dict.fromkeys(dirs.values()) for cache in _bytecode_caches(path)]
    if caches:
        ap.error("cached bytecode would shorten setup_s; remove " + ", ".join(caches))
    jobs = workloads + tasks
    runs: dict[str, list[dict[str, dict]]] = {job: [] for job in jobs}
    first: dict[str, dict] = {}
    traced: dict[str, dict[str, dict]] = {}
    failed_run = None
    try:
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for job in jobs:
                pair = {}
                for position, side in enumerate(order):
                    run = _run(dirs[side], side, job, seed)
                    outputs = run.pop("outputs", None)
                    if side == "parent" and outputs is not None:
                        first.setdefault(job, outputs)
                    run["ran"] = "first" if position == 0 else "second"
                    pair[side] = run
                runs[job].append(pair)
                walls = ", ".join(
                    f"{side} {pair[side]['metrics'].get('wall_s', float('nan')):.3f} s"
                    for side in SIDES)
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) {job}: {walls}",
                      file=sys.stderr)
        for workload in dict.fromkeys(args.traced):
            traced[workload] = {side: _run(dirs[side], side, workload, TRACE_SEED, trace=True)
                                for side in SIDES}
    except RunFailed as exc:
        # keep what finished: the report below holds the completed pairs
        failed_run = exc.record
        print(f"run failed, report keeps the completed pairs: {json.dumps(failed_run)}",
              file=sys.stderr)
    bounds = _bounds(dirs["parent"])
    results = {job: _result(job, pairs, first.get(job, {}), bounds)
               for job, pairs in runs.items()}
    report = {
        "workloads": workloads,
        "tasks": tasks,
        "seconds": SECONDS,
        "pairs": args.pairs,
        "seeds": [args.seed_base + i for i in range(args.pairs)],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commits": {side: _commit(path) for side, path in dirs.items()},
        "all_correct": all(results[w]["all_correct"] for w in workloads),
        "identical_outputs": all(results[t]["identical_outputs"] for t in tasks),
        "failed_run": failed_run,
        "results": results,
        "traced": traced,
    }
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps({job: {name: s["median"] | {"gain": s["gain"],
                                                 "within_bound": s["within_bound"]}
                            for name, s in r["summary"].items()}
                      for job, r in results.items()}))
    if not report["identical_outputs"]:
        print("census outputs differ between runs", file=sys.stderr)
    return 0 if failed_run is None and report["identical_outputs"] else 1


if __name__ == "__main__":
    sys.exit(main())
