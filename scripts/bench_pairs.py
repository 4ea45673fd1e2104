"""Alternating parent/change pairs of benchmark workloads, summarised as JSON.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload census-tf10 \
        --workload partitions --pairs 10 --seed-base 2001 --out BENCH.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  ``--workload``
may be given more than once.  Pair i runs, for each workload W in turn, each
checkout's own ``perfbench/run.py --workload W --seed (seed-base + i)
--seconds 25 --trace 0`` in that checkout, the parent first in even pairs and
the change first in odd ones, so a drift in the host's speed falls on both
sides alike.  Nothing under ``perfbench/`` is imported: each run is a separate
process whose last stdout line is its result.

The output file holds, per workload, every run (seed, order, exit code,
result), each side's total of attempted and of failed operations, and for
each end-to-end metric the median and quartiles of both sides, the pairs the
change won (ties count for neither side), the parent's quartile spread,
``gain``: the change won at least nine tenths of the pairs and its median
beats the parent's by more than that spread, and ``within_bound``: the
change's median is no worse than the parent's by more than the metric's
``bound`` in the parent checkout's ``BENCHMARK.json``, read as a fraction of
the parent's median (null where the parent declares no bound).  It also
records the Python version, the CPU count and each checkout's git commit,
where there is one.  Each ``--traced`` workload then runs once more per side
with ``--trace 1`` and seed 7; those runs, with their per-layer metrics, are
kept under ``traced``.

A ``__pycache__`` directory under either checkout's ``src/`` stops the script
before the first pair with exit code 2, naming every such directory and
deleting none: the workers write no bytecode but still read it, so a cache on
one side only would shorten that side's ``setup_s``.

A run that prints no result line, or a last line that is not a result, ends
the series: the output file then holds the pairs completed before it and,
under ``failed_run``, its side, workload, seed, exit code and the tail of its
stderr, and the script exits 1.  Stdlib only.
"""

from __future__ import annotations

import argparse
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


def _run(checkout: str, side: str, workload: str, seed: int, trace: bool = False) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(int(trace))]
    began = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    run = {"seed": seed, "exit_code": proc.returncode, "elapsed_s": time.monotonic() - began}
    lines = proc.stdout.splitlines()
    reason = None
    if proc.returncode == 2 or not lines:  # run.py could not run: no result
        reason = "no result line"
    else:
        try:
            result = json.loads(lines[-1])
            run.update(correct=result["correct"], attempted=result["attempted"],
                       failed=result["failed"],
                       metrics={name: m["value"] for name, m in result["metrics"].items()})
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            reason = f"malformed result line: {exc!r}"
    if reason is not None:
        raise RunFailed({"side": side, "workload": workload, "seed": seed, "trace": trace,
                         "exit_code": proc.returncode, "reason": reason,
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


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True, action="append",
                    help="a workload to run; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--traced", action="append", default=[], metavar="WORKLOAD",
                    help="after the pairs, one traced run of this workload per side; repeatable")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, path in dirs.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            ap.error(f"{side} checkout {path} has no perfbench/run.py")
    caches = [cache for path in dirs.values() for cache in _bytecode_caches(path)]
    if caches:
        ap.error("cached bytecode would shorten setup_s; remove " + ", ".join(caches))
    workloads = list(dict.fromkeys(args.workload))
    runs: dict[str, list[dict[str, dict]]] = {w: [] for w in workloads}
    traced: dict[str, dict[str, dict]] = {}
    failed_run = None
    try:
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {}
                for position, side in enumerate(order):
                    pair[side] = _run(dirs[side], side, workload, seed)
                    pair[side]["ran"] = "first" if position == 0 else "second"
                runs[workload].append(pair)
                walls = ", ".join(
                    f"{side} {pair[side]['metrics'].get('wall_s', float('nan')):.3f} s"
                    for side in SIDES)
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) {workload}: {walls}",
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
    results = {
        workload: {
            "all_correct": all(pair[side]["correct"] for pair in pairs for side in SIDES),
            **{total: {side: sum(pair[side][total] for pair in pairs) for side in SIDES}
               for total in ("attempted", "failed")},
            "summary": summarise(pairs, bounds) if pairs else {},
            "runs": pairs,
        }
        for workload, pairs in runs.items()
    }
    report = {
        "workloads": workloads,
        "seconds": SECONDS,
        "pairs": args.pairs,
        "seeds": [args.seed_base + i for i in range(args.pairs)],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commits": {side: _commit(path) for side, path in dirs.items()},
        "all_correct": all(r["all_correct"] for r in results.values()),
        "failed_run": failed_run,
        "results": results,
        "traced": traced,
    }
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps({workload: {name: s["median"] | {"gain": s["gain"],
                                                      "within_bound": s["within_bound"]}
                                 for name, s in r["summary"].items()}
                      for workload, r in results.items()}))
    return 0 if failed_run is None else 1


if __name__ == "__main__":
    sys.exit(main())
