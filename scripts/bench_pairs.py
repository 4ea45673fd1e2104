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
result), and for each end-to-end metric the median and quartiles of both
sides, the pairs the change won (ties count for neither side), the parent's
quartile spread, and ``gain``: the change won at least nine tenths of the
pairs and its median beats the parent's by more than that spread.  It also
records the Python version, the CPU count and each checkout's git commit,
where there is one.  Stdlib only.
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
SIDES = ("parent", "change")


def _commit(checkout: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _run(checkout: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    began = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    run = {"seed": seed, "exit_code": proc.returncode, "elapsed_s": time.monotonic() - began}
    lines = proc.stdout.splitlines()
    if proc.returncode == 2 or not lines:  # run.py could not run: no result
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    run.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"],
               metrics={name: m["value"] for name, m in result["metrics"].items()})
    return run


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def summarise(runs: list[dict[str, dict]]) -> dict:
    """Per metric: both sides' medians and quartiles, and the pairs won.

    Every metric the benchmark reports end to end is better when lower."""
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
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, path in dirs.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            ap.error(f"{side} checkout {path} has no perfbench/run.py")
    workloads = list(dict.fromkeys(args.workload))
    runs: dict[str, list[dict[str, dict]]] = {w: [] for w in workloads}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {}
            for position, side in enumerate(order):
                pair[side] = _run(dirs[side], workload, seed)
                pair[side]["ran"] = "first" if position == 0 else "second"
            runs[workload].append(pair)
            walls = ", ".join(f"{side} {pair[side]['metrics'].get('wall_s', float('nan')):.3f} s"
                              for side in SIDES)
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) {workload}: {walls}", file=sys.stderr)
    results = {
        workload: {
            "all_correct": all(pair[side]["correct"] for pair in pairs for side in SIDES),
            "summary": summarise(pairs),
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
        "results": results,
    }
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps({workload: {name: s["median"] | {"gain": s["gain"]}
                                 for name, s in r["summary"].items()}
                      for workload, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
