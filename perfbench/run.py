"""Benchmark of unicolor: census, witness search, expansion check, partitions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every round of a workload runs in a fresh single-threaded worker process
(``worker.py``).  With ``--trace 0`` the run first starts a few set-up-only
workers, then runs whole rounds while the next one is expected to end within
``--seconds`` of the first (at least one), and reports the medians of ``wall_s``,
``setup_s`` and ``peak_rss_mib``.  With ``--trace 1`` it runs one untraced
and one traced round, reports the per-layer metrics of the traced one plus
the tracing overhead, and writes every wrapped function's calls, busy and
self time to ``perfbench/out/``.  The outputs of every round are checked by
``checks.py``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("census-tf10", "witness-n8k3", "check-nu", "partitions")
SETUP_PROBES = 3
DEADLINE_S = 170.0  # every worker must end this long after the run starts


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    # No bytecode cache: every worker compiles unicolor afresh, so setup_s
    # does not depend on whether an earlier run left a cache behind.
    env = dict(os.environ, UNICOLOR_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def _check(workload: str, res: dict, reference: dict | None) -> list[str]:
    outs = [o for o in res["outputs"] if o is not None]
    if workload == "census-tf10":
        return [p for o in outs for p in checks.check_census_tf10(o)]
    if workload == "witness-n8k3":
        return [p for o in outs for p in checks.check_witness_n8k3(o, reference)]
    if workload == "check-nu":
        return checks.check_check_nu(res["expansions"], outs)
    return checks.check_partitions(outs)


# -- per-layer metrics from a worker's trace summary ---------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tr: dict) -> dict[str, tuple[float, str]]:
    calls, busy, self_t, ctr = tr["calls"], tr["busy"], tr["self"], tr["counters"]

    def c(name):
        return calls.get(name, 0), "count"

    def b(name):
        return busy.get(name, 0.0), "s"

    out = {
        "graphs.canonical_calls": c("graphs._canonical"),
        "graphs.canonical_s": b("graphs._canonical"),
        "graphs.refine_calls": c("graphs._refine_colours"),
        "graphs.refine_s": b("graphs._refine_colours"),
        "census.extend_self_s": (self_t.get("census._extend_parent", 0.0), "s"),
        "census.parents": c("census._extend_parent"),
        "census.extensions_tried": (ctr.get("census.extensions_tried", 0), "count"),
        "census.rejected_not_canonical": (ctr.get("census.rejected_not_canonical", 0), "count"),
        "census.accept_ratio": (_ratio(ctr.get("census.accepted", 0),
                                       ctr.get("census.extensions_tried", 0)), "ratio"),
        "graphs.connectivity_calls": c("graphs.vertex_connectivity_at_least"),
        "graphs.connectivity_s": b("graphs.vertex_connectivity_at_least"),
        "graphs.maxflow_calls": c("graphs._max_vertex_flow"),
        "graphs.maxflow_s": b("graphs._max_vertex_flow"),
        "graphs.flows_per_decision": (_ratio(calls.get("graphs._max_vertex_flow", 0),
                                             calls.get("graphs.vertex_connectivity_at_least", 0)),
                                      "ratio"),
        "colouring.enumerate_calls": c("colouring._enumerate_partitions"),
        "colouring.enumerate_s": b("colouring._enumerate_partitions"),
        "colouring.leaves": (ctr.get("colouring.leaves", 0), "count"),
        "colouring.chromatic_calls": c("colouring.chromatic_number"),
        "colouring.chromatic_s": b("colouring.chromatic_number"),
        "census.battery_calls": c("census._battery"),
        "census.battery_s": b("census._battery"),
        "colouring.verify_calls": c("colouring.verify"),
        "colouring.verify_s": b("colouring.verify"),
        "graphs.clique_calls": c("graphs.clique_number"),
        "graphs.clique_s": b("graphs.clique_number"),
        "constructions.nu_s": b("constructions.nu"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(t for name, t in self_t.items() if name.partition(".")[0] == layer), "s")
    return out


# -- runs -------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    reference = checks.load_witness_reference() if workload == "witness-n8k3" else None
    rounds: list[dict] = []
    problems: list[str] = []
    metrics: dict[str, dict] = {}

    def one_round(*flags: str) -> dict:
        res = _worker(workload, seed, deadline, *flags)
        problems.extend(_check(workload, res, reference))
        rounds.append(res)
        print(f"round {len(rounds)}: {'traced ' if flags else ''}wall {res['wall_s']:.3f} s, "
              f"setup {res['setup_s']:.3f} s, rss {res['peak_rss_mib']:.1f} MiB", file=sys.stderr)
        return res

    if traced:
        plain = one_round()
        res = one_round("--trace")
        for name, (value, unit) in per_layer(res["trace"]).items():
            metrics[name] = _metric(value, unit)
        metrics["trace.wrapped_calls"] = _metric(sum(res["trace"]["calls"].values()), "count")
        metrics["trace.overhead"] = _metric(res["wall_s"] / plain["wall_s"] - 1, "ratio")
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"untraced_wall_s": plain["wall_s"], "traced_wall_s": res["wall_s"],
                       **res["trace"]}, fh, indent=1, sort_keys=True)
        print(f"full trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
        if res["trace"]["absent"]:
            print("absent from the program: " + ", ".join(res["trace"]["absent"]), file=sys.stderr)
    else:
        setups = [_worker(workload, seed, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        began = time.monotonic()
        while True:
            one_round()
            now = time.monotonic()
            per_round = (now - began) / len(rounds)
            if now - began + per_round > seconds or now + 1.5 * per_round > deadline:
                break
        setups += [r["setup_s"] for r in rounds]
        metrics["wall_s"] = _metric(statistics.median(r["wall_s"] for r in rounds), "s")
        metrics["setup_s"] = _metric(statistics.median(setups), "s")
        metrics["peak_rss_mib"] = _metric(
            statistics.median(r["peak_rss_mib"] for r in rounds), "MiB")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "unicolor", "__init__.py")):
        print(f"error: no unicolor sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
