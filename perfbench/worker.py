"""One round of one workload, in a fresh single-threaded process.

Usage: python3 perfbench/worker.py WORKLOAD SEED [--trace] [--setup-only]

Imports unicolor from the checkout's ``src``, builds the inputs (timed as
set-up), runs the timed section once and prints one JSON object: set-up
and timed seconds, peak resident memory, the operations attempted and
failed, the raw outputs for the checks in ``checks.py`` and, with
``--trace``, the call trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import time
import traceback

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# (catalog name, iterations, (n, m, k) of the catalog graph) for check-nu.
NU_INPUTS = (
    ("figure1a", 1, (12, 22, 3)),
    ("figure1b", 1, (12, 23, 3)),
    ("figure1c", 1, (12, 23, 3)),
    ("K3", 2, (3, 3, 3)),
)

# (job kind, size, k) for the partitions workload; sizes are chosen so that
# each job takes about a second or more.
PARTITION_JOBS = (
    ("count-cycle", 16, 4),
    ("count-wheel", 15, 5),
    ("chi-cr-cycle", 21, None),
    ("chromatic-mycielski", 6, None),
)


def _import_unicolor():
    sys.path.insert(0, SRC)
    import unicolor
    import unicolor.cli

    if not os.path.abspath(unicolor.__file__).startswith(SRC + os.sep):
        raise ImportError(f"unicolor was imported from {unicolor.__file__}, not from {SRC}")
    return unicolor


def _peak_rss_mib() -> float:
    """This process's peak resident memory, from Linux's VmHWM.

    VmHWM starts afresh at exec; ru_maxrss does not, so it would report the
    parent's memory at fork when that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _cli(unicolor, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = unicolor.cli.main(argv)
    return code, out.getvalue()


# -- workloads: setup(unicolor, seed) -> (ops, setup outputs).  Each op runs
# one timed operation and returns a thunk that makes its output JSON-ready
# after the clock stops.  Everything an op needs is built in setup.


def setup_census_tf10(unicolor, seed):
    task = unicolor.census.CensusTask(n=10, triangle_free=True)

    def census():
        graphs = []
        result = unicolor.census.generate(task, visit=graphs.append)
        return lambda: {"visited": result.stats.get("visited", 0),
                        "graphs": [list(g.adj) for g in graphs]}

    return [census], {}


def setup_witness_n8k3(unicolor, seed):
    argv = ["census", "--n", "8", "--k", "3", "--threads", "1"]

    def census():
        code, out = _cli(unicolor, argv)
        return lambda: {"exit_code": code,
                        "witnesses": [json.loads(line) for line in out.splitlines() if line.strip()]}

    return [census], {}


def setup_check_nu(unicolor, seed):
    rng = random.Random(seed)
    expansions = []
    ops = []
    for name, iterations, seed_nmk in NU_INPUTS:
        code, out = _cli(unicolor, ["nu", "--catalog", name, "--iterations", str(iterations)])
        if code != 0:
            raise RuntimeError(f"nu --catalog {name} exited with {code}")
        row = json.loads(out)
        expansions.append({"name": name, "iterations": iterations, "seed_nmk": seed_nmk,
                           "graph6": row["graph6"], "colouring": row["colouring"], "k": row["k"]})
        g6 = checks.g6_encode(checks.relabel(checks.g6_decode(row["graph6"]), rng))
        for k in (row["k"], row["k"] + 1):
            ops.append(_check_op(unicolor, name, iterations, seed_nmk, g6, k))
    return ops, {"expansions": expansions}


def _check_op(unicolor, name, iterations, seed_nmk, g6, k):
    argv = ["check", g6, "--k", str(k)]

    def check():
        code, out = _cli(unicolor, argv)
        return lambda: {"name": name, "iterations": iterations, "seed_nmk": seed_nmk, "graph6": g6,
                        "k": k, "exit_code": code, "report": json.loads(out)}

    return check


PARTITION_INPUTS = {
    "count-cycle": checks.cycle,
    "count-wheel": checks.wheel,
    "chi-cr-cycle": checks.cycle,
    "chromatic-mycielski": checks.mycielski_graph,
}


def setup_partitions(unicolor, seed):
    rng = random.Random(seed)
    ops = []
    for kind, size, k in PARTITION_JOBS:
        rows = checks.relabel(PARTITION_INPUTS[kind](size), rng)
        g = unicolor.graphs.Graph(len(rows), checks.edges_of(rows))
        ops.append(_partition_op(unicolor.colouring, kind, size, k, g))
    return ops, {}


def _partition_op(colouring, kind, size, k, g):
    def job():
        if kind.startswith("count-"):
            result = colouring.count_colour_partitions(g, k, cap=1 << 62)
        elif kind == "chi-cr-cycle":
            result = str(colouring.chi_cr(g))
        else:
            result = colouring.chromatic_number(g)
        return lambda: {"kind": kind, "size": size, "k": k, "result": result}

    return job


SETUPS = {
    "census-tf10": setup_census_tf10,
    "witness-n8k3": setup_witness_n8k3,
    "check-nu": setup_check_nu,
    "partitions": setup_partitions,
}


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    traced = "--trace" in argv[2:]
    setup_only = "--setup-only" in argv[2:]
    t0 = time.perf_counter()
    unicolor = _import_unicolor()
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops, setup_outputs = SETUPS[workload](unicolor, seed)
    t1 = time.perf_counter()
    result = {"workload": workload, "setup_s": t1 - t0, **setup_outputs}
    if setup_only:
        print(json.dumps(result))
        return 0
    finished = []
    for op in ops:
        try:
            finished.append(op())
        except Exception:
            traceback.print_exc()
            finished.append(None)
    t2 = time.perf_counter()
    result["wall_s"] = t2 - t1
    result["peak_rss_mib"] = _peak_rss_mib()
    result["attempted"] = len(ops)
    result["failed"] = sum(1 for f in finished if f is None)
    result["outputs"] = [None if f is None else f() for f in finished]
    if tracer is not None:
        result["trace"] = tracing.summary(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
