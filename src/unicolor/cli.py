"""Command line interface.

Four subcommands: ``check`` (exact unique-colourability verification),
``nu`` (the expansion construction), ``census`` (isomorph-free witness
search), ``sample`` (sparse random k-partite graphs with short-cycle
surgery).  Results go to stdout as JSON lines; progress and warnings go to
stderr.  Exit codes: 0 success, 1 a checked graph failed verification,
2 bad input, 3 a budget ran out before the answer was decided (for
``check``: before the verdict or the connectivity test), 141 stdout was
closed before all output was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .budget import Budget
from .colouring import Colouring, _decide, _report, chromatic_number, find_colour_partition
from .graphs import (
    Graph,
    emit_graph6,
    girth,
    parse_graph6,
    to_dot,
)

# census and constructions are imported by the commands that use them, so
# that a command loads only the modules it runs.
if TYPE_CHECKING:
    from .constructions import ColouredGraph

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


class InputError(Exception):
    """Bad command line input; message goes to stderr, exit code 2."""


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def _parse_edge_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise InputError("edge window must look like LO:HI")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise InputError(f"bad edge window {text!r}") from None


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse {text!r} as a fraction") from None


def _budget_from(args: argparse.Namespace) -> Budget | None:
    if args.budget_nodes is None and args.budget_seconds is None:
        return None
    return Budget(args.budget_nodes, args.budget_seconds)


def _catalog_entry(name: str) -> ColouredGraph:
    from .constructions import builtin_catalog
    catalog = builtin_catalog()
    if name not in catalog:
        known = ", ".join(sorted(catalog))
        raise InputError(f"unknown catalog graph {name!r}; available: {known}")
    return catalog[name]


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    lines = [line.strip() for line in raw.splitlines() if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise InputError(f"{path} holds no usable lines")
    return lines


def _one_source(args: argparse.Namespace) -> None:
    """Demand exactly one graph source: positional, --input or --catalog."""
    if sum(1 for s in (args.graph6, args.input, args.catalog) if s) != 1:
        raise InputError("supply exactly one of: a graph6 argument, --input, --catalog")


def _gather_graphs(args: argparse.Namespace) -> list[tuple[str, Graph]]:
    _one_source(args)
    if args.graph6:
        return [(args.graph6, parse_graph6(args.graph6))]
    if args.catalog:
        entry = _catalog_entry(args.catalog)
        return [(args.catalog, entry.graph)]
    return [(f"{args.input}:{i + 1}", parse_graph6(line)) for i, line in enumerate(_read_lines(args.input))]


def _dot_path(base: str, index: int, total: int) -> str:
    if total == 1:
        return base
    stem, dot, ext = base.rpartition(".")
    if not dot:
        return f"{base}_{index + 1}"
    return f"{stem}_{index + 1}.{ext}"


def _write_dot(path: str, g: Graph, classes: list[int] | None, name: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(to_dot(g, classes, name=name))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


# -- check -------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    graphs = _gather_graphs(args)
    worst = EXIT_OK
    for i, (label, g) in enumerate(graphs):
        budget = _budget_from(args)  # fresh allowance per graph
        decision = _decide(g, args.k, budget=budget)
        report = _report(g, args.k, decision, budget)
        row = {"name": label}
        row.update(report.to_json_dict())
        _emit(row)
        if args.dot:
            colouring = decision.colouring
            classes = list(colouring.assignment) if colouring is not None else None
            _write_dot(_dot_path(args.dot, i, len(graphs)), g, classes, name=f"check_{i}")
        if report.uniquely_colourable == "no":
            worst = max(worst, EXIT_FAILED)
        if report.uniquely_colourable == "unknown-capped" or report.connectivity_ok is None:
            worst = max(worst, EXIT_BUDGET)
    return worst


# -- nu ----------------------------------------------------------------------


def _coloured_inputs(args: argparse.Namespace) -> list[tuple[str, ColouredGraph]]:
    from .constructions import ColouredGraph, ConstructionError
    _one_source(args)
    if args.catalog:
        return [(args.catalog, _catalog_entry(args.catalog))]
    if args.graph6:
        g = parse_graph6(args.graph6)
        k = chromatic_number(g) if args.k is None else args.k
        colouring = find_colour_partition(g, k)
        if colouring is None:
            raise InputError(f"graph is not {k}-colourable")
        return [(args.graph6, ColouredGraph(g, colouring))]
    out = []
    for i, line in enumerate(_read_lines(args.input)):
        try:
            obj = json.loads(line)
            if not isinstance(obj["graph6"], str):
                raise TypeError("graph6 must be a string")
            g = parse_graph6(obj["graph6"])
            colouring = Colouring(obj["colouring"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise InputError(f"{args.input}:{i + 1}: expected "
                             '{"graph6": ..., "colouring": [...]} ' f"({exc})") from None
        try:
            out.append((f"{args.input}:{i + 1}", ColouredGraph(g, colouring)))
        except ConstructionError as exc:
            raise InputError(f"{args.input}:{i + 1}: {exc}") from None
    return out


def cmd_nu(args: argparse.Namespace) -> int:
    from .constructions import iterate_nu
    inputs = _coloured_inputs(args)
    for i, (label, seed) in enumerate(inputs):
        result = iterate_nu(seed, args.iterations)
        _emit(
            {
                "name": label,
                "input_graph6": emit_graph6(seed.graph),
                "input_k": seed.k,
                "iterations": args.iterations,
                "graph6": emit_graph6(result.graph),
                "n": result.graph.n,
                "m": result.graph.edge_count(),
                "k": result.k,
                "colouring": list(result.colouring.assignment),
            }
        )
        if args.dot:
            _write_dot(
                _dot_path(args.dot, i, len(inputs)),
                result.graph,
                list(result.colouring.assignment),
                name=f"nu_{i}",
            )
    return EXIT_OK


# -- census ------------------------------------------------------------------


def _write_checkpoint(path: str, token: dict) -> None:
    """Write the token beside ``path``, then rename it over ``path``, so that
    a crash during the write leaves the previous token intact."""
    from .census import checkpoint_dumps
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(checkpoint_dumps(token))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise InputError(f"cannot write checkpoint {path}: {exc}") from None


def _check_checkpoint_path(path: str) -> None:
    """Refuse a checkpoint path that could not be written, before any search
    is spent on a run whose token would then be lost."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"directory {parent} does not exist"
    elif not os.access(parent, os.W_OK):
        problem = f"directory {parent} is not writable"
    else:
        return
    raise InputError(f"cannot write checkpoint {path}: {problem}")


# the census flags that set the task or its budget; the parser adds each to
# the arguments only when it is given, so CensusTask alone holds the defaults
_TASK_FLAGS = ("n", "k", "edges", "triangle_free", "connected", "min_degree", "balanced",
               "budget_nodes", "budget_seconds")


def cmd_census(args: argparse.Namespace) -> int:
    from .census import CensusTask, checkpoint_loads, find_unique_k_witnesses
    given = {name: getattr(args, name) for name in _TASK_FLAGS if hasattr(args, name)}
    if args.resume and given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise InputError(f"--resume takes the task and budget from the checkpoint; drop {flags}")
    if args.checkpoint:
        _check_checkpoint_path(args.checkpoint)
    if args.resume:
        if not args.checkpoint:
            raise InputError("--resume needs --checkpoint PATH")
        try:
            with open(args.checkpoint, "r", encoding="ascii") as fh:
                token = checkpoint_loads(fh.read())
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot load checkpoint: {exc}") from None
        task = CensusTask.from_dict(token["task"])
    else:
        if "n" not in given:
            raise InputError("census needs --n")
        if "edges" in given:
            given["edge_window"] = _parse_edge_window(given.pop("edges"))
        token = None
        task = CensusTask(**given)
    result = find_unique_k_witnesses(task, threads=args.threads, checkpoint=token)
    if token is not None:  # logged once the library has accepted the resume
        _log(f"resuming census from {args.checkpoint} ({len(token['pending'])} pending branches)")
    for w in result.witnesses:
        _emit(w.to_json_dict())
    _log("census stats: " + json.dumps(dict(sorted(result.stats.items()))))
    if not result.complete:
        if args.checkpoint:
            _write_checkpoint(args.checkpoint, result.checkpoint)
            _log(f"budget exhausted; checkpoint written to {args.checkpoint}")
        else:
            _log("budget exhausted; rerun with --checkpoint PATH to make the run resumable")
        return EXIT_BUDGET
    return EXIT_OK


# -- sample ------------------------------------------------------------------


def cmd_sample(args: argparse.Namespace) -> int:
    from .constructions import SamplerConfig, bollobas_sauer_sample, remove_short_cycles
    cfg = SamplerConfig(
        k=args.k,
        n=args.n,
        epsilon=_parse_fraction(args.eps),
        girth_target=args.girth,
        seed=args.seed,
    )
    if not cfg.epsilon_in_safe_range:
        _log(
            f"warning: eps = {cfg.epsilon} is outside (0, 1/{4 * cfg.girth_target}); "
            "the sparse regime guarantee does not apply"
        )
    coloured = bollobas_sauer_sample(cfg)
    cleaned, removed = (
        remove_short_cycles(coloured.graph, cfg.girth_target)
        if cfg.girth_target >= 3
        else (coloured.graph, 0)
    )
    gi = girth(cleaned)
    _emit(
        {
            "graph6": emit_graph6(cleaned),
            "n": cleaned.n,
            "m": cleaned.edge_count(),
            "k": cfg.k,
            "eps": str(cfg.epsilon),
            "eps_safe": cfg.epsilon_in_safe_range,
            "girth_target": cfg.girth_target,
            "girth": None if gi == math.inf else gi,
            "edges_removed": removed,
            "seed": cfg.seed,
        }
    )
    if args.dot:
        _write_dot(args.dot, cleaned, list(coloured.colouring.assignment), name="sample")
    return EXIT_OK


# -- wiring ------------------------------------------------------------------


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph6", nargs="?", help="graph in graph6 form")
    p.add_argument("--input", metavar="FILE", help="file with one input per line")
    p.add_argument("--catalog", metavar="NAME", help="builtin graph by name")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, metavar="N", help="search-node allowance")
    p.add_argument("--budget-seconds", type=float, metavar="S", help="wall-clock allowance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicolor",
        description="Exact tools for uniquely k-colourable graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify unique k-colourability exactly")
    _add_graph_source(p)
    p.add_argument("--k", type=int, required=True, help="number of colour classes")
    _add_budget(p)
    p.add_argument("--dot", metavar="PATH", help="write a coloured DOT drawing")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("nu", help="run the uniqueness-preserving expansion")
    _add_graph_source(p)
    p.add_argument("--k", type=int, help="colour the bare graph with this many classes")
    p.add_argument("--iterations", type=int, default=1, help="how many expansion rounds")
    p.add_argument("--dot", metavar="PATH", help="write a coloured DOT drawing of the result")
    p.set_defaults(func=cmd_nu)

    # flags without a default of their own are absent unless given: see _TASK_FLAGS
    p = sub.add_parser("census", help="search all graphs of an order for witnesses",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--n", type=int, help="graph order")
    p.add_argument("--k", type=int, help="colour classes (default 3)")
    p.add_argument("--edges", metavar="LO:HI", help="edge-count window")
    p.add_argument("--triangle-free", action="store_true")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--min-degree", type=int, metavar="D", help="degree floor (default 0)")
    p.add_argument("--balanced", action="store_true", help="demand equal class sizes")
    _add_budget(p)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per CPU, each under the budget (default 1)")
    p.add_argument("--checkpoint", metavar="PATH", help="where to store/load the resume token")
    p.add_argument("--resume", action="store_true", help="continue from --checkpoint")
    p.set_defaults(func=cmd_census, checkpoint=None, resume=False)

    p = sub.add_parser("sample", help="sparse random k-partite graph with girth surgery")
    p.add_argument("--k", type=int, required=True, help="number of parts")
    p.add_argument("--n", type=int, required=True, help="vertices per part")
    p.add_argument("--eps", required=True, metavar="FRAC", help="density exponent, e.g. 1/20")
    p.add_argument("--girth", type=int, default=4, help="girth target (default 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", metavar="PATH", help="write a DOT drawing coloured by part")
    p.set_defaults(func=cmd_sample)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that main uses, built once per process on first use;
    parsing does not change it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone; see "Note on SIGPIPE" in the
        # documentation of Python's signal module
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (InputError, ValueError) as exc:  # the library's input errors are ValueErrors
        _log(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
