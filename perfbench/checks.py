"""Independent checks of the workloads' outputs.

Nothing here imports unicolor: graphs travel as graph6 strings or bitmask
rows, and every expected value comes from brute force, a closed form, a
published count or networkx.  The workers and the reference script share
the small graph helpers at the top.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import comb, factorial

HERE = os.path.dirname(os.path.abspath(__file__))
WITNESS_REF = os.path.join(HERE, "witness_n8k3_ref.json")

A006785_10 = 12172  # triangle-free graphs on 10 unlabelled vertices (OEIS)


# -- graphs as bitmask rows ----------------------------------------------------


def rows_from_edges(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def edges_of(rows: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(rows)) for v in range(u + 1, len(rows)) if rows[u] >> v & 1]


def g6_encode(rows: list[int]) -> str:
    n = len(rows)
    if n > 62:
        raise ValueError("short graph6 form only")
    bits = [rows[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for p in range(0, len(bits), 6):
        out.append(chr(63 + int("".join(map(str, bits[p:p + 6])), 2)))
    return "".join(out)


def g6_decode(text: str) -> list[int]:
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        x = ord(ch) - 63
        bits.extend(x >> s & 1 for s in range(5, -1, -1))
    rows = [0] * n
    p = 0
    for j in range(1, n):
        for i in range(j):
            if bits[p]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            p += 1
    return rows


def relabel(rows: list[int], rng: random.Random) -> list[int]:
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    return rows_from_edges(n, [(perm[u], perm[v]) for u, v in edges_of(rows)])


def cycle(n: int) -> list[int]:
    return rows_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def wheel(rim: int) -> list[int]:
    """Cycle on 0..rim-1 plus a hub at index rim joined to every rim vertex."""
    edges = [(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)]
    return rows_from_edges(rim + 1, edges)


def mycielski(rows: list[int]) -> list[int]:
    """Mycielskian: shadows n..2n-1 copy each vertex's neighbourhood, apex 2n."""
    n = len(rows)
    edges = edges_of(rows)
    edges += [(u, n + v) for u, v in edges_of(rows)] + [(v, n + u) for u, v in edges_of(rows)]
    edges += [(n + i, 2 * n) for i in range(n)]
    return rows_from_edges(2 * n + 1, edges)


def mycielski_graph(order_index: int) -> list[int]:
    """M_i in the usual numbering: M2 = K2, M3 = C5, ...; chi(M_i) = i."""
    rows = rows_from_edges(2, [(0, 1)])
    for _ in range(order_index - 2):
        rows = mycielski(rows)
    return rows


# -- closed forms ----------------------------------------------------------------


def cycle_polynomial(n: int, x: int) -> int:
    return (x - 1) ** n + (-1) ** n * (x - 1)


def wheel_polynomial(rim: int, x: int) -> int:
    return x * cycle_polynomial(rim, x - 1)


def partitions_from_polynomial(poly, k: int) -> int:
    """Partitions into at most k non-empty independent classes.

    With P(x) = sum_j a_j x(x-1)...(x-j+1), a_j counts partitions into
    exactly j classes; inverting at x = 0..j gives
    a_j = sum_i (-1)^(j-i) C(j, i) P(i) / j!.
    """
    total = 0
    for j in range(1, k + 1):
        s = sum((-1) ** (j - i) * comb(j, i) * poly(i) for i in range(j + 1))
        total += s // factorial(j)
    return total


# -- brute force -----------------------------------------------------------------


def _rgs_class_masks(n: int, k: int) -> list[tuple[int, ...]]:
    """Every set partition of range(n) into at most k blocks, as block masks."""
    out = []
    labels = [0] * n

    def rec(i: int, top: int) -> None:
        if i == n:
            masks = [0] * (top + 1)
            for v, c in enumerate(labels):
                masks[c] |= 1 << v
            out.append(tuple(masks))
            return
        for c in range(min(top + 2, k)):
            labels[i] = c
            rec(i + 1, max(top, c))

    if n:
        rec(1, 0)
    return out


_RGS_CACHE: dict[tuple[int, int], list[tuple[int, ...]]] = {}


def brute_partition_count(rows: list[int], k: int) -> int:
    """Partitions of V into at most k independent classes, by restricted growth."""
    n = len(rows)
    key = (n, k)
    if key not in _RGS_CACHE:
        _RGS_CACHE[key] = _rgs_class_masks(n, k)
    indep = [True] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        rest = m ^ low
        indep[m] = indep[rest] and not rows[low.bit_length() - 1] & rest
    return sum(1 for masks in _RGS_CACHE[key] if all(indep[b] for b in masks))


def brute_uniquely_3_colourable(rows: list[int]) -> bool:
    return brute_partition_count(rows, 3) == 1 and brute_partition_count(rows, 2) == 0


def is_triangle_free(rows: list[int]) -> bool:
    return all(not rows[u] & rows[v] for u, v in edges_of(rows))


def invariant_key(rows: list[int]) -> list:
    """Labelling-invariant key: (edge count, sorted degree sequence)."""
    degrees = sorted(r.bit_count() for r in rows)
    return [sum(degrees) // 2, degrees]


def invariant_multiset(graphs: list[list[int]]) -> list:
    counts: dict[str, int] = {}
    for rows in graphs:
        key = json.dumps(invariant_key(rows))
        counts[key] = counts.get(key, 0) + 1
    return sorted([json.loads(k), c] for k, c in counts.items())


# -- per-workload checks -----------------------------------------------------------
# Each takes the outputs of the operations that did not fail and returns a
# list of problems; an empty list means they are correct.


def check_census_tf10(out: dict) -> list[str]:
    problems: list[str] = []
    graphs = out["graphs"]
    if out["visited"] != A006785_10 or len(graphs) != A006785_10:
        problems.append(f"{out['visited']} classes visited, OEIS A006785(10) = {A006785_10}")
    seen = set()
    for rows in graphs:
        if len(rows) != 10:
            problems.append(f"visited graph of order {len(rows)}")
            break
        if not is_triangle_free(rows):
            problems.append(f"visited graph {g6_encode(rows)} has a triangle")
            break
        seen.add(g6_encode(rows))
    if len(seen) != len(graphs):
        problems.append(f"{len(graphs) - len(seen)} repeated graph6 strings")
    return problems


def load_witness_reference() -> dict:
    with open(WITNESS_REF, encoding="ascii") as fh:
        return json.load(fh)


def check_witness_n8k3(out: dict, reference: dict) -> list[str]:
    problems = []
    if out["exit_code"] != 0:
        problems.append(f"census exited with {out['exit_code']}")
    graphs = []
    for row in out["witnesses"]:
        rows = g6_decode(row["graph6"])
        graphs.append(rows)
        if row["n"] != 8 or row["k"] != 3 or row["edges"] != len(edges_of(rows)):
            problems.append(f"witness {row['graph6']} reports n/k/edges wrongly")
        if row["report"]["uniquely_colourable"] != "yes":
            problems.append(f"witness {row['graph6']} has verdict {row['report']['uniquely_colourable']}")
        if not brute_uniquely_3_colourable(rows):
            problems.append(f"witness {row['graph6']} fails the brute-force check")
    if len({row["graph6"] for row in out["witnesses"]}) != len(graphs):
        problems.append("repeated witness graph6 strings")
    if len(graphs) != reference["count"]:
        problems.append(f"{len(graphs)} witnesses, reference has {reference['count']}")
    if invariant_multiset(graphs) != reference["invariants"]:
        problems.append("witness invariants differ from the reference multiset")
    return problems


_KAPPA_CACHE: dict[str, int] = {}


def node_connectivity(graph6: str) -> int:
    """Vertex connectivity by networkx; cached, since rounds repeat inputs."""
    if graph6 not in _KAPPA_CACHE:
        import networkx as nx

        rows = g6_decode(graph6)
        g = nx.Graph()
        g.add_nodes_from(range(len(rows)))
        g.add_edges_from(edges_of(rows))
        _KAPPA_CACHE[graph6] = nx.node_connectivity(g)
    return _KAPPA_CACHE[graph6]


def nu_order_and_size(n: int, m: int, k: int, times: int) -> tuple[int, int, int]:
    """Order, edge count and class count after ``times`` expansions of a
    k-coloured seed with n vertices and m edges: n -> (k+1)n and
    m -> (3k+1)m + (k-1)n per step."""
    for _ in range(times):
        n, m, k = (k + 1) * n, (3 * k + 1) * m + (k - 1) * n, k + 1
    return n, m, k


def check_check_nu(expansions: list[dict], outputs: list[dict]) -> list[str]:
    problems = []
    for nu_out in expansions:
        n, m, k = nu_order_and_size(*nu_out["seed_nmk"], nu_out["iterations"])
        rows = g6_decode(nu_out["graph6"])
        col = nu_out["colouring"]
        if (len(rows), len(edges_of(rows)), nu_out["k"]) != (n, m, k):
            problems.append(f"nu {nu_out['name']}: (n, m, k) differs from the closed form")
        if any(col[u] == col[v] for u, v in edges_of(rows)) or len(set(col)) != k:
            problems.append(f"nu {nu_out['name']}: colouring is not a proper {k}-colouring")
    for job in outputs:
        rep, k = job["report"], job["k"]
        n, m, k_out = nu_order_and_size(*job["seed_nmk"], job["iterations"])
        want_yes = k == k_out
        label = f"check {job['name']} at k={k}"
        if job["exit_code"] != (0 if want_yes else 1):
            problems.append(f"{label}: exit code {job['exit_code']}")
        if rep["uniquely_colourable"] != ("yes" if want_yes else "no"):
            problems.append(f"{label}: verdict {rep['uniquely_colourable']}")
        if want_yes and rep["partition_count"] != 1:
            problems.append(f"{label}: partition_count {rep['partition_count']}")
        if rep["connectivity_ok"] != (node_connectivity(job["graph6"]) >= k - 1):
            problems.append(f"{label}: connectivity_ok disagrees with networkx")
        if rep["xu_slack"] != m - ((k - 1) * n - k * (k - 1) // 2):
            problems.append(f"{label}: xu_slack {rep['xu_slack']}")
    return problems


def check_partitions(outputs: list[dict]) -> list[str]:
    problems = []
    for job in outputs:
        kind, size, k = job["kind"], job["size"], job.get("k")
        label = f"{kind} {size}"
        if kind == "count-cycle":
            want = partitions_from_polynomial(lambda x: cycle_polynomial(size, x), k)
        elif kind == "count-wheel":
            want = partitions_from_polynomial(lambda x: wheel_polynomial(size, x), k)
        elif kind == "chi-cr-cycle":
            want = str(Fraction(2 * size, size - 1))  # chi = 3 and sigma = 1
        elif kind == "chromatic-mycielski":
            want = size  # Mycielski: chi(M_i) = i
        else:
            problems.append(f"unknown job {kind}")
            continue
        if job["result"] != want:
            problems.append(f"{label}: got {job['result']}, expected {want}")
    return problems
