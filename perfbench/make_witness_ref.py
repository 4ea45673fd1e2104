"""Regenerate witness_n8k3_ref.json, the reference for the witness-n8k3 workload.

    python3 perfbench/make_witness_ref.py

Sweeps all 12,346 isomorphism classes of order 8 (OEIS A000088) with no
structural filter and keeps those the brute-force check in ``checks.py``
calls uniquely 3-colourable.  The reference holds their count and the
multiset of (edge count, sorted degree sequence), which does not depend on
how the program labels its witnesses.
"""

from __future__ import annotations

import json
import os
import sys

import checks

A000088_8 = 12346


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(checks.HERE), "src"))
    from unicolor.census import CensusTask, generate

    classes: list[list[int]] = []
    generate(CensusTask(n=8), visit=lambda g: classes.append(list(g.adj)))
    if len(classes) != A000088_8:
        print(f"error: {len(classes)} classes of order 8, expected {A000088_8}", file=sys.stderr)
        return 1
    witnesses = [rows for rows in classes if checks.brute_uniquely_3_colourable(rows)]
    invariants = ",\n  ".join(json.dumps(x) for x in checks.invariant_multiset(witnesses))
    with open(checks.WITNESS_REF, "w", encoding="ascii") as fh:
        fh.write(f'{{"classes_swept": {len(classes)}, "count": {len(witnesses)},\n'
                 f' "invariants": [\n  {invariants}\n ]}}\n')
    print(f"{len(witnesses)} uniquely 3-colourable classes of {len(classes)}; "
          f"wrote {checks.WITNESS_REF}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
