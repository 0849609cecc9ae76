"""Regenerate ``table.json``: run every candidate op of ``grid.py`` once, keep
the valid ones, and record the sha256 of their stdout, their exit code and
their cost, grouped into the cells a seed draws from.

Run from the repository root:  python3 bench/make_table.py

An op's cost is the least of ``RUNS`` timings and its memory the largest
peak RSS; the cells pair ops by both.

The digests pin the CLI's JSON bytes at the commit the table is made from;
a benchmark run counts an op whose output differs from them as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import grid  # noqa: E402
from runner import run_op  # noqa: E402

RUNS = 3


def _valid(res) -> bool:
    """Exit 0, nothing on stderr, every check holding, and for ``hilbert``
    a good theory (ugly ones are valid input but outside the grid)."""
    return (res["exit"] == 0 and not res["stderr"] and res["all_hold"] is not False
            and res["classification"] in (None, "good"))


def main() -> int:
    table = {"workloads": {}, "ops": {}}
    for workload in grid.WORKLOADS:
        costs, rss = {}, {}
        for op in grid.CANDIDATES[workload]():
            res = run_op(op)
            if not _valid(res):
                print("drop  %s (exit %s, %s) %s" % (op, res["exit"], res["classification"],
                                                     res["stderr"].strip()[:80]))
                continue
            again = [run_op(op) for _ in range(RUNS - 1)]
            if any(r["sha256"] != res["sha256"] for r in again):
                print("drop  %s (output differs between runs)" % op)
                continue
            costs[op] = min(r["seconds"] for r in [res] + again)
            rss[op] = max(r["rss_mb"] for r in [res] + again)
            table["ops"][op] = {"sha256": res["sha256"], "exit": res["exit"],
                                "bytes": res["bytes"], "cost_s": round(costs[op], 4),
                                "rss_mb": round(rss[op], 1),
                                "cache_misses": sum(m for _, m in res["caches"].values())}
            print("%7.3f s  %s" % (costs[op], op))
        cells = grid.cells(costs, rss)
        table["workloads"][workload] = {
            "cells": cells,
            "pass_cost_s": round(sum(sum(costs[op] for op in c) / len(c) for c in cells), 3),
        }
        print("%s: %d ops, %d cells" % (workload, len(costs), len(cells)))
    with open(HERE / "table.json", "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
