"""The quiver-fmo benchmark: seeded CLI workloads in a closed loop with one
client, each op a ``quiver-fmo ... --json`` run in a fresh process state.

    python3 bench/run.py --workload termwise --seed 1 --seconds 30 --trace 0

``--trace 0`` is the timed run: it prints the end-to-end metrics.  ``--trace 1``
replays the same op list once untraced and then with the wrapper tracer of
``tracer.py``, and prints the per-layer metrics.  Every op's output is checked
against the sha256 table of ``table.json``; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_LAUNCHES = 11
MIN_PASSES = 2
HARD_STOP_S = 130.0  # no new pass after this, whatever the pass minimum
P90_MIN_SAMPLES = 100


def fail(msg: str) -> int:
    print("bench: %s" % msg, file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# run description


def revision() -> dict:
    """Git revision (read from .git when the checkout has one) and a digest
    of the package source, which identifies the code when it has none."""
    rev = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                rev = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                if packed.is_file():
                    for line in packed.read_text().splitlines():
                        if line.endswith(" " + ref[5:]):
                            rev = line.split()[0]
        else:
            rev = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_revision": rev, "source_sha256": digest.hexdigest()}


def draw(table: dict, workload: str, seed: int) -> list:
    """One op per cell, in a seeded order."""
    rng = random.Random("%s:%d" % (workload, seed))
    ops = [rng.choice(cell) for cell in table["workloads"][workload]["cells"]]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# measurement


def measure_setup(launches: int) -> list:
    """Seconds from launching a fresh interpreter until ``quiver_fmo.cli`` is
    imported, after one unmeasured launch that writes the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import quiver_fmo.cli, sys; sys.stdout.write('.'); sys.stdout.flush()"
    times = []
    for i in range(launches + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                env=env, cwd=str(ROOT))
        try:
            ready = proc.stdout.read(1)
            t1 = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait()
        if ready != b"." or proc.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import quiver_fmo.cli")
        if i:
            times.append(t1 - t0)
    return times


def check(op: str, res: dict, table: dict) -> str | None:
    """Why the op failed, or None: unexpected exit code, stderr output, a
    digest mismatch, a verification that does not hold, or a timeout."""
    want = table["ops"][op]
    if res["exit"] is None:
        return res["stderr"]
    if res["exit"] != want["exit"]:
        return "exit %s, expected %s" % (res["exit"], want["exit"])
    if res["stderr"]:
        return "stderr: %s" % res["stderr"].strip()[:200]
    if res["all_hold"] is False:
        return "all_hold false"
    if res["sha256"] != want["sha256"]:
        return "stdout digest differs from the table"
    return None


def run_passes(ops, seconds, min_passes, table, tracer=None):
    """Whole passes over the op list while another pass ends nearer to
    ``seconds`` than stopping now (at least ``min_passes``).  Returns one
    result list per pass."""
    from runner import run_op

    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = []
        for op in ops:
            res = run_op(op, tracer=tracer)
            res["op"] = op
            res["why_failed"] = check(op, res, table)
            results.append(res)
        passes.append(results)
        now = time.perf_counter()
        last = now - t0
        if now - start + last > HARD_STOP_S:
            break
        if len(passes) >= min_passes and now - start + last / 2 > seconds:
            break
    return passes


def counts_of(res: dict) -> dict:
    """The exact, timing-free part of one op's report."""
    stats = res.get("trace", {}).get("stats", {})
    return {
        "caches": res["caches"],
        "stats": {key: [s[0], s[2], s[3], s[4]] for key, s in stats.items()},
    }


def isolation_check(op, table, tracer=None) -> str | None:
    """The same op twice in a row: identical counts and cache statistics, so
    no lru_cache state leaks from one op into the next.  ``main`` also
    compares every op across passes."""
    from runner import run_op

    first, second = run_op(op, tracer=tracer), run_op(op, tracer=tracer)
    for res in (first, second):
        why = check(op, res, table)
        if why:
            return "isolation op %r failed: %s" % (op, why)
    if counts_of(first) != counts_of(second):
        return "isolation: %r reports different counts when run twice" % op
    return None


def completeness_check(op, tracer) -> str | None:
    """Wrapper call counts must equal ``sys.setprofile`` counts of the same
    code objects.  For generators both instances and body resumptions are
    compared; for an lru-cached function the wrapper also sees the hits,
    which never reach the code."""
    from runner import run_op
    from tracer import TARGETS, ProfileReference

    res = run_op(op, tracer=tracer, profile=ProfileReference(tracer))
    if res["exit"] is None:
        return "completeness op %r failed: %s" % (op, res["stderr"])
    stats, ref = res["trace"]["stats"], res["profile"]
    wrong = []
    for key, _, _, mode in TARGETS:
        calls = stats[key][0]
        if mode == "gen":
            got = (calls, stats[key][3])
            want = (ref["instances"].get(key, 0), ref["calls"].get(key, 0))
        elif key in res["caches"]:
            got, want = calls - res["caches"][key][0], ref["calls"].get(key, 0)
        else:
            got, want = calls, ref["calls"].get(key, 0)
        if got != want:
            wrong.append("%s: wrapper %s, setprofile %s" % (key, got, want))
    if wrong:
        return "tracer misses calls on %r: %s" % (op, "; ".join(wrong))
    return None


# ---------------------------------------------------------------------------
# metrics


def sweep(results) -> float:
    return sum(res["seconds"] for res in results)


def end_to_end(passes, setup_times) -> dict:
    latencies = [res["seconds"] for results in passes for res in results]
    return {
        "op_s.p50": statistics.median(latencies),
        "op_s.p90": statistics.quantiles(latencies, n=10)[8],
        "sweep_s": statistics.median(sweep(results) for results in passes),
        "peak_rss_mb": max(res["rss_mb"] for results in passes for res in results),
        "setup_s": statistics.median(setup_times),
    }


def aggregate(results):
    """Summed tracer stats, cache statistics and output bytes of one pass."""
    stats, caches, output = {}, {}, 0
    for res in results:
        output += res.get("bytes", 0)
        for key, vals in res.get("trace", {}).get("stats", {}).items():
            acc = stats.setdefault(key, [0, 0.0, 0, 0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, (hits, misses) in res.get("caches", {}).items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return stats, caches, output


def write_spans(path, passes):
    """One JSON line per recorded span; ``op_id`` indexes the run's op list
    (``meta.ops`` of the result file)."""
    with open(path, "w") as fh:
        for p, results in enumerate(passes):
            for i, res in enumerate(results):
                for key, start, end, parent in res.get("trace", {}).get("spans", []):
                    fh.write(json.dumps({"pass": p, "op_id": i, "name": key, "start": start,
                                         "end": end, "parent": parent}) + "\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quiver_fmo" / "cli.py").is_file():
        return fail("no package source at %s" % SRC)
    sys.path.insert(0, str(SRC))
    try:
        import quiver_fmo.cli  # noqa: F401  (the driver's only package state)
    except ImportError as exc:
        return fail("cannot import quiver_fmo.cli: %s" % exc)
    import grid
    import layers

    with open(HERE / "table.json") as fh:
        table = json.load(fh)
    if args.workload not in table["workloads"]:
        return fail("unknown workload %r; one of %s"
                    % (args.workload, ", ".join(sorted(table["workloads"]))))
    spec_file = ROOT / "BENCHMARK.json"
    if spec_file.is_file():
        spec = json.loads(spec_file.read_text())
        if ([m["name"] for m in spec["per_layer"]] != [m[0] for m in layers.PER_LAYER]
                or [m["name"] for m in spec["end_to_end"]]
                != [m[0] for m in layers.END_TO_END]):
            return fail("BENCHMARK.json and bench/layers.py list different metrics")

    ops = draw(table, args.workload, args.seed)
    by_cost = sorted(ops, key=lambda op: (table["ops"][op]["cost_s"], op))
    kinds = {}  # the cheapest drawn op of each kind
    for op in by_cost:
        kinds.setdefault(grid.kind(op), op)
    # the cheapest drawn op that fills an lru cache, so a leak would show
    isolation_op = next((op for op in by_cost if table["ops"][op]["cache_misses"]), by_cost[0])
    problems = []
    meta = dict(revision(), python=sys.version.split()[0], nproc=os.cpu_count(),
                workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, ops=ops)

    if args.trace == 0:
        setup_times = measure_setup(SETUP_LAUNCHES)
        problems.append(isolation_check(isolation_op, table))
        passes = run_passes(ops, args.seconds, MIN_PASSES, table)
        values = end_to_end(passes, setup_times)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in layers.END_TO_END}
        measured = passes
    else:
        from tracer import Tracer

        base = run_passes(ops, 0, 1, table)
        tracer = Tracer()
        tracer.install()
        for op in kinds.values():
            problems.append(completeness_check(op, tracer))
        problems.append(isolation_check(isolation_op, table, tracer))
        passes = run_passes(ops, args.seconds, MIN_PASSES, table, tracer)
        sums = [aggregate(results) for results in passes]
        stats, caches, output = sums[0]
        for key, acc in stats.items():
            acc[1] = statistics.median(s[0][key][1] for s in sums)
        overhead = statistics.median(sweep(results) for results in passes) / sweep(base[0])
        metrics = layers.per_layer_values(stats, caches, output, overhead)
        measured = base + passes
        OUT_DIR.mkdir(exist_ok=True)
        write_spans(OUT_DIR / ("spans-%s-%d.jsonl" % (args.workload, args.seed)), passes)
    per_pass = [[counts_of(res) for res in results] for results in passes]
    if any(counts != per_pass[0] for counts in per_pass[1:]):
        problems.append("an op reports different counts or cache statistics in another pass")

    results = [res for results in measured for res in results]
    failed = [res for res in results if res["why_failed"]]
    problems = [p for p in problems if p]
    meta["ops_per_pass"] = len(ops)
    meta["passes"] = len(passes)
    meta["samples"] = sum(len(r) for r in passes)
    meta["fail_ratio"] = len(failed) / len(results)

    print("# %s" % json.dumps({k: v for k, v in meta.items() if k != "ops"}, sort_keys=True))
    for res in failed[:10]:
        print("# FAILED %s: %s" % (res["op"], res["why_failed"]))
    for problem in problems:
        print("# CHECK FAILED %s" % problem)
    if args.trace == 0 and meta["samples"] < P90_MIN_SAMPLES:
        print("# op_s.p90 rests on %d samples, fewer than %d"
              % (meta["samples"], P90_MIN_SAMPLES))
    rows = dict(metrics, fail_ratio={"value": meta["fail_ratio"], "unit": "fraction"})
    moves = {m[0]: (m[3], m[4]) for m in layers.PER_LAYER}
    for name, m in rows.items():
        note = "  (moves %s on %s)" % moves[name] if name in moves else ""
        print("%-50s %14.6g %s%s" % (name, m["value"], m["unit"], note))
    report = {"correct": not failed and not problems, "attempted": len(results),
              "failed": len(failed), "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / ("result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(dict(report, meta=meta, problems=problems,
                       failures=[[r["op"], r["why_failed"]] for r in failed]),
                  fh, indent=1, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
