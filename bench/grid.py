"""Declared input grids of the three benchmark workloads.

Every op is one ``quiver-fmo ... --json`` command line over the built-in
quivers a1, a2 and affine_sl2.  The grids below are the candidates;
``make_table.py`` runs each once and keeps the valid ones (exit 0, nothing on
stderr, every check holding, good theories only for ``hilbert``) in
``table.json`` together with the sha256 of their output.
"""

from __future__ import annotations

import itertools

WORKLOADS = ("termwise", "substitution", "hilbert")

# One line per workload, also the ``why`` of BENCHMARK.json.
WHY = {
    "termwise": "verify restriction|adding-defect|km-embedding (a1 v<=3, a2 v<=(3,3), "
                "affine_sl2 v<=(2,2), valid v'), fmo, classify: per-subset identities "
                "and JSON rendering",
    "substitution": "verify involution|orientation|d-identity (a1 v<=4, a2 v<=(3,2)/(2,3) "
                    "per charge m, affine_sl2 v<=(2,2)): whole elements through "
                    "RatFunc.subs_u and fast_linear_div",
    "hilbert": "hilbert on good theories of a1, a2, affine_sl2 at every order 2..10 and up to "
               "about 2 s: shell enumeration and TruncSeries products, no multipoly",
}


def _csv(vec) -> str:
    return ",".join(str(x) for x in vec)


def _op(*parts) -> str:
    return " ".join(parts) + " --json"


def _box(v, lo=0):
    return itertools.product(*(range(lo, vi + 1) for vi in v))


def termwise():
    ops = []
    for subject in ("restriction", "adding-defect", "km-embedding"):
        for v in ((2, 2), (2, 3), (3, 2), (3, 3)):
            for vp in _box(v, lo=1):
                if vp != v:
                    ops.append(_op("verify", subject, "--quiver a2 --w 2,2",
                                   "--v", _csv(v), "--vprime", _csv(vp)))
        for v in (1, 2, 3):
            for vp in range(v):
                ops.append(_op("verify", subject, "--quiver a1 --w 6",
                               "--v", str(v), "--vprime", str(vp)))
        for v in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for vp in _box(v):
                if vp != v:
                    ops.append(_op("verify", subject, "--quiver affine_sl2 --w 2,2",
                                   "--v", _csv(v), "--vprime", _csv(vp)))
    for sign in ("+", "-"):
        for m in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 3), (2, 3)):
            ops.append(_op("fmo --quiver a2 --w 2,2 --v 3,3 --m", _csv(m), "--sign", sign))
        for m in (1, 2, 3):
            ops.append(_op("fmo --quiver a1 --w 6 --v 3 --m", str(m), "--sign", sign))
        for m in ((1, 1), (2, 1), (2, 2)):
            ops.append(_op("fmo --quiver affine_sl2 --w 2,2 --v 2,2 --m", _csv(m),
                           "--sign", sign))
    for quiver, w, v in (("a1", "4", "2"), ("a1", "6", "3"), ("a1", "2", "2"),
                         ("a2", "2,2", "3,3"), ("a2", "1,1", "2,2"), ("a2", "3,1", "2,2"),
                         ("a2", "2,2", "2,3"), ("affine_sl2", "1,0", "1,1"),
                         ("affine_sl2", "2,2", "2,2"), ("affine_sl2", "0,2", "2,1"),
                         ("affine_sl2", "2,0", "2,2"), ("affine_sl2", "3,3", "1,2")):
        ops.append(_op("classify --quiver", quiver, "--w", w, "--v", v))
    return ops


def substitution():
    ops = []
    for subject in ("involution", "orientation"):
        for v in ((2, 3), (3, 2)):
            for m in _box(v):
                ops.append(_op("verify", subject, "--quiver a2 --w 2,2",
                               "--v", _csv(v), "--m", _csv(m)))
        for v in ((1, 1), (1, 2), (2, 1), (2, 2)):
            ops.append(_op("verify", subject, "--quiver a2 --w 2,2 --v", _csv(v)))
    for v in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)):
        ops.append(_op("verify d-identity --quiver a2 --w 2,2 --v", _csv(v)))
    for v in (1, 2, 3, 4):
        ops.append(_op("verify involution --quiver a1 --w 4 --v", str(v)))
        ops.append(_op("verify d-identity --quiver a1 --w 4 --v", str(v)))
    for v in ((1, 1), (1, 2), (2, 1)):
        ops.append(_op("verify involution --quiver affine_sl2 --w 2,2 --v", _csv(v)))
    for m in _box((2, 2)):
        ops.append(_op("verify involution --quiver affine_sl2 --w 2,2 --v 2,2 --m", _csv(m)))
    for v in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for subject in ("orientation", "d-identity"):
            ops.append(_op("verify", subject, "--quiver affine_sl2 --w 2,2 --v", _csv(v)))
    return ops


# (quiver, w, v, high orders); every theory also runs at the low orders.
_THEORIES = (
    ("a1", "4", "1", (30, 40)),
    ("a1", "4", "2", (30, 40)),
    ("a1", "6", "3", (30, 40)),
    ("a1", "8", "4", (30, 40, 44)),
    ("a2", "2,2", "1,1", (30, 40)),
    ("a2", "2,3", "1,2", (20, 24)),
    ("a2", "3,2", "2,1", (20, 24)),
    ("a2", "2,2", "2,2", (20, 21, 22, 23, 24)),
    ("a2", "3,3", "2,2", (28, 30, 32)),
    ("a2", "2,3", "2,2", (24, 26, 28)),
    ("a2", "3,2", "2,2", (24, 26, 28)),
    ("a2", "3,3", "3,3", (14, 15, 16)),
    ("affine_sl2", "2,2", "1,1", (30, 40)),
    ("affine_sl2", "2,2", "2,1", (30, 36)),
    ("affine_sl2", "2,2", "1,2", (30, 36)),
    ("affine_sl2", "2,2", "2,2", (30, 33, 36)),
    ("affine_sl2", "3,3", "2,2", (30, 36)),
)
LOW_ORDERS = tuple(range(2, 11))


def hilbert():
    ops = []
    for quiver, w, v, high in _THEORIES:
        for order in LOW_ORDERS + high:
            ops.append(_op("hilbert --quiver", quiver, "--w", w, "--v", v,
                           "--order", str(order)))
    return ops


CANDIDATES = {"termwise": termwise, "substitution": substitution, "hilbert": hilbert}


def kind(op: str) -> str:
    """The subcommand, with the subject for ``verify``: cells never mix kinds,
    so every seed draws the same mix of kinds."""
    parts = op.split()
    return " ".join(parts[:2]) if parts[0] == "verify" else parts[0]


def cells(costs: dict, rss: dict, tolerance: float = 0.1, rss_tolerance: float = 0.03) -> list:
    """Partition ops into cells a seed draws one op from: two ops of the same
    kind whose costs lie within ``tolerance`` and whose peak RSS within
    ``rss_tolerance`` of each other, or one op alone.  Every draw then has the
    same mix of kinds and nearly the same cost and memory profile, so the
    seed changes the inputs but not the expected figures."""
    by_kind = {}
    for op in sorted(costs):
        by_kind.setdefault(kind(op), []).append(op)
    out = []
    for _, ops in sorted(by_kind.items()):
        ops.sort(key=lambda op: (costs[op], op))
        i = 0
        while i < len(ops):
            a, b = ops[i], ops[i + 1] if i + 1 < len(ops) else None
            if (b is not None and costs[b] <= costs[a] * (1 + tolerance)
                    and abs(rss[b] - rss[a]) <= rss_tolerance * rss[a]):
                out.append(ops[i:i + 2])
                i += 2
            else:
                out.append([ops[i]])
                i += 1
    return out
