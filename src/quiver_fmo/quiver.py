"""Quivers, symmetric Cartan matrices, dimension-vector bookkeeping, and the
conicity / goodness classifiers.

All linear algebra is exact rational arithmetic; no floating point anywhere.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import NamedTuple

BOX_POINT_BUDGET = 10 ** 7


class EnumerationBudgetError(RuntimeError):
    """An enumeration would exceed its point budget; raised before any work."""


@dataclass(frozen=True)
class Quiver:
    """Finite quiver: ordered vertices, directed edges by vertex index.

    Parallel edges are allowed, edge loops are not.  The vertex order is part
    of the data; every downstream output depends on it.
    """

    vertices: tuple
    edges: tuple  # tuple of (source_index, target_index)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        n = len(self.vertices)
        for s, t in self.edges:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError("edge endpoint out of range")
            if s == t:
                raise ValueError("edge loops are not allowed")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def out_edges(self, i):
        return [e for e in self.edges if e[0] == i]

    def in_edges(self, i):
        return [e for e in self.edges if e[1] == i]

    def flip_edge(self, k: int) -> "Quiver":
        s, t = self.edges[k]
        edges = list(self.edges)
        edges[k] = (t, s)
        return Quiver(self.vertices, tuple(edges))

    @staticmethod
    def from_json(data) -> "Quiver":
        if not (isinstance(data, dict) and isinstance(data.get("vertices"), list)
                and isinstance(data.get("edges"), list)):
            raise ValueError("a quiver is a JSON object with vertex and edge lists")
        verts = tuple(str(v) for v in data["vertices"])
        index = {v: i for i, v in enumerate(verts)}
        edges = []
        for e in data["edges"]:
            if not (isinstance(e, dict) and "source" in e and "target" in e):
                raise ValueError("edge %r is not an object with source and target" % (e,))
            s, t = str(e["source"]), str(e["target"])
            if s not in index or t not in index:
                raise ValueError("edge endpoint %r not a vertex" % (e,))
            edges.append((index[s], index[t]))
        return Quiver(verts, tuple(edges))

    @staticmethod
    def load(path) -> "Quiver":
        with open(path) as fh:
            return Quiver.from_json(json.load(fh))


def a1_quiver() -> Quiver:
    return Quiver(("0",), ())


def a2_quiver() -> Quiver:
    return Quiver(("0", "1"), ((0, 1),))


def affine_sl2_quiver() -> Quiver:
    return Quiver(("0", "1"), ((0, 1), (0, 1)))


def cartan_matrix(q: Quiver):
    """C = 2*Id - adjacency, counting parallel edges; symmetric by design."""
    n = q.n
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for s, t in q.edges:
        C[s][t] -= 1
        C[t][s] -= 1
    return tuple(tuple(row) for row in C)


def mat_vec(C, x):
    return tuple(sum(C[i][j] * x[j] for j in range(len(x))) for i in range(len(C)))


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def compositions(total: int, parts: int):
    """List of the ordered tuples of ``parts`` non-negative integers summing
    to ``total``, in lexicographic order."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class DimData:
    """Framing vector w and gauge vector v, both componentwise >= 0."""

    w: tuple
    v: tuple

    def __post_init__(self):
        if len(self.w) != len(self.v):
            raise ValueError("w and v must have the same length")
        if any(x < 0 for x in self.w) or any(x < 0 for x in self.v):
            raise ValueError("w and v must be componentwise non-negative")

    @staticmethod
    def make(w, v) -> "DimData":
        return DimData(tuple(w), tuple(v))


class MuPairing(NamedTuple):
    vector: tuple
    dominant: bool


def mu_pairing(d: DimData, C) -> MuPairing:
    """w - C v, the simple-root pairings of the lower coweight; dominant iff
    all entries are >= 0."""
    vec = tuple(wi - cv for wi, cv in zip(d.w, mat_vec(C, d.v)))
    return MuPairing(vec, all(x >= 0 for x in vec))


def check_charge(m, v) -> tuple:
    """m as a tuple, checked to be a charge 0 <= m <= v: ValueError if not."""
    if any(not 0 <= mi <= vi for mi, vi in zip(m, v)):
        raise ValueError("need 0 <= m <= v componentwise")
    return tuple(m)


def ray_degree(pairing, C, u) -> int:
    """u.(w - Cv) + u.(Cu) for the pairing w - Cv: the doubled monopole degree
    of the coweight with u_i entries 1 and the rest 0 at each vertex i, and
    of its mirror with v_i - u_i entries 0 and the rest -1."""
    return dot(u, pairing) + dot(u, mat_vec(C, u))


def two_delta_minuscule(d: DimData, C, m) -> int:
    """m.(w - Cv) + m.(Cm) for 0 <= m <= v."""
    m = check_charge(m, d.v)
    return ray_degree(mu_pairing(d, C).vector, C, m)


class BoxScan(NamedTuple):
    """Minimum of u.(w - Cv) + u.(Cu) over nonzero 0 <= u <= v, the doubled
    monopole degree 2*Delta(omega_u): its lexicographically least minimizer,
    and the minimum of the value divided by |u|.  All None for v = 0.

    min_ratio is the tight constant c with 2*Delta(gamma) >= c * sum|gamma| on
    the dominant cone: 2*Delta is homogeneous and piecewise linear, so its
    minimum on a simplex section sits at a vertex of the linearity
    subdivision, and each such vertex is a multiple of some omega_m."""

    min_value: int | None
    witness: tuple | None
    min_ratio: Fraction | None

    @property
    def conical(self) -> bool:
        return self.min_value is None or self.min_value >= 1

    @property
    def good(self) -> bool:
        return self.min_value is None or self.min_value >= 2

    @property
    def kind(self) -> str:
        """good, ugly (conical but not good) or bad (not conical)."""
        return "good" if self.good else "ugly" if self.conical else "bad"


@lru_cache(maxsize=256)
def box_scan(d: DimData, C) -> BoxScan:
    """The one scan of the box behind conicity, goodness, the theory kind
    and the Hilbert-series degree bound, cached so that callers on the same
    data share it (C is a tuple of tuples).  Raises EnumerationBudgetError
    when the box has more than BOX_POINT_BUDGET points."""
    size = prod(vi + 1 for vi in d.v)
    if size > BOX_POINT_BUDGET:
        raise EnumerationBudgetError("the box 0 <= u <= v has %d points, more than %d"
                                     % (size, BOX_POINT_BUDGET))
    pairing = mu_pairing(d, C).vector
    best = witness = None
    ratio = (0, 0)  # (value, |u|) of the least value/|u| so far
    for u in itertools.product(*(range(vi + 1) for vi in d.v)):
        norm = sum(u)
        if not norm:
            continue
        val = ray_degree(pairing, C, u)
        if best is None or val < best:
            best, witness = val, u
        if not ratio[1] or val * ratio[1] < ratio[0] * norm:
            ratio = (val, norm)
    return BoxScan(best, witness, Fraction(*ratio) if ratio[1] else None)


class BoxReport(NamedTuple):
    holds: bool
    min_value: int | None
    witness: tuple | None


def check_conicity(d: DimData, C) -> BoxReport:
    """u.(w - Cv) + u.(Cu) >= 1 for all nonzero 0 <= u <= v (vacuous if v=0)."""
    scan = box_scan(d, C)
    return BoxReport(scan.conical, scan.min_value, scan.witness)


def check_good(d: DimData, C) -> BoxReport:
    """Same box minimum with threshold 2."""
    scan = box_scan(d, C)
    return BoxReport(scan.good, scan.min_value, scan.witness)


# ---------------------------------------------------------------------------
# finite / affine / indefinite trichotomy


@dataclass(frozen=True)
class AffineData:
    """Trichotomy of a symmetric Cartan matrix; in the affine case also the
    primitive positive kernel vector (the marks)."""

    kind: str  # "finite" | "affine" | "indefinite"
    marks: tuple | None = None

    def level(self, d: DimData, C) -> int:
        if self.kind != "affine":
            raise ValueError("level is defined only in affine type")
        return dot(self.marks, mu_pairing(d, C).vector)


def affine_classify(C) -> AffineData:
    """Type of a symmetric Cartan matrix from one exact elimination on
    diagonal pivots.  In a positive semidefinite matrix a zero diagonal entry
    has a zero row, so diagonal pivots suffice: C is finite iff every pivot
    is positive, and otherwise positive semidefinite iff no pivot is negative
    and no zero pivot's remaining row is nonzero; then the zero pivots count
    the corank.  Corank 1 is affine iff the kernel line has positive marks."""
    n = len(C)
    A = [[Fraction(x) for x in row] for row in C]
    zeros = []
    for k in range(n):
        p = A[k][k]
        if p < 0 or (p == 0 and any(A[k][k + 1:])):
            return AffineData("indefinite")
        if p == 0:
            zeros.append(k)
            continue
        for i in range(k + 1, n):
            f = A[i][k] / p
            if f:
                for j in range(k, n):
                    A[i][j] -= f * A[k][j]
    if not zeros:
        return AffineData("finite")
    if len(zeros) > 1:
        return AffineData("indefinite")
    # x vanishes past the zero pivot; the reduced rows above it fix the rest
    x = [Fraction(0)] * n
    x[zeros[0]] = Fraction(1)
    for k in reversed(range(zeros[0])):
        x[k] = -sum(A[k][j] * x[j] for j in range(k + 1, n)) / A[k][k]
    scale = lcm(*(xi.denominator for xi in x))
    ints = [int(xi * scale) for xi in x]
    g = gcd(*ints)
    marks = tuple(xi // g for xi in ints)
    if not all(xi > 0 for xi in marks):
        return AffineData("indefinite")
    return AffineData("affine", marks)


def theorem_prediction(C, d: DimData) -> str | None:
    """Level-based classification of the pair, valid when both coweights are
    dominant and v != 0: 'good', 'conical-not-good', or 'not-conical'."""
    info = affine_classify(C)
    if not mu_pairing(d, C).dominant or not any(d.v):
        return None
    if info.kind == "finite":
        return "good"
    if info.kind == "affine":
        lvl = info.level(d, C)
        if lvl >= 2:
            return "good"
        if lvl == 1:
            return "conical-not-good"
        return "not-conical"
    return None


def level_check(d: DimData, C):
    """(theorem_prediction, the kind of the pair's box scan under the same
    names); (None, None) where the theorem predicts nothing."""
    prediction = theorem_prediction(C, d)
    if prediction is None:
        return None, None
    names = {"good": "good", "ugly": "conical-not-good", "bad": "not-conical"}
    return prediction, names[box_scan(d, C).kind]
