"""Monopole-formula machinery: the degree function on torus coweights,
stabilizer Poincare factors, the truncated Hilbert series of the graded
coordinate ring, the good/ugly/bad classifier, and operator degrees.

The Hilbert series is a vertex-pruned enumeration.  The doubled degree of a
dominant coweight is a sum of per-vertex terms plus edge terms, and the edge
terms are never negative.  The coweights are built one vertex at a time from
candidate lists sorted by the vertex term, and a list is cut as soon as the
partial degree plus the least vertex terms still to come passes the order,
so only the coweights that can reach the order are evaluated in full.  The
kept coweights are counted by (degree, block type): the stabilizer factor
depends only on the block type (the multiset of equal-entry block lengths),
so each type's Poincare factor is built once.

Degrees follow the doubled cohomological convention throughout: the series
variable exponent is the cohomological degree, a polynomial dressing of
polynomial degree d sits in degree 2d.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .quiver import (BoxScan, EnumerationBudgetError, box_scan, compositions,
                     two_delta_minuscule)
from .gklo import GKLOContext


class BadTheoryError(ValueError):
    """The grading is unbounded below; there is no Hilbert series."""


# ---------------------------------------------------------------------------
# truncated integer power series


@dataclass(frozen=True)
class TruncSeries:
    """Power series in t truncated at order D inclusive; exact integers."""

    coeffs: tuple
    order: int

    @staticmethod
    def make(coeffs, order) -> "TruncSeries":
        cs = list(coeffs)[: order + 1]
        cs += [0] * (order + 1 - len(cs))
        return TruncSeries(tuple(cs), order)

    @staticmethod
    def zero(order) -> "TruncSeries":
        """Test oracle, as are __add__ and shift."""
        return TruncSeries.make([], order)

    @staticmethod
    def one(order) -> "TruncSeries":
        return TruncSeries.make([1], order)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        """Test oracle."""
        if self.order != other.order:
            raise ValueError("order mismatch")
        return TruncSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                           self.order)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.order != other.order:
            raise ValueError("order mismatch")
        out = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.order:
                    break
                out[i + j] += a * b
        return TruncSeries(tuple(out), self.order)

    def shift(self, k: int) -> "TruncSeries":
        """Test oracle: multiply by t^k, k >= 0."""
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        out = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if i + k <= self.order:
                out[i + k] = a
        return TruncSeries(tuple(out), self.order)


def geometric(k: int, order: int) -> TruncSeries:
    """Expansion of 1/(1 - t^k), k >= 1."""
    if k <= 0:
        raise ValueError("geometric series needs a positive exponent")
    out = [0] * (order + 1)
    j = 0
    while j <= order:
        out[j] = 1
        j += k
    return TruncSeries(tuple(out), order)


# ---------------------------------------------------------------------------
# degrees


def two_delta_general(ctx: GKLOContext, gamma) -> int:
    """Doubled monopole degree of an arbitrary torus coweight: minus twice the
    root pairings plus the matter weight pairings, all in absolute value."""
    v, w = ctx.v, ctx.w
    gamma = tuple(tuple(t) for t in gamma)
    if any(len(t) != vi for t, vi in zip(gamma, v)):
        raise ValueError("coweight shape does not match v")
    total = 0
    for i, tup in enumerate(gamma):
        for r in range(len(tup)):
            for s in range(r + 1, len(tup)):
                total -= 2 * abs(tup[r] - tup[s])
        total += w[i] * sum(abs(x) for x in tup)
    for (s, t) in ctx.quiver.edges:
        for a in gamma[s]:
            for b in gamma[t]:
                total += abs(b - a)
    return total


def fmo_degree(ctx: GKLOContext, m, dressing_degree: int = 0) -> int:
    """Degree of a dressed monopole operator at +-omega_m; dressing_degree is
    the cohomological (doubled) degree of the dressing."""
    if dressing_degree < 0:
        raise ValueError("dressing degree must be non-negative")
    return two_delta_minuscule(ctx.dims, ctx.cartan, m) + dressing_degree


# ---------------------------------------------------------------------------
# classification


def classify_theory(ctx: GKLOContext) -> BoxScan:
    """The box scan of the theory: its min_value is the minimum of the
    doubled degree over the monopole generators, and its kind is good if
    that is >= 2, ugly if exactly 1, bad if <= 0.  v = 0 counts as good (no
    generators besides the Casimirs)."""
    return box_scan(ctx.dims, ctx.cartan)


# ---------------------------------------------------------------------------
# dominant coweight enumeration


@lru_cache(maxsize=None)
def _decreasing_tuples(length: int, norm: int):
    """Weakly decreasing integer tuples with given L1 norm."""
    if length == 0:
        return (() ,) if norm == 0 else ()
    out = []
    for first in range(-norm, norm + 1):
        rest_norm = norm - abs(first)
        if rest_norm < 0:
            continue
        for rest in _decreasing_tuples(length - 1, rest_norm):
            if rest and rest[0] > first:
                continue
            out.append((first,) + rest)
    return tuple(out)


def dominant_shell(v, norm: int):
    """Test oracle: dominant coweights (weakly decreasing per vertex) of total
    L1 norm.  Kept in the module because the benchmark tracer binds it."""
    out = []
    for split in compositions(norm, len(v)):
        choices = [_decreasing_tuples(vi, n) for vi, n in zip(v, split)]
        out.extend(itertools.product(*choices))
    return out


def stabilizer_poincare(gamma, order: int) -> TruncSeries:
    """Product over equal-entry blocks of prod_{d=1}^{k} 1/(1 - t^{2d})."""
    out = TruncSeries.one(order)
    for tup in gamma:
        if list(tup) != sorted(tup, reverse=True):
            raise ValueError("coweight must be in dominant (sorted) form")
        for _, grp in itertools.groupby(tup):
            k = len(list(grp))
            for d in range(1, k + 1):
                out = out * geometric(2 * d, order)
    return out


def block_type(gamma) -> tuple:
    """Sorted lengths of the equal-entry blocks over all vertices: the only
    data of a dominant coweight that its stabilizer factor depends on."""
    return tuple(sorted(len(list(grp)) for tup in gamma
                        for _, grp in itertools.groupby(tup)))


POINT_BUDGET = 2_000_000  # shell points; read at call time
ORDER_BUDGET = 1_000  # series order; read at call time


def vertex_term(wi: int, tup) -> int:
    """The part of the doubled degree that sees one vertex alone, for a weakly
    decreasing tuple t: wi * sum |t_r| - 2 * sum_{r<s} (t_r - t_s).  It is
    negative for some t when wi = 0."""
    last = len(tup) - 1
    return wi * sum(abs(x) for x in tup) - 2 * sum(
        (last - 2 * r) * x for r, x in enumerate(tup))


def edge_term(tup_a, tup_b) -> int:
    """The part of the doubled degree from one edge: sum |b - a| >= 0."""
    total = 0
    for a in tup_a:
        for b in tup_b:
            total += b - a if b > a else a - b
    return total


def _vertex_candidates(wi: int, vi: int, max_norm: int) -> list:
    """For each norm k <= max_norm, the weakly decreasing tuples of length vi
    and norm k sorted by vertex term, as two parallel lists (terms, tuples)."""
    out = []
    for k in range(max_norm + 1):
        tuples = _decreasing_tuples(vi, k)
        terms = [vertex_term(wi, tup) for tup in tuples]
        by_term = sorted(range(len(tuples)), key=terms.__getitem__)
        out.append(([terms[j] for j in by_term], [tuples[j] for j in by_term]))
    return out


def _count_kept(ctx: GKLOContext, order: int, max_norm: int):
    """Count the dominant coweights of norm <= max_norm and degree <= order by
    (degree, block type), with one representative coweight per block type.

    The vertices are fixed in order with the norm left tracked.  Each
    candidate list is walked in order of vertex term and cut once the partial
    degree plus the term plus the least terms of the later vertices passes
    the order; the edge terms to the vertices already fixed are then added,
    and a candidate whose sum passes the order is skipped."""
    n = len(ctx.v)
    cands = [_vertex_candidates(wi, vi, max_norm) for wi, vi in zip(ctx.w, ctx.v)]
    floor = [0] * (n + 1)  # least sum of the vertex terms of vertices >= i
    for i in reversed(range(n)):
        floor[i] = floor[i + 1] + min(terms[0] for terms, _ in cands[i] if terms)
    earlier = [[] for _ in range(n)]  # neighbours j < i, once per edge
    for s, t in ctx.quiver.edges:
        earlier[max(s, t)].append(min(s, t))
    kept = Counter()
    representative = {}
    gamma = [()] * n

    def visit(i, partial, left):
        room = order - floor[i + 1] - partial
        for k in range(left + 1):
            terms, tuples = cands[i][k]
            for term, tup in zip(terms, tuples):
                if term > room:
                    break
                for j in earlier[i]:
                    term += edge_term(gamma[j], tup)
                if term > room:
                    continue
                gamma[i] = tup
                if i + 1 < n:
                    visit(i + 1, partial + term, left - k)
                else:
                    btype = block_type(gamma)
                    if btype not in representative:
                        representative[btype] = tuple(gamma)
                    kept[partial + term, btype] += 1

    visit(0, 0, max_norm)
    return kept, representative


def hilbert_series(ctx: GKLOContext, order: int) -> TruncSeries:
    """Truncated monopole-formula Hilbert series: sum over dominant coweights
    of t^(2 Delta) times the stabilizer Poincare factor.

    One box_scan refuses bad theories and gives the degree bound: no
    coweight of L1 norm above max_norm = order / min_ratio has degree <=
    order.  An order above ORDER_BUDGET, or more than POINT_BUDGET points of
    norm <= max_norm, raises EnumerationBudgetError before any point is
    evaluated or any series is allocated.  The vertex-pruned enumeration
    counts every point of degree <= order under (degree, block type); each
    block type's stabilizer factor is built once, from a representative
    coweight, and the result is the sum of count * t^degree * factor.
    """
    scan = box_scan(ctx.dims, ctx.cartan)
    if not scan.conical:
        raise BadTheoryError(
            "degree %d at m=%r: the grading is not bounded below"
            % (scan.min_value, scan.witness))
    if order > ORDER_BUDGET:
        raise EnumerationBudgetError(
            "order %d is above the budget of %d" % (order, ORDER_BUDGET))
    if not any(ctx.v):
        return TruncSeries.one(order)
    max_norm = int(Fraction(order) / scan.min_ratio)
    points = 0
    for norm in range(max_norm + 1):
        for split in compositions(norm, len(ctx.v)):
            points += prod(len(_decreasing_tuples(vi, n)) for vi, n in zip(ctx.v, split))
        if points > POINT_BUDGET:
            raise EnumerationBudgetError(
                "more than %d shell points needed up to norm %d"
                % (POINT_BUDGET, max_norm))
    kept, representative = _count_kept(ctx, order, max_norm)
    factors = {btype: stabilizer_poincare(gamma, order).coeffs
               for btype, gamma in representative.items()}
    total = [0] * (order + 1)
    for (deg, btype), count in kept.items():
        factor = factors[btype]
        for j in range(order + 1 - deg):
            total[deg + j] += count * factor[j]
    return TruncSeries(tuple(total), order)
