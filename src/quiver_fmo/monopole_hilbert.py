"""Monopole-formula machinery: the degree function on torus coweights,
stabilizer Poincare factors, the truncated Hilbert series of the graded
coordinate ring, the good/ugly/bad classifier, and operator degrees.

The Hilbert series is a vertex-pruned enumeration.  The doubled degree of a
dominant coweight is a sum of per-vertex terms plus edge terms, and the edge
terms are never negative.  The coweights are built one vertex at a time from
candidate lists sorted by the vertex term, and a list is cut as soon as the
partial degree plus the least vertex terms still to come passes the order,
so only the coweights that can reach the order are evaluated in full.

The mirror sigma(gamma) = (-reversed(gamma_i))_i keeps the degree and the
block type (the multiset of equal-entry block lengths, the only data the
stabilizer factor depends on), so the search visits one coweight of each
pair {gamma, sigma(gamma)} and counts it twice, or once when it is its own
mirror.  It carries the block lengths of the vertices fixed so far, counts
the kept coweights by (degree, block lengths), and sorts each distinct key
into its block type after the search; each type's Poincare factor is built
once.

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
from operator import mul, neg

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
    """Test oracle: sorted lengths of the equal-entry blocks over all
    vertices, the only data of a dominant coweight that its stabilizer factor
    depends on.  The search sorts the block lengths it carries instead."""
    return tuple(sorted(len(list(grp)) for tup in gamma
                        for _, grp in itertools.groupby(tup)))


POINT_BUDGET = 2_000_000  # shell points; read at call time
ORDER_BUDGET = 1_000  # series order; read at call time


def vertex_term(wi: int, tup) -> int:
    """The part of the doubled degree that sees one vertex alone, for a weakly
    decreasing tuple t: wi * sum |t_r| - 2 * sum_{r<s} (t_r - t_s).  It is
    negative for some t when wi = 0.  Test oracle: the search computes it in
    _vertex_terms, where the norm of t is known."""
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


def _vertex_terms(wi: int, vi: int, max_norm: int) -> list:
    """For each norm k <= max_norm, the list of vertex_term(wi, t) over the
    tuples t of _decreasing_tuples(vi, k), in that order.  With the norm
    known, a term is wi * k plus one dot product with fixed coefficients."""
    coeffs = tuple(range(2 - 2 * vi, 2 * vi - 1, 4))  # -2 * (vi - 1 - 2r)
    return [[wi * k + sum(map(mul, coeffs, tup)) for tup in _decreasing_tuples(vi, k)]
            for k in range(max_norm + 1)]


def _candidates(terms, tuples, top: int, tied: bool, shapes: dict) -> tuple:
    """The rows (term, t, block lengths of t, side) for the tuples t with
    term <= top, sorted by term and transposed into columns (an empty tuple
    when no row is left).  The block lengths are one shared tuple per shape,
    kept in shapes; side compares t with its mirror -reversed(t): 1 above, 0
    equal, -1 below.  With tied (no vertex fixed yet) the tuples below their
    mirror are left out."""
    rows = []
    for j in sorted((j for j, term in enumerate(terms) if term <= top), key=terms.__getitem__):
        tup = tuples[j]
        mirror = tuple(map(neg, reversed(tup)))
        side = (tup > mirror) - (tup < mirror)
        if side >= 0 or not tied:
            blocks = _blocks(tup)
            rows.append((terms[j], tup, shapes.setdefault(blocks, blocks), side))
    return tuple(zip(*rows))


def _blocks(tup) -> tuple:
    """Equal-entry block lengths of a weakly decreasing tuple, in order."""
    return tuple(map(tup.count, dict.fromkeys(tup)))


def _count_kept(ctx: GKLOContext, order: int, max_norm: int) -> Counter:
    """Count the dominant coweights of norm <= max_norm and degree <= order by
    (degree, block type).

    The vertices are fixed in order with the norm left tracked.  Each
    candidate list is walked in order of vertex term and cut once the partial
    degree plus the term plus the least terms of the later vertices passes
    the order; the edge terms to the vertices already fixed (times the number
    of parallel edges) are then added, and a candidate whose sum passes the
    order is skipped.

    The mirror sigma(gamma) = (-reversed(gamma_i))_i is an involution on
    dominant coweights that keeps the norm, every vertex and edge term, and
    the block type, so only the gamma >= sigma(gamma), compared vertex by
    vertex, are visited: while every vertex fixed so far is its own mirror, a
    candidate below its mirror is skipped.  A leaf counts 2, or 1 when every
    vertex is its own mirror.  The block lengths of the fixed vertices are
    carried down the search, the leaves are counted by (degree, prefix block
    lengths, leaf block lengths), and each distinct key is sorted into its
    block type once, after the search."""
    n = len(ctx.v)
    terms = [_vertex_terms(wi, vi, max_norm) for wi, vi in zip(ctx.w, ctx.v)]
    least = [min(term for ts in by_norm for term in ts) for by_norm in terms]
    floor = [sum(least[i:]) for i in range(n + 1)]  # least vertex terms of vertices >= i
    # the fixed vertices before i contribute at least floor[0] - floor[i], so
    # no term above order - floor[0] + least[i] is ever visited
    shapes = {}
    cands = [[_candidates(ts, _decreasing_tuples(vi, k), order - floor[0] + least[i], i == 0,
                          shapes) for k, ts in enumerate(terms[i])]
             for i, vi in enumerate(ctx.v)]
    del terms  # the search reads only the candidate columns
    earlier = [[] for _ in range(n)]  # (neighbour j < i, number of edges)
    for (i, j), mult in Counter((max(s, t), min(s, t)) for s, t in ctx.quiver.edges).items():
        earlier[i].append((j, mult))
    leaves = Counter()
    gamma = [()] * n

    def visit(i, partial, left, prefix, tied):
        room = order - floor[i + 1] - partial
        for k in range(left + 1):
            for term, tup, blocks, side in zip(*cands[i][k]):
                if term > room:
                    break
                if tied and side < 0:
                    continue
                for j, mult in earlier[i]:
                    term += mult * edge_term(gamma[j], tup)
                if term > room:
                    continue
                if i + 1 < n:
                    gamma[i] = tup
                    visit(i + 1, partial + term, left - k, prefix + blocks,
                          tied and not side)
                else:
                    leaves[partial + term, prefix, blocks] += 1 if tied and not side else 2

    visit(0, 0, max_norm, (), True)
    kept = Counter()
    for (deg, prefix, blocks), count in leaves.items():
        kept[deg, tuple(sorted(prefix + blocks))] += count
    return kept


def hilbert_series(ctx: GKLOContext, order: int) -> TruncSeries:
    """Truncated monopole-formula Hilbert series: sum over dominant coweights
    of t^(2 Delta) times the stabilizer Poincare factor.

    One box_scan refuses bad theories and gives the degree bound: no
    coweight of L1 norm above max_norm = order / min_ratio has degree <=
    order.  An order above ORDER_BUDGET, or more than POINT_BUDGET points of
    norm <= max_norm, raises EnumerationBudgetError before any point is
    evaluated or any series is allocated.  The vertex-pruned enumeration
    visits one point of each mirror pair {gamma, sigma(gamma)} and counts
    every point of degree <= order under (degree, block type); each block
    type's stabilizer factor is built once, from a coweight with one vertex
    per block, and the result is the sum of count * t^degree * factor.
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
    kept = _count_kept(ctx, order, max_norm)
    # a coweight with one vertex per block has the block type btype
    factors = {btype: stabilizer_poincare(tuple((0,) * k for k in btype), order).coeffs
               for btype in {btype for _, btype in kept}}
    total = [0] * (order + 1)
    for (deg, btype), count in kept.items():
        factor = factors[btype]
        for j in range(order + 1 - deg):
            total[deg + j] += count * factor[j]
    return TruncSeries(tuple(total), order)
