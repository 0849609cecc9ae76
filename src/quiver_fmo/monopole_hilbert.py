"""Monopole-formula machinery: the degree function on torus coweights,
stabilizer Poincare factors, the truncated Hilbert series of the graded
coordinate ring, the good/ugly/bad classifier, and operator degrees.

The Hilbert series is a grouped sum: the stabilizer factor of a dominant
coweight depends only on its block type (the multiset of equal-entry block
lengths), so the shell points are counted by (degree, block type) and each
type's Poincare factor is built once.

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
# dominant coweight enumeration by shells


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
    """Dominant coweights (weakly decreasing per vertex) of total L1 norm."""
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


def hilbert_series(ctx: GKLOContext, order: int) -> TruncSeries:
    """Truncated monopole-formula Hilbert series: sum over dominant coweights
    of t^(2 Delta) times the stabilizer Poincare factor.

    One box_scan refuses bad theories and gives the degree bound that makes
    the shells certified complete.  An order above ORDER_BUDGET, or more
    than POINT_BUDGET shell points, raises EnumerationBudgetError before any
    shell is counted or any series is allocated.  Every point
    of degree <= order is counted under (degree, block type); each block
    type's stabilizer factor is built once, from a representative coweight,
    and the result is the sum of count * t^degree * factor.
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
    kept = Counter()  # (degree, block type) -> number of points
    representative = {}
    for norm in range(max_norm + 1):
        for gamma in dominant_shell(ctx.v, norm):
            deg = two_delta_general(ctx, gamma)
            if deg > order:
                continue
            btype = block_type(gamma)
            representative.setdefault(btype, gamma)
            kept[deg, btype] += 1
    factors = {btype: stabilizer_poincare(gamma, order).coeffs
               for btype, gamma in representative.items()}
    total = [0] * (order + 1)
    for (deg, btype), count in kept.items():
        factor = factors[btype]
        for j in range(order + 1 - deg):
            total[deg + j] += count * factor[j]
    return TruncSeries(tuple(total), order)
