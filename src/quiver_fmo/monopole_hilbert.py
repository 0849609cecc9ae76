"""Monopole-formula machinery: the degree function on torus coweights,
stabilizer Poincare factors, the truncated Hilbert series of the graded
coordinate ring, the good/ugly/bad classifier, and operator degrees.

The Hilbert series is a path sum over cuts.  The doubled degree 2*Delta is
linear on the cone of coweights whose entries, together with 0, come in a
given order, and the stabilizer factor depends only on that order.  So the
sum over dominant coweights is a sum over chains of cuts of that order: each
inner cut contributes t^D / (1 - t^D), where D is the degree of its 0/+-1
ray coweight, and each block of equal entries between two cuts contributes
its stabilizer factor.  Both are strided prefix sums on a coefficient list;
no coweight is enumerated, and the work is bounded, before any of it is
done, by the number of cuts the sum reads.

Degrees follow the doubled cohomological convention throughout: the series
variable exponent is the cohomological degree, a polynomial dressing of
polynomial degree d sits in degree 2d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, le, sub

from .quiver import (BoxScan, EnumerationBudgetError, box_scan, compositions, mu_pairing,
                     ray_degree, two_delta_minuscule)
from .gklo import GKLOContext, InternalError


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
        """Test oracle, as are __add__, __mul__ and shift."""
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
        """Test oracle; the benchmark tracer binds it."""
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
    """Test oracle: expansion of 1/(1 - t^k), k >= 1."""
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
    """Test oracle: doubled monopole degree of an arbitrary torus coweight:
    minus twice the root pairings plus the matter weight pairings, all in
    absolute value.  The benchmark tracer binds it."""
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
# test oracles: dominant coweights one by one


@lru_cache(maxsize=None)
def _decreasing_tuples(length: int, norm: int):
    """Test oracle: weakly decreasing integer tuples with given L1 norm, for
    dominant_shell.  The benchmark harness binds its cache by name."""
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
    """Test oracle: product over equal-entry blocks of prod_{d=1}^{k}
    1/(1 - t^{2d}).  The path sum applies it block by block in _block_step."""
    out = TruncSeries.one(order)
    for tup in gamma:
        if list(tup) != sorted(tup, reverse=True):
            raise ValueError("coweight must be in dominant (sorted) form")
        for _, grp in itertools.groupby(tup):
            k = len(list(grp))
            for d in range(1, k + 1):
                out = out * geometric(2 * d, order)
    return out


# ---------------------------------------------------------------------------
# the path sum over cuts


PATH_BUDGET = 500_000_000  # cut pairs x block passes x coefficients; read at call time
ORDER_BUDGET = 1_000  # series order; read at call time


def _block_step(coeffs: list, k: int) -> None:
    """Multiply the truncated series coeffs in place by the stabilizer factor
    of one block of k equal entries, prod_{d=1}^{k} 1/(1 - t^{2d}): one
    strided prefix sum per d."""
    for step in range(2, 2 * k + 1, 2):
        for j in range(step, len(coeffs)):
            coeffs[j] += coeffs[j - step]


def _cuts(ctx: GKLOContext, max_norm: int, order: int) -> list:
    """The inner cuts (k, z, degree) whose ray has L1 norm at most max_norm
    and degree at most order, in order of size.

    A cut splits the entries of a dominant coweight, together with 0, into
    the ones above and the ones below it: k_i entries of vertex i are above,
    and z = 1 when 0 is too.  Its ray is the coweight that is 1 above and 0
    below the cut (z = 0) or 0 above and -1 below (z = 1); it has u = k or
    u = v - k nonzero entries, and its doubled degree is ray_degree at u.
    Each u with 0 < |u| <= max_norm gives one cut of each kind.  A cut of
    ray degree above order ends no chain of degree <= order."""
    v, cartan = ctx.v, ctx.cartan
    pairing = mu_pairing(ctx.dims, cartan).vector
    cuts = []
    for u in itertools.product(*(range(min(vi, max_norm) + 1) for vi in v)):
        if 0 < sum(u) <= max_norm:
            degree = ray_degree(pairing, cartan, u)
            if degree <= 0:
                raise InternalError("ray degree %d at u=%r on a conical theory"
                                    % (degree, u))
            if degree <= order:
                cuts.append((u, 0, degree))
                cuts.append((tuple(map(sub, v, u)), 1, degree))
    return sorted(cuts, key=lambda cut: sum(cut[0]) + cut[1])


def _path_sum(v, order: int, cuts: list) -> list:
    """The coefficients of the Hilbert series to order, as a sum over chains
    of the given cuts from (0; z = 0) to (v; z = 1).

    A dominant coweight is the chain of cuts between its distinct values
    (with 0) and a gap g >= 1 across each inner cut; it is the sum of g times
    the ray over the inner cuts, and its degree is the sum of g times the ray
    degree, since no entry changes order along the cone.  Summing the gaps
    gives t^D / (1 - t^D) per inner cut of ray degree D, and each block of
    entries between two consecutive cuts contributes its stabilizer factor.
    The cuts are visited in order of size, each holding the series summed
    over the chains that end at it."""
    done = [((0,) * len(v), 0, [1] + [0] * order)]
    for k, z, degree in cuts + [(v, 1, None)]:
        # the chains into k, grouped by the block type k - k0 they end with
        groups = {}
        for k0, z0, series in done:
            if z0 <= z and all(map(le, k0, k)):
                btype = tuple(sorted(b - a for a, b in zip(k0, k) if b > a))
                if btype in groups:
                    groups[btype] = list(map(add, groups[btype], series))
                else:
                    groups[btype] = list(series)
        into = [0] * (order + 1)
        for btype, acc in groups.items():
            for size in btype:
                _block_step(acc, size)
            into = list(map(add, into, acc))
        if degree is None:
            return into
        series = [0] * (order + 1)  # times t^degree / (1 - t^degree)
        for j in range(degree, order + 1):
            series[j] = into[j - degree] + series[j - degree]
        done.append((k, z, series))


def hilbert_series(ctx: GKLOContext, order: int) -> TruncSeries:
    """Truncated monopole-formula Hilbert series: sum over dominant coweights
    of t^(2 Delta) times the stabilizer Poincare factor, by _path_sum.

    One box_scan refuses bad theories and gives the degree bound: no
    coweight of L1 norm above max_norm = order / min_ratio has degree <=
    order, so the sum reads only the cuts of _cuts.  It compares every pair
    of them and makes at most |v| + 1 passes over a coefficient list per
    pair, so an order above ORDER_BUDGET, or (cuts)^2 (|v| + 1) (order + 1)
    above PATH_BUDGET, raises EnumerationBudgetError before any series work.
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
    cuts = _cuts(ctx, int(Fraction(order) / scan.min_ratio), order)
    work = len(cuts) ** 2 * (sum(ctx.v) + 1) * (order + 1)
    if work > PATH_BUDGET:
        raise EnumerationBudgetError(
            "the path sum over %d cuts to order %d could take %d steps, more than %d"
            % (len(cuts), order, work, PATH_BUDGET))
    return TruncSeries(tuple(_path_sum(ctx.v, order, cuts)), order)
