"""Birational coordinates on slices and zastava spaces: the image of the
Q_i generating function, dressed fundamental monopole operators of both
signs (P^+_i and P^-_i are the ones at lagrange_charge), the determinant
identity relating them, the Chevalley involution, and the orientation-change
comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

from .multipoly import (
    MPoly,
    PartialSymPoly,
    RatFunc,
    ZVAR,
    core_sum,
    head_tail_divides,
    identity_holds,
    keyed_sum,
    lcm_plan,
    linear_factors,
    linear_product,
    localized,
    orbit_sum,
    over_lcm,
    power_factors,
    restrict_to_gamma,
    uv,
    within_budget,
    wv,
)
from .quiver import (DimData, EnumerationBudgetError, Quiver, cartan_matrix, check_charge,
                     compositions)


@dataclass(frozen=True)
class GKLOContext:
    quiver: Quiver
    dims: DimData

    def __post_init__(self):
        if self.quiver.n != len(self.dims.v):
            raise ValueError("dimension vectors do not match the quiver")

    @property
    def v(self):
        return self.dims.v

    @property
    def w(self):
        return self.dims.w

    @property
    def cartan(self):
        return cartan_matrix(self.quiver)


def make_context(quiver: Quiver, w, v) -> GKLOContext:
    return GKLOContext(quiver, DimData.make(w, v))


def q_image(ctx: GKLOContext, i: int) -> MPoly:
    """prod_r (z - w_{i,r}); monic of degree v_i in z."""
    return linear_product((ZVAR, wv(i, r)) for r in range(1, ctx.v[i] + 1))


def _out_sign(ctx, i) -> int:
    """(-1)^{sum of v_t over the edges i -> t}: the orientation sign of the
    negative generators and of the involution at vertex i."""
    return (-1) ** sum(ctx.v[t] for _, t in ctx.quiver.out_edges(i))


def _in_pairs(ctx, i, r):
    """The pairs (w_{i,r}, w_{s,p}) over the edges s -> i and the slots of s."""
    return [(wv(i, r), wv(s, p)) for s, _ in ctx.quiver.in_edges(i)
            for p in range(1, ctx.v[s] + 1)]


def _out_pairs(ctx, i, r):
    """The pairs (w_{t,q}, w_{i,r}) over the edges i -> t and the slots of t."""
    return [(wv(t, q), wv(i, r)) for _, t in ctx.quiver.out_edges(i)
            for q in range(1, ctx.v[t] + 1)]


# ---------------------------------------------------------------------------
# fundamental monopole operators


def _gamma_tuples(v, m):
    """All subset tuples Gamma with Gamma_i an m_i-subset of [v_i], in a fixed
    deterministic order."""
    per_vertex = [
        [tuple(c) for c in itertools.combinations(range(1, vi + 1), mi)]
        for vi, mi in zip(v, m)
    ]
    return list(itertools.product(*per_vertex))


def as_dressing(ctx, m, f) -> PartialSymPoly:
    """f as a dressing for charge m over ctx: a polynomial or number is
    checked into the dressing ring, and a dressing attached to other (m, v)
    data raises ValueError."""
    if isinstance(f, PartialSymPoly):
        if f.m != tuple(m) or f.v != ctx.v:
            raise ValueError("dressing attached to different (m, v) data")
        return f
    return PartialSymPoly.make(f, m, ctx.v)


def fmo_sign(ctx: GKLOContext, m) -> int:
    """Parity sum m_i v_i over vertices plus m_{s(a)} v_{t(a)} over edges."""
    s = sum(mi * vi for mi, vi in zip(m, ctx.v))
    s += sum(m[a[0]] * ctx.v[a[1]] for a in ctx.quiver.edges)
    return s % 2


def _edge_factor_plus(ctx, gamma) -> MPoly:
    return linear_product((wv(t, q), wv(s, r)) for s, t in ctx.quiver.edges
                          for r in gamma[s] for q in range(1, ctx.v[t] + 1)
                          if q not in gamma[t])


def _edge_factor_minus(ctx, gamma) -> MPoly:
    return linear_product((wv(t, r), wv(s, p)) for s, t in ctx.quiver.edges
                          for r in gamma[t] for p in range(1, ctx.v[s] + 1)
                          if p not in gamma[s])


def _den_factor(ctx, gamma, reverse: bool):
    """Factored prod (w_{i,r} - w_{i,s}) over r in Gamma_i, s outside (order
    swapped when reverse); returns (factor dict, sign)."""
    pairs = [(wv(i, r), wv(i, s)) for i, g in enumerate(gamma) for r in g
             for s in range(1, ctx.v[i] + 1) if s not in g]
    return linear_factors((b, a) if reverse else (a, b) for a, b in pairs)


def _u_gamma(gamma, exp: int) -> MPoly:
    out = MPoly.one()
    for i, g in enumerate(gamma):
        for r in g:
            out = out * MPoly.var(uv(i, r), exp)
    return out


def _subset_factor(ctx: GKLOContext, gamma, sign: str):
    """The part of the subset-Gamma term of M^{sign}_m(f) that does not depend
    on the dressing: the edge factor (times the framing w^{w_j} over Gamma
    for M^-) times the denominator sign, and the factored denominator, a
    fresh dict."""
    if sign == "+":
        factor = _edge_factor_plus(ctx, gamma)
    else:
        factor = _edge_factor_minus(ctx, gamma)
        for j, g in enumerate(gamma):
            for t in g:
                factor = factor * MPoly.var(wv(j, t), ctx.w[j])
    dfac, dsign = _den_factor(ctx, gamma, reverse=sign == "-")
    return factor * dsign, dfac


def fmo_plus_terms(ctx: GKLOContext, m, f: PartialSymPoly, head=None):
    """The defining sum of M^+_m(f) as u-free (subset, numerator,
    factored-denominator) triples, optionally restricted to subsets inside
    the given head bounds; subset Gamma stands for the term times u_Gamma.
    Each denominator dict is fresh."""
    for gamma in _gamma_tuples(ctx.v if head is None else head, m):
        factor, dfac = _subset_factor(ctx, gamma, "+")
        yield gamma, restrict_to_gamma(f, gamma) * factor, dfac


def fmo_minus_terms(ctx: GKLOContext, m, f: PartialSymPoly):
    """The defining sum of M^-_m(f), including the global sign, as u-free
    (subset, numerator, factored-denominator) triples; subset Gamma stands
    for the term times u_Gamma^{-1}.  Each denominator dict is fresh."""
    negate = fmo_sign(ctx, m)
    for gamma in _gamma_tuples(ctx.v, m):
        factor, dfac = _subset_factor(ctx, gamma, "-")
        num = restrict_to_gamma(f, gamma) * factor
        yield gamma, -num if negate else num, dfac


def terms_value(terms, exp: int) -> RatFunc:
    """The normalized sum of u-free subset terms, each subset Gamma's term
    keyed by u_Gamma^{exp}."""
    return keyed_sum((_u_gamma(gamma, exp), num, dfac) for gamma, num, dfac in terms)


def transport_terms(terms, image):
    """Apply a map that rescales every u_{i,r} to u-free subset terms, one
    subset at a time.  ``image(i, r)`` returns (numerator, factor dict, sign):
    each slot r of Gamma_i multiplies the term by sign * numerator and divides
    it by the factors.  Yields fresh triples; the input is never mutated."""
    for gamma, num, dfac in terms:
        dfac = dict(dfac)
        for i, g in enumerate(gamma):
            for r in g:
                x, fac, sign = image(i, r)
                num = num * x if sign > 0 else -(num * x)
                for k, e in fac.items():
                    dfac[k] = dfac.get(k, 0) + e
        yield gamma, num, dfac


# The localized ring that M^sign_m(f) lives in, by sign
FMO_RING = {"+": "zastava_loc", "-": "slice_loc"}


def fmo(ctx: GKLOContext, m, f, sign: str) -> RatFunc:
    """Dressed fundamental monopole operator M^sign_m(f), cached and checked
    to live in FMO_RING[sign]."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    m = check_charge(m, ctx.v)
    return _fmo_cached(ctx, m, as_dressing(ctx, m, f), sign)


@lru_cache(maxsize=65536)
def _fmo_cached(ctx: GKLOContext, m, f: PartialSymPoly, sign: str) -> RatFunc:
    return localized(fmo_value(ctx, m, f, sign), FMO_RING[sign])


def _signed_terms(ctx: GKLOContext, m, f: PartialSymPoly, sign: str):
    return fmo_plus_terms(ctx, m, f) if sign == "+" else fmo_minus_terms(ctx, m, f)


def fmo_value(ctx: GKLOContext, m, f: PartialSymPoly, sign: str) -> RatFunc:
    """M^sign_m(f) over ctx, unchecked, for a valid charge m.  f may be a
    dressing over a larger v with the same m (the adding-defect right-hand
    side): then f|_Gamma keeps the slots past ctx.v.

    The subset-Gamma term is f|_Gamma * A_Gamma / D_Gamma * u_Gamma^{+-1}.
    A_Gamma has only forms across an edge (no loops) and framing powers, so
    a form of D_Gamma can cancel only through f|_Gamma, and it does exactly
    when its relabelling, a form w_{i,a} - w_{i,b} with a <= m_i < b,
    divides f.  When none does, every subset term is reduced as it stands
    and M^sign_m(f) is sum f|_Gamma * N_Gamma / L over the f = 1 core of
    _fmo_core; otherwise the subset terms are summed.  M^sign_m(0) = 0.

    The keyed sum of those terms expands at most len(f) times the f = 1
    bound of _unit_plan, and so does the core's sum; above the budget the
    subset terms are summed too, and keyed_sum checks its own bound."""
    if f.is_zero():
        return RatFunc.zero()
    if not head_tail_divides(f, ctx.v):
        if within_budget(len(f.value.terms) * _unit_plan(ctx, m, sign).bound):
            pairs, lcm = _fmo_core(ctx, m, sign)
            return core_sum(((restrict_to_gamma(f, gamma), num) for gamma, num in pairs),
                            lcm)
    return terms_value(_signed_terms(ctx, m, f, sign), 1 if sign == "+" else -1)


@lru_cache(maxsize=1024)
def _unit_terms(ctx: GKLOContext, m, sign: str) -> tuple:
    """The subset terms of M^sign_m(1) over ctx, as a tuple of (Gamma,
    numerator, factored-denominator) triples that callers must not mutate."""
    return tuple(_signed_terms(ctx, m, PartialSymPoly(MPoly.one(), m, ctx.v), sign))


@lru_cache(maxsize=1024)
def _unit_plan(ctx: GKLOContext, m, sign: str):
    """The lcm_plan of the f = 1 subset terms: the bound on their expansion
    over the lcm of their denominators, which fmo_value reads, and the plan
    that _fmo_core expands; nothing is expanded here."""
    return lcm_plan((num, dfac) for _, num, dfac in _unit_terms(ctx, m, sign))


@lru_cache(maxsize=1024)
def _fmo_core(ctx: GKLOContext, m, sign: str):
    """The f = 1 core of M^sign_m over ctx: the pairs (Gamma, N_Gamma), N_Gamma
    = A_Gamma u_Gamma^{+-1} L / D_Gamma expanded, and the lcm L of the D_Gamma.
    Expanded by _unit_plan, whose budget refuses it first."""
    nums, lcm = over_lcm(_unit_plan(ctx, m, sign))
    # no numerator is zero at f = 1, so the plan keeps them all, in order
    return tuple((gamma, _u_gamma(gamma, 1 if sign == "+" else -1) * num)
                 for (gamma, _, _), num in zip(_unit_terms(ctx, m, sign), nums)), lcm


# ---------------------------------------------------------------------------
# determinant identity and Chevalley involution


def lagrange_charge(ctx: GKLOContext, i: int):
    """(e_i, L_i) with L_i = prod_{s >= 2} (z - w_{i,s}), v_i >= 1: the
    generating functions P^+_i and P^-_i are M^+_{e_i}(L_i) and M^-_{e_i}(L_i)."""
    m = tuple(int(j == i) for j in range(ctx.quiver.n))
    dress = linear_product((ZVAR, wv(i, s)) for s in range(2, ctx.v[i] + 1))
    return m, PartialSymPoly.make(dress, m, ctx.v)


@dataclass(frozen=True)
class DIdentityReport:
    holds: bool
    d: RatFunc


def d_identity_check(ctx: GKLOContext, i: int) -> DIdentityReport:
    """D_i = (P^+_i P^-_i + z^{w_i} * (neighbor Q's)) / Q_i; the identity
    holds when no denominator factor of D_i involves z.  D_i is the keyed sum of
    the subset pairs (Gamma, Gamma') of P^+_i, P^-_i by u_Gamma u_Gamma'^{-1}."""
    qfac, qsign = linear_factors((ZVAR, wv(i, r)) for r in range(1, ctx.v[i] + 1))
    extra = MPoly.var(ZVAR, ctx.w[i])
    for j in [s for s, _ in ctx.quiver.in_edges(i)] + [t for _, t in ctx.quiver.out_edges(i)]:
        extra = extra * q_image(ctx, j)
    keyed = [(MPoly.one(), extra * qsign, qfac)]  # the u-free term, over Q_i too
    if ctx.v[i]:
        m, f = lagrange_charge(ctx, i)
        minus = list(fmo_minus_terms(ctx, m, f))
        for gamma, num, dfac in fmo_plus_terms(ctx, m, f):
            for gamma2, num2, dfac2 in minus:
                fac = dict(qfac)
                for k, e in itertools.chain(dfac.items(), dfac2.items()):
                    fac[k] = fac.get(k, 0) + e
                keyed.append((_u_gamma(gamma, 1) * _u_gamma(gamma2, -1),
                              num * num2 * qsign, fac))
    d = keyed_sum(keyed)
    return DIdentityReport(ZVAR not in d.den_variables(), d)


def chevalley_u_image(ctx: GKLOContext, i: int, r: int) -> RatFunc:
    """Test oracle: the image of u_{i,r} under the involution as one rational
    function, the ratio of incoming to outgoing edge products times
    w_{i,r}^{w_i} u_{i,r}^{-1}, with sign.  The library route is iota_image."""
    num = MPoly.var(wv(i, r), ctx.w[i])
    for a in ctx.quiver.in_edges(i):
        s = a[0]
        for ss in range(1, ctx.v[s] + 1):
            num = num * (MPoly.var(wv(i, r)) - MPoly.var(wv(s, ss)))
    den = MPoly.one()
    for b in ctx.quiver.out_edges(i):
        t = b[1]
        for tt in range(1, ctx.v[t] + 1):
            den = den * (MPoly.var(wv(t, tt)) - MPoly.var(wv(i, r)))
    num = num * MPoly.var(uv(i, r), -1)
    return RatFunc.make(num, den) * -_out_sign(ctx, i)


def chevalley(ctx: GKLOContext, value: RatFunc) -> RatFunc:
    """Test oracle: apply the involution w |-> w, u |-> (edge ratio) * w^w *
    u^{-1} to a whole element by substitution.  The library applies it
    termwise, with transport_terms and iota_image."""
    mapping = {}
    for i, vi in enumerate(ctx.v):
        for r in range(1, vi + 1):
            mapping[uv(i, r)] = chevalley_u_image(ctx, i, r)
    return localized(value.subs_u(mapping), "slice_loc_loc")


def iota_image(ctx: GKLOContext, i: int, r: int):
    """The involution on u_{i,r} as a transport_terms image: u_{i,r} goes to
    sign * w_{i,r}^{w_i} prod_in (w_{i,r} - w_{s,p}) / prod_out (w_{t,q} -
    w_{i,r}) * u_{i,r}^{-1}; returns (numerator, factor dict, sign)."""
    num = linear_product(_in_pairs(ctx, i, r)) * MPoly.var(wv(i, r), ctx.w[i])
    fac, sign = linear_factors(_out_pairs(ctx, i, r))
    return num, fac, -sign * _out_sign(ctx, i)


def iota_inverse_image(ctx: GKLOContext, i: int, r: int):
    """The involution on u_{i,r}^{-1}, the inverse of iota_image: u_{i,r}^{-1}
    goes to sign * prod_out (w_{t,q} - w_{i,r}) / (w_{i,r}^{w_i} prod_in
    (w_{i,r} - w_{s,p})) * u_{i,r}; returns (numerator, factor dict, sign)."""
    fac, sign = linear_factors(_in_pairs(ctx, i, r))
    fac.update(power_factors(wv(i, r), ctx.w[i]))
    return linear_product(_out_pairs(ctx, i, r)), fac, -sign * _out_sign(ctx, i)


@dataclass(frozen=True)
class InvolutionReport:
    image: RatFunc          # iota(M^+_m(f))
    minus: RatFunc          # M^-_m(f)
    swaps: bool             # the two agree
    involutive: bool        # iota applied twice recovers M^+_m(f)


@lru_cache(maxsize=None)
def involution_on_generators(ctx: GKLOContext) -> bool:
    """iota applied twice fixes every u_{i,r}; with w fixed this is
    involutivity on ring generators.  Each generator is the one-slot subset
    term of u_{i,r}; it goes through transport_terms with iota_image and
    then with iota_inverse_image, and must come back as itself."""
    generators = [(tuple((r,) if j == i else () for j in range(len(ctx.v))), MPoly.one(), {})
                  for i, vi in enumerate(ctx.v) for r in range(1, vi + 1)]
    once = transport_terms(generators, partial(iota_image, ctx))
    return identity_holds(transport_terms(once, partial(iota_inverse_image, ctx)), generators)


@lru_cache(maxsize=65536)
def involution_fmo_report(ctx: GKLOContext, m, f: PartialSymPoly) -> InvolutionReport:
    """The two involution properties on one dressed operator, cached.  The
    reported M^-_m(f) is fmo's; the swap verdict is _swap_core's for every
    nonzero f, and f = 0 swaps trivially.  The reported image is the sum of
    the transformed terms, built only when the swap fails.  Involutivity is
    checked on the ring generators."""
    m = check_charge(m, ctx.v)
    f = as_dressing(ctx, m, f)
    minus = fmo(ctx, m, f, "-")
    swaps = f.is_zero() or _swap_core(ctx, m)
    image = minus if swaps else terms_value(
        transport_terms(fmo_plus_terms(ctx, m, f), partial(iota_image, ctx)), -1)
    return InvolutionReport(image, minus, swaps, involution_on_generators(ctx))


@lru_cache(maxsize=1024)
def _swap_core(ctx: GKLOContext, m) -> bool:
    """The swap identity iota(M^+_m) = M^-_m at f = 1, which decides it for
    every nonzero dressing.

    The involution sends the subset-Gamma term of M^+_m(f) to a multiple of
    u_Gamma^{-1}, the u-monomial of the subset-Gamma term of M^-_m(f), so the
    identity splits into one exact polynomial identity per subset.  The
    dressing enters both sides of each one only as the factor f|_Gamma (the
    involution fixes the w's), and the ring is a domain, so for f != 0 it
    holds exactly when it does at f = 1."""
    iota_terms = transport_terms(_unit_terms(ctx, m, "+"), partial(iota_image, ctx))
    return identity_holds(iota_terms, _unit_terms(ctx, m, "-"))


# ---------------------------------------------------------------------------
# orientation change


class InternalError(RuntimeError):
    """A consistency check that the library itself guarantees came out false."""


@dataclass(frozen=True)
class OrientationReport:
    sign: int
    matches: bool


def orientation_flip_sign(ctx: GKLOContext, edge_index: int, m, f=None) -> OrientationReport:
    """Compare M^+_m(f) computed with one edge s -> t reversed against the
    original.

    The flipped operator is transported back along the matter identification
    u_{s,p} |-> prod_q (w_{t,q} - w_{s,p}) u_{s,p},
    u_{t,q} |-> u_{t,q} / prod_p (w_{t,q} - w_{s,p});
    the two then agree up to (-1)^{m_t (v_s - m_s)}.  The sign and the
    verdict for every nonzero f are _orientation_core's; f = 0 matches
    trivially.
    """
    m = check_charge(m, ctx.v)
    f = as_dressing(ctx, m, MPoly.one() if f is None else f)
    sign, holds = _orientation_core(ctx, edge_index, m)
    return OrientationReport(sign, f.is_zero() or holds)


@lru_cache(maxsize=1024)
def _orientation_core(ctx: GKLOContext, edge_index: int, m):
    """The sign (-1)^{m_t (v_s - m_s)}, computed from the weights of the
    reversed summand, and the orientation identity at f = 1, which decides
    it for every nonzero dressing.

    The transport rescales each u-monomial and fixes every w, so the
    comparison splits into one exact polynomial identity per subset: the
    flipped subset-Gamma term picks up the factors (w_{t,q} - w_{s,p}) with
    p in Gamma_s in its numerator and those with q in Gamma_t in its
    denominator.  The dressing enters the flipped and the original subset-
    Gamma terms only as the factor f|_Gamma, so the identity for Gamma at f
    is f|_Gamma (X_Gamma - sign Y_Gamma) = 0.  f|_Gamma is a relabelling of
    f, nonzero exactly when f is, and the ring is a domain, so for f != 0 it
    holds exactly when it does at f = 1.  Nothing is divided, so unlike the
    value cores no head-tail form of f needs its own check."""
    s, t = ctx.quiver.edges[edge_index]
    # Fourier sign from the weights x_{t,q} - x_{s,p} of the reversed summand
    exponent = 0
    for q in range(1, ctx.v[t] + 1):
        for p in range(1, ctx.v[s] + 1):
            pairing = (1 if q <= m[t] else 0) - (1 if p <= m[s] else 0)
            if pairing > 0:
                exponent += pairing
    if exponent != m[t] * (ctx.v[s] - m[s]):
        raise InternalError("Fourier exponent disagrees with m_t (v_s - m_s)")
    sign = (-1) ** exponent

    flipped_ctx = GKLOContext(ctx.quiver.flip_edge(edge_index), ctx.dims)

    def transport(i, r):
        gain = [(wv(t, q), wv(s, r)) for q in range(1, ctx.v[t] + 1)] if i == s else ()
        loss = [(wv(t, r), wv(s, p)) for p in range(1, ctx.v[s] + 1)] if i == t else ()
        return (linear_product(gain),) + linear_factors(loss)

    flipped = transport_terms(_unit_terms(flipped_ctx, m, "+"), transport)
    original = _unit_terms(ctx, m, "+")
    if sign < 0:  # flipped = -original: the two sum to zero
        return sign, identity_holds(itertools.chain(flipped, original))
    return sign, identity_holds(flipped, original)


# ---------------------------------------------------------------------------
# dressing bases for the verification suites

DRESSING_BASIS_BUDGET = 10 ** 4  # elements of one dressing basis; read at call time


def _basis_size(sizes, max_degree, cap) -> int:
    """Number of block-sorted exponent patterns over blocks of the given
    sizes in total degree <= max_degree, from partition counts and without
    building any; a value over cap as soon as the count passes cap."""
    if not sizes:
        return 1
    if max_degree >= cap:
        return cap + 1  # the first block alone has a pattern in every degree
    parts = [[] for _ in sizes]  # parts[b][d][k]: partitions of d into <= k parts
    series = [[] for _ in sizes]  # series[b][d]: patterns of blocks 0..b in degree d
    count = 0
    for d in range(max_degree + 1):
        for b, size in enumerate(sizes):
            rows = parts[b]
            row = [int(d == 0)]
            for k in range(1, min(d, size) + 1):
                prev = rows[d - k]
                row.append(row[-1] + prev[min(k, len(prev) - 1)])
            rows.append(row)
            series[b].append(row[-1] if b == 0 else
                             sum(series[b - 1][a] * rows[d - a][-1] for a in range(d + 1)))
        count += series[-1][d]
        if count > cap:
            break
    return count


@lru_cache(maxsize=None)
def dressing_basis(v, m, max_degree: int = 2):
    """Symmetrized-monomial basis of the dressing ring in total degree
    <= max_degree: one orbit sum per block-sorted exponent pattern, the
    patterns ordered by total degree, then by the degree of each block
    (lexicographically), then by block pattern.  Raises
    EnumerationBudgetError, before building any element, when the basis has
    more than DRESSING_BASIS_BUDGET elements."""
    v, m = tuple(v), check_charge(m, v)
    blocks = []  # (vertex, first slot, last slot) of each nonempty block
    for i, vi in enumerate(v):
        if m[i]:
            blocks.append((i, 1, m[i]))
        if vi > m[i]:
            blocks.append((i, m[i] + 1, vi))
    size = _basis_size([last - first + 1 for _, first, last in blocks], max_degree,
                       DRESSING_BASIS_BUDGET)
    if size > DRESSING_BASIS_BUDGET:
        raise EnumerationBudgetError(
            "the dressing basis up to degree %d has more than %d elements"
            % (max_degree, DRESSING_BASIS_BUDGET))
    out = []
    for total in range(max_degree + 1):
        for split in compositions(total, len(blocks)):
            # the products over the blocks in itertools.product order, each
            # prefix product built once
            polys = [MPoly.one()]
            for block, degree in zip(blocks, split):
                polys = [p * q for p in polys for q in _block_sums(*block, degree)]
            out.extend(PartialSymPoly(p, m, v) for p in polys)
    return tuple(out)


@lru_cache(maxsize=1024)
def _block_sums(i: int, first: int, last: int, degree: int) -> tuple:
    """The orbit sums over the slots first..last of vertex i of the weakly
    decreasing exponent patterns of the given total degree, in descending
    lexicographic order.  Every charge with that block shares them."""
    variables = [wv(i, r) for r in range(first, last + 1)]

    def patterns(remaining, slots, cap):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for e in range(min(remaining, cap), -1, -1):
            for rest in patterns(remaining - e, slots - 1, e):
                yield (e,) + rest

    return tuple(orbit_sum(variables, pattern)
                 for pattern in patterns(degree, len(variables), degree))
