"""Adding-defect map on localized zastava coordinates, restriction of
monopole operators along closed embeddings of zastava spaces and slices, and
the symbolic verification of the two compatibility statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from .multipoly import (
    MPoly,
    PartialSymPoly,
    RatFunc,
    at_zero,
    identity_holds,
    linear_factors,
    linear_product,
    localized,
    tilde,
    uv,
    wv,
)
from .quiver import DimData, mat_vec
from .gklo import (
    FMO_RING,
    GKLOContext,
    _unit_terms,
    as_dressing,
    fmo,
    fmo_plus_terms,
    fmo_value,
    involution_fmo_report,
    iota_image,
    terms_value,
    transport_terms,
)


@dataclass(frozen=True)
class DefectSplit:
    v: tuple
    v_prime: tuple

    def __post_init__(self):
        if len(self.v) != len(self.v_prime):
            raise ValueError("v and v' must have the same length")
        if any(not 0 <= vp <= vi for vp, vi in zip(self.v_prime, self.v)):
            raise ValueError("need 0 <= v' <= v componentwise")

    @property
    def v_doubleprime(self):
        return tuple(vi - vp for vi, vp in zip(self.v, self.v_prime))

    @staticmethod
    def make(v, v_prime) -> "DefectSplit":
        return DefectSplit(tuple(v), tuple(v_prime))


def phi_u_image(ctx: GKLOContext, split: DefectSplit, i: int, r: int):
    """Test oracle: the image of u_{i,r} as one rational function, zero on
    the defect slots, otherwise the ratio of the tail-difference products
    times u_{i,r}.  The library route is phi_fmo_terms."""
    if r > split.v_prime[i]:
        return None
    num = MPoly.one()
    for s in range(split.v_prime[i] + 1, split.v[i] + 1):
        num = num * (MPoly.var(wv(i, r)) - MPoly.var(wv(i, s)))
    den = MPoly.one()
    for a in ctx.quiver.out_edges(i):
        t = a[1]
        for tt in range(split.v_prime[t] + 1, split.v[t] + 1):
            den = den * (MPoly.var(wv(t, tt)) - MPoly.var(wv(i, r)))
    return RatFunc.make(num * MPoly.var(uv(i, r)), den)


def phi(ctx: GKLOContext, split: DefectSplit, value: RatFunc) -> RatFunc:
    """Test oracle: the adding-defect substitution on a whole element.
    Requires non-negative u-exponents (some u's are sent to zero); a term
    containing a killed u is dropped wholesale before any normalization."""
    if split.v != ctx.v:
        raise ValueError("split does not match the context")
    if value.num.has_negative_u():
        raise ValueError("adding-defect map needs non-negative u-exponents")
    mapping = {}
    for i, vi in enumerate(split.v):
        for r in range(1, vi + 1):
            mapping[uv(i, r)] = phi_u_image(ctx, split, i, r)
    return localized(value.subs_u(mapping), "defect_loc")


def _tail(split: DefectSplit, i: int):
    return range(split.v_prime[i] + 1, split.v[i] + 1)


def phi_fmo_terms(ctx: GKLOContext, split: DefectSplit, m, f: PartialSymPoly):
    """phi applied to the defining sum of M^+_m(f) term by term: subsets
    meeting the defect slots are dropped wholesale (their u is sent to zero),
    the survivors pick up the substitution's tail factors.  Yields u-free
    (subset, numerator, factored-denominator) triples."""
    def image(i, r):
        num = linear_product((wv(i, r), wv(i, s)) for s in _tail(split, i))
        return (num,) + linear_factors((wv(t, q), wv(i, r))
                                       for _, t in ctx.quiver.out_edges(i)
                                       for q in _tail(split, t))

    yield from transport_terms(fmo_plus_terms(ctx, tuple(m), f, head=split.v_prime), image)


@dataclass(frozen=True)
class VerifyReport:
    holds: bool
    lhs: RatFunc
    rhs: RatFunc


def _defect_lhs(ctx: GKLOContext, split: DefectSplit, m, f: PartialSymPoly, at_zero: bool):
    """phi of the subset terms of M^+_m(f), specialized at the tail-zero
    divisor when at_zero."""
    lhs = []
    for gamma, num, dfac in phi_fmo_terms(ctx, split, m, f):
        t = _tail_zero_term(num, dfac, split) if at_zero else (num, dfac)
        if t is not None:
            lhs.append((gamma,) + t)
    return lhs


def _rhs_context(ctx: GKLOContext, split: DefectSplit, m):
    """The context over v' with the framing of ctx, where the right-hand side
    M^+_m(f) of the adding-defect comparison lives; None when m > v'.  For
    Gamma inside [v'] the permutation behind restrict_to_gamma fixes the
    tail slots, so f|_Gamma is the sum of f^(1)|_Gamma * f^(2) over the
    Sweedler pieces of f, and M^+_m(f) over v' is sum M^+_m(f^(1)) * f^(2)."""
    if any(mi > vp for mi, vp in zip(m, split.v_prime)):
        return None
    return GKLOContext(ctx.quiver, DimData.make(ctx.w, split.v_prime))


def _defect_comparison(ctx: GKLOContext, split: DefectSplit, m, at_zero: bool) -> bool:
    """The adding-defect comparison at f = 1, at the tail-zero divisor when
    at_zero: phi of the subset terms of M^+_m against those of M^+_m over v'
    (none when m > v').

    A dressing f enters the subset-Gamma term of either side only as the
    factor f|_Gamma: phi rescales u's and fixes w's, the right-hand side is
    dressed by f itself (see _rhs_context), and at the tail-zero divisor the
    shared factor is tilde(f)|_Gamma, a relabelling of tilde(f).  The subset
    keys are distinct and the ring is a domain, so for f != 0 (tilde(f) != 0
    at zero) the comparison holds exactly when it does at f = 1."""
    sub_ctx = _rhs_context(ctx, split, m)
    rhs = () if sub_ctx is None else _unit_terms(sub_ctx, m, "+")
    unit = PartialSymPoly(MPoly.one(), m, ctx.v)
    return identity_holds(_defect_lhs(ctx, split, m, unit, at_zero), rhs)


@lru_cache(maxsize=65536)
def _defect_core(ctx: GKLOContext, split: DefectSplit, m) -> bool:
    """The adding-defect verdict of every dressing with charge m."""
    return _defect_comparison(ctx, split, m, False)


def verify_adding_defect_theorem(ctx: GKLOContext, split: DefectSplit, m, f) -> VerifyReport:
    """Check phi(M^+_m(f)) against sum M^+_m(f^(1)) * f^(2) over the smaller
    ring (zero when m > v'), subset by subset, through the f = 1 core.  The
    right-hand side is M^+_m over v' dressed by f itself, whose subset terms
    are the Sweedler sum's (see _rhs_context).  Only the reported side is
    built: the right-hand side, and phi's terms when the check fails."""
    m = tuple(m)
    f = as_dressing(ctx, m, f)
    sub_ctx = _rhs_context(ctx, split, m)
    rhs = RatFunc.zero() if sub_ctx is None else fmo_value(sub_ctx, m, f, "+")
    if f.is_zero() or _defect_core(ctx, split, m):
        return VerifyReport(True, rhs, rhs)
    return VerifyReport(False, terms_value(_defect_lhs(ctx, split, m, f, False), 1), rhs)


def slice_target_context(ctx: GKLOContext, v_prime) -> GKLOContext:
    """Context of the smaller slice: same quiver, v', and framing
    w' = w - C v'' (the lower coweight is unchanged); w' must be dominant."""
    return _slice_target_context(ctx, tuple(v_prime))


@lru_cache(maxsize=256)
def _slice_target_context(ctx: GKLOContext, v_prime) -> GKLOContext:
    split = DefectSplit.make(ctx.v, v_prime)
    C = ctx.cartan
    w_prime = tuple(wi - x for wi, x in zip(ctx.w, mat_vec(C, split.v_doubleprime)))
    if any(x < 0 for x in w_prime):
        raise ValueError("target framing w - C v'' is not dominant")
    return GKLOContext(ctx.quiver, DimData.make(w_prime, split.v_prime))


def restrict_fmo_slice(ctx: GKLOContext, v_prime, m, f, sign: str) -> RatFunc:
    """Image of M^sign_m(f) under restriction to the smaller slice:
    M^sign_m(tilde f) in the v' context, or zero when m > v'."""
    m = tuple(m)
    f = as_dressing(ctx, m, f)
    if any(mi > vp for mi, vp in zip(m, v_prime)):
        return localized(RatFunc.zero(), FMO_RING[sign])
    target = slice_target_context(ctx, v_prime)
    return fmo(target, m, tilde(f, v_prime), sign)


def _tail_zero_term(num: MPoly, dfac: dict, split: DefectSplit):
    """at_zero at the divisor supported at zero, where the tail slots vanish."""
    return at_zero(num, dfac, [wv(i, r) for i in range(len(split.v)) for r in _tail(split, i)])


# The tail-zero core keeps a cache of its own, under this name, because
# bench/runner.py reads its statistics.
@lru_cache(maxsize=65536)
def _plus_restriction_route(ctx: GKLOContext, v_prime, m) -> bool:
    """The tail-zero defect route's verdict, for m <= v', of every dressing
    with tilde(f) != 0."""
    return _defect_comparison(ctx, DefectSplit.make(ctx.v, v_prime), m, True)


def verify_restriction(ctx: GKLOContext, v_prime, m, f, sign: str) -> VerifyReport:
    """Independent route to the slice restriction: the defect substitution
    specialized at the tail-at-zero divisor (composed with the involution for
    the negative operators), compared against restrict_fmo_slice.

    The route holds when m > v' (both sides are zero), when tilde(f) = 0
    (both sides vanish) and otherwise exactly when its f = 1 core does.  The
    right-hand side is M^sign_m(tilde f) of the target slice, the value of
    restrict_fmo_slice for either sign; the negative route also reads the
    target's involution report.  The route's own terms are built only when
    it fails."""
    m = tuple(m)
    v_prime = tuple(v_prime)
    f = as_dressing(ctx, m, f)
    target = slice_target_context(ctx, v_prime)
    if any(mi > vp for mi, vp in zip(m, v_prime)):
        return VerifyReport(True, RatFunc.zero(), RatFunc.zero())
    f_tilde = tilde(f, v_prime)
    holds = f_tilde.is_zero() or _plus_restriction_route(ctx, v_prime, m)
    split = DefectSplit.make(ctx.v, v_prime)
    route_terms = () if holds else _defect_lhs(ctx, split, m, f, True)
    rhs = restrict_fmo_slice(ctx, v_prime, m, f, sign)
    if sign == "+":
        return VerifyReport(holds, rhs if holds else terms_value(route_terms, 1), rhs)

    # negative side along the involution route
    rep = involution_fmo_report(target, m, f_tilde)
    if holds:
        lhs = rep.image
    else:
        iota_terms = transport_terms(route_terms, partial(iota_image, target))
        lhs = localized(terms_value(iota_terms, -1), "slice_loc_loc")
    return VerifyReport(holds and rep.swaps, lhs, rhs)
