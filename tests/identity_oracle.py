"""Test oracles for the f = 1 theorem cores: every identity checked for one
dressing on its own, with no verdict shared between dressings.

The library checks the involution swap, the adding-defect comparison and the
tail-at-zero restriction route once per charge, at f = 1, and reuses that
verdict for every dressing (``gklo.involution_fmo_report``,
``defect_embed._defect_core``, ``defect_embed._plus_restriction_route``).
These oracles run the subset-term comparison for the given f, and build the
reports from that verdict, so the tests can compare every field of a library
report with them.

The adding-defect right-hand side is built here as the paper writes it, in
Sweedler form: sum M^+_m(f^(1)) * f^(2) over the pieces of ``sweedler``.
The library dresses M^+_m over v' by f itself, which has the same subset
terms because the permutation behind restrict_to_gamma fixes the tail slots.
"""

from functools import partial

from quiver_fmo.defect_embed import (
    DefectSplit,
    VerifyReport,
    _tail_zero_term,
    phi_fmo_terms,
    restrict_fmo_slice,
    slice_target_context,
)
from quiver_fmo.gklo import (
    GKLOContext,
    InvolutionReport,
    as_dressing,
    fmo_minus_terms,
    fmo_plus_terms,
    involution_on_generators,
    iota_image,
    terms_value,
    transport_terms,
)
from quiver_fmo.multipoly import (
    GKLOElement,
    MPoly,
    PartialSymPoly,
    RatFunc,
    _MON_KEY,
    identity_holds,
    tilde,
    wv,
)
from quiver_fmo.quiver import DimData


def sweedler(f: PartialSymPoly, v_prime):
    """Decompose f over head variables (slots <= v'_i) times tail monomials
    (slots > v'_i); returns [(head: PartialSymPoly over v', tail: MPoly)] with
    sum(head*tail) == f, ordered by tail monomial."""
    v_prime = tuple(v_prime)
    if any(not mi <= vpi <= vi for mi, vpi, vi in zip(f.m, v_prime, f.v)):
        raise ValueError("need m <= v' <= v componentwise")
    tail_vars = {wv(i, r) for i, (vpi, vi) in enumerate(zip(v_prime, f.v))
                 for r in range(vpi + 1, vi + 1)}
    groups = {}
    for mon, c in f.value.terms.items():
        tail = tuple((var, e) for var, e in mon if var in tail_vars)
        head = tuple((var, e) for var, e in mon if var not in tail_vars)
        groups.setdefault(tail, {})[head] = c
    out = []
    for tail in sorted(groups, key=_MON_KEY):
        head_poly = PartialSymPoly(MPoly(groups[tail]), f.m, v_prime)
        out.append((head_poly, MPoly({tail: 1})))
    return out


def _negated(terms):
    return [(gamma, -num, dfac) for gamma, num, dfac in terms]


def involution_report_per_f(ctx, m, f) -> InvolutionReport:
    """The involution report with the swap identity checked for f itself."""
    m = tuple(m)
    f = as_dressing(ctx, m, f)
    iota_terms = list(transport_terms(fmo_plus_terms(ctx, m, f), partial(iota_image, ctx)))
    minus_terms = list(fmo_minus_terms(ctx, m, f))
    swaps = identity_holds(iota_terms + _negated(minus_terms))
    minus = GKLOElement.make(terms_value(minus_terms, -1), "slice_loc").value
    image = minus if swaps else terms_value(iota_terms, -1)
    return InvolutionReport(image, minus, swaps, involution_on_generators(ctx))


def defect_sides_per_f(ctx, split, m, f, at_zero: bool):
    """(lhs terms, rhs terms, holds) of the defect comparison for f: phi of
    M^+_m(f), at the tail-zero divisor when at_zero, against M^+_m(f^(1)) *
    f^(2) over v' summed over the Sweedler pieces (tilde f alone at zero)."""
    lhs = []
    for gamma, num, dfac in phi_fmo_terms(ctx, split, m, f):
        t = _tail_zero_term(num, dfac, split) if at_zero else (num, dfac)
        if t is not None:
            lhs.append((gamma,) + t)
    rhs = []
    if all(mi <= vp for mi, vp in zip(m, split.v_prime)):
        sub_ctx = GKLOContext(ctx.quiver, DimData.make(ctx.w, split.v_prime))
        pieces = [(tilde(f, split.v_prime), 1)] if at_zero else sweedler(f, split.v_prime)
        for f1, f2 in pieces:
            rhs.extend((gamma, num * f2, dfac) for gamma, num, dfac
                       in fmo_plus_terms(sub_ctx, m, f1))
    return lhs, rhs, identity_holds(lhs + _negated(rhs))


def adding_defect_report_per_f(ctx, split, m, f) -> VerifyReport:
    m = tuple(m)
    f = as_dressing(ctx, m, f)
    lhs, rhs, holds = defect_sides_per_f(ctx, split, m, f, False)
    rhs_value = terms_value(rhs, 1)
    return VerifyReport(holds, rhs_value if holds else terms_value(lhs, 1), rhs_value)


def restriction_report_per_f(ctx, v_prime, m, f, sign: str) -> VerifyReport:
    """The restriction report with the tail-at-zero route and the target's
    involution swap checked for f itself."""
    m, v_prime = tuple(m), tuple(v_prime)
    f = as_dressing(ctx, m, f)
    split = DefectSplit.make(ctx.v, v_prime)
    lhs, rhs, holds = defect_sides_per_f(ctx, split, m, f, True)
    route = terms_value(rhs if holds else lhs, 1)
    if sign == "+":
        direct = route if holds else restrict_fmo_slice(ctx, v_prime, m, f, "+").value
        return VerifyReport(holds, route, direct)
    if any(mi > vp for mi, vp in zip(m, v_prime)):
        return VerifyReport(holds, RatFunc.zero(), RatFunc.zero())
    target = slice_target_context(ctx, v_prime)
    rep = involution_report_per_f(target, m, tilde(f, v_prime))
    if holds:
        image = rep.image
    else:
        iota_terms = transport_terms(lhs, partial(iota_image, target))
        image = GKLOElement.make(terms_value(iota_terms, -1), "slice_loc_loc").value
    return VerifyReport(holds and rep.swaps, image, rep.minus)
