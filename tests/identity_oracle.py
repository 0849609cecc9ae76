"""Test oracles for the f = 1 theorem cores: every identity checked for one
dressing on its own, with no verdict shared between dressings.

The library checks the involution swap, the adding-defect comparison and the
tail-at-zero restriction route once per charge, and the orientation change
once per (edge, charge), at f = 1, and reuses that verdict for every dressing
(``gklo._swap_core``, ``defect_embed._defect_core``,
``defect_embed._plus_restriction_route`` and ``gklo._orientation_core``).
These oracles run the subset-term comparison for the given f, and build the
reports from that verdict, so the tests can compare every field of a library
report with them.

The adding-defect right-hand side is built here as the paper writes it, in
Sweedler form: sum M^+_m(f^(1)) * f^(2) over the pieces of ``sweedler``.
The library dresses M^+_m over v' by f itself, which has the same subset
terms because the permutation behind restrict_to_gamma fixes the tail slots.

Every value M^sign_m(f) here is the keyed sum of the subset terms of f
(``fmo_value_per_f``); the library reads it from the f = 1 core of its
charge (``gklo.fmo_value``) whenever no head-tail form divides f.
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
    OrientationReport,
    as_dressing,
    fmo_minus_terms,
    fmo_plus_terms,
    involution_on_generators,
    iota_image,
    terms_value,
    transport_terms,
)
from quiver_fmo.multipoly import (
    MPoly,
    PartialSymPoly,
    RatFunc,
    identity_holds,
    linear_factors,
    linear_product,
    localized,
    tilde,
    wv,
)
from quiver_fmo.quiver import DimData
from monomial_oracle import MON_KEY


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
    for mon, c in f.value.items():
        tail = tuple((var, e) for var, e in mon if var in tail_vars)
        head = tuple((var, e) for var, e in mon if var not in tail_vars)
        groups.setdefault(tail, {})[head] = c
    out = []
    for tail in sorted(groups, key=MON_KEY):
        head_poly = PartialSymPoly.make(MPoly.from_items(groups[tail].items()), f.m, v_prime)
        out.append((head_poly, MPoly.from_items([(tail, 1)])))
    return out


def fmo_value_per_f(ctx, m, f, sign: str):
    """M^sign_m(f) as the keyed sum of the subset terms of f itself."""
    m = tuple(m)
    f = as_dressing(ctx, m, f)
    if sign == "+":
        return terms_value(fmo_plus_terms(ctx, m, f), 1)
    return terms_value(fmo_minus_terms(ctx, m, f), -1)


def _negated(terms):
    return [(gamma, -num, dfac) for gamma, num, dfac in terms]


def involution_report_per_f(ctx, m, f) -> InvolutionReport:
    """The involution report with the swap identity checked for f itself."""
    m = tuple(m)
    f = as_dressing(ctx, m, f)
    iota_terms = list(transport_terms(fmo_plus_terms(ctx, m, f), partial(iota_image, ctx)))
    minus_terms = list(fmo_minus_terms(ctx, m, f))
    swaps = identity_holds(iota_terms + _negated(minus_terms))
    minus = localized(terms_value(minus_terms, -1), "slice_loc")
    image = minus if swaps else terms_value(iota_terms, -1)
    return InvolutionReport(image, minus, swaps, involution_on_generators(ctx))


def orientation_report_per_f(ctx, edge_index, m, f) -> OrientationReport:
    """The orientation report with the transported flipped operator compared
    with the signed original for f itself, one subset at a time; the sign is
    the closed form (-1)^{m_t (v_s - m_s)}."""
    m = tuple(m)
    f = as_dressing(ctx, m, f)
    s, t = ctx.quiver.edges[edge_index]
    sign = (-1) ** (m[t] * (ctx.v[s] - m[s]))
    flipped_ctx = GKLOContext(ctx.quiver.flip_edge(edge_index), ctx.dims)

    def transport(i, r):
        gain = [(wv(t, q), wv(s, r)) for q in range(1, ctx.v[t] + 1)] if i == s else ()
        loss = [(wv(t, r), wv(s, p)) for p in range(1, ctx.v[s] + 1)] if i == t else ()
        return (linear_product(gain),) + linear_factors(loss)

    keyed = list(transport_terms(fmo_plus_terms(flipped_ctx, m, f), transport))
    keyed.extend((gamma, num * -sign, dfac) for gamma, num, dfac in fmo_plus_terms(ctx, m, f))
    return OrientationReport(sign, identity_holds(keyed))


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
        direct = route if holds else restrict_fmo_slice(ctx, v_prime, m, f, "+")
        return VerifyReport(holds, route, direct)
    if any(mi > vp for mi, vp in zip(m, v_prime)):
        return VerifyReport(holds, RatFunc.zero(), RatFunc.zero())
    target = slice_target_context(ctx, v_prime)
    rep = involution_report_per_f(target, m, tilde(f, v_prime))
    if holds:
        image = rep.image
    else:
        iota_terms = transport_terms(lhs, partial(iota_image, target))
        image = localized(terms_value(iota_terms, -1), "slice_loc_loc")
    return VerifyReport(holds and rep.swaps, image, rep.minus)
