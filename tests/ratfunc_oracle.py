"""Test oracles for RatFunc's canonical form.

``normal_form`` is the general normal form that RatFunc.make used before
every denominator had to be a product of linear forms: it cancels the linear
candidate factors, then takes a real polynomial gcd (multipoly.poly_gcd) of
the numerator and whatever is left of the denominator, and scales the
denominator to be integer-primitive with a positive leading coefficient.  On
a denominator that is a u-monomial times a product of linear forms it must
agree with RatFunc.make; on any other denominator it still normalizes.
"""

from quiver_fmo.multipoly import (
    MPoly,
    U_KIND,
    _monomial_content,
    candidate_poly,
    exact_div,
    factor_denominator,
    fast_linear_div,
    poly_gcd,
    rational_content,
)
from monomial_oracle import mon_div, mon_mul


def _monomial(exps: dict) -> MPoly:
    """The monomial with coefficient 1 and the given {variable: exponent}."""
    return MPoly.from_items([(tuple(sorted(exps.items())), 1)])


def _map_monomials(p: MPoly, op) -> MPoly:
    """p with op applied to each of its tuple monomials."""
    return MPoly.from_items((op(m), c) for m, c in p.items())


def normal_form(num: MPoly, den: MPoly):
    """(numerator, denominator) of num/den in lowest terms: gcd 1, the
    denominator integer-primitive with positive leading coefficient and no
    monomial factor, u-monomial factors moved to the numerator."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return MPoly.zero(), MPoly.one()
    # clear Laurent exponents so both parts are plain polynomials
    shift = {}
    for p in (num, den):
        for v in p.variables():
            if v[0] == U_KIND:
                lo = min(p.min_exponent(v), shift.get(v, 0))
                if lo < 0:
                    shift[v] = lo
    if shift:
        mono = _monomial({v: -e for v, e in shift.items()})
        num = num * mono
        den = den * mono
    # strip the common monomial factor, then push the denominator's own
    # u-monomial content into the numerator (u's are units)
    mc_num = _monomial_content(num)
    mc_den = _monomial_content(den)
    common = {v: min(e, mc_den.get(v, 0)) for v, e in mc_num.items()
              if mc_den.get(v, 0) > 0}
    u_extra = {v: e - common.get(v, 0) for v, e in mc_den.items()
               if v[0] == U_KIND and e > common.get(v, 0)}
    kill = dict(common)
    for v, e in u_extra.items():
        kill[v] = kill.get(v, 0) + e
    if kill:
        inv_den = tuple(sorted((v, -e) for v, e in kill.items()))
        den = _map_monomials(den, lambda m: mon_mul(m, inv_den))
        if common:
            inv_num = tuple(sorted((v, -e) for v, e in common.items()))
            num = _map_monomials(num, lambda m: mon_mul(m, inv_num))
        if u_extra:
            num = num * _monomial({v: -e for v, e in u_extra.items()})
    factors, leftover = factor_denominator(den)
    # cancel candidates, then a real gcd on the leftover
    kept = {}
    den = MPoly.one()
    for cand, mult in factors:
        while mult:
            q = fast_linear_div(num, cand)
            if q is None:
                break
            num = q
            mult -= 1
        if mult:
            kept[cand] = mult
            den = den * candidate_poly(cand) ** mult
    g = poly_gcd(num, leftover)
    if not g.is_const():
        num = exact_div(num, g)
        leftover = exact_div(leftover, g)
    den = den * leftover
    # move any u-monomial factor of the denominator into the numerator
    u_shift = {}
    for v in den.variables():
        if v[0] == U_KIND:
            lo = den.min_exponent(v)
            if lo > 0:
                u_shift[v] = lo
    if u_shift:
        mono = tuple(sorted(u_shift.items()))
        den = _map_monomials(den, lambda m: mon_div(m, mono))
        num = num * _monomial({v: -e for v, e in u_shift.items()})
    # scale: denominator primitive with positive leading coefficient
    content = rational_content(den)
    if content != 1:
        den = den * (1 / content)
        num = num * (1 / content)
    if num.is_zero():
        return MPoly.zero(), MPoly.one()
    return num, den


def factored_form_violations(f) -> list:
    """What is wrong with f's factored denominator, if anything: dfac must be
    a dict of positive multiplicities, den must equal the product of
    candidate_poly(k)^e over it, and no factor may divide the numerator."""
    if not isinstance(f.dfac, dict):
        return ["dfac is %r, not a dict" % (f.dfac,)]
    out = []
    den = MPoly.one()
    for k, e in f.dfac.items():
        if not (isinstance(e, int) and e > 0):
            out.append("multiplicity %r of %r" % (e, k))
            continue
        den = den * candidate_poly(k) ** e
        if fast_linear_div(f.num, k) is not None:
            out.append("factor %r divides the numerator" % (k,))
    if f.den != den:
        out.append("den %r is not the product of dfac %r" % (f.den, f.dfac))
    if f.num.is_zero() and f.dfac:
        out.append("zero with a denominator")
    return out

