"""Kernel tests: polynomial/rational arithmetic, gcd, canonical forms, the
dressing ring operations, and the localized-ring element checks."""

import itertools
import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quiver_fmo.multipoly import (
    EXPONENT_MAX,
    EXPONENT_MIN,
    AdmissibilityError,
    DenominatorError,
    ExponentRangeError,
    MPoly,
    ParseError,
    PartialSymPoly,
    RatFunc,
    SymmetryError,
    U_KIND,
    ZVAR,
    _POSITION,
    _dfac_mul_into,
    _difference_divides,
    _encode,
    _order_key,
    _pairs,
    _poly_text,
    as_univar,
    at_zero,
    candidate_poly,
    check_symmetric,
    core_sum,
    diff_key,
    exact_div,
    head_tail_divides,
    identity_holds,
    keyed_sum,
    linear_factors,
    linear_product,
    localized,
    mon_mul,
    orbit_sum,
    over_head_powers,
    parse_poly,
    poly_gcd,
    poly_text,
    ratfunc_sum,
    ratfunc_text,
    restrict_to_gamma,
    tilde,
    try_div,
    uv,
    var_text,
    wv,
)
import monomial_oracle as oracle
from identity_oracle import sweedler
from ratfunc_oracle import factored_form_violations, normal_form

W11, W12, W13 = MPoly.var(wv(0, 1)), MPoly.var(wv(0, 2)), MPoly.var(wv(0, 3))
U11, U12 = MPoly.var(uv(0, 1)), MPoly.var(uv(0, 2))
Z = MPoly.var(ZVAR)


# ---------------------------------------------------------------------------
# rational arithmetic (spec examples)


def test_add_with_common_pole():
    a = RatFunc.make(U11, W11 - W12)
    b = RatFunc.make(U12, W12 - W11)
    assert a + b == RatFunc.make(U11 - U12, W11 - W12)


def test_additive_identity():
    f = RatFunc.make(U11 * W12 + 3, W11 - W12)
    assert f + RatFunc.zero() == f


def test_gcd_cancellation():
    assert RatFunc.make((W11 - W12) * U11, W11 - W12) == RatFunc.make(U11)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RatFunc.make(U11, MPoly.zero())
    with pytest.raises(ZeroDivisionError):
        RatFunc.make(U11) / RatFunc.zero()


def test_laurent_normalization():
    # denominator u-monomials migrate into the numerator
    f = RatFunc.make(MPoly.one(), U11)
    assert f.den == MPoly.one()
    assert f.num == MPoly.var(uv(0, 1), -1)
    g = RatFunc.make(U11 ** 2 * W11, U11 * (W11 - W12))
    assert g == RatFunc.make(U11 * W11, W11 - W12)


def test_denominator_canonical_scaling():
    # leading coefficient positive, integer content 1
    f = RatFunc.make(W11, 2 * W12 - 2 * W11)
    assert f.den == W11 - W12
    assert f.num == W11 * Fraction(-1, 2)


# ---------------------------------------------------------------------------
# gcd and division


def test_poly_gcd_linear_and_nonlinear():
    assert poly_gcd((W11 - W12) ** 2 * (W11 + W12), (W11 - W12) * W11) == W11 - W12
    p = (W11 ** 2 + W12 + 1) * (W11 + W12 ** 3)
    q = (W11 ** 2 + W12 + 1) * (W12 - 3)
    assert poly_gcd(p, q) == W11 ** 2 + W12 + 1


def test_exact_div_failure():
    assert try_div(W11 + W12, W11 - W12) is None
    with pytest.raises(ValueError):
        exact_div(W11 + W12, W11 - W12)


small_coeff = st.integers(min_value=-4, max_value=4)


def poly_strategy(vars_, max_terms=4, max_exp=3):
    mono = st.lists(
        st.tuples(st.sampled_from(vars_), st.integers(min_value=1, max_value=max_exp)),
        max_size=2,
    )
    def build(pairs_coeffs):
        total = MPoly.zero()
        for pairs, c in pairs_coeffs:
            term = MPoly.const(c)
            for v, e in pairs:
                term = term * MPoly.var(v, e)
            total = total + term
        return total
    return st.lists(st.tuples(mono, small_coeff), max_size=max_terms).map(build)


WVARS = [wv(0, 1), wv(0, 2), wv(1, 1)]


@settings(max_examples=80, deadline=None)
@given(poly_strategy(WVARS), poly_strategy(WVARS), poly_strategy(WVARS))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(poly_strategy(WVARS), poly_strategy(WVARS), poly_strategy(WVARS))
def test_gcd_common_factor(a, b, c):
    if c.is_zero():
        return
    g = poly_gcd(a * c, b * c)
    if (a * c).is_zero() and (b * c).is_zero():
        return
    # c divides the gcd of ac and bc
    assert try_div(g, poly_gcd(c, c)) is not None


def test_gcd_large_common_factor():
    # a draw that ran for minutes before the subresultant remainder sequence
    a = parse_poly("-w[2,1]^5 + 4")
    b = parse_poly("-4*w[1,2]^3*w[2,1]^3 + 4*w[1,2]^3 + 3*w[1,2]^2 - 2")
    c = parse_poly("-w[1,1]^3*w[2,1] - 3*w[1,1] - w[1,2] + 1")
    assert poly_gcd(a * c, b * c) == -c


def to_sympy(sympy, p):
    total = sympy.Integer(0)
    for mono, c in p.items():
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for var, e in mono:
            term *= sympy.Symbol(var_text(var)) ** e
        total += term
    return total


@settings(max_examples=40, deadline=None)
@given(poly_strategy(WVARS), poly_strategy(WVARS), poly_strategy(WVARS))
def test_gcd_and_normal_form_against_sympy(a, b, c):
    """Differential oracle: poly_gcd agrees with sympy's gcd up to a constant,
    and the general normal-form oracle returns an equal, fully reduced
    fraction."""
    sympy = pytest.importorskip("sympy")
    a, b = a * c, b * c
    if a.is_zero() and b.is_zero():
        return
    g, expected = to_sympy(sympy, poly_gcd(a, b)), sympy.gcd(to_sympy(sympy, a),
                                                             to_sympy(sympy, b))
    assert sympy.cancel(g / expected).is_number
    if b.is_zero():
        return
    num, den = (to_sympy(sympy, p) for p in normal_form(a, b))
    assert sympy.expand(num * to_sympy(sympy, b) - den * to_sympy(sympy, a)) == 0
    assert sympy.gcd(num, den).is_number


def test_ratfunc_refuses_a_denominator_that_is_not_linear():
    # only u-monomials and products of the linear forms x_a - x_b and x_a
    # may divide
    for num, den in [(U11, U11 + 1), (MPoly.one(), W11 + W12), (U11, U11 * (W11 + 1))]:
        with pytest.raises(DenominatorError):
            RatFunc.make(num, den)


# the domain of RatFunc: c * u-monomial * a product of linear forms
LINEAR_VARS = [wv(0, 1), wv(0, 2), wv(1, 1), ZVAR]
linear_forms = st.one_of(
    st.sampled_from(LINEAR_VARS).map(MPoly.var),
    st.permutations(LINEAR_VARS).map(lambda vs: MPoly.var(vs[0]) - MPoly.var(vs[1])))
u_monomials = st.dictionaries(st.sampled_from([uv(0, 1), uv(0, 2)]),
                              st.integers(min_value=-2, max_value=2).filter(bool),
                              max_size=2).map(
    lambda d: MPoly.from_items([(tuple(sorted(d.items())), 1)]))
nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@st.composite
def linear_denominators(draw):
    out = MPoly.const(draw(nonzero)) * draw(u_monomials)
    for form in draw(st.lists(linear_forms, max_size=4)):
        out = out * form
    return out


NUM_VARS = WVARS + [ZVAR, uv(0, 1)]


def assert_matches_oracle(f, num, den):
    assert not factored_form_violations(f), factored_form_violations(f)
    assert (f.num, f.den) == normal_form(num, den)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(NUM_VARS), linear_denominators(), linear_denominators())
def test_ratfunc_representative_independence(a, b, c):
    f = RatFunc.make(a * c, b * c)
    assert f == RatFunc.make(a, b)
    assert_matches_oracle(f, a * c, b * c)
    assert_matches_oracle(RatFunc.make(a, b), a, b)


@settings(max_examples=60, deadline=None)
@given(linear_denominators(), linear_denominators(), poly_strategy(NUM_VARS))
def test_ratfunc_field_ops(a, b, c):
    f = RatFunc.make(a, b)
    assert_matches_oracle(f, a, b)
    assert f - f == RatFunc.zero()
    assert f * RatFunc.one() == f
    assert f / f == RatFunc.one()
    assert f * f ** -1 == RatFunc.one()
    g = RatFunc.make(c, b)
    assert_matches_oracle(g, c, b)
    assert g - g == RatFunc.zero()
    assert g * RatFunc.one() == g


@settings(max_examples=60, deadline=None)
@given(poly_strategy(NUM_VARS), linear_denominators(), linear_denominators(),
       poly_strategy(NUM_VARS), st.integers(min_value=-2, max_value=3))
def test_ratfunc_ops_keep_the_factored_form(a, b, c, d, n):
    f, g = RatFunc.make(a, b), RatFunc.make(d, c)
    results = [f + g, f - g, f * g, -f, f ** max(n, 0)]
    if n < 0:
        # a negative power divides by the numerator, which must be linear too
        results.append(RatFunc.make(c, b) ** n)
    for h in results:
        assert not factored_form_violations(h), factored_form_violations(h)


# Laurent polynomials: negative u-exponents, Fraction coefficients, and zero
laurent_polys = st.lists(
    st.tuples(u_monomials, poly_strategy(NUM_VARS),
              st.fractions(min_value=-4, max_value=4, max_denominator=3)),
    max_size=3).map(lambda parts: sum((u * p * c for u, p, c in parts), MPoly.zero()))


@settings(max_examples=60, deadline=None)
@given(laurent_polys, st.one_of(st.integers(-3, 3), nonzero))
def test_polynomials_lift_to_the_pair_make_builds(p, c):
    for value in (p, c):
        made = RatFunc.make(value)
        for lifted in (RatFunc.from_poly(value), RatFunc._lift(value)):
            assert lifted.num.terms == made.num.terms
            assert lifted.dfac == made.dfac == {}
            assert lifted == made and hash(lifted) == hash(made)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(NUM_VARS), linear_denominators(), linear_denominators(),
       poly_strategy(NUM_VARS))
def test_equal_values_hash_alike_and_den_is_derived(a, b, d, c):
    f = RatFunc.make(a * d, b * d)
    g = RatFunc.make(c, d)
    routes = [RatFunc.make(a, b), (f + g) - g, RatFunc.make(a, b * d) * RatFunc.from_poly(d),
              RatFunc.from_poly(a) * RatFunc.make(MPoly.one(), b)]
    for h in routes:
        assert h == f and hash(h) == hash(f)
    # den is the expanded denominator that make factored: it clears the
    # fraction exactly and agrees with the general normal form
    for h, num, den in ((f, a * d, b * d), (g, c, d)):
        assert h.den is h.den
        assert h.num * den == h.den * num
        assert h.den == normal_form(num, den)[1]


@settings(max_examples=60, deadline=None)
@given(poly_strategy(WVARS))
def test_text_roundtrip(p):
    assert parse_poly(poly_text(p)) == p


def test_parse_budget():
    # each power, product and integer literal is checked before it is expanded
    for text in ["(w[1,1]+w[1,2]+z)^300", "2^20000", "3^500*3^500",
                 "(w[1,1]+z)^600*(w[1,1]+z)^600", "1" + "0" * 400]:
        with pytest.raises(ParseError):
            parse_poly(text)
    assert len(parse_poly("(w[1,1]+w[1,2]+z)^43").terms) == 990
    assert parse_poly("w[1,1]^5000") == W11 ** 5000  # one term, coefficient 1
    assert parse_poly("(w[1,1]/2+z/3)^10") == (W11 * Fraction(1, 2) + Z * Fraction(1, 3)) ** 10


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("w[0,1]")  # 1-based indices
    with pytest.raises(ParseError):
        parse_poly("q[1,1]")
    with pytest.raises(ParseError):
        parse_poly("w[1,1]^-1")
    with pytest.raises(ParseError):
        parse_poly("1/w[1,1]")
    assert parse_poly("u[1,1]^-2 * 3 - z") == 3 * MPoly.var(uv(0, 1), -2) - Z


# ---------------------------------------------------------------------------
# dressing ring


def test_restrict_to_gamma_transposition():
    f = PartialSymPoly.make(W11, (1,), (2,))
    assert restrict_to_gamma(f, ((2,),)) == W12


def test_restrict_to_gamma_identity():
    f = PartialSymPoly.make(W11 ** 2 * W12, (1,), (2,))
    assert restrict_to_gamma(f, ((1,),)) == f.value


def test_restrict_to_gamma_example():
    f = PartialSymPoly.make(W11 ** 2 * W12, (1,), (2,))
    assert restrict_to_gamma(f, ((2,),)) == W12 ** 2 * W11


def test_restrict_to_gamma_rep_independence():
    # v=(3), m=(1): all coset representatives give the same image
    f = PartialSymPoly.make(W11 ** 2 * (W12 + W13), (1,), (3,))
    img = restrict_to_gamma(f, ((2,),))
    for perm in itertools.permutations((1, 3)):
        varmap = {wv(0, 1): wv(0, 2)}
        varmap[wv(0, 2)] = wv(0, perm[0])
        varmap[wv(0, 3)] = wv(0, perm[1])
        assert f.value.permute_vars(varmap) == img


def test_partial_sym_validation():
    with pytest.raises(SymmetryError):
        PartialSymPoly.make(W11, (0,), (2,))
    with pytest.raises(ValueError):
        PartialSymPoly.make(U11, (1,), (1,))
    with pytest.raises(ValueError):
        PartialSymPoly.make(W13, (1,), (2,))
    # z rides along untouched
    PartialSymPoly.make(Z * (W11 + W12), (0,), (2,))


def test_tilde():
    f = PartialSymPoly.make(W11 * W12, (1,), (2,))
    assert tilde(f, (1,)).value.is_zero()
    g = PartialSymPoly.make(MPoly.const(5), (1,), (2,))
    assert tilde(g, (1,)).value == MPoly.const(5)
    h = PartialSymPoly.make(W11 + W12, (0,), (2,))
    assert tilde(h, (1,)).value == W11
    with pytest.raises(ValueError):
        tilde(f, (0,))


def test_sweedler_example():
    f = PartialSymPoly.make(W11 + W12, (1,), (2,))
    pairs = sweedler(f, (1,))
    assert len(pairs) == 2
    assert pairs[0][0].value == W11 and pairs[0][1] == MPoly.one()
    assert pairs[1][0].value == MPoly.one() and pairs[1][1] == W12


def test_sweedler_head_only():
    f = PartialSymPoly.make(W11 ** 2, (1,), (2,))
    pairs = sweedler(f, (1,))
    assert pairs == [(PartialSymPoly.make(W11 ** 2, (1,), (1,)), MPoly.one())]


def _random_partial_sym(v, m, seed):
    # symmetrize a pseudo-random polynomial over the block group
    import random

    rng = random.Random(seed)
    base = MPoly.zero()
    vars_ = [wv(i, r) for i, vi in enumerate(v) for r in range(1, vi + 1)]
    for _ in range(4):
        term = MPoly.const(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2)):
            term = term * MPoly.var(rng.choice(vars_))
        base = base + term
    out = MPoly.zero()
    blocks = []
    for i, vi in enumerate(v):
        blocks.append([wv(i, r) for r in range(1, m[i] + 1)])
        blocks.append([wv(i, r) for r in range(m[i] + 1, vi + 1)])
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        varmap = {}
        for block, perm in zip(blocks, perms):
            varmap.update(dict(zip(block, perm)))
        out = out + base.permute_vars(varmap)
    return PartialSymPoly.make(out, m, v)


@pytest.mark.parametrize("v,m,vp", [((2,), (1,), (1,)), ((3,), (1,), (2,)),
                                    ((2, 2), (1, 0), (1, 1)), ((3, 1), (2, 1), (2, 1))])
def test_sweedler_roundtrip_and_tilde(v, m, vp):
    for seed in range(4):
        f = _random_partial_sym(v, m, seed)
        pairs = sweedler(f, vp)
        total = MPoly.zero()
        for f1, f2 in pairs:
            total = total + f1.value * f2
        assert total == f.value
        # evaluating the tails at zero recovers tilde
        tails = [wv(i, r) for i, (a, b) in enumerate(zip(vp, v))
                 for r in range(a + 1, b + 1)]
        total0 = MPoly.zero()
        for f1, f2 in pairs:
            total0 = total0 + f1.value * f2.subs_zero(tails)
        assert total0 == tilde(f, vp).value


# ---------------------------------------------------------------------------
# localized-ring elements


def test_check_symmetric():
    e = RatFunc.make(U11 - U12, W11 - W12)
    assert check_symmetric(e, (2,))
    assert not check_symmetric(RatFunc.make(U11), (2,))
    assert check_symmetric(RatFunc.make(U11), (1,))


def test_ring_tag_validation():
    ok = RatFunc.make(U11, W11 - W12)
    localized(ok, "slice_loc")
    localized(ok, "zastava_loc")
    bad_cross = RatFunc.make(U11, MPoly.var(wv(0, 1)) - MPoly.var(wv(1, 1)))
    with pytest.raises(AdmissibilityError):
        localized(bad_cross, "slice_loc")
    localized(bad_cross, "defect_loc")
    bad_w = RatFunc.make(U11, W11)
    with pytest.raises(AdmissibilityError):
        localized(bad_w, "slice_loc")
    localized(bad_w, "slice_loc_loc")
    neg_u = RatFunc.make(MPoly.var(uv(0, 1), -1))
    with pytest.raises(AdmissibilityError, match="^negative u-exponent in zastava_loc$"):
        localized(neg_u, "zastava_loc")
    localized(neg_u, "slice_loc")


def test_ratfunc_text_shapes():
    assert ratfunc_text(RatFunc.make(U11)) == "u[1,1]"
    assert ratfunc_text(RatFunc.make(U11, W11 - W12)) == "(u[1,1])/(w[1,1] - w[1,2])"


@pytest.mark.parametrize("int_poly,fraction_poly,text", [
    (MPoly.from_items([((), 2)]), MPoly.from_items([((), Fraction(2))]), "2"),
    (W11, MPoly.from_items([(((wv(0, 1), 1),), Fraction(1))]), "w[1,1]"),
])
def test_equal_polynomials_render_alike_through_the_cache(int_poly, fraction_poly, text):
    # equal polynomials share one cache entry, whichever spelling fills it
    for first, second in ((int_poly, fraction_poly), (fraction_poly, int_poly)):
        _poly_text.cache_clear()
        assert poly_text(first) == text
        assert poly_text(second) == text
        assert _poly_text.cache_info().hits == 1


def test_denominator_queries():
    mixed = RatFunc.make(U11, (W11 - W12) * MPoly.var(wv(1, 1)) ** 2)
    assert mixed.den_variables() == {wv(0, 1), wv(0, 2), wv(1, 1)}
    assert not mixed.den_is_monomial()
    mono = RatFunc.make(U11, W11 * Z)
    assert mono.den_variables() == {wv(0, 1), ZVAR}
    assert mono.den_is_monomial()
    poly = RatFunc.make(W11 - W12)
    assert poly.den_variables() == set() and poly.den_is_monomial()


def _value(p, point):
    total = Fraction(0)
    for mon, c in p.items():
        term = Fraction(c)
        for var, e in mon:
            term *= point[var] ** e
        total += term
    return total


def _den(dfac):
    den = MPoly.one()
    for k, e in dfac.items():
        den = den * candidate_poly(k) ** e
    return den


AT_ZERO_VARS = [wv(0, 1), wv(0, 2), wv(1, 1), ZVAR]
AT_ZERO_FACTORS = ([diff_key(a, b)[0] for a, b in itertools.combinations(AT_ZERO_VARS, 2)]
                   + [("var", v) for v in AT_ZERO_VARS])


@settings(max_examples=120, deadline=None)
@given(poly_strategy(AT_ZERO_VARS),
       st.dictionaries(st.sampled_from(AT_ZERO_FACTORS), st.integers(1, 3), max_size=3),
       st.sets(st.sampled_from(AT_ZERO_VARS), max_size=2),
       st.randoms(use_true_random=False))
@example(W12, {diff_key(wv(0, 1), wv(1, 1))[0]: 1}, {wv(0, 1)}, random.Random(0))
@example(W12, {diff_key(wv(0, 1), wv(1, 1))[0]: 2}, {wv(0, 1)}, random.Random(0))
def test_at_zero_against_point_evaluation(num, dfac, dead, rnd):
    """at_zero(num, dfac, dead) equals num / den with the dead variables set
    to zero, at random rational points of the others: None when the
    numerator vanishes there, ZeroDivisionError when a form of the
    denominator does, and no form of its result vanishes there."""
    if num.subs_zero(dead).is_zero():
        assert at_zero(num, dfac, dead) is None
        return
    if any(all(v in dead for v in k[1:]) for k in dfac):
        with pytest.raises(ZeroDivisionError, match="denominator vanishes at the zero divisor"):
            at_zero(num, dfac, dead)
        return
    got_num, got_dfac = at_zero(num, dfac, dead)
    assert all(v not in dead for k in got_dfac for v in k[1:])
    den, got_den = _den(dfac), _den(got_dfac)
    checked = 0
    for _ in range(20):
        point = {v: Fraction(0) if v in dead else Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))
                 for v in AT_ZERO_VARS}
        d = _value(den, point)
        if d:
            assert _value(num, point) / d == _value(got_num, point) / _value(got_den, point)
            checked += 1
    assert checked


def test_at_zero_collapses_forms_onto_the_live_variable():
    # the smaller variable of x_a - x_b vanishing leaves -x_b: an odd
    # multiplicity flips the numerator's sign, an even one does not
    key, _ = diff_key(wv(0, 1), wv(1, 1))
    assert at_zero(W12, {key: 1}, [wv(0, 1)]) == (-W12, {("var", wv(1, 1)): 1})
    assert at_zero(W12, {key: 2}, [wv(0, 1)]) == (W12, {("var", wv(1, 1)): 2})
    assert at_zero(W12, {key: 3}, [wv(1, 1)]) == (W12, {("var", wv(0, 1)): 3})
    # forms collapsing onto one variable add up with its own factor
    other, _ = diff_key(wv(0, 1), ZVAR)
    dfac = {key: 1, other: 2, ("var", wv(0, 1)): 1, diff_key(wv(0, 2), wv(1, 1))[0]: 1}
    assert at_zero(W12, dfac, [wv(1, 1), ZVAR]) == (
        W12, {("var", wv(0, 1)): 4, ("var", wv(0, 2)): 1})
    assert at_zero(W12 * W11, dfac, [wv(0, 1)]) is None
    with pytest.raises(ZeroDivisionError):
        at_zero(W12, dfac, [wv(0, 1)])


@pytest.mark.parametrize("pattern", [(), (0, 0), (2, 0), (1, 1, 0), (2, 1, 0), (3, 1, 1, 0)])
def test_orbit_sum_against_all_permutations(pattern):
    # the sum over all permutations counts each distinct one once per
    # permutation of the equal entries
    variables = [wv(1, r) for r in range(2, 2 + len(pattern))]
    brute = MPoly.zero()
    for perm in itertools.permutations(pattern):
        term = MPoly.one()
        for var, e in zip(variables, perm):
            term = term * MPoly.var(var, e)
        brute = brute + term
    repeats = 1
    for e in set(pattern):
        repeats *= math.factorial(pattern.count(e))
    assert orbit_sum(variables, pattern) * repeats == brute


# ---------------------------------------------------------------------------
# monomial order and product


def mon_cmp_oracle(m1, m2) -> int:
    """Test oracle for _MON_KEY: graded lexicographic order over the fixed
    variable order by a two-pointer walk; a variable absent from one side
    counts as exponent 0."""
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i = j = 0
    while i < len(m1) or j < len(m2):
        v1 = m1[i][0] if i < len(m1) else None
        v2 = m2[j][0] if j < len(m2) else None
        if v1 == v2:
            e1, e2 = m1[i][1], m2[j][1]
            if e1 != e2:
                # higher exponent on an earlier variable is larger
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif v2 is None or (v1 is not None and v1 < v2):
            return 1 if m1[i][1] > 0 else -1
        else:
            return -1 if m2[j][1] > 0 else 1
    return 0


def merge_mul_oracle(m1, m2):
    """Test oracle for mon_mul: add exponents, drop zeros, sort."""
    out = dict(m1)
    for v, e in m2:
        out[v] = out.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in out.items() if e))


MON_VARS = [wv(0, 1), wv(0, 2), wv(1, 1), wv(1, 3), uv(0, 1), uv(0, 2), uv(1, 1), ZVAR]


def _exponent(var):
    lo = -2 if var[0] == U_KIND else 1
    return st.integers(min_value=lo, max_value=3).filter(bool)


# empty monomials included; u exponents may be negative
monomials = st.lists(st.sampled_from(MON_VARS), unique=True, max_size=5).flatmap(
    lambda vs: st.tuples(*(_exponent(v) for v in vs)).map(
        lambda es: tuple(sorted(zip(vs, es)))))


@settings(max_examples=200, deadline=None)
@given(st.lists(monomials, unique=True, max_size=12))
def test_mon_key_matches_the_comparison_oracle(ms):
    # the tuple oracle's key against a two-pointer comparison, and the order
    # of the packed monomials against both
    assert sorted(ms, key=oracle.MON_KEY) == sorted(ms, key=cmp_to_key(mon_cmp_oracle))
    packed = [_encode(m) for m in ms]
    key = _order_key()
    assert [_pairs(m) for m in sorted(packed, key=key)] == sorted(ms, key=oracle.MON_KEY)
    for m1, m2 in itertools.product(ms[:4], repeat=2):
        want = mon_cmp_oracle(m1, m2)
        k1, k2 = oracle.MON_KEY(m1), oracle.MON_KEY(m2)
        assert (k1 > k2) - (k1 < k2) == want, (m1, m2)
        k1, k2 = key(_encode(m1)), key(_encode(m2))
        assert (k1 > k2) - (k1 < k2) == want, (m1, m2)


@settings(max_examples=300, deadline=None)
@given(monomials, monomials, st.booleans())
def test_mon_mul_matches_a_plain_merge(m1, m2, cancel):
    if cancel:
        # give m2 the inverse u exponents of m1, so they cancel in the product
        exps = dict(m2)
        exps.update((v, -e) for v, e in m1 if v[0] == U_KIND)
        m2 = tuple(sorted(exps.items()))
    want = merge_mul_oracle(m1, m2)
    assert oracle.mon_mul(m1, m2) == want
    assert oracle.mon_mul(m2, m1) == want
    assert _pairs(mon_mul(_encode(m1), _encode(m2))) == want
    assert _pairs(mon_mul(_encode(m2), _encode(m1))) == want


def test_mon_mul_fast_paths():
    # the fast paths of the tuple oracle, and the same products packed
    w11, w12, u11 = (wv(0, 1), 1), (wv(0, 2), 2), (uv(0, 1), -1)
    cases = [
        ((w11,), (u11,), (w11, u11)),                      # disjoint ranges
        ((u11,), (w11, w12), (w11, w12, u11)),
        ((w11, u11), (w12,), (w11, w12, u11)),             # one variable inserted
        ((w11, u11), ((uv(0, 1), 1),), (w11,)),            # inserted and cancelled
        ((w11, u11), ((uv(0, 1), 3),), (w11, (uv(0, 1), 2))),
    ]
    for m1, m2, want in cases:
        assert oracle.mon_mul(m1, m2) == want
        assert _pairs(mon_mul(_encode(m1), _encode(m2))) == want


def test_leading_and_division_follow_the_key():
    p = W11 * W12 + W12 ** 2 + MPoly.var(uv(0, 1), -1) * W11 ** 2
    assert p.leading() == (((wv(0, 1), 1), (wv(0, 2), 1)), 1)
    assert try_div(p * (W11 - W12), W11 - W12) == p


@pytest.mark.parametrize("pairs", [
    [],
    [(ZVAR, wv(0, 1)), (ZVAR, wv(0, 2))],
    [(wv(0, 1), wv(0, 2)), (wv(0, 2), wv(0, 1))],
    [(wv(1, 1), wv(0, 2))] * 3,
    [(wv(0, 2), ZVAR), (wv(1, 1), wv(0, 1)), (wv(0, 1), wv(1, 1))],
])
def test_linear_forms_against_a_direct_expansion(pairs):
    direct = MPoly.one()
    dfac, sign = {}, 1
    for a, b in pairs:
        direct = direct * (MPoly.var(a) - MPoly.var(b))
        key, sg = diff_key(a, b)
        dfac[key] = dfac.get(key, 0) + 1
        sign *= sg
    assert linear_product(iter(pairs)) == direct
    assert linear_factors(iter(pairs)) == (dfac, sign)
    back = MPoly.const(sign)
    for key, e in dfac.items():
        back = back * candidate_poly(key) ** e
    assert back == direct


DIVISION_VARS = [wv(0, 1), wv(0, 2), wv(1, 1), ZVAR]
FRESH_VERTICES = itertools.count(1000)
laurent_u_terms = st.lists(st.tuples(
    st.dictionaries(st.sampled_from(DIVISION_VARS), st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from([uv(0, 1), uv(1, 1)]), st.integers(-2, 2), max_size=2),
    nonzero), max_size=4).map(
        lambda terms: MPoly.from_items((tuple(w.items()) + tuple(u.items()), c)
                                       for w, u, c in terms))


def divides_by_division(f, a, b):
    return try_div(f, MPoly.var(a) - MPoly.var(b)) is not None


@settings(max_examples=150, deadline=None)
@given(laurent_u_terms, laurent_u_terms, st.sampled_from(DIVISION_VARS),
       st.sampled_from(DIVISION_VARS), st.sampled_from(["plain", "multiple", "fresh"]))
def test_difference_divides_against_division(g, h, a, b, shape):
    assume(a != b)
    if shape == "fresh":
        # a variable no polynomial has used: only zero vanishes at x_a = x_b
        a = wv(next(FRESH_VERTICES), 1)
        assert a not in _POSITION
        f = g
    else:
        f = g * (MPoly.var(a) - MPoly.var(b)) + (h if shape == "plain" else 0)
    assert _difference_divides(f, a, b) == divides_by_division(f, a, b)


def test_difference_divides_at_the_edge_of_the_exponent_range():
    # x_a -> x_b merges a^(MAX - 1) * b^MAX into a field past the range,
    # which the discarded relabelling may hold
    a, b = wv(0, 1), wv(0, 2)
    edge = MPoly.var(a, EXPONENT_MAX - 1) * MPoly.var(b, EXPONENT_MAX - 1)
    form = MPoly.var(a) - MPoly.var(b)
    for f in (edge * form, edge * form + 1):
        assert _difference_divides(f, a, b) == divides_by_division(f, a, b)


def head_tail_product(i, m, vi):
    """prod over a <= m < b <= vi of w_{i,a} - w_{i,b}: block symmetric."""
    return linear_product((wv(i, a), wv(i, b))
                          for a in range(1, m + 1) for b in range(m + 1, vi + 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([((2,), (1,)), ((3,), (1,)), ((3,), (2,)), ((2, 2), (1, 1)),
                        ((3, 2), (2, 1)), ((3, 1), (1, 0))]),
       st.integers(0, 10 ** 6), st.lists(st.booleans(), min_size=2, max_size=2))
def test_head_tail_divides_against_division(vm, seed, times_forms):
    v, m = vm
    value = _random_partial_sym(v, m, seed).value
    for i, flag in enumerate(times_forms[:len(v)]):
        if flag:
            value = value * head_tail_product(i, m[i], v[i])
    f = PartialSymPoly.make(value, m, v)
    want = any(divides_by_division(value, wv(i, a), wv(i, b))
               for i, (mi, vi) in enumerate(zip(m, v))
               for a in range(1, mi + 1) for b in range(mi + 1, vi + 1))
    assert head_tail_divides(f, v) == want


# ---------------------------------------------------------------------------
# keyed identities


def test_identity_holds_per_key():
    key, sg = diff_key(wv(0, 1), wv(0, 2))
    den = {key: 1}
    # 1/(w11 - w12) - w11/(w11 - w12)^2 + w12/(w11 - w12)^2 vanishes
    vanishing = [("a", MPoly.const(sg), den),
                 ("a", -W11, {key: 2}), ("a", W12, {key: 2})]
    # w11/(w11 - w12) - w12/(w11 - w12) = 1, not 0
    nonvanishing = [("b", W11 * sg, den), ("b", -W12 * sg, den)]
    assert identity_holds(vanishing)
    assert not identity_holds(nonvanishing)
    assert not identity_holds(vanishing + nonvanishing)
    # cancellation across keys does not count: keys stand for distinct
    # u-monomials
    assert not identity_holds([("a", W11, {}), ("b", -W11, {})])


KEYED_FACTORS = [diff_key(wv(0, 1), wv(0, 2))[0], diff_key(wv(0, 1), ZVAR)[0], ("var", wv(1, 1))]
keyed_terms = st.lists(st.tuples(
    st.sampled_from([MPoly.one(), U11, U11 * MPoly.var(uv(0, 2), -1)]),
    poly_strategy(WVARS + [ZVAR], max_terms=3, max_exp=2),
    st.dictionaries(st.sampled_from(KEYED_FACTORS), st.integers(1, 2), max_size=2)),
    max_size=4)


@settings(max_examples=80, deadline=None)
@given(keyed_terms, st.sampled_from(["none", "first", "all"]), st.booleans())
@example([], "none", False)
@example([(U11, Z, {KEYED_FACTORS[0]: 1})], "none", True)
@example([(U11, Z, {KEYED_FACTORS[0]: 1}), (MPoly.one(), W11, {})], "first", False)
@example([(U11, Z, {KEYED_FACTORS[0]: 1}), (MPoly.one(), W11, {})], "all", False)
def test_keyed_sum_against_the_whole_sum_and_the_normal_form(terms, cancel, own_factor):
    """keyed_sum against ratfunc_sum of the u-restored terms and against the
    general normal form of the expanded sum, with repeated keys, a key group
    (or every group) cancelling to zero, and a numerator that carries a
    factor of its own denominator."""
    if own_factor and terms and terms[0][2]:
        key, num, dfac = terms[0]
        terms[0] = (key, num * candidate_poly(min(dfac)), dfac)
    if cancel != "none":
        doomed = {key for key, _, _ in terms[:1 if cancel == "first" else None]}
        terms += [(key, -num, dfac) for key, num, dfac in terms if key in doomed]
    got = keyed_sum(terms)
    assert not factored_form_violations(got), factored_form_violations(got)
    assert got == ratfunc_sum([(num * key, dfac) for key, num, dfac in terms])
    if cancel == "all":
        assert got.is_zero()
    lcm = {}
    for _, _, dfac in terms:
        for k, e in dfac.items():
            lcm[k] = max(lcm.get(k, 0), e)
    num = MPoly.zero()
    for key, n, dfac in terms:
        for k, e in lcm.items():
            n = n * candidate_poly(k) ** (e - dfac.get(k, 0))
        num = num + n * key
    den = MPoly.one()
    for k, e in lcm.items():
        den = den * candidate_poly(k) ** e
    assert (got.num, got.den) == normal_form(num, den)


def test_expansion_bound_is_checked_before_expanding(monkeypatch):
    # three terms over the three forms w_a - w_b: each numerator misses two
    # forms of the lcm, and (w1 + w2) has two terms, so the bound is 2*4 + 4 + 4
    from quiver_fmo import multipoly
    from quiver_fmo.quiver import EnumerationBudgetError

    d12, d13, d23 = (diff_key(wv(0, a), wv(0, b))[0] for a, b in ((1, 2), (1, 3), (2, 3)))
    terms = [(W11 + W12, {d12: 1}), (MPoly.one(), {d13: 1}), (-MPoly.one(), {d23: 1})]
    expanded = []
    real = multipoly._dfac_mul_into
    monkeypatch.setattr(multipoly, "_dfac_mul_into",
                        lambda num, dfac: expanded.append(1) or real(num, dfac))
    monkeypatch.setattr(multipoly, "EXPANSION_BUDGET", 15)
    with pytest.raises(EnumerationBudgetError, match="expand to 16 terms, more than 15"):
        ratfunc_sum(terms)
    assert expanded == []
    monkeypatch.setattr(multipoly, "EXPANSION_BUDGET", 16)
    assert ratfunc_sum(terms) == (RatFunc.from_poly(W11 + W12) / RatFunc.from_poly(W11 - W12)
                                  + RatFunc.from_poly(W11 - W13) ** -1
                                  - RatFunc.from_poly(W12 - W13) ** -1)


wz_monomials = st.lists(st.sampled_from([wv(0, 1), wv(0, 2), wv(1, 1), ZVAR]), unique=True,
                        max_size=3).flatmap(lambda vs: st.tuples(
                            *(st.integers(1, 3) for _ in vs)).map(lambda es: tuple(zip(vs, es))))
int_coeffs = st.dictionaries(wz_monomials, st.integers(-5, 5).filter(bool), max_size=4)


@settings(max_examples=80, deadline=None)
@given(int_coeffs, int_coeffs,
       st.dictionaries(st.sampled_from(KEYED_FACTORS), st.integers(1, 2), max_size=2))
def test_fraction_and_int_spellings_give_alike_results(a, b, dfac):
    """Coefficients are normalized only where a number enters a polynomial,
    so a product or sum of Fraction(n, 1) coefficients stays a Fraction: the
    results equal those of the int spelling, hash alike and print alike."""
    def results(kind):
        x, y = (MPoly.from_items((mon, kind(c)) for mon, c in p.items()) for p in (a, b))
        return {
            "*": x * y * U11,
            "+": x + y,
            "restrict_to_gamma": restrict_to_gamma(PartialSymPoly(x, (1, 0), (2, 1)),
                                                   ((2,), ())),
            "_dfac_mul_into": _dfac_mul_into(x, dfac),
            "core_sum": core_sum([(x, y), (y, U11)], dfac),
            "keyed_sum": keyed_sum([(U11, x, dfac), (MPoly.one(), y, {}), (U11, y, dfac)]),
        }

    render = _poly_text.__wrapped__  # past the cache, which equal polynomials share
    ints, fractions = results(int), results(Fraction)
    for name, want in ints.items():
        got = fractions[name]
        assert got == want and hash(got) == hash(want), name
        if isinstance(want, RatFunc):
            got, want = got.num, want.num
        assert render(got) == render(want), name


@settings(max_examples=80, deadline=None)
@given(st.lists(monomials, unique=True, max_size=12),
       st.lists(st.one_of(st.integers(-5, 5).filter(bool), nonzero), min_size=12, max_size=12))
def test_poly_text_orders_terms_by_mon_key(ms, coeffs):
    # terms in descending MON_KEY order, each rendered by the oracle
    assert poly_text(MPoly.from_items(zip(ms, coeffs))) == oracle.poly_text(dict(zip(ms, coeffs)))


# ---------------------------------------------------------------------------
# the packed kernel against the tuple oracle

tuple_polys = st.dictionaries(monomials, st.one_of(st.integers(-5, 5).filter(bool), nonzero),
                              max_size=6)
DEAD_VARS = [wv(0, 1), wv(0, 2), wv(1, 1), ZVAR]
DEAD_FACTORS = ([diff_key(a, b)[0] for a, b in itertools.combinations(DEAD_VARS, 2)]
                + [("var", v) for v in DEAD_VARS])


@settings(max_examples=150, deadline=None)
@given(tuple_polys, tuple_polys, st.integers(0, 3), st.permutations(MON_VARS),
       st.sets(st.sampled_from(DEAD_VARS), max_size=2), st.sampled_from(MON_VARS),
       st.dictionaries(st.sampled_from(DEAD_FACTORS), st.integers(1, 3), max_size=3))
def test_packed_kernel_against_the_tuple_oracle(a, b, n, perm, dead, var, dfac):
    """Laurent polynomials with negative u-exponents and Fraction
    coefficients: each packed operation, decoded, equals the same operation
    on tuple monomials."""
    pa, pb = MPoly.from_items(a.items()), MPoly.from_items(b.items())
    assert oracle.poly(pa) == a
    assert oracle.poly(pa * pb) == oracle.mul(a, b)
    assert oracle.poly(pa + pb) == oracle.add(a, b)
    assert oracle.poly(pa ** n) == oracle.power(a, n)
    varmap = dict(zip(MON_VARS, perm))
    assert oracle.poly(pa.permute_vars(varmap)) == oracle.permute_vars(a, varmap)
    assert oracle.poly(pa.subs_zero(dead)) == oracle.subs_zero(a, dead)
    assert pa.min_exponent(var) == oracle.min_exponent(a, var)
    assert pa.variables() == oracle.variables(a)
    assert poly_text(pa) == oracle.poly_text(a)
    if a:
        assert pa.leading() == oracle.leading(a)
    try:
        want = oracle.at_zero(a, dfac, dead)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            at_zero(pa, dfac, dead)
        return
    got = at_zero(pa, dfac, dead)
    assert (got if want is None else (oracle.poly(got[0]), got[1])) == want


def test_a_product_past_the_exponent_range_raises_and_spares_the_next_field():
    # two variables seen here first sit in neighbouring fields
    a, b = wv(40, 1), wv(40, 2)
    x, y = MPoly.var(a), MPoly.var(b)
    top = MPoly.var(a, EXPONENT_MAX)
    for product in (lambda: top * x, lambda: top * (x + y), lambda: top ** 2,
                    lambda: (top + 1) * (x * y + 1)):
        with pytest.raises(ExponentRangeError):
            product()
    low = MPoly.var(uv(40, 1), EXPONENT_MIN)
    with pytest.raises(ExponentRangeError):
        low * MPoly.var(uv(40, 1), -1)
    for exp in (EXPONENT_MAX + 1, 10 ** 23):
        with pytest.raises(ExponentRangeError):
            MPoly.var(a, exp)
    with pytest.raises(ExponentRangeError):
        MPoly.var(uv(40, 1), EXPONENT_MIN - 1)
    # up to the edge of the range, each field keeps its own exponent
    edge = MPoly.var(a, EXPONENT_MAX - 1) * x * y ** 3
    assert edge.items() == [(((a, EXPONENT_MAX), (b, 3)), 1)]
    assert (edge * MPoly.var(b, EXPONENT_MAX - 3)).items() == [
        (((a, EXPONENT_MAX), (b, EXPONENT_MAX)), 1)]
    assert (low * MPoly.var(uv(40, 2), -5) * MPoly.var(uv(40, 1), 7)).items() == [
        (((uv(40, 1), EXPONENT_MIN + 7), (uv(40, 2), -5)), 1)]
    assert top.items() == [(((a, EXPONENT_MAX),), 1)]
    # the parser refuses what the field cannot hold
    for text in ("w[1,1]^100000000000000000000000", "u[1,1]^-%d" % (1 - EXPONENT_MIN),
                 "w[1,1]^%d*w[1,1]" % EXPONENT_MAX):
        with pytest.raises(ParseError, match="range"):
            parse_poly(text)
    assert parse_poly("u[1,1]^%d" % EXPONENT_MIN) == MPoly.var(uv(0, 1), EXPONENT_MIN)


@pytest.mark.parametrize("n", [EXPONENT_MAX, 20000, 50000])
def test_a_factor_multiplicity_past_the_exponent_range_raises(n):
    # x^n in a denominator: the shift by n is checked before it is taken,
    # so a multiplicity past the range can neither wrap its field nor carry
    # into the next one
    den = RatFunc.make(1, MPoly.var(wv(60, 1))) ** n
    if n <= EXPONENT_MAX:
        assert poly_text(den.den) == "w[61,1]^%d" % n
    else:
        with pytest.raises(ExponentRangeError):
            den.den


def test_the_range_check_does_not_depend_on_how_an_operand_was_built():
    # every product checks its own terms, whatever built its operands
    h, a, b, d = wv(41, 1), wv(41, 2), wv(41, 3), wv(41, 4)
    x, y = MPoly.var(a), MPoly.var(b)  # seen here first: neighbouring fields
    top = MPoly.var(a, EXPONENT_MAX)
    heads = (0,) * 41 + (1,)
    built = {
        "from_items": MPoly.from_items([(((a, EXPONENT_MAX),), 1)]),
        "permute_vars": MPoly.var(d, EXPONENT_MAX).permute_vars({d: a, a: d}),
        "subs_zero": (top + MPoly.var(d)).subs_zero([d]),
        "as_univar": as_univar(top * MPoly.var(d) + 1, d)[1],
        "+": (top + 1) + (-1),
        "negation": -(-top),
        "over_head_powers": over_head_powers(MPoly.var(h) * top, heads, heads).num,
        "core_sum": core_sum([(MPoly.one(), top)], {}).num,
        "RatFunc.den": (RatFunc.make(1, x) ** EXPONENT_MAX).den,
    }
    for name, op in built.items():
        assert op == top, name
        for other in [x, x + y, top, *built.values()]:
            for product in (lambda: op * other, lambda: other * op):
                with pytest.raises(ExponentRangeError):
                    product()
        # at the edge of the range each field keeps its own exponent
        assert (op * MPoly.var(b, EXPONENT_MAX)).items() == [
            (((a, EXPONENT_MAX), (b, EXPONENT_MAX)), 1)], name
