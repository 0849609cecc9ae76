"""Kernel tests: polynomial/rational arithmetic, gcd, canonical forms, the
dressing ring operations, and the localized-ring element checks."""

import itertools
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings, strategies as st

from quiver_fmo.multipoly import (
    AdmissibilityError,
    DenominatorError,
    GKLOElement,
    MPoly,
    ParseError,
    PartialSymPoly,
    RatFunc,
    SymmetryError,
    U_KIND,
    ZVAR,
    _MON_KEY,
    _poly_text,
    candidate_poly,
    check_symmetric,
    diff_key,
    exact_div,
    identity_holds,
    keyed_sum,
    linear_factors,
    linear_product,
    mon_mul,
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
    for mono, c in p.terms.items():
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
                              max_size=2).map(lambda d: MPoly({tuple(sorted(d.items())): 1}))
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
    GKLOElement.make(ok, "slice_loc")
    GKLOElement.make(ok, "zastava_loc")
    bad_cross = RatFunc.make(U11, MPoly.var(wv(0, 1)) - MPoly.var(wv(1, 1)))
    with pytest.raises(AdmissibilityError):
        GKLOElement.make(bad_cross, "slice_loc")
    GKLOElement.make(bad_cross, "defect_loc")
    bad_w = RatFunc.make(U11, W11)
    with pytest.raises(AdmissibilityError):
        GKLOElement.make(bad_w, "slice_loc")
    GKLOElement.make(bad_w, "slice_loc_loc")
    neg_u = RatFunc.make(MPoly.var(uv(0, 1), -1))
    with pytest.raises(AdmissibilityError):
        GKLOElement.make(neg_u, "zastava_loc")
    GKLOElement.make(neg_u, "slice_loc")


def test_ratfunc_text_shapes():
    assert ratfunc_text(RatFunc.make(U11)) == "u[1,1]"
    assert ratfunc_text(RatFunc.make(U11, W11 - W12)) == "(u[1,1])/(w[1,1] - w[1,2])"


@pytest.mark.parametrize("int_poly,fraction_poly,text", [
    (MPoly({(): 2}), MPoly({(): Fraction(2)}), "2"),
    (W11, MPoly({((wv(0, 1), 1),): Fraction(1)}), "w[1,1]"),
])
def test_equal_polynomials_render_alike_through_the_cache(int_poly, fraction_poly, text):
    # equal polynomials share one cache entry, whichever spelling fills it
    for first, second in ((int_poly, fraction_poly), (fraction_poly, int_poly)):
        _poly_text.cache_clear()
        assert poly_text(first) == text
        assert poly_text(second) == text
        assert _poly_text.cache_info().hits == 1


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
    assert sorted(ms, key=_MON_KEY) == sorted(ms, key=cmp_to_key(mon_cmp_oracle))
    for m1, m2 in itertools.product(ms[:4], repeat=2):
        k1, k2 = _MON_KEY(m1), _MON_KEY(m2)
        assert (k1 > k2) - (k1 < k2) == mon_cmp_oracle(m1, m2), (m1, m2)


@settings(max_examples=300, deadline=None)
@given(monomials, monomials, st.booleans())
def test_mon_mul_matches_a_plain_merge(m1, m2, cancel):
    if cancel:
        # give m2 the inverse u exponents of m1, so they cancel in the product
        exps = dict(m2)
        exps.update((v, -e) for v, e in m1 if v[0] == U_KIND)
        m2 = tuple(sorted(exps.items()))
    want = merge_mul_oracle(m1, m2)
    assert mon_mul(m1, m2) == want
    assert mon_mul(m2, m1) == want


def test_mon_mul_fast_paths():
    w11, w12, u11 = (wv(0, 1), 1), (wv(0, 2), 2), (uv(0, 1), -1)
    assert mon_mul((w11,), (u11,)) == (w11, u11)           # disjoint ranges
    assert mon_mul((u11,), (w11, w12)) == (w11, w12, u11)
    assert mon_mul((w11, u11), (w12,)) == (w11, w12, u11)  # one variable inserted
    assert mon_mul((w11, u11), ((uv(0, 1), 1),)) == (w11,)  # inserted and cancelled
    assert mon_mul((w11, u11), ((uv(0, 1), 3),)) == (w11, (uv(0, 1), 2))


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
