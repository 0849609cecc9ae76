"""Generating-function images, dressed monopole operators, the determinant
identity, the Chevalley involution, and orientation changes."""

import itertools
import json
import random
from fractions import Fraction
from functools import partial

import pytest

from quiver_fmo.multipoly import (
    MPoly,
    PartialSymPoly,
    RatFunc,
    ZVAR,
    check_symmetric,
    poly_text,
    restrict_to_gamma,
    uv,
    wv,
)
from quiver_fmo.quiver import (
    EnumerationBudgetError,
    Quiver,
    a1_quiver,
    a2_quiver,
    affine_sl2_quiver,
)
from quiver_fmo import gklo
from quiver_fmo.gklo import (
    DIdentityReport,
    GKLOContext,
    chevalley,
    chevalley_u_image,
    d_identity_check,
    dressing_basis,
    fmo,
    fmo_sign,
    involution_fmo_report,
    lagrange_charge,
    make_context,
    orientation_flip_sign,
    q_image,
)

W11, W12 = MPoly.var(wv(0, 1)), MPoly.var(wv(0, 2))
U11, U12 = MPoly.var(uv(0, 1)), MPoly.var(uv(0, 2))
Z = MPoly.var(ZVAR)


def eval_mpoly(p, point):
    total = Fraction(0)
    for mon, c in p.items():
        term = Fraction(c)
        for var, e in mon:
            term *= Fraction(point[var]) ** e
        total += term
    return total


def eval_ratfunc(f, point):
    return eval_mpoly(f.num, point) / eval_mpoly(f.den, point)


# ---------------------------------------------------------------------------
# generating functions


def test_q_image():
    ctx = make_context(a1_quiver(), (2,), (2,))
    assert q_image(ctx, 0) == (Z - W11) * (Z - W12)
    ctx0 = make_context(a1_quiver(), (2,), (0,))
    assert q_image(ctx0, 0) == MPoly.one()


def test_q_image_vieta():
    ctx = make_context(a1_quiver(), (0,), (3,))
    q = q_image(ctx, 0)
    # coefficient of z^{v-1} is minus the sum of the roots
    from quiver_fmo.multipoly import as_univar
    coeffs = as_univar(q, ZVAR)
    assert coeffs[2] == -(W11 + W12 + MPoly.var(wv(0, 3)))


def lagrange_p(ctx, i, sign):
    """Test oracle for P^sign_i: the Lagrange-form sum over r of prod_{s != r}
    (z - w_{i,s}) / (w_{i,r} - w_{i,s}) times the edge products, built from
    whole rational functions.  P^+ carries prod_out (w_{t,q} - w_{i,r}) and
    u_{i,r}; P^- carries prod_in (w_{i,r} - w_{s,p}), w_{i,r}^{w_i},
    u_{i,r}^{-1} and the sign -(-1)^{sum of v_t over the edges i -> t}."""
    total = RatFunc.zero()
    for r in range(1, ctx.v[i] + 1):
        x = MPoly.var(wv(i, r))
        num, den = MPoly.one(), MPoly.one()
        for s in range(1, ctx.v[i] + 1):
            if s != r:
                num = num * (Z - MPoly.var(wv(i, s)))
                den = den * (x - MPoly.var(wv(i, s)))
        if sign == "+":
            for _, t in ctx.quiver.out_edges(i):
                for q in range(1, ctx.v[t] + 1):
                    num = num * (MPoly.var(wv(t, q)) - x)
            num = num * MPoly.var(uv(i, r))
        else:
            for s, _ in ctx.quiver.in_edges(i):
                for p in range(1, ctx.v[s] + 1):
                    num = num * (x - MPoly.var(wv(s, p)))
            num = num * MPoly.var(wv(i, r), ctx.w[i]) * MPoly.var(uv(i, r), -1)
        total = total + RatFunc.make(num, den)
    if sign == "-":
        total = total * -(-1) ** sum(ctx.v[t] for _, t in ctx.quiver.out_edges(i))
    return total


def test_p_image_a1():
    ctx = make_context(a1_quiver(), (2,), (2,))
    expected = RatFunc.make((Z - W12) * U11 - (Z - W11) * U12, W11 - W12)
    assert fmo(ctx, *lagrange_charge(ctx, 0), "+") == expected


def test_p_image_single_slot_no_out_edges():
    ctx = make_context(a2_quiver(), (0, 0), (1, 1))
    # vertex 1 has no outgoing edge
    assert fmo(ctx, *lagrange_charge(ctx, 1), "+") == RatFunc.make(MPoly.var(uv(1, 1)))


def test_p_is_dressed_fmo():
    for quiver, w, v in [(a1_quiver(), (2,), (2,)), (a2_quiver(), (1, 1), (2, 1)),
                         (affine_sl2_quiver(), (1, 0), (2, 1)), (a2_quiver(), (2, 1), (3, 2))]:
        ctx = make_context(quiver, w, v)
        for i in range(quiver.n):
            m, f = lagrange_charge(ctx, i)
            assert m == tuple(int(j == i) for j in range(quiver.n))
            assert fmo(ctx, m, f, "+") == lagrange_p(ctx, i, "+"), (w, v, i)
            assert fmo(ctx, m, f, "-") == lagrange_p(ctx, i, "-"), (w, v, i)


def test_p_minus_single():
    ctx = make_context(a1_quiver(), (3,), (1,))
    assert fmo(ctx, *lagrange_charge(ctx, 0), "-") \
        == RatFunc.make(-W11 ** 3 * MPoly.var(uv(0, 1), -1))


def test_q_is_fmo_at_zero():
    ctx = make_context(a1_quiver(), (2,), (2,))
    dress = PartialSymPoly.make((Z - W11) * (Z - W12), (0,), (2,))
    assert fmo(ctx, (0,), dress, "+") == RatFunc.from_poly(q_image(ctx, 0))
    assert fmo(ctx, (0,), dress, "-") == RatFunc.from_poly(q_image(ctx, 0))


# ---------------------------------------------------------------------------
# monopole operators


def test_fmo_plus_examples():
    ctx = make_context(a1_quiver(), (2,), (2,))
    f = PartialSymPoly.make(W11 + W12, (0,), (2,))
    assert fmo(ctx, (0,), f, "+") == RatFunc.from_poly(W11 + W12)
    assert fmo(ctx, (1,), MPoly.one(), "+") == RatFunc.make(U11 - U12, W11 - W12)


def test_fmo_minus_examples():
    ctx1 = make_context(a1_quiver(), (3,), (1,))
    assert fmo(ctx1, (1,), MPoly.one(), "-") == \
        RatFunc.make(-W11 ** 3 * MPoly.var(uv(0, 1), -1))
    ctx = make_context(a1_quiver(), (2,), (2,))
    # hand expansion of the two-subset sum; the overall sign (-1)^{m.v} = +1
    expected = RatFunc.make(W11 ** 2 * MPoly.var(uv(0, 1), -1), W12 - W11) \
        + RatFunc.make(W12 ** 2 * MPoly.var(uv(0, 2), -1), W11 - W12)
    assert fmo(ctx, (1,), MPoly.one(), "-") == expected


def test_fmo_m_out_of_range():
    ctx = make_context(a1_quiver(), (2,), (1,))
    with pytest.raises(ValueError):
        fmo(ctx, (2,), MPoly.one(), "+")
    with pytest.raises(ValueError):
        fmo(ctx, (-1,), MPoly.one(), "-")


@pytest.mark.parametrize("m", [(5,), (-1,)])
def test_dressing_basis_refuses_a_charge_outside_zero_to_v(m):
    with pytest.raises(ValueError, match="^need 0 <= m <= v componentwise$"):
        dressing_basis((2,), m, 1)


def test_fmo_rejects_non_symmetric_dressing():
    ctx = make_context(a1_quiver(), (2,), (2,))
    with pytest.raises(ValueError):
        fmo(ctx, (0,), W11, "+")


def test_lambda0_linearity():
    # fully symmetric factors pull out of both operator families
    for quiver, w, v in [(a1_quiver(), (2,), (2,)), (affine_sl2_quiver(), (1, 1), (1, 2))]:
        ctx = make_context(quiver, w, v)
        sym = MPoly.one()
        for i, vi in enumerate(v):
            for r in range(1, vi + 1):
                sym = sym * MPoly.var(wv(i, r))
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            g = dressing_basis(v, m, 1)[-1]
            prod = PartialSymPoly.make(sym * g.value, m, v)
            for sign in "+-":
                assert fmo(ctx, m, prod, sign) == RatFunc.from_poly(sym) * fmo(ctx, m, g, sign)


INVOLUTION_GRID = [(a1_quiver(), (2,), (2,)), (a2_quiver(), (1, 1), (1, 1)),
                   (affine_sl2_quiver(), (2, 0), (2, 1))]
INVARIANCE_GRID = [(a1_quiver(), (1,), (3,)), (a2_quiver(), (1, 1), (2, 2)),
                   (affine_sl2_quiver(), (2, 0), (2, 1))]


def test_fmo_invariance_small_grid():
    for quiver, w, v in INVARIANCE_GRID:
        ctx = make_context(quiver, w, v)
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            for f in dressing_basis(v, m, 2)[:6]:
                assert check_symmetric(fmo(ctx, m, f, "+"), v), (w, v, m)
                assert check_symmetric(fmo(ctx, m, f, "-"), v), (w, v, m)


def direct_subset_terms(ctx, m, f, sign):
    """Oracle for the cached subset factor: each subset term of M^{sign}_m(f)
    rebuilt from the edge factor, the framing (for M^-) and the signed
    factored denominator."""
    negate = sign == "-" and fmo_sign(ctx, m)
    for gamma in gklo._gamma_tuples(ctx.v, m):
        num = restrict_to_gamma(f, gamma)
        if sign == "+":
            num = num * gklo._edge_factor_plus(ctx, gamma) * gklo._u_gamma(gamma, 1)
        else:
            num = num * gklo._edge_factor_minus(ctx, gamma) * gklo._u_gamma(gamma, -1)
            for j, g in enumerate(gamma):
                for t in g:
                    num = num * MPoly.var(wv(j, t), ctx.w[j])
        dfac, dsign = gklo._den_factor(ctx, gamma, reverse=sign == "-")
        yield gamma, num * (-dsign if negate else dsign), dfac


def test_subset_terms_match_a_direct_recomputation():
    for quiver, w, v in INVARIANCE_GRID + INVOLUTION_GRID:
        ctx = make_context(quiver, w, v)
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            for f in dressing_basis(v, m, 1):
                for sign, terms, exp in (("+", gklo.fmo_plus_terms, 1),
                                         ("-", gklo.fmo_minus_terms, -1)):
                    # twice: once filling the subset-factor cache, once from it
                    for _ in range(2):
                        # the generators yield u-free terms; the oracle includes u_Gamma
                        got = [(gamma, num * gklo._u_gamma(gamma, exp), dfac)
                               for gamma, num, dfac in terms(ctx, m, f)]
                        assert got == list(direct_subset_terms(ctx, m, f, sign)), (
                            w, v, m, sign)


def test_generators_at_m_zero_yield_the_dressing():
    for quiver, w, v in INVOLUTION_GRID:
        ctx = make_context(quiver, w, v)
        m = (0,) * quiver.n
        empty = tuple(() for _ in v)
        for f in dressing_basis(v, m, 1):
            for terms in (gklo.fmo_plus_terms, gklo.fmo_minus_terms):
                assert list(terms(ctx, m, f)) == [(empty, f.value, {})]
            assert fmo(ctx, m, f, "+") == RatFunc.from_poly(f.value)
            assert fmo(ctx, m, f, "-") == RatFunc.from_poly(f.value)


def test_transport_terms_leaves_its_input_alone():
    ctx = make_context(a2_quiver(), (1, 1), (2, 2))
    m = (1, 1)
    f = PartialSymPoly.make(MPoly.one(), m, ctx.v)
    terms = list(gklo.fmo_plus_terms(ctx, m, f))
    before = [(gamma, num, dict(dfac)) for gamma, num, dfac in terms]
    fac = {("var", wv(0, 1)): 1}

    def scale(i, r):
        return MPoly.var(wv(i, r)), fac, -1

    for image in (partial(gklo.iota_image, ctx), scale):
        moved = list(gklo.transport_terms(terms, image))
        assert terms == before
        assert all(new[2] is not old[2] for new, old in zip(moved, terms))
    assert fac == {("var", wv(0, 1)): 1}
    # two slots per subset: the factors add up and the signs cancel
    for (gamma, num, dfac), (_, num0, dfac0) in zip(moved, before):
        assert num == num0 * MPoly.var(wv(0, gamma[0][0])) * MPoly.var(wv(1, gamma[1][0]))
        assert dfac == {**dfac0, ("var", wv(0, 1)): dfac0.get(("var", wv(0, 1)), 0) + 2}


def test_yielded_denominators_are_not_shared():
    ctx = make_context(a2_quiver(), (1, 1), (2, 2))
    m = (1, 1)
    f = PartialSymPoly.make(MPoly.one(), m, ctx.v)
    for terms in (gklo.fmo_plus_terms, gklo.fmo_minus_terms):
        first = list(terms(ctx, m, f))
        want = [(gamma, num, dict(dfac)) for gamma, num, dfac in first]
        for _, _, dfac in first:
            dfac[next(iter(dfac))] += 5
            dfac["stray"] = 1
        assert list(terms(ctx, m, f)) == want


def test_fmo_sign_parity():
    ctx = make_context(affine_sl2_quiver(), (0, 0), (2, 3))
    # sum m_i v_i + sum over edges m_s v_t, mod 2
    assert fmo_sign(ctx, (1, 0)) == (2 + 2 * 3) % 2
    assert fmo_sign(ctx, (1, 1)) == (2 + 3 + 2 * 3) % 2


# ---------------------------------------------------------------------------
# determinant identity


def test_d_identity_a1():
    ctx = make_context(a1_quiver(), (2,), (1,))
    rep = d_identity_check(ctx, 0)
    assert rep.holds
    assert rep.d == RatFunc.from_poly(Z + W11)


def test_d_identity_empty_vertex():
    ctx = make_context(a2_quiver(), (1, 1), (0, 2))
    rep = d_identity_check(ctx, 0)
    assert rep.holds  # Q_0 = 1, nothing to divide


def test_d_identity_a2_with_point_check():
    ctx = make_context(a2_quiver(), (1, 1), (1, 1))
    rep = d_identity_check(ctx, 0)
    assert rep.holds
    # independent check: evaluate both sides of D*Q = P+P- + z^w * (neighbors)
    rng = random.Random(7)
    varset = set(rep.d.num.variables()) | set(rep.d.den.variables())
    varset |= {wv(0, 1), wv(1, 1), uv(0, 1), uv(1, 1), ZVAR}
    P = lagrange_p(ctx, 0, "+")
    Pm = lagrange_p(ctx, 0, "-")
    Q0 = q_image(ctx, 0)
    Q1 = q_image(ctx, 1)
    for _ in range(20):
        pt = {var: Fraction(rng.randint(1, 40), rng.randint(1, 7)) for var in varset}
        lhs = eval_ratfunc(rep.d, pt) * eval_mpoly(Q0, pt)
        rhs = eval_ratfunc(P, pt) * eval_ratfunc(Pm, pt) \
            + Fraction(pt[ZVAR]) * eval_mpoly(Q1, pt)
        assert lhs == rhs


D_IDENTITY_GRID = [(a1_quiver(), (2,), (2,)), (a2_quiver(), (2, 1), (2, 1)),
                   (affine_sl2_quiver(), (1, 0), (2, 2)), (affine_sl2_quiver(), (2, 0), (1, 1))]


def test_d_identity_suite():
    for quiver, w, v in D_IDENTITY_GRID:
        ctx = make_context(quiver, w, v)
        for i in range(quiver.n):
            assert d_identity_check(ctx, i).holds, (w, v, i)


def d_identity_by_whole_quotient(ctx, i):
    """Test oracle for d_identity_check: divide the whole right-hand side by
    Q_i expanded, which RatFunc.make factors again, with P^+_i and P^-_i
    from the Lagrange-form oracle."""
    rhs = lagrange_p(ctx, i, "+") * lagrange_p(ctx, i, "-")
    extra = MPoly.var(ZVAR, ctx.w[i]) if ctx.w[i] else MPoly.one()
    for a in ctx.quiver.in_edges(i):
        extra = extra * q_image(ctx, a[0])
    for b in ctx.quiver.out_edges(i):
        extra = extra * q_image(ctx, b[1])
    rhs = rhs + RatFunc.from_poly(extra)
    quot = rhs / RatFunc.from_poly(q_image(ctx, i))
    holds = all(var != ZVAR for var in quot.den.variables())
    return DIdentityReport(holds, quot)


def test_d_identity_against_the_whole_quotient_oracle():
    grid = D_IDENTITY_GRID + [(a1_quiver(), (1,), (3,)), (a2_quiver(), (0, 1), (2, 2)),
                              (affine_sl2_quiver(), (0, 0), (2, 1))]
    for quiver, w, v in grid:
        ctx = make_context(quiver, w, v)
        for i in range(quiver.n):
            assert d_identity_check(ctx, i) == d_identity_by_whole_quotient(ctx, i), (w, v, i)


# ---------------------------------------------------------------------------
# Chevalley involution


def test_chevalley_a1_single():
    ctx = make_context(a1_quiver(), (3,), (1,))
    e = fmo(ctx, (1,), MPoly.one(), "+")
    img = chevalley(ctx, e)
    assert img == RatFunc.make(-W11 ** 3 * MPoly.var(uv(0, 1), -1))


def test_chevalley_involutive_and_swaps_fmos():
    cases = [(a1_quiver(), (2,), (2,)), (a2_quiver(), (1, 1), (1, 1)),
             (affine_sl2_quiver(), (2, 0), (2, 1))]
    for quiver, w, v in cases:
        ctx = make_context(quiver, w, v)
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            for f in dressing_basis(v, m, 1):
                plus = fmo(ctx, m, f, "+")
                minus = fmo(ctx, m, f, "-")
                img = chevalley(ctx, plus)
                assert img == minus, (w, v, m, poly_text(f.value))
                assert chevalley(ctx, img) == plus


def test_involution_report_against_chevalley_oracle():
    for quiver, w, v in INVOLUTION_GRID:
        ctx = make_context(quiver, w, v)
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            for f in dressing_basis(v, m, 1):
                plus = fmo(ctx, m, f, "+")
                minus = fmo(ctx, m, f, "-")
                img = chevalley(ctx, plus)
                rep = involution_fmo_report(ctx, m, f)
                assert rep.image == img, (w, v, m, poly_text(f.value))
                assert rep.minus == minus
                assert rep.swaps == (img == minus)
                assert rep.involutive == (chevalley(ctx, img) == plus)


def involution_on_generators_by_substitution(ctx):
    """Test oracle for involution_on_generators: substitute the whole-element
    image of every u (chevalley_u_image) into the image of each u_{i,r} with
    RatFunc.subs_u, and compare the normalized result with u_{i,r}."""
    for i, vi in enumerate(ctx.v):
        for r in range(1, vi + 1):
            once = chevalley_u_image(ctx, i, r)
            mapping = {uv(i2, r2): chevalley_u_image(ctx, i2, r2)
                       for i2, v2 in enumerate(ctx.v) for r2 in range(1, v2 + 1)}
            if once.subs_u(mapping) != RatFunc.from_poly(MPoly.var(uv(i, r))):
                return False
    return True


def oriented_three_cycle(tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "edges": [{"source": "a", "target": "b"}, {"source": "b", "target": "c"},
                  {"source": "c", "target": "a"}],
    }))
    return Quiver.load(path)


def generator_grid(tmp_path):
    yield from INVOLUTION_GRID + INVARIANCE_GRID
    yield affine_sl2_quiver(), (1, 2), (3, 2)
    cycle = oriented_three_cycle(tmp_path)
    for w, v in [((1, 1, 1), (1, 1, 1)), ((2, 0, 1), (2, 1, 2))]:
        yield cycle, w, v


def test_involution_on_generators_against_the_substitution_oracle(tmp_path):
    for quiver, w, v in generator_grid(tmp_path):
        ctx = make_context(quiver, w, v)
        assert gklo.involution_on_generators.__wrapped__(ctx) is True, (w, v)
        assert involution_on_generators_by_substitution(ctx) is True, (w, v)


def test_involution_on_generators_sees_a_wrong_inverse_sign(monkeypatch, tmp_path):
    # a deliberately broken inverse image must make the termwise check fail
    real = gklo.iota_inverse_image

    def flipped(ctx, i, r):
        num, fac, sign = real(ctx, i, r)
        return num, fac, -sign

    monkeypatch.setattr(gklo, "iota_inverse_image", flipped)
    for quiver, w, v in generator_grid(tmp_path):
        ctx = make_context(quiver, w, v)
        assert gklo.involution_on_generators.__wrapped__(ctx) is False, (w, v)


def test_involution_report_failing_subsets_report_the_image(monkeypatch):
    # negated M^- terms make every nonzero subset identity fail; the reported
    # image must still be iota(M^+) as the substitution computes it
    real = gklo.fmo_minus_terms

    def negated(*args, **kwargs):
        for gamma, num, dfac in real(*args, **kwargs):
            yield gamma, -num, dfac

    monkeypatch.setattr(gklo, "fmo_minus_terms", negated)
    for quiver, w, v in INVOLUTION_GRID:
        ctx = make_context(quiver, w, v)
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            for f in dressing_basis(v, m, 1):
                rep = involution_fmo_report(ctx, m, f)
                img = chevalley(ctx, fmo(ctx, m, f, "+"))
                assert rep.swaps is img.is_zero(), (w, v, m, poly_text(f.value))
                assert rep.image == img


# ---------------------------------------------------------------------------
# orientation change


def transported_matches_oracle(ctx, edge_index, m, f):
    """Substitution oracle for orientation_flip_sign: transport the whole
    flipped operator along the matter identification with RatFunc.subs_u and
    compare it with the signed original."""
    s, t = ctx.quiver.edges[edge_index]
    sign = (-1) ** (m[t] * (ctx.v[s] - m[s]))
    flipped_ctx = GKLOContext(ctx.quiver.flip_edge(edge_index), ctx.dims)
    flipped = fmo(flipped_ctx, m, f, "+")
    transition = {}
    for p in range(1, ctx.v[s] + 1):
        fac = RatFunc.one()
        for q in range(1, ctx.v[t] + 1):
            fac = fac * (MPoly.var(wv(t, q)) - MPoly.var(wv(s, p)))
        transition[uv(s, p)] = fac * RatFunc.from_poly(MPoly.var(uv(s, p)))
    for q in range(1, ctx.v[t] + 1):
        den = MPoly.one()
        for p in range(1, ctx.v[s] + 1):
            den = den * (MPoly.var(wv(t, q)) - MPoly.var(wv(s, p)))
        transition[uv(t, q)] = RatFunc.make(MPoly.var(uv(t, q)), den)
    return flipped.subs_u(transition) == fmo(ctx, m, f, "+") * sign


def test_orientation_examples():
    ctx = make_context(a2_quiver(), (1, 1), (1, 1))
    rep = orientation_flip_sign(ctx, 0, (1, 0))
    assert rep.sign == 1 and rep.matches
    rep = orientation_flip_sign(ctx, 0, (0, 1))
    assert rep.sign == -1 and rep.matches
    rep = orientation_flip_sign(ctx, 0, (0, 0))
    assert rep.sign == 1 and rep.matches


def test_orientation_sweep():
    for quiver, w, v in [(a2_quiver(), (1, 1), (2, 2)),
                         (affine_sl2_quiver(), (1, 1), (2, 1))]:
        ctx = make_context(quiver, w, v)
        for k in range(len(quiver.edges)):
            for m in itertools.product(*(range(vi + 1) for vi in v)):
                rep = orientation_flip_sign(ctx, k, m)
                s, t = quiver.edges[k]
                assert rep.sign == (-1) ** (m[t] * (v[s] - m[s]))
                assert rep.matches, (w, v, k, m)


def test_orientation_against_substitution_oracle():
    for quiver, w, v in [(a2_quiver(), (1, 1), (2, 2)),
                         (affine_sl2_quiver(), (1, 1), (2, 1))]:
        ctx = make_context(quiver, w, v)
        for k in range(len(quiver.edges)):
            for m in itertools.product(*(range(vi + 1) for vi in v)):
                for f in dressing_basis(v, m, 1):
                    rep = orientation_flip_sign(ctx, k, m, f)
                    assert rep.matches == transported_matches_oracle(ctx, k, m, f), (
                        w, v, k, m, poly_text(f.value))


@pytest.mark.parametrize("v,m", [((3,), (1,)), ((2, 2), (1, 0)), ((1, 2, 1), (0, 1, 1))])
def test_dressing_basis_budget_is_its_exact_size(monkeypatch, v, m):
    # the partition count that guards the build is the size of the basis
    for degree in range(4):
        size = len(dressing_basis(v, m, degree))
        dressing_basis.cache_clear()
        monkeypatch.setattr(gklo, "DRESSING_BASIS_BUDGET", size)
        assert len(dressing_basis(v, m, degree)) == size
        dressing_basis.cache_clear()
        monkeypatch.setattr(gklo, "DRESSING_BASIS_BUDGET", size - 1)
        with pytest.raises(EnumerationBudgetError, match="more than %d" % (size - 1)):
            dressing_basis(v, m, degree)
        monkeypatch.undo()


def dressing_basis_per_charge(v, m, max_degree):
    """Test oracle for dressing_basis: every element built on its own, one
    orbit sum per block pattern multiplied in block order, with nothing
    shared between charges or elements."""
    blocks = []
    for i, vi in enumerate(v):
        for slots in (range(1, m[i] + 1), range(m[i] + 1, vi + 1)):
            if slots:
                blocks.append([wv(i, r) for r in slots])

    def block_patterns(size, deg):
        # weakly decreasing exponent tuples of the given total degree, first
        # entry descending
        return sorted((p for p in itertools.product(range(deg + 1), repeat=size)
                       if sum(p) == deg and list(p) == sorted(p, reverse=True)),
                      reverse=True)

    out = []
    for total in range(max_degree + 1):
        for split in gklo.compositions(total, len(blocks)):
            for choice in itertools.product(*(block_patterns(len(b), d)
                                              for b, d in zip(blocks, split))):
                poly = MPoly.one()
                for block, pat in zip(blocks, choice):
                    poly = poly * gklo.orbit_sum(block, pat)
                out.append(PartialSymPoly(poly, tuple(m), tuple(v)))
    return out


def test_dressing_basis_equals_the_per_charge_construction():
    # the block orbit sums are built once and shared by every charge; the
    # basis, and its order, is what each charge builds on its own
    for v in [(), (1,), (3,), (2, 2), (3, 1), (1, 2, 1)]:
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            for degree in range(4):
                want = dressing_basis_per_charge(v, m, degree)
                assert list(dressing_basis(v, m, degree)) == want, (v, m, degree)
    assert gklo._block_sums.cache_info().hits > 0
