"""Adding-defect map, zastava/slice restriction, and both compatibility
statements on small instances."""

import itertools

import pytest

from quiver_fmo import defect_embed
from quiver_fmo.multipoly import (
    GKLOElement,
    MPoly,
    PartialSymPoly,
    RatFunc,
    ZVAR,
    linear_product,
    tilde,
    uv,
    wv,
)
from quiver_fmo.quiver import a1_quiver, a2_quiver, affine_sl2_quiver, cartan_matrix, mat_vec
from quiver_fmo.gklo import (
    chevalley,
    dressing_basis,
    fmo_plus,
    lagrange_charge,
    make_context,
    q_image,
    terms_value,
)
from quiver_fmo.defect_embed import (
    DefectSplit,
    phi,
    phi_fmo_terms,
    restrict_fmo_slice,
    slice_target_context,
    verify_adding_defect_theorem,
    verify_restriction,
)

W11, W12 = MPoly.var(wv(0, 1)), MPoly.var(wv(0, 2))
U11, U12 = MPoly.var(uv(0, 1)), MPoly.var(uv(0, 2))


def suite_w(quiver, v, v_prime):
    """Smallest dominant framing keeping the target framing dominant."""
    C = cartan_matrix(quiver)
    vdp = tuple(a - b for a, b in zip(v, v_prime))
    cv = mat_vec(C, vdp)
    return tuple(max(0, x) for x in cv)


def test_phi_on_u_variables():
    ctx = make_context(a1_quiver(), (2,), (2,))
    split = DefectSplit.make((2,), (1,))
    e1 = fmo_plus(ctx, (0,), PartialSymPoly.make(1, (0,), (2,)))
    assert phi(ctx, split, e1).value == RatFunc.one()
    u1 = RatFunc.from_poly(U11)
    u2 = RatFunc.from_poly(U12)
    assert phi(ctx, split, GKLOElement.make(u1, "zastava_loc")).value \
        == RatFunc.from_poly((W11 - W12) * U11)
    assert phi(ctx, split, GKLOElement.make(u2, "zastava_loc")).value.is_zero()


def test_phi_rejects_negative_u():
    ctx = make_context(a1_quiver(), (2,), (2,))
    split = DefectSplit.make((2,), (1,))
    with pytest.raises(ValueError):
        phi(ctx, split, RatFunc.from_poly(MPoly.var(uv(0, 2), -1)))


def defect_L_poly(split, i):
    """The monic tail factor prod_{r > v'_i} (z - w_{i,r})."""
    return linear_product((ZVAR, wv(i, r)) for r in range(split.v_prime[i] + 1, split.v[i] + 1))


def test_phi_gklo_square():
    """Q and P transform by the tail factor under the defect substitution."""
    for quiver, v, v_prime in [(a1_quiver(), (2,), (1,)), (a2_quiver(), (2, 2), (1, 1)),
                               (affine_sl2_quiver(), (2, 1), (1, 1))]:
        w = suite_w(quiver, v, v_prime)
        ctx = make_context(quiver, w, v)
        sub = make_context(quiver, w, v_prime)
        split = DefectSplit.make(v, v_prime)
        for i in range(quiver.n):
            L = RatFunc.from_poly(defect_L_poly(split, i))
            assert RatFunc.from_poly(q_image(ctx, i)) \
                == RatFunc.from_poly(q_image(sub, i)) * L
            assert phi(ctx, split, fmo_plus(ctx, *lagrange_charge(ctx, i))).value \
                == fmo_plus(sub, *lagrange_charge(sub, i)).value * L, (v, v_prime, i)


def test_phi_terms_at_the_ends_of_the_charge_range():
    ctx = make_context(a2_quiver(), (0, 0), (2, 2))
    split = DefectSplit.make((2, 2), (1, 2))
    # m > v': every subset meets a defect slot
    f = PartialSymPoly.make(MPoly.one(), (2, 1), (2, 2))
    assert list(phi_fmo_terms(ctx, split, (2, 1), f)) == []
    # m = 0: the one empty subset, carrying the dressing
    f0 = PartialSymPoly.make(W11 + W12, (0, 0), (2, 2))
    assert list(phi_fmo_terms(ctx, split, (0, 0), f0)) == [(((), ()), f0.value, {})]


def test_adding_defect_worked_example():
    ctx = make_context(a1_quiver(), (2,), (2,))
    split = DefectSplit.make((2,), (1,))
    rep = verify_adding_defect_theorem(ctx, split, (1,), MPoly.one())
    assert rep.holds and rep.lhs == RatFunc.from_poly(U11)


def test_adding_defect_zero_branch():
    ctx = make_context(a1_quiver(), (2,), (2,))
    rep = verify_adding_defect_theorem(ctx, DefectSplit.make((2,), (1,)), (2,), MPoly.one())
    assert rep.holds and rep.lhs.is_zero() and rep.rhs.is_zero()


def test_adding_defect_m_zero_is_sweedler_identity():
    ctx = make_context(a1_quiver(), (2,), (2,))
    f = PartialSymPoly.make(W11 + W12, (0,), (2,))
    rep = verify_adding_defect_theorem(ctx, DefectSplit.make((2,), (1,)), (0,), f)
    assert rep.holds


def test_phi_termwise_equals_phi_of_normalized():
    """The substitution applied to the defining sum agrees with the
    substitution applied to the normalized operator (phi is a ring map)."""
    for quiver, v, v_prime in [(a1_quiver(), (3,), (1,)), (a2_quiver(), (2, 2), (1, 1)),
                               (affine_sl2_quiver(), (2, 2), (2, 1))]:
        ctx = make_context(quiver, (0,) * quiver.n, v)
        split = DefectSplit.make(v, v_prime)
        for m in itertools.product(*(range(vi + 1) for vi in v)):
            for f in dressing_basis(v, m, 1):
                slow = phi(ctx, split, fmo_plus(ctx, m, f)).value
                fast = terms_value(phi_fmo_terms(ctx, split, m, f), 1)
                assert slow == fast, (v, v_prime, m)


def test_adding_defect_dressed_sweep():
    for quiver, v in [(a2_quiver(), (2, 1)), (affine_sl2_quiver(), (1, 2))]:
        w = tuple(0 for _ in v)
        ctx = make_context(quiver, w, v)
        for v_prime in itertools.product(*(range(vi + 1) for vi in v)):
            split = DefectSplit.make(v, v_prime)
            for m in itertools.product(*(range(vi + 1) for vi in v)):
                for f in dressing_basis(v, m, 2)[:5]:
                    rep = verify_adding_defect_theorem(ctx, split, m, f)
                    assert rep.holds, (v, v_prime, m)


def test_failing_adding_defect_builds_lhs_from_the_terms_it_has(monkeypatch):
    # with every subset identity forced to fail, the reported lhs is phi of
    # M^+_m(f), built from phi terms: once for the f = 1 core of each
    # (split, m), at its first dressing, and once for the lhs of each case
    starts = []
    real = defect_embed.phi_fmo_terms

    def counted(*args):
        starts.append(args)
        yield from real(*args)

    monkeypatch.setattr(defect_embed, "phi_fmo_terms", counted)
    monkeypatch.setattr(defect_embed, "identity_holds", lambda keyed: False)
    checked = 0
    for quiver, v in [(a1_quiver(), (2,)), (a2_quiver(), (2, 1)),
                      (affine_sl2_quiver(), (1, 2))]:
        ctx = make_context(quiver, (0,) * quiver.n, v)
        for v_prime in itertools.product(*(range(vi + 1) for vi in v)):
            split = DefectSplit.make(v, v_prime)
            for m in itertools.product(*(range(vi + 1) for vi in v)):
                for k, f in enumerate(dressing_basis(v, m, 1)):
                    starts.clear()
                    cores = defect_embed._defect_core.cache_info().misses
                    rep = verify_adding_defect_theorem(ctx, split, m, f)
                    core = defect_embed._defect_core.cache_info().misses - cores
                    assert not rep.holds and core == (k == 0), (v, v_prime, m)
                    assert len(starts) == 1 + core, (v, v_prime, m)
                    assert rep.lhs == phi(ctx, split, fmo_plus(ctx, m, f)).value
                    checked += not rep.lhs.is_zero()
    assert checked > 20


def test_slice_target_framing():
    ctx = make_context(affine_sl2_quiver(), (2, 2), (2, 2))
    target = slice_target_context(ctx, (1, 1))
    # w' = w - C v'' with v'' = (1,1): C(1,1) = (0,0) for affine sl2
    assert target.w == (2, 2) and target.v == (1, 1)
    ctx2 = make_context(a2_quiver(), (2, 1), (2, 1))
    target2 = slice_target_context(ctx2, (1, 1))
    assert target2.w == (0, 2)  # C(1,0) = (2,-1)
    with pytest.raises(ValueError):
        slice_target_context(make_context(a2_quiver(), (0, 0), (2, 1)), (1, 1))


def test_restrict_examples():
    ctx = make_context(a1_quiver(), (2,), (2,))
    assert restrict_fmo_slice(ctx, (1,), (1,), MPoly.one(), "+").value \
        == RatFunc.from_poly(U11)
    assert restrict_fmo_slice(ctx, (1,), (2,), MPoly.one(), "+").value.is_zero()
    killer = PartialSymPoly.make(W11 * W12, (0,), (2,))
    assert restrict_fmo_slice(ctx, (1,), (0,), killer, "+").value.is_zero()


def test_restriction_both_signs_examples():
    ctx = make_context(a1_quiver(), (2,), (2,))
    for sign in "+-":
        rep = verify_restriction(ctx, (1,), (1,), MPoly.one(), sign)
        assert rep.holds
    # negative-side value from the involution: -u^{-1} at target framing w'=(0)
    rep = verify_restriction(ctx, (1,), (1,), MPoly.one(), "-")
    assert rep.rhs == RatFunc.from_poly(-MPoly.var(uv(0, 1), -1))


def test_restriction_sweep_small():
    for quiver, v in [(a1_quiver(), (3,)), (affine_sl2_quiver(), (2, 1))]:
        for v_prime in itertools.product(*(range(vi + 1) for vi in v)):
            w = suite_w(quiver, v, v_prime)
            ctx = make_context(quiver, w, v)
            for m in itertools.product(*(range(vi + 1) for vi in v)):
                for f in dressing_basis(v, m, 1):
                    for sign in "+-":
                        rep = verify_restriction(ctx, v_prime, m, f, sign)
                        assert rep.holds, (v, v_prime, m, sign)


def test_failing_negative_restriction_is_iota_of_the_plus_route(monkeypatch):
    # with every subset identity forced to fail, the route holds exactly
    # where tilde(f) = 0 (both sides vanish), and the negative side reports
    # the involution of the tail-at-zero route, as the substitution oracle
    # computes it
    monkeypatch.setattr(defect_embed, "identity_holds", lambda keyed: False)
    checked = 0
    for quiver, v in [(a1_quiver(), (3,)), (a2_quiver(), (2, 1)),
                      (affine_sl2_quiver(), (2, 1))]:
        for v_prime in itertools.product(*(range(vi + 1) for vi in v)):
            w = suite_w(quiver, v, v_prime)
            ctx = make_context(quiver, w, v)
            target = slice_target_context(ctx, v_prime)
            for m in itertools.product(*(range(vp + 1) for vp in v_prime)):
                for f in dressing_basis(v, m, 1):
                    plus = verify_restriction(ctx, v_prime, m, f, "+")
                    minus = verify_restriction(ctx, v_prime, m, f, "-")
                    vanishes = tilde(f, v_prime).is_zero()
                    assert plus.holds == minus.holds == vanishes, (v, v_prime, m)
                    want = chevalley(
                        target, GKLOElement.make(plus.lhs, "slice_loc_loc")).value
                    assert minus.lhs == want, (v, v_prime, m)
                    checked += not want.is_zero()
    assert checked > 50
