"""The Levi/cone-point/Fourier/forget chain on dressed minuscule monopole
operators, against the localization oracle and the direct slice
restriction."""

import hashlib
import itertools

import pytest

from localization_oracle import (
    check_stabilizer_invariance,
    closed_form_signs,
    levi_restrict_mmo,
    localize_mmo,
)
from quiver_fmo import km_embedding
from quiver_fmo.cli import main
from quiver_fmo.multipoly import (
    MPoly,
    PartialSymPoly,
    RatFunc,
    over_head_powers,
    ratfunc_sum,
    tilde,
    uv,
    wv,
)
from quiver_fmo.quiver import (
    DimData,
    a1_quiver,
    a2_quiver,
    affine_sl2_quiver,
    cartan_matrix,
    check_conicity,
    mat_vec,
)
from quiver_fmo.gklo import dressing_basis, fmo, fmo_sign, make_context
from quiver_fmo.defect_embed import (
    DefectSplit,
    _tail_zero_term,
    restrict_fmo_slice,
    slice_target_context,
    verify_adding_defect_theorem,
    verify_restriction,
)
from quiver_fmo.km_embedding import (
    ConicityError,
    DressedMMO,
    MinusculeError,
    compose_embedding,
    dual_weights,
    forget_factor,
    forget_matter_step,
    fourier_sign,
    fourier_step,
    is_minuscule,
    omega,
    split_and_project,
    weights_n1_mix,
    weights_n4_half,
)

W11, W12, W13 = MPoly.var(wv(0, 1)), MPoly.var(wv(0, 2)), MPoly.var(wv(0, 3))


def suite_w(quiver, v, v_prime, boost=0):
    C = cartan_matrix(quiver)
    vdp = tuple(a - b for a, b in zip(v, v_prime))
    base = tuple(max(0, x) + boost for x in mat_vec(C, vdp))
    return base


# ---------------------------------------------------------------------------
# coweights and MMOs


def test_minuscule_recognition():
    assert is_minuscule(((1, 0), (0, 0)))
    assert is_minuscule(((2, 1), (-1, -1)))
    assert not is_minuscule(((2, 0),))
    with pytest.raises(MinusculeError):
        DressedMMO(((2, 0),), RatFunc.one())


def test_stabilizer_invariance():
    good = DressedMMO(((1, 0, 0),), RatFunc.from_poly(W12 + W13))
    assert check_stabilizer_invariance(good)
    bad = DressedMMO(((1, 0, 0),), RatFunc.from_poly(W12))
    assert not check_stabilizer_invariance(bad)


# ---------------------------------------------------------------------------
# localization


def test_localize_gl1():
    loc = localize_mmo(((1,),), RatFunc.one())
    assert loc == {((1,),): RatFunc.one()}


def test_localize_gl2_fundamental():
    loc = localize_mmo(((1, 0),), RatFunc.one())
    assert loc[((1, 0),)] == RatFunc.make(MPoly.one(), W11 - W12)
    assert loc[((0, 1),)] == RatFunc.make(MPoly.one(), W12 - W11)
    assert len(loc) == 2


def test_localize_zero_coweight():
    f = RatFunc.from_poly(W11 + W12)
    assert localize_mmo(((0, 0),), f) == {((0, 0),): f}


def test_localize_matches_fmo_denominators():
    # the orbit expansion of -omega at GL(2) carries the reversed differences
    loc = localize_mmo(((-1, 0),), RatFunc.one())
    assert loc[((-1, 0),)] == RatFunc.make(MPoly.one(), W12 - W11)
    assert loc[((0, -1),)] == RatFunc.make(MPoly.one(), W11 - W12)


@pytest.mark.parametrize("gamma,v_prime", [
    (((1, 0, 0),), (2,)), (((1, 1, 0),), (2,)), (((0, 0, -1),), (1,)),
    (((1, 0), (0, -1)), (1, 1)), (((1, 1), (1, 0)), (1, 1)),
])
def test_levi_restriction_against_localization(gamma, v_prime):
    """The block-Levi restriction re-localizes to the full torus expansion."""
    v = tuple(len(t) for t in gamma)
    dress = RatFunc.from_poly(sum((MPoly.var(wv(i, r)) for i, vi in enumerate(v)
                                   for r in range(1, vi + 1)), MPoly.zero()))
    blocks = tuple(
        (tuple(range(1, vp + 1)), tuple(range(vp + 1, vi + 1)))
        if 0 < vp < vi else (tuple(range(1, vi + 1)),)
        for vp, vi in zip(v_prime, v))
    lhs = localize_mmo(gamma, dress)
    rhs = {}
    for part in levi_restrict_mmo(gamma, dress, v_prime):
        for pt, c in localize_mmo(part.gamma, part.dressing, blocks).items():
            rhs[pt] = rhs.get(pt, RatFunc.zero()) + c
    rhs = {pt: c for pt, c in rhs.items() if not c.is_zero()}
    assert lhs == rhs


CONE_POINT_CASES = [
    (a1_quiver(), (3,), (2,)), (a1_quiver(), (3,), (1,)),
    (a2_quiver(), (2, 2), (1, 1)), (a2_quiver(), (2, 1), (1, 0)),
    (affine_sl2_quiver(), (2, 2), (1, 1)), (affine_sl2_quiver(), (2, 1), (1, 1)),
]


def test_split_is_levi_restriction_at_the_cone_point():
    """split_and_project is the Levi restriction of the MMO followed by the
    cone-point map: the Levi-dominant orbit part whose tail entries all
    vanish, specialized at the tail-at-zero divisor."""
    cases = 0
    for quiver, v, v_prime in CONE_POINT_CASES:
        split = DefectSplit.make(v, v_prime)
        C = cartan_matrix(quiver)
        w = next(w for w in (suite_w(quiver, v, v_prime, boost) for boost in range(3))
                 if check_conicity(DimData.make(w, split.v_doubleprime), C).holds)
        ctx = make_context(quiver, w, v)
        for m in itertools.product(*(range(vp + 1) for vp in v_prime)):
            # the -omega_m head is dominant with its -1 block last; the chain
            # puts it first
            relabel = {wv(i, r): wv(i, k) for i, (vp, mi) in enumerate(zip(v_prime, m))
                       for k, r in enumerate([*range(vp - mi + 1, vp + 1),
                                              *range(1, vp - mi + 1)], start=1)}
            for f in dressing_basis(v, m, 2):
                for eps, sign in ((1, "+"), (-1, "-")):
                    parts = [part for part in levi_restrict_mmo(omega(m, v, eps), f.value, v_prime)
                             if not any(any(tup[vp:]) for tup, vp in zip(part.gamma, v_prime))]
                    assert len(parts) == 1
                    dress = parts[0].dressing
                    at_zero = _tail_zero_term(dress.num, dress.dfac, split)
                    dress = ratfunc_sum([at_zero]) if at_zero else RatFunc.zero()
                    if eps < 0:
                        dress = dress.permute_vars(relabel)
                    st = split_and_project(ctx, split, m, f, sign)
                    assert st.mmo.gamma == omega(m, v_prime, eps)
                    assert st.mmo.dressing == dress, (v, v_prime, m, f, sign)
                    cases += 1
    assert cases > 300


# ---------------------------------------------------------------------------
# weight bookkeeping


def test_fourier_signs_match_closed_forms():
    for quiver, v, v_prime in [(a2_quiver(), (2, 2), (1, 1)),
                               (affine_sl2_quiver(), (2, 2), (1, 1)),
                               (affine_sl2_quiver(), (3, 2), (2, 1))]:
        vdp = tuple(a - b for a, b in zip(v, v_prime))
        for m in itertools.product(*(range(vp + 1) for vp in v_prime)):
            gp = omega(m, v_prime, 1)
            gm = omega(m, v_prime, -1)
            # positive case: first transform trivial, second by sum m_i v''_i
            assert fourier_sign(weights_n1_mix(quiver, v_prime, vdp), gp) == 1
            assert fourier_sign(weights_n4_half(v_prime, vdp), gp) \
                == (-1) ** sum(a * b for a, b in zip(m, vdp))
            # negative case: first transform by the edge sum, second trivial
            assert fourier_sign(weights_n1_mix(quiver, v_prime, vdp), gm) \
                == (-1) ** sum(m[a[0]] * vdp[a[1]] for a in quiver.edges)
            assert fourier_sign(weights_n4_half(v_prime, vdp), gm) == 1


def test_forget_factors():
    v_prime, vdp = (1,), (1,)
    n4 = weights_n4_half(v_prime, vdp)
    forgotten = n4 + dual_weights(n4)
    assert forget_factor(forgotten, ((1,),)) == -W11
    assert forget_factor(forgotten, ((-1,),)) == W11
    assert forget_factor(forgotten, ((0,),)) == MPoly.one()


# ---------------------------------------------------------------------------
# the chain


def test_split_and_project_examples():
    ctx = make_context(a1_quiver(), (2,), (2,))
    split = DefectSplit.make((2,), (1,))
    st = split_and_project(ctx, split, (1,), MPoly.one(), "+")
    assert st.mmo.gamma == ((1,),)
    assert st.mmo.dressing == RatFunc.make(MPoly.one(), W11)
    st0 = split_and_project(ctx, split, (2,), MPoly.one(), "+")
    assert st0.mmo is None
    stm = split_and_project(ctx, split, (1,), MPoly.one(), "-")
    assert stm.mmo.gamma == ((-1,),)
    assert stm.mmo.dressing == RatFunc.make(MPoly.one(), -W11)


@pytest.mark.parametrize("v,m,vdp", [((3,), (2,), (2,)), ((2, 2), (1, 2), (1, 2)),
                                      ((3, 2), (2, 1), (3, 0))])
def test_head_division_matches_the_formwise_normalization(v, m, vdp):
    # one exponent test per vertex cancels what dividing by each head form on
    # its own cancels, to the same canonical (num, dfac) pair
    head = {("var", wv(i, p)): vdp[i] for i, mi in enumerate(m) if vdp[i]
            for p in range(1, mi + 1)}
    basis = dressing_basis(v, m, 3)
    nums = [MPoly.zero()] + [a.value * b.value for a, b in itertools.product(basis, basis[-8:])]
    cancelled = 0
    for num in nums:
        got = over_head_powers(num, m, vdp)
        assert got == ratfunc_sum([(num, head)]), num
        cancelled += got.dfac != head
    assert cancelled > 5


def test_conicity_gate():
    ctx = make_context(affine_sl2_quiver(), (0, 0), (2, 2))
    with pytest.raises(ConicityError):
        split_and_project(ctx, DefectSplit.make((2, 2), (1, 1)), (1, 1),
                          MPoly.one(), "+")


@pytest.mark.parametrize("entry", [
    lambda ctx, split, f: verify_adding_defect_theorem(ctx, split, (1,), f),
    lambda ctx, split, f: restrict_fmo_slice(ctx, split.v_prime, (1,), f, "+"),
    lambda ctx, split, f: verify_restriction(ctx, split.v_prime, (1,), f, "-"),
    lambda ctx, split, f: split_and_project(ctx, split, (1,), f, "+"),
    lambda ctx, split, f: compose_embedding(ctx, split, (1,), f, "-"),
], ids=["verify_adding_defect_theorem", "restrict_fmo_slice", "verify_restriction",
        "split_and_project", "compose_embedding"])
def test_entry_points_refuse_a_dressing_for_another_charge(entry):
    ctx = make_context(a1_quiver(), (2,), (2,))
    split = DefectSplit.make((2,), (1,))
    with pytest.raises(ValueError, match="different"):
        entry(ctx, split, PartialSymPoly.make(MPoly.one(), (0,), (2,)))


def test_chain_worked_example():
    ctx = make_context(a1_quiver(), (2,), (2,))
    split = DefectSplit.make((2,), (1,))
    rep = compose_embedding(ctx, split, (1,), MPoly.one(), "+")
    assert rep.matches_theorem
    assert rep.result == RatFunc.from_poly(MPoly.var(uv(0, 1)))
    stages = [st.stage for st in rep.states]
    assert stages == ["split", "fourier1", "fourier2", "forget"]
    # the final dressing collapsed to the truncated dressing
    assert rep.states[-1].mmo.dressing == RatFunc.one()


def test_chain_negative_example():
    ctx = make_context(a1_quiver(), (2,), (2,))
    split = DefectSplit.make((2,), (1,))
    rep = compose_embedding(ctx, split, (1,), MPoly.one(), "-")
    assert rep.matches_theorem
    assert rep.result == RatFunc.from_poly(-MPoly.var(uv(0, 1), -1))


def test_chain_m_zero():
    ctx = make_context(a1_quiver(), (2,), (2,))
    split = DefectSplit.make((2,), (1,))
    f = dressing_basis((2,), (0,), 2)[-1]
    for sign in "+-":
        rep = compose_embedding(ctx, split, (0,), f, sign)
        assert rep.matches_theorem


def test_stage_signs_logged_match_closed_forms():
    ctx = make_context(affine_sl2_quiver(), (2, 2), (2, 2))
    split = DefectSplit.make((2, 2), (1, 1))
    for sign in "+-":
        st = split_and_project(ctx, split, (1, 1), MPoly.one(), sign)
        st = fourier_step(ctx, st, 1)
        f1, f2 = closed_form_signs(ctx, split, (1, 1), sign)
        assert st.factor == "%+d" % f1
        st = fourier_step(ctx, st, 2)
        assert st.factor == "%+d" % f2
        st = forget_matter_step(ctx, st)
        assert st.mmo.dressing.is_poly()


def chain_sweep(max_degree=1):
    """(ctx, split, m, f, sign) over conical splits of a1, a2 and affine_sl2,
    every charge and the dressing basis up to max_degree."""
    cases = [(a1_quiver(), (3,), (2,)), (a2_quiver(), (2, 1), (1, 1)),
             (affine_sl2_quiver(), (2, 2), (1, 1))]
    for quiver, v, v_prime in cases:
        for boost in (0, 1):
            w = suite_w(quiver, v, v_prime, boost)
            C = cartan_matrix(quiver)
            vdp = tuple(a - b for a, b in zip(v, v_prime))
            if not check_conicity(DimData.make(w, vdp), C).holds:
                continue
            ctx = make_context(quiver, w, v)
            split = DefectSplit.make(v, v_prime)
            for m in itertools.product(*(range(vi + 1) for vi in v)):
                for f in dressing_basis(v, m, max_degree):
                    for sign in "+-":
                        yield ctx, split, m, f, sign


def chain_value(ctx, split, m, state, sign):
    """Test oracle: the operator the chain ends in, M^sign_m of the final
    dressing over the target slice (with the sign of fmo_sign for M^-),
    built through fmo.  The library compares the dressing instead."""
    target = slice_target_context(ctx, split.v_prime)
    if state.mmo is None:
        return RatFunc.zero()
    g = state.mmo.dressing.as_poly()
    if sign == "-" and fmo_sign(target, m):
        g = -g
    return fmo(target, m, PartialSymPoly.make(g, m, target.v), sign)


def test_chain_matches_restriction_sweep():
    checked = 0
    for ctx, split, m, f, sign in chain_sweep():
        rep = compose_embedding(ctx, split, m, f, sign)
        assert rep.matches_theorem, (ctx.v, split.v_prime, ctx.w, m, sign)
        value = chain_value(ctx, split, m, rep.states[-1], sign)
        assert rep.result == value == rep.expected, (ctx.v, split.v_prime, m, f, sign)
        checked += not value.is_zero()
    assert checked > 90


# stdout sha256 of the run below with forget_factor negated, recorded before
# the chain compared dressings instead of operators
FAILING_CHAIN_SHA256 = "86e4fed59d15d829a768d0d82507b896e8ac3b03c4336ea8a062e204cc4928ff"


def test_failing_chain_reports_the_operator_of_its_dressing(capsys, monkeypatch):
    real = km_embedding.forget_factor
    monkeypatch.setattr(km_embedding, "forget_factor", lambda weights, gamma: -real(weights, gamma))
    code = main("verify km-embedding --quiver a2 --w 2,2 --v 2,2 --vprime 1,1 --json".split())
    out = capsys.readouterr()
    assert (code, out.err) == (1, "")
    assert hashlib.sha256(out.out.encode()).hexdigest() == FAILING_CHAIN_SHA256


def chain_states(ctx, split, m, f0, sign):
    """The chain's stages on the input dressing f0."""
    states = [split_and_project(ctx, split, m, f0, sign)]
    states.append(fourier_step(ctx, states[-1], 1))
    states.append(fourier_step(ctx, states[-1], 2))
    states.append(forget_matter_step(ctx, states[-1]))
    return states


def test_stage_dressings_scale_by_the_restricted_dressing():
    # every stage factor reads only (split, m, sign), so each stage's
    # dressing at f0 is its dressing at f0 = 1 times tilde(f0)
    checked = 0
    for ctx, split, m, f0, sign in chain_sweep(max_degree=2):
        if any(mi > vp for mi, vp in zip(m, split.v_prime)):
            continue
        scale = RatFunc.from_poly(tilde(f0, split.v_prime).value)
        unit = chain_states(ctx, split, m, PartialSymPoly.make(1, m, ctx.v), sign)
        for st, st1 in zip(chain_states(ctx, split, m, f0, sign), unit):
            assert st.mmo.gamma == st1.mmo.gamma and st.factor == st1.factor
            assert st.mmo.dressing == st1.mmo.dressing * scale, (st.stage, m, f0, sign)
        checked += not scale.is_zero()
    assert checked > 100


def test_degree_preserved_by_restriction():
    from quiver_fmo.monopole_hilbert import fmo_degree
    from quiver_fmo.defect_embed import slice_target_context

    for quiver, v, v_prime in [(a1_quiver(), (3,), (1,)), (affine_sl2_quiver(), (2, 2), (1, 1))]:
        w = suite_w(quiver, v, v_prime, 1)
        ctx = make_context(quiver, w, v)
        target = slice_target_context(ctx, v_prime)
        for m in itertools.product(*(range(vp + 1) for vp in v_prime)):
            assert fmo_degree(ctx, m) == fmo_degree(target, m), (v, v_prime, m)
