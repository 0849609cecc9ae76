"""The Kac-Moody restriction chain on formal dressed minuscule monopole
operators: block Levi restriction composed with the cone-point map, two
Fourier transforms, and forgetting the leftover matter.  All sign factors are
computed from torus weight data, never hard-coded; the closed-form exponents
serve as cross-checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .multipoly import (
    MPoly,
    PartialSymPoly,
    RatFunc,
    over_head_powers,
    poly_text,
    tilde,
    wv,
)
from .quiver import DimData, check_conicity
from .gklo import GKLOContext, as_dressing, fmo, fmo_sign
from .defect_embed import (
    DefectSplit,
    restrict_fmo_slice,
    restricted_fmo,
    slice_target_context,
)


class ConicityError(ValueError):
    """The cone-point map needs the conicity condition for the split."""


class MinusculeError(ValueError):
    """The chain covers only minuscule coweights."""


# ---------------------------------------------------------------------------
# coweights of products of general linear groups


def is_minuscule(gamma) -> bool:
    """Entries at each vertex take at most two values, differing by one."""
    for tup in gamma:
        if not tup:
            continue
        vals = set(tup)
        if len(vals) > 2:
            return False
        if len(vals) == 2 and max(vals) - min(vals) != 1:
            return False
    return True


def omega(m, v, sign: int):
    """The coweight +-omega_m: sign in the first m_i slots of each vertex."""
    return tuple(tuple(sign if r <= mi else 0 for r in range(1, vi + 1))
                 for mi, vi in zip(m, v))


@dataclass(frozen=True)
class DressedMMO:
    """A coweight of a product of general linear groups together with a
    dressing allowed to live in the fraction field of the w-variables."""

    gamma: tuple
    dressing: RatFunc

    def __post_init__(self):
        if not is_minuscule(self.gamma):
            raise MinusculeError("coweight %r is not minuscule" % (self.gamma,))


# ---------------------------------------------------------------------------
# summand weight data

# a weight is (vertex, slot, eps) with eps = +-1, meaning eps * x_{i,r};
# summands are lists of (weight, multiplicity)


def weights_n1_mix(quiver, v_prime, v_dprime):
    out = []
    for (s, t) in quiver.edges:
        for p in range(1, v_prime[s] + 1):
            out.append(((s, p, -1), v_dprime[t]))
    return out


def weights_n4_half(v_prime, v_dprime):
    out = []
    for i, vp in enumerate(v_prime):
        for r in range(1, vp + 1):
            out.append(((i, r, +1), v_dprime[i]))
    return out


def dual_weights(weights):
    return [((i, r, -eps), mult) for (i, r, eps), mult in weights]


def _pairing(weight, gamma) -> int:
    i, r, eps = weight
    return eps * gamma[i][r - 1]


def fourier_sign(weights, gamma) -> int:
    """(-1) to the sum of positive pairings times multiplicities of the
    summand being dualized."""
    exponent = 0
    for weight, mult in weights:
        p = _pairing(weight, gamma)
        if p > 0:
            exponent += p * mult
    return -1 if exponent % 2 else 1


def forget_factor(weights, gamma) -> MPoly:
    """prod over negatively-pairing weights of (eps * w_{i,r})^{-pairing*mult},
    the torus factor picked up when the summand is forgotten."""
    out = MPoly.one()
    for (i, r, eps), mult in weights:
        p = eps * gamma[i][r - 1]
        if p < 0:
            base = MPoly.var(wv(i, r)) * eps
            out = out * base ** (-p * mult)
    return out


# ---------------------------------------------------------------------------
# the chain


@dataclass(frozen=True)
class ChainState:
    stage: str
    mmo: DressedMMO | None  # None encodes the zero element
    v_prime: tuple
    v_dprime: tuple
    factor: str  # this stage's sign or factor text, "zero" for the zero element


def _check_stage_denominator(state: ChainState):
    """Dressing denominators after the cone-point map may only involve the
    head variables w_{i,r}, r <= v'_i."""
    if state.mmo is None or state.mmo.dressing.is_poly():
        return
    dressing = state.mmo.dressing
    if not dressing.den_is_monomial():
        raise ValueError("stage %s denominator has a non-variable factor" % state.stage)
    head = {wv(i, r) for i, vp in enumerate(state.v_prime) for r in range(1, vp + 1)}
    if not dressing.den_variables() <= head:
        raise ValueError("stage %s denominator outside the allowed set" % state.stage)


def split_and_project(ctx: GKLOContext, split: DefectSplit, m, f, sign: str) -> ChainState:
    """Levi restriction followed by the cone-point map, in the combined
    single-formula form: the dressing becomes tilde(f) divided by the head
    monomial prod (+-w_{i,p})^{v''_i}; zero when m > v'."""
    m = tuple(m)
    f = as_dressing(ctx, m, f)
    vdp = split.v_doubleprime
    cone = check_conicity(DimData.make(ctx.w, vdp), ctx.cartan)
    if not cone.holds:
        raise ConicityError(
            "conicity fails for the split: witness %r with value %r"
            % (cone.witness, cone.min_value))
    eps = 1 if sign == "+" else -1
    if any(mi > vp for mi, vp in zip(m, split.v_prime)):
        return ChainState("split", None, split.v_prime, vdp, "zero")
    ft = tilde(f, split.v_prime).value
    sign = eps ** sum(e * mi for e, mi in zip(vdp, m))
    mmo = DressedMMO(omega(m, split.v_prime, eps), over_head_powers(ft * sign, m, vdp))
    state = ChainState("split", mmo, split.v_prime, vdp, "1")
    _check_stage_denominator(state)
    return state


def fourier_step(ctx: GKLOContext, state: ChainState, which: int) -> ChainState:
    """Dualize one summand: the first transform turns the incoming mixed block
    around, the second dualizes half of the leftover framing block."""
    stage = "fourier%d" % which
    if state.mmo is None:
        return ChainState(stage, None, state.v_prime, state.v_dprime, "zero")
    if which == 1:
        weights = weights_n1_mix(ctx.quiver, state.v_prime, state.v_dprime)
    elif which == 2:
        weights = weights_n4_half(state.v_prime, state.v_dprime)
    else:
        raise ValueError("which must be 1 or 2")
    sign = fourier_sign(weights, state.mmo.gamma)
    dressing = state.mmo.dressing
    mmo = DressedMMO(state.mmo.gamma, -dressing if sign < 0 else dressing)
    new = ChainState(stage, mmo, state.v_prime, state.v_dprime, "%+d" % sign)
    _check_stage_denominator(new)
    return new


def forget_matter_step(ctx: GKLOContext, state: ChainState) -> ChainState:
    """Forget the leftover framing block and the dual of its other half; the
    dressing picks up the negatively-pairing weight product."""
    if state.mmo is None:
        return ChainState("forget", None, state.v_prime, state.v_dprime, "zero")
    forgotten = weights_n4_half(state.v_prime, state.v_dprime) \
        + dual_weights(weights_n4_half(state.v_prime, state.v_dprime))
    factor = forget_factor(forgotten, state.mmo.gamma)
    mmo = DressedMMO(state.mmo.gamma, state.mmo.dressing * factor)
    new = ChainState("forget", mmo, state.v_prime, state.v_dprime, poly_text(factor))
    _check_stage_denominator(new)
    return new


@dataclass(frozen=True)
class ChainReport:
    result: RatFunc
    expected: RatFunc
    matches_theorem: bool
    states: tuple


@lru_cache(maxsize=1024)
def _chain_plan(ctx: GKLOContext, split: DefectSplit, m, sign: str) -> tuple:
    """The chain's states on the f = 1 dressing of charge m.  Every stage
    factor (the split's head powers, the Fourier signs, the forget factor)
    reads only (split, m, sign), so this is the stage work of every
    dressing; raises ConicityError, uncached, when the split is not conical."""
    states = [split_and_project(ctx, split, m, PartialSymPoly(MPoly.one(), m, ctx.v), sign)]
    states.append(fourier_step(ctx, states[-1], 1))
    states.append(fourier_step(ctx, states[-1], 2))
    states.append(forget_matter_step(ctx, states[-1]))
    return tuple(states)


def _scaled_states(plan: tuple, scale: RatFunc) -> tuple:
    """The plan's states with every dressing times scale, in canonical form,
    checked.  The Fourier steps only change signs, so each f = 1 dressing
    that equals an earlier one up to sign reuses that one's product."""
    products = {}
    states = []
    for st in plan:
        unit = st.mmo.dressing
        value = products.get(unit)
        if value is None:
            value = products[unit] = unit * scale
            products[-unit] = -value
        new = ChainState(st.stage, DressedMMO(st.mmo.gamma, value), st.v_prime,
                         st.v_dprime, st.factor)
        _check_stage_denominator(new)
        states.append(new)
    return tuple(states)


def compose_embedding(ctx: GKLOContext, split: DefectSplit, m, f, sign: str) -> ChainReport:
    """Run the whole chain and compare with the direct slice restriction.

    The chain runs on the input dressing f0 (f, with the sign of fmo_sign
    for M^-).  Its stages run once per (split, m, sign), on f0 = 1
    (_chain_plan), and each stage's dressing at f0 is its dressing at
    f0 = 1 times tilde(f0), which is tilde(f) up to that sign.

    The chain ends in M^sign_m(g) over the target slice, g the final
    dressing (with the sign of fmo_sign for M^-), and the restriction is
    M^sign_m(tilde f).  M^sign_m is linear and injective on dressings: the
    subset-Gamma term is g|_Gamma A_Gamma / D_Gamma u_Gamma^{+-1}, the
    u-monomials differ, A_Gamma != 0 and g|_[m] = g.  So the two agree
    exactly when g = tilde(f), and M^sign_m(g) is built only when not."""
    m = tuple(m)
    f = as_dressing(ctx, m, f)
    plan = _chain_plan(ctx, split, m, sign)
    if plan[-1].mmo is None:  # m > v': both sides are zero
        expected = restrict_fmo_slice(ctx, split.v_prime, m, f, sign)
        return ChainReport(expected, expected, True, plan)
    f_tilde = tilde(f, split.v_prime)
    f0 = -f_tilde.value if sign == "-" and fmo_sign(ctx, m) else f_tilde.value
    states = _scaled_states(plan, RatFunc.from_poly(f0))
    final = states[-1].mmo.dressing
    if not final.is_poly():
        raise ValueError("chain ended with a non-polynomial dressing: %r" % final)
    g = final.as_poly()
    target = slice_target_context(ctx, split.v_prime)
    if sign == "-" and fmo_sign(target, m):
        g = -g
    expected = restricted_fmo(ctx, f_tilde, sign)
    if g == f_tilde.value:
        return ChainReport(expected, expected, True, states)
    result = fmo(target, m, PartialSymPoly.make(g, m, target.v), sign)
    return ChainReport(result, expected, False, states)
