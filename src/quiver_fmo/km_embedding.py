"""The Kac-Moody restriction chain on formal dressed minuscule monopole
operators: block Levi restriction composed with the cone-point map, two
Fourier transforms, and forgetting the leftover matter.  All sign factors are
computed from torus weight data, never hard-coded; the closed-form exponents
serve as cross-checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multipoly import (
    GKLOElement,
    MPoly,
    PartialSymPoly,
    RatFunc,
    W_KIND,
    poly_text,
    ratfunc_sum,
    tilde,
    wv,
)
from .quiver import DimData, check_conicity
from .gklo import GKLOContext, as_dressing, fmo, fmo_sign
from .defect_embed import DefectSplit, restrict_fmo_slice, slice_target_context


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
    if state.mmo is None:
        return
    for cand in state.mmo.dressing.dfac:
        if cand[0] != "var":
            raise ValueError("stage %s denominator has a non-variable factor" % state.stage)
        kind, i, r = cand[1]
        if kind != W_KIND or r > state.v_prime[i]:
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
    head = {("var", wv(i, p)): vdp[i] for i, mi in enumerate(m) if vdp[i]
            for p in range(1, mi + 1)}
    sign = eps ** sum(head.values())
    mmo = DressedMMO(omega(m, split.v_prime, eps), ratfunc_sum([(ft * sign, head)]))
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
    mmo = DressedMMO(state.mmo.gamma, state.mmo.dressing * sign)
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
    result: GKLOElement
    expected: GKLOElement
    matches_theorem: bool
    states: tuple


def mmo_to_gklo(target: GKLOContext, m, state: ChainState, sign: str) -> GKLOElement:
    """Convert the final MMO back to a monopole operator in birational
    coordinates; the dressing must have become polynomial."""
    tag = "zastava_loc" if sign == "+" else "slice_loc"
    if state.mmo is None:
        return GKLOElement.make(RatFunc.zero(), tag)
    dress = state.mmo.dressing
    if not dress.is_poly():
        raise ValueError("chain ended with a non-polynomial dressing: %r" % dress)
    poly = dress.as_poly()
    if sign == "-" and fmo_sign(target, m):
        poly = -poly
    f = PartialSymPoly.make(poly, tuple(m), target.v)
    return fmo(target, m, f, sign)


def compose_embedding(ctx: GKLOContext, split: DefectSplit, m, f, sign: str) -> ChainReport:
    """Run the whole chain and compare with the direct slice restriction."""
    m = tuple(m)
    f = as_dressing(ctx, m, f)
    if sign == "-":
        f0 = PartialSymPoly.make(
            -f.value if fmo_sign(ctx, m) else f.value, m, ctx.v)
    else:
        f0 = f
    states = [split_and_project(ctx, split, m, f0, sign)]
    states.append(fourier_step(ctx, states[-1], 1))
    states.append(fourier_step(ctx, states[-1], 2))
    states.append(forget_matter_step(ctx, states[-1]))
    target = slice_target_context(ctx, split.v_prime)
    result = mmo_to_gklo(target, m, states[-1], sign)
    expected = restrict_fmo_slice(ctx, split.v_prime, m, f, sign)
    return ChainReport(result, expected, result.value == expected.value, tuple(states))
