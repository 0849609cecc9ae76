"""The Kac-Moody restriction chain on formal dressed minuscule monopole
operators: block Levi restriction composed with the cone-point map, two
Fourier transforms, and forgetting the leftover matter.  All sign factors are
computed from torus weight data, never hard-coded; the closed-form exponents
serve as cross-checks in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .multipoly import (
    GKLOElement,
    MPoly,
    PartialSymPoly,
    RatFunc,
    W_KIND,
    inverse_linear_product,
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
    """The localization formula here only covers minuscule coweights."""


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


def _stabilizer_blocks(gamma):
    """Slots with equal gamma-entries, per vertex: the Weyl stabilizer."""
    out = []
    for i, tup in enumerate(gamma):
        by_val = {}
        for r, val in enumerate(tup, start=1):
            by_val.setdefault(val, []).append(r)
        out.append(tuple(tuple(slots) for _, slots in sorted(by_val.items())))
    return tuple(out)


def check_stabilizer_invariance(mmo: DressedMMO) -> bool:
    """The dressing must be fixed by adjacent transpositions inside every
    equal-entry block of gamma."""
    value = mmo.dressing
    for i, blocks in enumerate(_stabilizer_blocks(mmo.gamma)):
        for slots in blocks:
            for a, b in zip(slots, slots[1:]):
                swap = {wv(i, a): wv(i, b), wv(i, b): wv(i, a)}
                if value.permute_vars(swap) != value:
                    return False
    return True


# ---------------------------------------------------------------------------
# localization oracle: expansion of an MMO over the torus basis


def _orbit_with_reps(gamma, blocks):
    """Weyl orbit of gamma under the block-wise symmetric groups, with a
    variable relabeling realizing each orbit point.

    ``blocks`` is a per-vertex tuple of slot groups the group may permute
    (the full vertex for G, head/tail separately for a block Levi).
    """
    per_vertex = []
    for i, tup in enumerate(gamma):
        arrangements = {}
        block_list = blocks[i]
        pools = [tuple(tup[r - 1] for r in grp) for grp in block_list]
        for perms in itertools.product(*(set(itertools.permutations(p)) for p in pools)):
            arranged = list(tup)
            varmap = {}
            for grp, perm in zip(block_list, perms):
                for slot, val in zip(grp, perm):
                    arranged[slot - 1] = val
                # build sigma with sigma(gamma)|grp = perm: map source slots
                # (carrying values tup[grp]) onto target slots by value
                remaining = {s: tup[s - 1] for s in grp}
                targets = {s: val for s, val in zip(grp, perm)}
                used = set()
                for s in grp:
                    val = remaining[s]
                    for t in grp:
                        if t not in used and targets[t] == val:
                            varmap[wv(i, s)] = wv(i, t)
                            used.add(t)
                            break
            key = tuple(arranged)
            if key not in arrangements:
                arrangements[key] = varmap
        per_vertex.append(arrangements)
    for combo in itertools.product(*(sorted(a.items()) for a in per_vertex)):
        point = tuple(c[0] for c in combo)
        varmap = {}
        for c in combo:
            varmap.update(c[1])
        yield point, varmap


def _full_blocks(v):
    return tuple((tuple(range(1, vi + 1)),) for vi in v)


def _root_pairs(delta, blocks):
    """The pairs (w_{i,r}, w_{i,s}) over the group's root directions (pairs
    within one block) pairing positively with delta."""
    return ((wv(i, r), wv(i, s)) for i, tup in enumerate(delta)
            for grp in blocks[i] for r in grp for s in grp if tup[r - 1] > tup[s - 1])


def localize_mmo(gamma, dressing, blocks=None) -> dict:
    """Expansion of the dressed MMO over the torus basis: a map from orbit
    coweights to rational coefficients; the independent oracle for the chain.
    """
    if not is_minuscule(gamma):
        raise MinusculeError("coweight %r is not minuscule" % (gamma,))
    if blocks is None:
        blocks = _full_blocks(tuple(len(t) for t in gamma))
    dressing = RatFunc._lift(dressing)
    out = {}
    for point, varmap in _orbit_with_reps(gamma, blocks):
        roots = inverse_linear_product(_root_pairs(point, blocks))
        coeff = dressing.permute_vars(varmap) * roots
        out[point] = out.get(point, RatFunc.zero()) + coeff
    return {p: c for p, c in out.items() if not c.is_zero()}


def levi_restrict_mmo(gamma, dressing, v_prime):
    """Restriction of an MMO to the block Levi: the list of Levi-dominant
    orbit coweights with their rational dressings."""
    v = tuple(len(t) for t in gamma)
    v_prime = tuple(v_prime)
    out = []
    for point, varmap in _orbit_with_reps(gamma, _full_blocks(v)):
        # Levi-dominant means dominant separately on head and tail slots
        ok = True
        for i, tup in enumerate(point):
            head = tup[: v_prime[i]]
            tail = tup[v_prime[i]:]
            if list(head) != sorted(head, reverse=True) or list(tail) != sorted(tail, reverse=True):
                ok = False
                break
        if not ok:
            continue
        # head-tail roots pairing positively with the orbit point
        cross = inverse_linear_product(
            (wv(i, r), wv(i, s)) if tup[r - 1] > tup[s - 1] else (wv(i, s), wv(i, r))
            for i, tup in enumerate(point) for r in range(1, v_prime[i] + 1)
            for s in range(v_prime[i] + 1, v[i] + 1) if tup[r - 1] != tup[s - 1])
        dress = RatFunc._lift(dressing).permute_vars(varmap) * cross
        out.append(DressedMMO(point, dress))
    return out


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
    sign_log: tuple  # ((stage, sign or factor text), ...)


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
        return ChainState("split", None, split.v_prime, vdp, (("split", "zero"),))
    ft = tilde(f, split.v_prime).value
    head = {("var", wv(i, p)): vdp[i] for i, mi in enumerate(m) if vdp[i]
            for p in range(1, mi + 1)}
    sign = eps ** sum(head.values())
    mmo = DressedMMO(omega(m, split.v_prime, eps), ratfunc_sum([(ft * sign, head)]))
    state = ChainState("split", mmo, split.v_prime, vdp, (("split", "1"),))
    _check_stage_denominator(state)
    return state


def fourier_step(ctx: GKLOContext, state: ChainState, which: int) -> ChainState:
    """Dualize one summand: the first transform turns the incoming mixed block
    around, the second dualizes half of the leftover framing block."""
    stage = "fourier%d" % which
    if state.mmo is None:
        return ChainState(stage, None, state.v_prime, state.v_dprime,
                          state.sign_log + ((stage, "zero"),))
    if which == 1:
        weights = weights_n1_mix(ctx.quiver, state.v_prime, state.v_dprime)
    elif which == 2:
        weights = weights_n4_half(state.v_prime, state.v_dprime)
    else:
        raise ValueError("which must be 1 or 2")
    sign = fourier_sign(weights, state.mmo.gamma)
    mmo = DressedMMO(state.mmo.gamma, state.mmo.dressing * sign)
    new = ChainState(stage, mmo, state.v_prime, state.v_dprime,
                     state.sign_log + ((stage, "%+d" % sign),))
    _check_stage_denominator(new)
    return new


def forget_matter_step(ctx: GKLOContext, state: ChainState) -> ChainState:
    """Forget the leftover framing block and the dual of its other half; the
    dressing picks up the negatively-pairing weight product."""
    if state.mmo is None:
        return ChainState("forget", None, state.v_prime, state.v_dprime,
                          state.sign_log + (("forget", "zero"),))
    forgotten = weights_n4_half(state.v_prime, state.v_dprime) \
        + dual_weights(weights_n4_half(state.v_prime, state.v_dprime))
    factor = forget_factor(forgotten, state.mmo.gamma)
    mmo = DressedMMO(state.mmo.gamma, state.mmo.dressing * factor)
    new = ChainState("forget", mmo, state.v_prime, state.v_dprime,
                     state.sign_log + (("forget", poly_text(factor)),))
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


def closed_form_signs(ctx: GKLOContext, split: DefectSplit, m, sign: str):
    """The exponents quoted for the two transforms: sum m_i v''_i for the
    positive second transform, the edge sum for the negative first one."""
    vdp = split.v_doubleprime
    if sign == "+":
        f1 = 1
        f2 = (-1) ** (sum(mi * vi for mi, vi in zip(m, vdp)) % 2)
    else:
        f1 = (-1) ** (sum(m[a[0]] * vdp[a[1]] for a in ctx.quiver.edges) % 2)
        f2 = 1
    return f1, f2
