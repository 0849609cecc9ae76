"""Test oracles for the Kac-Moody restriction chain.

``localize_mmo`` expands a dressed minuscule monopole operator over the torus
basis by Weyl-orbit localization, and ``levi_restrict_mmo`` restricts it to a
block Levi.  The library never localizes: ``km_embedding.split_and_project``
gives the Levi restriction at the cone point in one closed formula, and the
tests compare the two.  ``closed_form_signs`` are the exponents quoted for the
two Fourier transforms, which the chain computes from weight data instead.
"""

import itertools

from quiver_fmo.km_embedding import DressedMMO, MinusculeError, is_minuscule
from quiver_fmo.multipoly import MPoly, RatFunc, linear_factors, ratfunc_sum, wv


def inverse_linear_product(pairs) -> RatFunc:
    """1 / the product of the linear forms x_a - x_b over the (a, b) pairs."""
    dfac, sign = linear_factors(pairs)
    return ratfunc_sum([(MPoly.const(sign), dfac)])


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




def closed_form_signs(ctx, split, m, sign):
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
