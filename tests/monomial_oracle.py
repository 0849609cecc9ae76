"""Test oracle for multipoly's packed monomials: the tuple format they
replaced, and a polynomial kernel over it.

A tuple monomial is a sorted tuple of ((kind, vertex, slot), exponent) pairs
with nonzero exponents, the format ``MPoly.items()`` decodes to and
``MPoly.from_items`` reads.  A tuple polynomial is a dict from tuple
monomials to nonzero coefficients.  Nothing here touches a packed monomial,
so every packed kernel can be compared with it after decoding.
"""

from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter

from quiver_fmo.multipoly import U_KIND, var_text

_var_of = itemgetter(0)


def mon_mul(m1, m2):
    """The product of two tuple monomials, with the fast paths of the tuple
    kernel: concatenation of disjoint variable ranges, insertion of a
    one-variable operand, and a merge."""
    if not m1:
        return m2
    if not m2:
        return m1
    # variable ranges that do not overlap: concatenate
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    # a one-variable operand inside the other's range: insert it
    if len(m1) == 1:
        m1, m2 = m2, m1
    if len(m2) == 1:
        v, e = m2[0]
        k = bisect_left(m1, v, key=_var_of)
        if m1[k][0] != v:
            return m1[:k] + m2 + m1[k:]
        e += m1[k][1]
        if e:
            return m1[:k] + ((v, e),) + m1[k + 1:]
        return m1[:k] + m1[k + 1:]
    # merge of two sorted tuples
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            e = e1 + e2
            if e:
                out.append((v1, e))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mon_div(m1, m2):
    """m1 / m2 if the quotient has no negative w/z exponents, else None."""
    out = dict(m1)
    for v, e in m2:
        n = out.get(v, 0) - e
        if n == 0:
            out.pop(v, None)
            continue
        if n < 0 and v[0] != U_KIND:
            return None
        out[v] = n
    return tuple(sorted(out.items()))


def MON_KEY(m):
    """Sort key of the graded lexicographic order over the fixed variable
    order: total degree first, then the exponent vectors compared at the
    first variable where they differ, an absent variable counting as
    exponent 0.  A positive exponent on a variable ranks it above every later
    variable (hence the negated variable), a negative one below; the closing
    (0,) stands for the exponent 0 of every variable past the end."""
    return (sum(e for _, e in m),
            tuple((1, -k, -i, -r, e) if e > 0 else (-1, k, i, r, e)
                  for (k, i, r), e in m) + ((0,),))


# ---------------------------------------------------------------------------
# tuple polynomials


def poly(p) -> dict:
    """The tuple polynomial of an MPoly."""
    return dict(p.items())


def _add_term(out, m, c):
    n = out.get(m, 0) + c
    if n:
        out[m] = n
    else:
        out.pop(m, None)


def add(a, b):
    out = dict(a)
    for m, c in b.items():
        _add_term(out, m, c)
    return out


def mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _add_term(out, mon_mul(m1, m2), c1 * c2)
    return out


def power(a, n: int):
    out = {(): 1}
    for _ in range(n):
        out = mul(out, a)
    return out


def permute_vars(a, varmap):
    out = {}
    for m, c in a.items():
        _add_term(out, tuple(sorted((varmap.get(v, v), e) for v, e in m)), c)
    return out


def subs_zero(a, dead):
    return {m: c for m, c in a.items() if not any(v in dead for v, _ in m)}


def min_exponent(a, var) -> int:
    return min((dict(m).get(var, 0) for m in a), default=0)


def variables(a) -> set:
    return {v for m in a for v, _ in m}


def leading(a):
    best = max(a, key=MON_KEY)
    return best, a[best]


def _diff_poly(x, y):
    return {((x, 1),): 1, ((y, 1),): -1} if x != y else {}


def at_zero(num, dfac, dead):
    """The tuple-polynomial version of multipoly.at_zero, by expanding: the
    numerator and the denominator over its forms, each with the dead
    variables set to zero, and the denominator refactored onto the live
    forms; None when the numerator vanishes, ZeroDivisionError when a form
    does."""
    num = subs_zero(num, dead)
    if not num:
        return None
    out = {}
    for cand, mult in dfac.items():
        live = [v for v in cand[1:] if v not in dead]
        if not live:
            raise ZeroDivisionError("denominator vanishes at the zero divisor")
        if cand[0] == "diff" and cand[1] in dead:
            # x_a - x_b at x_a = 0 is -x_b
            num = {m: c * (-1) ** mult for m, c in num.items()}
        key = cand if len(live) == len(cand) - 1 else ("var", live[0])
        out[key] = out.get(key, 0) + mult
    return num, out


def poly_text(a) -> str:
    """The canonical text of a tuple polynomial: the terms in descending
    MON_KEY order, each the coefficient (unless it is 1 on a nonconstant
    monomial) and the variables with their exponents."""
    if not a:
        return "0"
    parts = []
    for m, c in sorted(a.items(), key=lambda t: MON_KEY(t[0]), reverse=True):
        neg = c < 0
        ac = -c if neg else c
        factors = []
        if ac != 1 or not m:
            ac = Fraction(ac)
            factors.append(str(ac.numerator) if ac.denominator == 1
                           else "%d/%d" % (ac.numerator, ac.denominator))
        factors += [var_text(v) if e == 1 else "%s^%d" % (var_text(v), e) for v, e in m]
        text = "*".join(factors)
        if parts:
            parts.append((" - " if neg else " + ") + text)
        else:
            parts.append("-" + text if neg else text)
    return "".join(parts)
