"""Exact sparse arithmetic in the rings k[w_{i,r}, z][u_{i,r}^{+-1}] and their
localizations, over arbitrary-precision rationals.

Variables are global: a variable is identified by (kind, vertex, slot), so
elements of rings attached to different dimension vectors can be combined
freely; dimension data only *validates* which variables are legal.  The
``u`` variables are Laurent (any integer exponent), ``w`` and ``z`` are
ordinary polynomial variables.

Rational functions are kept fully reduced in a canonical form, a numerator
over a factored product of linear forms, so structural equality decides ring
equality; that property is what every downstream theorem check relies on.

keyed_sum adds (u-monomial key, u-free numerator, factored denominator)
terms: it reduces each key group, then adds the groups over their lcm with no
cancellation pass.  A linear form in w and z divides no u-monomial, so it
divides the total only if it divides the reduced numerator of each group whose
denominator carries it to the lcm's power, which the reduction rules out.
"""

from __future__ import annotations

import ast
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd as int_gcd
from operator import itemgetter

from .quiver import EnumerationBudgetError

# ---------------------------------------------------------------------------
# variables

W_KIND, U_KIND, Z_KIND = 0, 1, 2

_KIND_NAMES = {W_KIND: "w", U_KIND: "u", Z_KIND: "z"}


def wv(i: int, r: int) -> tuple:
    """The variable w_{i,r}; vertex i is 0-based, slot r is 1-based."""
    return (W_KIND, i, r)


def uv(i: int, r: int) -> tuple:
    """The Laurent variable u_{i,r}."""
    return (U_KIND, i, r)


ZVAR = (Z_KIND, 0, 0)


def var_text(var) -> str:
    kind, i, r = var
    if kind == Z_KIND:
        return "z"
    return "%s[%d,%d]" % (_KIND_NAMES[kind], i + 1, r)


def _coeff(c):
    """Prefer machine ints over Fractions with denominator 1."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


# A monomial is a sorted tuple of (var, exponent) with nonzero exponents.

_var_of = itemgetter(0)


def mon_mul(m1, m2):
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


def _MON_KEY(m):
    """Sort key of the graded lexicographic order over the fixed variable
    order: total degree first, then the exponent vectors compared at the
    first variable where they differ, an absent variable counting as
    exponent 0.  A positive exponent on a variable ranks it above every later
    variable (hence the negated variable), a negative one below; the closing
    (0,) stands for the exponent 0 of every variable past the end."""
    return (sum(e for _, e in m),
            tuple((1, -k, -i, -r, e) if e > 0 else (-1, k, i, r, e)
                  for (k, i, r), e in m) + ((0,),))


class MPoly:
    """Sparse multivariate (Laurent in u) polynomial with exact coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return MPoly({})

    @staticmethod
    def const(c) -> "MPoly":
        c = _coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        return MPoly({(): c} if c else {})

    @staticmethod
    def one() -> "MPoly":
        return MPoly({(): 1})

    @staticmethod
    def var(v, exp: int = 1) -> "MPoly":
        if exp == 0:
            return MPoly.one()
        if exp < 0 and v[0] != U_KIND:
            raise ValueError("negative exponent on non-Laurent variable %s" % (v,))
        return MPoly({((v, exp),): 1})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self):
        if not self.terms:
            return 0
        return self.terms[()]

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def min_exponent(self, var) -> int:
        """Smallest exponent of ``var`` over all terms (0 if absent somewhere)."""
        lo = None
        for m in self.terms:
            e = 0
            for v, ee in m:
                if v == var:
                    e = ee
                    break
            lo = e if lo is None else min(lo, e)
        return 0 if lo is None else lo

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            n = out.get(m, 0) + c
            if n:
                out[m] = _coeff(n)
            else:
                del out[m]
        return MPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not MPoly:
            if isinstance(other, (int, Fraction)):
                if other == 0:
                    return MPoly.zero()
                if other == 1:
                    return self
                return MPoly({m: _coeff(c * other) for m, c in self.terms.items()})
            return NotImplemented
        if not self.terms or not other.terms:
            return MPoly.zero()
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            ((m2, c2),) = b.items()
            if c2 == 1:
                if not m2:  # the constant one
                    return self if a is self.terms else other
                return MPoly({mon_mul(m1, m2): c1 for m1, c1 in a.items()})
            return MPoly({mon_mul(m1, m2): _coeff(c1 * c2) for m1, c1 in a.items()})
        out = {}
        get = out.get
        for m2, c2 in b.items():
            for m1, c1 in a.items():
                m = mon_mul(m1, m2)
                n = get(m, 0) + c1 * c2
                if n:
                    out[m] = n
                else:
                    del out[m]
        return MPoly({m: _coeff(c) for m, c in out.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        result = MPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _MON_KEY(t[0]), reverse=True)

    def leading(self):
        """(monomial, coeff) maximal in graded lex order."""
        best = max(self.terms, key=_MON_KEY)
        return best, self.terms[best]

    # -- substitution -------------------------------------------------------

    def permute_vars(self, varmap: dict) -> "MPoly":
        """Relabel variables; varmap maps old var -> new var."""
        out = {}
        for m, c in self.terms.items():
            nm = tuple(sorted((varmap.get(v, v), e) for v, e in m))
            out[nm] = _coeff(out.get(nm, 0) + c)
            if not out[nm]:
                del out[nm]
        return MPoly(out)

    def subs_zero(self, vars_to_zero) -> "MPoly":
        """Set the given (non-Laurent) variables to zero."""
        vs = set(vars_to_zero)
        out = {}
        for m, c in self.terms.items():
            if any(v in vs for v, _ in m):
                continue
            n = out.get(m, 0) + c
            if n:
                out[m] = _coeff(n)
            else:
                del out[m]
        return MPoly(out)

    def split_u(self):
        """Decompose as {u-monomial: coefficient polynomial in w,z}."""
        groups = {}
        for m, c in self.terms.items():
            um = tuple((v, e) for v, e in m if v[0] == U_KIND)
            rest = tuple((v, e) for v, e in m if v[0] != U_KIND)
            groups.setdefault(um, {})[rest] = c
        return {um: MPoly(t) for um, t in groups.items()}

    def __repr__(self):
        return "MPoly(%s)" % poly_text(self)


# ---------------------------------------------------------------------------
# univariate views and monomial content


def as_univar(f: MPoly, x) -> dict:
    """View f as a univariate polynomial in x with MPoly coefficients."""
    out = {}
    for m, c in f.terms.items():
        e = 0
        rest = []
        for v, ee in m:
            if v == x:
                e = ee
            else:
                rest.append((v, ee))
        rest = tuple(rest)
        out.setdefault(e, {})
        n = out[e].get(rest, 0) + c
        if n:
            out[e][rest] = n
        else:
            del out[e][rest]
    return {e: MPoly(t) for e, t in out.items() if t}


def _monomial_content(f: MPoly):
    """Largest monomial dividing every term, as an exponent dict."""
    mins = None
    for m in f.terms:
        d = dict(m)
        if mins is None:
            mins = {v: e for v, e in d.items() if e > 0}
        else:
            mins = {v: min(e, d.get(v, 0)) for v, e in mins.items()}
            mins = {v: e for v, e in mins.items() if e > 0}
        if not mins:
            return {}
    return mins or {}


# ---------------------------------------------------------------------------
# test oracle: the polynomial gcd kernel (non-Laurent polynomials only).  No
# library route calls it: every library denominator is a product of linear
# forms, which RatFunc cancels factor by factor.  The tests normalize general
# fractions with it, and the bench tracer binds poly_gcd by name.


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


def _require_plain(f: MPoly):
    for m in f.terms:
        for _, e in m:
            if e < 0:
                raise ValueError("Laurent exponent reached the gcd kernel")


def try_div(f: MPoly, g: MPoly):
    """Exact quotient f/g, or None when g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return MPoly.zero()
    if g.is_const():
        inv = Fraction(1, 1) / Fraction(g.const_value())
        return f * inv
    gm, gc = g.leading()
    quot = {}
    rem = dict(f.terms)
    while rem:
        best = max(rem, key=_MON_KEY)  # leading term of the remainder
        qm = mon_div(best, gm)
        if qm is None:
            return None
        qc = _coeff(Fraction(rem[best]) / Fraction(gc))
        quot[qm] = qc
        for m2, c2 in g.terms.items():
            m = mon_mul(qm, m2)
            n = rem.get(m, 0) - qc * c2
            if n:
                rem[m] = _coeff(n)
            else:
                rem.pop(m, None)
    return MPoly(quot)


def exact_div(f: MPoly, g: MPoly) -> MPoly:
    q = try_div(f, g)
    if q is None:
        raise ValueError("inexact polynomial division")
    return q


def rational_content(f: MPoly) -> Fraction:
    """Positive rational c with f/c integral, primitive; sign fixed so the
    leading coefficient of f/c is positive.  Zero polynomial has content 1."""
    if f.is_zero():
        return Fraction(1)
    num_gcd = 0
    den_lcm = 1
    for c in f.terms.values():
        fr = Fraction(c)
        num_gcd = int_gcd(num_gcd, fr.numerator)
        den_lcm = den_lcm * fr.denominator // int_gcd(den_lcm, fr.denominator)
    content = Fraction(num_gcd, den_lcm)
    _, lc = f.leading()
    if lc < 0:
        content = -content
    return content


def primitive(f: MPoly) -> MPoly:
    if f.is_zero():
        return f
    return f * (1 / rational_content(f))


def from_univar(coeffs: dict, x) -> MPoly:
    out = MPoly.zero()
    for e, p in coeffs.items():
        out = out + p * MPoly.var(x, e)
    return out


def _content_in(f: MPoly, x):
    """gcd of the coefficients of f viewed in (k[rest])[x]."""
    cs = list(as_univar(f, x).values())
    g = MPoly.zero()
    for c in cs:
        g = poly_gcd(g, c)
        if g.is_const() and not g.is_zero():
            return MPoly.one()
    return g


def _prem(f: MPoly, g: MPoly, x) -> MPoly:
    """Pseudo-remainder of f by g with respect to x: the remainder of
    lc(g)^(deg f - deg g + 1) * f.  The power is exact also when one step
    drops the degree by more than one; the subresultant divisions in
    poly_gcd are exact only then."""
    fu = as_univar(f, x)
    gu = as_univar(g, x)
    dg = max(gu)
    lg = gu[dg]
    steps = max(fu) - dg + 1
    while fu:
        df = max(fu)
        if df < dg:
            break
        lf = fu[df]
        # f <- lg*f - lf*x^(df-dg)*g
        nf = {}
        for e, p in fu.items():
            nf[e] = p * lg
        for e, p in gu.items():
            ee = e + df - dg
            q = nf.get(ee, MPoly.zero()) - p * lf
            nf[ee] = q
        fu = {e: p for e, p in nf.items() if not p.is_zero()}
        steps -= 1
    return from_univar(fu, x) * lg ** steps


def _strip_monomial(f: MPoly):
    mc = _monomial_content(f)
    if not mc:
        return {}, f
    inv = tuple(sorted((v, -e) for v, e in mc.items()))
    return mc, MPoly({mon_mul(m, inv): c for m, c in f.terms.items()})


def poly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Primitive gcd with positive leading coefficient (content/PRS scheme)."""
    if f.is_zero():
        return primitive(g)
    if g.is_zero():
        return primitive(f)
    if f.is_const() or g.is_const():
        return MPoly.one()
    if f.terms == g.terms:
        return primitive(f)
    _require_plain(f)
    _require_plain(g)
    # split off monomial factors; the recursion only sees monomial-free parts
    mf, f = _strip_monomial(f)
    mg, g = _strip_monomial(g)
    common = {v: min(e, mg.get(v, 0)) for v, e in mf.items() if mg.get(v, 0) > 0}
    mon = MPoly({tuple(sorted(common.items())): 1}) if common else MPoly.one()
    if f.is_const() or g.is_const():
        return mon
    x = max(f.variables() | g.variables())
    fu = as_univar(f, x)
    gu = as_univar(g, x)
    if max(fu) == 0:
        return mon * poly_gcd(f, _content_in(g, x))
    if max(gu) == 0:
        return mon * poly_gcd(g, _content_in(f, x))
    cf = _content_in(f, x)
    cg = _content_in(g, x)
    c = poly_gcd(cf, cg)
    a = primitive(exact_div(f, cf))
    b = primitive(exact_div(g, cg))
    da, db = max(as_univar(a, x)), max(as_univar(b, x))
    if da < db:
        a, b, da, db = b, a, db, da
    # subresultant PRS (Brown-Collins): dividing by lc * h^delta is exact and
    # keeps coefficient growth polynomial without a content gcd per step
    lc_a = h = MPoly.one()
    while db > 0:
        delta = da - db
        r = _prem(a, b, x)
        if r.is_zero():
            break
        a, b = b, exact_div(r, lc_a * h ** delta)
        da, db = db, max(as_univar(b, x))
        lc_a = as_univar(a, x)[da]
        if delta:
            h = exact_div(lc_a ** delta, h ** (delta - 1))
    if db == 0:
        return primitive(mon * c)
    return primitive(mon * c * exact_div(b, _content_in(b, x)))


# ---------------------------------------------------------------------------
# rational functions


def _linear_candidates(p: MPoly):
    """Descriptors of linear forms that can divide library denominators:
    ('diff', a, b) for x_a - x_b over non-u variables present, ('var', a)."""
    vs = sorted(v for v in p.variables() if v[0] != U_KIND)
    out = [("diff", a, b) for a, b in itertools.combinations(vs, 2)]
    out.extend(("var", a) for a in vs)
    return out


def candidate_poly(cand) -> MPoly:
    if cand[0] == "var":
        return MPoly.var(cand[1])
    return MPoly.var(cand[1]) - MPoly.var(cand[2])


def _div_by_var(f: MPoly, v):
    """Exact quotient f / x_v, or None."""
    inv = ((v, -1),)
    out = {}
    for m, c in f.terms.items():
        e = 0
        for var, ee in m:
            if var == v:
                e = ee
                break
        if e < 1:
            return None
        out[mon_mul(m, inv)] = c
    return MPoly(out)


def _difference_divides(f: MPoly, a, b) -> bool:
    """(x_a - x_b) | f, tested by substituting x_a -> x_b in one pass."""
    acc = {}
    for m, c in f.terms.items():
        ea = 0
        for v, e in m:
            if v == a:
                ea = e
                break
        if ea:
            m = mon_mul(tuple(t for t in m if t[0] != a), ((b, ea),))
        n = acc.get(m, 0) + c
        if n:
            acc[m] = n
        else:
            del acc[m]
    return not acc


def _div_by_difference(f: MPoly, a, b):
    """Exact quotient f / (x_a - x_b) by synthetic division, or None."""
    if f.is_zero():
        return f
    if not _difference_divides(f, a, b):
        return None
    cs = as_univar(f, a)
    d = max(cs)
    xb = MPoly.var(b)
    out = MPoly.zero()
    carry = MPoly.zero()
    for k in range(d, 0, -1):
        coef = cs.get(k, MPoly.zero()) + carry
        out = out + (coef * MPoly.var(a, k - 1) if k > 1 else coef)
        carry = coef * xb
    return out


def fast_linear_div(f: MPoly, cand):
    if cand[0] == "var":
        return _div_by_var(f, cand[1])
    return _div_by_difference(f, cand[1], cand[2])


def factor_denominator(p: MPoly):
    """Factor into linear candidate factors; returns (factors, leftover).

    ``factors`` is a list of (candidate descriptor, multiplicity); leftover
    carries whatever is not a product of candidates.  RatFunc.make, its only
    caller, refuses a leftover that is not a constant.
    """
    factors = []
    rest = p
    for cand in _linear_candidates(p):
        mult = 0
        while not rest.is_const():
            q = fast_linear_div(rest, cand)
            if q is None:
                break
            rest = q
            mult += 1
        if mult:
            factors.append((cand, mult))
        if rest.is_const():
            break
    return factors, rest


def _dfac_sub(a: dict, b: dict) -> dict:
    return {k: e - b.get(k, 0) for k, e in a.items() if e - b.get(k, 0) > 0}


def diff_key(a, b):
    """Canonical factor key and sign for the linear form x_a - x_b."""
    if a < b:
        return ("diff", a, b), 1
    return ("diff", b, a), -1


def linear_product(pairs) -> MPoly:
    """The product of the linear forms x_a - x_b over the (a, b) pairs."""
    out = MPoly.one()
    for a, b in pairs:
        out = out * (MPoly.var(a) - MPoly.var(b))
    return out


def linear_factors(pairs):
    """The product of the linear forms x_a - x_b over the (a, b) pairs,
    factored: (factor dict, sign)."""
    dfac = {}
    sign = 1
    for a, b in pairs:
        key, sg = diff_key(a, b)
        dfac[key] = dfac.get(key, 0) + 1
        sign *= sg
    return dfac, sign


def _dfac_mul_into(num: MPoly, dfac: dict) -> MPoly:
    for cand in sorted(dfac):
        p = candidate_poly(cand)
        for _ in range(dfac[cand]):
            num = num * p
    return num


class DenominatorError(ValueError):
    """Raised when a denominator is not a u-monomial times a product of the
    linear forms x_a - x_b and x_a over w- and z-variables."""


class RatFunc:
    """Normalized rational function num/den.  The denominator is always a
    product of linear forms, and the pair (num, dfac) is all an instance
    stores: dfac maps each candidate descriptor (see candidate_poly) to its
    multiplicity, and den, the product of candidate_poly(k)^e over dfac, is
    derived from it on first use.  No factor of dfac divides num, and
    diff_key fixes each form's orientation, so the pair is canonical:
    equality and hashing use (num, dfac).  u-monomial factors of a
    denominator move to the numerator (the u's are units); any other
    denominator, such as u + 1 or w + 1, raises DenominatorError.  Sums and
    products combine factor dicts and never re-factor expanded denominators.
    """

    __slots__ = ("num", "dfac", "_den", "_hash")

    def __init__(self, num: MPoly, dfac: dict):
        # internal: assumes already canonical
        self.num = num
        self.dfac = dfac
        self._den = None
        self._hash = None

    @property
    def den(self) -> MPoly:
        if self._den is None:
            self._den = _dfac_mul_into(MPoly.one(), self.dfac)
        return self._den

    # -- construction ----------------------------------------------------

    @staticmethod
    def make(num, den=None) -> "RatFunc":
        if isinstance(num, (int, Fraction)):
            num = MPoly.const(num)
        if den is None:
            den = MPoly.one()
        elif isinstance(den, (int, Fraction)):
            den = MPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return RatFunc.zero()
        # clear Laurent exponents so both parts are plain polynomials
        shift = {}
        for p in (num, den):
            for v in p.variables():
                if v[0] == U_KIND:
                    lo = min(p.min_exponent(v), shift.get(v, 0))
                    if lo < 0:
                        shift[v] = lo
        if shift:
            mono = MPoly({tuple(sorted((v, -e) for v, e in shift.items())): 1})
            num = num * mono
            den = den * mono
        # strip the common monomial factor, then push the denominator's own
        # u-monomial content into the numerator (u's are units)
        mc_num = _monomial_content(num)
        mc_den = _monomial_content(den)
        common = {v: min(e, mc_den.get(v, 0)) for v, e in mc_num.items()
                  if mc_den.get(v, 0) > 0}
        u_extra = {v: e - common.get(v, 0) for v, e in mc_den.items()
                   if v[0] == U_KIND and e > common.get(v, 0)}
        kill = dict(common)
        for v, e in u_extra.items():
            kill[v] = kill.get(v, 0) + e
        if kill:
            inv_den = tuple(sorted((v, -e) for v, e in kill.items()))
            den = MPoly({mon_mul(m, inv_den): c for m, c in den.terms.items()})
            if common:
                inv_num = tuple(sorted((v, -e) for v, e in common.items()))
                num = MPoly({mon_mul(m, inv_num): c for m, c in num.terms.items()})
            if u_extra:
                num = num * MPoly({tuple(sorted((v, -e) for v, e in u_extra.items())): 1})
        factors, leftover = factor_denominator(den)
        if not leftover.is_const():
            raise DenominatorError("denominator factor %s is not a product of linear forms"
                                   % poly_text(leftover))
        num = num * (Fraction(1) / Fraction(leftover.const_value()))
        return RatFunc._from_factors(num, dict(factors))

    @staticmethod
    def _from_factors(num: MPoly, dfac: dict) -> "RatFunc":
        """Normalize num over the product of the candidate linear forms in
        dfac: cancel factor by factor; no polynomial gcd is ever needed."""
        if num.is_zero():
            return RatFunc.zero()
        kept = {}
        for cand in sorted(dfac):
            mult = dfac[cand]
            while mult:
                q = fast_linear_div(num, cand)
                if q is None:
                    break
                num = q
                mult -= 1
            if mult:
                kept[cand] = mult
        return RatFunc(num, kept)

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(MPoly.zero(), {})

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(MPoly.one(), {})

    @staticmethod
    def from_poly(p) -> "RatFunc":
        """A polynomial (Laurent in u) or a number over the empty product,
        which is already canonical."""
        if isinstance(p, (int, Fraction)):
            p = MPoly.const(p)
        return RatFunc(p, {})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return not self.dfac

    def as_poly(self) -> MPoly:
        if self.dfac:
            raise ValueError("rational function is not a polynomial")
        return self.num

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _lift(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (MPoly, int, Fraction)):
            return RatFunc.from_poly(other)
        return None

    def __add__(self, other):
        o = RatFunc._lift(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        num, lcm = _terms_over_lcm([(self.num, self.dfac), (o.num, o.dfac)])
        return RatFunc._from_factors(num, lcm)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.dfac)

    def __sub__(self, other):
        o = RatFunc._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = RatFunc._lift(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return RatFunc.zero()
        combined = dict(self.dfac)
        for k, e in o.dfac.items():
            combined[k] = combined.get(k, 0) + e
        return RatFunc._from_factors(self.num * o.num, combined)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFunc._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc.make(self.num * o.den, self.den * o.num)

    def __pow__(self, n: int):
        if n == 0:
            return RatFunc.one()
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc.make(self.den, self.num) ** (-n)
        # no linear form divides num, so none divides its powers either
        return RatFunc(self.num ** n, {k: e * n for k, e in self.dfac.items()})

    # -- structure -------------------------------------------------------

    def __eq__(self, other):
        o = RatFunc._lift(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.dfac == o.dfac

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, frozenset(self.dfac.items())))
        return self._hash

    def permute_vars(self, varmap: dict) -> "RatFunc":
        return RatFunc.make(self.num.permute_vars(varmap), self.den.permute_vars(varmap))

    def subs_u(self, mapping: dict) -> "RatFunc":
        """Substitute rational functions (or zero) for u-variables.

        A numerator term whose u-part contains a variable mapped to zero with
        positive exponent is dropped wholesale; a negative exponent on such a
        variable is an error.  Terms whose images carry factored denominators
        are combined over one common denominator.

        A test oracle for the termwise transport gklo.transport_terms, as
        are its only callers, gklo.chevalley and defect_embed.phi.
        """
        groups = self.num.split_u()
        fact_terms = []
        rest = RatFunc.zero()
        num_pow = {}
        rf_pow = {}
        for um, coeff in groups.items():
            num = coeff
            dfac = {}
            dead = False
            extra = None
            for v, e in um:
                if v in mapping:
                    img = mapping[v]
                    if img is None or (isinstance(img, RatFunc) and img.is_zero()):
                        if e < 0:
                            raise ZeroDivisionError("inverse of a u-variable sent to zero")
                        dead = True
                        break
                    img = RatFunc._lift(img)
                    key = (v, e)
                    if e >= 0:
                        if key not in num_pow:
                            num_pow[key] = img.num ** e
                        num = num * num_pow[key]
                        for k, mult in img.dfac.items():
                            dfac[k] = dfac.get(k, 0) + mult * e
                    else:
                        if key not in rf_pow:
                            rf_pow[key] = img ** e
                        extra = rf_pow[key] if extra is None else extra * rf_pow[key]
                else:
                    num = num * MPoly.var(v, e)
            if dead:
                continue
            if extra is None:
                fact_terms.append((num, dfac))
            else:
                rest = rest + RatFunc._from_factors(num, dfac) * extra
        # times 1/den, which is canonical as it stands
        return (ratfunc_sum(fact_terms) + rest) * RatFunc(MPoly.one(), self.dfac)

    def __repr__(self):
        return "RatFunc(%s)" % ratfunc_text(self)


EXPANSION_BUDGET = 10 ** 6  # terms of one expansion over an lcm; read at call time


def _terms_over_lcm(terms):
    """The numerators brought over the lcm of their factored denominators,
    summed.  Each missing form x_a - x_b at most doubles a numerator's terms,
    so sum len(num) * 2^(missing x_a - x_b) bounds the expansion; above
    EXPANSION_BUDGET it raises EnumerationBudgetError before expanding."""
    items = [(num, dfac) for num, dfac in terms if not num.is_zero()]
    lcm = {}
    for _, dfac in items:
        for k, e in dfac.items():
            if lcm.get(k, 0) < e:
                lcm[k] = e
    missing = [_dfac_sub(lcm, dfac) for _, dfac in items]
    bound = sum(len(num.terms) << sum(e for k, e in miss.items() if k[0] != "var")
                for (num, _), miss in zip(items, missing))
    if bound > EXPANSION_BUDGET:
        raise EnumerationBudgetError(
            "a sum over a common denominator could expand to %d terms, more than %d"
            % (bound, EXPANSION_BUDGET))
    N = MPoly.zero()
    for (num, _), miss in zip(items, missing):
        N = N + _dfac_mul_into(num, miss)
    return N, lcm


def ratfunc_sum(terms) -> RatFunc:
    """Sum of prepared (numerator, factored-denominator-dict) pairs over the
    least common denominator; one factor-aware normalization at the end."""
    N, lcm = _terms_over_lcm(terms)
    return RatFunc._from_factors(N, lcm)


def terms_sum_to_zero(terms) -> bool:
    """Exact vanishing test for a sum of (numerator, factored-denominator)
    pairs: the numerator over the common denominator must be identically
    zero.  No factor cancellation is ever needed."""
    N, _ = _terms_over_lcm(terms)
    return N.is_zero()


def _by_key(keyed_terms) -> dict:
    """(key, numerator, factored-denominator) triples grouped by key."""
    groups = {}
    for key, num, dfac in keyed_terms:
        groups.setdefault(key, []).append((num, dfac))
    return groups


def identity_holds(keyed_terms) -> bool:
    """Exact test of an identity keyed by distinct u-monomials: the whole sum
    vanishes exactly when every key group sums to zero."""
    return all(terms_sum_to_zero(items) for items in _by_key(keyed_terms).values())


def keyed_sum(keyed_terms) -> RatFunc:
    """The canonical sum of (u-monomial MPoly key, u-free numerator,
    factored-denominator) triples; see the module docstring."""
    reduced = []
    for key, items in _by_key(keyed_terms).items():
        part = ratfunc_sum(items)
        reduced.append((part.num * key, part.dfac))
    num, lcm = _terms_over_lcm(reduced)
    return RatFunc(num, lcm)


# ---------------------------------------------------------------------------
# text form


def _coeff_text(c) -> str:
    if isinstance(c, Fraction):
        return "%d/%d" % (c.numerator, c.denominator) if c.denominator != 1 else str(c.numerator)
    return str(c)


def poly_text(p: MPoly) -> str:
    # a plain function in front of the cache, so call counts see every render
    return _poly_text(p)


@lru_cache(maxsize=4096)
def _poly_text(p: MPoly) -> str:
    """poly_text, once per polynomial: equal polynomials (1 and Fraction(1)
    coefficients included) render to the same text."""
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        factors = []
        neg = c < 0
        ac = -c if neg else c
        if ac != 1 or not m:
            factors.append(_coeff_text(ac))
        for v, e in m:
            factors.append(var_text(v) + ("^%d" % e if e != 1 else ""))
        text = "*".join(factors)
        if not parts:
            parts.append("-" + text if neg else text)
        else:
            parts.append((" - " if neg else " + ") + text)
    return "".join(parts)


def ratfunc_text(f: RatFunc) -> str:
    if f.is_poly():
        return poly_text(f.as_poly())
    return "(%s)/(%s)" % (poly_text(f.num), poly_text(f.den))


# ---------------------------------------------------------------------------
# partially symmetric dressings


class SymmetryError(ValueError):
    """Raised when a polynomial fails a required block-symmetry."""


def _block_transpositions(m, v):
    """Adjacent transpositions generating prod_i S_{m_i} x S_{v_i - m_i}."""
    for i, vi in enumerate(v):
        mi = m[i]
        for r in range(1, mi):
            yield (i, r, r + 1)
        for r in range(mi + 1, vi):
            yield (i, r, r + 1)


def _swap_map(i, r, s, include_u=False):
    out = {wv(i, r): wv(i, s), wv(i, s): wv(i, r)}
    if include_u:
        out[uv(i, r)] = uv(i, s)
        out[uv(i, s)] = uv(i, r)
    return out


@dataclass(frozen=True)
class PartialSymPoly:
    """Element of the dressing ring for (v, m): a polynomial in the w-variables
    (z allowed as a commuting parameter) invariant under permutations within
    the first m_i slots and within the last v_i - m_i slots at each vertex."""

    value: MPoly
    m: tuple
    v: tuple

    def __post_init__(self):
        if len(self.m) != len(self.v):
            raise ValueError("m and v must have the same length")
        if any(mi < 0 or mi > vi for mi, vi in zip(self.m, self.v)):
            raise ValueError("need 0 <= m <= v componentwise")
        for var in self.value.variables():
            kind, i, r = var
            if kind == U_KIND:
                raise ValueError("dressings contain no u-variables")
            if kind == W_KIND and not (0 <= i < len(self.v) and 1 <= r <= self.v[i]):
                raise ValueError("variable %s outside the (v) slot range" % (var,))
        for i, r, s in _block_transpositions(self.m, self.v):
            if self.value.permute_vars(_swap_map(i, r, s)) != self.value:
                raise SymmetryError(
                    "not invariant under swapping slots %d,%d at vertex %d" % (r, s, i)
                )

    @staticmethod
    def make(value, m, v) -> "PartialSymPoly":
        if isinstance(value, (int, Fraction)):
            value = MPoly.const(value)
        return PartialSymPoly(value, tuple(m), tuple(v))

    def is_zero(self) -> bool:
        return self.value.is_zero()


def restrict_to_gamma(f: PartialSymPoly, gamma) -> MPoly:
    """Apply any permutation sending [m_i] onto Gamma_i (slotwise ascending);
    by partial symmetry the result is independent of the choice."""
    varmap = {}
    for i, vi in enumerate(f.v):
        g = sorted(gamma[i])
        if len(g) != f.m[i] or any(not 1 <= r <= vi for r in g):
            raise ValueError("Gamma_%d must be an m_%d-subset of [v_%d]" % (i, i, i))
        comp = [r for r in range(1, vi + 1) if r not in set(g)]
        for pos, r in enumerate(g, start=1):
            varmap[wv(i, pos)] = wv(i, r)
        for pos, r in enumerate(comp, start=f.m[i] + 1):
            varmap[wv(i, pos)] = wv(i, r)
    return f.value.permute_vars(varmap)


def tilde(f: PartialSymPoly, v_prime) -> PartialSymPoly:
    """Set the variables w_{i,r} with r > v'_i to zero."""
    v_prime = tuple(v_prime)
    if any(not mi <= vpi <= vi for mi, vpi, vi in zip(f.m, v_prime, f.v)):
        raise ValueError("need m <= v' <= v componentwise")
    dead = [wv(i, r) for i, (vpi, vi) in enumerate(zip(v_prime, f.v))
            for r in range(vpi + 1, vi + 1)]
    return PartialSymPoly(f.value.subs_zero(dead), f.m, v_prime)


# ---------------------------------------------------------------------------
# elements of the localized coordinate rings

RING_TAGS = ("slice_loc", "zastava_loc", "slice_loc_loc", "defect_loc")


class AdmissibilityError(ValueError):
    """Raised when a denominator leaves the declared localization."""


def _factor_admissible(cand, tag: str) -> bool:
    if cand[0] == "var":
        # a single variable w_{i,r}
        return cand[1][0] == W_KIND and tag == "slice_loc_loc"
    a, b = cand[1], cand[2]
    if a[0] != W_KIND or b[0] != W_KIND:
        return False
    if tag == "defect_loc":
        return True
    return a[1] == b[1]  # same vertex


@dataclass(frozen=True)
class GKLOElement:
    """A rational function together with the localization it is declared to
    live in.  The checked constructor make tests the denominator (and, for
    the zastava and defect rings, the u-exponents) against that localization;
    the element carries no arithmetic, and callers compute on .value."""

    value: RatFunc
    ring_tag: str

    @staticmethod
    def make(value: RatFunc, ring_tag: str) -> "GKLOElement":
        if ring_tag not in RING_TAGS:
            raise ValueError("unknown ring tag %r" % ring_tag)
        for cand in value.dfac:
            if not _factor_admissible(cand, ring_tag):
                raise AdmissibilityError("factor %s not invertible in %s"
                                         % (poly_text(candidate_poly(cand)), ring_tag))
        if ring_tag in ("zastava_loc", "defect_loc"):
            for mon in value.num.terms:
                for var, e in mon:
                    if var[0] == U_KIND and e < 0:
                        raise AdmissibilityError("negative u-exponent in %s" % ring_tag)
        return GKLOElement(value, ring_tag)

    def is_zero(self) -> bool:
        return self.value.is_zero()


def check_symmetric(value, v) -> bool:
    """True iff the element is fixed by the simultaneous action of S_v on the
    (w_{i,r}, u_{i,r}) pairs, checked on adjacent transpositions."""
    if isinstance(value, GKLOElement):
        value = value.value
    for i, vi in enumerate(v):
        for r in range(1, vi):
            if value.permute_vars(_swap_map(i, r, r + 1, include_u=True)) != value:
                return False
    return True


class ParseError(ValueError):
    pass


# The most terms, and the most coefficient bits, that one power, product or
# integer literal of a parsed polynomial may reach; parse_poly checks it
# before it expands anything.
PARSE_BUDGET = 1024


def _norm_bits(p: MPoly) -> int:
    """ceil(log2) of the l1 norm of the coefficients, numerator and
    denominator; it bounds the coefficient bits and adds under products."""
    norm = sum(abs(Fraction(c)) for c in p.terms.values())
    return (max(norm.numerator, 1) - 1).bit_length() + (norm.denominator - 1).bit_length()


def _power_terms(t: int, e: int) -> int:
    """The most terms a t-term polynomial's e-th power can have."""
    if t < 2 or e < 2:
        return t if e else 1
    if max(t, e) > PARSE_BUDGET:
        return PARSE_BUDGET + 1  # C(t + e - 1, e) exceeds both t and e
    return comb(t + e - 1, e)


def _check_budget(what: str, terms: int, bits: int):
    if terms > PARSE_BUDGET or bits > PARSE_BUDGET:
        raise ParseError("%s is too large: more than %d terms or coefficient bits"
                         % (what, PARSE_BUDGET))


def parse_poly(text: str, n_vertices: int | None = None) -> MPoly:
    """Parse the canonical text grammar: w[i,r], u[i,r], z, integers and
    fractions, + - * and ^ or ** for powers.  Vertex indices are 1-based."""
    try:
        # the printed grammar uses ^ for powers; Python's ^ binds too loosely
        tree = ast.parse(text.strip().replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ParseError("cannot parse %r: %s" % (text, exc)) from None

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                _check_budget("an integer literal", 1, node.value.bit_length())
                return MPoly.const(node.value)
            raise ParseError("only integer constants allowed, got %r" % (node.value,))
        if isinstance(node, ast.Name):
            if node.id == "z":
                return MPoly.var(ZVAR)
            raise ParseError("unknown name %r" % node.id)
        if isinstance(node, ast.UnaryOp):
            v = ev(node.operand)
            if isinstance(node.op, ast.USub):
                return -v
            if isinstance(node.op, ast.UAdd):
                return v
            raise ParseError("unsupported unary operator")
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                base = ev(node.left)
                exp = node.right
                sign = 1
                if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
                    sign = -1
                    exp = exp.operand
                if not (isinstance(exp, ast.Constant) and isinstance(exp.value, int)):
                    raise ParseError("exponent must be an integer literal")
                e = sign * exp.value
                if e >= 0:
                    _check_budget("a power", _power_terms(len(base.terms), e),
                                  e * _norm_bits(base))
                    return base ** e
                if len(base.terms) == 1:
                    (m, c), = base.terms.items()
                    if c == 1 and len(m) == 1 and m[0][0][0] == U_KIND:
                        return MPoly.var(m[0][0], m[0][1] * e)
                raise ParseError("negative exponent only allowed on a u-variable")
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                _check_budget("a product", len(a.terms) * len(b.terms),
                              _norm_bits(a) + _norm_bits(b))
                return a * b
            if isinstance(node.op, ast.Div):
                if not b.is_const() or b.is_zero():
                    raise ParseError("division only by nonzero constants")
                return a * (Fraction(1) / Fraction(b.const_value()))
            raise ParseError("unsupported operator")
        if isinstance(node, ast.Subscript):
            if not isinstance(node.value, ast.Name) or node.value.id not in ("w", "u"):
                raise ParseError("only w[i,r] and u[i,r] may be subscripted")
            idx = node.slice
            if isinstance(idx, ast.Tuple) and len(idx.elts) == 2:
                els = idx.elts
            else:
                raise ParseError("variable subscript must be [vertex,slot]")
            vals = []
            for e in els:
                if not (isinstance(e, ast.Constant) and isinstance(e.value, int)):
                    raise ParseError("variable indices must be integer literals")
                vals.append(e.value)
            i, r = vals
            if i < 1 or r < 1:
                raise ParseError("variable indices are 1-based")
            if n_vertices is not None and i > n_vertices:
                raise ParseError("vertex index %d out of range" % i)
            kind = W_KIND if node.value.id == "w" else U_KIND
            return MPoly.var((kind, i - 1, r))
        raise ParseError("unsupported syntax element %s" % type(node).__name__)

    return ev(tree)
