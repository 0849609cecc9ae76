"""Exact sparse arithmetic in the rings k[w_{i,r}, z][u_{i,r}^{+-1}] and their
localizations, over arbitrary-precision rationals.

Variables are global: a variable is identified by (kind, vertex, slot), so
elements of rings attached to different dimension vectors can be combined
freely; dimension data only *validates* which variables are legal.  The
``u`` variables are Laurent (any integer exponent), ``w`` and ``z`` are
ordinary polynomial variables.

Monomials are packed integers (after Monagan and Pearce).  Each variable
gets a field position the first time it is seen, in a process-wide index
that only ever grows, and a monomial is the int sum of e << (16 * position)
over its exponents e: balanced signed digits of base 2^16, so the empty
monomial is 0, a product of monomials is one integer addition, and a newly
registered variable is a zero field in every older monomial.  A biased digit
would make the same variable set spell differently before and after a
registration.  Adding the bias 2^15 to every field makes each field its
exponent plus 2^15 with no borrow, which is how fields are read.

Every stored exponent lies in [EXPONENT_MIN, EXPONENT_MAX] = [-2^14, 2^14):
the sum of two of them still fits a field, so a product never carries into a
neighbouring field and its range is checked after the fact.  Exponents enter
through _encode and orbit_sum, which check their input, and grow only in
products, which _product checks term by term; a field that left the range
raises ExponentRangeError (an EnumerationBudgetError) and is never stored.

Term order and printing never see positions: _order_key decodes each
monomial into its exponents over the variables sorted by (kind, vertex,
slot), and compares (total degree, that exponent vector), so the output
does not depend on the order in which variables were registered.

Coefficients are normalized (n/1 to n, by _coeff) only where a number
enters a polynomial; the loops of sums and products store what the
arithmetic returns.  A Fraction n/1 equals n and hashes like it, and
poly_text prints both as n, so no result can tell the two spellings apart.

Rational functions are kept fully reduced in a canonical form, a numerator
over a factored product of linear forms, so structural equality decides ring
equality; that property is what every downstream theorem check relies on.

keyed_sum adds (u-monomial key, u-free numerator, factored denominator)
terms: it reduces each key group, then adds the groups over their lcm with no
cancellation pass.  A linear form in w and z divides no u-monomial, so it
divides the total only if it divides the reduced numerator of each group whose
denominator carries it to the lcm's power, which the reduction rules out.
core_sum is the same sum when every group is one term that is reduced as it
stands, up to a scale: its numerators come over the lcm once, and each sum
only scales and adds them.
"""

from __future__ import annotations

import ast
import itertools
import sys
from array import array
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd as int_gcd
from operator import itemgetter

from .quiver import EnumerationBudgetError, check_charge

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
    """Prefer machine ints over Fractions with denominator 1, where a number
    enters a polynomial (see the module docstring)."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


# ---------------------------------------------------------------------------
# packed monomials (see the module docstring)

_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_HALF = 1 << (_FIELD_BITS - 1)
EXPONENT_MIN, EXPONENT_MAX = -(1 << (_FIELD_BITS - 2)), (1 << (_FIELD_BITS - 2)) - 1
_FIELD_CODE = "h"  # the array type code of a signed 16-bit field
_BYTEORDER = sys.byteorder

# The variable index: position -> variable and text, variable -> position.
_VARS = []
_NAMES = []
_POSITION = {}
# Per-field constants over every registered position: _BIAS has _HALF in
# each field, _RANGE_BIAS has -EXPONENT_MIN, _U_SIGNS has _HALF in the u
# fields only.  _SORTED caches the (variable, position) pairs in variable
# order; None after a registration.
_BIAS = _RANGE_BIAS = _U_SIGNS = 0
_NBYTES = 0
_SORTED = None


class ExponentRangeError(EnumerationBudgetError):
    """An exponent would leave [EXPONENT_MIN, EXPONENT_MAX], the range of a
    packed monomial field."""


def _range_error():
    return ExponentRangeError("an exponent leaves the range %d..%d of a monomial field"
                              % (EXPONENT_MIN, EXPONENT_MAX))


def _position(var) -> int:
    """The field position of var, registering it on first sight."""
    global _BIAS, _RANGE_BIAS, _U_SIGNS, _NBYTES, _SORTED
    k = _POSITION.get(var)
    if k is None:
        name = var_text(var)
        k = len(_VARS)
        shift = k * _FIELD_BITS
        _VARS.append(var)
        _NAMES.append(name)
        _POSITION[var] = k
        _BIAS |= _HALF << shift
        _RANGE_BIAS |= -EXPONENT_MIN << shift
        if var[0] == U_KIND:
            _U_SIGNS |= _HALF << shift
        _NBYTES = (k + 1) * (_FIELD_BITS // 8)
        _SORTED = None
    return k


def _unit(var) -> int:
    """The packed monomial of var^1."""
    return 1 << (_position(var) * _FIELD_BITS)


def _exponent(m: int, k: int) -> int:
    """The exponent in field position k of the monomial m."""
    return (((m + _BIAS) >> (k * _FIELD_BITS)) & _FIELD_MASK) - _HALF


def _fields(m: int):
    """Every registered field of m, as a signed array indexed by position."""
    return array(_FIELD_CODE, ((m + _BIAS) ^ _BIAS).to_bytes(_NBYTES, _BYTEORDER))


def _sorted_positions():
    """(variable, position) for every registered variable, in variable order."""
    global _SORTED
    if _SORTED is None:
        _SORTED = sorted(_POSITION.items())
    return _SORTED


def _pairs(m: int) -> tuple:
    """The monomial m decoded: a tuple of (variable, exponent) pairs with
    nonzero exponents, sorted by variable."""
    if not m:
        return ()
    f = _fields(m)
    return tuple((var, f[k]) for var, k in _sorted_positions() if f[k])


def _encode(pairs) -> int:
    """The packed monomial of (variable, exponent) pairs."""
    m = 0
    for var, e in pairs:
        if not EXPONENT_MIN <= e <= EXPONENT_MAX:
            raise _range_error()
        m += e << (_position(var) * _FIELD_BITS)
    return m


def _check_range(terms):
    """Raise ExponentRangeError when a monomial of terms has a field outside
    the range; each field may hold the sum of two exponents in range."""
    bias, signs = _RANGE_BIAS, _BIAS
    for m in terms:
        if (m + bias) & signs:
            raise _range_error()


def _order_key(positions=None):
    """Sort key of the graded lexicographic order on packed monomials over
    the variables sorted by (kind, vertex, slot): (total degree, exponent
    vector), so the vectors are compared at the first variable where they
    differ.  The vector runs over the given positions, in variable order,
    or over every registered one; positions that hold every variable of
    the monomials keyed give the same order."""
    if positions is None:
        positions = [k for _, k in _sorted_positions()]
    if len(positions) > 1:
        pick = itemgetter(*positions)
    else:
        def pick(f):
            return tuple(f[k] for k in positions)

    def key(m):
        vec = pick(_fields(m))
        return sum(vec), vec

    return key


def mon_mul(m1: int, m2: int) -> int:
    """The product of two packed monomials."""
    return m1 + m2


def _moves(varmap: dict) -> tuple:
    """A relabelling of variables as packed shifts: (field shift of the old
    variable, new unit minus old unit) for each variable that moves."""
    moves = []
    for old, new in varmap.items():
        if old != new:
            src = _position(old) * _FIELD_BITS
            moves.append((src, _unit(new) - (1 << src)))
    return tuple(moves)


def _add_into(acc: dict, terms: dict):
    """acc += terms, in place; no zero coefficient is kept."""
    get = acc.get
    for m, c in terms.items():
        n = get(m, 0) + c
        if n:
            acc[m] = n
        else:
            del acc[m]


def _mul_into(acc: dict, a: dict, b: dict):
    """acc += a * b, in place, looping over b outside."""
    get = acc.get
    for m2, c2 in b.items():
        for m1, c1 in a.items():
            m = m1 + m2
            n = get(m, 0) + c1 * c2
            if n:
                acc[m] = n
            else:
                del acc[m]


def _product(terms: dict) -> "MPoly":
    """MPoly of the terms of a product of operands whose exponents lie in the
    range, checked against it: products are the only place where stored
    exponents grow, so this is the one range check after _encode's."""
    _check_range(terms)
    return MPoly(terms)


def _monomial(exps: dict) -> "MPoly":
    """The monomial with coefficient 1 and the given {variable: exponent}."""
    return MPoly({_encode(exps.items()): 1})


class MPoly:
    """Sparse multivariate (Laurent in u) polynomial with exact coefficients:
    terms maps each packed monomial to its nonzero coefficient."""

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
        return MPoly({0: c} if c else {})

    @staticmethod
    def one() -> "MPoly":
        return MPoly({0: 1})

    @staticmethod
    def var(v, exp: int = 1) -> "MPoly":
        if exp == 0:
            return MPoly.one()
        if exp < 0 and v[0] != U_KIND:
            raise ValueError("negative exponent on non-Laurent variable %s" % (v,))
        return MPoly({_encode(((v, exp),)): 1})

    @staticmethod
    def from_items(items) -> "MPoly":
        """The polynomial of (monomial, coefficient) pairs, each monomial a
        tuple of (variable, exponent) pairs as items() yields them."""
        terms = {}
        for mon, c in items:
            m = _encode(mon)
            n = terms.get(m, 0) + c
            if n:
                terms[m] = n
            else:
                del terms[m]
        return MPoly(terms)

    def items(self) -> list:
        """(monomial, coefficient) pairs, each monomial decoded into a tuple
        of (variable, exponent) pairs sorted by variable."""
        return [(_pairs(m), c) for m, c in self.terms.items()]

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self):
        if not self.terms:
            return 0
        return self.terms[0]

    def variables(self):
        bias = _BIAS
        used = 0
        for m in self.terms:
            used |= (m + bias) ^ bias
        out = set()
        k = 0
        while used:
            if used & _FIELD_MASK:
                out.add(_VARS[k])
            used >>= _FIELD_BITS
            k += 1
        return out

    def has_negative_u(self) -> bool:
        """Whether some term has a negative u-exponent."""
        bias, signs = _BIAS, _U_SIGNS
        return any(((m + bias) & signs) != signs for m in self.terms)

    def min_exponent(self, var) -> int:
        """Smallest exponent of ``var`` over all terms (0 if absent somewhere)."""
        k = _POSITION.get(var)
        if k is None or not self.terms:
            return 0
        return min(_exponent(m, k) for m in self.terms)

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
        a, b = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        out = dict(a.terms)
        _add_into(out, b.terms)
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
        big, small = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        a, b = big.terms, small.terms
        if len(b) == 1:
            ((m2, c2),) = b.items()
            if c2 == 1:
                if not m2:  # the constant one
                    return big
                return _product({m1 + m2: c1 for m1, c1 in a.items()})
            out = {m1 + m2: c1 * c2 for m1, c1 in a.items()}
        else:
            out = {}
            _mul_into(out, a, b)
        return _product(out)

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

    def _leading(self):
        """(packed monomial, coeff) maximal in graded lex order."""
        best = max(self.terms, key=_order_key())
        return best, self.terms[best]

    def leading(self):
        """(monomial, coeff) maximal in graded lex order, the monomial decoded
        as items() decodes it."""
        best, c = self._leading()
        return _pairs(best), c

    # -- substitution -------------------------------------------------------

    def permute_vars(self, varmap: dict) -> "MPoly":
        """Relabel variables; varmap maps old var -> new var."""
        return self._relabel(_moves(varmap))

    def _relabel(self, moves) -> "MPoly":
        """permute_vars with the relabelling given as _moves returns it."""
        if not moves:
            return self
        bias = _BIAS
        out = {}
        for m, c in self.terms.items():
            if m:
                d = m + bias
                for src, delta in moves:
                    e = ((d >> src) & _FIELD_MASK) - _HALF
                    if e:
                        m += e * delta
            n = out.get(m, 0) + c  # only a map that merges variables merges terms
            if n:
                out[m] = n
            else:
                del out[m]
        return MPoly(out)

    def subs_zero(self, vars_to_zero) -> "MPoly":
        """Set the given (non-Laurent) variables to zero."""
        mask = 0
        for v in vars_to_zero:
            k = _POSITION.get(v)
            if k is not None:
                mask |= _FIELD_MASK << (k * _FIELD_BITS)
        bias = _BIAS
        return MPoly({m: c for m, c in self.terms.items() if not (((m + bias) ^ bias) & mask)})

    def split_u(self):
        """Test oracle: {u-monomial: coefficient polynomial in w,z}, each
        u-monomial decoded as items() decodes monomials."""
        groups = {}
        for m, c in self.terms.items():
            um = tuple((v, e) for v, e in _pairs(m) if v[0] == U_KIND)
            groups.setdefault(um, {})[m - _encode(um)] = c
        return {um: MPoly(t) for um, t in groups.items()}

    def __repr__(self):
        return "MPoly(%s)" % poly_text(self)


# ---------------------------------------------------------------------------
# univariate views and monomial content


def as_univar(f: MPoly, x) -> dict:
    """View f as a univariate polynomial in x with MPoly coefficients."""
    k = _POSITION.get(x)
    if k is None:
        return {0: f} if f.terms else {}
    shift = k * _FIELD_BITS
    out = {}
    for m, c in f.terms.items():
        e = _exponent(m, k)
        out.setdefault(e, {})[m - (e << shift)] = c
    return {e: MPoly(t) for e, t in out.items()}


def _monomial_content(f: MPoly):
    """Test oracle: the largest monomial dividing every term, as a dict."""
    mins = None
    for m in f.terms:
        d = dict(_pairs(m))
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


def mon_div(m1: int, m2: int):
    """m1 / m2 if the quotient has no negative w/z exponents, else None."""
    q = m1 - m2
    if any(e < 0 and v[0] != U_KIND for v, e in _pairs(q)):
        return None
    _check_range((q,))
    return q


def _require_plain(f: MPoly):
    bias = _BIAS
    for m in f.terms:
        if ((m + bias) & bias) != bias:
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
    gm, gc = g._leading()
    key = _order_key()
    quot = {}
    rem = dict(f.terms)
    while rem:
        best = max(rem, key=key)  # leading term of the remainder
        qm = mon_div(best, gm)
        if qm is None:
            return None
        qc = _coeff(Fraction(rem[best]) / Fraction(gc))
        quot[qm] = qc
        for m2, c2 in g.terms.items():
            m = mon_mul(qm, m2)
            _check_range((m,))
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
    _, lc = f._leading()
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
    return mc, f * _monomial({v: -e for v, e in mc.items()})


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
    mon = _monomial(common)
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
    """Test oracle: the descriptors ('diff', a, b) of x_a - x_b and ('var', a)
    over the non-u variables present."""
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
    k = _POSITION.get(v)
    if k is None:
        return None if f.terms else f
    if any(_exponent(m, k) < 1 for m in f.terms):
        return None
    unit = 1 << (k * _FIELD_BITS)
    return MPoly({m - unit: c for m, c in f.terms.items()})


def _difference_divides(f: MPoly, a, b) -> bool:
    """(x_a - x_b) | f: f vanishes at x_a = x_b, tested by the relabelling
    x_a -> x_b.  Its temporary may hold a merged field x_b^(e_a + e_b) past
    the exponent range, unchecked: the sum of two exponents in range still
    fits its field, and the temporary is discarded."""
    return not f.permute_vars({a: b}).terms


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
    """Test oracle: factor into linear candidates; (factors, leftover).

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
    dfac, sign = linear_factors(pairs)
    return _dfac_mul_into(MPoly.one(), dfac) * sign


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


def power_factors(var, exp: int) -> dict:
    """The factor dict of x_var^exp, empty for exp = 0."""
    return {("var", var): exp} if exp else {}


def _dfac_mul_into(num: MPoly, dfac: dict) -> MPoly:
    """num times the product of the forms of dfac, one form at a time: x_a
    shifts every monomial, and x_a - x_b is the shift by x_a minus the shift
    by x_b.  A multiplicity past EXPONENT_MAX, which could carry into the
    next field, raises ExponentRangeError."""
    terms = num.terms
    for cand in sorted(dfac):
        mult = dfac[cand]
        if mult > EXPONENT_MAX:
            raise _range_error()
        if cand[0] == "var":
            shift = mult * _unit(cand[1])
            terms = {m + shift: c for m, c in terms.items()}
            continue
        ua, ub = _unit(cand[1]), _unit(cand[2])
        for _ in range(mult):
            out = {m + ua: c for m, c in terms.items()}
            get = out.get
            for m, c in terms.items():
                m += ub
                n = get(m, 0) - c
                if n:
                    out[m] = n
                else:
                    del out[m]
            terms = out
    return _product(terms)


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
        """Test oracle: the expanded denominator."""
        if self._den is None:
            self._den = _dfac_mul_into(MPoly.one(), self.dfac)
        return self._den

    # -- construction ----------------------------------------------------

    @staticmethod
    def make(num, den=None) -> "RatFunc":
        """Test oracle: num/den normalized by factoring den."""
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
            mono = _monomial({v: -e for v, e in shift.items()})
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
            den = den * _monomial({v: -e for v, e in kill.items()})
            if common:
                num = num * _monomial({v: -e for v, e in common.items()})
            if u_extra:
                num = num * _monomial({v: -e for v, e in u_extra.items()})
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

    def den_variables(self) -> set:
        """The variables that the forms of the denominator involve."""
        return {v for cand in self.dfac for v in cand[1:]}

    def den_is_monomial(self) -> bool:
        """Whether the denominator is a product of single variables."""
        return all(cand[0] == "var" for cand in self.dfac)

    # -- arithmetic -----------------------------------------------------
    # Test oracles: binary +, -, / and **, and permute_vars.  The library
    # only negates and multiplies (the km chain's dressings).

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
LcmPlan = namedtuple("LcmPlan", "items missing lcm bound")  # see lcm_plan


def lcm_plan(terms) -> LcmPlan:
    """How (numerator, factored-denominator) pairs come over the lcm of their
    denominators, without expanding them: the nonzero pairs, the forms each
    denominator lacks against the lcm, the lcm, and the bound on the
    expansion: each missing form x_a - x_b at most doubles a numerator's
    terms, so sum len(num) * 2^(missing x_a - x_b)."""
    items = [(num, dfac) for num, dfac in terms if not num.is_zero()]
    lcm = {}
    for _, dfac in items:
        for k, e in dfac.items():
            if lcm.get(k, 0) < e:
                lcm[k] = e
    missing = [_dfac_sub(lcm, dfac) for _, dfac in items]
    bound = sum(len(num.terms) << sum(e for k, e in miss.items() if k[0] != "var")
                for (num, _), miss in zip(items, missing))
    return LcmPlan(items, missing, lcm, bound)


def within_budget(bound: int) -> bool:
    return bound <= EXPANSION_BUDGET


def over_lcm(plan: LcmPlan):
    """The nonzero numerators of an lcm_plan, each brought over its lcm: (an
    iterator of the expanded numerators, in order, and the lcm).  Above
    EXPANSION_BUDGET the plan's bound raises EnumerationBudgetError before
    anything is expanded."""
    items, missing, lcm, bound = plan
    if not within_budget(bound):
        raise EnumerationBudgetError(
            "a sum over a common denominator could expand to %d terms, more than %d"
            % (bound, EXPANSION_BUDGET))
    return (_dfac_mul_into(num, miss) for (num, _), miss in zip(items, missing)), lcm


def _terms_over_lcm(terms):
    """The numerators brought over the lcm of their factored denominators,
    summed; see over_lcm."""
    nums, lcm = over_lcm(lcm_plan(terms))
    acc = {}
    for num in nums:
        _add_into(acc, num.terms)
    return MPoly(acc), lcm


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


def identity_holds(lhs, rhs=()) -> bool:
    """Exact test of lhs = rhs, two sides of triples keyed by distinct
    u-monomials: it holds exactly when every key group of lhs - rhs sums to
    zero.  rhs is negated term by term as it is grouped."""
    groups = _by_key(itertools.chain(lhs, ((key, -num, dfac) for key, num, dfac in rhs)))
    return all(terms_sum_to_zero(items) for items in groups.values())


def keyed_sum(keyed_terms) -> RatFunc:
    """The canonical sum of (u-monomial MPoly key, u-free numerator,
    factored-denominator) triples; see the module docstring."""
    reduced = []
    for key, items in _by_key(keyed_terms).items():
        part = ratfunc_sum(items)
        reduced.append((part.num * key, part.dfac))
    num, lcm = _terms_over_lcm(reduced)
    return RatFunc(num, lcm)


def core_sum(pairs, lcm: dict) -> RatFunc:
    """The sum of scale * numerator over (scale, numerator) pairs, over the
    factored denominator lcm.  This is the keyed_sum of terms with distinct
    keys brought over their lcm by over_lcm (the numerators) whose scales
    cancel no form of their own denominators, so no form of lcm divides the
    sum, which is therefore canonical; the caller guarantees this.  The
    products accumulate in one dict."""
    acc = {}
    for scale, num in pairs:
        _mul_into(acc, num.terms, scale.terms)
    return RatFunc(_product(acc), dict(lcm))


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
    coefficients included) render to the same text.  Terms come in the
    descending order of _order_key over the polynomial's own variables,
    whose exponent vectors the text then spells.  Distinct monomials have
    distinct vectors, so the coefficients are never compared."""
    if p.is_zero():
        return "0"
    positions = [_POSITION[var] for var in sorted(p.variables())]
    key = _order_key(positions)
    keyed = sorted(((key(m), c) for m, c in p.terms.items()), reverse=True)
    names = [_NAMES[k] for k in positions]
    powers = [{1: name} for name in names]  # the text of each variable power
    parts = []
    for (_, vec), c in keyed:
        factors = []
        for j, e in itertools.compress(enumerate(vec), vec):
            text = powers[j].get(e)
            if text is None:
                text = powers[j][e] = "%s^%d" % (names[j], e)
            factors.append(text)
        neg = c < 0
        ac = -c if neg else c
        if ac != 1 or not factors:
            factors.insert(0, _coeff_text(ac))
        text = "*".join(factors)
        if not parts:
            parts.append("-" + text if neg else text)
        else:
            parts.append((" - " if neg else " + ") + text)
    return "".join(parts)


def den_text(dfac: dict) -> str:
    """poly_text of the denominator with the factor dict dfac, expanded once
    per distinct dict."""
    return _den_text(frozenset(dfac.items()))


@lru_cache(maxsize=1024)
def _den_text(factors: frozenset) -> str:
    return poly_text(_dfac_mul_into(MPoly.one(), dict(factors)))


def ratfunc_text(f: RatFunc) -> str:
    if f.is_poly():
        return poly_text(f.as_poly())
    return "(%s)/(%s)" % (poly_text(f.num), den_text(f.dfac))


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

    @staticmethod
    def make(value, m, v) -> "PartialSymPoly":
        """The dressing, checked: m and v fit, no u-variable and no slot past
        v occurs, and value is invariant under the block transpositions.
        PartialSymPoly(value, m, v) builds one unchecked, for values that are
        block-symmetric by construction (orbit sums, units, and dressings
        derived from checked ones)."""
        if isinstance(value, (int, Fraction)):
            value = MPoly.const(value)
        m, v = tuple(m), tuple(v)
        if len(m) != len(v):
            raise ValueError("m and v must have the same length")
        check_charge(m, v)
        for var in value.variables():
            kind, i, r = var
            if kind == U_KIND:
                raise ValueError("dressings contain no u-variables")
            if kind == W_KIND and not (0 <= i < len(v) and 1 <= r <= v[i]):
                raise ValueError("variable %s outside the (v) slot range" % var_text(var))
        for i, r, s in _block_transpositions(m, v):
            if value.permute_vars(_swap_map(i, r, s)) != value:
                raise SymmetryError("not invariant under swapping slots %s and %s"
                                    % (var_text(wv(i, r)), var_text(wv(i, s))))
        return PartialSymPoly(value, m, v)

    def is_zero(self) -> bool:
        return self.value.is_zero()


def restrict_to_gamma(f: PartialSymPoly, gamma) -> MPoly:
    """Apply any permutation sending [m_i] onto Gamma_i (slotwise ascending);
    by partial symmetry the result is independent of the choice."""
    return f.value._relabel(_gamma_moves(f.v, f.m, gamma))


@lru_cache(maxsize=4096)
def _gamma_moves(v, m, gamma) -> tuple:
    """The relabelling of restrict_to_gamma, as _moves returns it."""
    varmap = {}
    for i, vi in enumerate(v):
        g = sorted(gamma[i])
        if len(g) != m[i] or any(not 1 <= r <= vi for r in g):
            raise ValueError("Gamma_%d must be an m_%d-subset of [v_%d]" % (i, i, i))
        comp = [r for r in range(1, vi + 1) if r not in set(g)]
        for pos, r in enumerate(g, start=1):
            varmap[wv(i, pos)] = wv(i, r)
        for pos, r in enumerate(comp, start=m[i] + 1):
            varmap[wv(i, pos)] = wv(i, r)
    return _moves(varmap)


def head_tail_divides(f: PartialSymPoly, v) -> bool:
    """Whether some form w_{i,a} - w_{i,b} with a <= m_i < b <= v_i divides
    f (v <= f.v).  The block symmetry of f permutes these forms transitively
    at each vertex, so the form with a = 1, b = m_i + 1 decides the vertex."""
    return any(_difference_divides(f.value, wv(i, 1), wv(i, mi + 1))
               for i, (mi, vi) in enumerate(zip(f.m, v)) if 0 < mi < vi)


def over_head_powers(num: MPoly, m, powers) -> RatFunc:
    """num / prod_{i, a <= m_i} w_{i,a}^{powers[i]} in canonical form, for num
    symmetric in the head slots a <= m_i of each vertex.  By that symmetry
    every head variable of vertex i has the least exponent of w_{i,1}, so one
    test per vertex decides how much of each head power cancels."""
    if num.is_zero():
        return RatFunc.zero()
    cancel, dfac = [], {}
    for i, (mi, e) in enumerate(zip(m, powers)):
        if not (mi and e):
            continue
        k = min(e, num.min_exponent(wv(i, 1)))
        for a in range(1, mi + 1):
            if k:
                cancel.append((wv(i, a), -k))
            if k < e:
                dfac[("var", wv(i, a))] = e - k
    if cancel:
        inv = _encode(cancel)
        num = MPoly({mon + inv: c for mon, c in num.terms.items()})
    return RatFunc(num, dfac)


def orbit_sum(variables, pattern) -> MPoly:
    """Sum of prod_k variables[k]^e_k over the distinct permutations e of
    the exponent pattern."""
    if not pattern:
        return MPoly.one()
    units = [_unit(v) for v in variables]
    if max(map(abs, pattern)) > EXPONENT_MAX:
        raise _range_error()
    return MPoly({sum(e * u for e, u in zip(perm, units)): 1
                  for perm in set(itertools.permutations(pattern))})


def at_zero(num: MPoly, dfac: dict, variables):
    """One (numerator, factored denominator) pair where the given w- or
    z-variables vanish: x_a - x_b becomes x_a where x_b does, -x_b where x_a
    does.  None when the numerator vanishes; ZeroDivisionError when a form does."""
    dead = set(variables)
    num = num.subs_zero(dead)
    if num.is_zero():
        return None
    out = {}
    for cand, mult in dfac.items():
        live = [v for v in cand[1:] if v not in dead]
        if not live:
            raise ZeroDivisionError("denominator vanishes at the zero divisor")
        if cand[1] in dead and mult % 2:
            num = -num  # x_a - x_b is -x_b at x_a = 0
        key = cand if len(live) == len(cand) - 1 else ("var", live[0])
        out[key] = out.get(key, 0) + mult
    return num, out


def tilde(f: PartialSymPoly, v_prime) -> PartialSymPoly:
    """Set the variables w_{i,r} with r > v'_i to zero."""
    v_prime = tuple(v_prime)
    if any(not mi <= vpi <= vi for mi, vpi, vi in zip(f.m, v_prime, f.v)):
        raise ValueError("need m <= v' <= v componentwise")
    dead = [wv(i, r) for i, (vpi, vi) in enumerate(zip(v_prime, f.v))
            for r in range(vpi + 1, vi + 1)]
    # zeroing tail slots keeps both blocks of every vertex symmetric
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


def localized(value: RatFunc, ring_tag: str) -> RatFunc:
    """value, checked to live in the declared localization: its denominator
    (and, for the zastava and defect rings, its u-exponents) is tested
    against ring_tag; raises AdmissibilityError when it does not."""
    if ring_tag not in RING_TAGS:
        raise ValueError("unknown ring tag %r" % ring_tag)
    for cand in value.dfac:
        if not _factor_admissible(cand, ring_tag):
            raise AdmissibilityError("factor %s not invertible in %s"
                                     % (poly_text(candidate_poly(cand)), ring_tag))
    if ring_tag in ("zastava_loc", "defect_loc") and value.num.has_negative_u():
        raise AdmissibilityError("negative u-exponent in %s" % ring_tag)
    return value


def check_symmetric(value: RatFunc, v) -> bool:
    """Test oracle: whether S_v acting on the (w_{i,r}, u_{i,r}) pairs fixes
    the element, checked on adjacent transpositions."""
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
    fractions, + - * and ^ or ** for powers.  Vertex indices are 1-based.
    Input nested too deeply for the interpreter's parser or recursion limit
    is a ParseError."""

    def binop(op, a, b):
        if isinstance(op, ast.Add):
            return a + b
        if isinstance(op, ast.Sub):
            return a - b
        if isinstance(op, ast.Mult):
            _check_budget("a product", len(a.terms) * len(b.terms),
                          _norm_bits(a) + _norm_bits(b))
            return a * b
        if isinstance(op, ast.Div):
            if not b.is_const() or b.is_zero():
                raise ParseError("division only by nonzero constants")
            return a * (Fraction(1) / Fraction(b.const_value()))
        raise ParseError("unsupported operator")

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
                    (m, c), = base.items()
                    if c == 1 and len(m) == 1 and m[0][0][0] == U_KIND:
                        return MPoly.var(m[0][0], m[0][1] * e)
                raise ParseError("negative exponent only allowed on a u-variable")
            # fold a left-nested chain such as a + b - c or a * b * c
            # iteratively, so that a flat sum or product costs no recursion
            # per operator
            chain = []
            while isinstance(node, ast.BinOp) and not isinstance(node.op, ast.Pow):
                chain.append(node)
                node = node.left
            a = ev(node)
            for link in reversed(chain):
                a = binop(link.op, a, ev(link.right))
            return a
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

    try:
        # the printed grammar uses ^ for powers; Python's ^ binds too loosely
        return ev(ast.parse(text.strip().replace("^", "**"), mode="eval"))
    except ExponentRangeError as exc:
        raise ParseError("cannot parse %r: %s" % (text, exc)) from None
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # the parser reports a stack overflow as a MemoryError with no message
        raise ParseError("cannot parse %r: %s" % (text, str(exc) or "nested too deeply")) from None
