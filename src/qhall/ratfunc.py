"""Exact arithmetic in Z[v,v^-1] and the fraction field Q(v).

Everything here is integer arithmetic on Laurent polynomials; there is no
floating point anywhere.  RatFunc values are kept in a canonical reduced
form, so equality is structural and values are hashable.  All values are
immutable and can be shared freely between threads, so an operation may
return an operand as it is: a sum with zero and a product with ONE do.

The canonical form keeps the Laurent shift in the numerator, so a product
by a monomial c v^k over 1 only moves the other numerator's exponents and
scales its coefficients by c, and runs no reduction unless c shares a
factor with the content of the other denominator; RatFunc.shift(k) is the
product by v^k, and the torus twists of the algebras above call it rather
than multiplying by v_pow(k).

Every denominator is one shared object per value, handed out by the
bounded memo _den: the normalizing constructor, inverse, the products of
denominator pairs and the common denominators of sums all build theirs
through it, so equal denominators are the same object while the memo
holds them, and a denominator 1 is always ONE_POLY.  Products tell a
denominator 1 by identity, the memos keyed by a denominator match it by
identity, and no cached value holds a copy of its own.  The constructor
reads both polynomials into dense lists at their least exponents, reduces
them there, and writes the numerator once, with the shift between them.

sum_products, into which the algebras above collect their products
a * b * v^k, folds such a unit factor the same way: a factor whose
numerator is one term c v^e adds e to the twist k and scales by c, in one
pass over the other numerator, with no IntPoly product and no second
pass for the shift.  A denominator pair with a side 1 is the other side
itself; any other pair is multiplied out once (_den_product), and each
set of pair products gets its common denominator and cofactors once
(_lcm_cofactors).

A general product a * b * v^k cancels a.num against b.den and b.num
against a.den, and multiplies what is left, with the twist, in one pass
over the term pairs.  The two cancellations are memoized, not the
products: whole products are seldom met twice, while the numerators of
straightening and normal-form coefficients and the few denominators in
play recur.  On one run
of the u-queries benchmark stream (seed 1, 30 rounds) the cancellation
memo ends at 5,124 entries with 91% of its lookups hitting, and 23,639
normalizations take a polynomial gcd, against 53,283 when every general
product is normalized whole.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


def _gcd_many(values):
    g = 0
    for c in values:
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g


class IntPoly:
    """Laurent polynomial with arbitrary-precision integer coefficients.

    Stored as a map exponent -> coefficient with no zero entries;
    exponents may be negative.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    d[e] = c
        self.coeffs = d
        self._hash = None

    @classmethod
    def _raw(cls, d: dict) -> "IntPoly":
        p = object.__new__(cls)
        p.coeffs = d
        p._hash = None
        return p

    @staticmethod
    def const(n: int) -> "IntPoly":
        return IntPoly({0: n})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, IntPoly) and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.coeffs.items())))
        return self._hash

    def __add__(self, other):
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = d.get(e, 0) + c
            if s:
                d[e] = s
            else:
                d.pop(e, None)
        return IntPoly._raw(d)

    def __neg__(self):
        return IntPoly._raw({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _poly_product(self.coeffs, other.coeffs, 0)

    def scale(self, n: int) -> "IntPoly":
        if n == 0:
            return ZERO_POLY
        return IntPoly._raw({e: n * c for e, c in self.coeffs.items()})

    def shift(self, k: int) -> "IntPoly":
        """Multiply by v^k."""
        if k == 0:
            return self
        return IntPoly._raw({e + k: c for e, c in self.coeffs.items()})

    def val(self) -> int:
        """Lowest exponent; only valid on nonzero polynomials."""
        return min(self.coeffs)

    def lead(self) -> int:
        return self.coeffs[max(self.coeffs)]

    def eval_at(self, x: Fraction) -> Fraction:
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * (x ** e)
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            a = abs(c)
            if e == 0:
                body = str(a)
            else:
                vp = "v" if e == 1 else f"v^{e}"
                body = vp if a == 1 else f"{a}{vp}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"IntPoly({self})"


def _poly_product(a: dict, b: dict, k: int) -> IntPoly:
    """The product of the Laurent polynomials with coefficients a and b,
    times v^k, in one pass over the term pairs."""
    if not a or not b:
        return ZERO_POLY
    d: dict = {}
    for e1, c1 in a.items():
        e1 += k
        for e2, c2 in b.items():
            e = e1 + e2
            s = d.get(e, 0) + c1 * c2
            if s:
                d[e] = s
            else:
                d.pop(e, None)
    return IntPoly._raw(d)


ZERO_POLY = IntPoly()
ONE_POLY = IntPoly({0: 1})
V_POLY = IntPoly({1: 1})


# -- ordinary (val >= 0) polynomial helpers on dense coefficient lists --

def _dense(coeffs: dict, low: int) -> list:
    """The coefficients of v^-low p, p = sum coeffs[e] v^e nonzero and low
    its least exponent, as a dense list."""
    d = [0] * (max(coeffs) - low + 1)
    for e, c in coeffs.items():
        d[e - low] = c
    return d


def _from_dense(d: list) -> IntPoly:
    return IntPoly._raw({e: c for e, c in enumerate(d) if c})


# The one object per denominator.  _den is bounded above the largest fill
# measured: one scripts/run_verify.py process leaves 189 entries in it, one
# symbolic-verify round 54 and the u-queries stream 76.
@lru_cache(maxsize=1 << 12)
def _den(dense: tuple) -> IntPoly:
    """The one IntPoly sum dense[e] v^e, for the trimmed coefficients of an
    ordinary polynomial with a nonzero constant term; (1,) is ONE_POLY."""
    if dense == (1,):
        return ONE_POLY
    return _from_dense(dense)


def _shared_den(p: IntPoly) -> IntPoly:
    """The one object equal to p, an ordinary polynomial with a nonzero
    constant term."""
    return p if p is ONE_POLY else _den(tuple(_dense(p.coeffs, 0)))


# _den_product is bounded above the largest fill measured: one
# scripts/run_verify.py process leaves 23 entries in it, one
# symbolic-verify round 6 and the u-queries stream 99.
@lru_cache(maxsize=1 << 10)
def _den_product(ad: IntPoly, bd: IntPoly) -> IntPoly:
    """ad * bd for two shared denominators, itself shared."""
    return _shared_den(ad * bd)


def _dense_trim(d):
    while d and d[-1] == 0:
        d.pop()
    return d


def _dense_scale(a, n):
    return [n * x for x in a]


def _dense_sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _dense_trim(out)


def _primitive(d):
    g = _gcd_many(d)
    if g > 1:
        d = [x // g for x in d]
    if d and d[-1] < 0:
        d = [-x for x in d]
    return d


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b over Z (b nonzero)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = _dense_scale(a, lb)
        shifted = [0] * (da - db) + _dense_scale(b, la)
        a = _dense_sub(a, shifted)
    return a


@lru_cache(maxsize=65536)
def _dense_gcd_cached(ta: tuple, tb: tuple) -> tuple:
    a, b = list(ta), list(tb)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return tuple(a)


def _dense_gcd(a, b):
    """Primitive gcd of two dense integer polynomials, positive lead."""
    a, b = _primitive(list(a)), _primitive(list(b))
    if len(a) == 1 or len(b) == 1:
        return [1] if (a and b) else (a or b)
    if len(a) < len(b):
        a, b = b, a
    return list(_dense_gcd_cached(tuple(a), tuple(b)))


def _dense_exact_div(a, b):
    """Exact division a / b over Z; the divisor is known to divide."""
    out = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    lb = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        top = rem[k + len(b) - 1]
        q, r = divmod(top, lb)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[k] = q
        if q:
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    if any(rem):
        raise ArithmeticError("non-exact polynomial division")
    return _dense_trim(out)


class RatFunc:
    """Element of Q(v) as a reduced fraction of integer Laurent polynomials.

    Canonical form: the denominator is an ordinary polynomial with nonzero
    constant term and positive leading coefficient, gcd of the two integer
    contents is 1, and the polynomial gcd of the primitive parts is 1.  The
    Laurent shift lives entirely in the numerator, and the denominator is
    the shared object of its value (_den), ONE_POLY for 1.  Construction
    always normalizes, so == and hash are structural.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: IntPoly, den: IntPoly = ONE_POLY):
        self._hash = None
        nc, dc = num.coeffs, den.coeffs
        if not dc:
            raise ZeroDivisionError("zero denominator in Q(v)")
        if not nc:
            self.num, self.den = ZERO_POLY, ONE_POLY
            return
        # fast path: denominator already the unit polynomial
        if den is ONE_POLY:
            self.num, self.den = num, ONE_POLY
            return
        if len(dc) == 1:
            # monomial denominator c v^e: the numerator is moved by -e,
            # and only integer content is left to reduce, in one pass
            ((e, c),) = dc.items()
            g = gcd(_gcd_many(nc.values()), c)
            if c < 0:
                g = -g
            if g != 1 or e:
                num = IntPoly._raw({k - e: x // g for k, x in nc.items()})
            self.num, self.den = num, _den((c // g,))
            return
        # the dense coefficients of both at their least exponents, reduced,
        # and the numerator written once with the shift between them
        nlow, dlow = min(nc), min(dc)
        nd, dd = _dense(nc, nlow), _dense(dc, dlow)
        cn, cd = _gcd_many(nd), _gcd_many(dd)
        g = gcd(cn, cd)
        if g > 1:
            nd = [x // g for x in nd]
            dd = [x // g for x in dd]
            cn //= g
            cd //= g
        if len(nd) > 1:
            pg = _dense_gcd([x // cn for x in nd], [x // cd for x in dd])
            if len(pg) > 1:
                nd = _dense_exact_div(nd, pg)
                dd = _dense_exact_div(dd, pg)
        if dd[-1] < 0:
            nd = [-x for x in nd]
            dd = [-x for x in dd]
        self.num = IntPoly._raw(
            {e: x for e, x in enumerate(nd, nlow - dlow) if x}
        )
        self.den = _den(tuple(dd))

    @staticmethod
    def const(n: int) -> "RatFunc":
        return RatFunc(IntPoly.const(n))

    @staticmethod
    def v_power(k: int) -> "RatFunc":
        return RatFunc(IntPoly({k: 1}))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __add__(self, other):
        # values are immutable and canonical, so a zero side returns the
        # other operand as it is (this also covers __sub__)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        sd, od = self.den, other.den
        if sd is od or sd == od:
            return RatFunc(self.num + other.num, sd)
        return RatFunc(self.num * od + other.num * sd, sd * od)

    def __neg__(self):
        r = object.__new__(RatFunc)
        r.num, r.den, r._hash = -self.num, self.den, None
        return r

    def __sub__(self, other):
        return self + (-other)

    def shift(self, k: int) -> "RatFunc":
        """Multiply by v^k.  The Laurent shift lives in the numerator, so
        only its exponents move and the result is canonical as it is."""
        if not k or not self.num.coeffs:
            return self
        r = object.__new__(RatFunc)
        r.num, r.den, r._hash = self.num.shift(k), self.den, None
        return r

    def __mul__(self, other):
        # values are immutable, so a factor ONE returns the other operand
        if self is ONE:
            return other
        if other is ONE:
            return self
        an, bn = self.num.coeffs, other.num.coeffs
        if not an or not bn:
            return ZERO
        # a unit monomial c v^k moves (and scales) the other numerator and
        # leaves the canonical form intact; a denominator 1 is ONE_POLY
        # itself, so one identity test rules a factor in or out
        if other.den is ONE_POLY:
            if len(bn) == 1 and (r := _unit_product(self, bn)) is not None:
                return r
            if self.den is ONE_POLY:
                if len(an) == 1:
                    return _unit_product(other, an)
                r = object.__new__(RatFunc)
                r.num, r.den, r._hash = self.num * other.num, ONE_POLY, None
                return r
        elif self.den is ONE_POLY and len(an) == 1:
            if (r := _unit_product(other, an)) is not None:
                return r
        return _product(self, other)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero in Q(v)")
        # restore canonical form: move the Laurent shift and the sign
        coeffs = self.num.coeffs
        low = min(coeffs)
        dense = _dense(coeffs, low)
        sign = -1 if dense[-1] < 0 else 1
        if sign < 0:
            dense = [-x for x in dense]
        r = object.__new__(RatFunc)
        r.num = IntPoly._raw({e - low: sign * x for e, x in self.den.coeffs.items()})
        r.den, r._hash = _den(tuple(dense)), None
        return r

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval_at(self, x: int | Fraction) -> Fraction:
        """The value at v = x.  Both polynomials are taken times x^-low,
        low the least exponent (at most 0), and evaluated by Horner's rule,
        in integers at an integer point, so one Fraction is built."""
        low = min(0, self.num.val()) if self.num.coeffs else 0
        return Fraction(_horner(self.num, x, low), _horner(self.den, x, low))

    def __str__(self):
        if self.den is ONE_POLY:
            return str(self.num)
        ns = str(self.num)
        if len(self.num.coeffs) > 1 or self.num.lead() < 0:
            ns = f"({ns})"
        ds = str(self.den)
        if len(self.den.coeffs) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFunc({self})"


def _unit_product(a: RatFunc, unit: dict, shift: int = 0) -> RatFunc | None:
    """a * c v^k * v^shift for the coefficients unit = {k: c} of a one-term
    numerator over 1, its numerator built in one pass: a's exponents move
    by k + shift and its coefficients are scaled by c.  a's denominator
    stays as it is, so when |c| > 1 the result is reduced only if c is
    prime to the content of that denominator; None otherwise."""
    ((k, c),) = unit.items()
    k += shift
    if c == 1:
        if not k:
            return a
        num = {e + k: x for e, x in a.num.coeffs.items()}
    elif c == -1:
        num = {e + k: -x for e, x in a.num.coeffs.items()}
    else:
        if a.den is not ONE_POLY and gcd(c, _gcd_many(a.den.coeffs.values())) > 1:
            return None
        num = {e + k: c * x for e, x in a.num.coeffs.items()}
    r = object.__new__(RatFunc)
    r.num, r.den, r._hash = IntPoly._raw(num), a.den, None
    return r


def _horner(p: IntPoly, x: int | Fraction, low: int) -> int | Fraction:
    """x^-low p(x), low at most the least exponent of p, by Horner's
    rule."""
    coeffs = p.coeffs
    acc = 0
    for e in range(max(coeffs, default=low), low - 1, -1):
        acc = acc * x + coeffs.get(e, 0)
    return acc


# _cancelled is bounded above the largest fill measured: one
# scripts/run_verify.py process leaves 624 entries in it, one
# symbolic-verify round 166 and the u-queries stream 5,124.
@lru_cache(maxsize=1 << 13)
def _cancelled(num: IntPoly, den: IntPoly) -> RatFunc:
    """RatFunc(num, den): one cross-cancellation of a general product."""
    return RatFunc(num, den)


def _product(a: RatFunc, b: RatFunc, k: int = 0) -> RatFunc:
    """a * b * v^k by cross-cancellation: a.num against b.den and b.num
    against a.den, each through the memo unless that denominator is 1.
    Both operands are reduced, so the product of what is left, with v^k
    folded into the same pass, is reduced."""
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    if bd is not ONE_POLY:
        x = _cancelled(an, bd)
        an, bd = x.num, x.den
    if ad is not ONE_POLY:
        y = _cancelled(bn, ad)
        bn, ad = y.num, y.den
    r = object.__new__(RatFunc)
    r.num, r._hash = _poly_product(an.coeffs, bn.coeffs, k), None
    r.den = bd if ad is ONE_POLY else ad if bd is ONE_POLY else _den_product(ad, bd)
    return r


# _lcm_cofactors is bounded above the largest fill measured: one
# scripts/run_verify.py process leaves 638 entries in it, one
# symbolic-verify round 97 and the u-queries stream 114.
@lru_cache(maxsize=1 << 11)
def _lcm_cofactors(dens: tuple) -> tuple[IntPoly, dict]:
    """A common multiple of distinct ordinary polynomials (the lcm up to
    integer content), as the shared denominator of its value, and for
    each one its cofactor: den == d * cof[d]."""
    rest = iter(dens)
    den = next(rest, ONE_POLY)
    for d in rest:
        if d != den:
            dense = _dense(d.coeffs, 0)
            g = _dense_gcd(_dense(den.coeffs, 0), dense)
            den = den * _from_dense(_dense_exact_div(dense, g))
    den = _shared_den(den)
    dense = _dense(den.coeffs, 0)
    return den, {
        d: ONE_POLY
        if d == den
        else _from_dense(_dense_exact_div(dense, _dense(d.coeffs, 0)))
        for d in dens
    }


def common_denominator(values) -> tuple[IntPoly, list[IntPoly]]:
    """One denominator for a list of Q(v) values, with the numerators
    over it: values[k] == RatFunc(nums[k], den)."""
    den, cof = _lcm_cofactors(tuple(dict.fromkeys(x.den for x in values)))
    return den, [x.num * cof[x.den] for x in values]


def sum_products(groups: dict) -> dict:
    """key -> the sum of a * b * v^k over the key's (a, b, k) triples of
    nonzero values, with the keys whose sum is zero left out.

    A factor whose numerator is one term c v^e is folded in rather than
    multiplied: the other numerator's exponents move by e + k and its
    coefficients are scaled by c, in one pass.  A key with one triple is
    that product, folded when the unit factor's denominator is 1 (and c
    is prime to the content of the other's).  A longer sum is taken over
    one common denominator as integer Laurent polynomials, folding each
    unit numerator the same way, and reduced once; a zero numerator is
    dropped before any gcd.  A denominator pair with a side 1 is the other
    side itself, so a denominator 1 stays ONE_POLY; each other pair
    (a.den, b.den) is multiplied out through the memo _den_product, and
    each distinct set of such products gets its common denominator and
    cofactors through the memo _lcm_cofactors.  A key with one general
    product is _product with the twist folded in."""
    out = {}
    for key, triples in groups.items():
        if len(triples) == 1:
            ((a, b, k),) = triples
            an, bn = a.num.coeffs, b.num.coeffs
            r = None
            if len(an) == 1 and a.den is ONE_POLY:
                r = _unit_product(b, an, k)
            elif len(bn) == 1 and b.den is ONE_POLY:
                r = _unit_product(a, bn, k)
            out[key] = _product(a, b, k) if r is None else r
            continue
        prods = []
        for a, b, _k in triples:
            ad, bd = a.den, b.den
            prods.append(
                bd if ad is ONE_POLY else ad if bd is ONE_POLY else _den_product(ad, bd)
            )
        den, cof = _lcm_cofactors(tuple(dict.fromkeys(prods)))
        num: dict = {}
        for (a, b, k), p in zip(triples, prods):
            an, bn = a.num.coeffs, b.num.coeffs
            if len(an) == 1:
                ((e, c),) = an.items()
                term = b.num
            elif len(bn) == 1:
                ((e, c),) = bn.items()
                term = a.num
            else:
                e, c, term = 0, 1, a.num * b.num
            factor = cof[p]
            if factor is not ONE_POLY:
                term = term * factor
            k += e
            for e, x in term.coeffs.items():
                e += k
                s = num.get(e, 0) + c * x
                if s:
                    num[e] = s
                else:
                    del num[e]
        if num:
            out[key] = RatFunc(IntPoly._raw(num), den)
    return out


ZERO = RatFunc(ZERO_POLY)
ONE = RatFunc(ONE_POLY)
V = RatFunc(V_POLY)
MINUS_ONE = RatFunc(IntPoly({0: -1}))


def v_pow(k: int) -> RatFunc:
    return RatFunc.v_power(k)


# The q-number memos are bounded far above what the verify suites use:
# scripts/run_verify.py and the symbolic-verify benchmark leave 4 quantum
# integers and 5 factorials in them (u-queries 2 and 2).
# Divided powers up to theta^(31) stay cached whole.
@lru_cache(maxsize=32)
def qint(n: int) -> RatFunc:
    """Quantum integer (v^n - v^-n)/(v - v^-1)."""
    return RatFunc(IntPoly({n: 1, -n: -1}) if n else ZERO_POLY, IntPoly({1: 1, -1: -1}))


@lru_cache(maxsize=32)
def qfact(n: int) -> RatFunc:
    """Quantum factorial [1][2]...[n]; qfact(0) = 1."""
    if n < 0:
        raise ValueError("quantum factorial of a negative integer")
    out = ONE
    for k in range(1, n + 1):
        out = out * qint(k)
    return out
