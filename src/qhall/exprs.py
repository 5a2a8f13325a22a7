"""Shared expression grammar and canonical printing.

Grammar (all commands use it):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' exponent)?          exponent: int or (int)
    atom   := int | 'v' | generator | '(' expr ')' | '-' factor

Generators: th<i>, E<i>, F<i>, K(c1,...,cn), k(c1,...,cn), p(expr),
m(expr).  A parenthesized exponent on a single generator is a divided
power; elsewhere it is a plain power.  Printing sorts terms by weight,
then word, then coweight, and the canonical output reparses to the same
element.
"""

from __future__ import annotations

import re

from .cartan import CartanDatum
from .falgebra import FElement, normal_form, theta_divided
from .freealg import FreeElement, free_mul
from .ratfunc import ONE, RatFunc, qfact, v_pow
from .ualgebra import UElement, embed_minus, embed_plus, u_mul
from .double import DoubleElement, double_mul


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<gen>th\d+|E\d+|F\d+)|(?P<kbig>K\()|(?P<ksmall>k\()"
    r"|(?P<plus_wrap>p\()|(?P<minus_wrap>m\()|(?P<int>\d+)|(?P<v>v)"
    r"|(?P<op>[-+*/^()])|(?P<comma>,))"
)


def _tokenize(src: str):
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == m.start():
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        out.append((kind, m.group(m.lastgroup), m.start(m.lastgroup)))
    return out


class _Parser:
    """Recursive descent over the token list, elaborating directly to
    algebra values against the session datum."""

    def __init__(self, datum: CartanDatum, tokens, src: str):
        self.datum = datum
        self.tokens = tokens
        self.src = src
        self.k = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else (None, None, len(self.src))

    def take(self):
        tok = self.peek()
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind not in ("op", "comma") or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        val = self.expr()
        kind, _val, pos = self.peek()
        if kind is not None:
            raise ParseError("trailing input", pos)
        return val

    def expr(self):
        val = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.take()
                rhs = self.term()
                val = _add(self.datum, val, rhs if op == "+" else _negate(rhs))
            else:
                return val

    def term(self):
        val = self.factor()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op == "*":
                self.take()
                val = _multiply(self.datum, val, self.factor())
            elif kind == "op" and op == "/":
                self.take()
                pos = self.peek()[2]
                rhs = self.factor()
                if not isinstance(rhs, RatFunc):
                    raise ParseError("division only by scalars", pos)
                if not rhs:
                    raise ParseError("division by zero", pos)
                val = _multiply(self.datum, val, rhs.inverse())
            else:
                return val

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return _negate(self.factor())
        was_int = kind == "int"
        base, gen_name = self.atom()
        if was_int and self.peek()[0] == "v":
            # juxtaposed coefficient, e.g. "2v^3"
            return _multiply(self.datum, base, self.factor())
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            divided, expo = self.exponent()
            if divided and gen_name is not None:
                return _divided_power(self.datum, gen_name, expo)
            if expo < 0 and not isinstance(base, RatFunc):
                raise ParseError("negative powers only for scalars", pos)
            if expo < 0 and not base:
                raise ParseError("division by zero", pos)
            return _power(self.datum, base, expo)
        return base

    def exponent(self):
        kind, val, pos = self.take()
        if kind == "op" and val == "(":
            inner = self._signed_int()
            self.expect_op(")")
            return True, inner
        if kind == "op" and val == "-":
            kind2, val2, pos2 = self.take()
            if kind2 != "int":
                raise ParseError("expected an integer exponent", pos2)
            return False, -int(val2)
        if kind == "int":
            return False, int(val)
        raise ParseError("expected an exponent", pos)

    def _signed_int(self):
        kind, val, pos = self.take()
        neg = False
        if kind == "op" and val == "-":
            neg = True
            kind, val, pos = self.take()
        if kind != "int":
            raise ParseError("expected an integer", pos)
        return -int(val) if neg else int(val)

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return RatFunc.const(int(val)), None
        if kind == "v":
            return v_pow(1), None
        if kind == "gen":
            return self._generator(val, pos), val
        if kind == "kbig":
            return UElement.K(self.datum, self._coweight()), None
        if kind == "ksmall":
            return DoubleElement.torus(self.datum, self._coweight()), None
        if kind == "plus_wrap":
            inner = self.expr()
            self.expect_op(")")
            return DoubleElement.plus_of(self.datum, _to_f(self.datum, inner, pos)), None
        if kind == "minus_wrap":
            inner = self.expr()
            self.expect_op(")")
            return DoubleElement.minus_of(self.datum, _to_f(self.datum, inner, pos)), None
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner, None
        raise ParseError("expected a value", pos)

    def _generator(self, name: str, pos: int):
        d = self.datum
        if name.startswith("th"):
            vertex = int(name[2:])
        else:
            vertex = int(name[1:])
        if vertex not in d.vertices:
            raise ParseError(f"unknown generator index {vertex}", pos)
        if name.startswith("th"):
            return FreeElement.generator(d, vertex)
        if name[0] == "E":
            return UElement.E(d, vertex)
        return UElement.F(d, vertex)

    def _coweight(self):
        coords = [self._signed_int()]
        while True:
            kind, val, _ = self.peek()
            if kind == "comma":
                self.take()
                coords.append(self._signed_int())
            else:
                break
        self.expect_op(")")
        if len(coords) != self.datum.rank:
            raise ParseError(
                f"coweight needs {self.datum.rank} coordinates", self.peek()[2]
            )
        return tuple(coords)


def _to_f(datum, value, pos) -> FElement:
    if isinstance(value, RatFunc):
        return FElement.unit(datum).scale(value)
    if isinstance(value, FreeElement):
        return normal_form(value)
    if isinstance(value, FElement):
        return value
    raise ParseError("wrapped expression must be a theta expression", pos)


def _negate(value):
    if isinstance(value, RatFunc):
        return -value
    return value.scale(-ONE)


def _add(datum, a, b):
    if isinstance(a, RatFunc) and isinstance(b, RatFunc):
        return a + b
    a, b = _coerce_pair(datum, a, b)
    return a + b


def _multiply(datum, a, b):
    if isinstance(a, RatFunc) and isinstance(b, RatFunc):
        return a * b
    if isinstance(a, RatFunc):
        return b.scale(a)
    if isinstance(b, RatFunc):
        return a.scale(b)
    a, b = _coerce_pair(datum, a, b)
    if isinstance(a, FreeElement):
        return free_mul(a, b)
    if isinstance(a, UElement):
        return u_mul(a, b)
    return double_mul(a, b)


def _coerce_pair(datum, a, b):
    kinds = {type(a), type(b)}
    if RatFunc in kinds:
        scalar, other = (a, b) if isinstance(a, RatFunc) else (b, a)
        unit = _unit_like(datum, other)
        return (unit.scale(scalar), other) if other is b else (other, unit.scale(scalar))
    if type(a) is type(b):
        return a, b
    raise ValueError(
        f"cannot combine {type(a).__name__} with {type(b).__name__}"
    )


def _unit_like(datum, x):
    if isinstance(x, FreeElement):
        return FreeElement.unit(datum)
    if isinstance(x, UElement):
        return UElement.unit(datum)
    if isinstance(x, DoubleElement):
        return DoubleElement.unit(datum)
    raise ValueError("no unit for this value")


def _divided_power(datum, gen_name, n):
    if n < 0:
        raise ValueError("divided powers need a nonnegative exponent")
    if gen_name.startswith("th"):
        vertex = int(gen_name[2:])
        out = FreeElement(datum, {(vertex,) * n: qfact(n).inverse()})
        return out
    vertex = int(gen_name[1:])
    if gen_name[0] == "E":
        return embed_plus(theta_divided(datum, vertex, n))
    return embed_minus(theta_divided(datum, vertex, n))


def _power(datum, base, n):
    if isinstance(base, RatFunc):
        return base ** n
    if n == 0:
        return _unit_like(datum, base)
    out = base
    for _ in range(n - 1):
        out = _multiply(datum, out, base)
    return out


def parse_expr(datum: CartanDatum, src: str):
    """Parse against the datum; returns a RatFunc, FreeElement,
    UElement, or DoubleElement depending on the generators used."""
    return _Parser(datum, _tokenize(src), src).parse()


def parse_scalar(src: str) -> RatFunc:
    from .cartan import A2

    val = parse_expr(A2, src)
    if not isinstance(val, RatFunc):
        raise ValueError("expected a scalar expression")
    return val


# ---------------------------------------------------------------------------
# canonical printing


def _coeff_prefix(c: RatFunc) -> tuple[str, str]:
    """(sign, body) for a coefficient used as a multiplier."""
    s = str(c)
    if s.startswith("-"):
        sign = "-"
        s_abs = s[1:]
        c_abs = -c
    else:
        sign = "+"
        s_abs = s
        c_abs = c
    if c_abs == ONE:
        return sign, ""
    simple = len(c_abs.num.coeffs) == 1 and c_abs.den.coeffs == {0: 1}
    return sign, s_abs if simple else f"({s_abs})"


def _join_terms(pieces: list[tuple[str, str]]) -> str:
    if not pieces:
        return "0"
    out = []
    for i, (sign, body) in enumerate(pieces):
        if i == 0:
            out.append(("-" if sign == "-" else "") + body)
        else:
            out.append(("- " if sign == "-" else "+ ") + body)
    return " ".join(out)


def _word_str(word, prefix: str) -> str:
    if not word:
        return "1"
    return "*".join(f"{prefix}{i}" for i in word)


def format_free(x) -> str:
    pieces = []
    for w, c in sorted(x.terms.items(), key=lambda t: (len(t[0]), t[0])):
        sign, coeff = _coeff_prefix(c)
        body = _word_str(w, "th")
        if coeff:
            body = f"{coeff}*{body}" if w else coeff
        elif not w:
            body = "1"
        pieces.append((sign, body))
    return _join_terms(pieces)


def _mixed_term(coeff_part: str, factors: list[str]) -> str:
    factors = [f for f in factors if f]
    if not factors:
        return coeff_part or "1"
    body = "*".join(factors)
    return f"{coeff_part}*{body}" if coeff_part else body


def format_u(x) -> str:
    pieces = []
    for (fw, mu, ew), c in x.sorted_terms():
        sign, coeff = _coeff_prefix(c)
        factors = []
        if fw:
            factors.append(_word_str(fw, "F"))
        if any(mu):
            factors.append("K(" + ",".join(str(m) for m in mu) + ")")
        if ew:
            factors.append(_word_str(ew, "E"))
        pieces.append((sign, _mixed_term(coeff, factors)))
    return _join_terms(pieces)


def format_double(x) -> str:
    pieces = []
    for (mw, mu, pw), c in x.sorted_terms():
        sign, coeff = _coeff_prefix(c)
        factors = []
        if mw:
            factors.append(f"m({_word_str(mw, 'th')})")
        if any(mu):
            factors.append("k(" + ",".join(str(m) for m in mu) + ")")
        if pw:
            factors.append(f"p({_word_str(pw, 'th')})")
        pieces.append((sign, _mixed_term(coeff, factors)))
    return _join_terms(pieces)


def format_element(x) -> str:
    if isinstance(x, RatFunc):
        return str(x)
    if isinstance(x, (FreeElement, FElement)):
        return format_free(x)
    if isinstance(x, UElement):
        return format_u(x)
    if isinstance(x, DoubleElement):
        return format_double(x)
    raise TypeError(f"cannot format {type(x).__name__}")
