"""Shared expression grammar, the coercions into f and U, and the one
element printer.

Grammar (all commands use it):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' exponent)?          exponent: int or (int)
    atom   := int | 'v' | generator | '(' expr ')' | '-' factor

Generators: th<i>, E<i>, F<i>, K(c1,...,cn), k(c1,...,cn), p(expr),
m(expr).  A parenthesized exponent on a single generator is a divided
power; elsewhere it is a plain power.  The parser multiplies elements
with their classes' own `*`, and a scalar beside an element becomes a
multiple of that class's `unit(datum)`.

Each element kind (f, u, double) has one slot table in SLOTS: the slots
of its term keys in order, each a word of generators with their letter
or the coweight.  That table fixes the term order, slot by slot, a word
by its length and then its letters and a coweight by its entries, so a
U term sorts by its F-word, then its coweight, then its E-word.  The
text form and the JSON terms read the same walk, and the text reparses
to the same element.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .cartan import CartanDatum
from .double import DoubleElement
from .falgebra import FElement, normal_form, theta_divided
from .freealg import FreeElement
from .ratfunc import ONE, ONE_POLY, RatFunc, qfact, v_pow
from .ualgebra import UElement, embed_minus, embed_plus


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
        if kind in ("plus_wrap", "minus_wrap"):
            inner = self.expr()
            self.expect_op(")")
            try:
                half = as_f(self.datum, inner)
            except ValueError:
                raise ParseError("wrapped expression must be a theta expression", pos) from None
            wrap = DoubleElement.plus_of if kind == "plus_wrap" else DoubleElement.minus_of
            return wrap(self.datum, half), None
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


def as_f(datum: CartanDatum, value) -> FElement:
    """A parsed scalar or theta expression as an element of f."""
    if isinstance(value, RatFunc):
        return FElement.unit(datum).scale(value)
    if isinstance(value, (FreeElement, FElement)):
        return normal_form(value)
    raise ValueError("expected a theta expression")


def as_u(datum: CartanDatum, value) -> UElement:
    """A parsed scalar, theta or quantum-group expression as an element of
    U; theta expressions land in U+."""
    if isinstance(value, UElement):
        return value
    if isinstance(value, (RatFunc, FreeElement, FElement)):
        return embed_plus(as_f(datum, value))
    raise ValueError("expected a quantum-group expression")


def as_double(datum: CartanDatum, value) -> DoubleElement:
    """A parsed scalar or double expression as an element of the double."""
    if isinstance(value, DoubleElement):
        return value
    if isinstance(value, RatFunc):
        return DoubleElement.unit(datum).scale(value)
    raise ValueError("double mul expects p(...)/m(...)/k(...) expressions")


def _negate(value):
    if isinstance(value, RatFunc):
        return -value
    return value.scale(-ONE)


def _operands(datum, a, b):
    """a and b as values of one kind: a scalar beside an element becomes
    that multiple of the element's unit."""
    if isinstance(a, RatFunc) and not isinstance(b, RatFunc):
        a = type(b).unit(datum).scale(a)
    elif isinstance(b, RatFunc) and not isinstance(a, RatFunc):
        b = type(a).unit(datum).scale(b)
    elif type(a) is not type(b):
        raise ValueError(f"cannot combine {type(a).__name__} with {type(b).__name__}")
    return a, b


def _add(datum, a, b):
    a, b = _operands(datum, a, b)
    return a + b


def _multiply(datum, a, b):
    a, b = _operands(datum, a, b)
    return a * b


def _divided_power(datum, gen_name, n):
    if n < 0:
        raise ValueError("divided powers need a nonnegative exponent")
    if gen_name.startswith("th"):
        vertex = int(gen_name[2:])
        return FreeElement(datum, {(vertex,) * n: qfact(n).inverse()})
    vertex = int(gen_name[1:])
    if gen_name[0] == "E":
        return embed_plus(theta_divided(datum, vertex, n))
    return embed_minus(theta_divided(datum, vertex, n))


def _power(datum, base, n):
    if isinstance(base, RatFunc):
        return base ** n
    if n == 0:
        return type(base).unit(datum)
    out = base
    for _ in range(n - 1):
        out = out * base
    return out


def parse_expr(datum: CartanDatum, src: str):
    """Parse against the datum; returns a RatFunc, FreeElement,
    UElement, or DoubleElement depending on the generators used."""
    return _Parser(datum, _tokenize(src), src).parse()


# ---------------------------------------------------------------------------
# the one element printer


class Slot(NamedTuple):
    """One slot of a term key: a word of generators <letter><vertex>, or
    the coweight where letter is None.  The text form leaves out an empty
    word and a zero coweight, and wraps the others as <wrap>(...) when
    wrap is given."""

    name: str  # its field in a JSON term
    letter: str | None
    wrap: str = ""


SLOTS = {
    "f": (Slot("word", "th"),),
    "u": (Slot("F", "F"), Slot("K", None, "K"), Slot("E", "E")),
    "double": (Slot("minus", "th", "m"), Slot("k", None, "k"), Slot("plus", "th", "p")),
}


def _by_length(word) -> tuple:
    return len(word), word


def _slot_walker(slot: Slot):
    """The sort key, JSON string and text factor of one slot's value."""
    if slot.letter is None:
        def json(mu):
            return ",".join(map(str, mu))

        def text(mu):
            return f"{slot.wrap}({json(mu)})" if any(mu) else ""

        return tuple, json, text
    letter, sep = slot.letter, "*" + slot.letter

    def json(word):
        return letter + sep.join(map(str, word)) if word else "1"

    if slot.wrap:
        def text(word):
            return f"{slot.wrap}({json(word)})" if word else ""
    else:
        def text(word):
            return letter + sep.join(map(str, word)) if word else ""

    return _by_length, json, text


class _Layout:
    """One kind's slot table, compiled once into the term order and the
    walkers of each slot."""

    def __init__(self, kind: str):
        slots = SLOTS[kind]
        self.kind = kind
        self.names = tuple(s.name for s in slots)
        orders, self.jsons, self.texts = zip(*map(_slot_walker, slots))
        # an f key is its one word; the other keys are tuples of their slots
        self.single = len(slots) == 1
        if self.single:
            self.order = lambda item: _by_length(item[0])
        else:
            self.order = lambda item: [f(p) for f, p in zip(orders, item[0])]

    def walk(self, x):
        """x's (slot values, coefficient) pairs in the term order."""
        items = x.terms.items()
        if len(items) > 1:
            items = sorted(items, key=self.order)
        return [((k,), c) for k, c in items] if self.single else items


_F_LAYOUT = _Layout("f")
_LAYOUTS = {
    FreeElement: _F_LAYOUT,
    FElement: _F_LAYOUT,
    UElement: _Layout("u"),
    DoubleElement: _Layout("double"),
}


def _coeff_prefix(c: RatFunc) -> tuple[str, str]:
    """(sign, body) for a coefficient used as a multiplier.  A coefficient
    over 1 with a negative leading coefficient prints as minus the body of
    -c; a fraction keeps its sign inside its parentheses.  The body is
    empty for 1."""
    sign = "+"
    if c.den is ONE_POLY and c.num.lead() < 0:
        sign, c = "-", -c
    s = str(c)
    if s == "1":
        return sign, ""
    simple = c.den is ONE_POLY and len(c.num.coeffs) == 1
    return sign, s if simple else f"({s})"


def format_element(x) -> str:
    """The canonical text of an element of f, U or the double."""
    layout = _LAYOUTS[type(x)]
    texts = layout.texts
    out = []
    for parts, c in layout.walk(x):
        sign, coeff = _coeff_prefix(c)
        body = "*".join([t for f, p in zip(texts, parts) if (t := f(p))])
        if coeff:
            body = f"{coeff}*{body}" if body else coeff
        body = body or "1"
        if out:
            out.append(f"{sign} {body}")
        else:
            out.append(f"-{body}" if sign == "-" else body)
    return " ".join(out) or "0"


def element_json(x) -> dict:
    """The kind of an element of f, U or the double and its terms in the
    text's order: one object per term, its slots by name and its
    coefficient as "c"."""
    layout = _LAYOUTS[type(x)]
    terms = []
    for parts, c in layout.walk(x):
        term = {n: f(p) for n, f, p in zip(layout.names, layout.jsons, parts)}
        term["c"] = str(c)
        terms.append(term)
    return {"type": layout.kind, "terms": terms}
