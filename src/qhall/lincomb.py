"""Sparse linear combinations: the one data format behind every element.

An element is a dict from basis keys (words, triangular triples, iso
classes, ...) to nonzero coefficients, tied to one space.  A subclass
names the attributes that fix its space in ``SPACE``, which are also its
slots; two elements share a space when they have the same type and equal
values in those attributes.  Coefficients are field elements whose truth
value means nonzero: Q(v) values or exact ``Fraction``s.

Elements are immutable values: every operation returns a new element.
Every map on elements is given on basis keys and extended by ``linear``
or ``bilinear``, which use only ``+``, ``*`` and truth values and return
zero-free dicts for ``_like``.

The memos that keep rows of elements store each part through ``_share``,
so that equal keys, coefficients and pairing vectors across all their
rows are one object: the word coproducts and the word forms of the free
algebra, the Gram inverse numerators, kernel bases and
divided-power decompositions of f, the straightened word pairs and the
word-pair coproducts and antipodes of U, and the word images, T~ word
images and pair rows of the symmetries.  A memo of whole elements stores
them through ``_share_terms``.  The word normal forms of f keep their
own coefficients: on the symbolic-verify benchmark, sharing them as well
made run_s 2% slower (lower in 6 of 24 interleaved pairs) and left peak
RSS where it was.
"""

from __future__ import annotations

from functools import lru_cache

from .ratfunc import ONE, RatFunc


def merge(dst: dict, key, coeff) -> None:
    """Add coeff to dst[key] in place, keeping dst free of zeros."""
    if not coeff:
        return
    prev = dst.get(key)
    if prev is None:
        dst[key] = coeff
    else:
        s = prev + coeff
        if s:
            dst[key] = s
        else:
            del dst[key]


# _shared is bounded above the largest fill measured: one
# scripts/run_verify.py process leaves 20,052 entries in it, one
# symbolic-verify round 4,680 and the u-queries stream 2,285.
@lru_cache(maxsize=1 << 15)
def _shared(value):
    """The first stored object equal to value, and ONE itself for a value
    equal to it, as products tell a factor ONE by identity.  Only tuples,
    IntPolys and RatFuncs are passed: lru_cache keys the scalars 1 and
    True alike."""
    return ONE if type(value) is RatFunc and value == ONE else value


def _share(rows) -> tuple:
    """Rows of values with every part replaced by its shared copy; the
    values are immutable and canonical, so an equal object stands in for
    each."""
    return tuple(tuple(map(_shared, row)) for row in rows)


def _share_terms(x):
    """x with every key and coefficient replaced by its shared copy."""
    return x._like({_shared(k): _shared(c) for k, c in x.terms.items()})


def linear(pairs, image) -> dict:
    """The sum of c * image(k) over the (k, c) in pairs, where image(k)
    yields (key, coefficient) pairs."""
    out: dict = {}
    for k, c in pairs:
        for key, ck in image(k):
            merge(out, key, c * ck)
    return out


def bilinear(xs, ys, image) -> dict:
    """The sum of a * b * image(j, k) over the (j, a) in xs and (k, b) in
    ys: linear on the pairs of keys.  ys is read once per term of xs."""
    pairs = (((j, k), a * b) for j, a in xs for k, b in ys)
    return linear(pairs, lambda jk: image(*jk))


def _mismatch(a, b) -> ValueError:
    if type(a) is not type(b):
        return ValueError(
            f"cannot combine {type(a).__name__} with {type(b).__name__}"
        )
    names = [n for n in a.SPACE if getattr(a, n) != getattr(b, n)]
    return ValueError(f"{type(a).__name__} operands differ in {', '.join(names)}")


class LinComb:
    """Base of the element types: construct as ``Cls(*space, terms=None)``
    with the space values in ``SPACE`` order, terms given by position or
    by name; zero coefficients are dropped."""

    __slots__ = ("terms",)
    SPACE: tuple[str, ...] = ()

    def __init__(self, *args, terms=None):
        space = self.SPACE
        n = len(space)
        if len(args) == n + 1 and terms is None:
            terms = args[n]
        elif len(args) != n:
            raise TypeError(
                f"{type(self).__name__}() takes {', '.join(space)} and terms"
            )
        for name, value in zip(space, args):
            setattr(self, name, value)
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    def _like(self, terms: dict):
        """An element of this space on terms that hold no zero."""
        out = object.__new__(type(self))
        for name in self.SPACE:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _same_space(self, other) -> bool:
        if type(other) is not type(self):
            return False
        for name in self.SPACE:
            a = getattr(self, name)
            b = getattr(other, name)
            if a is not b and a != b:
                return False
        return True

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return self._same_space(other) and self.terms == other.terms

    def __hash__(self):
        space = tuple(getattr(self, name) for name in self.SPACE)
        return hash((type(self), space, frozenset(self.terms.items())))

    def __add__(self, other):
        if not self._same_space(other):
            raise _mismatch(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            merge(out, k, c)
        return self._like(out)

    def __sub__(self, other):
        if not self._same_space(other):
            raise _mismatch(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            merge(out, k, -c)
        return self._like(out)

    def scale(self, c):
        if not c:
            return self._like({})
        return self._like({k: c * x for k, x in self.terms.items()})
