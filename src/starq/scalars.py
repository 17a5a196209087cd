"""Exact complex-rational scalars.

Every coefficient in the engine is a Gaussian rational, stored as three
ints (r, i, d) for the value (r + i*sqrt(-1)) / d.  The triple is kept in
normal form: d >= 1 and gcd(r, i, d) == 1, so zero is (0, 0, 1) and
equality is equality of the triples.  Addition, subtraction,
multiplication, negation and conjugation are int arithmetic followed by
at most one `math.gcd(r, i, d)`, skipped when d == 1, and never enter
`fractions`.  Results are built through one unchecked constructor,
`_make`, that takes a triple already in normal form.  The parts `re` and
`im` are read back as an `int` when integral and as a `Fraction`
otherwise; `to_json` writes each part straight from the triple, with one
`math.gcd`, as `str(Fraction)` writes it.  There is no floating-point mode: all arithmetic is exact and
equality is bit-exact (`3` and `Fraction(3)` are equal, hash alike and
print alike).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Tuple, Union

_RatLike = Union[int, Fraction, str]


def _as_ratio(x: _RatLike) -> Tuple[int, int]:
    """(numerator, denominator) of an exact rational, in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, (Fraction, str)):
        q = Fraction(x)
        return q.numerator, q.denominator
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _part(n: int, d: int) -> int | Fraction:
    """n / d as an int when integral, else as a Fraction."""
    if d == 1:
        return n
    q = Fraction(n, d)
    return q.numerator if q.denominator == 1 else q


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("_r", "_i", "_d")

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        if re.__class__ is int and im.__class__ is int:
            r, i, d = re, im, 1
        else:
            (r, dr), (i, di) = _as_ratio(re), _as_ratio(im)
            # both parts are in lowest terms, so the triple over their lcm is too
            d = lcm(dr, di)
            r, i = r * (d // dr), i * (d // di)
        _set_r(self, r)
        _set_i(self, i)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return (_make, (self._r, self._i, self._d))

    @property
    def re(self) -> int | Fraction:
        return _part(self._r, self._d)

    @property
    def im(self) -> int | Fraction:
        return _part(self._i, self._d)

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._r and not self._i

    def __bool__(self) -> bool:
        return bool(self._r or self._i)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return NotImplemented

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._r + other._r, self._i + other._i, d1)
        return _reduced(self._r * d2 + other._r * d1, self._i * d2 + other._i * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._r, -self._i, self._d)

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._r - other._r, self._i - other._i, d1)
        return _reduced(self._r * d2 - other._r * d1, self._i * d2 - other._i * d1, d1 * d2)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is int:
            d = self._d
            if d == 1:
                return _make(self._r * other, self._i * other, 1)
            # gcd(r, i) is prime to d, so gcd(k r, k i, d) == gcd(k, d)
            g = gcd(other, d)
            return _make(self._r * other // g, self._i * other // g, d // g)
        if other.__class__ is not GaussianRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self._r, self._i, other._r, other._i
        d = self._d * other._d
        # real or imaginary operands skip every product with a zero factor
        if not b and not e:
            r, i = a * c, 0
        elif not a and not c:
            r, i = -(b * e), 0
        elif not a and not e:
            r, i = 0, b * c
        elif not b and not c:
            r, i = 0, a * e
        else:
            r, i = a * c - b * e, a * e + b * c
        return _make(r, i, 1) if d == 1 else _reduced(r, i, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b i)/d1 / ((c + e i)/d2) = (a + b i)(c - e i) d2 / (d1 (c^2 + e^2))
        a, b, c, e = self._r, self._i, other._r, other._i
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        d2 = other._d
        return _reduced((a * c + b * e) * d2, (b * c - a * e) * d2, self._d * norm)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return _make(self._r, -self._i, self._d)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._r == other._r and self._i == other._i and self._d == other._d

    def __hash__(self):
        return hash((self.re, self.im))

    # -- display / serialization ------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        re, im = self.re, self.im
        parts = []
        if re:
            parts.append(str(re))
        if im:
            if im == 1:
                parts.append("i")
            elif im == -1:
                parts.append("-i")
            else:
                parts.append(f"{im}*i")
        return "+".join(parts).replace("+-", "-")

    def to_json(self) -> dict:
        """{"re": str(re), "im": str(im)}, each part written as
        `str(Fraction)` writes it, from the triple with one `gcd` each."""
        d = self._d
        if d == 1:
            return {"re": str(self._r), "im": str(self._i)}
        return {"re": _ratio_str(self._r, d), "im": _ratio_str(self._i, d)}

    @classmethod
    def from_json(cls, data: dict) -> "GaussianRational":
        return cls(Fraction(data["re"]), Fraction(data["im"]))


_new = object.__new__
_set_r = GaussianRational._r.__set__
_set_i = GaussianRational._i.__set__
_set_d = GaussianRational._d.__set__


def _make(r: int, i: int, d: int) -> GaussianRational:
    """Unchecked constructor: the triple is already in normal form."""
    g = _new(GaussianRational)
    _set_r(g, r)
    _set_i(g, i)
    _set_d(g, d)
    return g


def _reduced(r: int, i: int, d: int) -> GaussianRational:
    """(r + i sqrt(-1)) / d in normal form, for any d >= 1."""
    if d != 1:
        g = gcd(r, i, d)
        if g != 1:
            return _make(r // g, i // g, d // g)
    return _make(r, i, d)


def _ratio_str(n: int, d: int) -> str:
    """n / d in lowest terms as `str(Fraction(n, d))` writes it, d >= 1."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


def gr(re: _RatLike = 0, im: _RatLike = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))
HALF_I = GaussianRational(0, Fraction(1, 2))
