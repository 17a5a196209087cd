"""Exact complex-rational scalars.

Every coefficient in the engine is a Gaussian rational re + i*im with
exact rational parts.  A part is stored as an `int` when it is integral
and as a `Fraction` otherwise, so integral arithmetic never enters
`fractions`, and a zero part is always the int 0.  Results are built
through one unchecked constructor that keeps this normal form.  There is
no floating-point mode: all arithmetic is exact and equality is
bit-exact (`3` and `Fraction(3)` are equal, hash alike and print alike).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

_RatLike = Union[int, Fraction, str]


def _as_part(x: _RatLike) -> int | Fraction:
    if isinstance(x, int):
        return int(x)
    if isinstance(x, (Fraction, str)):
        return _normal_part(Fraction(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _normal_part(x: int | Fraction) -> int | Fraction:
    """An integral Fraction as its int; anything else unchanged."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        _set_re(self, _as_part(re))
        _set_im(self, _as_part(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

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
        a, b, c, d = self.re, self.im, other.re, other.im
        # adding an int 0 to a Fraction would still go through `fractions`
        return _make(
            _normal_part(a + c) if a and c else a or c,
            _normal_part(b + d) if b and d else b or d,
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return _make(
            _normal_part(a - c) if a and c else a or -c,
            _normal_part(b - d) if b and d else b or -d,
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is int:
            return _make(_normal_part(self.re * other), _normal_part(self.im * other))
        if other.__class__ is not GaussianRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        # real or imaginary operands skip every product with a zero factor
        if not b and not d:
            return _make(_normal_part(a * c), 0)
        if not a and not c:
            return _make(_normal_part(-(b * d)), 0)
        if not a and not d:
            return _make(0, _normal_part(b * c))
        if not b and not c:
            return _make(0, _normal_part(a * d))
        return _make(_normal_part(a * c - b * d), _normal_part(a * d + b * c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        # a Fraction denominator keeps int / int from giving a float
        norm = Fraction(c * c + d * d)
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _make(_normal_part((a * c + b * d) / norm), _normal_part((b * c - a * d) / norm))

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
        return _make(self.re, -self.im)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- display / serialization ------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            if self.im == 1:
                parts.append("i")
            elif self.im == -1:
                parts.append("-i")
            else:
                parts.append(f"{self.im}*i")
        return "+".join(parts).replace("+-", "-")

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def from_json(cls, data: dict) -> "GaussianRational":
        return cls(Fraction(data["re"]), Fraction(data["im"]))


_new = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _make(re: int | Fraction, im: int | Fraction) -> GaussianRational:
    """Unchecked constructor: both parts already in normal form."""
    g = _new(GaussianRational)
    _set_re(g, re)
    _set_im(g, im)
    return g


def gr(re: _RatLike = 0, im: _RatLike = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))
HALF_I = GaussianRational(0, Fraction(1, 2))
