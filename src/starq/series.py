"""Truncated formal power series in the deformation parameter.

The parameter is tracked purely as a list index: a series of order N
keeps exactly N+1 coefficients and every operation drops terms beyond
order N.  Coefficients can be anything supporting `+`, `*` and
`zero_like()` (polynomials in practice).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from .errors import OrderMismatch


class HbarSeries:
    """Series sum_k hbar^k coeffs[k], truncated after `order`."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the order-0 coefficient")
        object.__setattr__(self, "order", len(coeffs) - 1)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("HbarSeries is immutable")

    def __reduce__(self):
        return (HbarSeries, (self.coeffs,))

    @classmethod
    def from_constant(cls, value, order: int) -> "HbarSeries":
        zero = value.zero_like()
        return cls([value] + [zero] * order)

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def _check_order(self, other: "HbarSeries"):
        if self.order != other.order:
            raise OrderMismatch(f"order {self.order} vs {other.order}")

    def __add__(self, other: "HbarSeries") -> "HbarSeries":
        self._check_order(other)
        return HbarSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "HbarSeries":
        return self.map(lambda c: -c)

    def __sub__(self, other: "HbarSeries") -> "HbarSeries":
        self._check_order(other)
        return HbarSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "HbarSeries") -> "HbarSeries":
        """Cauchy product truncated at the common order."""
        self._check_order(other)
        out: List = []
        for k in range(self.order + 1):
            acc = None
            for l in range(k + 1):
                term = self.coeffs[l] * other.coeffs[k - l]
                acc = term if acc is None else acc + term
            out.append(acc)
        return HbarSeries(out)

    def scale(self, factor) -> "HbarSeries":
        return self.map(lambda c: c * factor)

    def map(self, fn: Callable) -> "HbarSeries":
        return HbarSeries([fn(c) for c in self.coeffs])

    def shift_down(self) -> "HbarSeries":
        """Divide by hbar: requires a vanishing order-0 coefficient.

        The result is one order shorter, since nothing is known about the
        coefficient beyond the original truncation.
        """
        zero = self.coeffs[0].zero_like()
        if not self.coeffs[0] == zero:
            raise ValueError("cannot divide by hbar: order-0 term is non-zero")
        if self.order == 0:
            raise ValueError("cannot shift a zero-order series")
        return HbarSeries(self.coeffs[1:])

    def truncate(self, order: int) -> "HbarSeries":
        if order > self.order:
            raise OrderMismatch(f"cannot extend order {self.order} to {order}")
        return HbarSeries(self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        zero = self.coeffs[0].zero_like()
        return all(c == zero for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return f"HbarSeries({self.coeffs!r})"

    def __str__(self):
        return " , ".join(f"h^{k}: {c}" for k, c in enumerate(self.coeffs))

