"""Minimal polynomial expression parser for the batch interface.

Grammar: rational literals (`3`, `1/2`), the imaginary unit `i`,
coordinate names (`q1..qn`, `p1..pn`, Casimir directions `c1..ck`), the
operators `+ - * ^` and parentheses.  Exponents are non-negative
integers up to `MAX_EXPONENT`, and a power is formed only when its
expansion can have at most `MAX_POWER_TERMS` terms and its coefficients
an estimated `MAX_POWER_BITS` bits in all.  There is no implicit
multiplication and no division outside rational literals.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import List, Tuple

from .errors import ExprParseError
from .poly import Poly
from .scalars import GaussianRational

# Deepest parenthesis nesting accepted; each level costs four frames of
# the recursive descent, so this stays well below the recursion limit.
MAX_NESTING = 100
# Largest exponent accepted; the cost of a power grows with it.
MAX_EXPONENT = 1000
# Most terms a power may have before it is formed: a base of t terms to
# the e has at most binomial(t + e - 1, e), one per multiset of e base
# terms, as `Poly.__pow__` forms them.  Forming is cheap, (q1+q2+p1+p2)^16
# (969) about 6 ms and ^40 (12,341) about 80 ms; the bound caps what every
# later product and morphism image of the operand pays term by term.
MAX_POWER_TERMS = 1000
# Most bits the coefficients of a power may hold in all before it is
# formed, estimated as its term bound times the exponent times the bits of
# the base's largest coefficient (numerators plus log2 of the denominator),
# which later products pay for: (q1+1)^999, at 999,000, forms in about 4 ms,
# (2/3*q1+5/7)^999, at 4,995,000, in 50 ms with 2,600-5,300 bits a coefficient.
MAX_POWER_BITS = 1_000_000

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rat>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()]))"
)


def coordinate_names(n: int, casimir: int = 0) -> List[str]:
    """q1..qn, p1..pn, c1..ck in phase-space index order."""
    return (
        [f"q{j + 1}" for j in range(n)]
        + [f"p{j + 1}" for j in range(n)]
        + [f"c{j + 1}" for j in range(casimir)]
    )


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprParseError(f"unexpected character at: {rest[:20]!r}")
        if m.group("rat"):
            tokens.append(("rat", m.group("rat")))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]], names: List[str], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.index = {name: j for j, name in enumerate(names)}
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExprParseError(f"expected {op!r}, found {val!r}")

    def parse(self) -> Poly:
        result = self.expr()
        if self.pos != len(self.tokens):
            raise ExprParseError(f"trailing input at token {self.tokens[self.pos]}")
        return result

    def expr(self) -> Poly:
        acc = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> Poly:
        sign = 1
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
            else:
                break
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val = self.take()
            if kind != "rat" or "/" in val:
                raise ExprParseError("exponent must be a non-negative integer")
            # the length test keeps int() off digit strings of any length
            digits = val.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ExprParseError(f"exponent above {MAX_EXPONENT}")
            exponent, terms = int(digits), base.term_count()
            bound = comb(terms + exponent - 1, exponent) if terms else 0
            if terms > 1 and bound > MAX_POWER_TERMS:
                raise ExprParseError(
                    f"a power of {terms} terms to the {exponent} may have more than "
                    f"{MAX_POWER_TERMS} terms"
                )
            bits = max((_bits(c) for c in base._terms.values()), default=0)
            if bound * exponent * bits > MAX_POWER_BITS:
                raise ExprParseError(
                    f"a power of {terms} terms with {bits}-bit coefficients to the "
                    f"{exponent} may need more than {MAX_POWER_BITS} coefficient bits"
                )
            base = base ** exponent
        return base if sign == 1 else -base

    def atom(self) -> Poly:
        kind, val = self.take()
        if kind == "rat":
            return Poly.const(self.dim, GaussianRational(Fraction(val)))
        if kind == "name":
            if val == "i":
                return Poly.const(self.dim, GaussianRational(0, 1))
            coord = self.index.get(val)
            if coord is None:
                raise ExprParseError(f"unknown coordinate {val!r}")
            return Poly.coordinate(self.dim, coord)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ExprParseError(f"parentheses nested deeper than {MAX_NESTING} levels")
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ExprParseError(f"unexpected token {val!r}")


def _bits(c: GaussianRational) -> int:
    """Bits of an exact coefficient: its numerators plus log2 of its
    denominator."""
    return c._r.bit_length() + c._i.bit_length() + c._d.bit_length() - 1


def parse_poly(text: str, names: List[str], dim: int | None = None) -> Poly:
    """Parse an expression over the given coordinate names."""
    if not isinstance(text, str):
        raise ExprParseError(f"expected an expression string, got {text!r}")
    if dim is None:
        dim = len(names)
    tokens = _tokenize(text)
    if not tokens:
        raise ExprParseError("empty expression")
    return _Parser(tokens, names, dim).parse()


def parse_phase_poly(text: str, n: int, casimir: int = 0) -> Poly:
    return parse_poly(text, coordinate_names(n, casimir))


def parse_base_poly(text: str, n: int) -> Poly:
    """Expression in the configuration coordinates only."""
    return parse_poly(text, [f"q{j + 1}" for j in range(n)])
