import pytest

from starq.errors import ExprParseError
from math import comb

from starq.exprparse import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_POWER_TERMS,
    coordinate_names,
    parse_base_poly,
    parse_phase_poly,
)
from starq.poly import Poly
from starq.scalars import gr


def test_coordinate_names():
    assert coordinate_names(2, 1) == ["q1", "q2", "p1", "p2", "c1"]


def test_coordinates_map_to_indices():
    d = 2
    assert parse_phase_poly("q1", 1) == Poly.coordinate(d, 0)
    assert parse_phase_poly("p1", 1) == Poly.coordinate(d, 1)
    assert parse_phase_poly("c1", 1, 1) == Poly.coordinate(3, 2)


def test_rational_and_imaginary_literals():
    assert parse_phase_poly("3/4", 1) == Poly.const(2, gr("3/4"))
    assert parse_phase_poly("i", 1) == Poly.const(2, gr(0, 1))
    assert parse_phase_poly("1/2*i", 1) == Poly.const(2, gr(0, "1/2"))


def test_arithmetic_precedence():
    d = 2
    q = Poly.coordinate(d, 0)
    p = Poly.coordinate(d, 1)
    assert parse_phase_poly("q1 + p1*q1", 1) == q + p * q
    assert parse_phase_poly("q1^2*p1 - 2", 1) == q * q * p - Poly.const(d, 2)
    assert parse_phase_poly("-q1^2", 1) == -(q ** 2)
    assert parse_phase_poly("(q1 + p1)^2", 1) == (q + p) ** 2


def test_base_polynomials_exclude_momenta():
    assert parse_base_poly("1 + q1^2", 1) == Poly.const(1, 1) + Poly.coordinate(1, 0) ** 2
    with pytest.raises(ExprParseError):
        parse_base_poly("p1", 1)


def test_parse_errors():
    with pytest.raises(ExprParseError):
        parse_phase_poly("", 1)
    with pytest.raises(ExprParseError):
        parse_phase_poly("q1 +", 1)
    with pytest.raises(ExprParseError):
        parse_phase_poly("q3", 1)
    with pytest.raises(ExprParseError):
        parse_phase_poly("q1 @ p1", 1)
    with pytest.raises(ExprParseError):
        parse_phase_poly("q1^(1/2)", 1)
    with pytest.raises(ExprParseError):
        parse_phase_poly("(q1", 1)


def test_round_trip_through_format():
    expr = "q1^2*p1 - 1/3*p1 + 2*i"
    poly = parse_phase_poly(expr, 1)
    again = parse_phase_poly(poly.format(coordinate_names(1)).replace(" ", ""), 1)
    assert poly == again


def test_nesting_bound():
    q = Poly.coordinate(2, 0)
    inside = "(" * MAX_NESTING + "q1" + ")" * MAX_NESTING
    assert parse_phase_poly(inside, 1) == q
    for depth in (MAX_NESTING + 1, 5000):
        with pytest.raises(ExprParseError, match="nested deeper than"):
            parse_phase_poly("(" * depth + "q1" + ")" * depth, 1)
    # a bound on depth, not on the number of groups
    assert parse_phase_poly("+".join(["(q1)"] * 500), 1) == q.scale(500)


def test_exponent_bound():
    q = Poly.coordinate(2, 0)
    assert parse_phase_poly(f"q1^{MAX_EXPONENT}", 1) == q ** MAX_EXPONENT
    assert parse_phase_poly("q1^0003", 1) == q ** 3
    assert parse_phase_poly("q1^" + "0" * 6000 + "2", 1) == q ** 2
    assert parse_phase_poly("q1^000", 1) == Poly.const(2, 1)
    for exponent in (str(MAX_EXPONENT + 1), "100000000", "9" * 6000):
        with pytest.raises(ExprParseError, match=f"exponent above {MAX_EXPONENT}"):
            parse_phase_poly(f"q1^{exponent}", 1)


def test_power_term_bound(monkeypatch):
    # binomial(t + e - 1, e) bounds the terms of a t-term base to the e;
    # the bound is checked before the power is formed
    q1, q2, p1, p2 = (Poly.coordinate(4, j) for j in range(4))
    assert comb(4 + 16 - 1, 16) <= MAX_POWER_TERMS < comb(4 + 17 - 1, 17)
    assert parse_phase_poly("(q1+q2+p1+p2)^3", 2) == (q1 + q2 + p1 + p2) ** 3
    # one-term and zero bases have one term and none at any exponent
    assert parse_phase_poly(f"(2*q1*p2)^{MAX_EXPONENT}", 2) == (q1 * p2).scale(2) ** MAX_EXPONENT
    assert parse_phase_poly("(q1-q1)^7", 2) == Poly.zero(4)

    def refuse(self, n):
        raise AssertionError("power formed")

    monkeypatch.setattr(Poly, "__pow__", refuse)
    for expr in ("(q1+q2+p1+p2)^17", "(q1+q2+p1+p2)^40", "(q1+1)^1000", "(q1+q2+p1+p2+1)^200"):
        with pytest.raises(ExprParseError, match=f"more than {MAX_POWER_TERMS} terms"):
            parse_phase_poly(expr, 2)


def test_power_coefficient_bound(monkeypatch):
    # terms x exponent x bits of the largest base coefficient, where a
    # coefficient's bits are its numerators' plus log2 of its denominator
    assert 1000 * 999 * 1 <= MAX_POWER_BITS < 1000 * 999 * 2
    q1 = Poly.coordinate(2, 0)
    assert parse_phase_poly("(2/3*q1+5/7)^5", 1) == (q1.scale(gr("2/3")) + gr("5/7")) ** 5
    assert parse_phase_poly("(-4/9*i*q1)^3", 1) == q1.scale(gr(0, "-4/9")) ** 3
    # a base whose coefficients come from a power is measured as formed
    for expr in ("(q1+2^40)^999", "((2^999)^999)^2"):
        with pytest.raises(ExprParseError, match=f"more than {MAX_POWER_BITS} coefficient bits"):
            parse_phase_poly(expr, 1)

    def refuse(self, n):
        raise AssertionError("power formed")

    monkeypatch.setattr(Poly, "__pow__", refuse)
    for expr in ("(2/3*q1+5/7)^999", "(1/2*q1+1)^999", "(q1+2)^999", "(q1+1+i)^999"):
        with pytest.raises(ExprParseError, match=f"more than {MAX_POWER_BITS} coefficient bits"):
            parse_phase_poly(expr, 1)
