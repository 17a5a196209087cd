import pytest

from starq.errors import OrderMismatch
from starq.poly import Poly
from starq.series import HbarSeries


def consts(dim, *values):
    return [Poly.const(dim, v) for v in values]


def test_truncated_product():
    one = Poly.const(2, 1)
    q = Poly.coordinate(2, 0)
    zero = Poly.zero(2)
    a = HbarSeries([one, q, zero])
    b = HbarSeries([one, -q, zero])
    assert a * b == HbarSeries([one, zero, -(q * q)])


def test_truncation_drops_high_orders():
    zero = Poly.zero(2)
    p = Poly.coordinate(2, 1)
    q = Poly.coordinate(2, 0)
    a = HbarSeries([zero, zero, p])
    b = HbarSeries([zero, zero, q])
    assert (a * b).is_zero()


def test_hand_expansion_order1():
    one = Poly.const(1, 1)
    a = HbarSeries([one, one])
    assert a * a == HbarSeries([one, one.scale(2)])


def test_order_mismatch():
    one = Poly.const(1, 1)
    with pytest.raises(OrderMismatch):
        HbarSeries([one]) * HbarSeries([one, one])
    with pytest.raises(OrderMismatch):
        HbarSeries([one]) + HbarSeries([one, one])


def test_cauchy_coefficient_formula():
    dim = 1
    a = HbarSeries(consts(dim, 1, 2, 3))
    b = HbarSeries(consts(dim, 5, 7, 11))
    prod = a * b
    # k-th coefficient is sum of products of complementary orders
    assert prod == HbarSeries(consts(dim, 5, 17, 40))


def test_shift_down_requires_zero_head():
    dim = 1
    s = HbarSeries(consts(dim, 0, 4, 9))
    assert s.shift_down() == HbarSeries(consts(dim, 4, 9))
    with pytest.raises(ValueError):
        HbarSeries(consts(dim, 1, 0)).shift_down()


def test_truncate_and_scale():
    dim = 1
    s = HbarSeries(consts(dim, 1, 2, 3))
    assert s.truncate(1) == HbarSeries(consts(dim, 1, 2))
    assert s.scale(2) == HbarSeries(consts(dim, 2, 4, 6))
    with pytest.raises(OrderMismatch):
        s.truncate(5)

