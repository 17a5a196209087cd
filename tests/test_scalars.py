import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starq.scalars import GaussianRational, I, ONE, ZERO, gr

from helpers import oracle_scalar_json

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_construction_and_exactness():
    x = gr("1/3", "2/7")
    assert x.re == Fraction(1, 3)
    assert x.im == Fraction(2, 7)
    assert gr(2) + gr("1/2") == gr("5/2")


def test_imaginary_unit():
    assert I * I == gr(-1)
    assert I ** 4 == ONE
    assert (I * gr(0, 1)).re == -1


def test_division_exact():
    assert gr(1) / gr(0, 1) == gr(0, -1)  # 1/i = -i
    x = gr("3/4", "-1/2")
    assert x / x == ONE
    with pytest.raises(ZeroDivisionError):
        gr(1) / ZERO


def test_string_round_trip():
    x = gr("-355/113", "22/7")
    assert GaussianRational.from_json(x.to_json()) == x


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_inverse_round_trip(a):
    if a:
        assert a / a == ONE
        assert (ONE / a) * a == ONE


@given(scalars)
def test_conjugation(a):
    assert a.conjugate().conjugate() == a
    prod = a * a.conjugate()
    assert prod.im == 0
    assert prod.re >= 0


# -- reference: plain (Fraction, Fraction) pairs -------------------------------------
#
# The scalar is a normal-form triple of ints and skips products with a
# zero factor; every operation must still agree with naive pair
# arithmetic, on part shapes well outside the small `rationals` above.

parts = st.one_of(
    st.just(0),
    st.integers(-20, 20),
    st.integers(-20, 20).map(Fraction),
    rationals,
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(10 ** 11, 10 ** 12)),
)
pairs = st.one_of(
    st.tuples(parts, st.just(0)),
    st.tuples(st.just(0), parts),
    st.tuples(parts, parts),
)


def ref(pair):
    return Fraction(pair[0]), Fraction(pair[1])


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_str(x):
    re, im = x
    if not re and not im:
        return "0"
    out = []
    if re:
        out.append(str(re))
    if im:
        out.append("i" if im == 1 else "-i" if im == -1 else f"{im}*i")
    return "+".join(out).replace("+-", "-")


def assert_normal(value):
    """The triple (r, i, d) of (r + i sqrt(-1)) / d is in normal form."""
    r, i, d = value._r, value._i, value._d
    assert type(r) is int and type(i) is int and type(d) is int
    assert d >= 1 and gcd(r, i, d) == 1
    if not r and not i:
        assert (r, i, d) == (0, 0, 1)


def assert_matches(value, x):
    """`value` equals the reference pair x; its triple and its parts are in
    normal form."""
    assert_normal(value)
    for part, want in ((value.re, x[0]), (value.im, x[1])):
        assert type(part) in (int, Fraction)
        assert type(part) is int or part.denominator != 1
        assert part == want
    assert value == GaussianRational(*x)
    assert hash(value) == hash(x)
    assert str(value) == ref_str(x)
    assert value.to_json() == {"re": str(x[0]), "im": str(x[1])}


@settings(max_examples=300)
@given(pairs, pairs, st.integers(0, 5))
def test_arithmetic_matches_fraction_pairs(p, q, n):
    a, b = GaussianRational(*p), GaussianRational(*q)
    x, y = ref(p), ref(q)
    assert_matches(a, x)
    assert_matches(a + b, (x[0] + y[0], x[1] + y[1]))
    assert_matches(a - b, (x[0] - y[0], x[1] - y[1]))
    assert_matches(a * b, ref_mul(x, y))
    assert_matches(-a, (-x[0], -x[1]))
    assert_matches(a.conjugate(), (x[0], -x[1]))
    power = (Fraction(1), Fraction(0))
    for _ in range(n):
        power = ref_mul(power, x)
    assert_matches(a ** n, power)
    norm = y[0] * y[0] + y[1] * y[1]
    if norm:
        assert_matches(a / b, ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm))
    assert (a == b) == (x == y)
    assert_matches(GaussianRational.from_json(a.to_json()), x)


@given(pairs, st.integers(-30, 30))
def test_int_operands_match_fraction_pairs(p, k):
    a, x = GaussianRational(*p), ref(p)
    assert_matches(a * k, (x[0] * k, x[1] * k))
    assert_matches(k * a, (x[0] * k, x[1] * k))
    assert_matches(a + k, (x[0] + k, x[1]))
    assert_matches(k - a, (k - x[0], -x[1]))
    if k:
        assert_matches(a / k, (x[0] / k, x[1] / k))
    if a:
        norm = x[0] * x[0] + x[1] * x[1]
        assert_matches(k / a, (k * x[0] / norm, -k * x[1] / norm))


@pytest.mark.parametrize(
    "three",
    [3, Fraction(3), "3", "6/2", Fraction(6, 2), gr(6) / gr(2), gr("9/2") / gr("3/2"),
     gr(3, 4) * gr(3, -4) / gr(25, 0) * gr(3)],
    ids=["int", "Fraction", "str", "str-6/2", "Fraction-6/2", "int-quotient",
         "fraction-quotient", "complex-quotient"],
)
def test_integral_value_spellings_agree(three):
    value = three if isinstance(three, GaussianRational) else gr(three, three)
    want = gr(3) if isinstance(three, GaussianRational) else gr(3, 3)
    assert value == want
    assert hash(value) == hash(want)
    assert str(value) == str(want)
    assert value.to_json() == want.to_json()
    assert type(value.re) is int
    assert type(value.im) is int


@pytest.mark.parametrize(
    "make",
    [
        lambda: gr(1) / gr(2),
        lambda: gr(1, 1) / gr(0, 2),
        lambda: gr(7) / gr(7),
        lambda: gr("1/2", 3) ** 3,
        lambda: gr("-5/10", "4/2") ** 2,
        lambda: GaussianRational.from_json({"re": "4/6", "im": "-8/4"}),
        lambda: gr("0.25", "10/5"),
        lambda: gr(Fraction(3, 1), True),
    ],
)
def test_parts_are_never_floats(make):
    value = make()
    for part in (value.re, value.im):
        assert type(part) in (int, Fraction)
        assert type(part) is int or part.denominator != 1


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        gr(0.5)
    assert GaussianRational(1).__mul__(0.5) is NotImplemented


def test_triple_slots_hold_no_fraction():
    assert GaussianRational.__slots__ == ("_r", "_i", "_d")
    value = gr("-4/6", "10/4")
    assert (value._r, value._i, value._d) == (-4, 15, 6)
    assert (ZERO._r, ZERO._i, ZERO._d) == (0, 0, 1)


def test_hot_operations_never_enter_fractions(monkeypatch):
    a, b, c = gr("2/3", "-5/4"), gr("7/6", "1/9"), gr(-3, 2)
    real, imag = gr("5/8"), gr(0, "-3/10")

    class Refuse:
        def __new__(cls, *args):
            raise AssertionError("fractions entered")

    monkeypatch.setattr("starq.scalars.Fraction", Refuse)
    results = [
        a + b, a + c, c + c, a - b, c - a, a * b, a * c, c * c, real * imag, imag * imag,
        a * 6, 6 * a, c * -2, a * 0, -a, a.conjugate(), a + 1, 2 - a,
    ]
    for value in results:
        assert_normal(value)
    assert a * b == b * a and a - a == ZERO and not (a - a) and a and c != a
    assert a + b - b == a and (a * 12 == gr(8, -15)) is True
    monkeypatch.undo()
    x, y = (Fraction(2, 3), Fraction(-5, 4)), (Fraction(7, 6), Fraction(1, 9))
    assert_matches(results[5], ref_mul(x, y))
    assert_matches(results[8], (0, Fraction(-3, 16)))
    assert_matches(results[9], (Fraction(-9, 100), 0))


@pytest.mark.parametrize(
    "value", [gr("1/3", 2), gr(0), gr(-7, "5/6"), gr(0, "-1/2")], ids=str
)
def test_copy_and_pickle_round_trips(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value) and str(twin) == str(value)
        assert_normal(twin)


# -- serialization ---------------------------------------------------------------------

big_ints = st.integers(-(2 ** 90), 2 ** 90)
json_parts = st.one_of(
    st.just(0),
    st.integers(-60, 60),
    big_ints,
    rationals,
    st.builds(Fraction, big_ints, st.integers(1, 2 ** 70)),
)


@settings(max_examples=400, deadline=None)
@given(json_parts, json_parts)
@example(0, 0)
@example(-7, 0)
@example(0, Fraction(-3, 4))
@example(Fraction(1, 2), Fraction(1, 3))  # d = 6, gcd(r, d) = 3, gcd(i, d) = 2
@example(2, Fraction(1, 3))  # an integral part over d = 3
@example(-4, Fraction(5, 6))  # r = -24 over d = 6
@example(-(2 ** 90), Fraction(2 ** 80 + 1, 3 * 2 ** 40))
def test_to_json_writes_what_fraction_writes(re, im):
    value = GaussianRational(re, im)
    data = value.to_json()
    assert data == oracle_scalar_json(value)
    assert list(data) == ["re", "im"]
    assert GaussianRational.from_json(data) == value
