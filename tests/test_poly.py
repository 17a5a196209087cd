import copy
import pickle
from math import comb, perm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starq.errors import DimensionMismatch
from starq.poly import EMPTY_INDEX, MultiIndex, Poly
from starq.scalars import GaussianRational, gr

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(GaussianRational, rationals, rationals)


def multiindices(dim, max_degree=3):
    return st.lists(
        st.integers(min_value=0, max_value=dim - 1), min_size=0, max_size=max_degree
    ).map(lambda cs: MultiIndex.of(*cs))


def polys(dim, max_degree=3, max_terms=4):
    term = st.tuples(multiindices(dim, max_degree), scalars)

    def build(ts):
        acc = Poly.zero(dim)
        for mi, c in ts:
            acc = acc + Poly.monomial(dim, mi, c)
        return acc

    return st.lists(term, max_size=max_terms).map(build)


# -- multi-index ----------------------------------------------------------

def test_multiindex_no_zero_entries():
    mi = MultiIndex({0: 2, 1: 0, 3: 1})
    assert mi.pairs == ((0, 2), (3, 1))
    assert mi.degree == 3
    assert mi.dense(4) == (2, 0, 0, 1)


def test_multiindex_of_and_add():
    assert MultiIndex.of(0, 0, 2) == MultiIndex({0: 2, 2: 1})
    assert MultiIndex.of(0) + MultiIndex.of(1) == MultiIndex.of(0, 1)
    assert MultiIndex.of(0, 1).decrement(0) == MultiIndex.of(1)


def test_multiindex_sub_indices_and_binomial():
    mi = MultiIndex.of(0, 0, 1)
    subs = list(mi.sub_indices())
    assert len(subs) == 6  # (0..2) x (0..1)
    assert mi.binomial(MultiIndex.of(0)) == 2
    assert mi.binomial(MultiIndex.of(0, 0, 1)) == 1


def test_multiindex_one_object_per_index():
    target = MultiIndex({0: 2, 3: 1})
    built = [
        MultiIndex({3: 1, 0: 2, 1: 0}),
        MultiIndex([(3, 1), (0, 2)]),
        MultiIndex.of(3, 0, 0),
        MultiIndex.from_exponents([2, 0, 0, 1]),
        MultiIndex._from_sorted(((0, 2), (3, 1))),
        MultiIndex.of(0) + MultiIndex.of(0, 3),
        MultiIndex.of(0, 0, 0, 3).decrement(0),
        MultiIndex.of(0, 0, 1, 3).subtract(MultiIndex.unit(1)),
        [k for k in MultiIndex.of(0, 0, 1, 3).sub_indices() if k.pairs == target.pairs][0],
        next(iter(Poly.from_json(4, [{"exps": [2, 0, 0, 1], "re": "1", "im": "0"}])._terms)),
        copy.copy(target),
        copy.deepcopy(target),
        pickle.loads(pickle.dumps(target)),
    ]
    for mi in built:
        assert mi is target
    assert MultiIndex.unit(2) is MultiIndex.of(2)
    assert MultiIndex() is EMPTY_INDEX
    assert MultiIndex.of(1).decrement(1) is EMPTY_INDEX
    assert MultiIndex.of(1).subtract(MultiIndex.of(1)) is EMPTY_INDEX
    assert copy.deepcopy({EMPTY_INDEX: [target]}) == {EMPTY_INDEX: [target]}


def test_multiindex_unit_rejects_a_negative_coordinate():
    with pytest.raises(ValueError, match=r"invalid multi-index entry \(-1, 1\)"):
        MultiIndex.unit(-1)
    with pytest.raises(ValueError, match=r"invalid multi-index entry \(-1, 1\)"):
        MultiIndex(((-1, 1),))


def test_multiindex_compares_by_identity():
    assert not hasattr(MultiIndex, "_hash")
    assert "__eq__" not in vars(MultiIndex) and "__hash__" not in vars(MultiIndex)
    a = MultiIndex.of(0, 1)
    assert hash(a) == object.__hash__(a)
    assert a != MultiIndex.of(0, 0) and a != a.pairs
    with pytest.raises(AttributeError):
        a._pairs = ()


# -- tables ------------------------------------------------------------------

def merged(a, b):
    """a + b, formed from dense exponents without any table."""
    dim = max(a.max_coord(), b.max_coord()) + 1
    return MultiIndex.from_exponents([x + y for x, y in zip(a.dense(dim), b.dense(dim))])


@settings(max_examples=150, deadline=None)
@given(multiindices(5, 6), multiindices(5, 6))
def test_sum_table_matches_merge(a, b):
    total = a.sum_table()[b]
    assert total is merged(a, b) and total is a + b
    # the sum is recorded in both operands' tables, so the second read
    # from either side is a hit
    assert b.sum_table()[a] is total
    assert a.sum_table().get(b) is total
    if b is not EMPTY_INDEX:
        assert b.sum_table().get(a) is total


@settings(max_examples=150, deadline=None)
@given(multiindices(5, 7), multiindices(5, 7))
def test_exponent_map_reads_match_pairs(a, b):
    dim = 5
    assert a.dense(dim) == tuple(dict(a.pairs).get(c, 0) for c in range(dim))
    divides = all(x <= y for x, y in zip(b.dense(dim), a.dense(dim)))
    assert b.divides(a) == divides
    if divides:
        rest = a.subtract(b)
        assert merged(rest, b) is a
        assert a.falling(b) == prod(perm(y, x) for x, y in zip(b.dense(dim), a.dense(dim)))
        assert a.binomial(b) == prod(comb(y, x) for x, y in zip(b.dense(dim), a.dense(dim)))
    else:
        with pytest.raises(ValueError):
            a.subtract(b)
    for c, _ in a.pairs:
        assert merged(a.decrement(c), MultiIndex.unit(c)) is a


@settings(max_examples=100, deadline=None)
@given(multiindices(4, 7))
def test_divisor_table_lists_every_divisor(a):
    table = a.divisors()
    assert list(table) == list(a.sub_indices())
    assert len(table) == a.divisor_count()
    for sub, hit in table.items():
        assert hit == (sub, a.subtract(sub), a.falling(sub))
    assert a.divisors() is table


def test_copies_of_an_index_with_filled_tables_are_the_pooled_object():
    a = MultiIndex.of(0, 0, 2)
    a.sum_table()[MultiIndex.of(1)]
    a.divisors()
    assert a._sums and a._divs
    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert copied is a
    assert copy.deepcopy({a: [a.sum_table()[EMPTY_INDEX]]}) == {a: [a]}


def test_sum_tables_fill_only_when_read():
    def tables():
        return [None if mi._sums is None else dict(mi._sums) for mi in (a, b)]

    a, b = MultiIndex.of(0, 7, 7, 9), MultiIndex.of(3, 8)
    before = tables()
    total = a + b
    assert tables() == before
    assert a.sum_table()[b] is total


# -- arithmetic -------------------------------------------------------------

def test_cancellation():
    q = Poly.coordinate(2, 0)
    p = Poly.coordinate(2, 1)
    assert (q + p) + (q - p) == q.scale(2)


def test_product_and_scale():
    q = Poly.coordinate(2, 0)
    p = Poly.coordinate(2, 1)
    assert q * p == Poly.monomial(2, MultiIndex.of(0, 1))
    scaled = (q * q * p).scale(gr(0, "1/2"))
    assert scaled.coefficient(MultiIndex.of(0, 0, 1)) == gr(0, "1/2")


def test_zero_polynomial_is_empty_map():
    z = Poly.zero(3)
    assert z.is_zero()
    assert z.term_count() == 0
    assert (z + z).is_zero()
    q = Poly.coordinate(3, 0)
    assert (q - q).is_zero()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Poly.coordinate(2, 0) + Poly.coordinate(3, 0)
    with pytest.raises(DimensionMismatch):
        Poly.coordinate(1, 0) * Poly.coordinate(2, 0)


@settings(max_examples=40)
@given(polys(2), polys(2), polys(2))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


# -- differentiation ----------------------------------------------------------

def test_diff_basic():
    q = Poly.coordinate(2, 0)
    p = Poly.coordinate(2, 1)
    f = q * q * p
    assert f.diff_coord(0) == (q * p).scale(2)
    assert (q * q).diff(MultiIndex.of(1, 1)).is_zero()


def test_diff_mixed_hand_value():
    q = Poly.coordinate(2, 0)
    p = Poly.coordinate(2, 1)
    f = q * q * p * p
    assert f.diff(MultiIndex.of(0, 1)) == (q * p).scale(4)


@settings(max_examples=40)
@given(polys(3), multiindices(3), multiindices(3))
def test_diff_commutes(f, i, j):
    assert f.diff(i).diff(j) == f.diff(j).diff(i)
    assert f.diff(i + j) == f.diff(i).diff(j)


@settings(max_examples=40)
@given(polys(2), polys(2), multiindices(2, 2))
def test_leibniz(f, g, idx):
    # iterated Leibniz: d^I(fg) = sum over K <= I of C(I,K) d^K f d^(I-K) g
    lhs = (f * g).diff(idx)
    rhs = Poly.zero(2)
    for sub in idx.sub_indices():
        rhs = rhs + (f.diff(sub) * g.diff(idx.subtract(sub))).scale(idx.binomial(sub))
    assert lhs == rhs


# -- canonical form / serialization -----------------------------------------

def test_terms_are_grlex_sorted():
    q = Poly.coordinate(2, 0)
    p = Poly.coordinate(2, 1)
    f = p + q * q * p + q
    degrees = [mi.degree for mi, _ in f.terms()]
    assert degrees == sorted(degrees, reverse=True)
    # same degree: lexicographically larger exponent vector first
    g = q + p
    assert [mi.dense(2) for mi, _ in g.terms()] == [(1, 0), (0, 1)]


def test_json_round_trip():
    f = Poly(
        2,
        {
            MultiIndex.of(0, 0, 1): gr("2/3", "-1/5"),
            EMPTY_INDEX: gr(7),
        },
    )
    assert Poly.from_json(2, f.to_json()) == f


def test_embed():
    base = Poly.coordinate(1, 0) ** 2 + Poly.const(1, 3)
    lifted = base.embed(4)
    assert lifted.dim == 4
    assert lifted.coefficient(MultiIndex.of(0, 0)) == gr(1)


def test_poly_copy_and_pickle_round_trips():
    f = Poly.coordinate(2, 0) * gr("1/3", 2) + Poly.coordinate(2, 1) ** 3 - Poly.const(2, 5)
    for p in (Poly.coordinate(2, 0), Poly.zero(3), f):
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and twin.dim == p.dim and str(twin) == str(p)
            assert twin._terms is not p._terms


def test_power_matches_repeated_multiplication():
    x = Poly.coordinate(1, 0)
    f = x + Poly.const(1, gr("1/2", 1))
    acc = Poly.const(1, 1)
    for n in range(12):
        assert f ** n == acc
        acc = acc * f
    assert (x ** 1000).coefficient(MultiIndex({0: 1000})) == gr(1)


def _squared_power(f, n):
    """f^n by repeated squaring, the oracle for the multinomial expansion
    of `**`."""
    result, base = Poly.const(f.dim, 1), f
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


nonzero_coefficients = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12).map(GaussianRational),
    scalars,
).filter(bool)
# 1, q1, p1 and q1*p1 in dim 2: sums of their multiples collide, and with
# coefficients +-1 and +-2 some collisions cancel
COLLIDING = [EMPTY_INDEX, MultiIndex.unit(0), MultiIndex.unit(1), MultiIndex.of(0, 1)]
small_coefficients = st.sampled_from([gr(1), gr(-1), gr(2), gr(-2), gr(0, 1)])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.booleans(), st.data())
def test_power_is_the_multinomial_expansion(terms, colliding, data):
    if colliding:
        dim = 2
        monomials = data.draw(st.permutations(COLLIDING))[:terms]
        coefficients = small_coefficients
    else:
        dim = data.draw(st.integers(min_value=1, max_value=3))
        monomials = data.draw(st.lists(multiindices(dim), min_size=terms, max_size=terms,
                                       unique=True))
        coefficients = nonzero_coefficients
    f = Poly(dim, {m: data.draw(coefficients) for m in monomials})
    n = data.draw(st.integers(min_value=0, max_value=60 if terms <= 2 else 12))
    power = f ** n
    assert power == _squared_power(f, n) and power.dim == dim
    if terms == 2:
        assert power.term_count() == n + 1


def test_power_prunes_cancelled_collisions():
    q, p = Poly.coordinate(2, 0), Poly.coordinate(2, 1)
    f = Poly.const(2, 1) + q + p - q * p
    # q*p comes from 2 q p and from 2 (1)(-q*p)
    assert (f ** 2).coefficient(MultiIndex.of(0, 1)) == gr(0)
    assert f ** 2 == f * f and (f ** 2).term_count() == 8
    assert (f ** 5) == _squared_power(f, 5)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_power_of_the_zero_base(n):
    power = Poly.zero(2) ** n
    assert power == (Poly.const(2, 1) if n == 0 else Poly.zero(2)) and power.dim == 2


def test_power_of_a_base_with_many_terms():
    # the walk over the middle terms keeps its own stack, so a base of
    # hundreds of terms needs no deeper recursion than one of two
    f = Poly(3, {MultiIndex.from_exponents((a % 7, a // 7 % 6, a // 42)): gr(a % 5 - 2 or 3, a % 3)
                 for a in range(300)})
    assert f.term_count() == 300
    assert f ** 2 == f * f


@pytest.mark.parametrize("n", [-1, 1.5, "2"])
def test_power_rejects_a_bad_exponent(n):
    with pytest.raises(ValueError, match="non-negative integer"):
        Poly.coordinate(1, 0) ** n
