import copy
import itertools
import json
import pickle
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starq.equivalence import EquivalenceMorphism, derive_equivalence
from starq.errors import DimensionMismatch, InvalidArgument, OperatorOrderExceeded, OrderMismatch
from starq.exprparse import parse_phase_poly
from starq.geometry import Connection
from starq.operators import MAX_OP_ORDER, BiDiffOp, DiffOp, _Hits
from starq.poly import _POOL, EMPTY_INDEX, MultiIndex, Poly
from starq.products import PoissonTensor, monomials_up_to, moyal_product, natural_cotangent_product
from starq.scalars import HALF, gr

from helpers import (
    oracle_operator_json,
    oracle_poly_json,
    tensor,
    term_scan_apply,
    term_scan_bi_apply,
    whole_compose,
)
from test_poly import multiindices, polys, scalars


def nonzero_diffops(dim, max_order=2, max_terms=3):
    """At least one term, every coefficient a nonzero polynomial."""
    coeff = st.lists(
        st.tuples(multiindices(dim, 2), scalars.filter(bool)),
        min_size=1, max_size=2, unique_by=lambda t: t[0],
    ).map(lambda ts: sum((Poly.monomial(dim, mi, c) for mi, c in ts), Poly.zero(dim)))
    term = st.tuples(multiindices(dim, max_order), coeff)
    return st.lists(term, min_size=1, max_size=max_terms, unique_by=lambda t: t[0]).map(
        lambda ts: DiffOp(dim, dict(ts))
    )


def coefficients(dim):
    """Polynomial coefficients carrying at least one coordinate factor."""
    return st.tuples(polys(dim, 2, 2), st.integers(0, dim - 1)).map(
        lambda t: t[0] + Poly.coordinate(dim, t[1])
    )


def bidiffops(dim, max_order=2, max_terms=4):
    term = st.tuples(multiindices(dim, max_order), multiindices(dim, max_order), coefficients(dim))
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda ts: sum((BiDiffOp(dim, {(li, ri): p}) for li, ri, p in ts), BiDiffOp.zero(dim))
    )


def multi_term_polys(dim):
    term = st.tuples(multiindices(dim, 4), scalars.filter(bool))
    return st.lists(term, min_size=2, max_size=5, unique_by=lambda t: t[0]).map(
        lambda ts: sum((Poly.monomial(dim, mi, c) for mi, c in ts), Poly.zero(dim))
    )


# -- apply -------------------------------------------------------------------

def test_identity_apply():
    f = Poly.coordinate(2, 0) ** 2 * Poly.coordinate(2, 1)
    assert DiffOp.identity(2).apply(f) == f


def test_euler_operator():
    p = Poly.coordinate(2, 1)
    op = DiffOp(2, {MultiIndex.unit(1): p})  # p d_p
    assert op.apply(p ** 3) == (p ** 3).scale(3)


def test_apply_to_zero():
    op = DiffOp(2, {MultiIndex.of(0, 1): Poly.coordinate(2, 0)})
    assert op.apply(Poly.zero(2)).is_zero()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(multiindices(2, 3), coefficients(2)), min_size=1, max_size=4).map(
        lambda ts: sum((DiffOp(2, {mi: p}) for mi, p in ts), DiffOp.zero(2))
    ),
    multi_term_polys(2),
    polys(2, 0, 2),
)
def test_apply_matches_term_scan(op, f, c):
    for operand in (f, c, Poly.zero(2)):
        assert op.apply(operand) == term_scan_apply(op, operand)


# -- compose -----------------------------------------------------------------

def test_compose_leibniz_by_hand():
    dq = DiffOp.partial(2, 0)
    mq = DiffOp.multiplication(Poly.coordinate(2, 0))
    assert dq.compose(mq) == DiffOp(
        2,
        {
            MultiIndex.unit(0): Poly.coordinate(2, 0),
            EMPTY_INDEX: Poly.const(2, 1),
        },
    )


def test_compose_identity():
    a = DiffOp(2, {MultiIndex.of(0, 1): Poly.coordinate(2, 1)})
    assert DiffOp.identity(2).compose(a) == a
    assert a.compose(DiffOp.identity(2)) == a


def test_constant_coefficients_commute():
    dp = DiffOp.partial(2, 1)
    dq = DiffOp.partial(2, 0)
    assert dp.compose(dq) == DiffOp.derivative(2, MultiIndex.of(0, 1))
    assert dp.compose(dq) == dq.compose(dp)


@settings(max_examples=25, deadline=None)
@given(nonzero_diffops(2), nonzero_diffops(2), multi_term_polys(2))
def test_compose_matches_sequential_apply(a, b, f):
    assert a.compose(b).apply(f) == a.apply(b.apply(f))


@settings(max_examples=30, deadline=None)
@given(nonzero_diffops(2), nonzero_diffops(2))
def test_compose_matches_whole_object_leibniz(a, b):
    # the raw-map composition against one Poly derivative, product and
    # sum per Leibniz split
    assert a.compose(b) == whole_compose(a, b)
    assert b.compose(a) == whole_compose(b, a)


def test_compose_second_order_leibniz_weights():
    # d_q^2 o (q^2 *) = q^2 d_q^2 + 2 (2q) d_q + 2: binom(2, 1) = 2
    q = Poly.coordinate(1, 0)
    composed = DiffOp.derivative(1, MultiIndex.of(0, 0)).compose(DiffOp.multiplication(q * q))
    assert composed == DiffOp(
        1,
        {MultiIndex.of(0, 0): q * q, MultiIndex.unit(0): q.scale(4), EMPTY_INDEX: Poly.const(1, 2)},
    )


def test_compose_drops_a_cancelled_derivative():
    # d_q o (q d_q - 1) = q d_q^2 + (1 - 1) d_q: the two d_q contributions
    # cancel inside one raw map, and the key is dropped
    q = Poly.coordinate(1, 0)
    d = DiffOp.partial(1, 0)
    op = DiffOp(1, {MultiIndex.unit(0): q, EMPTY_INDEX: Poly.const(1, -1)})
    composed = d.compose(op)
    assert composed == DiffOp(1, {MultiIndex.of(0, 0): q})
    assert composed.term_count() == 1
    assert composed == whole_compose(d, op)


@settings(max_examples=15, deadline=None)
@given(nonzero_diffops(2, 2, 2), nonzero_diffops(2, 2, 2), nonzero_diffops(2, 2, 2))
def test_compose_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


# -- coordinate commutators ---------------------------------------------------

def test_canonical_commutator():
    dq = DiffOp.partial(2, 0)
    assert dq.coordinate_commutators() == [DiffOp.identity(2), DiffOp.zero(2)]


def test_half_square_commutator():
    op = DiffOp.derivative(2, MultiIndex.of(0, 0), gr("1/2"))
    assert op.coordinate_commutators() == [DiffOp.partial(2, 0), DiffOp.zero(2)]


def test_multiplication_operators_commute():
    mq = DiffOp.multiplication(Poly.coordinate(2, 0))
    assert all(comm.is_zero() for comm in mq.coordinate_commutators())


@settings(max_examples=25, deadline=None)
@given(nonzero_diffops(2))
def test_commutator_equals_composition_difference(op):
    comms = op.coordinate_commutators()
    for coord in range(2):
        x = DiffOp.multiplication(Poly.coordinate(2, coord))
        assert comms[coord] == op.compose(x) - x.compose(op)


@settings(max_examples=25, deadline=None)
@given(nonzero_diffops(2))
def test_repeated_commutation_terminates(op):
    current = op
    steps = 0
    while not current.is_zero() and steps < 10:
        order_before = current.order
        current = current.coordinate_commutators()[steps % 2]
        steps += 1
        if not current.is_zero():
            assert current.order < order_before or order_before == 0
    # an operator of order m dies after at most m commutations per direction
    assert steps <= 2 * (op.order + 1)


# -- bidifferential operators -------------------------------------------------

def test_bidiff_apply_single_term():
    C = tensor(DiffOp.partial(2, 0), DiffOp.partial(2, 1))
    q = Poly.coordinate(2, 0)
    p = Poly.coordinate(2, 1)
    assert C.apply(q, p) == Poly.const(2, 1)


@settings(max_examples=60, deadline=None)
@given(bidiffops(2), multi_term_polys(2), multi_term_polys(2), polys(2, 0, 2))
def test_bidiff_apply_matches_term_scan(op, f, g, c):
    zero = Poly.zero(2)
    for a, b in ((f, g), (g, f), (f, c), (c, g), (c, c), (f, zero), (zero, g)):
        assert op.apply(a, b) == term_scan_bi_apply(op, a, b)
    # the lazily built index leaves equality and serialization alone
    assert op == BiDiffOp.from_json(op.to_json())


# -- the per-operator derivative memo ---------------------------------------------
#
# An operator memoizes the derivative hits of every operand monomial it
# has met; these tests apply one operator object to many operands that
# share monomials, so most lookups hit a filled memo.

def _sharing_operands(fs):
    """The operands, again in reverse, and two sums of them."""
    return fs + fs[::-1] + [fs[0] + fs[-1], sum(fs, Poly.zero(2))]


@settings(max_examples=80, deadline=None)
@given(multi_term_polys(3), nonzero_diffops(3, 3, 4), bidiffops(3, 3), bidiffops(2))
def test_to_json_matches_the_oracle_byte_for_byte(f, op, bi, bi2):
    assert json.dumps(f.to_json()) == json.dumps(oracle_poly_json(f))
    for obj in (op, bi, bi2):
        assert json.dumps(obj.to_json()) == json.dumps(oracle_operator_json(obj))


@settings(max_examples=30, deadline=None)
@given(nonzero_diffops(2, 3, 4), st.lists(multi_term_polys(2), min_size=2, max_size=3))
def test_one_diffop_many_operands_matches_term_scan(op, fs):
    fresh = DiffOp.from_json(op.to_json())
    for f in _sharing_operands(fs):
        assert op.apply(f) == term_scan_apply(op, f)
    assert op._memo
    assert op == fresh and fresh == op
    assert hash(op) == hash(fresh)
    assert op.to_json() == fresh.to_json()


@settings(max_examples=25, deadline=None)
@given(bidiffops(2), st.lists(multi_term_polys(2), min_size=2, max_size=3))
def test_one_bidiffop_many_operands_matches_term_scan(op, fs):
    fresh = BiDiffOp.from_json(op.to_json())
    operands = _sharing_operands(fs)
    for a, b in itertools.product(operands, repeat=2):
        assert op.apply(a, b) == term_scan_bi_apply(op, a, b)
    assert op == fresh and fresh == op
    assert op.to_json() == fresh.to_json()


def _assert_monomial_kernel(op, pairs):
    """apply_monomials against the term scan on every pair, twice over so
    the second pass reads filled memos, leaving ==, hash and JSON alone."""
    fresh = BiDiffOp.from_json(op.to_json())
    for a, b in pairs + pairs[::-1]:
        got = op.apply_monomials(a, b)
        assert all(got.values())  # no zero coefficient kept
        assert Poly(op.dim, got) == term_scan_bi_apply(
            op, Poly.monomial(op.dim, a), Poly.monomial(op.dim, b)
        )
    assert op == fresh and fresh == op
    assert hash(op) == hash(fresh)
    assert op.to_json() == fresh.to_json()


@settings(max_examples=40, deadline=None)
@given(bidiffops(2, 3), st.lists(st.tuples(multiindices(2, 4), multiindices(2, 4)), min_size=4, max_size=12))
def test_apply_monomials_matches_term_scan(op, pairs):
    _assert_monomial_kernel(op, pairs)


def test_apply_monomials_zero_results_and_cancellation():
    x0 = Poly.coordinate(2, 0)
    d0, d1, one = MultiIndex.unit(0), MultiIndex.unit(1), EMPTY_INDEX
    # x0 (d0 (x) 1 - 1 (x) d0) + d1^2 (x) d1: antisymmetric in the first part
    op = BiDiffOp(2, {(d0, one): x0, (one, d0): -x0, (MultiIndex.of(1, 1), d1): Poly.const(2, 1)})
    a = MultiIndex.of(0, 0)
    assert op.apply_monomials(a, a) == {}  # the two hits cancel
    assert op.apply_monomials(one, a) == {MultiIndex.of(0, 0): gr(-2)}
    assert op.apply_monomials(d1, d1) == {}  # no derivative index divides x1 twice
    pairs = [(a, b) for a in monomials_up_to(2, 3) for b in monomials_up_to(2, 2)]
    _assert_monomial_kernel(op, pairs)


def plain_hits(wanted, a):
    """The hits of x^a among `wanted` by the plain filter: every wanted
    index of degree <= |a| that divides a, in degree order."""
    return tuple(
        (sub, a.subtract(sub), a.falling(sub))
        for sub in sorted(wanted, key=lambda mi: mi.degree)
        if sub.degree <= a.degree and sub.divides(a)
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(multiindices(3, 4), max_size=12, unique=True), multiindices(3, 5))
@example([EMPTY_INDEX, MultiIndex.of(0), MultiIndex.of(1), MultiIndex.of(0, 1)], MultiIndex.of(0, 1))
@example([MultiIndex.of(0), MultiIndex.of(1)], MultiIndex.of(0, 0, 1, 1))
def test_hits_match_the_plain_filter_on_both_sides_of_the_gate(wanted, a):
    want = plain_hits(wanted, a)
    candidates = sum(sub.degree <= a.degree for sub in wanted)
    # a's divisor table is a cache: dropping it leaves the gate to decide
    object.__setattr__(a, "_divs", None)
    assert _Hits(wanted)[a] == want
    assert (a._divs is not None) == (a.divisor_count() <= candidates)
    # with the table made, every lookup reads it
    a.divisors()
    assert _Hits(wanted)[a] == want


def _table_sizes():
    return {
        mi: (len(mi._sums or ()), None if mi._divs is None else len(mi._divs))
        for mi in list(_POOL.values())
    }


def test_tables_stay_bounded_on_a_large_operand(monkeypatch):
    """Parsing forms no index sum through a table, and an operand of
    many monomials gets divisor tables only where one costs no more than
    the candidate list that asked for it."""
    before = _table_sizes()
    parse_phase_poly("(q1+p1+1)^43", 2)
    f = parse_phase_poly("(q1+p1+1)^43", 1)
    assert f.term_count() == 990
    after = _table_sizes()
    assert all(after[mi][0] == sizes[0] for mi, sizes in before.items())
    assert all(after[mi][0] == 0 for mi in after.keys() - before.keys())

    asked = {}
    missing = _Hits.__missing__

    def spy(self, a):
        candidates = bisect_right(self._degrees, a.degree)
        asked[a] = max(asked.get(a, 0), candidates)
        return missing(self, a)

    monkeypatch.setattr(_Hits, "__missing__", spy)
    moyal_product(PoissonTensor.canonical(1), 4).apply(f, parse_phase_poly("p1^4", 1))
    assert len(asked) >= 990
    grown = {mi: divs for mi, (_, divs) in _table_sizes().items() if divs != after.get(mi, (0, None))[1]}
    for mi, divs in grown.items():
        assert divs <= asked.get(mi, 0), (mi, divs)


def test_product_and_morphism_operators_over_a_monomial_basis():
    """Every C_k and T_k of a natural product and its morphism, each one
    object applied to the whole basis (and C_k to every pair)."""
    product = natural_cotangent_product(Connection.one_dim(Poly.coordinate(1, 0)), 4)
    morphism = derive_equivalence(product)
    basis = [Poly.monomial(2, mi) for mi in monomials_up_to(2, 4)]
    mixed = [basis[i] + basis[-1 - i].scale(gr("-2/3", 1)) for i in range(len(basis))]
    for op in morphism.orders:
        fresh = DiffOp.from_json(op.to_json())
        for f in basis + mixed:
            assert op.apply(f) == term_scan_apply(op, f)
        assert op == fresh and hash(op) == hash(fresh) and op.to_json() == fresh.to_json()
    for op in product.C:
        fresh = BiDiffOp.from_json(op.to_json())
        for f in basis + mixed[:4]:
            for g in basis:
                if f.degree + g.degree <= 4:
                    assert op.apply(f, g) == term_scan_bi_apply(op, f, g)
        assert op == fresh and op.to_json() == fresh.to_json()


def test_vanishing_on_constants():
    C = tensor(DiffOp.partial(2, 0), DiffOp.partial(2, 1))
    assert C.vanishes_on_constants()
    g = Poly.coordinate(2, 1) ** 2
    assert C.apply(Poly.const(2, 1), g).is_zero()
    D = BiDiffOp.multiplication(2)
    assert not D.vanishes_on_constants()


def test_coordinate_slots_of_zero():
    assert BiDiffOp.zero(2).coordinate_slots() == [DiffOp.zero(2)] * 2
    assert BiDiffOp.zero(2).coordinate_slots(symmetric=True) == [DiffOp.zero(2)] * 2


def test_coordinate_slots_coefficient_substitution():
    # a term with an empty left slot picks up each coordinate as a factor
    C = BiDiffOp(2, {(EMPTY_INDEX, MultiIndex.unit(1)): Poly.const(2, 1)})
    assert C.coordinate_slots() == [
        DiffOp(2, {MultiIndex.unit(1): Poly.coordinate(2, a)}) for a in range(2)]


@settings(max_examples=25, deadline=None)
@given(nonzero_diffops(2, 2, 2), nonzero_diffops(2, 2, 2), multi_term_polys(2))
def test_coordinate_slots_match_bidiff_apply(a, b, f):
    C = tensor(a, b)
    left, right = C.coordinate_slots(), C.swap().coordinate_slots()
    for coord in range(2):
        x = Poly.coordinate(2, coord)
        assert left[coord].apply(f) == C.apply(x, f)
        assert right[coord].apply(f) == C.apply(f, x)


@settings(max_examples=40, deadline=None)
@given(bidiffops(2, 2, 6), multi_term_polys(2))
def test_symmetric_coordinate_slots_are_the_slots_of_the_symmetric_part(C, f):
    # random operators break the slot-swap parity in general
    sym = C.coordinate_slots(symmetric=True)
    left, right = C.coordinate_slots(), C.swap().coordinate_slots()
    for coord in range(2):
        x = Poly.coordinate(2, coord)
        assert sym[coord] == (left[coord] + right[coord]).scale(HALF)
        assert sym[coord].apply(f) == (C.apply(x, f) + C.apply(f, x)).scale(HALF)


def test_symmetric_coordinate_slots_read_both_slots_of_one_term():
    # at x0: d0 (x) d0 gives d0 through both slots, 1 (x) d1 gives x0 d1
    # through its left slot, d0 (x) 1 gives 1 and x0 d0 through its two;
    # at x1: 1 (x) d1 gives x1 d1 and 1, d0 (x) 1 gives x1 d0
    one = Poly.const(2, 1)
    d0, d1 = MultiIndex.unit(0), MultiIndex.unit(1)
    C = BiDiffOp(2, {(d0, d0): one, (EMPTY_INDEX, d1): one, (d0, EMPTY_INDEX): one})
    x0, x1 = Poly.coordinate(2, 0), Poly.coordinate(2, 1)
    assert C.coordinate_slots(symmetric=True) == [
        DiffOp(2, {d0: one + x0.scale(HALF), d1: x0.scale(HALF), EMPTY_INDEX: one.scale(HALF)}),
        DiffOp(2, {d0: x1.scale(HALF), d1: x1.scale(HALF), EMPTY_INDEX: one.scale(HALF)}),
    ]


def test_swap_round_trip():
    C = tensor(
        DiffOp(2, {MultiIndex.of(0): Poly.coordinate(2, 1)}), DiffOp.partial(2, 1)
    )
    assert C.swap().swap() == C


# -- equality ------------------------------------------------------------------

def test_structural_equality_of_leibniz_identity():
    # q d_q  ==  d_q o (q .) - id
    q = Poly.coordinate(2, 0)
    lhs = DiffOp(2, {MultiIndex.unit(0): q})
    rhs = DiffOp.partial(2, 0).compose(DiffOp.multiplication(q)) - DiffOp.identity(2)
    assert lhs == rhs
    assert DiffOp.partial(2, 0) != DiffOp.partial(2, 1)


# -- order guard -----------------------------------------------------------------

def test_order_guard():
    assert MAX_OP_ORDER == 12
    with pytest.raises(OperatorOrderExceeded):
        DiffOp.derivative(1, MultiIndex({0: 13}))
    DiffOp.derivative(1, MultiIndex({0: 12}))


def test_jet_rank_guard():
    from starq.geometry import Connection, covariant_jet_ops, lift_connection, symmetric_jet_ops
    from starq.products import PoissonTensor, VectorFieldFrame, vector_field_product

    lifted = lift_connection(Connection.one_dim(Poly.coordinate(1, 0)))
    with pytest.raises(OperatorOrderExceeded):
        covariant_jet_ops(lifted, 13)
    with pytest.raises(OperatorOrderExceeded):
        symmetric_jet_ops(lifted, 13)
    # a frame's jets come from the same recursion: rank 13 at order 13
    with pytest.raises(OperatorOrderExceeded):
        vector_field_product(VectorFieldFrame.coordinate(2), PoissonTensor.canonical(1), 13)


def test_values_are_immutable():
    q = Poly.coordinate(2, 0)
    with pytest.raises(AttributeError):
        q.dim = 3
    op = DiffOp.partial(2, 0)
    with pytest.raises(AttributeError):
        op.dim = 3
    mi = MultiIndex.of(0)
    with pytest.raises(AttributeError):
        mi._pairs = ()


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        DiffOp.partial(2, 0).apply(Poly.coordinate(3, 0))
    with pytest.raises(DimensionMismatch):
        DiffOp.partial(2, 0).compose(DiffOp.partial(3, 0))


# -- serialization ------------------------------------------------------------------

def test_diffop_json_round_trip():
    op = DiffOp(
        2,
        {
            MultiIndex.of(0, 1, 1): Poly.coordinate(2, 1).scale(gr("1/3", "5/7")),
            EMPTY_INDEX: Poly.const(2, gr(0, "-2/9")),
        },
    )
    assert DiffOp.from_json(op.to_json()) == op


def test_bidiffop_json_round_trip():
    op = BiDiffOp(
        2,
        {
            (MultiIndex.of(0), MultiIndex.of(1, 1)): Poly.coordinate(2, 0).scale(
                gr("-7/11")
            ),
        },
    )
    assert BiDiffOp.from_json(op.to_json()) == op


# -- the shared normal form ------------------------------------------------------------
#
# DiffOp and BiDiffOp share one constructor, arithmetic and JSON codec;
# each case puts the index under test into one slot of a key.

NORMAL_FORM_SLOTS = [
    (DiffOp, lambda mi: mi, ("derivative",)),
    (BiDiffOp, lambda mi: (mi, MultiIndex.of(1)), ("left", "right")),
    (BiDiffOp, lambda mi: (MultiIndex.of(1), mi), ("left", "right")),
]


@pytest.mark.parametrize(
    "cls, key, fields", NORMAL_FORM_SLOTS, ids=["diff", "bidiff-left", "bidiff-right"]
)
def test_shared_normal_form_constructor(cls, key, fields):
    q = Poly.coordinate(2, 0)
    with pytest.raises(DimensionMismatch, match="coefficient dim 3 != operator dim 2"):
        cls(2, {key(MultiIndex.of(0)): Poly.coordinate(3, 0)})
    with pytest.raises(DimensionMismatch, match="out of range for dim 2"):
        cls(2, {key(MultiIndex.of(0, 2)): q})
    with pytest.raises(OperatorOrderExceeded, match="order 13 exceeds guard 12"):
        cls(2, {key(MultiIndex({0: 7, 1: 6})): q})
    assert cls(2, {key(MultiIndex({0: 6, 1: 6})): q}).term_count() == 1

    op = cls(
        2,
        {
            key(MultiIndex.of(0, 1)): q.scale(gr("1/3", -2)),
            key(EMPTY_INDEX): Poly.zero(2),
            key(MultiIndex.of(1, 1)): Poly.const(2, 5),
        },
    )
    assert op.term_count() == 2  # the zero coefficient is pruned
    data = op.to_json()
    assert [list(entry) for entry in data["terms"]] == [[*fields, "coefficient"]] * 2
    fresh = cls.from_json(data)
    assert fresh == op and hash(fresh) == hash(op) and fresh.to_json() == data
    assert op - fresh == cls.zero(2) and op + op == op.scale(2) and -op == op.scale(-1)
    with pytest.raises(ValueError, match="duplicate derivative index"):
        cls.from_json(dict(data, terms=data["terms"] + data["terms"][:1]))
    for name in ("dim", "_terms", "_memo"):
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(op, name, None)


@pytest.mark.parametrize(
    "cls, key, fields", NORMAL_FORM_SLOTS, ids=["diff", "bidiff-left", "bidiff-right"]
)
def test_copy_and_pickle_rebuild_without_memos(cls, key, fields):
    q = Poly.coordinate(2, 0)
    op = cls(2, {key(MultiIndex.of(0, 1)): q.scale(gr("2/3", 1)), key(EMPTY_INDEX): q})
    if cls is DiffOp:
        op.apply(q ** 2)
    else:
        op.apply(q ** 2, q)
    assert op._memo is not None
    for twin in (copy.copy(op), copy.deepcopy(op), pickle.loads(pickle.dumps(op))):
        assert type(twin) is cls and twin == op and twin.to_json() == op.to_json()
        assert twin._memo is None


# -- the morphism as an operator series ------------------------------------------

def test_operator_series_identity_head():
    with pytest.raises(OrderMismatch):
        EquivalenceMorphism([], "recursion")
    with pytest.raises(InvalidArgument):
        EquivalenceMorphism([DiffOp.zero(2)], "recursion")
    with pytest.raises(DimensionMismatch):
        EquivalenceMorphism([DiffOp.identity(2), DiffOp.partial(3, 0)], "recursion")
    series = EquivalenceMorphism([DiffOp.identity(2), DiffOp.partial(2, 0)], "recursion")
    assert series.dim == 2 and series.order == 1
    assert series.operator(1) == DiffOp.partial(2, 0)
    f = Poly.coordinate(2, 0) ** 2
    out = series.apply(f)
    assert out[0] == f
    assert out[1] == f.diff_coord(0)
