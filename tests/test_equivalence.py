import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from starq import equivalence
from starq.cli import build_product, parse_spec
from starq.errors import (
    CanonicityFailure,
    DimensionMismatch,
    FamilyKeepsConstants,
    IncompatibleFamily,
    InvalidArgument,
    OrderMismatch,
    StarqError,
)
from starq.geometry import (
    Connection,
    SymplecticConnectionSpec,
    flat_connection_from_diffeo,
    ricci,
)
from starq.operators import BiDiffOp, DiffOp
from starq.poly import EMPTY_INDEX, MultiIndex, Poly
from starq.scalars import GaussianRational, gr
from starq.series import HbarSeries
from starq.products import (
    PoissonTensor,
    StarProduct,
    _MoyalPairs,
    _PairTable,
    check_axioms,
    monomials_up_to,
    moyal_product,
    natural_cotangent_product,
    truncated_symplectic_product,
    vector_field_product,
)
from starq.equivalence import (
    EquivalenceMorphism,
    commutator_solution_direct,
    commutator_solution_nested,
    coordinate_rhs,
    derive_equivalence,
    flat_cotangent_morphism,
    flat_cotangent_order2,
    flat_cotangent_order4,
    operator_diff_report,
    symmetrized_star_power,
    symplectic_order2,
    verify_intertwining,
)

from helpers import (
    canonical_poisson_entries,
    index_loop_order2,
    merged_scalar_json,
    n3_triangular_connection,
    nontriangular_n2_connection,
    oracle_morphism_json,
    random_nontriangular_map,
    parity_reduced_rhs,
    rearrangement_loop_order4,
    term_scan_verify_intertwining,
    whole_moyal_operators,
)
from test_geometry import random_flat_connection
from test_products import (
    DEMOS,
    MOYAL_TENSOR_IDS,
    MOYAL_TENSORS,
    bumped_morphism,
    corrupted,
    momentum_shear_frame,
)


def gamma_q():
    return Connection.one_dim(Poly.coordinate(1, 0))


def gamma_one_plus_q2():
    return Connection.one_dim(Poly.const(1, 1) + Poly.coordinate(1, 0) ** 2)


def n2_connection(rich=False):
    x0, x1 = (Poly.coordinate(2, j) for j in range(2))
    target = x1 + x0 * x0
    if rich:
        target = target + x0 * x0 * x0
    return flat_connection_from_diffeo([x0, target])


@pytest.fixture(scope="module")
def natural_q_product():
    return natural_cotangent_product(gamma_q(), 4)


@pytest.fixture(scope="module")
def natural_q_morphism(natural_q_product):
    return derive_equivalence(natural_q_product)


# -- solvers on explicit families ----------------------------------------------

def test_solvers_on_zero_family():
    zeros = [DiffOp.zero(2), DiffOp.zero(2)]
    assert commutator_solution_direct(zeros).is_zero()
    assert commutator_solution_nested(zeros).is_zero()


def test_solvers_on_single_direction_family():
    # family: first coordinate gets d_0, the rest zero -> (1/2) d_0^2
    family = [DiffOp.partial(2, 0), DiffOp.zero(2)]
    expect = DiffOp.derivative(2, MultiIndex.of(0, 0), gr("1/2"))
    assert commutator_solution_direct(family) == expect
    assert commutator_solution_nested(family) == expect


def test_formula_value_on_poisson_family_is_zero_but_unsolvable():
    # family F^alpha = P^(alpha beta) d_beta: the direct formula collapses
    # to zero by antisymmetry, and no actual solution exists
    family = [DiffOp.partial(2, 1), DiffOp.partial(2, 0).scale(-1)]
    with pytest.raises(IncompatibleFamily):
        commutator_solution_direct(family)
    assert commutator_solution_nested(family).is_zero()


def test_incompatible_family_reports_coordinate():
    family = [DiffOp.partial(2, 1), DiffOp.zero(2)]
    with pytest.raises(IncompatibleFamily) as err:
        commutator_solution_direct(family)
    assert err.value.coordinate in (0, 1)


def test_family_must_kill_constants():
    family = [DiffOp.identity(2), DiffOp.zero(2)]
    with pytest.raises(FamilyKeepsConstants) as err:
        commutator_solution_direct(family)
    assert isinstance(err.value, StarqError) and err.value.coordinate == 0
    assert str(err.value) == "operator for coordinate 0 does not kill constants"


def test_solution_normalization():
    # the family of T = x0 d0 d1^2 + x1^2 d0^2: the solution is T again,
    # starts at derivative order 2, and so kills 1 and coordinates
    x0, x1 = Poly.coordinate(2, 0), Poly.coordinate(2, 1)
    op = DiffOp(2, {MultiIndex.of(0, 1, 1): x0, MultiIndex.of(0, 0): x1 * x1})
    family = op.coordinate_commutators()
    sol = commutator_solution_direct(family)
    assert sol == op
    one = Poly.const(2, 1)
    assert sol.apply(one).is_zero()
    for alpha in range(2):
        assert sol.apply(Poly.coordinate(2, alpha)).is_zero()


def test_solvers_agree_on_derivation_families(natural_q_product):
    s = natural_q_product
    ops = [DiffOp.identity(2)]
    for k in (1, 2, 3, 4):
        family = coordinate_rhs(s, ops, k)
        if all(f.is_zero() for f in family):
            ops.append(DiffOp.zero(2))
            continue
        direct = commutator_solution_direct(family)
        nested = commutator_solution_nested(family)
        assert direct == nested
        # defining relations hold
        assert direct.coordinate_commutators() == family
        ops.append(direct)


@pytest.mark.parametrize(
    "name", [spec.stem for spec in sorted(DEMOS.glob("*.json"))] + ["n3-tri", "nontri"]
)
def test_solvers_agree_on_every_rhs(name):
    # derive runs the direct solver only; the nested expansion, the
    # paper's construction, must give the same operator on every
    # right-hand side the derivation meets
    connections = {"n3-tri": n3_triangular_connection, "nontri": nontriangular_n2_connection}
    if name in connections:
        s = natural_cotangent_product(connections[name](), 4)
    else:
        s = build_product(parse_spec(json.loads((DEMOS / f"{name}.json").read_text())))
    ops = derive_equivalence(s).orders
    for k in range(1, s.order + 1):
        family = coordinate_rhs(s, ops, k)
        assert commutator_solution_direct(family) == ops[k]
        assert commutator_solution_nested(family) == ops[k]


def test_derive_rejects_a_rhs_with_no_common_solution(natural_q_product, monkeypatch):
    # bump F^0 at order 2 by x1 d1: the change B of the solution would
    # need [B, x1] = 0, so no d1 in B, and then [B, x0] has no d1 either;
    # only the exact commutator check catches it
    real = equivalence._coordinate_rhs
    bump = DiffOp(2, {MultiIndex.unit(1): Poly.coordinate(2, 1)})

    def corrupted(d, slots, lower, k):
        family = real(d, slots, lower, k)
        return [family[0] + bump] + family[1:] if k == 2 else family

    monkeypatch.setattr("starq.equivalence._coordinate_rhs", corrupted)
    with pytest.raises(IncompatibleFamily) as err:
        derive_equivalence(natural_q_product)
    assert err.value.coordinate == 0
    assert str(err.value) == "order 2: no solution for coordinate index 0"


def test_derive_fixes_each_slot_once(monkeypatch):
    # the slots of every coordinate are read in one pass over each C_l,
    # l >= 1, and the canonicity check only looks up keys: no operator
    # builds its application index, and no pair table is made
    s = natural_cotangent_product(gamma_q(), 4)
    reads = []
    real = BiDiffOp.coordinate_slots

    def counted(op, symmetric=False):
        reads.append((id(op), symmetric))
        return real(op, symmetric)

    monkeypatch.setattr(BiDiffOp, "coordinate_slots", counted)
    derive_equivalence(s)
    assert reads == [(id(op), True) for op in s.C[1:]]
    assert s._table is None and all(op._memo is None for op in s.C)


# -- recurrence right-hand side -----------------------------------------------

def test_rhs_order1_is_symmetrized_first_operator(natural_q_product):
    s = natural_q_product
    family = coordinate_rhs(s, [DiffOp.identity(2)], 1)
    left, right = s.C[1].coordinate_slots(), s.C[1].swap().coordinate_slots()
    for alpha in range(2):
        assert family[alpha] == (left[alpha] + right[alpha]).scale(gr("1/2"))
        # parity products have antisymmetric order-1 operators
        assert family[alpha].is_zero()


def test_rhs_requires_lower_orders(natural_q_product):
    with pytest.raises(OrderMismatch):
        coordinate_rhs(natural_q_product, [], 1)


def test_parity_reduced_rhs_matches_general(natural_q_product):
    # the one formula reduces to the paper's parity sum by itself: zero at
    # odd orders, the one-sided sum over even l at even orders
    symplectic = json.loads((DEMOS / "symplectic_truncated.json").read_text())
    products = {
        "natural-q": natural_q_product,
        "n3-tri": natural_cotangent_product(n3_triangular_connection(), 4),
        "nontri": natural_cotangent_product(nontriangular_n2_connection(), 4),
        "symplectic": build_product(parse_spec(symplectic)),
    }
    for name, s in products.items():
        ops = derive_equivalence(s).orders
        for k in range(1, s.order + 1):
            general = coordinate_rhs(s, ops[:k], k)
            if k % 2:
                assert all(f.is_zero() for f in general), (name, k)
            else:
                assert general == parity_reduced_rhs(s, ops[:k], k), (name, k)


def test_rhs_kills_constants(natural_q_product):
    s = natural_q_product
    morphism = derive_equivalence(s)
    ops = [morphism.operator(k) for k in range(5)]
    for k in (2, 4):
        for f in coordinate_rhs(s, ops[:k], k):
            assert f.annihilates_constants()


# -- derivations ------------------------------------------------------------------

def test_moyal_derives_identity():
    M = moyal_product(PoissonTensor.canonical(1), 4)
    morphism = derive_equivalence(M)
    assert all(morphism.operator(k).is_zero() for k in range(1, 5))
    M2 = moyal_product(PoissonTensor.canonical(2, 1), 3)
    morphism = derive_equivalence(M2)
    assert all(morphism.operator(k).is_zero() for k in range(1, 4))


def test_constant_symbol_order2_frozen_values():
    # symbol c: order-2 term (c/8) d_q d_p^2 + (c^2/8) d_p^2 + (c^2/12) p d_p^3
    c = 3
    conn = Connection.one_dim(Poly.const(1, c))
    morphism = derive_equivalence(natural_cotangent_product(conn, 2))
    d = 2
    expect = DiffOp(
        d,
        {
            MultiIndex.of(0, 1, 1): Poly.const(d, Fraction(c, 8)),
            MultiIndex.of(1, 1): Poly.const(d, Fraction(c * c, 8)),
            MultiIndex.of(1, 1, 1): Poly.coordinate(d, 1).scale(Fraction(c * c, 12)),
        },
    )
    assert morphism.operator(2) == expect


def test_parity_products_have_zero_odd_orders(natural_q_morphism):
    assert natural_q_morphism.operator(1).is_zero()
    assert natural_q_morphism.operator(3).is_zero()


def test_derived_operators_kill_constants_and_coordinates(natural_q_morphism):
    one = Poly.const(2, 1)
    for k in range(1, 5):
        op = natural_q_morphism.operator(k)
        assert op.apply(one).is_zero()
        for alpha in range(2):
            assert op.apply(Poly.coordinate(2, alpha)).is_zero()


def test_defining_relation_for_derived_orders(natural_q_product, natural_q_morphism):
    ops = [natural_q_morphism.operator(k) for k in range(5)]
    for k in range(1, 5):
        family = coordinate_rhs(natural_q_product, ops[:k], k)
        assert ops[k].coordinate_commutators() == family


def test_non_canonical_product_rejected():
    M = moyal_product(PoissonTensor.canonical(1), 4)
    bump = BiDiffOp(2, {(MultiIndex.unit(0), MultiIndex.unit(1)): Poly.const(2, 1)})
    C = list(M.C)
    C[2] = C[2] + (bump - bump.swap())
    bad = StarProduct(M.poisson, C)
    with pytest.raises(CanonicityFailure):
        derive_equivalence(bad)


def test_derive_for_momentum_shear_frame():
    frame = momentum_shear_frame()
    prod = vector_field_product(frame, PoissonTensor.canonical(1), 4)
    morphism = derive_equivalence(prod)
    assert morphism.operator(1).is_zero()
    assert not morphism.operator(2).is_zero()
    assert verify_intertwining(morphism, prod, 4).passed


# -- uniqueness via symmetrized star powers ------------------------------------------

def test_symmetrized_power_single_coordinate(natural_q_product):
    out = symmetrized_star_power(natural_q_product, [0])
    assert out == HbarSeries.from_constant(Poly.coordinate(2, 0), 4)


def test_symmetrized_power_moyal_pair():
    M = moyal_product(PoissonTensor.canonical(1), 4)
    out = symmetrized_star_power(M, [0, 1])
    qp = Poly.coordinate(2, 0) * Poly.coordinate(2, 1)
    assert out == HbarSeries.from_constant(qp, 4)


def test_symmetrized_power_matches_applied_morphism(
    natural_q_product, natural_q_morphism
):
    for mi in monomials_up_to(2, 4):
        mono = Poly.monomial(2, mi)
        assert natural_q_morphism.apply(mono) == symmetrized_star_power(
            natural_q_product, list(mi.coords())
        ), str(mono)


# -- intertwining ----------------------------------------------------------------------

def test_identity_morphism_intertwines_moyal():
    M = moyal_product(PoissonTensor.canonical(1), 4)
    ident = EquivalenceMorphism([DiffOp.identity(2)] + [DiffOp.zero(2)] * 4, "recursion")
    assert verify_intertwining(ident, M, 4).passed


def test_derived_morphism_intertwines(natural_q_product, natural_q_morphism):
    report = verify_intertwining(natural_q_morphism, natural_q_product, 4)
    assert report.passed


def test_perturbed_morphism_fails_with_location(natural_q_product, natural_q_morphism):
    orders = list(natural_q_morphism.orders)
    orders[2] = orders[2] + DiffOp.derivative(2, MultiIndex.of(1, 1), gr("1/7"))
    bad = EquivalenceMorphism(orders, "recursion")
    report = verify_intertwining(bad, natural_q_product, 4)
    assert not report.passed
    failing = [e for e in report.entries if not e.passed]
    assert any("first failure" in e.detail for e in failing)


# T_2 + (1/7) d^2/dx1^2 kills coordinates; T_4 + d/dx0 does not, so only
# it tells the bare coordinate x *_s T(f) of the coordinate slots from
# T(x) *_s T(f)
@pytest.mark.parametrize(
    "bump",
    [None, (2, MultiIndex.of(1, 1), gr("1/7")), (4, MultiIndex.of(0), gr(1))],
    ids=["derived", "T2-bumped", "T4-d0-bumped"],
)
def test_verify_intertwining_matches_term_scan(natural_q_product, natural_q_morphism, bump):
    morphism = natural_q_morphism if bump is None else bumped_morphism(natural_q_morphism, *bump)
    report = verify_intertwining(morphism, natural_q_product, 4)
    assert report.passed == (bump is None)
    oracle = term_scan_verify_intertwining(morphism, natural_q_product, 4)
    assert report.to_json() == oracle.to_json()


def _asymmetric_moyal():
    """Moyal with d0^2 (x) d1 added at order 2, which breaks swap parity,
    and the identity morphism."""
    moyal = moyal_product(PoissonTensor.canonical(1), 4)
    C = list(moyal.C)
    C[2] = C[2] + BiDiffOp(2, {(MultiIndex.of(0, 0), MultiIndex.of(1)): Poly.const(2, 1)})
    return StarProduct(moyal.poisson, C), derive_equivalence(moyal)


# With swap parity and every odd T_k zero, verify_intertwining evaluates
# only the pairs (f, g) with g not before f in the basis (1, x1, x0, ...)
# and only x *_s T(f) of each coordinate slot.  Each case names the first
# failure of the full enumeration: an even bump failing off the diagonal
# and on it; an odd T_3 bump; an odd bump whose first failing pair has g
# before f (its mirror passes); a product without parity whose first
# failures are f *_s x and a pair with g before f.
@pytest.mark.parametrize(
    "case, bumps, pair, slot",
    [
        ("natural", [(2, (0, 1), gr("1/7"))], "(x1, x0) at order 2: residual 1/7", None),
        ("natural", [(4, (1, 1), gr("1/7"))], "(x1, x1) at order 4: residual 2/7", None),
        ("natural", [(3, (1, 1), gr("1/7"))], "(x1, x1) at order 3: residual 2/7", None),
        ("natural", [(3, (0,), 0), (4, (0, 1), gr(0, "-1/2"))], "(x0, x1) at order 4: residual -i",
         "coordinate 0 on 1 at order 3: residual x0"),
        ("asymmetric", [], "(x0^2, x1) at order 2: residual -2", "x0^2 on coordinate 1 at order 2"),
    ],
    ids=["T2-off-diagonal", "T4-diagonal", "T3-odd", "T3-odd-g-before-f", "no-parity"],
)
def test_verify_intertwining_mirror_reduction_matches_term_scan(
    natural_q_product, natural_q_morphism, case, bumps, pair, slot
):
    if case == "natural":
        product, morphism = natural_q_product, natural_q_morphism
    else:
        product, morphism = _asymmetric_moyal()
    orders = list(morphism.orders)
    for order, index, coeff in bumps:
        bump = Poly.coordinate(2, coeff) if isinstance(coeff, int) else Poly.const(2, coeff)
        orders[order] = orders[order] + DiffOp(2, {MultiIndex.of(*index): bump})
    bad = EquivalenceMorphism(orders, "recursion")
    report = verify_intertwining(bad, product, 3)
    slots, pairs = report.entries
    assert pairs.detail == f"35 pairs checked; first failure: {pair}"
    assert slots.detail.startswith("40 one-sided products checked")
    if slot is not None:
        assert f"first failure: {slot}" in slots.detail
    assert report.to_json() == term_scan_verify_intertwining(bad, product, 3).to_json()


# C_2 bumped by d0^2 (x) d1^2, alone or with its mirror d1^2 (x) d0^2: no
# coordinate sees it, so the coordinate entry passes and the pairs with a
# factor of degree 1 are skipped; from D = 4 the pair entry first fails on
# a pair of two degree-2 monomials, at order 2 or, through T, above it
# (D = 5 on the n2 demo is left out: its term scan takes 8 s a case)
@pytest.mark.parametrize("mirror", [False, True], ids=["alone", "mirrored"])
@pytest.mark.parametrize("name, degree", [
    (name, degree) for name in ("natural_cotangent", "vector_field", "moyal") for degree in (3, 4, 5)
] + [("natural_cotangent_n2", 3), ("natural_cotangent_n2", 4)])
def test_pair_only_fault_matches_term_scan(name, degree, mirror):
    product = build_product(parse_spec(json.loads((DEMOS / f"{name}.json").read_text())))
    morphism = derive_equivalence(product)
    d = product.dim
    left, right = MultiIndex.of(0, 0), MultiIndex.of(1, 1)
    terms = {(left, right): Poly.const(d, 1)}
    if mirror:
        terms[(right, left)] = Poly.const(d, 1)
    C = list(product.C)
    C[2] = C[2] + BiDiffOp(d, terms)
    bumped = StarProduct(product.poisson, C)
    report = verify_intertwining(morphism, bumped, degree)
    slots, pairs = report.entries
    assert slots.passed and pairs.passed == (degree < 4)
    if degree >= 4:
        pair = re.search(r"first failure: \((\S+), (\S+)\)", pairs.detail).groups()
        assert [sum(int(e or 1) for e in re.findall(r"x\d+(?:\^(\d+))?", m)) for m in pair] == [2, 2]
    assert report.to_json() == term_scan_verify_intertwining(morphism, bumped, degree).to_json()


def _record_reference_pairs(monkeypatch):
    """The set of (f, g) fed to the closed-form Moyal reference, which
    verify_intertwining reads once per product it evaluates."""
    requested = set()
    pair = _MoyalPairs.pair

    def recording(table, a, b):
        requested.add((a, b))
        return pair(table, a, b)

    monkeypatch.setattr(_MoyalPairs, "pair", recording)
    return requested


# d/dx0 is a derivation of the Moyal product, so 1 + hbar^k d/dx0 with
# 2k > 4 intertwines the order-4 Moyal product with itself on every pair;
# only the coordinate slots fail, on their first product, since d/dx0 does
# not kill x0.  T(1) = 1 and Moyal is unital, so no pair with f = 1 or
# g = 1 is evaluated.  The mirror reduction needs every odd T_k zero: a
# lone T_3 bump must turn it off, a lone T_4 bump must leave it on.
@pytest.mark.parametrize("order, mirrored", [(3, False), (4, True)], ids=["T3-odd", "T4-even"])
def test_verify_intertwining_gate_reads_the_odd_orders(monkeypatch, order, mirrored):
    moyal = moyal_product(PoissonTensor.canonical(1), 4)
    morphism = bumped_morphism(derive_equivalence(moyal), order, MultiIndex.of(0), gr(1))
    requested = _record_reference_pairs(monkeypatch)
    degree = 3
    slots, pairs = verify_intertwining(morphism, moyal, degree).entries
    assert slots.detail.endswith(f"first failure: coordinate 0 on 1 at order {order}: residual 1")
    assert pairs.passed and pairs.detail == "35 pairs checked"
    x0, x1 = MultiIndex.unit(0), MultiIndex.unit(1)
    mirror_pairs = {
        (x1, x1), (x1, x0), (x1, MultiIndex.of(1, 1)), (x1, MultiIndex.of(0, 1)),
        (x1, MultiIndex.of(0, 0)), (x0, x0), (x0, MultiIndex.of(1, 1)),
        (x0, MultiIndex.of(0, 1)), (x0, MultiIndex.of(0, 0)),
    }
    evaluated = mirror_pairs if mirrored else mirror_pairs | {(g, f) for f, g in mirror_pairs}
    assert len(evaluated) == (9 if mirrored else 16)
    assert requested == evaluated | {(x0, EMPTY_INDEX)}


def _scaled_moyal(c):
    """T = 1 + hbar^2 c, c a constant, carries Moyal to the product
    (1 - hbar^2 c + hbar^4 c^2) f *_Moyal g at order 4: T(1) != 1 and C_2
    does not kill constants, yet every monomial pair passes."""
    moyal = moyal_product(PoissonTensor.canonical(1), 4)
    unit = BiDiffOp.multiplication(2)
    C = list(moyal.C)
    C[2] = C[2] - unit.scale(c)
    C[3] = C[3] - moyal.C[1].scale(c)
    C[4] = C[4] - moyal.C[2].scale(c) + unit.scale(c * c)
    morphism = EquivalenceMorphism(
        [DiffOp.identity(2), DiffOp.zero(2), DiffOp.identity(2).scale(c), DiffOp.zero(2), DiffOp.zero(2)],
        "recursion",
    )
    return StarProduct(moyal.poisson, C), morphism


# With 1 not the unit of s and T(1) != 1 the unit reduction is off: every
# pair the mirror reduction keeps, those with f = 1 included, is evaluated
def test_verify_intertwining_visits_unit_pairs_when_the_gate_is_off(monkeypatch):
    s, morphism = _scaled_moyal(gr("1/3"))
    requested = _record_reference_pairs(monkeypatch)
    degree = 3
    report = verify_intertwining(morphism, s, degree)
    slots, pairs = report.entries
    # x *_s T(1) = x while T(x *_Moyal 1) = x + hbar^2 c x
    assert slots.detail.endswith("first failure: coordinate 0 on 1 at order 2: residual 1/3*x0")
    assert pairs.passed and pairs.detail == "35 pairs checked"
    basis = monomials_up_to(2, degree)
    evaluated = {(f, g) for i, f in enumerate(basis) for g in basis[i:] if f.degree + g.degree <= degree}
    assert len(evaluated) == 19 and (EMPTY_INDEX, EMPTY_INDEX) in evaluated
    assert requested == evaluated | {(MultiIndex.unit(0), EMPTY_INDEX)}
    monkeypatch.undo()
    assert report.to_json() == term_scan_verify_intertwining(morphism, s, degree).to_json()


# The pairs with f = 1 or g = 1 are skipped only when 1 is the unit of s
# and T(1) = 1.  A unit fault 2/3 d^l (x) d^r of s at an order k >= 1
# (under the morphism derived before the fault), or 2/3 added to T_2,
# turns that off, and each first fails on a pair with a constant factor,
# by -2/3 at order k: on Moyal and on the natural product alike.
@pytest.mark.parametrize(
    "left, right, k, pair",
    [(left, right, k, pair)
     for left, right, pair in (((0, 0), (0, 1), "(1, x1)"), ((1, 0), (0, 0), "(x0, 1)"),
                               ((0, 0), (0, 0), "(1, 1)"))
     for k in range(1, 5)] + [(None, None, 2, "(1, 1)")],
    ids=[f"{name}-o{k}" for name in ("1-d1", "d0-1", "1-1") for k in range(1, 5)] + ["T2-constant"],
)
def test_verify_intertwining_unit_faults_match_term_scan(
    natural_q_product, natural_q_morphism, left, right, k, pair
):
    moyal = moyal_product(PoissonTensor.canonical(1), 4)
    for product, morphism in ((moyal, derive_equivalence(moyal)),
                              (natural_q_product, natural_q_morphism)):
        if left is None:
            morphism = bumped_morphism(morphism, k, EMPTY_INDEX, gr("2/3"))
        else:
            product = corrupted(product, MultiIndex.from_exponents(left),
                                MultiIndex.from_exponents(right), order=k, coeff=Poly.const(2, gr("2/3")))
        report = verify_intertwining(morphism, product, 3)
        assert report.entries[1].detail == (
            f"35 pairs checked; first failure: {pair} at order {k}: residual -2/3")
        assert report.to_json() == term_scan_verify_intertwining(morphism, product, 3).to_json()


@pytest.mark.parametrize("bump", [None, (4, MultiIndex.of(0), gr(1))], ids=["derived", "T4-d0-bumped"])
def test_verify_intertwining_at_degree_zero(natural_q_product, natural_q_morphism, bump):
    # the basis is {1}: only x *_s 1, 1 *_s x and 1 *_s 1 are checked
    morphism = natural_q_morphism if bump is None else bumped_morphism(natural_q_morphism, *bump)
    report = verify_intertwining(morphism, natural_q_product, 0)
    assert report.to_json() == term_scan_verify_intertwining(morphism, natural_q_product, 0).to_json()
    slots, pairs = report.entries
    assert slots.detail.startswith("4 one-sided products checked")
    assert pairs.detail == "1 pairs checked"
    if bump is None:
        assert report.passed
    else:
        assert slots.detail.endswith("first failure: coordinate 0 on 1 at order 4: residual 1")


@pytest.mark.parametrize("order", [-2, -1, 5])
def test_derive_rejects_an_order_outside_the_product(order):
    product = moyal_product(PoissonTensor.canonical(1), 4)
    with pytest.raises(OrderMismatch, match=f"derive order {order} is outside 0..4"):
        derive_equivalence(product, order)


def test_derive_reaches_both_ends_of_the_product_orders():
    product = moyal_product(PoissonTensor.canonical(1), 4)
    assert derive_equivalence(product, 0) == EquivalenceMorphism([DiffOp.identity(2)], "recursion")
    assert derive_equivalence(product, 4).order == 4


# The closed-form Moyal pairs equal, entry for entry, the pairs of the
# Moyal product paired from partial-derivative jets (not the library
# builder, which reads the same walk as the closed form)
@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("poisson", [PoissonTensor.canonical(1), *MOYAL_TENSORS],
                         ids=["canonical-1", *MOYAL_TENSOR_IDS])
def test_closed_form_moyal_pairs_match_the_built_product(poisson, order):
    oracle = _PairTable(StarProduct(poisson, whole_moyal_operators(poisson, order)))
    closed = _MoyalPairs(poisson, order)
    basis = monomials_up_to(poisson.dim, 4)
    for u in basis:
        for v in basis:
            got = closed.pair(u, v)
            keyed = {(l, m): c for l, m, c in got}
            assert len(keyed) == len(got) and all(c for _, _, c in got)
            assert keyed == {(l, m): c for l, m, c in oracle.pair(u, v)}, (u, v)


# Each library entry point meets a degenerate input with a StarqError
# subclass where the input is made, not with a bare ValueError or a
# passing report over an empty basis
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: check_axioms(moyal_product(PoissonTensor.canonical(1), 2), -1), InvalidArgument),
        (lambda: verify_intertwining(
            EquivalenceMorphism([DiffOp.identity(2)] * 3, "recursion"),
            moyal_product(PoissonTensor.canonical(1), 2), -1), InvalidArgument),
        (lambda: EquivalenceMorphism([], "recursion"), OrderMismatch),
        (lambda: EquivalenceMorphism([DiffOp.zero(2)], "recursion"), InvalidArgument),
        (lambda: commutator_solution_nested([]), DimensionMismatch),
        (lambda: commutator_solution_direct([]), DimensionMismatch),
        (lambda: StarProduct(PoissonTensor.canonical(1), []), OrderMismatch),
        (lambda: moyal_product(PoissonTensor.canonical(1), 2).truncate(-2), OrderMismatch),
        (lambda: Connection(-1), DimensionMismatch),
        (lambda: SymplecticConnectionSpec(-1, {}), DimensionMismatch),
        (lambda: Connection(2, {(0, 0, 1): Poly.const(2, 1)}), InvalidArgument),
        (lambda: PoissonTensor(1, 0, {(0, 1): Poly.coordinate(2, 0),
                                      (1, 0): -Poly.coordinate(2, 0)}), InvalidArgument),
        (lambda: PoissonTensor(1, 0, {(0, 1): Poly.const(2, 1)}), InvalidArgument),
        (lambda: flat_connection_from_diffeo([]), DimensionMismatch),
        (lambda: flat_connection_from_diffeo([Poly.coordinate(2, 0) + Poly.coordinate(2, 1)] * 2),
         InvalidArgument),
        (lambda: flat_connection_from_diffeo([Poly.coordinate(1, 0) + Poly.coordinate(1, 0) ** 2]),
         InvalidArgument),
        (lambda: SymplecticConnectionSpec(1, {(0, 0, 1): Poly.const(2, 1)}), InvalidArgument),
        (lambda: SymplecticConnectionSpec.from_symmetric_components(
            1, {(0, 0, 1): Poly.const(2, 1), (0, 1, 0): Poly.const(2, 2)}), InvalidArgument),
        (lambda: flat_cotangent_order4(Connection.zero(1), "cycles"), InvalidArgument),
        (lambda: coordinate_rhs(moyal_product(PoissonTensor.canonical(1), 2), [], 1),
         OrderMismatch),
    ],
    ids=["check-axioms-degree", "intertwining-degree", "morphism-empty", "morphism-head",
         "nested-empty", "direct-empty", "product-empty", "truncate-negative", "connection-dim",
         "symplectic-dim", "connection-asymmetric", "poisson-nonconstant", "poisson-asymmetric",
         "diffeo-empty", "diffeo-det-zero", "diffeo-det-nonconstant", "symplectic-asymmetric",
         "symplectic-conflict", "order4-mode", "rhs-lower-orders"],
)
def test_entry_points_reject_bad_input(call, error):
    with pytest.raises(error):
        call()


def test_verify_intertwining_rejects_order_mismatch(natural_q_product, natural_q_morphism):
    short = EquivalenceMorphism(natural_q_morphism.orders[:3], "recursion")
    with pytest.raises(OrderMismatch):
        verify_intertwining(short, natural_q_product, 2)
    with pytest.raises(OrderMismatch):
        verify_intertwining(natural_q_morphism, natural_q_product.truncate(2), 2)
    assert verify_intertwining(short, natural_q_product.truncate(2), 2).passed


@pytest.mark.parametrize(
    "order, index, coeff, pair, residual",
    [
        # T_k + c d^I breaks the order-k relation by c (d^I(fg) - d^I f g - f d^I g)
        (2, MultiIndex.of(1, 1), gr("1/7"), "(x1, x1)", "2/7"),
        (2, MultiIndex.of(1, 1), Poly.coordinate(2, 0).scale(gr("1/7")), "(x1, x1)", "2/7*x0"),
        (3, MultiIndex.of(0, 0, 0), gr(0, "1/5"), "(x0, x0^2)", "(6/5*i)"),
    ],
)
def test_intertwining_failure_names_order_and_residual(
    natural_q_product, natural_q_morphism, order, index, coeff, pair, residual
):
    orders = list(natural_q_morphism.orders)
    bump = coeff if isinstance(coeff, Poly) else Poly.const(2, coeff)
    orders[order] = orders[order] + DiffOp(2, {index: bump})
    bad = EquivalenceMorphism(orders, "recursion")
    report = verify_intertwining(bad, natural_q_product, 3)
    pairs = next(e for e in report.entries if e.name == "monomial-pairs")
    assert not pairs.passed
    assert pairs.detail.endswith(
        f"first failure: {pair} at order {order}: residual {residual}"
    )
    slots = next(e for e in report.entries if e.name == "coordinate-slots")
    assert f"at order {order}: residual" in slots.detail


# -- closed forms: flat cotangent ----------------------------------------------------------

def test_closed_forms_vanish_for_zero_connection():
    conn = Connection.zero(2)
    assert flat_cotangent_order2(conn).is_zero()
    assert flat_cotangent_order4(conn).is_zero()


def test_order2_closed_form_constant_symbol():
    conn = Connection.one_dim(Poly.const(1, 3))
    derived = derive_equivalence(natural_cotangent_product(conn, 2)).operator(2)
    assert flat_cotangent_order2(conn) == derived


@pytest.mark.parametrize(
    "conn_factory",
    [gamma_q, gamma_one_plus_q2, n2_connection, lambda: n2_connection(rich=True)],
    ids=["gamma=q", "gamma=1+q2", "n2-quadratic", "n2-cubic"],
)
def test_order2_table_matches_derivation(conn_factory):
    conn = conn_factory()
    morphism = derive_equivalence(natural_cotangent_product(conn, 2))
    assert morphism.operator(2) == flat_cotangent_order2(conn)


@pytest.mark.parametrize(
    "conn_factory",
    [gamma_q, gamma_one_plus_q2, n2_connection, nontriangular_n2_connection],
    ids=["gamma=q", "gamma=1+q2", "n2-quadratic", "n2-nontriangular"],
)
def test_order4_table_matches_derivation_under_permutation_reading(conn_factory):
    conn = conn_factory()
    morphism = derive_equivalence(natural_cotangent_product(conn, 4))
    derived = morphism.operator(4)
    closed = flat_cotangent_order4(conn, "permutations")
    assert derived == closed, operator_diff_report(derived, closed)


def test_order4_rotation_reading_differs_by_per_tensor_factorials():
    # contracting with the symmetric derivative slots turns each
    # rearrangement sum into a scalar count, so the two readings differ
    # per tensor by (r-1)!; spot-check one coefficient family
    conn = gamma_q()
    rot = flat_cotangent_order4(conn, "rotations")
    perm = flat_cotangent_order4(conn, "permutations")
    assert rot != perm
    # the d_q^2 d_p^4 family has four summed indices: ratio 3! = 6
    key = MultiIndex.of(0, 0, 1, 1, 1, 1)
    assert perm.coefficient(key) == rot.coefficient(key).scale(6)


def demo_n2_connection():
    data = json.loads((DEMOS / "natural_cotangent_n2.json").read_text())
    return parse_spec(data).geometry


def diffeo_n2_connection():
    # cubic and quartic terms give a quadratic symbol, unlike the demo's
    x0, x1 = (Poly.coordinate(2, j) for j in range(2))
    return flat_connection_from_diffeo([x0, x1 + (x0 ** 2).scale(2) - x0 ** 3 + x0 ** 4])


def gamma_cubic():
    # every symbol derivative up to rank 3 is nonzero, so every term of
    # both closed-form tables contributes
    q = Poly.coordinate(1, 0)
    return Connection.one_dim(Poly.const(1, 1) + q + q ** 2 + q ** 3)


def random_cubic_n2_connection():
    conn = random_flat_connection(2, random.Random(2), cubic=True)
    assert not conn.is_zero()
    return conn


def random_nontriangular_connection(n, seed):
    return flat_connection_from_diffeo(random_nontriangular_map(n, random.Random(seed)))


@pytest.mark.parametrize("cycl_mode", ["permutations", "rotations"])
@pytest.mark.parametrize(
    "conn_factory",
    [gamma_q, gamma_cubic, demo_n2_connection, diffeo_n2_connection,
     nontriangular_n2_connection, random_cubic_n2_connection,
     lambda: random_nontriangular_connection(2, 0), lambda: random_nontriangular_connection(2, 1)],
    ids=["gamma=q", "gamma=cubic", "demo-n2", "n2-diffeo-quartic", "n2-nontriangular",
         "random-flat-n2", "random-nontriangular-n2-seed0", "random-nontriangular-n2-seed1"],
)
def test_order4_multiset_sum_matches_rearrangement_loop(conn_factory, cycl_mode):
    # the term tables summed over ordered index assignments with weight
    # k!/k, against the nested loops that re-add every rearrangement per tuple
    conn = conn_factory()
    closed = flat_cotangent_order4(conn, cycl_mode)
    reference = rearrangement_loop_order4(conn, cycl_mode)
    assert closed == reference, operator_diff_report(closed, reference)
    closed, reference = flat_cotangent_order2(conn), index_loop_order2(conn)
    assert closed == reference, operator_diff_report(closed, reference)


def test_order2_closed_form_matches_index_loop_on_a_nontriangular_n3_draw():
    # order 4 is left out at n = 3: on the seed-2 draw the order-4 closed
    # form alone took 51 s (2-vCPU VM, CPython 3.11)
    conn = random_nontriangular_connection(3, 0)
    closed, reference = flat_cotangent_order2(conn), index_loop_order2(conn)
    assert closed == reference, operator_diff_report(closed, reference)


def test_closed_forms_match_derivation_at_n3():
    conn = n3_triangular_connection()
    morphism = derive_equivalence(natural_cotangent_product(conn, 4))
    for k, closed in ((2, flat_cotangent_order2(conn)), (4, flat_cotangent_order4(conn))):
        assert morphism.operator(k) == closed, operator_diff_report(morphism.operator(k), closed)


def test_order4_closed_form_equals_slot_composition_route(natural_q_morphism):
    # independent of the tables: order-4 of the recursion is reproducible
    # from the paper's even-order reduced recurrence alone
    conn = gamma_q()
    s = natural_cotangent_product(conn, 4)
    ops = [DiffOp.identity(2), DiffOp.zero(2)]
    f2 = parity_reduced_rhs(s, ops, 2)
    t2 = commutator_solution_direct(f2)
    ops += [t2, DiffOp.zero(2)]
    f4 = parity_reduced_rhs(s, ops, 4)
    t4 = commutator_solution_direct(f4)
    assert t2 == natural_q_morphism.operator(2)
    assert t4 == natural_q_morphism.operator(4)


# -- closed form: symplectic order 2 ----------------------------------------------------------

def _random_spec(n, rng, a=GaussianRational(0), deg=2):
    d = 2 * n
    comps = {}
    for key in itertools.combinations_with_replacement(range(d), 3):
        terms = {}
        for mi in monomials_up_to(d, deg):
            v = rng.randint(-2, 2)
            if v:
                terms[mi] = GaussianRational(Fraction(v, rng.randint(1, 3)))
        comps[key] = Poly(d, terms)
    return SymplecticConnectionSpec.from_symmetric_components(n, comps, a)


def test_symplectic_order2_zero_spec():
    assert symplectic_order2(SymplecticConnectionSpec(1, {})).is_zero()


def test_symplectic_order2_ricci_weight_difference():
    rng = random.Random(19)
    base = _random_spec(1, rng)
    a1, a2 = GaussianRational(1), GaussianRational(Fraction(-3, 7))
    s1 = symplectic_order2(
        SymplecticConnectionSpec(1, dict(base._lowered), a1)
    )
    s2 = symplectic_order2(
        SymplecticConnectionSpec(1, dict(base._lowered), a2)
    )
    diff = s1 - s2
    # (1/16)(a1 - a2) R_(alpha beta) with raised derivative slots
    d = 2
    ric = ricci(base)
    entries = canonical_poisson_entries(1)
    acc = {}
    w = GaussianRational(Fraction(1, 16)) * (a1 - a2)
    for (al, b1), v1 in entries.items():
        for (be, b2), v2 in entries.items():
            comp = ric.get((al, be))
            if comp is None:
                continue
            key = MultiIndex.of(b1, b2)
            add = comp.scale(w * v1 * v2)
            acc[key] = acc.get(key, Poly.zero(d)) + add
    expect = DiffOp(d, acc)
    assert diff == expect


def test_symplectic_order2_commutator_identity_random():
    rng = random.Random(29)
    for trial in range(3):
        for a in (GaussianRational(0), GaussianRational(1), GaussianRational(Fraction(-3, 7))):
            spec = _random_spec(1, rng, a)
            prod = truncated_symplectic_product(spec)
            closed = symplectic_order2(spec)
            assert closed.coordinate_commutators() == prod.C[2].coordinate_slots()


def test_symplectic_order2_matches_derivation():
    rng = random.Random(37)
    spec = _random_spec(1, rng, GaussianRational(Fraction(5, 3)))
    prod = truncated_symplectic_product(spec)
    morphism = derive_equivalence(prod)
    assert morphism.operator(2) == symplectic_order2(spec)
    assert morphism.operator(1).is_zero()


def test_closed_form_morphism_matches_recursion(natural_q_product, natural_q_morphism):
    closed = flat_cotangent_morphism(gamma_q())
    assert closed.provenance == "closed-form" and closed.order == 4
    assert closed == natural_q_morphism
    assert verify_intertwining(closed, natural_q_product, 3).passed


# -- serialization / reports --------------------------------------------------------------------

def test_morphism_json_shape(natural_q_morphism):
    data = natural_q_morphism.to_json()
    assert data["provenance"] == "recursion"
    assert data["term_counts"][0] == 1
    assert len(data["operators"]) == 4
    restored = DiffOp.from_json(data["operators"][1])
    assert restored == natural_q_morphism.operator(2)


@pytest.mark.parametrize(
    "name", ["moyal", "vector_field", "natural_cotangent", "natural_cotangent_n2",
             "symplectic_truncated"],
)
def test_morphism_json_matches_the_oracle_byte_for_byte(name):
    spec = parse_spec(json.loads((DEMOS / f"{name}.json").read_text()))
    morphism = derive_equivalence(build_product(spec), spec.order)
    assert json.dumps(morphism.to_json()) == json.dumps(oracle_morphism_json(morphism))


def _same_json(obj):
    """`to_json` equals the writer that merges each term's scalar JSON, as
    objects, as written bytes and as the CLI writes them (sorted keys)."""
    data, merged = obj.to_json(), merged_scalar_json(obj)
    assert data == merged
    assert json.dumps(data) == json.dumps(merged)
    assert json.dumps(data, sort_keys=True) == json.dumps(merged, sort_keys=True)


@pytest.mark.parametrize(
    "name", ["moyal", "vector_field", "natural_cotangent", "natural_cotangent_n2",
             "symplectic_truncated"],
)
def test_json_writes_each_scalar_as_its_own_to_json(name):
    spec = parse_spec(json.loads((DEMOS / f"{name}.json").read_text()))
    product = build_product(spec)
    _same_json(product)
    _same_json(derive_equivalence(product, spec.order))


def test_json_writes_non_integral_complex_scalars_as_their_own_to_json(natural_q_morphism):
    # one table serves a whole product or morphism, so (2/3 + i) is
    # written once and read back for its every term
    q, p = (Poly.coordinate(2, j) for j in range(2))
    bump = q.scale(gr("2/3", 1)) + p * p + Poly.const(2, gr("2/3", 1))
    moyal = moyal_product(PoissonTensor.canonical(1), 4)
    _same_json(corrupted(moyal, MultiIndex.unit(0), MultiIndex.of(0, 1), coeff=bump))
    _same_json(corrupted(moyal, EMPTY_INDEX, MultiIndex.unit(1), order=3, coeff=bump.scale(gr("-1/6"))))
    _same_json(bumped_morphism(natural_q_morphism, 2, MultiIndex.of(0, 1), gr("2/3", 1)))


def test_closed_form_morphism_json_matches_the_oracle():
    morphism = flat_cotangent_morphism(gamma_one_plus_q2())
    assert json.dumps(morphism.to_json()) == json.dumps(oracle_morphism_json(morphism))


def test_operator_diff_report_locates_terms():
    a = DiffOp.derivative(2, MultiIndex.of(0, 1), gr(1))
    b = DiffOp.derivative(2, MultiIndex.of(0, 1), gr(2))
    diff = operator_diff_report(a, b)
    assert len(diff) == 1
    assert diff[0]["derivative"] == [1, 1]
