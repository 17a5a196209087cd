import copy
import itertools
import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

import starq.products as products
from starq.cli import build_product, parse_spec
from starq.errors import (
    CanonicityFailure,
    DimensionMismatch,
    InvalidArgument,
    InvalidFrame,
    NonFlatConnection,
    OperatorOrderExceeded,
    OrderMismatch,
    StarqError,
)
from starq.exprparse import parse_phase_poly
from starq.equivalence import (
    EquivalenceMorphism,
    derive_equivalence,
    flat_cotangent_order2,
    flat_cotangent_order4,
    symplectic_order2,
    verify_intertwining,
)
from starq.geometry import (
    Connection,
    SymplecticConnectionSpec,
    flat_connection_from_diffeo,
    lift_connection,
)
from starq.operators import MAX_OP_ORDER, BiDiffOp, DiffOp
from starq.poly import EMPTY_INDEX, MultiIndex, Poly
from starq.scalars import HALF, GaussianRational, gr
from starq.series import HbarSeries
from starq.products import (
    PoissonTensor,
    StarProduct,
    _bracket,
    _pairing_product,
    VectorFieldFrame,
    check_axioms,
    monomials_up_to,
    moyal_product,
    natural_cotangent_product,
    quantum_canonicity_check,
    star_bracket,
    swap_parity,
    truncated_symplectic_product,
    unital,
    vector_field_product,
)

from helpers import (
    canonical_poisson_entries,
    chart_mismatches,
    closed_form_slot_ops,
    cotangent_chart,
    det2_n2_map,
    inverse_jacobian,
    moyal_oracle,
    multiset_weight,
    n3_triangular_connection,
    n3_triangular_map,
    nontriangular_n2_connection,
    nontriangular_n2_map,
    oracle_operator_json,
    oracle_product_json,
    ordered_pairing_operators,
    ordered_ricci_term,
    phase_symbols,
    poisson_bracket_oracle,
    poly_to_sympy,
    random_nontriangular_map,
    random_triangular_map,
    recursive_monomials_up_to,
    sympy_to_poly,
    term_scan_check_axioms,
    term_scan_star,
    whole_compose,
    whole_covariant_jet_ops,
    whole_moyal_operators,
    whole_natural_operators,
    whole_pairing_operators,
    whole_symplectic_operators,
    whole_vector_field_operators,
)
from test_cli import FIXTURES


DEMOS = Path(__file__).parent.parent / "demos" / "specs"


def coords(d):
    return [Poly.coordinate(d, j) for j in range(d)]


@pytest.fixture(scope="module")
def moyal_n1():
    return moyal_product(PoissonTensor.canonical(1), 4)


@pytest.fixture(scope="module")
def natural_q():
    return natural_cotangent_product(Connection.one_dim(Poly.coordinate(1, 0)), 4)


def corrupted(product, left, right, antisym=False, order=2, coeff=None):
    """Fault-injection helper: add coeff (default 1) d^left (x) d^right to
    one operator (order 2 by default)."""
    d = product.dim
    bump = BiDiffOp(d, {(left, right): Poly.const(d, 1) if coeff is None else coeff})
    if antisym:
        bump = bump - bump.swap()
    C = list(product.C)
    C[order] = C[order] + bump
    return StarProduct(product.poisson, C)


# -- Poisson tensor -------------------------------------------------------------

def test_canonical_block_form():
    p = PoissonTensor.canonical(2, 1)
    assert p.dim == 5
    assert p.entry(0, 2) == Poly.const(5, 1)
    assert p.entry(2, 0) == Poly.const(5, -1)
    assert p.entry(0, 4).is_zero()
    assert p.entry(4, 4).is_zero()
    # every entry against the block written by hand
    for n, casimir in ((0, 1), (1, 0), (2, 1), (3, 2)):
        p = PoissonTensor.canonical(n, casimir)
        d = 2 * n + casimir
        assert p.dim == d
        written = {key: p.entry(*key) for key in itertools.product(range(d), repeat=2)}
        assert {key: e for key, e in written.items() if not e.is_zero()} == {
            key: Poly.const(d, v) for key, v in canonical_poisson_entries(n).items()}


@pytest.mark.parametrize(
    "make",
    [
        lambda: PoissonTensor(-1, 0, {}),
        lambda: PoissonTensor(1, -2, {}),
        lambda: PoissonTensor(0, 0, {}),
        lambda: PoissonTensor.canonical(0),
        lambda: PoissonTensor.canonical(-1, 3),
        lambda: PoissonTensor.canonical(1, -3),
    ],
    ids=["negative-n", "negative-casimir", "empty", "canonical-empty",
         "canonical-negative-n", "canonical-negative-casimir"],
)
def test_tensor_rejects_a_degenerate_dimension(make):
    with pytest.raises(DimensionMismatch):
        make()


def test_casimir_only_tensor_is_a_phase_space():
    # one null direction: nothing is paired, and every morphism order is 0
    p = PoissonTensor.canonical(0, 1)
    assert (p.dim, p.constant_entries(), p._paired, p._partner) == (1, (), (), {})
    zero = DiffOp.zero(1)
    assert derive_equivalence(moyal_product(p, 2)) == EquivalenceMorphism(
        [DiffOp.identity(1), zero, zero], "recursion")


def test_canonical_structure_leaves_the_casimirs_unpaired():
    # q1 q2 p1 p2 c1 c2: each q pairs with its p, the Casimirs with nothing
    p = PoissonTensor.canonical(2, 2)
    one, minus = gr(1), gr(-1)
    assert p.constant_entries() == ((0, 2, one), (1, 3, one), (2, 0, minus), (3, 1, minus))
    assert p._paired == (0, 1, 2, 3)
    assert p._partner == {0: (2, one), 1: (3, one), 2: (0, minus), 3: (1, minus)}


def test_rescaled_block_keeps_its_entries_as_partner_factors():
    p = constant_tensor(2, 0, {(0, 2): gr("3/2"), (1, 3): gr("3/2")})
    half3, minus = gr("3/2"), gr("-3/2")
    assert p._partner == {0: (2, half3), 1: (3, half3), 2: (0, minus), 3: (1, minus)}


def test_several_partners_give_no_partner_map():
    for p in (NON_CANONICAL_D3, NON_CANONICAL_D4):
        assert p._partner is None
        assert p._paired == tuple(range(p.dim))


def test_tensor_copy_and_pickle_keep_the_structure():
    for p in (PoissonTensor.canonical(2, 2), NON_CANONICAL_D4):
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p
            assert twin.constant_entries() == p.constant_entries()
            assert (twin._paired, twin._partner) == (p._paired, p._partner)


def test_tensor_structure_is_read_only():
    p = PoissonTensor.canonical(1)
    assert isinstance(p.constant_entries(), tuple)
    for name in ("dim", "_scalars", "_paired", "_partner", "extra"):
        with pytest.raises(AttributeError, match="PoissonTensor is immutable"):
            setattr(p, name, None)


def test_classical_bracket_matches_oracle():
    n = 2
    p = PoissonTensor.canonical(n)
    syms = phase_symbols(n)
    d = 2 * n
    q1, q2, p1, p2 = coords(d)
    f = q1 * q1 * p2 + q2 * p1
    g = p1 * p2 + q1
    expect = poisson_bracket_oracle(
        poly_to_sympy(f, syms), poly_to_sympy(g, syms), syms, n
    )
    assert p.bracket(f, g) == sympy_to_poly(expect, syms, d)


# -- Moyal ------------------------------------------------------------------------

def test_moyal_coordinate_products(moyal_n1):
    q, p = coords(2)
    res = moyal_n1.apply(q, p)
    assert res[0] == q * p
    assert res[1] == Poly.const(2, gr(0, "1/2"))
    assert all(res[k].is_zero() for k in range(2, 5))


def test_moyal_unit(moyal_n1):
    q, p = coords(2)
    f = q * q * p + p
    one = Poly.const(2, 1)
    assert moyal_n1.apply(f, one) == HbarSeries.from_constant(f, 4)
    assert moyal_n1.apply(one, f) == HbarSeries.from_constant(f, 4)


def test_moyal_squares_hand_expansion(moyal_n1):
    q, p = coords(2)
    res = moyal_n1.apply(q * q, p * p)
    assert res[0] == q * q * p * p
    assert res[1] == (q * p).scale(gr(0, 2))
    assert res[2] == Poly.const(2, gr("-1/2"))
    assert res[3].is_zero() and res[4].is_zero()


def test_moyal_matches_sympy_oracle():
    n = 1
    M = moyal_product(PoissonTensor.canonical(n), 4)
    syms = phase_symbols(n)
    d = 2
    rng = random.Random(2)
    basis = monomials_up_to(d, 3)
    for _ in range(4):
        f = Poly.zero(d)
        g = Poly.zero(d)
        for mi in basis:
            if rng.random() < 0.3:
                f = f + Poly.monomial(d, mi, gr(rng.randint(-2, 2)))
            if rng.random() < 0.3:
                g = g + Poly.monomial(d, mi, gr(rng.randint(-2, 2)))
        expect = moyal_oracle(poly_to_sympy(f, syms), poly_to_sympy(g, syms), syms, n, 4)
        got = M.apply(f, g)
        for k in range(5):
            assert got[k] == sympy_to_poly(expect[k], syms, d), f"order {k}"


def test_moyal_parity_structural(moyal_n1):
    for k in range(5):
        assert moyal_n1.C[k].swap() == moyal_n1.C[k].scale(gr((-1) ** k))


def test_moyal_casimir_inert():
    M = moyal_product(PoissonTensor.canonical(1, 1), 3)
    d = 3
    q, p, c = coords(d)
    res = M.apply(q * c, p)
    assert res[0] == q * c * p
    assert res[1] == c.scale(gr(0, "1/2"))
    res = M.apply(c, p)
    assert res == HbarSeries.from_constant(c * p, 3)


def test_moyal_requires_constant_tensor():
    # quantum canonical coordinates have a constant tensor, so the
    # constructor rejects any other before a product can be built
    d = 2
    q = Poly.coordinate(d, 0)
    entries = {(0, 1): q, (1, 0): -q}
    with pytest.raises(InvalidArgument, match="must be constant"):
        PoissonTensor(1, 0, entries)


# -- coordinate slots of products ----------------------------------------------------

def test_moyal_coordinate_slots(moyal_n1):
    assert moyal_n1.C[1].coordinate_slots() == [
        DiffOp.derivative(2, MultiIndex.unit(1), gr(0, "1/2")),
        DiffOp.derivative(2, MultiIndex.unit(0), gr(0, "-1/2")),
    ]


def test_axiom_v_via_slots(moyal_n1, natural_q):
    one = Poly.const(2, 1)
    g = Poly.coordinate(2, 0) ** 2 * Poly.coordinate(2, 1)
    for s in (moyal_n1, natural_q):
        for k in range(1, 5):
            assert s.C[k].apply(one, g).is_zero()
            assert s.C[k].apply(g, one).is_zero()


def test_axiom_iii_on_coordinates(moyal_n1):
    q, p = coords(2)
    c1_antisym = moyal_n1.C[1].apply(q, p) - moyal_n1.C[1].apply(p, q)
    assert c1_antisym == Poly.const(2, gr(0, 1))  # i * {q, p}


# -- vector-field products -------------------------------------------------------------

def test_coordinate_frame_reproduces_moyal():
    # the non-canonical tensors pair a coordinate with more than one
    # partner, so their frame jets are the compositions of the fields
    for p, order in ((PoissonTensor.canonical(1), 3), (PoissonTensor.canonical(2), 3),
                     (PoissonTensor.canonical(1, 1), 3), (NON_CANONICAL_D3, 6),
                     (NON_CANONICAL_D4, 5)):
        frame = VectorFieldFrame.coordinate(p.dim)
        assert vector_field_product(frame, p, order) == moyal_product(p, order)


def test_non_commuting_frame_rejected():
    d = 2
    q = Poly.coordinate(d, 0)
    frame = VectorFieldFrame.from_components(
        [[Poly.const(d, 1), Poly.zero(d)], [q, Poly.const(d, 1)]]
    )
    with pytest.raises(InvalidFrame):
        vector_field_product(frame, PoissonTensor.canonical(1), 2)


def test_frame_not_reproducing_tensor_rejected():
    d = 2
    two = Poly.const(d, 2)
    frame = VectorFieldFrame.from_components(
        [[two, Poly.zero(d)], [Poly.zero(d), Poly.const(d, 1)]]
    )
    with pytest.raises(InvalidFrame):
        vector_field_product(frame, PoissonTensor.canonical(1), 2)


def test_rescaled_coordinate_frame_passes_validation():
    d = 2
    frame = VectorFieldFrame.from_components(
        [
            [Poly.const(d, 1), Poly.zero(d)],
            [Poly.zero(d), Poly.const(d, 1)],
        ]
    )
    frame.validate(PoissonTensor.canonical(1))


def momentum_shear_frame():
    """D_1 = d_q, D_2 = p^2 d_q + d_p: commuting, tensor-reproducing."""
    d = 2
    p = Poly.coordinate(d, 1)
    return VectorFieldFrame.from_components(
        [
            [Poly.const(d, 1), Poly.zero(d)],
            [p * p, Poly.const(d, 1)],
        ]
    )


# pushes the coordinate fields forward by (q, p) -> (q + p^2, p), then by
# (q, p) -> (q, p + q^2): no field is a coordinate field
NONTRIANGULAR_FRAME = [["1", "2*q1"], ["2*p1 - 2*q1^2", "4*p1*q1 - 4*q1^3 + 1"]]


def frame_from_strings(rows, n):
    return VectorFieldFrame.from_components([[parse_phase_poly(e, n) for e in row] for row in rows])


def cubic_frame(n, phi):
    """d_q_i, d_p_i + sum_j (d^2 phi / dp_i dp_j) d_q_j for a cubic phi(p),
    the shape of the benchmark's frames."""
    d = 2 * n
    phi = parse_phase_poly(phi, n)
    rows = [[Poly.const(d, 1) if a == mu else Poly.zero(d) for a in range(d)] for mu in range(d)]
    for i in range(n, d):
        for j in range(n):
            rows[i][j] = phi.diff(MultiIndex.of(i, n + j))
    return VectorFieldFrame.from_components(rows)


def shear_frame(poisson, c, g):
    """d_mu for mu != c, and d_c + g sum_a P^(a c) d_a for a polynomial g of
    x_c alone: the fields commute and reproduce any constant tensor."""
    d = poisson.dim
    rows = [[Poly.const(d, 1) if a == mu else Poly.zero(d) for a in range(d)] for mu in range(d)]
    for a in range(d):
        rows[c][a] = rows[c][a] + poisson.entry(a, c) * g
    return VectorFieldFrame.from_components(rows)


def test_momentum_shear_frame_product_is_canonical():
    frame = momentum_shear_frame()
    prod = vector_field_product(frame, PoissonTensor.canonical(1), 4)
    assert prod != moyal_product(PoissonTensor.canonical(1), 4)
    assert quantum_canonicity_check(prod).passed
    assert check_axioms(prod, 5).passed


def first_noncommuting_pair(frame):
    """The first (mu, nu) whose fields' two compositions differ, or None:
    the oracle for the bracket check of `VectorFieldFrame.validate`."""
    for mu in range(frame.dim):
        for nu in range(mu + 1, frame.dim):
            a, b = frame.fields[mu], frame.fields[nu]
            if a.compose(b) != b.compose(a):
                return mu, nu
    return None


def _sheared_coordinate_frame(d, field, extra):
    """The coordinate frame with `extra` (a row of components) added to
    one field: the fields stop commuting unless `extra` is constant along
    the other fields."""
    rows = [[Poly.const(d, 1) if a == mu else Poly.zero(d) for a in range(d)] for mu in range(d)]
    rows[field] = [r + e for r, e in zip(rows[field], extra)]
    return VectorFieldFrame.from_components(rows)


@pytest.mark.parametrize("build", [
    lambda: (VectorFieldFrame.coordinate(4), PoissonTensor.canonical(2)),
    lambda: (momentum_shear_frame(), PoissonTensor.canonical(1)),
    lambda: (frame_from_strings(NONTRIANGULAR_FRAME, 1), PoissonTensor.canonical(1)),
    lambda: (cubic_frame(2, "p1^3 + 2*p1^2*p2 - 3*p2^3"), PoissonTensor.canonical(2)),
    lambda: (shear_frame(NON_CANONICAL_D4, 1, Poly.coordinate(4, 1) ** 2), NON_CANONICAL_D4),
    lambda: (VectorFieldFrame.from_components([[Poly.const(2, 1), Poly.zero(2)],
                                               [Poly.coordinate(2, 0), Poly.const(2, 1)]]),
             PoissonTensor.canonical(1)),
    # field 1 gains x2 d_0: [e_1, e_2] = -d_0, the first failing pair (1, 2)
    lambda: (_sheared_coordinate_frame(4, 1, [Poly.coordinate(4, 2)] + [Poly.zero(4)] * 3),
             PoissonTensor.canonical(2)),
    # field 2 gains x0^2 d_3: [e_0, e_2] = 2 x0 d_3, the first failing pair (0, 2),
    # seen only in the last component
    lambda: (_sheared_coordinate_frame(4, 2, [Poly.zero(4)] * 3 + [Poly.coordinate(4, 0) ** 2]),
             PoissonTensor.canonical(2)),
], ids=["coordinate", "momentum-shear", "nontriangular", "cubic", "shear-d4", "q-shear",
        "x2-shear", "last-component-shear"])
def test_frame_bracket_check_matches_composition(build):
    frame, poisson = build()
    expected = first_noncommuting_pair(frame)
    try:
        frame.validate(poisson)
        verdict = None
    except InvalidFrame as exc:
        verdict = str(exc)
    if expected is None:
        assert verdict is None or "do not commute" not in verdict
    else:
        assert verdict == f"fields {expected[0]} and {expected[1]} do not commute"


# -- natural cotangent product ---------------------------------------------------------

def test_natural_zero_connection_is_moyal():
    assert natural_cotangent_product(Connection.zero(1), 4) == moyal_product(
        PoissonTensor.canonical(1), 4
    )
    assert natural_cotangent_product(Connection.zero(2), 3) == moyal_product(
        PoissonTensor.canonical(2), 3
    )


def test_natural_rejects_curved_base():
    curved = Connection(2, {(0, 0, 0): Poly.coordinate(2, 1)})
    with pytest.raises(NonFlatConnection):
        natural_cotangent_product(curved, 2)


def test_closed_form_rejects_curved_base():
    curved = Connection(2, {(0, 0, 0): Poly.coordinate(2, 1)})
    with pytest.raises(NonFlatConnection):
        closed_form_slot_ops(curved, 2)


def test_natural_coordinate_slots_match_closed_form(natural_q):
    conn = Connection.one_dim(Poly.coordinate(1, 0))
    for k in range(5):
        ops = closed_form_slot_ops(conn, k)
        assert [ops[alpha] for alpha in range(2)] == natural_q.C[k].coordinate_slots(), k


def test_natural_slots_closed_form_n2():
    x0, x1 = (Poly.coordinate(2, j) for j in range(2))
    conn = flat_connection_from_diffeo([x0, x1 + x0 * x0 + x0 * x0 * x0])
    prod = natural_cotangent_product(conn, 3)
    for k in range(4):
        ops = closed_form_slot_ops(conn, k)
        assert [ops[alpha] for alpha in range(4)] == prod.C[k].coordinate_slots(), k


# -- the natural product is Moyal in the flat chart ----------------------------------------


def _demo_n2_map():
    """(q1, q2 + q1^2 + q1^3), the map whose pull-back is the connection of
    demos/specs/natural_cotangent_n2.json."""
    q1, q2 = Poly.coordinate(2, 0), Poly.coordinate(2, 1)
    return [q1, q2 + q1 ** 2 + q1 ** 3]


def _demo_n2_chart_case():
    phi = _demo_n2_map()
    conn = parse_spec(json.loads((DEMOS / "natural_cotangent_n2.json").read_text())).geometry
    assert conn == flat_connection_from_diffeo(phi)
    return phi, conn, 8


def _random_chart_case(seed):
    phi = random_triangular_map(2, random.Random(seed), cubic=True)
    return phi, flat_connection_from_diffeo(phi), 6


def _chart(phi):
    return cotangent_chart(phi, inverse_jacobian(phi))


@pytest.mark.parametrize(
    "case",
    [
        _demo_n2_chart_case,
        lambda: (n3_triangular_map(), n3_triangular_connection(), 6),
        lambda: (nontriangular_n2_map(), nontriangular_n2_connection(), 8),
        lambda: _random_chart_case(2),
        lambda: _random_chart_case(6),
    ],
    ids=["n2-demo-o8", "n3-triangular-o6", "nontriangular-o8", "random-n2-cubic-seed2-o6",
         "random-n2-cubic-seed6-o6"],
)
def test_natural_product_is_moyal_in_the_flat_chart(case):
    # C_k(Phi*u, Phi*v) == Phi*(M_k(u, v)) at every order, on every monomial
    # pair of total degree <= 3
    phi, conn, order = case()
    assert chart_mismatches(natural_cotangent_product(conn, order), _chart(phi), 3) == []


@pytest.mark.parametrize(
    "make_map",
    [lambda seed=seed: random_nontriangular_map(2, random.Random(seed)) for seed in range(3)]
    + [det2_n2_map],
    ids=["nontriangular-seed0", "nontriangular-seed1", "nontriangular-seed2", "det2"],
)
def test_closed_forms_and_chart_on_drawn_maps(make_map):
    # maps that are not triangular, where the trace terms of the closed
    # forms contribute, and one whose Jacobian determinant is 2
    phi = make_map()
    conn = flat_connection_from_diffeo(phi)
    product = natural_cotangent_product(conn, 4)
    morphism = derive_equivalence(product)
    assert morphism.operator(2) == flat_cotangent_order2(conn)
    assert morphism.operator(4) == flat_cotangent_order4(conn, "permutations")
    assert chart_mismatches(product, _chart(phi), 3) == []


def test_chart_oracle_catches_a_bump_on_c3():
    # d_q0 (x) d_p0^2 needs a linear u and a v quadratic in the momenta, so
    # total degree 2 cannot see it and degree 3 sees it on 4 x 3 pairs
    product = natural_cotangent_product(nontriangular_n2_connection(), 4)
    C = list(product.C)
    C[3] = C[3] + BiDiffOp(4, {(MultiIndex.unit(0), MultiIndex.of(2, 2)): Poly.const(4, 1)})
    bumped = StarProduct(product.poisson, C)
    chart = _chart(nontriangular_n2_map())
    assert chart_mismatches(bumped, chart, 2) == []
    mismatches = chart_mismatches(bumped, chart, 3)
    assert len(mismatches) == 12 and {k for k, _, _ in mismatches} == {3}


def test_chart_oracle_rejects_the_untransposed_inverse():
    # momenta Dphi^-1 p in place of Dphi^-T p: the chart is not symplectic
    phi = nontriangular_n2_map()
    inv = inverse_jacobian(phi)
    untransposed = cotangent_chart(phi, [list(row) for row in zip(*inv)])
    product = natural_cotangent_product(nontriangular_n2_connection(), 4)
    assert chart_mismatches(product, _chart(phi), 3) == []
    assert chart_mismatches(product, untransposed, 3)


def test_chart_oracle_catches_a_sign_flip_in_the_lift(monkeypatch):
    # the momentum family lowered (i, j, k), all three indices on the base,
    # negated: still totally symmetric, so the spec accepts it
    def flipped(conn):
        spec = lift_connection(conn)
        return SymplecticConnectionSpec(
            conn.n,
            {key: -poly if max(key) < conn.n else poly for key, poly in spec._lowered.items()},
        )

    phi = _demo_n2_map()
    conn = flat_connection_from_diffeo(phi)
    monkeypatch.setattr(products, "lift_connection", flipped)
    assert chart_mismatches(natural_cotangent_product(conn, 4), _chart(phi), 3)


def test_natural_first_order_slot(natural_q):
    # order-1 slot at a configuration coordinate is (i/2) d_p
    assert natural_q.C[1].coordinate_slots()[0] == DiffOp.derivative(
        2, MultiIndex.unit(1), gr(0, "1/2")
    )


def test_natural_axioms(natural_q):
    assert check_axioms(natural_q, 5).passed


def test_natural_canonicity(natural_q):
    report = quantum_canonicity_check(natural_q)
    assert report.passed
    q, p = coords(2)
    assert star_bracket(natural_q, q, p) == HbarSeries.from_constant(
        Poly.const(2, 1), 3
    )


# -- truncated symplectic product ---------------------------------------------------------

def _random_spec(n, rng, a=GaussianRational(0)):
    d = 2 * n
    comps = {}
    for key in itertools.combinations_with_replacement(range(d), 3):
        terms = {}
        for mi in monomials_up_to(d, 2):
            v = rng.randint(-1, 1)
            if v:
                terms[mi] = GaussianRational(Fraction(v, rng.randint(1, 2)))
        comps[key] = Poly(d, terms)
    return SymplecticConnectionSpec.from_symmetric_components(n, comps, a)


def test_symplectic_zero_symbols_is_truncated_moyal():
    spec = SymplecticConnectionSpec(1, {}, GaussianRational(5))
    prod = truncated_symplectic_product(spec)
    assert prod == moyal_product(PoissonTensor.canonical(1), 2)


def test_symplectic_flat_lift_matches_natural():
    conn = Connection.one_dim(Poly.coordinate(1, 0))
    spec = lift_connection(conn)
    assert truncated_symplectic_product(spec) == natural_cotangent_product(
        conn, 4
    ).truncate(2)


def _bench_style_diffeo_connection():
    # the shape bench/workloads._diffeo_connection draws: (q1, q2 + a q1^2 + b q1^3)
    q1, q2 = Poly.coordinate(2, 0), Poly.coordinate(2, 1)
    return flat_connection_from_diffeo(
        [q1, q2 + (q1 ** 2).scale(gr("-3/2")) + (q1 ** 3).scale(gr("2/5"))]
    )


@pytest.mark.parametrize(
    "make",
    [nontriangular_n2_connection, n3_triangular_connection, _bench_style_diffeo_connection],
    ids=["nontriangular", "n3-triangular", "bench-diffeo"],
)
def test_lift_as_symplectic_spec_matches_natural_order2(make):
    # the lift's truncated product and order-2 morphism are those of the
    # natural product of its base
    conn = make()
    spec = lift_connection(conn)
    assert truncated_symplectic_product(spec) == natural_cotangent_product(conn, 2)
    assert symplectic_order2(spec) == flat_cotangent_order2(conn)


def test_ricci_weight_shifts_order2_term():
    rng = random.Random(6)
    comps_spec = _random_spec(1, rng)
    a1 = GaussianRational(2)
    a2 = GaussianRational(Fraction(-1, 3))
    s1 = truncated_symplectic_product(
        SymplecticConnectionSpec(1, {k: v for k, v in comps_spec._lowered.items()}, a1)
    )
    s2 = truncated_symplectic_product(
        SymplecticConnectionSpec(1, {k: v for k, v in comps_spec._lowered.items()}, a2)
    )
    assert s1.C[1] == s2.C[1]
    diff = s1.C[2] - s2.C[2]
    # the difference is the Ricci coupling alone
    from starq.geometry import ricci

    entries = canonical_poisson_entries(1)
    expect_terms = {}
    ric = ricci(comps_spec)
    d = 2
    factor = (gr(0, "1/2") ** 2) * gr("1/2") * (a1 - a2)
    for (mu1, nu1), v1 in entries.items():
        for (mu2, nu2), v2 in entries.items():
            comp = ric.get((mu1, mu2))
            if comp is None:
                continue
            key = (MultiIndex.unit(nu1), MultiIndex.unit(nu2))
            add = comp.scale(factor * v1 * v2).scale(-1)
            if key in expect_terms:
                expect_terms[key] = expect_terms[key] + add
            else:
                expect_terms[key] = add
    assert diff == BiDiffOp(d, expect_terms)


def test_symplectic_axioms_hold_to_order_two():
    rng = random.Random(12)
    spec = _random_spec(1, rng, GaussianRational(1))
    prod = truncated_symplectic_product(spec)
    report = check_axioms(prod, 4)
    assert report.passed
    assert quantum_canonicity_check(prod).passed


def test_product_copy_and_pickle_round_trips(moyal_n1):
    for twin in (copy.copy(moyal_n1), copy.deepcopy(moyal_n1),
                 pickle.loads(pickle.dumps(moyal_n1))):
        assert twin == moyal_n1 and twin.to_json() == moyal_n1.to_json()
        assert twin.poisson == moyal_n1.poisson


def bumped_morphism(morphism, order, index, coeff):
    """The morphism with coeff * d^index added to its order-`order` operator."""
    orders = list(morphism.orders)
    orders[order] = orders[order] + DiffOp.derivative(morphism.dim, index, coeff)
    return EquivalenceMorphism(orders, "recursion")


def _moyal_n1_o4():
    return moyal_product(PoissonTensor.canonical(1), 4)


# each case: a factory of fresh products and the morphism verify_intertwining
# checks; a demo spec with its derived morphism, Moyal with a d0 (x) d1 bump at
# C_2 under the Moyal morphism, and Moyal under a morphism with 2/3 added to T_2
SHARED_STATE_CASES = {
    **{spec.stem: (lambda spec=spec: build_product(parse_spec(json.loads(spec.read_text()))), None)
       for spec in sorted(DEMOS.glob("*.json"))},
    "moyal-c2-bump": (
        lambda: corrupted(_moyal_n1_o4(), MultiIndex.unit(0), MultiIndex.unit(1)),
        lambda: derive_equivalence(_moyal_n1_o4()),
    ),
    "moyal-t2-bump": (
        _moyal_n1_o4,
        lambda: bumped_morphism(derive_equivalence(_moyal_n1_o4()), 2, EMPTY_INDEX, gr("2/3")),
    ),
}


def _outcome(run):
    """What a call gives: its value, or the StarqError it raises."""
    try:
        return run()
    except StarqError as exc:
        return type(exc).__name__, str(exc)


def _shared_state_calls(morphism, d):
    """Each reader of a product's pair table and verdicts, as name -> call."""
    x = [Poly.coordinate(d, j) for j in range(d)]
    f, g = x[0] * x[0] * x[d - 1] + x[1], x[0] * x[1] * x[1] + Poly.const(d, gr("1/3"))
    return {
        "axioms": lambda s: check_axioms(s, 3).to_json(),
        "canonicity": lambda s: quantum_canonicity_check(s).to_json(),
        "derive": lambda s: _outcome(lambda: derive_equivalence(s).to_json()),
        "intertwining": lambda s: verify_intertwining(morphism, s, 3).to_json(),
        "apply": lambda s: s.apply(f, g),
        "bracket": lambda s: _outcome(lambda: star_bracket(s, f, g)),
    }


# A product fills one pair table and decides its verdicts once, for every
# check that reads it; nothing a call returns may depend on what ran before
@pytest.mark.parametrize("name", sorted(SHARED_STATE_CASES))
def test_shared_pair_table_is_invisible(name):
    build, morphism = SHARED_STATE_CASES[name]
    morphism = derive_equivalence(build()) if morphism is None else morphism()
    calls = _shared_state_calls(morphism, build().dim)
    alone = {call: run(build()) for call, run in calls.items()}
    for order in (list(calls), list(reversed(calls))):
        s = build()
        assert {call: calls[call](s) for call in order} == alone
    s = build()
    assert s.truncate(s.order) is s
    check_axioms(s, 2)
    assert s._table is not None
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and twin._table is None
        assert twin.to_json() == s.to_json()


# each case: the object and the state its copy must reproduce
ROUND_TRIP_CASES = {
    "hbar-series": lambda: (
        HbarSeries([Poly.coordinate(2, 0), Poly.zero(2), Poly.const(2, gr("1/3", 2))]),
        lambda h: h,
    ),
    "vector-field-frame": lambda: (momentum_shear_frame(), lambda f: f.fields),
    "connection": lambda: (_cubic_pullback_n2(), lambda c: c),
    "lifted-connection": lambda: (
        lift_connection(_cubic_pullback_n2()), lambda s: (s.n, s.dim, s._lowered, s._raised, s.a),
    ),
    "equivalence-morphism": lambda: (
        derive_equivalence(natural_cotangent_product(Connection.one_dim(Poly.coordinate(1, 0)), 2)),
        lambda m: (m, m.provenance),
    ),
    "symplectic-connection-spec": lambda: (
        _random_spec(1, random.Random(5), gr("-3/7")),
        lambda s: (s.n, s.dim, s._lowered, s.a),
    ),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CASES))
def test_geometry_and_series_copy_and_pickle_round_trips(name):
    # every immutable value rebuilds through its checked constructor
    obj, state = ROUND_TRIP_CASES[name]()
    assert obj.__reduce__()[0] is type(obj)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and state(twin) == state(obj)


# -- bracket ---------------------------------------------------------------------------------

def test_bracket_of_function_with_itself(moyal_n1, natural_q):
    q, p = coords(2)
    f = q * q * p + p * p
    for s in (moyal_n1, natural_q):
        assert star_bracket(s, f, f).is_zero()


def test_bracket_leading_term_is_classical(moyal_n1, natural_q):
    q, p = coords(2)
    f = q * q * p
    g = q * p * p
    for s in (moyal_n1, natural_q):
        bracket = star_bracket(s, f, g)
        assert bracket[0] == s.poisson.bracket(f, g)


def test_bracket_is_the_difference_of_two_products(moyal_n1, natural_q):
    # star_bracket adds f * g and (-g) * f into one keyed series; the
    # oracle subtracts two `apply` series, on sound products, an order-2
    # fault that bends the bracket and an order-0 fault that has none
    q, p = coords(2)
    q1, p1 = MultiIndex.unit(0), MultiIndex.unit(1)
    bent = corrupted(moyal_n1, q1, p1, antisym=True, coeff=Poly.coordinate(2, 0))
    no_bracket = corrupted(moyal_n1, q1, p1, order=0, coeff=Poly.const(2, gr("1/3")))
    series = HbarSeries([q * p, q, Poly.zero(2), p * p, Poly.const(2, gr(0, 1))])
    pairs = [(q, p), (p, q), (q * q * p, q * p * p + p), (series, q * q), (q, q)]
    for s in (moyal_n1, natural_q, bent, no_bracket):
        for f, g in pairs:
            expected = _outcome(lambda: _bracket(s.apply(f, g) - s.apply(g, f)))
            assert _outcome(lambda: star_bracket(s, f, g)) == expected
    assert _outcome(lambda: star_bracket(no_bracket, q, p)) == (
        "CanonicityFailure", "order-0 commutator 1/3 is nonzero")


# -- axiom checking and fault injection --------------------------------------------------------

def test_axiom_suite_passes_moyal_deg6(moyal_n1):
    report = check_axioms(moyal_n1, 6)
    assert report.passed


def test_corrupted_product_fails_associativity(moyal_n1):
    bad = corrupted(moyal_n1, MultiIndex.unit(0), MultiIndex.unit(0))
    report = check_axioms(bad, 4)
    assert not report.passed
    names = [e.name for e in report.failures()]
    assert "associativity" in names


def test_corrupted_product_fails_canonicity(moyal_n1):
    bad = corrupted(moyal_n1, MultiIndex.unit(0), MultiIndex.unit(1), antisym=True)
    report = quantum_canonicity_check(bad)
    assert not report.passed


def bracket_per_pair_report(s):
    """The canonicity report with one `star_bracket` per coordinate pair."""
    d = s.dim
    entries = []
    for mu in range(d):
        for nu in range(mu + 1, d):
            try:
                bracket = star_bracket(s, Poly.coordinate(d, mu), Poly.coordinate(d, nu))
            except CanonicityFailure as exc:
                entries.append({"name": f"pair-{mu}-{nu}", "passed": False, "detail": str(exc)})
                continue
            ok = bracket == HbarSeries.from_constant(s.poisson.entry(mu, nu), bracket.order)
            entries.append({"name": f"pair-{mu}-{nu}", "passed": ok,
                            "detail": "" if ok else f"bracket = {bracket}"})
    return entries


def test_canonicity_reads_one_pair_table(monkeypatch):
    # an order-0 fault with a nonzero commutator on (q1, p1), and an
    # antisymmetric order-2 fault that bends the bracket of (q1, q2); the
    # commutators are read off the operators' keys, so the check makes no
    # pair table
    moyal = moyal_product(PoissonTensor.canonical(2), 3)
    q1, q2, p1 = MultiIndex.unit(0), MultiIndex.unit(1), MultiIndex.unit(2)
    bad = corrupted(moyal, q1, p1, order=0, coeff=Poly.const(4, gr("1/3")))
    bad = corrupted(bad, q1, q2, antisym=True, order=2, coeff=Poly.coordinate(4, 3))
    builds = []
    real = BiDiffOp.multiplication.__func__
    monkeypatch.setattr(BiDiffOp, "multiplication",
                        classmethod(lambda cls, d: builds.append(d) or real(cls, d)))
    report = quantum_canonicity_check(bad).to_json()
    assert builds == [] and bad._table is None
    monkeypatch.undo()
    assert report["entries"] == bracket_per_pair_report(bad)
    details = {e["name"]: e["detail"] for e in report["entries"] if not e["passed"]}
    assert details["pair-0-2"] == "order-0 commutator 1/3 is nonzero"
    assert details["pair-0-1"].startswith("bracket = ")


def _demo_product(name):
    return build_product(parse_spec(json.loads((DEMOS / f"{name}.json").read_text())))


def _casimir_frame_product():
    # a momentum field that depends on the Casimir coordinate
    return build_product(parse_spec({
        "kind": "vector-field", "n": 1, "casimir": 1, "order": 4,
        "frame": [["1", "0", "0"], ["6*p1 + 2*c1", "1", "0"], ["2*p1", "0", "1"]]}))


# every kind of product the tests build, with the faults the coordinates
# see: a 1/3 d_q1 (x) d_p1 at order 0, an antisymmetric p2 d_q1 (x) d_q2 at
# order 2, (q1 + 2/3) 1 (x) d_p1 at order 2 and 1 (x) 1 at order 1
COORDINATE_CASES = {
    **{name: (lambda name=name: _demo_product(name)) for name in (
        "moyal", "vector_field", "natural_cotangent", "natural_cotangent_n2",
        "symplectic_truncated")},
    "moyal-casimir": lambda: moyal_product(PoissonTensor.canonical(2, 2), 4),
    "frame-casimir": _casimir_frame_product,
    "moyal-non-canonical-d4": lambda: moyal_product(NON_CANONICAL_D4, 4),
    "frame-non-canonical-d4": lambda: vector_field_product(
        shear_frame(NON_CANONICAL_D4, 1, Poly.coordinate(4, 1) ** 2), NON_CANONICAL_D4, 3),
    "order0-fault": lambda: corrupted(
        moyal_product(PoissonTensor.canonical(2), 3), MultiIndex.unit(0), MultiIndex.unit(2),
        order=0, coeff=Poly.const(4, gr("1/3"))),
    "antisymmetric-order2-fault": lambda: corrupted(
        moyal_product(PoissonTensor.canonical(2), 3), MultiIndex.unit(0), MultiIndex.unit(1),
        antisym=True, coeff=Poly.coordinate(4, 3)),
    "empty-slot-fault": lambda: corrupted(
        moyal_product(PoissonTensor.canonical(1), 4), EMPTY_INDEX, MultiIndex.unit(1),
        coeff=Poly.coordinate(2, 0) + Poly.const(2, gr("2/3"))),
    "unit-fault": lambda: corrupted(
        moyal_product(PoissonTensor.canonical(1), 4), EMPTY_INDEX, EMPTY_INDEX, order=1),
}


@pytest.mark.parametrize("build", COORDINATE_CASES.values(), ids=COORDINATE_CASES.keys())
def test_coordinate_slots_match_their_definition(build):
    # every C_l, C_0 included, whose 1 (x) 1 term freezes to x^a in both
    # slots, on every monomial of degree <= 3
    for op in build().C:
        d = op.dim
        basis = [Poly.monomial(d, m) for m in monomials_up_to(d, 3)]
        left, sym = op.coordinate_slots(), op.coordinate_slots(symmetric=True)
        for a in range(d):
            x = Poly.coordinate(d, a)
            for f in basis:
                assert left[a].apply(f) == op.apply(x, f)
                assert sym[a].apply(f) == (op.apply(x, f) + op.apply(f, x)).scale(HALF)


@pytest.mark.parametrize("build", COORDINATE_CASES.values(), ids=COORDINATE_CASES.keys())
def test_canonicity_report_is_that_of_the_star_bracket(build):
    s = build()
    report = quantum_canonicity_check(s).to_json()
    assert s._table is None
    assert report["entries"] == bracket_per_pair_report(s)


def _moyal_bump(left, right, order):
    moyal = moyal_product(PoissonTensor.canonical(1), 4)
    bump = MultiIndex.from_exponents(left), MultiIndex.from_exponents(right)
    return corrupted(moyal, *bump, order=order), 4


def _nontriangular_n2_bump():
    # a non-triangular pull-back, so trace terms of the symbols and their
    # cancellations enter the exact arithmetic of both checks
    product = natural_cotangent_product(nontriangular_n2_connection(), 3)
    x = coords(product.dim)
    return corrupted(product, MultiIndex.unit(1), MultiIndex.of(2, 3), order=3, coeff=x[1]), 3


def _natural_n2_bump():
    data = json.loads((DEMOS / "natural_cotangent_n2.json").read_text())
    product = build_product(parse_spec(data))
    x = coords(product.dim)
    return corrupted(product, MultiIndex.of(0, 0), MultiIndex.unit(2), order=3, coeff=x[0] + x[3]), 3


@pytest.mark.parametrize(
    "case",
    [
        lambda: _moyal_bump((1, 0), (1, 0), 2),
        lambda: _moyal_bump((0, 1), (1, 0), 3),
        lambda: _moyal_bump((2, 0), (0, 1), 1),
        lambda: _moyal_bump((1, 1), (0, 2), 4),
        lambda: _moyal_bump((0, 0), (1, 0), 2),
        # C_0 is not multiplication: the pair table reads it like any C_l
        lambda: _moyal_bump((1, 0), (0, 1), 0),
        lambda: (build_product(parse_spec(FIXTURES["fault_assoc"])), FIXTURES["fault_assoc"]["max_degree"]),
        _natural_n2_bump,
        _nontriangular_n2_bump,
    ],
    ids=[
        "moyal-o2-dq-dq", "moyal-o3-dp-dq", "moyal-o1-dq2-dp", "moyal-o4-dqdp-dp2",
        "moyal-o2-1-dq", "moyal-o0-dq-dp", "cli-fault-assoc", "natural-n2-o3", "natural-n2-nontriangular-o3",
    ],
)
def test_check_axioms_matches_term_scan(case):
    bad, degree = case()
    report = check_axioms(bad, degree)
    assert "associativity" in [e.name for e in report.failures()]
    assert report.to_json() == term_scan_check_axioms(bad, degree).to_json()


# Under swap parity check_axioms visits only the triples (f, g, h) with h
# not before f in the basis (1, x1, x0, x1^2, ...).  Each case names the
# first failing triple of the full enumeration: off the diagonal (f != h)
# or on it under parity, and with h before f for a fault breaking parity,
# where the full enumeration must run.
@pytest.mark.parametrize(
    "left, right, order, antisym, coeff, parity, first",
    [
        ((0, 1), (0, 1), 2, False, None, True, "(x1, x1, x1^2)"),
        ((1, 0), (1, 0), 2, False, 0, True, "(x1, x0, x0)"),
        ((1, 0), (2, 0), 3, True, None, True, "(x0, x0, x0)"),
        ((0, 1), (0, 1), 2, False, 0, True, "(x1, x1, x1)"),
        ((1, 0), (0, 2), 2, False, None, False, "(x0, x1, x1)"),
        ((0, 1), (0, 0), 1, False, None, False, "(x1, 1, 1)"),
    ],
    ids=["even-off-diagonal", "even-x0-off-diagonal", "odd-diagonal", "even-x0-diagonal",
         "asymmetric-h-before-f", "order1-h-before-f"],
)
def test_check_axioms_parity_reduction_matches_term_scan(
    moyal_n1, left, right, order, antisym, coeff, parity, first
):
    bump = Poly.const(2, 1) if coeff is None else Poly.coordinate(2, coeff)
    bad = corrupted(moyal_n1, MultiIndex.from_exponents(left), MultiIndex.from_exponents(right),
                    antisym=antisym, order=order, coeff=bump)
    assert swap_parity(bad) is parity
    report = check_axioms(bad, 4)
    assoc = next(e for e in report.entries if e.name == "associativity")
    assert not assoc.passed and f" on {first}: " in assoc.detail
    assert report.to_json() == term_scan_check_axioms(bad, 4).to_json()


# check_axioms skips the triples with a constant factor only when 1 is the
# unit.  A unit fault, 1 (x) d, d (x) 1 or 1 (x) 1 at an order k >= 1,
# turns that off; 1 (x) d1 first fails on the triple (1, 1, x1), at order
# k, on Moyal and on the natural product alike.
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "left, right, first",
    [((0, 0), (0, 1), "(1, 1, x1)"), ((1, 0), (0, 0), None), ((0, 0), (0, 0), None)],
    ids=["1-d1", "d0-1", "1-1"],
)
def test_check_axioms_unit_faults_match_term_scan(moyal_n1, natural_q, order, left, right, first):
    for product in (moyal_n1, natural_q):
        bad = corrupted(product, MultiIndex.from_exponents(left), MultiIndex.from_exponents(right),
                        order=order, coeff=Poly.const(2, gr("2/3")))
        assert unital(product) and not unital(bad)
        report = check_axioms(bad, 3)
        entries = {e.name: e for e in report.entries}
        assert not entries["unit-annihilation"].passed
        if first is not None:
            assert f"at order {order} on {first}: " in entries["associativity"].detail
        assert report.to_json() == term_scan_check_axioms(bad, 3).to_json()


def test_check_axioms_visits_no_constant_factor_when_unital(moyal_n1, monkeypatch):
    # each associator is two add_star calls, (f*g) * h then (-f) * (g*h):
    # the first one's right operand is h, the second one's left is -f
    seen = []
    add_star = products._PairTable.add_star

    def recording(table, acc, u, v):
        seen.append((u, v))
        return add_star(table, acc, u, v)

    monkeypatch.setattr(products._PairTable, "add_star", recording)
    assert check_axioms(moyal_n1, 3).passed
    basis = monomials_up_to(2, 3)[1:]
    triples = [(f, g, h) for i, f in enumerate(basis) for g in basis for h in basis[i:]
               if f.degree + g.degree + h.degree <= 3]
    assert len(seen) == 2 * len(triples) == 2 * 6
    assert [(minus_f, h) for (_, h), (minus_f, _) in zip(seen[::2], seen[1::2])] == [
        (((0, f, gr(-1)),), ((0, h, gr(1)),)) for f, _, h in triples
    ]


def test_swap_parity_of_builders_and_faults(moyal_n1, natural_q):
    assert swap_parity(moyal_n1) and swap_parity(natural_q)
    d1, d0 = MultiIndex.unit(1), MultiIndex.unit(0)
    assert swap_parity(corrupted(moyal_n1, d0, d1, antisym=True, order=3))
    assert not swap_parity(corrupted(moyal_n1, d0, d1, antisym=True, order=2))
    assert not swap_parity(corrupted(moyal_n1, d0, d1, order=0))


def _full_series(d, order, shift):
    """An hbar-series with two monomials of degree <= 3 at every order."""
    basis = monomials_up_to(d, 3)
    coeffs = []
    for k in range(order + 1):
        i = (3 * k + shift) % len(basis)
        j = (i + 1 + k) % len(basis)
        coeffs.append(Poly.monomial(d, basis[i], gr(k + 1, shift))
                      + Poly.monomial(d, basis[j], gr(f"-1/{k + 2}")))
    return HbarSeries(coeffs)


@pytest.mark.parametrize(
    "make",
    [
        lambda: natural_cotangent_product(Connection.one_dim(Poly.coordinate(1, 0)), 4),
        lambda: natural_cotangent_product(nontriangular_n2_connection(), 4),
        lambda: corrupted(moyal_product(PoissonTensor.canonical(1), 4), MultiIndex.unit(0),
                          MultiIndex.of(1, 1), order=2, coeff=Poly.coordinate(2, 1)),
        lambda: corrupted(moyal_product(PoissonTensor.canonical(1), 4), MultiIndex.unit(0),
                          MultiIndex.unit(1), order=0, coeff=Poly.coordinate(2, 0)),
    ],
    ids=["natural-q", "nontriangular-n2", "moyal-parity-fault", "moyal-order0-fault"],
)
def test_apply_on_full_series_matches_term_scan(make):
    s = make()
    d, N = s.dim, s.order
    F, G = _full_series(d, N, 0), _full_series(d, N, 1)
    assert all(len(list(H[k].terms())) == 2 for H in (F, G) for k in range(N + 1))
    zero = [Poly.zero(d)] * N
    f, g = F[N], G[N - 1]
    for left, right, scan_left, scan_right in (
        (F, G, F.coeffs, G.coeffs),
        (G, F, G.coeffs, F.coeffs),
        (f, G, [f] + zero, G.coeffs),
        (F, g, F.coeffs, [g] + zero),
        (f, g, [f] + zero, [g] + zero),
    ):
        assert s.apply(left, right) == HbarSeries(term_scan_star(s, scan_left, scan_right))


def test_check_reports_are_deterministic(moyal_n1):
    a = check_axioms(moyal_n1, 4).to_json()
    b = check_axioms(moyal_n1, 4).to_json()
    assert a == b


# -- serialization ------------------------------------------------------------------------------

def test_star_product_json(natural_q):
    data = natural_q.to_json()
    assert data["order"] == 4
    assert len(data["operators"]) == 5
    restored = BiDiffOp.from_json(data["operators"][2])
    assert restored == natural_q.C[2]


def test_star_product_json_matches_the_oracle_byte_for_byte(moyal_n1, natural_q):
    d0, d1 = MultiIndex.unit(0), MultiIndex.of(0, 1)
    products = [
        moyal_n1, natural_q, corrupted(moyal_n1, d0, d1, coeff=Poly.const(2, gr("-6/4", "1/6"))),
        vector_field_product(momentum_shear_frame(), PoissonTensor.canonical(1), 3),
    ]
    for product in products:
        assert json.dumps(product.to_json()) == json.dumps(oracle_product_json(product))
        for op in product.C:
            assert json.dumps(op.to_json()) == json.dumps(oracle_operator_json(op))


# -- symmetric pairing kernel against the ordered sum ----------------------------------------

def _moyal_against_ordered(n, casimir, order):
    p = PoissonTensor.canonical(n, casimir)

    def partials(idx):
        return DiffOp.derivative(p.dim, MultiIndex.of(*idx))

    return moyal_product(p, order), ordered_pairing_operators(p, lambda k: partials, order)


def _cubic_frame_against_ordered(n, phi, order):
    frame = cubic_frame(n, phi)
    p = PoissonTensor.canonical(n)
    d = 2 * n

    comp = {(): DiffOp.identity(d)}

    def composed(idx):  # D_idx[0] o ... o D_idx[-1], memoized on the ordered tuple
        if idx not in comp:
            comp[idx] = whole_compose(frame.fields[idx[0]], composed(idx[1:]))
        return comp[idx]

    return (
        vector_field_product(frame, p, order),
        ordered_pairing_operators(p, lambda k: composed, order),
    )


def _natural_against_ordered(conn):
    lifted = lift_connection(conn)
    p = PoissonTensor.canonical(2)
    jets = lambda k: whole_covariant_jet_ops(lifted, k).__getitem__
    return natural_cotangent_product(conn, 4), ordered_pairing_operators(p, jets, 4)


def _cubic_pullback_n2():
    q1, q2 = Poly.coordinate(2, 0), Poly.coordinate(2, 1)
    return flat_connection_from_diffeo([q1, q2 + (q1 ** 2).scale(2) - q1 ** 3])


def _natural_n1_order6_against_ordered():
    conn = Connection.one_dim(Poly.const(1, 1) + Poly.coordinate(1, 0) ** 2)
    lifted = lift_connection(conn)
    p = PoissonTensor.canonical(1)
    jets = lambda k: whole_covariant_jet_ops(lifted, k).__getitem__
    return natural_cotangent_product(conn, 6), ordered_pairing_operators(p, jets, 6)


def _demo_symplectic_against_ordered():
    path = DEMOS / "symplectic_truncated.json"
    data = json.loads(path.read_text())
    comps = {
        tuple(int(j) - 1 for j in key.split(",")): parse_phase_poly(expr, data["n"])
        for key, expr in data["gamma_tilde"].items()
    }
    spec = SymplecticConnectionSpec.from_symmetric_components(
        data["n"], comps, GaussianRational(Fraction(data["a"]))
    )
    p = PoissonTensor.canonical(data["n"])
    C = ordered_pairing_operators(p, lambda k: whole_covariant_jet_ops(spec, k).__getitem__, 2)
    C[2] = C[2] + ordered_ricci_term(spec, p)
    return truncated_symplectic_product(spec), C


@pytest.mark.parametrize(
    "case",
    [
        lambda: _moyal_against_ordered(2, 0, 5),
        lambda: _moyal_against_ordered(1, 1, 5),
        lambda: _cubic_frame_against_ordered(2, "p1^3 + 2*p1^2*p2 - 3*p2^3", 4),
        # the shape of the benchmark's frame product: rank-6 frame jets
        lambda: _cubic_frame_against_ordered(1, "2*p1^3 - 3*p1^2", 6),
        lambda: _natural_against_ordered(_cubic_pullback_n2()),
        lambda: _natural_against_ordered(nontriangular_n2_connection()),
        _natural_n1_order6_against_ordered,
        _demo_symplectic_against_ordered,
    ],
    ids=["moyal-n2-o5", "moyal-n1-casimir-o5", "vector-field-cubic-n2-o4",
         "vector-field-cubic-n1-o6", "natural-n2-o4", "natural-n2-nontriangular-o4",
         "natural-n1-o6", "symplectic-demo"],
)
def test_pairing_kernel_matches_ordered_sum(case):
    product, reference = case()
    assert len(product.C) == len(reference)
    for k, (op, ref) in enumerate(zip(product.C, reference)):
        assert op == ref, f"C_{k} differs from the ordered sum"


# -- raw builders against the whole-object builders ---------------------------------------


def _demo_against_whole(name):
    spec = parse_spec(json.loads((DEMOS / f"{name}.json").read_text()))
    product = build_product(spec)
    poisson = PoissonTensor.canonical(spec.n, spec.casimir)
    if spec.kind == "moyal":
        reference = whole_moyal_operators(poisson, spec.order)
    elif spec.kind == "vector-field":
        reference = whole_vector_field_operators(spec.geometry, poisson, spec.order)
    elif spec.kind == "natural-cotangent":
        reference = whole_natural_operators(spec.geometry, spec.order)
    else:
        reference = whole_symplectic_operators(spec.geometry)
    return product, reference


def _natural_against_whole(conn, order):
    return natural_cotangent_product(conn, order), whole_natural_operators(conn, order)


def _frame_against_whole(frame, poisson, order):
    return vector_field_product(frame, poisson, order), whole_vector_field_operators(frame, poisson, order)


@pytest.mark.parametrize(
    "case",
    [
        *(lambda name=name: _demo_against_whole(name) for name in (
            "moyal", "vector_field", "natural_cotangent", "natural_cotangent_n2",
            "symplectic_truncated",
        )),
        lambda: _natural_against_whole(n3_triangular_connection(), 6),
        lambda: _natural_against_whole(nontriangular_n2_connection(), 6),
        lambda: (moyal_product(PoissonTensor.canonical(3), 8),
                 whole_moyal_operators(PoissonTensor.canonical(3), 8)),
        # the jets of the frame's flat connection against its compositions
        *(lambda order=order: _frame_against_whole(
            frame_from_strings(NONTRIANGULAR_FRAME, 1), PoissonTensor.canonical(1), order)
          for order in (2, 4, 6)),
        # the read-off P^-1[c][pc] = -1 / P[c][pc] with entries other than 1
        lambda: _frame_against_whole(cubic_frame(2, "p1^3 + 2*p1^2*p2 - 3*p2^3"),
                                     constant_tensor(2, 0, {(0, 2): gr("3/2"), (1, 3): gr("3/2")}), 4),
        lambda: _frame_against_whole(cubic_frame(1, "2*p1^3 - 3*p1^2"),
                                     constant_tensor(1, 0, {(0, 1): gr("3/2")}), 6),
        # a coordinate with more than one partner: the compositions, where
        # the one-partner read-off of P^-1 would be wrong
        lambda: _frame_against_whole(shear_frame(NON_CANONICAL_D4, 0, Poly.coordinate(4, 0)),
                                     NON_CANONICAL_D4, 4),
        lambda: _frame_against_whole(shear_frame(NON_CANONICAL_D3, 2, Poly.coordinate(3, 2) ** 2),
                                     NON_CANONICAL_D3, 4),
    ],
    ids=["demo-moyal", "demo-vector-field", "demo-natural", "demo-natural-n2",
         "demo-symplectic", "natural-n3-triangular-o6", "natural-n2-nontriangular-o6",
         "moyal-n3-o8", "frame-nontriangular-o2", "frame-nontriangular-o4",
         "frame-nontriangular-o6", "frame-cubic-n2-3/2-o4", "frame-cubic-n1-3/2-o6",
         "frame-shear-non-canonical-d4-o4", "frame-shear-non-canonical-d3-o4"],
)
def test_raw_builders_match_whole_object_builders(case):
    # jets, compositions and pairings added as raw term maps, one multiset
    # of each mirror pair, give the same normal form as one Poly/DiffOp
    # operation per term of every multiset
    product, reference = case()
    assert len(product.C) == len(reference)
    for k, (op, ref) in enumerate(zip(product.C, reference)):
        assert op == ref, f"C_{k} differs from the whole-object build"
    assert swap_parity(product)
    assert json.dumps(product.to_json()) == json.dumps(oracle_product_json(product))


# A frame over n=1 with two Casimirs: d_q, and d_mu + (d_mu d_p Phi) d_q for
# mu = p, c1, c2, which commute and reproduce the canonical tensor for any
# Phi(p, c1, c2).  The pairing reads jets along q and p only, so the
# Casimir fields, though they are not plain partials, are never composed.
def test_vector_field_product_builds_no_casimir_jets(monkeypatch):
    p = PoissonTensor.canonical(1, 2)
    d = p.dim
    _, mom, c1, c2 = coords(d)
    phi = mom * mom * mom + mom * mom * c1 - (mom * c2 * c2).scale(gr(2))
    rows = [[Poly.const(d, 1 if a == 0 else 0) for a in range(d)]]
    rows += [[phi.diff(MultiIndex.of(mu, 1)) if a == 0 else Poly.const(d, 1 if a == mu else 0)
              for a in range(d)] for mu in range(1, d)]
    frame = VectorFieldFrame.from_components(rows)
    keys = []
    pairing = products._pairing_product

    def recording(poisson, jets, order):
        keys.extend(jets)
        return pairing(poisson, jets, order)

    monkeypatch.setattr(products, "_pairing_product", recording)
    product = vector_field_product(frame, p, 6)
    assert product.C == whole_vector_field_operators(frame, p, 6)
    assert (0, 1) in keys and not [t for t in keys if {2, 3} & set(t)]


# -- the Moyal walk against the sum over every multiset ---------------------------------------


def constant_tensor(n, casimir, values):
    """The constant Poisson tensor with P^(mu nu) = values[(mu, nu)] for
    mu < nu, and the antisymmetric partner below the diagonal."""
    d = 2 * n + casimir
    entries = {}
    for (mu, nu), v in values.items():
        entries[(mu, nu)] = Poly.const(d, v)
        entries[(nu, mu)] = Poly.const(d, -v)
    return PoissonTensor(n, casimir, entries)


NON_CANONICAL_D3 = constant_tensor(1, 1, {
    (0, 1): gr("3/2"), (0, 2): gr("-2/5"), (1, 2): gr("1/3", "-2/7"),
})
NON_CANONICAL_D4 = constant_tensor(2, 0, {
    (0, 1): gr("3/2"), (0, 2): gr("-2/5"), (0, 3): gr(1), (1, 2): gr("7/3"),
    (1, 3): gr("-1/2"), (2, 3): gr(0, 2),
})


@pytest.mark.parametrize(
    "poisson, order",
    [
        (PoissonTensor.canonical(1), 8),
        (PoissonTensor.canonical(1, 1), 8),
        (PoissonTensor.canonical(2), 8),
        (PoissonTensor.canonical(2, 2), 6),
        (PoissonTensor.canonical(3, 1), 8),
        (NON_CANONICAL_D3, 6),
        (NON_CANONICAL_D4, 5),
    ],
    ids=["moyal-n1-o8", "moyal-n1-casimir1-o8", "moyal-n2-o8", "moyal-n2-casimir2-o6",
         "moyal-n3-casimir1-o8", "non-canonical-d3-o6", "non-canonical-d4-o5"],
)
def test_moyal_walk_matches_every_multiset(poisson, order):
    product = moyal_product(poisson, order)
    reference = whole_moyal_operators(poisson, order)
    assert len(product.C) == len(reference)
    for k, (op, ref) in enumerate(zip(product.C, reference)):
        assert op == ref, f"C_{k} differs from the sum over every multiset"
    assert swap_parity(product)


@pytest.mark.parametrize(
    "build",
    [
        lambda: moyal_product(PoissonTensor.canonical(1), -1),
        lambda: vector_field_product(momentum_shear_frame(), PoissonTensor.canonical(1), -3),
        lambda: natural_cotangent_product(Connection.zero(1), -2),
    ],
    ids=["moyal", "vector-field", "natural-cotangent"],
)
def test_builder_rejects_a_negative_order(build):
    with pytest.raises(OrderMismatch):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda order: moyal_product(PoissonTensor.canonical(1), order),
        lambda order: vector_field_product(momentum_shear_frame(), PoissonTensor.canonical(1), order),
        lambda order: natural_cotangent_product(Connection.zero(1), order),
        # no entries: no term reaches the guard, the order does
        lambda order: moyal_product(PoissonTensor.canonical(0, 1), order),
    ],
    ids=["moyal", "vector-field", "natural-cotangent", "moyal-casimir-only"],
)
def test_builder_rejects_an_order_past_the_derivative_guard(build):
    # C_k differentiates each slot k times
    with pytest.raises(OperatorOrderExceeded) as err:
        build(MAX_OP_ORDER + 1)
    assert str(err.value) == "derivative order 13 exceeds guard 12"


# tensors with one partner per coordinate (canonical, with a Casimir,
# scaled) and with several (the non-canonical d = 3, 4)
MOYAL_TENSORS = [
    PoissonTensor.canonical(2), PoissonTensor.canonical(1, 1),
    constant_tensor(1, 0, {(0, 1): gr("3/2")}), NON_CANONICAL_D3, NON_CANONICAL_D4,
]
MOYAL_TENSOR_IDS = ["canonical-2", "canonical-1-1", "canonical-1-x3/2", "non-canonical-d3",
                    "non-canonical-d4"]


@pytest.mark.parametrize("poisson", MOYAL_TENSORS, ids=MOYAL_TENSOR_IDS)
def test_entry_multiset_walk_matches_the_combos(poisson):
    # each multiset is formed from its prefix; the reference forms its
    # indices and weight from the whole multiset, sums the weights per key
    # (L, R) and drops the zero sums, keys in first-seen order
    entries = poisson.constant_entries()
    for k, level in enumerate(products._entry_multisets(poisson, 6), 1):
        keyed = {}
        for combo in itertools.combinations_with_replacement(entries, k):
            key = (MultiIndex.of(*(mu for mu, _, _ in combo)), MultiIndex.of(*(nu for _, nu, _ in combo)))
            keyed[key] = keyed.get(key, gr(0)) + multiset_weight(combo)
        assert list(level.items()) == [(key, w) for key, w in keyed.items() if w], k


@pytest.mark.parametrize("poisson", MOYAL_TENSORS, ids=MOYAL_TENSOR_IDS)
def test_entry_multiset_keys_come_in_mirror_pairs(poisson):
    # the pairing visits one key of each mirror pair and adds the other
    # from it: W(R, L) = (-1)^k W(L, R), so no key (L, L) is left at odd k
    for k, level in enumerate(products._entry_multisets(poisson, 6), 1):
        for (L, R), w in level.items():
            assert level.get((R, L)) == (-w if k % 2 else w), (k, L, R)
            assert not (k % 2 and L is R), (k, L)


@pytest.mark.parametrize("poisson", MOYAL_TENSORS, ids=MOYAL_TENSOR_IDS)
def test_moyal_builder_matches_the_pairing_of_partials(poisson):
    reference = whole_moyal_operators(poisson, 6)
    for order in range(7):
        product = moyal_product(poisson, order)
        expected = StarProduct(poisson, reference[: order + 1])
        assert product == expected, order
        assert json.dumps(product.to_json()) == json.dumps(expected.to_json()), order


def test_an_order_0_product_fails_canonicity():
    product = moyal_product(PoissonTensor.canonical(1), 0)
    report = quantum_canonicity_check(product)
    assert not report.passed
    assert [e.name for e in report.failures()] == ["pair-0-1"]
    with pytest.raises(CanonicityFailure):
        derive_equivalence(product)
    q, p = coords(2)
    with pytest.raises(CanonicityFailure):
        star_bracket(product, q, p)


class _AsymmetricJets(dict):
    """A jet table whose operators share nothing across index orderings
    or slots: each sorted tuple draws its own few random terms on its
    first lookup."""

    def __init__(self, dim, seed):
        super().__init__()
        self.dim, self.seed = dim, seed

    def __missing__(self, idx):
        dim = self.dim
        rng = random.Random(f"{self.seed}:{idx}")
        terms = {}
        for _ in range(rng.randint(1, 3)):
            der = MultiIndex.of(*(rng.randrange(dim) for _ in range(rng.randint(0, 2))))
            coeff = Poly.monomial(
                dim, MultiIndex.of(*(rng.randrange(dim) for _ in range(rng.randint(0, 2)))),
                gr(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-2, 2)),
            )
            terms[der] = coeff
        self[idx] = DiffOp(dim, terms)
        return self[idx]


@pytest.mark.parametrize("seed", range(4))
def test_mirrored_pairing_needs_no_jet_symmetry(seed):
    # the mirror argument uses only the antisymmetric tensor and the one
    # table in both slots, so any table of sorted index tuples will do
    for poisson, order in ((NON_CANONICAL_D3, 4), (PoissonTensor.canonical(1, 1), 5)):
        jets = _AsymmetricJets(poisson.dim, seed)
        C = _pairing_product(poisson, jets, order)
        reference = whole_pairing_operators(poisson, jets.__getitem__, order)
        assert C == reference
        assert swap_parity(StarProduct(poisson, C))


def test_monomial_basis_matches_the_recursive_enumeration():
    for dim in range(5):
        for max_degree in range(6):
            basis = monomials_up_to(dim, max_degree)
            assert basis == recursive_monomials_up_to(dim, max_degree), (dim, max_degree)


def test_monomial_basis_of_a_large_dimension():
    # the recursive enumeration went one frame deep per coordinate
    basis = monomials_up_to(1200, 1)
    assert len(basis) == 1201
    assert basis[0] is MultiIndex() and basis[1] is MultiIndex.unit(1199)
    assert basis[-1] is MultiIndex.unit(0)
