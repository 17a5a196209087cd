import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp

from starq.errors import DimensionMismatch, InvalidArgument, NonFlatConnection
from starq.geometry import (
    Connection,
    SymplecticConnectionSpec,
    covariant_jet_ops,
    curvature,
    determinant,
    flat_connection_from_diffeo,
    inverse_jacobian,
    is_flat,
    lift_connection,
    ricci,
    symmetric_jet_ops,
)
from starq.poly import MultiIndex, Poly
from starq.scalars import GaussianRational

from helpers import (
    canonical_poisson_entries,
    christoffel_oracle,
    det2_n2_map,
    f_tensors,
    n3_triangular_connection,
    nontriangular_n2_connection,
    nontriangular_n2_map,
    poly_to_sympy,
    random_nontriangular_map,
    random_triangular_map,
    sympy_to_poly,
    symplectic_form_entries,
    whole_covariant_jet_ops,
    whole_symmetric_jet_ops,
)


def q_poly(n, j):
    return Poly.coordinate(n, j)


def random_flat_connection(n, rng, cubic=False):
    """The pull-back along a random triangular polynomial map."""
    return flat_connection_from_diffeo(random_triangular_map(n, rng, cubic))


# -- matrices ------------------------------------------------------------------

def test_canonical_matrices_are_inverse():
    n = 3
    p = canonical_poisson_entries(n)
    w = symplectic_form_entries(n)
    d = 2 * n
    for a in range(d):
        for b in range(d):
            acc = sum(v * w.get((mu, b), 0) for (a2, mu), v in p.items() if a2 == a)
            assert acc == (1 if a == b else 0)


# -- flat connections from coordinate maps ----------------------------------------

def test_identity_map_gives_zero_connection():
    targets = [Poly.coordinate(2, j) for j in range(2)]
    assert flat_connection_from_diffeo(targets).is_zero()


def test_quadratic_map_hand_value():
    x0, x1 = (Poly.coordinate(2, j) for j in range(2))
    conn = flat_connection_from_diffeo([x0, x1 + x0 * x0])
    assert conn.christoffel(1, 0, 0) == Poly.const(2, 2)
    assert conn.christoffel(0, 0, 0).is_zero()
    assert is_flat(conn)


def sympy_pullback(targets):
    """The connection `christoffel_oracle` pulls back along `targets`."""
    n = len(targets)
    syms = sp.symbols([f"x{j}" for j in range(n)])
    oracle = christoffel_oracle([poly_to_sympy(t, syms) for t in targets], syms)
    return Connection(n, {key: sympy_to_poly(expr, syms, n) for key, expr in oracle.items()})


def test_diffeo_accepts_exactly_the_nonzero_constant_determinants():
    x0, x1 = (Poly.coordinate(2, j) for j in range(2))
    # not triangular, det 1
    upper = [x0 + x1 * x1, x1]
    assert flat_connection_from_diffeo(upper) == sympy_pullback(upper)
    # linear, det 2: the zero connection
    assert flat_connection_from_diffeo([x0.scale(2), x1]).is_zero()
    with pytest.raises(InvalidArgument, match="det Dphi = 0 is not a nonzero constant"):
        flat_connection_from_diffeo([x0 + x1, x0 + x1])
    with pytest.raises(InvalidArgument, match="is not a nonzero constant"):
        flat_connection_from_diffeo([Poly.coordinate(1, 0) + Poly.coordinate(1, 0) ** 2])


def test_inverse_jacobian_is_the_adjugate_over_the_determinant():
    rng = random.Random(7)
    cases = [(det2_n2_map(), 2), (random_nontriangular_map(3, rng), 1),
             (random_triangular_map(4, rng, cubic=True), 1)]
    for phi, det in cases:
        n = len(phi)
        jac = [[t.diff_coord(b) for b in range(n)] for t in phi]
        assert determinant(jac, n) == Poly.const(n, det)
        inv = inverse_jacobian(phi)
        for a, b in itertools.product(range(n), repeat=2):
            entry = sum((jac[a][c] * inv[c][b] for c in range(n)), Poly.zero(n))
            assert entry == Poly.const(n, 1 if a == b else 0)
    with pytest.raises(DimensionMismatch):
        inverse_jacobian([])
    with pytest.raises(DimensionMismatch):
        inverse_jacobian([Poly.coordinate(2, 0), Poly.coordinate(3, 1)])


def test_diffeo_connection_matches_sympy_oracle():
    # at n = 4 the inverse Jacobian has products of three entries
    for n in (3, 4):
        rng = random.Random(11)
        syms = sp.symbols([f"x{j}" for j in range(n)])
        for _ in range(3):
            coeffs = [[rng.randint(-2, 2) for _ in range(a)] for a in range(n)]
            targets = []
            sym_targets = []
            for a in range(n):
                t = Poly.coordinate(n, a)
                ts = syms[a]
                for b, c in enumerate(coeffs[a]):
                    t = t + (Poly.coordinate(n, b) ** 2).scale(c)
                    ts = ts + c * syms[b] ** 2
                targets.append(t)
                sym_targets.append(ts)
            conn = flat_connection_from_diffeo(targets)
            oracle = christoffel_oracle(sym_targets, syms)
            for key, expr in oracle.items():
                assert conn.christoffel(*key) == sympy_to_poly(expr, syms, n)
    # maps with Jacobian entries on both sides of the diagonal, and one
    # whose determinant is 2
    rng = random.Random(3)
    maps = [random_nontriangular_map(n, rng) for n in (2, 2, 3, 3)]
    for phi in maps:
        n = len(phi)
        jac = [[t.diff_coord(b) for b in range(n)] for t in phi]
        assert any(jac[a][b] for a in range(n) for b in range(a))
        assert any(jac[a][b] for a in range(n) for b in range(a + 1, n))
    for phi in [*maps, nontriangular_n2_map(), det2_n2_map()]:
        conn = flat_connection_from_diffeo(phi)
        assert conn == sympy_pullback(phi)
        assert is_flat(conn)


def test_curvature_of_diffeo_connection_vanishes():
    rng = random.Random(5)
    for n in (2, 3):
        conn = random_flat_connection(n, rng, cubic=True)
        assert is_flat(conn)


def test_one_dim_always_flat():
    gamma = Poly.const(1, 1) + Poly.coordinate(1, 0) ** 2
    conn = Connection.one_dim(gamma)
    assert is_flat(conn)


def test_symbol_symmetry_enforced():
    b = Poly.const(2, 1)
    with pytest.raises(InvalidArgument):
        Connection(2, {(0, 0, 1): b})  # missing the (0,1,0) mirror


# -- curvature ---------------------------------------------------------------------

def test_zero_connection_curvature():
    assert curvature(Connection.zero(2)) == {}


def test_curved_connection_detected_and_matches_oracle():
    # G^0_(00) = x1 is curved: sympy cross-check of every component
    conn = Connection(2, {(0, 0, 0): Poly.coordinate(2, 1)})
    riem = curvature(conn)
    assert not is_flat(conn)
    syms = sp.symbols(["x0", "x1"])
    g = [[[sp.Integer(0)] * 2 for _ in range(2)] for _ in range(2)]
    g[0][0][0] = syms[1]
    for rho, sigma, mu, nu in itertools.product(range(2), repeat=4):
        expect = (
            sp.diff(g[rho][nu][sigma], syms[mu])
            - sp.diff(g[rho][mu][sigma], syms[nu])
            + sum(
                g[rho][mu][lam] * g[lam][nu][sigma]
                - g[rho][nu][lam] * g[lam][mu][sigma]
                for lam in range(2)
            )
        )
        got = riem.get((rho, sigma, mu, nu), Poly.zero(2))
        assert got == sympy_to_poly(sp.expand(expect), syms, 2)


# -- the lift ---------------------------------------------------------------------

def test_lift_zero():
    assert not lift_connection(Connection.zero(2))._lowered


def test_lift_of_curved_base_is_rejected():
    # the momentum family of the lift is symmetric only when the base is flat
    curved = Connection(2, {(0, 0, 0): Poly.coordinate(2, 1)})
    assert not is_flat(curved)
    with pytest.raises(NonFlatConnection, match="curved"):
        lift_connection(curved)


def test_lift_one_dim_hand_values():
    gamma = Poly.coordinate(1, 0)  # symbol q
    lifted = lift_connection(Connection.one_dim(gamma))
    d = 2
    q = Poly.coordinate(d, 0)
    p = Poly.coordinate(d, 1)
    assert lifted.christoffel(0, 0, 0) == q
    assert lifted.christoffel(1, 1, 0) == -q
    assert lifted.christoffel(1, 0, 1) == -q
    # momentum family: p(2 gamma^2 - gamma')
    assert lifted.christoffel(1, 0, 0) == p * ((q * q).scale(2) - Poly.const(d, 1))


def test_lift_is_flat_and_symmetric_for_flat_bases():
    rng = random.Random(23)
    conns = [
        Connection.one_dim(Poly.coordinate(1, 0)),
        Connection.one_dim(Poly.const(1, 1) + Poly.coordinate(1, 0) ** 2),
        random_flat_connection(2, rng, cubic=True),
    ]
    for conn in conns:
        lifted = lift_connection(conn)
        assert is_flat(lifted)
        # lowered symbols totally symmetric
        d = lifted.dim
        for idx in itertools.product(range(d), repeat=3):
            val = lifted.lowered(*idx)
            for perm in itertools.permutations(idx):
                assert lifted.lowered(*perm) == val


# -- symplectic spec ----------------------------------------------------------------

def _random_spec(n, rng, a=GaussianRational(0), deg=2):
    d = 2 * n
    comps = {}
    from starq.products import monomials_up_to

    for key in itertools.combinations_with_replacement(range(d), 3):
        terms = {}
        for mi in monomials_up_to(d, deg):
            v = rng.randint(-2, 2)
            if v:
                terms[mi] = GaussianRational(Fraction(v, rng.randint(1, 3)))
        comps[key] = Poly(d, terms)
    return SymplecticConnectionSpec.from_symmetric_components(n, comps, a)


def test_spec_symmetry_enforced():
    d = 2
    with pytest.raises(InvalidArgument):
        SymplecticConnectionSpec(
            1, {(0, 0, 1): Poly.const(d, 1)}  # no symmetric partners
        )


def test_spec_raise_lower_round_trip():
    rng = random.Random(3)
    spec = _random_spec(1, rng)
    d = 2
    omega = symplectic_form_entries(1)
    for idx in itertools.product(range(d), repeat=3):
        re_lowered = Poly.zero(d)
        for (al, de), v in omega.items():
            if al == idx[0]:
                re_lowered = re_lowered + spec.christoffel(de, idx[1], idx[2]).scale(v)
        assert re_lowered == spec.lowered(*idx)


def test_lifted_to_spec_round_trip():
    # the lift is a spec of weight 0 whose raised symbols lower back to it
    for conn in (
        Connection.one_dim(Poly.coordinate(1, 0)),
        random_flat_connection(2, random.Random(4), cubic=True),
    ):
        spec = lift_connection(conn)
        assert type(spec) is SymplecticConnectionSpec and spec.a == GaussianRational(0)
        d = spec.dim
        omega = symplectic_form_entries(conn.n)
        for idx in itertools.product(range(d), repeat=3):
            re_lowered = Poly.zero(d)
            for (al, de), v in omega.items():
                if al == idx[0]:
                    re_lowered = re_lowered + spec.christoffel(de, idx[1], idx[2]).scale(v)
            assert re_lowered == spec.lowered(*idx)


def test_ricci_zero_for_zero_and_constant_hand_value():
    spec0 = SymplecticConnectionSpec(1, {})
    assert ricci(spec0) == {}
    # constant lowered symbols: only the quadratic terms contribute
    d = 2
    comps = {}
    rng = random.Random(9)
    for key in itertools.combinations_with_replacement(range(d), 3):
        comps[key] = Poly.const(d, rng.randint(-2, 2))
    spec = SymplecticConnectionSpec.from_symmetric_components(1, comps)
    ric = ricci(spec)
    for (mu, nu), val in ric.items():
        expect = Poly.zero(d)
        for al, lam in itertools.product(range(d), repeat=2):
            expect = expect + spec.christoffel(al, al, lam) * spec.christoffel(lam, nu, mu)
            expect = expect - spec.christoffel(al, nu, lam) * spec.christoffel(lam, al, mu)
        assert val == expect


def test_ricci_symmetric_for_random_specs():
    rng = random.Random(17)
    for _ in range(4):
        spec = _random_spec(1, rng)
        ric = ricci(spec)
        d = 2
        for mu in range(d):
            for nu in range(d):
                a = ric.get((mu, nu), Poly.zero(d))
                b = ric.get((nu, mu), Poly.zero(d))
                assert a == b


# -- f tensors --------------------------------------------------------------------

def test_f_tensor_base_case_is_symbol():
    conn = Connection.one_dim(Poly.coordinate(1, 0))
    fam = f_tensors(conn, 1)
    assert fam == [{(0, 0, 0): Poly.coordinate(1, 0)}]


def test_f_tensor_rank2_hand_value():
    # gamma' + gamma*gamma - gamma*gamma = gamma'
    gamma = Poly.coordinate(1, 0) ** 2
    conn = Connection.one_dim(gamma)
    fam = f_tensors(conn, 2)
    assert fam[1] == {(0, 0, 0, 0): gamma.diff_coord(0)}


def test_f_tensors_zero_connection():
    assert f_tensors(Connection.zero(2), 3) == [{}, {}, {}]


def test_f_tensor_recursion_self_consistency():
    n = 2
    zero = Poly.zero(n)
    for conn in (random_flat_connection(2, random.Random(31), cubic=True),
                 nontriangular_n2_connection()):
        fam = f_tensors(conn, 3)
        for rank in (2, 3):
            prev, this = fam[rank - 2], fam[rank - 1]
            assert all(not val.is_zero() for val in this.values())
            for l in range(n):
                for lowers in itertools.product(range(n), repeat=rank):
                    *first, new = lowers
                    first = tuple(first)
                    for i in range(n):
                        expect = prev.get((l, *first, i), zero).diff_coord(new)
                        for j in range(n):
                            expect = expect + conn.christoffel(l, new, j) * prev.get(
                                (j, *first, i), zero
                            )
                            for s in range(rank - 1):
                                expect = expect - conn.christoffel(
                                    j, first[s], new
                                ) * prev.get((l, *first[:s], j, *first[s + 1 :], i), zero)
                        assert this.get((l, *lowers, i), zero) == expect


# -- covariant jets -----------------------------------------------------------------

def test_rank1_jet_is_gradient():
    conn = lift_connection(Connection.one_dim(Poly.coordinate(1, 0)))
    f = Poly.coordinate(2, 0) ** 2 * Poly.coordinate(2, 1)
    jets = covariant_jet_ops(conn, 1)
    assert jets[(0,)].apply(f) == f.diff_coord(0)
    assert jets[(1,)].apply(f) == f.diff_coord(1)


def test_rank2_jet_of_coordinates_gives_symbols():
    conn = Connection.one_dim(Poly.coordinate(1, 0))
    lifted = lift_connection(conn)
    d = 2
    # base-base components of the second jet of a configuration coordinate
    # equal the negated symbol, matching the base-manifold jet
    jets = covariant_jet_ops(lifted, 2)
    q_00 = jets[(0, 0)].apply(Poly.coordinate(d, 0))
    assert q_00 == -Poly.coordinate(d, 0)
    base_jets = covariant_jet_ops(conn, 2)
    assert base_jets[(0, 0)].apply(Poly.coordinate(1, 0)).embed(d) == q_00
    # momentum second jet at (bar l, i) equals the rank-1 tensor
    fam = f_tensors(conn, 1)
    assert jets[(1, 0)].apply(Poly.coordinate(d, 1)) == fam[0][(0, 0, 0)].embed(d)


def test_momentum_jet_base_components_match_tensor_formula():
    # all-base components of the momentum jets reduce to tensor-family
    # combinations, linear in the momenta
    conn = Connection.one_dim(Poly.const(1, 1) + Poly.coordinate(1, 0) ** 2)
    lifted = lift_connection(conn)
    d = 2
    n = 1
    fam = f_tensors(conn, 3)

    def f_comp(rank, l, lowers, i):
        if rank == 0:
            return Poly.const(n, 1) if l == i else Poly.zero(n)
        return fam[rank - 1].get((l, *lowers, i), Poly.zero(n))

    for rank in (2, 3):
        jets = covariant_jet_ops(lifted, rank)
        for lowers in itertools.product(range(n), repeat=rank):
            expect = Poly.zero(d)
            for l in range(n):
                inner = f_comp(rank, l, lowers, 0)
                for s in range(rank):
                    for j in range(n):
                        inner = inner - conn.christoffel(l, j, lowers[s]) * f_comp(
                            rank - 1, j, lowers[:s] + lowers[s + 1 :], 0
                        )
                expect = expect + Poly.coordinate(d, n + l) * inner.embed(d)
            assert jets[lowers].apply(Poly.coordinate(d, n)) == expect  # p_1


def test_mixed_jet_recursion_hand_check():
    # second jet with one base and one momentum index picks up a symbol
    # correction on the momentum slot
    gamma = Poly.coordinate(1, 0)
    conn = Connection.one_dim(gamma)
    lifted = lift_connection(conn)
    d = 2
    g = Poly.coordinate(d, 0) ** 2 * Poly.coordinate(d, 1) ** 2
    q = Poly.coordinate(d, 0)
    expect = g.diff_coord(0).diff_coord(1) + q * g.diff_coord(1)
    assert covariant_jet_ops(lifted, 2)[(0, 1)].apply(g) == expect


def test_jet_symmetry_for_flat_connections():
    rng = random.Random(41)
    conn = random_flat_connection(2, rng)
    lifted = lift_connection(conn)
    d = 4
    f = (
        Poly.coordinate(d, 0) * Poly.coordinate(d, 2)
        + Poly.coordinate(d, 1) ** 2 * Poly.coordinate(d, 3)
    )
    for rank in (2, 3):
        jets = covariant_jet_ops(lifted, rank)
        for idx in itertools.product(range(d), repeat=rank):
            for perm in itertools.permutations(idx):
                assert jets[idx].apply(f) == jets[perm].apply(f)
    # the operators themselves, which the symmetric pairing kernel looks up
    # by sorted index tuple
    for rank in (2, 3, 4):
        ops = covariant_jet_ops(lifted, rank)
        for idx in itertools.product(range(d), repeat=rank):
            for perm in itertools.permutations(idx):
                assert ops[idx] == ops[perm]


def test_rank2_jet_symmetry_for_curved_symplectic_connection():
    spec = _random_spec(1, random.Random(5))
    assert ricci(spec), "the case must be curved"
    ops = covariant_jet_ops(spec, 2)
    for mu, nu in itertools.product(range(spec.dim), repeat=2):
        assert ops[(mu, nu)] == ops[(nu, mu)]


@pytest.mark.parametrize(
    "case",
    [
        lambda: (lift_connection(Connection.one_dim(Poly.const(1, 1) + q_poly(1, 0) ** 2)), 6),
        lambda: (lift_connection(random_flat_connection(2, random.Random(6), cubic=True)), 4),
        lambda: (_random_spec(1, random.Random(5)), 2),
    ],
    ids=["flat-lift-n1-rank6", "flat-lift-n2-rank4", "curved-spec-rank2"],
)
def test_symmetric_jet_table_matches_ordered_recursion(case):
    conn, order = case()
    table = symmetric_jet_ops(conn, order)
    keys = [
        t
        for rank in range(order + 1)
        for t in itertools.combinations_with_replacement(range(conn.dim), rank)
    ]
    assert sorted(table) == sorted(keys)
    for rank in range(order + 1):
        ordered = covariant_jet_ops(conn, rank)
        for t in itertools.combinations_with_replacement(range(conn.dim), rank):
            assert table[t] == ordered[t], f"jet {t} differs from the ordered recursion"


@pytest.mark.parametrize(
    "case",
    [
        lambda: (lift_connection(Connection.one_dim(Poly.const(1, 1) + q_poly(1, 0) ** 2)), 6),
        lambda: (lift_connection(random_flat_connection(2, random.Random(6), cubic=True)), 4),
        lambda: (lift_connection(n3_triangular_connection()), 4),
        lambda: (lift_connection(nontriangular_n2_connection()), 5),
        lambda: (_random_spec(1, random.Random(5)), 2),
    ],
    ids=["flat-lift-n1-rank6", "flat-lift-n2-rank4", "n3-triangular-rank4",
         "nontriangular-rank5", "curved-spec-rank2"],
)
def test_jet_tables_match_whole_object_recursion(case):
    # the raw jet step against d_mu0 o J - sum Gamma J in whole DiffOps
    conn, order = case()
    assert symmetric_jet_ops(conn, order) == whole_symmetric_jet_ops(conn, order)
    rank = min(order, 3)
    assert covariant_jet_ops(conn, rank) == whole_covariant_jet_ops(conn, rank)


def test_jet_dimension_mismatch():
    conn = lift_connection(Connection.one_dim(Poly.coordinate(1, 0)))
    with pytest.raises(DimensionMismatch):
        covariant_jet_ops(conn, 1)[(0,)].apply(Poly.coordinate(3, 0))
