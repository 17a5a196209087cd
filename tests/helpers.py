"""Independent reference implementations used as test oracles.

The sympy oracles go through symbolic differentiation and exact
rationals, sharing no code with the package under test.  The ordered
pairing builders are the product constructions the symmetric pairing
kernel replaced, the term-scan functions are the operator application,
associativity loop and intertwining check that the sub-index
application and the bilinear expansions of `check_axioms` and
`verify_intertwining` over one monomial-pair table per call replaced,
and `rearrangement_loop_order4` and `index_loop_order2` are the
flat-cotangent closed forms written as nested index loops (order 4
before its rearrangement sums were folded into one sum per index
multiset); all are kept to gate the new code on exact equality.
`parity_reduced_rhs` is the paper's one-sided even-order right-hand side
of a parity product, the expected value of the general one there.
`recursive_monomials_up_to` is the monomial basis enumerated one
coordinate per recursion level, as before it was made iterative.
The whole-object builders (`whole_*`, `tensor`, `premultiply`) are the
composition, jet recursions and pairing loop written with one `Poly` or
`DiffOp` operation per term, as they were before the builders added raw
term maps; they gate the raw builders on structural equality.
`whole_pairing_operators` also sums every multiset of Poisson entries,
not one of each mirror pair, with its weight formed from the whole
multiset (`multiset_weight`); `whole_moyal_operators`, its pairing of
partial-derivative jets, is the reference of the Moyal builder, which
forms each multiset's derivative keys and weight from its prefix.  The
`oracle_*_json` functions are the JSON codecs as written before
serialization sorted once per operator and formatted each part from the
stored integers; they gate the codecs on byte identity.
`merged_scalar_json` is the writer as it was before each serialization
call kept one written copy of every distinct coefficient: every term
merges its own `GaussianRational.to_json()` into its entry.

The flat-chart oracle (`chart_mismatches`, with `cotangent_chart`)
checks the natural product of a pulled-back flat connection against the
Moyal product itself: for a polynomial map phi whose Jacobian
determinant is a nonzero constant and its cotangent lift
Phi(q, p) = (phi(q), Dphi(q)^-T p), every C_k(Phi*u, Phi*v) must equal
Phi*(M_k(u, v)), with Dphi^-1 taken from `geometry.inverse_jacobian`, the
adjugate over the determinant, so that every pull-back is a polynomial.
`closed_form_slot_ops` and the tensor family `f_tensors` it reads are the
closed-form coordinate slots of the natural product, a second route to
`C_k.coordinate_slots()` that the library no longer carries.
"""

import itertools
from fractions import Fraction
from math import factorial
from typing import Dict, Tuple

import sympy as sp

from starq.errors import NonFlatConnection
from starq.geometry import (
    flat_connection_from_diffeo,
    inverse_jacobian,
    is_flat,
    lift_connection,
    ricci,
    symmetric_jet_ops,
)
from starq.operators import BiDiffOp, DiffOp, _acc_poly
from starq.poly import MultiIndex, Poly
from starq.products import (
    CheckEntry,
    CheckReport,
    PoissonTensor,
    StarProduct,
    monomials_up_to,
    moyal_product,
)
from starq.scalars import HALF_I, I as IMAG, GaussianRational


def symplectic_form_entries(n):
    """Nonzero entries of the inverse of the canonical Poisson matrix, the
    symplectic form that lowers a raised symbol's upper index."""
    entries = {}
    for i in range(n):
        entries[(i, n + i)] = -1
        entries[(n + i, i)] = 1
    return entries


def phase_symbols(n, casimir=0):
    names = (
        [f"q{j + 1}" for j in range(n)]
        + [f"p{j + 1}" for j in range(n)]
        + [f"c{j + 1}" for j in range(casimir)]
    )
    return sp.symbols(names)


def poly_to_sympy(poly: Poly, syms):
    expr = sp.Integer(0)
    for mi, coeff in poly.terms():
        term = sp.Rational(coeff.re.numerator, coeff.re.denominator) + sp.I * sp.Rational(
            coeff.im.numerator, coeff.im.denominator
        )
        for coord, e in mi.pairs:
            term *= syms[coord] ** e
        expr += term
    return sp.expand(expr)


def sympy_to_poly(expr, syms, dim=None):
    if dim is None:
        dim = len(syms)
    expr = sp.expand(expr)
    poly = Poly.zero(dim)
    terms = expr.as_ordered_terms() if expr != 0 else []
    for term in terms:
        coeff = term
        exps = {}
        for j, s in enumerate(syms):
            e = sp.degree(term, s) if term.has(s) else 0
            if e:
                exps[j] = int(e)
                coeff = coeff / s ** e
        coeff = sp.simplify(coeff)
        re, im = coeff.as_real_imag()
        gr = GaussianRational(
            Fraction(int(sp.numer(re)), int(sp.denom(re))),
            Fraction(int(sp.numer(im)), int(sp.denom(im))),
        )
        poly = poly + Poly.monomial(dim, MultiIndex(exps), gr)
    return poly


def canonical_pairs(n):
    """(mu, nu, value) entries of the canonical Poisson matrix."""
    out = []
    for i in range(n):
        out.append((i, n + i, 1))
        out.append((n + i, i, -1))
    return out


def canonical_poisson_entries(n):
    """The canonical Poisson matrix as written by hand, the oracle of
    `PoissonTensor.canonical`: the block ((0, I), (-I, 0)) on the first 2n
    coordinates, as (mu, nu) -> value."""
    return {(mu, nu): v for mu, nu, v in canonical_pairs(n)}


def moyal_oracle(f_expr, g_expr, syms, n, order):
    """Brute-force Moyal product, one sympy expression per order."""
    pairs = canonical_pairs(n)
    out = []
    for k in range(order + 1):
        acc = sp.Integer(0)
        factor = sp.Rational(1, sp.factorial(k)) * (sp.I / 2) ** k
        for combo in itertools.product(pairs, repeat=k):
            value = sp.Integer(1)
            df, dg = f_expr, g_expr
            for mu, nu, v in combo:
                value *= v
                df = sp.diff(df, syms[mu])
                dg = sp.diff(dg, syms[nu])
            if df == 0 or dg == 0:
                continue
            acc += value * df * dg
        out.append(sp.expand(factor * acc))
    return out


def poisson_bracket_oracle(f_expr, g_expr, syms, n):
    acc = sp.Integer(0)
    for mu, nu, v in canonical_pairs(n):
        acc += v * sp.diff(f_expr, syms[mu]) * sp.diff(g_expr, syms[nu])
    return sp.expand(acc)


def christoffel_oracle(targets, syms):
    """Pullback symbols (dx/dy)^i_a d2 y^a / dx^j dx^k via sympy matrices."""
    n = len(targets)
    jac = sp.Matrix([[sp.diff(targets[a], syms[b]) for b in range(n)] for a in range(n)])
    inv = jac.inv()
    gamma = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = sp.Integer(0)
                for a in range(n):
                    acc += inv[i, a] * sp.diff(targets[a], syms[j], syms[k])
                gamma[(i, j, k)] = sp.expand(acc)
    return gamma


def nontriangular_n2_map():
    """(q0 + (q1 + q0^2)^2, q1 + q0^2): det Dphi = 1, not triangular."""
    q0, q1 = Poly.coordinate(2, 0), Poly.coordinate(2, 1)
    inner = q1 + q0 ** 2
    return [q0 + inner ** 2, inner]


def nontriangular_n2_connection():
    """A flat n = 2 connection that no triangular map pulls back, the
    pull-back along `nontriangular_n2_map`: its symbol matrices are not
    simultaneously nilpotent, so trace terms such as G(i,l,a) G(l,i,b)
    contribute."""
    return flat_connection_from_diffeo(nontriangular_n2_map())


def det2_n2_map():
    """(2 q0 + q1^2, q1): det Dphi = 2, so a missing division by the
    determinant shows."""
    q0, q1 = Poly.coordinate(2, 0), Poly.coordinate(2, 1)
    return [q0.scale(2) + q1 ** 2, q1]


def n3_triangular_map():
    """(q0, q1 + q0^2, q2 + q1^2 + q0^3)."""
    x0, x1, x2 = (Poly.coordinate(3, j) for j in range(3))
    return [x0, x1 + x0 ** 2, x2 + x1 ** 2 + x0 ** 3]


def n3_triangular_connection():
    """The flat n = 3 connection pulled back along `n3_triangular_map`."""
    return flat_connection_from_diffeo(n3_triangular_map())


def random_triangular_map(n, rng, cubic=False):
    """A triangular polynomial map with random lower-triangular parts:
    component a is q_a plus c q_b^2 (and, when `cubic`, c' q_b^3) for each
    earlier b."""
    targets = []
    for a in range(n):
        t = Poly.coordinate(n, a)
        for b in range(a):
            c1 = rng.randint(-2, 2)
            if c1:
                t = t + (Poly.coordinate(n, b) ** 2).scale(c1)
            if cubic:
                c2 = rng.randint(-1, 1)
                if c2:
                    t = t + (Poly.coordinate(n, b) ** 3).scale(c2)
        targets.append(t)
    return targets


def random_nontriangular_map(n, rng):
    """U o L for a lower-triangular L, whose component a is q_a plus
    c q_b^2 for each earlier b, and an upper-triangular U, whose component
    a is y_a plus c y_b^2 for each later b, every c drawn from
    {-2, -1, 1, 2}: det Dphi = 1, and for n >= 2 the Jacobian has entries
    above and below the diagonal.  `nontriangular_n2_map` is the n = 2
    draw with both c = 1."""
    q = [Poly.coordinate(n, a) for a in range(n)]

    def squares(ys, coords):
        return sum(((ys[b] ** 2).scale(rng.choice((-2, -1, 1, 2))) for b in coords), Poly.zero(n))

    lower = [q[a] + squares(q, range(a)) for a in range(n)]
    return [lower[a] + squares(lower, range(a + 1, n)) for a in range(n)]


# -- the flat-chart oracle ----------------------------------------------------------------


def cotangent_chart(phi, inv):
    """The 2n components of Phi(q, p) = (phi(q), inv^T p) on phase space:
    momentum component j is sum_i inv[i][j] p_i.  With
    inv = geometry.inverse_jacobian(phi) this is the cotangent lift of
    phi, whose momenta are Dphi^-T p."""
    n = len(phi)
    d = 2 * n
    momenta = [
        sum((Poly.coordinate(d, n + i) * inv[i][j].embed(d) for i in range(n)), Poly.zero(d))
        for j in range(n)
    ]
    return [t.embed(d) for t in phi] + momenta


def chart_mismatches(product, chart, max_degree):
    """(k, u, v) for every order k <= product.order and every pair of
    monomials u, v of total degree <= max_degree with

        C_k(Phi*u, Phi*v) != Phi*(M_k(u, v)),

    where C is the product under test, M the Moyal product and Phi* the
    substitution of the chart's components for the coordinates.  Empty
    exactly when, on that basis, the product is Moyal pulled back along
    the chart.  Pulled-back monomials are memoised, one product with a
    chart component each.
    """
    d = product.dim
    moyal = moyal_product(PoissonTensor.canonical(d // 2), product.order)
    pulled = {MultiIndex({}): Poly.const(d, 1)}

    def pull_monomial(m):
        if m not in pulled:
            c = m.max_coord()
            pulled[m] = pull_monomial(m.decrement(c)) * chart[c]
        return pulled[m]

    def pull(poly):
        return sum((pull_monomial(m).scale(c) for m, c in poly.terms()), Poly.zero(d))

    basis = monomials_up_to(d, max_degree)
    out = []
    for u, v in itertools.product(basis, repeat=2):
        if u.degree + v.degree > max_degree:
            continue
        fu, fv = pull_monomial(u), pull_monomial(v)
        mu, mv = Poly.monomial(d, u), Poly.monomial(d, v)
        for k in range(product.order + 1):
            if product.C[k].apply(fu, fv) != pull(moyal.C[k].apply(mu, mv)):
                out.append((k, u, v))
    return out


def ordered_pairing_operators(p, jets, order):
    """C_0..C_order as the sum over all ordered k-tuples of Poisson entries,

        C_k = (i/2)^k / k! sum prod P^(mu_e nu_e) J(mu_1..mu_k) (x) J(nu_1..nu_k),

    with `jets(k)` mapping an ordered rank-k index tuple to its jet operator.
    No symmetry of the jets is assumed.
    """
    d = p.dim
    entries = p.constant_entries()
    C = [BiDiffOp.multiplication(d)]
    for k in range(1, order + 1):
        jet = jets(k)
        factor = (HALF_I ** k) * GaussianRational(Fraction(1, factorial(k)))
        acc = BiDiffOp.zero(d)
        for combo in itertools.product(entries, repeat=k):
            v = factor
            for _, _, val in combo:
                v = v * val
            left = jet(tuple(mu for mu, _, _ in combo))
            right = jet(tuple(nu for _, nu, _ in combo))
            acc = acc + tensor(left, right).scale(v)
        C.append(acc)
    return C


# -- whole-object builders ------------------------------------------------------------


def tensor(a, b):
    """The bidifferential operator (f, g) -> a(f) * b(g), one Poly
    product per pair of terms."""
    acc = {}
    for li, pa in a._terms.items():
        for ri, pb in b._terms.items():
            _acc_poly(acc, (li, ri), pa * pb)
    return BiDiffOp(a.dim, acc)


def whole_compose(a, b):
    """a o b by the generalized Leibniz rule, one Poly derivative, product
    and sum per split of every pair of terms."""
    acc = {}
    for i_idx, pa in a._terms.items():
        for j_idx, pb in b._terms.items():
            for k_idx in i_idx.sub_indices():
                db = pb.diff(k_idx)
                if db.is_zero():
                    continue
                contrib = (pa * db).scale(i_idx.binomial(k_idx))
                _acc_poly(acc, i_idx.subtract(k_idx) + j_idx, contrib)
    return DiffOp(a.dim, acc)


def premultiply(op, poly):
    """Every coefficient of `op` multiplied by `poly` on the left."""
    return DiffOp(op.dim, {mi: poly * p for mi, p in op._terms.items()})


def _whole_jet(conn, jets, mu0, idx, canon):
    new = whole_compose(DiffOp.partial(conn.dim, mu0), jets[idx])
    for s, mus in enumerate(idx):
        for lam in range(conn.dim):
            sym = conn.christoffel(lam, mu0, mus)
            if not sym.is_zero():
                new = new - premultiply(jets[canon(idx[:s] + (lam,) + idx[s + 1:])], sym)
    return new


def whole_covariant_jet_ops(conn, rank):
    """The ordered jet recursion of `covariant_jet_ops` in whole objects."""
    jets = {(): DiffOp.identity(conn.dim)}
    for _ in range(rank):
        jets = {
            (mu0,) + idx: _whole_jet(conn, jets, mu0, idx, tuple)
            for idx in jets
            for mu0 in range(conn.dim)
        }
    return jets


def whole_symmetric_jet_ops(conn, order):
    """The sorted-index jet table of `symmetric_jet_ops` in whole objects."""
    jets = {(): DiffOp.identity(conn.dim)}
    for rank in range(1, order + 1):
        for t in itertools.combinations_with_replacement(range(conn.dim), rank):
            jets[t] = _whole_jet(conn, jets, t[0], t[1:], lambda r: tuple(sorted(r)))
    return jets


def multiset_weight(combo):
    """(i/2)^k prod v_e / prod m_e! of a sorted multiset of k Poisson
    entries (mu, nu, v), m_e the multiplicity of each distinct entry."""
    repeats = 1
    for _, run in itertools.groupby(combo):
        repeats *= factorial(len(list(run)))
    v = (HALF_I ** len(combo)) * GaussianRational(Fraction(1, repeats))
    for _, _, val in combo:
        v = v * val
    return v


def whole_pairing_operators(p, jet, order):
    """C_0..C_order summed once per multiset of Poisson entries, one
    `(pa * pb).scale(v)` per pair of jet terms."""
    d = p.dim
    entries = p.constant_entries()
    C = [BiDiffOp.multiplication(d)]
    for k in range(1, order + 1):
        acc = {}
        for combo in itertools.combinations_with_replacement(entries, k):
            v = multiset_weight(combo)
            left = jet(tuple(sorted(mu for mu, _, _ in combo)))
            right = jet(tuple(sorted(nu for _, nu, _ in combo)))
            for li, pa in left._terms.items():
                for ri, pb in right._terms.items():
                    _acc_poly(acc, (li, ri), (pa * pb).scale(v))
        C.append(BiDiffOp(d, acc))
    return C


def whole_moyal_operators(p, order):
    return whole_pairing_operators(
        p, lambda idx: DiffOp.derivative(p.dim, MultiIndex.of(*idx)), order
    )


def whole_vector_field_operators(frame, p, order):
    comp = {(): DiffOp.identity(p.dim)}

    def composed(key):
        if key not in comp:
            comp[key] = whole_compose(frame.fields[key[0]], composed(key[1:]))
        return comp[key]

    return whole_pairing_operators(p, composed, order)


def whole_natural_operators(conn, order):
    jets = whole_symmetric_jet_ops(lift_connection(conn), order)
    return whole_pairing_operators(PoissonTensor.canonical(conn.n), jets.__getitem__, order)


def whole_symplectic_operators(spec):
    p = PoissonTensor.canonical(spec.n)
    C = whole_pairing_operators(p, whole_symmetric_jet_ops(spec, 2).__getitem__, 2)
    C[2] = C[2] + ordered_ricci_term(spec, p)
    return C


def ordered_ricci_term(spec, p):
    """-a (i/2)^2 / 2! sum over ordered entry pairs of
    P^(mu1 nu1) P^(mu2 nu2) R_(mu1 mu2) d_nu1 (x) d_nu2."""
    d = spec.dim
    ric = ricci(spec)
    factor = (HALF_I ** 2) * GaussianRational(Fraction(1, 2))
    acc = BiDiffOp.zero(d)
    for (mu1, nu1, v1), (mu2, nu2, v2) in itertools.product(p.constant_entries(), repeat=2):
        comp = ric.get((mu1, mu2))
        if comp is not None:
            term = {(MultiIndex.unit(nu1), MultiIndex.unit(nu2)): comp}
            acc = acc - BiDiffOp(d, term).scale(factor * v1 * v2 * spec.a)
    return acc


def term_scan_apply(op, f):
    """sum_I coeff_I d^I f, differentiating f once per operator term."""
    result = Poly.zero(op.dim)
    for mi, coeff in op.terms():
        d = f.diff(mi)
        if not d.is_zero():
            result = result + coeff * d
    return result


def term_scan_bi_apply(op, f, g):
    """sum_(I,J) coeff_(I,J) d^I f d^J g, scanning every operator term."""
    result = Poly.zero(op.dim)
    for (li, ri), coeff in op.terms():
        df = f.diff(li)
        if df.is_zero():
            continue
        dg = g.diff(ri)
        if dg.is_zero():
            continue
        result = result + coeff * df * dg
    return result


def term_scan_star(product, f, g):
    """Coefficient lists f and g multiplied by the product, truncated at
    its order: sum over l + a + b = m of C_l(f[a], g[b]), each product
    evaluated by term scan."""
    N = product.order
    out = []
    for m in range(N + 1):
        acc = Poly.zero(product.dim)
        for l in range(m + 1):
            for a in range(m - l + 1):
                acc = acc + term_scan_bi_apply(product.C[l], f[a], g[m - l - a])
        out.append(acc)
    return out


def recursive_monomials_up_to(dim, max_degree):
    """monomials_up_to by recursion over the coordinates, depth `dim`."""
    out = []

    def rec(coord, remaining, acc):
        if coord == dim:
            out.append(MultiIndex(dict(acc)))
            return
        for e in range(remaining + 1):
            if e:
                acc[coord] = e
            rec(coord + 1, remaining - e, acc)
            acc.pop(coord, None)

    rec(0, max_degree, {})
    out.sort(key=lambda m: m.grlex_key(dim))
    return out


def parity_reduced_rhs(s, lower, k):
    """F^alpha = sum over even l of C_l(x^alpha, T_(k-l) .), the left slot
    alone, for an even order k of a parity product."""
    out = [DiffOp.zero(s.dim)] * s.dim
    for l in range(2, k + 1, 2):
        for alpha, slot in enumerate(s.C[l].coordinate_slots()):
            out[alpha] = out[alpha] + slot.compose(lower[k - l])
    return out


def term_scan_check_axioms(s, max_degree=4):
    """check_axioms with every associator product evaluated directly by
    term scan on each triple, with no table."""
    d = s.dim
    entries = [
        CheckEntry(
            "bidifferential",
            True,
            f"{s.order + 1} operators of bounded order with polynomial coefficients",
        ),
        CheckEntry(
            "order0-multiplication",
            s.C[0] == BiDiffOp.multiplication(d),
            "order-0 operator must be pointwise multiplication",
        ),
    ]
    lhs = s.C[1] - s.C[1].swap() if s.order >= 1 else None
    ok = lhs == s.poisson.as_bidiff().scale(IMAG) if lhs is not None else False
    entries.append(
        CheckEntry(
            "bracket-leading-term",
            ok,
            "antisymmetric part of the order-1 operator must be i times the Poisson bivector",
        )
    )

    basis = monomials_up_to(d, max_degree)
    detail = f"monomial triples of total degree <= {max_degree}, orders <= {s.order}"
    assoc_ok = True
    triples = (
        (fm, gm, hm)
        for fm in basis
        for gm in basis
        if fm.degree + gm.degree <= max_degree
        for hm in basis
        if fm.degree + gm.degree + hm.degree <= max_degree
    )
    for fm, gm, hm in triples:
        fp, gp, hp = (Poly.monomial(d, m) for m in (fm, gm, hm))
        for k in range(s.order + 1):
            acc = Poly.zero(d)
            for l in range(k + 1):
                acc = acc + term_scan_bi_apply(s.C[l], term_scan_bi_apply(s.C[k - l], fp, gp), hp)
                acc = acc - term_scan_bi_apply(s.C[l], fp, term_scan_bi_apply(s.C[k - l], gp, hp))
            if not acc.is_zero():
                assoc_ok = False
                detail = f"failed at order {k} on ({fp}, {gp}, {hp}): residual {acc}"
                break
        if not assoc_ok:
            break
    entries.append(CheckEntry("associativity", assoc_ok, detail))

    entries.append(
        CheckEntry(
            "unit-annihilation",
            all(s.C[k].vanishes_on_constants() for k in range(1, s.order + 1)),
            "every positive-order operator must differentiate both slots",
        )
    )
    entries.append(
        CheckEntry(
            "parity",
            all(
                s.C[k].swap() == s.C[k].scale(GaussianRational((-1) ** k))
                for k in range(s.order + 1)
            ),
            "slot swap must rescale order k by (-1)^k",
        )
    )
    return CheckReport(
        "star-product-axioms",
        tuple(entries),
        {"max_degree": max_degree, "order": s.order, "dim": d},
    )



def term_scan_verify_intertwining(morphism, s, max_degree=4):
    """verify_intertwining with both sides of every product evaluated
    directly by term scan on each pair: T(f *_Moyal g) and T(f) *_s T(g),
    with no morphism image shared between checks."""
    d = s.dim
    N = s.order
    moyal = moyal_product(s.poisson, N)
    T = morphism.orders

    def morph(h):
        """T applied to the coefficient list h, truncated at order N."""
        out = []
        for m in range(N + 1):
            acc = Poly.zero(d)
            for j in range(min(m, len(T) - 1) + 1):
                acc = acc + term_scan_apply(T[j], h[m - j])
            out.append(acc)
        return out

    def series(f):
        return [f] + [Poly.zero(d)] * N

    def images(f):
        return [term_scan_apply(op, f) for op in T]

    def failure(f, g, fi, gi):
        """None when T(f *_Moyal g) == T(f) *_s T(g), else the residual text."""
        left = morph(term_scan_star(moyal, series(f), series(g)))
        right = term_scan_star(s, fi, gi)
        for k in range(N + 1):
            if left[k] != right[k]:
                return f" at order {k}: residual {left[k] - right[k]}"
        return None

    basis = monomials_up_to(d, max_degree)
    coord_failure = None
    checked = 0
    for alpha in range(d):
        x = Poly.coordinate(d, alpha)
        for fm in basis:
            f = Poly.monomial(d, fm)
            for label, a, b, ai, bi in (
                (f"coordinate {alpha} on {f}", x, f, series(x), images(f)),
                (f"{f} on coordinate {alpha}", f, x, images(f), series(x)),
            ):
                checked += 1
                residual = failure(a, b, ai, bi)
                if coord_failure is None and residual is not None:
                    coord_failure = label + residual
    entries = [
        CheckEntry(
            "coordinate-slots",
            coord_failure is None,
            f"{checked} one-sided products checked"
            + ("" if coord_failure is None else f"; first failure: {coord_failure}"),
        )
    ]
    pair_failure = None
    checked = 0
    for fm, gm in itertools.product(basis, repeat=2):
        if fm.degree + gm.degree > max_degree:
            continue
        f, g = Poly.monomial(d, fm), Poly.monomial(d, gm)
        checked += 1
        residual = failure(f, g, images(f), images(g))
        if pair_failure is None and residual is not None:
            pair_failure = f"({f}, {g})" + residual
    entries.append(
        CheckEntry(
            "monomial-pairs",
            pair_failure is None,
            f"{checked} pairs checked"
            + ("" if pair_failure is None else f"; first failure: {pair_failure}"),
        )
    )
    return CheckReport(
        "intertwining", tuple(entries), {"max_degree": max_degree, "order": N, "dim": d}
    )

def index_loop_order2(conn):
    """flat_cotangent_order2 as nested loops over every index."""
    n = conn.n
    d = 2 * n
    G = conn.christoffel
    acc: Dict[MultiIndex, Poly] = {}

    eighth = GaussianRational(Fraction(1, 8))
    tf = GaussianRational(Fraction(1, 24))

    for i, j, k in itertools.product(range(n), repeat=3):
        sym = G(i, j, k)
        if not sym.is_zero():
            _acc_poly(acc, MultiIndex.of(i, n + j, n + k), sym.embed(d).scale(eighth))

    for j, k in itertools.product(range(n), repeat=2):
        coeff = Poly.zero(n)
        for i, l in itertools.product(range(n), repeat=2):
            coeff = coeff + G(i, l, j) * G(l, i, k)
        if not coeff.is_zero():
            _acc_poly(acc, MultiIndex.of(n + j, n + k), coeff.embed(d).scale(eighth))

    for j, k, l in itertools.product(range(n), repeat=3):
        coeff = Poly.zero(d)
        for i in range(n):
            inner = Poly.zero(n)
            for m in range(n):
                inner = inner + (G(i, m, l) * G(m, j, k)).scale(2)
            inner = inner - G(i, j, k).diff_coord(l)
            if not inner.is_zero():
                coeff = coeff + Poly.coordinate(d, n + i) * inner.embed(d)
        if not coeff.is_zero():
            _acc_poly(acc, MultiIndex.of(n + j, n + k, n + l), coeff.scale(tf))

    return DiffOp(d, acc)


def rearrangement_loop_order4(conn, cycl_mode="permutations"):
    """flat_cotangent_order4 as the per-tuple rearrangement loop: every
    ordered tuple of momentum indices adds the bracket of each of its
    permutations (or rotations), with the printed weights unscaled."""
    if cycl_mode not in ("rotations", "permutations"):
        raise ValueError("cycl_mode must be 'rotations' or 'permutations'")
    n = conn.n
    d = 2 * n
    G = conn.christoffel
    rng = range(n)

    def D(p: Poly, *coords: int) -> Poly:
        return p.diff(MultiIndex.of(*coords))

    def make_cycl_sum(bracket):
        # every ordered tuple recurs across the outer index sum, once per
        # group element, so bracket values are cached per tuple
        cache: Dict[Tuple[int, ...], Poly] = {}

        def cycl_sum(js: Tuple[int, ...]) -> Poly:
            total = Poly.zero(n)
            if cycl_mode == "rotations":
                variants = [js[r:] + js[:r] for r in range(len(js))]
            else:
                variants = itertools.permutations(js)
            for var in variants:
                val = cache.get(var)
                if val is None:
                    val = bracket(*var)
                    cache[var] = val
                total = total + val
            return total

        return cycl_sum

    def tensor_a(j1, j2, j3, j4) -> Poly:
        acc = Poly.zero(n)
        for k, l in itertools.product(rng, repeat=2):
            acc = acc - (G(k, j1, l) * D(G(l, j2, j3), j4, k)).scale(3)
            acc = acc - G(k, j1, l) * D(G(l, k, j2), j3, j4)
            for m in rng:
                acc = acc - G(k, m, j1) * G(l, j2, j3) * D(G(m, k, l), j4)
                acc = acc - (G(k, l, m) * G(l, k, j1) * D(G(m, j2, j3), j4)).scale(3)
                acc = acc + (G(k, m, j1) * G(l, k, j2) * D(G(m, l, j3), j4)).scale(3)
                acc = acc + (G(k, m, j1) * G(l, k, j2) * D(G(m, j3, j4), l)).scale(3)
                acc = acc + (G(k, m, j1) * G(l, j2, j3) * D(G(m, l, j4), k)).scale(3)
                acc = acc + (G(k, m, j1) * G(l, j2, j3) * D(G(m, k, j4), l)).scale(7)
                for m2 in rng:
                    acc = acc + (
                        G(k, m, j1) * G(l, m2, j2) * G(m, k, l) * G(m2, j3, j4)
                    ).scale(3)
                    acc = acc + (
                        G(k, l, j1) * G(l, k, j2) * G(m, m2, j3) * G(m2, m, j4)
                    ).scale(3)
                    acc = acc - G(k, m, j1) * G(l, k, j2) * G(m, m2, j3) * G(m2, l, j4)
        return acc

    def tensor_b(i):
        def bracket(j1, j2, j3, j4) -> Poly:
            acc = -D(G(i, j1, j2), j3, j4)
            for k in rng:
                acc = acc + (G(k, j1, j2) * D(G(i, j3, j4), k)).scale(4)
                acc = acc + G(k, j1, j2) * D(G(i, k, j3), j4)
                acc = acc - (G(i, k, j1) * D(G(k, j2, j3), j4)).scale(2)
                for l in rng:
                    acc = acc + (G(k, l, j1) * G(l, k, j2) * G(i, j3, j4)).scale(6)
                    acc = acc + G(k, l, j1) * G(l, j2, j3) * G(i, k, j4)
                    acc = acc + G(k, j1, j2) * G(l, j3, j4) * G(i, k, l)
            return acc

        return bracket

    def tensor_c(i1, i2):
        def bracket(j1, j2, j3, j4) -> Poly:
            return G(i1, j1, j2) * G(i2, j3, j4)

        return bracket

    def tensor_d(r):
        def bracket(j1, j2, j3, j4, j5) -> Poly:
            acc = D(G(r, j1, j2), j3, j4, j5)
            for k in rng:
                acc = acc - (G(k, j1, j2) * D(G(r, j3, j4), j5, k)).scale(7)
                acc = acc - (G(k, j1, j2) * D(G(r, k, j3), j4, j5)).scale(2)
                acc = acc - (G(r, k, j1) * D(G(k, j2, j3), j4, j5)).scale(2)
                acc = acc + (D(G(r, k, j1), j2) * D(G(k, j3, j4), j5)).scale(2)
                acc = acc + D(G(r, j1, j2), k) * D(G(k, j3, j4), j5)
                for l in rng:
                    acc = acc - (G(r, k, j1) * G(k, l, j2) * D(G(l, j3, j4), j5)).scale(8)
                    acc = acc - (G(r, k, l) * G(k, j1, j2) * D(G(l, j3, j4), j5)).scale(6)
                    acc = acc + (G(r, l, j1) * G(k, j2, j3) * D(G(l, j4, j5), k)).scale(10)
                    acc = acc + (G(r, l, j1) * G(k, j2, j3) * D(G(l, k, j4), j5)).scale(4)
                    acc = acc - (G(k, l, j1) * G(l, k, j2) * D(G(r, j3, j4), j5)).scale(10)
                    acc = acc - (G(k, l, j1) * G(l, j2, j3) * D(G(r, j4, j5), k)).scale(2)
                    acc = acc - (G(k, j1, j2) * G(l, j3, j4) * D(G(r, k, l), j5)).scale(2)
                    acc = acc + (G(k, j1, j2) * G(l, j3, j4) * D(G(r, k, j5), l)).scale(10)
                    for m in rng:
                        acc = acc + (
                            G(r, k, j1) * G(k, j2, j3) * G(l, m, j4) * G(m, l, j5)
                        ).scale(20)
                        acc = acc + (
                            G(r, k, m) * G(k, j1, j2) * G(l, j3, j4) * G(m, l, j5)
                        ).scale(8)
                        acc = acc + (
                            G(r, k, j1) * G(k, m, j2) * G(l, j3, j4) * G(m, l, j5)
                        ).scale(8)
            return acc

        return bracket

    def tensor_e(r, i):
        def bracket(j1, j2, j3, j4, j5) -> Poly:
            acc = -(G(i, j1, j2) * D(G(r, j3, j4), j5))
            for k in rng:
                acc = acc + (G(r, k, j1) * G(k, j2, j3) * G(i, j4, j5)).scale(2)
            return acc

        return bracket

    def tensor_f(r, s):
        def bracket(j1, j2, j3, j4, j5, j6) -> Poly:
            acc = D(G(r, j1, j2), j3) * D(G(s, j4, j5), j6)
            for k in rng:
                acc = acc - (G(r, k, j1) * G(k, j2, j3) * D(G(s, j4, j5), j6)).scale(4)
                for l in rng:
                    acc = acc + (
                        G(r, k, j1) * G(s, l, j2) * G(k, j3, j4) * G(l, j5, j6)
                    ).scale(4)
            return acc

        return bracket

    acc: Dict[MultiIndex, Poly] = {}

    w_a = GaussianRational(Fraction(1, 384 * factorial(4)))
    sum_a = make_cycl_sum(tensor_a)
    for js in itertools.product(rng, repeat=4):
        val = sum_a(js)
        if not val.is_zero():
            _acc_poly(acc, MultiIndex.of(*(n + j for j in js)), val.embed(d).scale(w_a))

    w_b = GaussianRational(Fraction(1, 384 * factorial(4)))
    for i in rng:
        sum_b = make_cycl_sum(tensor_b(i))
        for js in itertools.product(rng, repeat=4):
            val = sum_b(js)
            if not val.is_zero():
                _acc_poly(
                    acc,
                    MultiIndex.of(i, *(n + j for j in js)),
                    val.embed(d).scale(w_b),
                )

    w_c = GaussianRational(Fraction(1, 128 * factorial(4)))
    for i1, i2 in itertools.product(rng, repeat=2):
        sum_c = make_cycl_sum(tensor_c(i1, i2))
        for js in itertools.product(rng, repeat=4):
            val = sum_c(js)
            if not val.is_zero():
                _acc_poly(
                    acc,
                    MultiIndex.of(i1, i2, *(n + j for j in js)),
                    val.embed(d).scale(w_c),
                )

    w_d = GaussianRational(Fraction(1, 1920 * factorial(5)))
    for r in rng:
        p_r = Poly.coordinate(d, n + r)
        sum_d = make_cycl_sum(tensor_d(r))
        for js in itertools.product(rng, repeat=5):
            val = sum_d(js)
            if not val.is_zero():
                _acc_poly(
                    acc,
                    MultiIndex.of(*(n + j for j in js)),
                    (p_r * val.embed(d)).scale(w_d),
                )

    w_e = GaussianRational(Fraction(1, 192 * factorial(5)))
    for r, i in itertools.product(rng, repeat=2):
        p_r = Poly.coordinate(d, n + r)
        sum_e = make_cycl_sum(tensor_e(r, i))
        for js in itertools.product(rng, repeat=5):
            val = sum_e(js)
            if not val.is_zero():
                _acc_poly(
                    acc,
                    MultiIndex.of(i, *(n + j for j in js)),
                    (p_r * val.embed(d)).scale(w_e),
                )

    w_f = GaussianRational(Fraction(1, 1152 * factorial(6)))
    for r, s in itertools.product(rng, repeat=2):
        p_rs = Poly.coordinate(d, n + r) * Poly.coordinate(d, n + s)
        sum_f = make_cycl_sum(tensor_f(r, s))
        for js in itertools.product(rng, repeat=6):
            val = sum_f(js)
            if not val.is_zero():
                _acc_poly(
                    acc,
                    MultiIndex.of(*(n + j for j in js)),
                    (p_rs * val.embed(d)).scale(w_f),
                )

    return DiffOp(d, acc)


# -- the closed-form slot route ---------------------------------------------------------


def f_tensors(conn, max_rank):
    """The tensor family of ranks 1..max_rank for a base connection, one
    dict per rank.

    A rank-k component carries one upper index, k ordered lower indices
    and one trailing lower index, keyed `(l, *lowers, i)`; zero components
    are left out.  Rank 1 is the connection symbol itself, and rank k is

        f^l_(lowers, i_new, i) = d_(i_new) f^l_(lowers, i)
            + Gamma^l_(i_new j) f^j_(lowers, i)
            - sum over slots s of Gamma^j_(lowers_s i_new) f^l_(lowers with lowers_s = j, i).
    """
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    n = conn.n
    zero = Poly.zero(n)
    out = [conn.components()]
    for rank in range(2, max_rank + 1):
        prev = out[-1]
        comps: Dict[Tuple[int, ...], Poly] = {}
        for l in range(n):
            for lowers in itertools.product(range(n), repeat=rank):
                *first, i_new = lowers
                first = tuple(first)
                for i in range(n):
                    val = prev.get((l, *first, i), zero).diff_coord(i_new)
                    for j in range(n):
                        sym = conn.christoffel(l, i_new, j)
                        if not sym.is_zero():
                            val = val + sym * prev.get((j, *first, i), zero)
                        for s in range(rank - 1):
                            drop = conn.christoffel(j, first[s], i_new)
                            if not drop.is_zero():
                                replaced = first[:s] + (j,) + first[s + 1:]
                                val = val - drop * prev.get((l, *replaced, i), zero)
                    if not val.is_zero():
                        comps[(l, *lowers, i)] = val
        out.append(comps)
    return out


def closed_form_slot_ops(conn, k):
    """The operators f -> C_k(x^alpha, f) of the natural product, in closed
    form, for every phase-space coordinate alpha.

    Configuration slots need only the rank-k base jets of the coordinate
    functions, read from the sorted-index table `symmetric_jet_ops`,
    which is the covariant jet because the base is flat (a curved base
    raises NonFlatConnection).  Momentum slots are assembled from the
    recursive tensor family `f_tensors`, with the rank-0 component
    f^l_i = delta^l_i.  This is a second route to the operators
    C_k.coordinate_slots() of `natural_cotangent_product`.
    """
    if not is_flat(conn):
        raise NonFlatConnection("the closed form needs a flat base connection")
    n = conn.n
    d = 2 * n
    out: Dict[int, DiffOp] = {}
    if k == 0:
        for alpha in range(d):
            out[alpha] = DiffOp.multiplication(Poly.coordinate(d, alpha))
        return out

    half_i_k = HALF_I ** k
    inv_kfact = GaussianRational(Fraction(1, factorial(k)))
    inv_km1fact = GaussianRational(Fraction(1, factorial(k - 1)))

    base_jets = symmetric_jet_ops(conn, k)
    for i in range(n):
        qi = Poly.coordinate(n, i)
        acc: Dict[MultiIndex, Poly] = {}
        for idx in itertools.product(range(n), repeat=k):
            comp = base_jets[tuple(sorted(idx))].apply(qi)
            if comp.is_zero():
                continue
            deriv = MultiIndex.of(*(n + j for j in idx))
            _acc_poly(acc, deriv, comp.embed(d).scale(half_i_k * inv_kfact))
        out[i] = DiffOp(d, acc)

    family = f_tensors(conn, k)
    zero, one = Poly.zero(n), Poly.const(n, 1)

    def tensors(rank: int, l: int, lowers: Tuple[int, ...], i: int) -> Poly:
        if rank == 0:
            return one if l == i else zero
        return family[rank - 1].get((l, *lowers, i), zero)

    for i in range(n):
        acc = {}
        # p_l d^k/dp^k part
        for lowers in itertools.product(range(n), repeat=k):
            for l in range(n):
                head = tensors(k, l, lowers, i)
                last = lowers[-1]
                sub = Poly.zero(n)
                for j in range(n):
                    sym = conn.christoffel(l, j, last)
                    if not sym.is_zero():
                        sub = sub + sym * tensors(k - 1, j, lowers[:-1], i)
                total = head - sub.scale(k)
                if total.is_zero():
                    continue
                coeff = (Poly.coordinate(d, n + l) * total.embed(d)).scale(
                    half_i_k * inv_kfact
                )
                _acc_poly(acc, MultiIndex.of(*(n + j for j in lowers)), coeff)
        # -f^l d_q^l d_p^(k-1) part and trailing d_p^(k-1) part
        for lowers in itertools.product(range(n), repeat=k - 1):
            for l in range(n):
                val = tensors(k - 1, l, lowers, i)
                if not val.is_zero():
                    deriv = MultiIndex.of(l, *(n + j for j in lowers))
                    _acc_poly(
                        acc,
                        deriv,
                        val.embed(d).scale(half_i_k * inv_km1fact).scale(-1),
                    )
            tail = Poly.zero(n)
            for l in range(n):
                tail = tail + tensors(k, l, lowers + (l,), i)
                tail = tail - tensors(k - 1, l, lowers, i).diff_coord(l)
                for j in range(n):
                    sym = conn.christoffel(l, l, j)
                    if not sym.is_zero():
                        tail = tail - sym * tensors(k - 1, j, lowers, i)
            if not tail.is_zero():
                _acc_poly(
                    acc,
                    MultiIndex.of(*(n + j for j in lowers)),
                    tail.embed(d).scale(half_i_k * inv_km1fact),
                )
        out[n + i] = DiffOp(d, acc)
    return out


# -- serialization oracles ---------------------------------------------------------------


def oracle_scalar_json(c):
    return {"re": str(c.re), "im": str(c.im)}


def oracle_poly_json(p):
    return [{"exps": list(mi.dense(p.dim)), **oracle_scalar_json(c)} for mi, c in p.terms()]


def oracle_operator_json(op):
    dim, slots = op.dim, op._SLOTS
    terms = []
    for key, p in op.terms():
        indices = (key,) if len(slots) == 1 else key
        entry = {s: list(mi.dense(dim)) for s, mi in zip(slots, indices)}
        entry["coefficient"] = oracle_poly_json(p)
        terms.append(entry)
    return {"dim": dim, "terms": terms}


def oracle_product_json(s):
    return {
        "dim": s.dim,
        "order": s.order,
        "parity": True,
        "operators": [oracle_operator_json(op) for op in s.C],
    }


def oracle_morphism_json(m):
    return {
        "dim": m.dim,
        "order": m.order,
        "provenance": m.provenance,
        "term_counts": [op.term_count() for op in m.orders],
        "operators": [oracle_operator_json(op) for op in m.orders[1:]],
    }


def merged_scalar_json(obj):
    """The JSON of a product, morphism, operator or polynomial with every
    term written as {"exps": ..., **c.to_json()}, one scalar at a time."""
    if isinstance(obj, Poly):
        return [{"exps": list(mi.dense(obj.dim)), **c.to_json()} for mi, c in obj.terms()]
    if isinstance(obj, (DiffOp, BiDiffOp)):
        terms = []
        for key, p in obj.terms():
            indices = (key,) if isinstance(obj, DiffOp) else key
            entry = {s: list(mi.dense(obj.dim)) for s, mi in zip(obj._SLOTS, indices)}
            entry["coefficient"] = merged_scalar_json(p)
            terms.append(entry)
        return {"dim": obj.dim, "terms": terms}
    if isinstance(obj, StarProduct):
        return {"dim": obj.dim, "order": obj.order, "parity": True,
                "operators": [merged_scalar_json(op) for op in obj.C]}
    return {"dim": obj.dim, "order": obj.order, "provenance": obj.provenance,
            "term_counts": [op.term_count() for op in obj.orders],
            "operators": [merged_scalar_json(op) for op in obj.orders[1:]]}
