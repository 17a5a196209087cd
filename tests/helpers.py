"""Independent reference implementations used as test oracles.

The sympy oracles go through symbolic differentiation and exact
rationals, sharing no code with the package under test.  The ordered
pairing builders are the product constructions the symmetric pairing
kernel replaced, and the term-scan functions at the end are the operator
application and associativity loop that the sub-index application and
the monomial-pair table of `check_axioms` replaced; both are kept to gate
the new code on exact equality.
"""

import itertools
from fractions import Fraction
from math import factorial

import sympy as sp

from starq.geometry import ricci
from starq.operators import BiDiffOp
from starq.poly import MultiIndex, Poly
from starq.products import CheckEntry, CheckReport, monomials_up_to
from starq.scalars import HALF_I, I as IMAG, GaussianRational


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
            acc = acc + BiDiffOp.tensor(left, right).scale(v)
        C.append(acc)
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
    if s.parity:
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
