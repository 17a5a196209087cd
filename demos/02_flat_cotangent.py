"""From a flat base connection to a star product on its phase space.

Builds a flat connection by pulling the trivial one back along a
triangular coordinate change, lifts it to phase space as lowered
symbols, certifies flatness and their total symmetry, assembles the
natural star product from iterated covariant derivatives, and checks
that it is the Moyal product pulled back along the cotangent lift of
the coordinate change.
"""

import itertools

from starq import (
    PoissonTensor,
    Poly,
    curvature,
    flat_connection_from_diffeo,
    lift_connection,
    moyal_product,
    natural_cotangent_product,
    quantum_canonicity_check,
)
from starq.exprparse import coordinate_names
from starq.products import monomials_up_to


def main():
    n = 2
    x0 = Poly.coordinate(n, 0)
    x1 = Poly.coordinate(n, 1)

    # y1 = x1, y2 = x2 + x1^2 + x1^3: unipotent Jacobian, flat by construction
    phi = [x0, x1 + x0 * x0 + x0 * x0 * x0]
    conn = flat_connection_from_diffeo(phi)
    print("== base connection from a triangular coordinate change ==")
    qnames = [f"q{j+1}" for j in range(n)]
    for (i, j, k), sym in sorted(conn.components().items()):
        print(f"   symbol[{i+1}][{j+1}{k+1}] = {sym.format(qnames)}")
    print("   base curvature components:", len(curvature(conn)))

    lifted = lift_connection(conn)
    print("\n== lifted to phase space: lowered symbols, one per index multiset ==")
    names = coordinate_names(n)
    for key in itertools.combinations_with_replacement(range(2 * n), 3):
        sym = lifted.lowered(*key)
        if not sym.is_zero():
            label = ", ".join(names[mu] for mu in key)
            print(f"   lowered({label}) = {sym.format(names)}")
    print("   lifted curvature components:", len(curvature(lifted)))

    sym_ok = all(
        lifted.lowered(a, b, c) == lifted.lowered(b, a, c) == lifted.lowered(a, c, b)
        for a in range(2 * n)
        for b in range(2 * n)
        for c in range(2 * n)
    )
    print("   lowered symbols totally symmetric:", sym_ok)

    print("\n== natural star product (order 4) ==")
    product = natural_cotangent_product(conn, order=4)
    for k, op in enumerate(product.C):
        print(f"   order {k}: {op.term_count()} terms")
    print("   quantum canonical:", quantum_canonicity_check(product).passed)

    print("\n== the product is Moyal pulled back along the flat chart ==")
    # Phi(q, p) = (phi(q), Dphi^-T p); here Dphi^-T p = (p1 - phi2' p2, p2)
    # with phi2' = d phi2 / d q1, and every C_k(u o Phi, v o Phi) must equal
    # M_k(u, v) o Phi on the monomial pairs of total degree <= 3
    d = 2 * n
    q1, q2, p1, p2 = (Poly.coordinate(d, j) for j in range(d))
    chart = [q1, phi[1].embed(d), p1 - phi[1].diff_coord(0).embed(d) * p2, p2]

    def pull(f):
        """f o Phi: each coordinate power replaced by a chart component's."""
        acc = Poly.zero(d)
        for mi, c in f.terms():
            term = Poly.const(d, c)
            for coord, e in mi.pairs:
                term = term * chart[coord] ** e
            acc = acc + term
        return acc

    moyal = moyal_product(PoissonTensor.canonical(n), product.order)
    basis = [Poly.monomial(d, m) for m in monomials_up_to(d, 3)]
    pairs = [(u, v) for u in basis for v in basis if u.degree + v.degree <= 3]
    for k in range(product.order + 1):
        agree = all(
            product.C[k].apply(pull(u), pull(v)) == pull(moyal.C[k].apply(u, v))
            for u, v in pairs
        )
        print(f"   order {k}: {agree}")

    print("\n== one slot operator in full ==")
    print("   C_2 at the first momentum coordinate:")
    print("  ", product.C[2].coordinate_slots()[n].format(names))


if __name__ == "__main__":
    main()
