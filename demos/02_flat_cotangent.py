"""From a flat base connection to a star product on its phase space.

Builds a flat connection by pulling the trivial one back along a
triangular coordinate change, lifts it to phase space as lowered
symbols, certifies flatness and their total symmetry, and assembles
the natural star product from iterated covariant derivatives.
"""

import itertools

from starq import (
    Poly,
    closed_form_slot_ops,
    curvature,
    flat_connection_from_diffeo,
    lift_connection,
    natural_cotangent_product,
    quantum_canonicity_check,
)
from starq.exprparse import coordinate_names


def main():
    n = 2
    x0 = Poly.coordinate(n, 0)
    x1 = Poly.coordinate(n, 1)

    # y1 = x1, y2 = x2 + x1^2 + x1^3: unipotent Jacobian, flat by construction
    conn = flat_connection_from_diffeo([x0, x1 + x0 * x0 + x0 * x0 * x0])
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

    print("\n== closed-form coordinate slots agree with the product ==")
    for k in range(3):
        ops = closed_form_slot_ops(conn, k)
        agree = all(
            ops[alpha] == product.C[k].slot_fix(alpha)
            for alpha in range(2 * n)
        )
        print(f"   order {k}: {agree}")

    print("\n== one slot operator in full ==")
    print("   C_2 at the first momentum coordinate:")
    print("  ", product.C[2].slot_fix(n).format(names))


if __name__ == "__main__":
    main()
