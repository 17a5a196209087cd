"""Deriving the morphism that links a product to its Moyal counterpart.

For the natural product of the one-dimensional connection with symbol q,
the recursion produces the unique series id + h^2 T_2 + h^4 T_4 killing
constants and coordinates.  The derived operators are compared against
the closed-form expressions, against the nested-commutator solver, and
against the symmetrized star powers, and the intertwining property is
verified on a degree-bounded basis.
"""

from starq import (
    Connection,
    Poly,
    commutator_solution_nested,
    coordinate_rhs,
    derive_equivalence,
    flat_cotangent_morphism,
    flat_cotangent_order2,
    flat_cotangent_order4,
    natural_cotangent_product,
    symmetrized_star_power,
    verify_intertwining,
)
from starq.exprparse import coordinate_names
from starq.products import monomials_up_to


def main():
    conn = Connection.one_dim(Poly.coordinate(1, 0))
    product = natural_cotangent_product(conn, order=4)
    names = coordinate_names(1)

    print("== recursive derivation ==")
    morphism = derive_equivalence(product)
    for k in range(1, 5):
        op = morphism.operator(k)
        print(f"   T_{k} = {op.format(names)}")

    print("\n== the paper's nested-commutator solver ==")
    for k in range(1, 5):
        family = coordinate_rhs(product, morphism.orders, k)
        print(f"   order {k} matches derivation:",
              commutator_solution_nested(family) == morphism.operator(k))

    print("\n== closed forms ==")
    print("   order 2:", flat_cotangent_order2(conn).format(names))
    print("   matches derivation:", flat_cotangent_order2(conn) == morphism.operator(2))
    closed4 = flat_cotangent_order4(conn)
    print("   order 4 matches derivation:", closed4 == morphism.operator(4))
    print("   whole closed-form series equals the derived one:",
          flat_cotangent_morphism(conn) == morphism)

    print("\n== uniqueness: symmetrized star powers ==")
    agree = all(
        morphism.apply(Poly.monomial(2, mi))
        == symmetrized_star_power(product, list(mi.coords()))
        for mi in monomials_up_to(2, 4)
    )
    print("   morphism equals averaged star powers on degree <= 4:", agree)

    print("\n== intertwining ==")
    report = verify_intertwining(morphism, product, max_degree=4)
    for entry in report.entries:
        print(f"   {entry.name:<18} {'ok' if entry.passed else 'FAILED'}  ({entry.detail})")

    print("\n== the morphism in action ==")
    p3 = Poly.coordinate(2, 1) ** 3
    image = morphism.apply(p3)
    print("   image of p1^3:")
    for k, coeff in enumerate(image.coeffs):
        if not coeff.is_zero():
            print(f"      h^{k}: {coeff.format(names)}")


if __name__ == "__main__":
    main()
