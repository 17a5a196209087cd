"""Order-2 products of a general symplectic connection.

A torsionless symplectic connection in canonical coordinates is exactly
a totally symmetric family of lowered symbols.  The truncated product
carries a Ricci term with a rational weight; the order-2 morphism term
has a closed form whose coordinate commutators reproduce the product's
slot operators, which this script checks for a handful of weights.
"""

from fractions import Fraction

from starq import (
    GaussianRational,
    SymplecticConnectionSpec,
    derive_equivalence,
    ricci,
    symplectic_order2,
    truncated_symplectic_product,
)
from starq.exprparse import coordinate_names, parse_phase_poly


def main():
    n = 1
    names = coordinate_names(n)

    components = {
        (0, 0, 0): "q1 + p1",
        (0, 0, 1): "1/2*q1^2",
        (0, 1, 1): "p1",
        (1, 1, 1): "q1*p1",
    }
    comps = {key: parse_phase_poly(expr, n) for key, expr in components.items()}

    print("== the connection ==")
    for key, expr in components.items():
        pretty = ",".join(str(j + 1) for j in key)
        print(f"   lowered[{pretty}] = {expr}")

    for a in (GaussianRational(0), GaussianRational(1), GaussianRational(Fraction(-3, 7))):
        spec = SymplecticConnectionSpec.from_symmetric_components(n, comps, a)
        product = truncated_symplectic_product(spec)
        closed = symplectic_order2(spec)
        derived = derive_equivalence(product).operator(2)

        print(f"\n== Ricci weight a = {a} ==")
        ric = ricci(spec)
        for (mu, nu), comp in sorted(ric.items()):
            print(f"   Ricci[{mu+1}{nu+1}] = {comp.format(names)}")
        print("   order-2 term:", closed.format(names))
        print("   equals the recursive derivation:", closed == derived)
        identity = closed.coordinate_commutators() == product.C[2].coordinate_slots()
        print("   coordinate commutators match the product slots:", identity)


if __name__ == "__main__":
    main()
