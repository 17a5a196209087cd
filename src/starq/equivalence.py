"""Order-by-order derivation of the morphism linking a quantum-canonical
star product to the Moyal product of the same Poisson tensor.

The morphism is id + sum_k hbar^k T_k with every T_k a differential
operator killing constants and coordinates.  Each order is pinned down by
the coordinate-commutator equations

    [T_k, x^alpha] = F_k^alpha,

whose right-hand side is assembled from the product's operators and the
lower morphism orders.  Two independent solvers are implemented: a direct
weighted reconstruction from the coefficients of the family, and a
nested-commutator expansion; uniqueness of the solution makes their
agreement a meaningful cross-check rather than a tautology.

The module also carries closed-form expressions for the order-2/order-4
operators over a flat cotangent bundle and for the order-2 operator of a
general symplectic connection, so the recursively derived operators can
be compared term by term against those formulas.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .errors import (
    CanonicityFailure,
    DimensionMismatch,
    IncompatibleFamily,
    OperatorOrderExceeded,
    StarqError,
)
from .geometry import Connection, SymplecticConnectionSpec, canonical_poisson_entries, ricci
from .operators import DiffOp, OperatorSeries, _acc_poly, max_op_order
from .poly import MultiIndex, Poly
from .scalars import GaussianRational
from .series import HbarSeries
from .products import (
    CheckEntry,
    CheckReport,
    StarProduct,
    monomials_up_to,
    moyal_product,
    quantum_canonicity_check,
)

HALF = GaussianRational(Fraction(1, 2))


class EquivalenceMorphism:
    """Truncated morphism series together with how it was obtained."""

    __slots__ = ("series", "provenance")

    def __init__(self, series: OperatorSeries, provenance: str):
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name, value):
        raise AttributeError("EquivalenceMorphism is immutable")

    @property
    def dim(self) -> int:
        return self.series.dim

    @property
    def order(self) -> int:
        return self.series.order

    def operator(self, k: int) -> DiffOp:
        return self.series[k]

    def apply(self, f: Poly) -> HbarSeries:
        return self.series.apply(f)

    def apply_series(self, h: HbarSeries) -> HbarSeries:
        return self.series.apply_series(h)

    def __eq__(self, other):
        if not isinstance(other, EquivalenceMorphism):
            return NotImplemented
        return self.series == other.series

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "order": self.order,
            "provenance": self.provenance,
            "term_counts": [op.term_count() for op in self.series.orders],
            "operators": [op.to_json() for op in self.series.orders[1:]],
        }


# ---------------------------------------------------------------------------
# recurrence right-hand side
# ---------------------------------------------------------------------------

def coordinate_rhs(s: StarProduct, lower: Sequence[DiffOp], k: int) -> List[DiffOp]:
    """The operators F^alpha: f -> (1/2) sum_l (C_l(x^alpha, T_(k-l) f)
    + C_l(T_(k-l) f, x^alpha)) for 1 <= l <= k.

    `lower` must hold the morphism orders 0..k-1 (order 0 the identity).
    Every returned operator kills constants, because each C_l does.
    """
    if len(lower) < k:
        raise ValueError(f"need the {k} lower orders, got {len(lower)}")
    d = s.dim
    out = []
    for alpha in range(d):
        acc = DiffOp.zero(d)
        for l in range(1, k + 1):
            t = lower[k - l]
            if t.is_zero():
                continue
            both = s.C[l].slot_fix(alpha, "left") + s.C[l].slot_fix(alpha, "right")
            if both.is_zero():
                continue
            acc = acc + both.compose(t)
        out.append(acc.scale(HALF))
    return out


def coordinate_rhs_even_parity(
    s: StarProduct, lower: Sequence[DiffOp], k: int
) -> List[DiffOp]:
    """Reduced right-hand side for even orders of a parity product:
    F^alpha = sum_l C_(2l)(x^alpha, T_(k-2l) f)."""
    if k % 2:
        raise ValueError("the reduced sum applies to even orders only")
    d = s.dim
    out = []
    for alpha in range(d):
        acc = DiffOp.zero(d)
        for l in range(1, k // 2 + 1):
            t = lower[k - 2 * l]
            if t.is_zero():
                continue
            slot = s.C[2 * l].slot_fix(alpha, "left")
            if slot.is_zero():
                continue
            acc = acc + slot.compose(t)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# the two solvers
# ---------------------------------------------------------------------------

def commutator_solution_direct(family: Sequence[DiffOp], verify: bool = True) -> DiffOp:
    """Unique T with [T, x^alpha] = family[alpha], T(1) = T(x^alpha) = 0.

    Writing family[alpha] = sum_J phi_(alpha,J) d^J, the solution is
    sum_(alpha,J) phi_(alpha,J) / (1 + |J|) d^(e_alpha + J).  With
    `verify` the commutators of the result are checked exactly and a
    family admitting no common solution is rejected; `verify=False`
    returns the bare formula value (meaningful only when a solution is
    known to exist).
    """
    if not family:
        raise ValueError("empty operator family")
    d = family[0].dim
    if len(family) != d:
        raise ValueError(f"expected one operator per coordinate, got {len(family)}")
    acc: Dict[MultiIndex, Poly] = {}
    for alpha, op in enumerate(family):
        if op.dim != d:
            raise DimensionMismatch("mixed dimensions in operator family")
        if not op.annihilates_constants():
            raise ValueError(f"operator for coordinate {alpha} does not kill constants")
        for j_idx, coeff in op.terms():
            weight = GaussianRational(Fraction(1, 1 + j_idx.degree))
            target = j_idx + MultiIndex.unit(alpha)
            _acc_poly(acc, target, coeff.scale(weight))
    solution = DiffOp(d, acc)
    if verify:
        for alpha, op in enumerate(family):
            if solution.commutator_with_coordinate(alpha) != op:
                raise IncompatibleFamily(alpha)
    return solution


def commutator_solution_nested(family: Sequence[DiffOp]) -> DiffOp:
    """Same solution via the nested-commutator expansion
    sum_m (1/m!) [x^(a_1), ..., [x^(a_(m-1)), F^(a_m)]] d^(a_1)...d^(a_m).

    Nested commutators are symmetric in the outer coordinates, so levels
    are memoized on the sorted prefix; each level lowers the operator
    order by one, which makes the sum finite for finite-order input.
    """
    if not family:
        raise ValueError("empty operator family")
    d = family[0].dim
    total = DiffOp.zero(d)
    # level m holds [x^(a_1),...,[x^(a_(m-1)), F^(a_m)]] keyed by
    # (sorted prefix, last index)
    level: Dict[Tuple[Tuple[int, ...], int], DiffOp] = {
        ((), am): op for am, op in enumerate(family) if not op.is_zero()
    }
    m = 1
    guard = max_op_order() + 2
    while level:
        if m > guard:
            raise OperatorOrderExceeded(
                "nested-commutator expansion did not terminate; malformed family"
            )
        inv_mfact = GaussianRational(Fraction(1, factorial(m)))
        for (prefix, am), op in sorted(level.items()):
            arrangements = _permutation_count(prefix)
            deriv = MultiIndex.of(*prefix, am)
            term = op.compose(DiffOp.derivative(d, deriv)).scale(
                inv_mfact * arrangements
            )
            total = total + term
        nxt: Dict[Tuple[Tuple[int, ...], int], DiffOp] = {}
        for (prefix, am), op in level.items():
            for a0 in range(d):
                # [x^a, T] = -[T, x^a]
                bumped = op.commutator_with_coordinate(a0).scale(-1)
                if bumped.is_zero():
                    continue
                key = (tuple(sorted(prefix + (a0,))), am)
                existing = nxt.get(key)
                if existing is None:
                    nxt[key] = bumped
                # symmetric in the prefix: any arrival order gives the same op
        level = nxt
        m += 1
    return total


def _permutation_count(prefix: Tuple[int, ...]) -> int:
    """Number of distinct orderings of a sorted index tuple."""
    if not prefix:
        return 1
    count = factorial(len(prefix))
    run = 1
    for a, b in zip(prefix, prefix[1:]):
        if a == b:
            run += 1
        else:
            count //= factorial(run)
            run = 1
    count //= factorial(run)
    return count


# ---------------------------------------------------------------------------
# the derivation
# ---------------------------------------------------------------------------

def derive_equivalence(s: StarProduct, order: int | None = None) -> EquivalenceMorphism:
    """Derive the morphism orders 1..order for a quantum-canonical product.

    For parity products the odd right-hand sides are computed from the
    general formula and asserted to vanish, and the even orders use the
    reduced single-sided sum.  Both solvers run on every right-hand side
    and must agree.
    """
    if order is None:
        order = s.order
    if order > s.order:
        raise ValueError(f"product only carries operators up to order {s.order}")
    canon = quantum_canonicity_check(s)
    if not canon.passed:
        bad = ", ".join(e.name for e in canon.failures())
        raise CanonicityFailure(f"coordinates are not quantum canonical: {bad}")
    d = s.dim
    ops: List[DiffOp] = [DiffOp.identity(d)]
    coords = [Poly.coordinate(d, alpha) for alpha in range(d)]
    one = Poly.const(d, 1)
    for k in range(1, order + 1):
        if s.parity and k % 2 == 1:
            general = coordinate_rhs(s, ops, k)
            if any(not f.is_zero() for f in general):
                raise StarqError(
                    f"parity product has a non-vanishing odd right-hand side at order {k}"
                )
            ops.append(DiffOp.zero(d))
            continue
        if s.parity:
            family = coordinate_rhs_even_parity(s, ops, k)
        else:
            family = coordinate_rhs(s, ops, k)
        solution = commutator_solution_direct(family)
        if commutator_solution_nested(family) != solution:
            raise StarqError(f"solver disagreement at order {k}: unique solution violated")
        if not solution.apply(one).is_zero():
            raise StarqError(f"order-{k} operator does not kill constants")
        for alpha, x in enumerate(coords):
            if not solution.apply(x).is_zero():
                raise StarqError(f"order-{k} operator does not kill coordinate {alpha}")
        ops.append(solution)
    return EquivalenceMorphism(OperatorSeries(ops), provenance="recursion")


def symmetrized_star_power(s: StarProduct, indices: Sequence[int]) -> HbarSeries:
    """Average of the star products of the coordinates over all orderings.

    By uniqueness this equals the derived morphism applied to the plain
    monomial with the same indices.
    """
    d = s.dim
    N = s.order
    if any(not 0 <= a < d for a in indices):
        raise DimensionMismatch("coordinate index out of range")
    if not indices:
        return HbarSeries.from_constant(Poly.const(d, 1), N)
    acc = HbarSeries.from_constant(Poly.zero(d), N)
    count = 0
    for perm in itertools.permutations(indices):
        prod = HbarSeries.from_constant(Poly.coordinate(d, perm[0]), N)
        for a in perm[1:]:
            prod = s.apply(prod, Poly.coordinate(d, a))
        acc = acc + prod
        count += 1
    return acc.scale(GaussianRational(Fraction(1, count)))


def verify_intertwining(
    morphism: EquivalenceMorphism, s: StarProduct, max_degree: int = 4
) -> CheckReport:
    """Exact check that the morphism maps Moyal products to s-products.

    Covers every monomial pair of total degree <= max_degree at every
    order of the deformation parameter, plus the one-sided coordinate
    relations that drive the recurrence.  Every pair is still checked
    exactly; the morphism's image of each basis monomial is computed
    once per call and shared by every check that needs it, so the
    first failure reported is unchanged.
    """
    d = s.dim
    if morphism.dim != d:
        raise DimensionMismatch("morphism and product dimensions differ")
    ref = moyal_product(s.poisson, s.order)
    entries: List[CheckEntry] = []

    basis = monomials_up_to(d, max_degree)
    images = {fm: morphism.apply(Poly.monomial(d, fm)) for fm in basis}
    coord_failures = []
    checked = 0
    for alpha in range(d):
        x = Poly.coordinate(d, alpha)
        for fm in basis:
            f = Poly.monomial(d, fm)
            left = morphism.apply_series(ref.apply(x, f))
            right = s.apply(x, images[fm])
            checked += 1
            if left != right:
                coord_failures.append(f"coordinate {alpha} on {f}")
            left = morphism.apply_series(ref.apply(f, x))
            right = s.apply(images[fm], x)
            checked += 1
            if left != right:
                coord_failures.append(f"{f} on coordinate {alpha}")
    entries.append(
        CheckEntry(
            "coordinate-slots",
            not coord_failures,
            f"{checked} one-sided products checked"
            + ("" if not coord_failures else f"; first failure: {coord_failures[0]}"),
        )
    )

    pair_failures = []
    checked = 0
    for fm in basis:
        f = Poly.monomial(d, fm)
        for gm in basis:
            if fm.degree + gm.degree > max_degree:
                break
            g = Poly.monomial(d, gm)
            left = morphism.apply_series(ref.apply(f, g))
            right = s.apply(images[fm], images[gm])
            checked += 1
            if left != right:
                pair_failures.append(f"({f}, {g})")
    entries.append(
        CheckEntry(
            "monomial-pairs",
            not pair_failures,
            f"{checked} pairs checked"
            + ("" if not pair_failures else f"; first failure: {pair_failures[0]}"),
        )
    )
    return CheckReport(
        "intertwining",
        tuple(entries),
        {"max_degree": max_degree, "order": s.order, "dim": d},
    )


# ---------------------------------------------------------------------------
# closed forms: flat cotangent bundle
# ---------------------------------------------------------------------------

def flat_cotangent_order2(conn: Connection) -> DiffOp:
    """Closed form of the order-2 morphism term over a flat base."""
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


def flat_cotangent_order4(conn: Connection, cycl_mode: str = "permutations") -> DiffOp:
    """Closed form of the order-4 morphism term over a flat base.

    Each coefficient tensor is a bracket of symbol contractions summed
    over rearrangements of its momentum indices: all permutations by
    default, or only the cyclic rotations with `cycl_mode="rotations"`.
    Because the derivative slots symmetrize those indices, the two
    readings differ per tensor by the factor (r-1)!; the permutation
    reading is the one that reproduces the recursively derived operator,
    with the factorials in the printed denominators matching the
    permutation counts.

    The derivative slot of a coefficient sees only the multiset M of its
    r momentum indices, and summed over the orderings of M the
    permutation reading counts every ordering r! times and the rotation
    reading r times (each rotation is a bijection on the orderings).  So
    each ordered bracket is evaluated once, summed per multiset, and
    scaled by r! or r; the readings themselves are unchanged.
    """
    if cycl_mode not in ("rotations", "permutations"):
        raise ValueError("cycl_mode must be 'rotations' or 'permutations'")
    n = conn.n
    d = 2 * n
    G = conn.christoffel
    rng = range(n)

    def D(p: Poly, *coords: int) -> Poly:
        return p.diff(MultiIndex.of(*coords))

    def multiset_sums(bracket, k: int) -> Dict[Tuple[int, ...], Poly]:
        # bracket evaluated once per ordered k-tuple and summed over the
        # orderings of each multiset, keyed by the sorted tuple
        sums: Dict[Tuple[int, ...], Poly] = {}
        for js in itertools.product(rng, repeat=k):
            _acc_poly(sums, tuple(sorted(js)), bracket(*js))
        return sums

    def weight(denominator: int, k: int) -> GaussianRational:
        # the rearrangement sum over all orderings of one multiset counts
        # each ordering k! times (permutations) or k times (rotations)
        count = factorial(k) if cycl_mode == "permutations" else k
        return GaussianRational(Fraction(count, denominator * factorial(k)))

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

    w_a = weight(384, 4)
    for js, val in multiset_sums(tensor_a, 4).items():
        _acc_poly(acc, MultiIndex.of(*(n + j for j in js)), val.embed(d).scale(w_a))

    w_b = weight(384, 4)
    for i in rng:
        for js, val in multiset_sums(tensor_b(i), 4).items():
            _acc_poly(acc, MultiIndex.of(i, *(n + j for j in js)), val.embed(d).scale(w_b))

    w_c = weight(128, 4)
    for i1, i2 in itertools.product(rng, repeat=2):
        for js, val in multiset_sums(tensor_c(i1, i2), 4).items():
            _acc_poly(
                acc,
                MultiIndex.of(i1, i2, *(n + j for j in js)),
                val.embed(d).scale(w_c),
            )

    w_d = weight(1920, 5)
    for r in rng:
        p_r = Poly.coordinate(d, n + r)
        for js, val in multiset_sums(tensor_d(r), 5).items():
            _acc_poly(
                acc,
                MultiIndex.of(*(n + j for j in js)),
                (p_r * val.embed(d)).scale(w_d),
            )

    w_e = weight(192, 5)
    for r, i in itertools.product(rng, repeat=2):
        p_r = Poly.coordinate(d, n + r)
        for js, val in multiset_sums(tensor_e(r, i), 5).items():
            _acc_poly(
                acc,
                MultiIndex.of(i, *(n + j for j in js)),
                (p_r * val.embed(d)).scale(w_e),
            )

    w_f = weight(1152, 6)
    for r, s in itertools.product(rng, repeat=2):
        p_rs = Poly.coordinate(d, n + r) * Poly.coordinate(d, n + s)
        for js, val in multiset_sums(tensor_f(r, s), 6).items():
            _acc_poly(
                acc,
                MultiIndex.of(*(n + j for j in js)),
                (p_rs * val.embed(d)).scale(w_f),
            )

    return DiffOp(d, acc)


def flat_cotangent_morphism(conn: Connection, order: int = 4) -> EquivalenceMorphism:
    """Morphism assembled from the closed forms instead of the recursion.

    Odd orders vanish by parity; orders beyond 4 have no closed form.
    """
    if order > 4:
        raise ValueError("closed forms are available up to order 4")
    d = 2 * conn.n
    ops = [DiffOp.identity(d)]
    if order >= 1:
        ops.append(DiffOp.zero(d))
    if order >= 2:
        ops.append(flat_cotangent_order2(conn))
    if order >= 3:
        ops.append(DiffOp.zero(d))
    if order >= 4:
        ops.append(flat_cotangent_order4(conn))
    return EquivalenceMorphism(OperatorSeries(ops), provenance="closed-form")


# ---------------------------------------------------------------------------
# closed form: general symplectic connection, order 2
# ---------------------------------------------------------------------------

def symplectic_order2(spec: SymplecticConnectionSpec) -> DiffOp:
    """Closed form of the order-2 morphism term for a torsionless
    symplectic connection with Ricci weight `a`.

    Derivative slots are raised through the Poisson tensor; the quadratic
    symbol contraction and the weighted Ricci tensor sit in the order-2
    coefficient.
    """
    n = spec.n
    d = spec.dim
    p_entries = canonical_poisson_entries(n)
    raised: Dict[int, List[Tuple[int, GaussianRational]]] = {}
    for (mu, nu), v in p_entries.items():
        raised.setdefault(mu, []).append((nu, GaussianRational(v)))

    acc: Dict[MultiIndex, Poly] = {}
    w3 = GaussianRational(Fraction(-1, 24))
    w2 = GaussianRational(Fraction(1, 16))

    for al, be, ga in itertools.product(range(d), repeat=3):
        low = spec.lowered(al, be, ga)
        if low.is_zero():
            continue
        for b1, v1 in raised.get(al, ()):
            for b2, v2 in raised.get(be, ()):
                for b3, v3 in raised.get(ga, ()):
                    _acc_poly(
                        acc,
                        MultiIndex.of(b1, b2, b3),
                        low.scale(w3 * v1 * v2 * v3),
                    )

    ric = ricci(spec)
    for al, be in itertools.product(range(d), repeat=2):
        coeff = Poly.zero(d)
        for mu, nu in itertools.product(range(d), repeat=2):
            coeff = coeff + spec.christoffel(mu, nu, al) * spec.christoffel(nu, mu, be)
        ric_comp = ric.get((al, be))
        if ric_comp is not None:
            coeff = coeff + ric_comp.scale(spec.a)
        if coeff.is_zero():
            continue
        for b1, v1 in raised.get(al, ()):
            for b2, v2 in raised.get(be, ()):
                _acc_poly(acc, MultiIndex.of(b1, b2), coeff.scale(w2 * v1 * v2))

    return DiffOp(d, acc)


# ---------------------------------------------------------------------------
# closed-form vs derived comparison
# ---------------------------------------------------------------------------

def operator_diff_report(derived: DiffOp, closed: DiffOp) -> List[dict]:
    """Term-level discrepancies between two operators in normal form."""
    out: List[dict] = []
    indices = set()
    for mi, _ in derived.terms():
        indices.add(mi)
    for mi, _ in closed.terms():
        indices.add(mi)
    for mi in sorted(indices, key=lambda m: m.grlex_key(derived.dim), reverse=True):
        a = derived.coefficient(mi)
        b = closed.coefficient(mi)
        if a != b:
            out.append(
                {
                    "derivative": list(mi.dense(derived.dim)),
                    "derived": a.to_json(),
                    "closed_form": b.to_json(),
                }
            )
    return out
