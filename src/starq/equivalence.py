"""Order-by-order derivation of the morphism linking a quantum-canonical
star product to the Moyal product of the same Poisson tensor.

The morphism is id + sum_k hbar^k T_k with every T_k a differential
operator killing constants and coordinates.  Each order is pinned down by
the coordinate-commutator equations

    [T_k, x^alpha] = F_k^alpha,

whose right-hand side is assembled from the symmetric coordinate slots
of the product's operators (`BiDiffOp.coordinate_slots`) and the lower
morphism orders by one formula, for every order of every product: no
declared property of the product selects another.  (For a product with
slot-swap parity the odd orders vanish and the even ones reduce to the
paper's one-sided sum by themselves.)  The solution is unique, so the
derivation runs one solver: a direct weighted reconstruction from the
family, checked exactly by `DiffOp.coordinate_commutators`.  The
paper's systematic construction, a nested-commutator expansion, is kept
beside it as an independent oracle for the tests.

The module also carries closed-form expressions for the order-2/order-4
operators over a flat cotangent bundle and for the order-2 operator of a
general symplectic connection, so the recursively derived operators can
be compared term by term against those formulas.

The flat-cotangent closed forms are tables.  A family is (denominator,
configuration-derivative labels, momentum-derivative labels, terms); a
term is an integer times factors `G(a,b,c|J)` = d^J G^a_(bc), with the
derivative labels J after the bar, and `p(r)` = p_r.  Labels are indices
in 0..n-1; each ordered assignment of them adds the term's value to the
coefficient of d_(q^i) for each configuration label i and d_(p_a) for
each momentum label a, with family weight count / (denominator * k!)
for k momentum labels: the rearrangement sum counts each ordering k!
times (all permutations) or k times (cyclic rotations only).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .errors import (
    CanonicityFailure,
    DimensionMismatch,
    FamilyKeepsConstants,
    IncompatibleFamily,
    InvalidArgument,
    OperatorOrderExceeded,
    OrderMismatch,
)
from .geometry import Connection, SymplecticConnectionSpec, ricci
from .operators import MAX_OP_ORDER, DiffOp, _acc_compose, _acc_poly, _acc_scaled, _acc_shifted
from .operators import _leibniz_splits
from .poly import MultiIndex, Poly, _GrlexKeys
from .scalars import GaussianRational, ONE
from .series import HbarSeries
from .products import (
    CheckEntry,
    CheckReport,
    PoissonTensor,
    StarProduct,
    _MoyalPairs,
    _first_nonzero,
    monomials_up_to,
    quantum_canonicity_check,
    swap_parity,
    unital,
)


class EquivalenceMorphism:
    """id + sum_k hbar^k T_k, truncated, together with how it was obtained."""

    __slots__ = ("dim", "orders", "provenance")

    def __init__(self, orders: Sequence[DiffOp], provenance: str):
        if not orders:
            raise OrderMismatch("a morphism needs at least the order-0 operator")
        dim = orders[0].dim
        if orders[0] != DiffOp.identity(dim):
            raise InvalidArgument("the order-0 operator must be the identity")
        if any(op.dim != dim for op in orders):
            raise DimensionMismatch("mixed dimensions in morphism orders")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "orders", tuple(orders))
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name, value):
        raise AttributeError("EquivalenceMorphism is immutable")

    def __reduce__(self):
        return (EquivalenceMorphism, (self.orders, self.provenance))

    @property
    def order(self) -> int:
        return len(self.orders) - 1

    def operator(self, k: int) -> DiffOp:
        return self.orders[k]

    def apply(self, f: Poly) -> HbarSeries:
        return HbarSeries([op.apply(f) for op in self.orders])

    def __eq__(self, other):
        if not isinstance(other, EquivalenceMorphism):
            return NotImplemented
        return self.orders == other.orders

    def to_json(self) -> dict:
        """Orders 1..N as `DiffOp.to_json` writes them, through one
        grlex-key table for the whole morphism."""
        keys = _GrlexKeys(self.dim)
        return {
            "dim": self.dim,
            "order": self.order,
            "provenance": self.provenance,
            "term_counts": [op.term_count() for op in self.orders],
            "operators": [op._json(keys) for op in self.orders[1:]],
        }


# ---------------------------------------------------------------------------
# recurrence right-hand side
# ---------------------------------------------------------------------------

def coordinate_rhs(s: StarProduct, lower: Sequence[DiffOp], k: int) -> List[DiffOp]:
    """The operators F^alpha = sum_l S_l(x^alpha, T_(k-l) .) for
    1 <= l <= k, with S_l = (C_l + C_l.swap()) / 2 the symmetric part of
    C_l (`BiDiffOp.coordinate_slots(symmetric=True)`).

    `lower` must hold the morphism orders 0..k-1 (order 0 the identity).
    Every returned operator kills constants, because each C_l does.
    """
    if len(lower) < k:
        raise OrderMismatch(f"need the {k} lower orders, got {len(lower)}")
    return _coordinate_rhs(s.dim, _symmetric_slots(s, k), lower, k)


def _symmetric_slots(s: StarProduct, order: int) -> List[list]:
    """Row l holds the Leibniz splits of S_l(x^alpha, .) for every alpha,
    l <= order (row 0 is empty), read in one pass over C_l, split once."""
    return [[]] + [[_leibniz_splits(slot._terms) for slot in s.C[l].coordinate_slots(symmetric=True)]
                   for l in range(1, order + 1)]


def _coordinate_rhs(d: int, slots: List[list], lower: Sequence[DiffOp], k: int) -> List[DiffOp]:
    """`coordinate_rhs` off a table of `_symmetric_slots`, each S_l^alpha o
    T_(k-l) added raw into one map per alpha (`_acc_compose`)."""
    out = []
    for alpha in range(d):
        acc: Dict[MultiIndex, dict] = {}
        for l in range(1, k + 1):
            _acc_compose(acc, slots[l][alpha], lower[k - l]._terms)
        out.append(DiffOp._from_raw(d, acc))
    return out


# ---------------------------------------------------------------------------
# the solver and its oracle
# ---------------------------------------------------------------------------

_WEIGHTS = tuple(GaussianRational(Fraction(1, 1 + j)) for j in range(MAX_OP_ORDER + 1))


def commutator_solution_direct(family: Sequence[DiffOp]) -> DiffOp:
    """Unique T with [T, x^alpha] = family[alpha], T(1) = T(x^alpha) = 0.

    Writing family[alpha] = sum_J phi_(alpha,J) d^J, the candidate is
    sum_(alpha,J) phi_(alpha,J) / (1 + |J|) d^(e_alpha + J) (`_WEIGHTS`).
    Its d commutators, formed in one pass (`DiffOp.coordinate_commutators`),
    are always checked exactly, so a family admitting no common solution
    raises `IncompatibleFamily`, and one with a term that does not kill
    constants `FamilyKeepsConstants`.
    """
    if not family:
        raise DimensionMismatch("a family has one operator per coordinate, got none")
    d = family[0].dim
    if len(family) != d:
        raise DimensionMismatch(f"expected one operator per coordinate, got {len(family)}")
    acc: Dict[MultiIndex, dict] = {}
    for alpha, op in enumerate(family):
        if op.dim != d:
            raise DimensionMismatch("mixed dimensions in operator family")
        if not op.annihilates_constants():
            raise FamilyKeepsConstants(alpha)
        unit = MultiIndex.unit(alpha)
        for j_idx, coeff in op._terms.items():
            _acc_scaled(acc.setdefault(j_idx.sum_table()[unit], {}), coeff._terms,
                        _WEIGHTS[j_idx.degree])
    solution = DiffOp._from_raw(d, acc)
    for alpha, (comm, op) in enumerate(zip(solution.coordinate_commutators(), family)):
        if comm != op:
            raise IncompatibleFamily(alpha)
    return solution


def commutator_solution_nested(family: Sequence[DiffOp]) -> DiffOp:
    """The paper's construction of the same solution, the test oracle:
    sum_m (1/m!) [x^(a_1), ..., [x^(a_(m-1)), F^(a_m)]] d^(a_1)...d^(a_m).

    Nested commutators are symmetric in the outer coordinates, so levels
    are memoized on the sorted prefix; each level lowers the operator
    order by one, which makes the sum finite for finite-order input.
    """
    if not family:
        raise DimensionMismatch("a family has one operator per coordinate, got none")
    d = family[0].dim
    total = DiffOp.zero(d)
    # level m holds [x^(a_1),...,[x^(a_(m-1)), F^(a_m)]] keyed by
    # (sorted prefix, last index)
    level: Dict[Tuple[Tuple[int, ...], int], DiffOp] = {
        ((), am): op for am, op in enumerate(family) if not op.is_zero()
    }
    m = 1
    while level:
        if m > MAX_OP_ORDER + 2:
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
            for a0, comm in enumerate(op.coordinate_commutators()):
                # [x^a, T] = -[T, x^a], symmetric in the prefix: any
                # arrival order gives the same op
                if not comm.is_zero():
                    nxt.setdefault((tuple(sorted(prefix + (a0,))), am), -comm)
        level = nxt
        m += 1
    return total


def _permutation_count(prefix: Tuple[int, ...]) -> int:
    """Number of distinct orderings of an index tuple."""
    count = factorial(len(prefix))
    for _, e in MultiIndex.of(*prefix).pairs:
        count //= factorial(e)
    return count


# ---------------------------------------------------------------------------
# the derivation
# ---------------------------------------------------------------------------

def derive_equivalence(s: StarProduct, order: int | None = None) -> EquivalenceMorphism:
    """Derive the morphism orders 1..order for a quantum-canonical product.

    Every order k is solved from its right-hand side `coordinate_rhs` by
    `commutator_solution_direct`, whose exact commutator check makes the
    result the unique solution.  A right-hand side with no common
    solution raises `IncompatibleFamily` naming the order and the
    coordinate.  An `order` outside 0..s.order raises `OrderMismatch`.
    """
    if order is None:
        order = s.order
    if not 0 <= order <= s.order:
        raise OrderMismatch(f"derive order {order} is outside 0..{s.order}, the product's orders")
    canon = quantum_canonicity_check(s)
    if not canon.passed:
        bad = ", ".join(e.name for e in canon.failures())
        raise CanonicityFailure(f"coordinates are not quantum canonical: {bad}")
    d = s.dim
    ops: List[DiffOp] = [DiffOp.identity(d)]
    slots = _symmetric_slots(s, order)
    for k in range(1, order + 1):
        try:
            solution = commutator_solution_direct(_coordinate_rhs(d, slots, ops, k))
        except IncompatibleFamily as exc:
            raise type(exc)(exc.coordinate, f"order {k}: {exc}") from None
        ops.append(solution)
    return EquivalenceMorphism(ops, provenance="recursion")


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
    relations x *_s T(f) = T(x *_Moyal f) that drive the recurrence, with
    the coordinate left bare on the s side.  Both sides are expanded
    bilinearly over monomials into one keyed raw series of their
    difference: T(f *_Moyal g) from the flat Moyal pair and the flat
    images T_0..T_N(x^w), then T(f) *_s T(g) subtracted by one `add_star`
    of the pair table of s, T(f) negated.  The Moyal pairs are read in
    closed form from the entries of `s.poisson` (`_MoyalPairs`), with no
    Moyal product built; they and the images are kept for this call, the
    pairs of s as long as s.  Products are visited in the order of a
    direct evaluation, so the first failure reported is unchanged.  A
    failing entry names its first failing product, the lowest order where
    the two sides differ and the residual T(f *_Moyal g) - T(f) * T(g)
    there.

    When s has `swap_parity` and every odd T_k is zero, write eps for
    hbar -> -hbar: g * f = eps(f * g) for both products and T commutes
    with eps, so residual(g, f)_m = (-1)^m residual(f, g)_m, and the same
    holds between the two coordinate-slot products of one monomial.  A
    product then fails exactly when its mirror does, at the same lowest
    order, and the mirror comes first in the visiting order; so the
    product T(f) *_s x of each coordinate slot and every pair whose g comes
    before f in the basis are skipped.

    When s is `unital` and no T_k with k >= 1 has a term without
    derivatives, T(1) = 1 and 1 is the unit of both products (Moyal's
    always is), so T(1 *_Moyal g) = T(g) = 1 *_s T(g) and likewise for
    (f, 1): the pairs with f = 1 or g = 1 are skipped.  Skipped products
    are still counted as checked, and each reduction skips only products
    that pass or whose mirror comes first, so the report is unchanged.
    Otherwise every product is evaluated.
    """
    d = s.dim
    if morphism.dim != d:
        raise DimensionMismatch("morphism and product dimensions differ")
    N = s.order
    if morphism.order != N:
        raise OrderMismatch(f"morphism order {morphism.order} differs from product order {N}")
    if max_degree < 0:
        raise InvalidArgument(f"a degree bound is 0 or more, not {max_degree}")
    star = s._pairs()
    moyal = _MoyalPairs(s.poisson, N)
    orders = morphism.orders[1:]
    images: Dict[MultiIndex, tuple] = {}

    def image(w: MultiIndex) -> tuple:
        """T_0(x^w), ..., T_N(x^w) as a flat raw series."""
        out = images.get(w)
        if out is None:
            x = Poly._normal(d, {w: ONE})
            out = images[w] = ((0, w, ONE),) + tuple(
                (k, m, c) for k, op in enumerate(orders, 1) for m, c in op.apply(x)._terms.items())
        return out

    def mismatch(u: MultiIndex, v: MultiIndex, fu: tuple, gv: tuple) -> str | None:
        """None when T(x^u *_Moyal x^v) equals fu *_s gv, else the lowest
        order where they differ and the residual there."""
        acc: dict = {}
        for l, w, c in moyal.pair(u, v):
            for j, m, t in image(w):
                if l + j > N:
                    break
                t = t if c is ONE else t * c
                key = (l + j, m)
                acc[key] = acc[key] + t if key in acc else t
        star.add_star(acc, [(k, w, -c) for k, w, c in fu], gv)
        failure = _first_nonzero(d, acc)
        return None if failure is None else f" at order {failure[0]}: residual {failure[1]}"

    mirrored = swap_parity(s) and all(op.is_zero() for op in orders[::2])
    basis = monomials_up_to(d, max_degree)
    coord_failure = None
    checked = 0
    for alpha in range(d):
        e = MultiIndex.unit(alpha)
        bare = ((0, e, ONE),)
        for fm in basis:
            checked += 2
            if coord_failure is not None:
                continue
            residual = mismatch(e, fm, bare, image(fm))
            if residual is not None:
                coord_failure = f"coordinate {alpha} on {Poly.monomial(d, fm)}" + residual
                continue
            if mirrored:
                continue
            residual = mismatch(fm, e, image(fm), bare)
            if residual is not None:
                coord_failure = f"{Poly.monomial(d, fm)} on coordinate {alpha}" + residual
    entries: List[CheckEntry] = [
        CheckEntry(
            "coordinate-slots",
            coord_failure is None,
            f"{checked} one-sided products checked"
            + ("" if coord_failure is None else f"; first failure: {coord_failure}"),
        )
    ]

    unit = unital(s) and all(op.annihilates_constants() for op in orders)
    pair_failure = None
    checked = 0
    for fi, fm in enumerate(basis):
        for gi, gm in enumerate(basis):
            if fm.degree + gm.degree > max_degree:
                break
            checked += 1
            if (pair_failure is None and (gi >= fi or not mirrored)
                    and (fm.degree and gm.degree or not unit)):
                residual = mismatch(fm, gm, image(fm), image(gm))
                if residual is not None:
                    f, g = Poly.monomial(d, fm), Poly.monomial(d, gm)
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
        "intertwining",
        tuple(entries),
        {"max_degree": max_degree, "order": s.order, "dim": d},
    )


# ---------------------------------------------------------------------------
# closed forms: flat cotangent bundle
# ---------------------------------------------------------------------------

# The closed-form term tables; the notation is in the module docstring.
_ORDER2 = (
    (8, "i", "ab", [(1, "G(i,a,b)")]),
    (8, "", "ab", [(1, "G(i,l,a) G(l,i,b)")]),
    (24, "", "abc", [(2, "G(i,m,c) G(m,a,b) p(i)"), (-1, "G(i,a,b|c) p(i)")]),
)

_ORDER4 = (
    (384, "", "abcd", [  # A
        (-3, "G(k,a,l) G(l,b,c|d,k)"),
        (-1, "G(k,a,l) G(l,k,b|c,d)"),
        (-1, "G(k,m,a) G(l,b,c) G(m,k,l|d)"),
        (-3, "G(k,l,m) G(l,k,a) G(m,b,c|d)"),
        (3, "G(k,m,a) G(l,k,b) G(m,l,c|d)"),
        (3, "G(k,m,a) G(l,k,b) G(m,c,d|l)"),
        (3, "G(k,m,a) G(l,b,c) G(m,l,d|k)"),
        (7, "G(k,m,a) G(l,b,c) G(m,k,d|l)"),
        (3, "G(k,m,a) G(l,t,b) G(m,k,l) G(t,c,d)"),
        (3, "G(k,l,a) G(l,k,b) G(m,t,c) G(t,m,d)"),
        (-1, "G(k,m,a) G(l,k,b) G(m,t,c) G(t,l,d)"),
    ]),
    (384, "i", "abcd", [  # B
        (-1, "G(i,a,b|c,d)"),
        (4, "G(k,a,b) G(i,c,d|k)"),
        (1, "G(k,a,b) G(i,k,c|d)"),
        (-2, "G(i,k,a) G(k,b,c|d)"),
        (6, "G(k,l,a) G(l,k,b) G(i,c,d)"),
        (1, "G(k,l,a) G(l,b,c) G(i,k,d)"),
        (1, "G(k,a,b) G(l,c,d) G(i,k,l)"),
    ]),
    (128, "ij", "abcd", [(1, "G(i,a,b) G(j,c,d)")]),  # C
    (1920, "", "abcde", [  # D
        (1, "G(r,a,b|c,d,e) p(r)"),
        (-7, "G(k,a,b) G(r,c,d|e,k) p(r)"),
        (-2, "G(k,a,b) G(r,k,c|d,e) p(r)"),
        (-2, "G(r,k,a) G(k,b,c|d,e) p(r)"),
        (2, "G(r,k,a|b) G(k,c,d|e) p(r)"),
        (1, "G(r,a,b|k) G(k,c,d|e) p(r)"),
        (-8, "G(r,k,a) G(k,l,b) G(l,c,d|e) p(r)"),
        (-6, "G(r,k,l) G(k,a,b) G(l,c,d|e) p(r)"),
        (10, "G(r,l,a) G(k,b,c) G(l,d,e|k) p(r)"),
        (4, "G(r,l,a) G(k,b,c) G(l,k,d|e) p(r)"),
        (-10, "G(k,l,a) G(l,k,b) G(r,c,d|e) p(r)"),
        (-2, "G(k,l,a) G(l,b,c) G(r,d,e|k) p(r)"),
        (-2, "G(k,a,b) G(l,c,d) G(r,k,l|e) p(r)"),
        (10, "G(k,a,b) G(l,c,d) G(r,k,e|l) p(r)"),
        (20, "G(r,k,a) G(k,b,c) G(l,m,d) G(m,l,e) p(r)"),
        (8, "G(r,k,m) G(k,a,b) G(l,c,d) G(m,l,e) p(r)"),
        (8, "G(r,k,a) G(k,m,b) G(l,c,d) G(m,l,e) p(r)"),
    ]),
    (192, "i", "abcde", [  # E
        (-1, "G(i,a,b) G(r,c,d|e) p(r)"),
        (2, "G(r,k,a) G(k,b,c) G(i,d,e) p(r)"),
    ]),
    (1152, "", "abcdef", [  # F
        (1, "G(r,a,b|c) G(s,d,e|f) p(r) p(s)"),
        (-4, "G(r,k,a) G(k,b,c) G(s,d,e|f) p(r) p(s)"),
        (4, "G(r,k,a) G(s,l,b) G(k,c,d) G(l,e,f) p(r) p(s)"),
    ]),
)


def _contract(conn: Connection, families, cycl_mode: str) -> DiffOp:
    """Sum a term table over every index assignment of nonzero symbols.

    The G factors of a term are joined in order, each looked up by the
    labels that earlier factors bound in one sparse table of the nonzero
    d^J G^a_(bc) at the ranks |J| the table uses, so no zero product is
    formed; each assignment adds into the coefficient of its derivative.
    """
    n = conn.n
    terms = []
    for denominator, config, momenta, table in families:
        k = len(momenta)
        count = factorial(k) if cycl_mode == "permutations" else k
        for coeff, text in table:
            weight = GaussianRational(Fraction(coeff * count, denominator * factorial(k)))
            symbols, shifts, bound = [], [], set()
            for factor in text.split():  # "G(a,b,c|J)" or "p(r)"
                if factor.startswith("p("):
                    shifts.append(factor[2:-1])
                    continue
                labels = tuple(factor[2:-1].replace("|", ",").split(","))
                key = tuple(pos for pos, label in enumerate(labels) if label in bound)
                symbols.append((labels, key))
                bound.update(labels)
            terms.append((weight, config, momenta, shifts, symbols))

    lookups = {(len(labels), key): {} for *_, symbols in terms for labels, key in symbols}
    ranks = {size - 3 for size, _ in lookups}
    jets: Dict[Tuple[int, ...], Poly] = {}
    for upper_lower, symbol in conn.components().items():
        for js in (js for rank in ranks for js in itertools.product(range(n), repeat=rank)):
            jet = symbol.diff(MultiIndex.of(*js))
            if not jet.is_zero():
                jets[upper_lower + js] = jet
    for (size, key), lookup in lookups.items():
        for vals, jet in jets.items():
            if len(vals) == size:
                lookup.setdefault(tuple(vals[pos] for pos in key), []).append((vals, jet))

    out: Dict[MultiIndex, Dict[MultiIndex, GaussianRational]] = {}

    def join(term, env: Dict[str, int], depth: int, prod: Poly | None):
        weight, config, momenta, shifts, symbols = term
        if depth < len(symbols):
            labels, key = symbols[depth]
            lookup = lookups[(len(labels), key)]
            for vals, jet in lookup.get(tuple(env[labels[pos]] for pos in key), ()):
                env.update(zip(labels, vals))
                join(term, env, depth + 1, jet if prod is None else prod * jet)
            return
        deriv = MultiIndex.of(*(env[c] for c in config), *(n + env[m] for m in momenta))
        shift = MultiIndex.of(*(n + env[r] for r in shifts))
        _acc_shifted(out.setdefault(deriv, {}), prod._terms, shift, weight)

    for term in terms:
        join(term, {}, 0, None)
    d = 2 * n
    return DiffOp(d, {deriv: Poly(d, acc) for deriv, acc in out.items()})


def flat_cotangent_order2(conn: Connection) -> DiffOp:
    """Closed form of the order-2 morphism term over a flat base."""
    return _contract(conn, _ORDER2, "permutations")


def flat_cotangent_order4(conn: Connection, cycl_mode: str = "permutations") -> DiffOp:
    """Closed form of the order-4 morphism term over a flat base.

    Each tensor is summed over rearrangements of its k momentum indices:
    all permutations by default, or only the cyclic rotations with
    `cycl_mode="rotations"`.  The readings differ per tensor by (k-1)!;
    the permutation reading reproduces the recursively derived operator.
    """
    if cycl_mode not in ("rotations", "permutations"):
        raise InvalidArgument("cycl_mode must be 'rotations' or 'permutations'")
    return _contract(conn, _ORDER4, cycl_mode)


def flat_cotangent_morphism(conn: Connection) -> EquivalenceMorphism:
    """Morphism of orders 0..4 assembled from the closed forms instead of
    the recursion; odd orders vanish by parity."""
    d = 2 * conn.n
    zero = DiffOp.zero(d)
    ops = [DiffOp.identity(d), zero, flat_cotangent_order2(conn), zero, flat_cotangent_order4(conn)]
    return EquivalenceMorphism(ops, provenance="closed-form")


# ---------------------------------------------------------------------------
# closed form: general symplectic connection, order 2
# ---------------------------------------------------------------------------

def symplectic_order2(spec: SymplecticConnectionSpec) -> DiffOp:
    """Closed form of the order-2 morphism term for a torsionless
    symplectic connection with Ricci weight `a`.

    Each derivative slot alpha is raised to its one partner nu through
    the canonical Poisson tensor, with the entry P^(alpha nu) as factor
    (`PoissonTensor._partner`); the quadratic symbol contraction and the
    weighted Ricci tensor sit in the order-2 coefficient.
    """
    d = spec.dim
    partner = PoissonTensor.canonical(spec.n)._partner

    acc: Dict[MultiIndex, Poly] = {}
    w3 = GaussianRational(Fraction(-1, 24))
    w2 = GaussianRational(Fraction(1, 16))

    for al, be, ga in itertools.product(range(d), repeat=3):
        low = spec.lowered(al, be, ga)
        if low.is_zero():
            continue
        (b1, v1), (b2, v2), (b3, v3) = partner[al], partner[be], partner[ga]
        _acc_poly(acc, MultiIndex.of(b1, b2, b3), low.scale(w3 * v1 * v2 * v3))

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
        (b1, v1), (b2, v2) = partner[al], partner[be]
        _acc_poly(acc, MultiIndex.of(b1, b2), coeff.scale(w2 * v1 * v2))

    return DiffOp(d, acc)


# ---------------------------------------------------------------------------
# closed-form vs derived comparison
# ---------------------------------------------------------------------------

def operator_diff_report(derived: DiffOp, closed: DiffOp) -> List[dict]:
    """Term-level discrepancies between two operators in normal form."""
    out: List[dict] = []
    indices = {mi for mi, _ in derived.terms()} | {mi for mi, _ in closed.terms()}
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
