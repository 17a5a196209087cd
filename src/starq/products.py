"""Star-product constructors and validators.

Four constructors are provided: the Moyal product of a constant Poisson
tensor, the product induced by a commuting vector-field frame, the
natural product of a flat cotangent bundle built from iterated covariant
derivatives, and the order-2 product of a general symplectic connection
with a Ricci-weight parameter.  C_k contracts k copies of the Poisson
tensor with rank-k jets of both factors.  Every jet is symmetric in its
indices -- partials commute, a flat torsion-free connection (a flat
lift, or the connection that keeps commuting frame fields parallel) has
fully symmetric jets, and rank-2 jets of any torsion-free connection
are symmetric -- so C_k sums once per key (L, R) of one walk over the
multisets of Poisson entries (`_entry_multisets`), and equals the
ordered sum exactly.  Moyal's C_k is read straight off the walk; the
others share one pairing, `_pairing_product`, of jets keyed by sorted
index tuples from the one jet recursion of `geometry` (a frame's of its
flat connection).  What they read of the tensor, its sorted entries,
paired coordinates and partners, it works out once (`PoissonTensor`).
The tensor is antisymmetric, so the walk's key (R, L) weighs (-1)^k
times its mirror (L, R), whatever the jets: the pairing builds only one
key of each mirror pair and adds the swapped term from it, which gives
C_k(g, f) = (-1)^k C_k(f, g) term by term.
`check_axioms` and `quantum_canonicity_check` validate any product
against the defining conditions on a degree-bounded monomial basis,
which is exact because all operators involved have finite order and
polynomial coefficients.  Every truncated product of hbar-series,
`StarProduct.apply` and those of `check_axioms`, is evaluated by one
kernel, `_PairTable.add_star`, on flat series of (order, monomial,
coefficient) entries: one lookup per monomial pair (a, b) gives every
nonzero term of C_0..C_k(x^a, x^b), filled up to the order k that the
truncation reads, added into one map keyed by (order, monomial).  A
product has one such table, made on first use and living as long as the
product, so `apply`, `star_bracket`, `check_axioms` and the intertwining
check of `equivalence` share its pairs, and its structural verdicts
(`unital`, `swap_parity`) are each decided once; `==`, copy and pickle
ignore it.  The canonicity check and the derivation read the terms the
coordinates see straight off each C_l (`_coordinate_commutator`,
`BiDiffOp.coordinate_slots`) and fill no table.  When 1 is the unit of the
product, `check_axioms` skips the triples with a constant factor, whose
associators the unit laws already prove zero.  The Moyal pairs that the
intertwining check compares with are read in closed form from the same
walk (`_MoyalPairs`), with no operator built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from .errors import (
    CanonicityFailure,
    DimensionMismatch,
    InvalidArgument,
    InvalidFrame,
    OrderMismatch,
)
from .geometry import (
    Connection,
    SymplecticConnectionSpec,
    _sorted_jets,
    lift_connection,
    ricci,
    symmetric_jet_ops,
)
from .operators import (
    BiDiffOp,
    DiffOp,
    _acc_poly,
    _acc_shifted,
    _check_order,
    _nonzero_poly,
    _nonzero_terms,
)
from .poly import EMPTY_INDEX, MultiIndex, Poly, _GrlexKeys
from .scalars import GaussianRational, HALF, HALF_I, I as IMAG, ONE
from .series import HbarSeries


# ---------------------------------------------------------------------------
# Poisson tensor
# ---------------------------------------------------------------------------

class PoissonTensor:
    """Constant antisymmetric bivector on R^d, d = 2n + k, as in quantum
    canonical coordinates; each component is a constant `Poly`.

    What the builders read is worked out once, here: the nonzero entries
    (mu, nu, value) as sorted scalars that the walk steps through
    (`constant_entries`), the sorted paired coordinates, the only jet
    indices a pairing reads (`_paired`), and each one's partner map
    mu -> (nu, P^(mu nu)) (`_partner`), None when some has several."""

    __slots__ = ("n", "casimir", "dim", "_entries", "_scalars", "_paired", "_partner")

    def __init__(self, n: int, casimir: int, entries: Dict[Tuple[int, int], Poly]):
        d = _phase_dim(n, casimir)
        clean: Dict[Tuple[int, int], Poly] = {}
        for (mu, nu), poly in entries.items():
            if not (0 <= mu < d and 0 <= nu < d):
                raise DimensionMismatch("Poisson index out of range")
            if poly.dim != d:
                raise DimensionMismatch("Poisson component has wrong dimension")
            if not poly.is_constant():
                raise InvalidArgument("Poisson tensor components must be constant")
            if not poly.is_zero():
                clean[(mu, nu)] = poly
        for (mu, nu), poly in clean.items():
            if clean.get((nu, mu), Poly.zero(d)) != -poly:
                raise InvalidArgument("Poisson tensor must be antisymmetric")
        scalars = tuple(sorted((mu, nu, poly.constant_term()) for (mu, nu), poly in clean.items()))
        # one key per paired coordinate, in sorted order; fewer keys than
        # entries when some coordinate has more than one partner
        partner = {mu: (nu, v) for mu, nu, v in scalars}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "casimir", casimir)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "_entries", clean)
        object.__setattr__(self, "_scalars", scalars)
        object.__setattr__(self, "_paired", tuple(partner))
        object.__setattr__(self, "_partner", partner if len(partner) == len(scalars) else None)

    def __setattr__(self, name, value):
        raise AttributeError("PoissonTensor is immutable")

    def __reduce__(self):
        return (PoissonTensor, (self.n, self.casimir, dict(self._entries)))

    @classmethod
    def canonical(cls, n: int, casimir: int = 0) -> "PoissonTensor":
        """Block form: the symplectic block ((0, I), (-I, 0)) on the first
        2n coordinates plus `casimir` null directions."""
        d = _phase_dim(n, casimir)
        return cls(n, casimir, {(a, b): Poly.const(d, 1 if a < b else -1)
                                for i in range(n) for a, b in ((i, n + i), (n + i, i))})

    def entry(self, mu: int, nu: int) -> Poly:
        return self._entries.get((mu, nu), Poly.zero(self.dim))

    def constant_entries(self) -> Tuple[Tuple[int, int, GaussianRational], ...]:
        """Nonzero entries (mu, nu, value) as scalars, sorted."""
        return self._scalars

    def bracket(self, f: Poly, g: Poly) -> Poly:
        """Classical Poisson bracket sum P^(mu nu) d_mu f d_nu g."""
        acc = Poly.zero(self.dim)
        for (mu, nu), p in self._entries.items():
            df = f.diff_coord(mu)
            if df.is_zero():
                continue
            dg = g.diff_coord(nu)
            if dg.is_zero():
                continue
            acc = acc + p * df * dg
        return acc

    def as_bidiff(self) -> BiDiffOp:
        return BiDiffOp(
            self.dim,
            {
                (MultiIndex.unit(mu), MultiIndex.unit(nu)): p
                for (mu, nu), p in self._entries.items()
            },
        )

    def __eq__(self, other):
        if not isinstance(other, PoissonTensor):
            return NotImplemented
        return (
            self.n == other.n
            and self.casimir == other.casimir
            and self._entries == other._entries
        )


def _phase_dim(n: int, casimir: int) -> int:
    """d = 2n + casimir, with no negative count and at least one coordinate."""
    if n < 0 or casimir < 0 or 2 * n + casimir < 1:
        raise DimensionMismatch(f"no phase space has n={n} pairs and {casimir} Casimirs")
    return 2 * n + casimir


# ---------------------------------------------------------------------------
# vector-field frames
# ---------------------------------------------------------------------------

class VectorFieldFrame:
    """d first-order operators without multiplication parts."""

    __slots__ = ("dim", "fields")

    def __init__(self, fields: List[DiffOp]):
        if not fields:
            raise InvalidFrame("empty frame")
        dim = fields[0].dim
        if len(fields) != dim:
            raise InvalidFrame(f"expected {dim} fields, got {len(fields)}")
        for op in fields:
            if op.dim != dim:
                raise DimensionMismatch("mixed dimensions in frame")
            if not op.annihilates_constants() or op.order != 1:
                raise InvalidFrame("frame entries must be pure first-order operators")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "fields", list(fields))

    def __setattr__(self, name, value):
        raise AttributeError("VectorFieldFrame is immutable")

    def __reduce__(self):
        return (VectorFieldFrame, (self.fields,))

    @classmethod
    def coordinate(cls, dim: int) -> "VectorFieldFrame":
        return cls([DiffOp.partial(dim, mu) for mu in range(dim)])

    @classmethod
    def from_components(cls, components: List[List[Poly]]) -> "VectorFieldFrame":
        dim = len(components)
        fields = []
        for comps in components:
            terms = {
                MultiIndex.unit(a): c for a, c in enumerate(comps) if not c.is_zero()
            }
            fields.append(DiffOp(dim, terms))
        return cls(fields)

    def component(self, mu: int, a: int) -> Poly:
        return self.fields[mu].coefficient(MultiIndex.unit(a))

    def validate(self, p: PoissonTensor):
        """Pairwise commutation and reproduction of the Poisson tensor."""
        if p.dim != self.dim:
            raise DimensionMismatch("frame and Poisson tensor dimensions differ")
        comps = [[self.component(mu, a) for a in range(self.dim)] for mu in range(self.dim)]
        for mu, nu in itertools.combinations(range(self.dim), 2):
            a, b = self.fields[mu], self.fields[nu]
            # [e_mu, e_nu]^c = e_mu(e_nu^c) - e_nu(e_mu^c); second-order parts cancel
            if any(a.apply(comps[nu][c]) != b.apply(comps[mu][c]) for c in range(self.dim)):
                raise InvalidFrame(f"fields {mu} and {nu} do not commute")
        entries = p.constant_entries()
        for a in range(self.dim):
            for b in range(self.dim):
                acc = sum(((comps[mu][a] * comps[nu][b]).scale(v) for mu, nu, v in entries),
                          Poly.zero(self.dim))
                if acc != p.entry(a, b):
                    raise InvalidFrame(f"frame does not reproduce the Poisson tensor at ({a},{b})")


# ---------------------------------------------------------------------------
# star products
# ---------------------------------------------------------------------------

class StarProduct:
    """Truncated product f * g = sum_k hbar^k C_k(f, g)."""

    # _table is the product's one `_PairTable`, made on first use; it is
    # a pure cache, which `==`, copy and pickle ignore
    __slots__ = ("dim", "order", "C", "poisson", "_table")

    def __init__(self, poisson: PoissonTensor, C: List[BiDiffOp]):
        if not C:
            raise OrderMismatch("a product needs at least the order-0 operator")
        dim = poisson.dim
        for op in C:
            if op.dim != dim:
                raise DimensionMismatch("operator dimension differs from phase space")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", len(C) - 1)
        object.__setattr__(self, "C", list(C))
        object.__setattr__(self, "poisson", poisson)
        object.__setattr__(self, "_table", None)

    def __setattr__(self, name, value):
        raise AttributeError("StarProduct is immutable")

    def __reduce__(self):
        return (StarProduct, (self.poisson, self.C))

    def apply(self, f, g) -> HbarSeries:
        """f * g for Poly or HbarSeries arguments, truncated at the order."""
        acc: dict = {}
        self._pairs().add_star(acc, *self._operands(f, g))
        return HbarSeries(_coefficients(self.dim, self.order, acc))

    def _operands(self, f, g):
        """The flat raw series of two operands, checked against the product."""
        if any(isinstance(h, HbarSeries) and h.order != self.order for h in (f, g)):
            raise OrderMismatch("series order must match the product order")
        f, g = ([h] if isinstance(h, Poly) else h.coeffs for h in (f, g))  # a Poly is order 0
        if any(p.dim != self.dim for p in f + g):
            raise DimensionMismatch("operand dimension mismatch")
        return [[(k, m, x) for k, p in enumerate(h) for m, x in p._terms.items()] for h in (f, g)]

    def _pairs(self) -> "_PairTable":
        """The product's one pair table, made on first use."""
        table = self._table
        if table is None:
            table = _PairTable(self)
            object.__setattr__(self, "_table", table)
        return table

    def truncate(self, order: int) -> "StarProduct":
        """The product of orders 0..order; the product itself, and so its
        pair table, at its own order."""
        if order > self.order:
            raise OrderMismatch(f"cannot extend order {self.order} to {order}")
        if order < 0:
            raise OrderMismatch(f"a product has order 0 or more, not {order}")
        return self if order == self.order else StarProduct(self.poisson, self.C[: order + 1])

    def __eq__(self, other):
        if not isinstance(other, StarProduct):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.order == other.order
            and self.poisson == other.poisson
            and self.C == other.C
        )

    def to_json(self) -> dict:
        """Every operator as `BiDiffOp.to_json` writes it, through one
        grlex-key table for the whole product."""
        keys = _GrlexKeys(self.dim)
        return {
            "dim": self.dim,
            "order": self.order,
            # a fixed field kept because reports and bench digests carry
            # it; whether the parity holds is check_axioms' "parity" entry
            "parity": True,
            "operators": [op._json(keys) for op in self.C],
        }


def _pairing_product(
    p: PoissonTensor,
    jets: Dict[Tuple[int, ...], DiffOp],
    order: int,
) -> List[BiDiffOp]:
    """Operators C_0..C_order with C_k the k-fold Poisson pairing of jets.

    C_k = (i/2)^k / k! sum over ordered k-tuples of Poisson entries of
    prod P^(mu_e nu_e) J(mu_1..mu_k) (x) J(nu_1..nu_k), where the one
    table `jets` maps a sorted index tuple of any rank 1..order to its jet
    J.  Every table fed here is symmetric in its indices, so C_k is the
    sum of W(L, R) J_L (x) J_R over the keys of level k of
    `_entry_multisets`: exactly the ordered sum.

    The mirror sigma maps each entry (mu, nu, v) to (nu, mu, -v), an
    entry of the same tensor since it is antisymmetric, and the multisets
    of key (L, R) onto those of (R, L), so W(R, L) = (-1)^k W(L, R): the
    term of (R, L) is (-1)^k times the slot swap of that of (L, R).  Only
    the keys with sorted L <= sorted R are visited: a self-mirror one
    (L is R) adds its term into `acc`, any other into `half`, and each
    normalised coefficient P of `half` at (left, right) is added there
    and, times (-1)^k, at (right, left).  It needs a constant antisymmetric
    tensor and one table `jets` for both slots, not symmetric jets.

    Each left coefficient is scaled by the weight once per key, and its
    monomials times each right coefficient are added raw into the map of
    (left, right) through `_acc_shifted`, normalised once.
    """
    d = p.dim
    C = [BiDiffOp.multiplication(d)]
    for k, level in enumerate(_entry_multisets(p, order), 1):
        acc: Dict[Tuple[MultiIndex, MultiIndex], Dict[MultiIndex, GaussianRational]] = {}
        half: Dict[Tuple[MultiIndex, MultiIndex], Dict[MultiIndex, GaussianRational]] = {}
        for (L, R), w in level.items():
            lt, rt = tuple(L.coords()), tuple(R.coords())
            if lt > rt:
                continue
            into = acc if L is R else half
            for li, pa in jets[lt]._terms.items():
                scaled = [(m, c * w) for m, c in pa._terms.items()]
                for ri, pb in jets[rt]._terms.items():
                    target = into.setdefault((li, ri), {})
                    for m, c in scaled:
                        _acc_shifted(target, pb._terms, m, c)
        terms = _nonzero_terms(d, acc)
        for (li, ri), poly in _nonzero_terms(d, half).items():
            _acc_poly(terms, (li, ri), poly)
            _acc_poly(terms, (ri, li), -poly if k % 2 else poly)
        # every slot of every key is a key of a checked jet operator
        C.append(BiDiffOp._unchecked(d, terms))
    return C


def _entry_multisets(p: PoissonTensor, order: int) -> Iterator[dict]:
    """Levels k = 1..order of the multisets M of k Poisson entries, each a
    map (L, R) -> W(L, R) in first-seen order: L, R the multisets of M's
    left and right indices, W the sum over the M with that key of w(M) =
    (i/2)^k prod v_e / prod m_e! (m_e the multiplicity of entry e), zero
    sums dropped.  M is its prefix plus a last entry e, kept with the
    length r of e's run: L and R gain e's indices through the sum tables,
    w gains (i/2) v_e / r.  The derivative-order guard bounds the order
    before any level is made."""
    if order < 0:
        raise OrderMismatch(f"a product has order 0 or more, not {order}")
    _check_order(order)
    units = [(MultiIndex.unit(mu), MultiIndex.unit(nu), [HALF_I * v / r for r in range(1, order + 1)])
             for mu, nu, v in p.constant_entries()]
    level, ends = [((EMPTY_INDEX, EMPTY_INDEX), ONE)], [(0, 0)]
    for _ in range(order):
        grown, grown_ends, keyed = [], [], {}
        for ((L, R), w), (last, run) in zip(level, ends):
            lsum, rsum = L.sum_table(), R.sum_table()
            for j in range(last, len(units)):
                mu, nu, steps = units[j]
                r = run + 1 if j == last else 1
                key, v = (lsum[mu], rsum[nu]), w * steps[r - 1]
                grown.append((key, v))
                grown_ends.append((j, r))
                keyed[key] = keyed[key] + v if key in keyed else v
        level, ends = grown, grown_ends
        yield {key: W for key, W in keyed.items() if W}


def moyal_product(p: PoissonTensor, order: int) -> StarProduct:
    """Moyal product of a constant Poisson tensor, truncated at `order`:
    C_k, the pairing of the partials, is W(L, R) d^L (x) d^R over the keys
    of level k of `_entry_multisets`, which bounds k by the derivative-order
    guard."""
    return StarProduct(p, [BiDiffOp.multiplication(p.dim)] + [
        BiDiffOp(p.dim, {key: Poly._normal(p.dim, {EMPTY_INDEX: w}) for key, w in level.items()})
        for level in _entry_multisets(p, order)])


class _MoyalPairs:
    """x^u *_Moyal x^v of a constant Poisson tensor up to order N, read in
    closed form with no operator built; the tests' oracle is the pair
    table of the Moyal product paired from partial-derivative jets.

    C_l of Moyal is W(L, R) d^L (x) d^R over the keys of level l of
    `_entry_multisets`, so C_l(x^u, x^v) is the sum of W(L, R) (u)_L (v)_R
    x^(u-L+v-R) over the keys with L <= u and R <= v, the falling
    factorials read from the divisor tables of u and v.  Every term of C_l
    differentiates both slots l times, so only the orders
    l <= min(|u|, |v|, N) are formed, each level taken the first time a
    pair reads it.  A pair is the flat raw series of `_PairTable.pair`,
    kept while this table lives.
    """

    __slots__ = ("_levels", "_N", "_orders", "_pairs")

    def __init__(self, p: PoissonTensor, N: int):
        self._levels = _entry_multisets(p, N)
        self._N = N
        # order l -> the key map (L, R) -> W(L, R) of level l
        self._orders: List[dict] = [{}]
        self._pairs: Dict[tuple, tuple] = {}

    def pair(self, u: MultiIndex, v: MultiIndex) -> tuple:
        """x^u *_Moyal x^v as the flat raw series of C_0..C_N(x^u, x^v)."""
        got = self._pairs.get((u, v))
        if got is None:
            out = [(0, u.sum_table()[v], ONE)]
            top = min(u.degree, v.degree, self._N)
            if top:
                du, dv = u.divisors(), v.divisors()
            for l in range(1, top + 1):
                if l == len(self._orders):  # the levels are read in order
                    self._orders.append(next(self._levels))
                acc: Dict[MultiIndex, GaussianRational] = {}
                for (L, R), w in self._orders[l].items():
                    hu = du.get(L)
                    if hu is None:
                        continue
                    hv = dv.get(R)
                    if hv is None:
                        continue
                    m = hu[1].sum_table()[hv[1]]
                    f = hu[2] * hv[2]
                    c = w if f == 1 else w * f
                    acc[m] = acc[m] + c if m in acc else c
                out += [(l, m, c) for m, c in acc.items() if c]
            got = self._pairs[(u, v)] = tuple(out)
        return got


def _frame_connection(frame: VectorFieldFrame, p: PoissonTensor) -> Connection:
    """The flat torsion-free connection that keeps the paired fields
    e_mu = sum_a e_mu^a d_a parallel, on the paired coordinates:

        Gamma^a_(bc) = -sum_mu (d_b e_mu^a) (e^-1)^mu_c,

    formed only where d_b e_mu^a != 0.  `p` must pair each coordinate with
    one partner (its `_partner` map); then P^-1[c][pc] = -1 / P[c][pc], so
    e^-1 = P^-1 e^T P reads (e^-1)^mu_c = e_(p mu)^(pc) P[mu][p mu] / P[c][pc]."""
    partner = p._partner
    inverse: Dict[int, List[Tuple[int, Poly]]] = {}
    for mu, (pmu, vmu) in partner.items():
        for c, (pc, vc) in partner.items():
            e = frame.component(pmu, pc)
            if not e.is_zero():
                inverse.setdefault(mu, []).append((c, e.scale(vmu / vc)))
    gamma: Dict[Tuple[int, int, int], Poly] = {}
    for mu, row in inverse.items():
        for a in partner:
            e = frame.component(mu, a)
            for b in partner:
                de = e.diff_coord(b)
                if de.is_zero():
                    continue
                for c, inv in row:
                    gamma[(a, b, c)] = gamma.get((a, b, c), Poly.zero(p.dim)) - de * inv
    return Connection(p.dim, gamma)


def vector_field_product(frame: VectorFieldFrame, p: PoissonTensor, order: int) -> StarProduct:
    """Product generated by a commuting frame reproducing `p`: the pairing
    of the compositions D_t0 o ... o D_tk of its fields over the
    coordinates `p` pairs.

    The fields are parallel for one flat torsion-free connection nabla,
    so D_mu1 o ... o D_muk = e_mu1^a1 ... e_muk^ak nabla^k_(a1...ak), and
    sum P^(mu nu) e_mu^a e_nu^b = P^(ab): the product is the pairing of
    the covariant jets of nabla, and no division is needed.  `validate`
    checks e^T P e = P, which gives e^-1 = P^-1 e^T P on the paired
    coordinates and leaves the paired fields no component along a
    Casimir direction, so the symbols and jets stay on those coordinates.
    This route is taken when `p` pairs each coordinate with one partner,
    where P^-1 is read entry by entry (`_frame_connection`); for any
    other tensor the jets are the compositions themselves, a recursion
    with no symbols.  Both routes give the same operators."""
    frame.validate(p)
    if p._partner is None:
        jets = _sorted_jets(frame.fields, p._paired, order)
    else:
        partials = [DiffOp.partial(p.dim, a) for a in range(p.dim)]
        jets = _sorted_jets(partials, p._paired, order, _frame_connection(frame, p))
    return StarProduct(p, _pairing_product(p, jets, order))


def natural_cotangent_product(conn: Connection, order: int) -> StarProduct:
    """Natural product on the phase space over a flat base connection.

    Order k pairs the rank-k covariant jets of both arguments through k
    copies of the canonical Poisson tensor.  Associativity requires the
    base connection to be flat; `lift_connection` rejects curvature
    (NonFlatConnection) before anything is built.
    """
    lifted = lift_connection(conn)
    p = PoissonTensor.canonical(conn.n, 0)
    return StarProduct(p, _pairing_product(p, symmetric_jet_ops(lifted, order), order))


def truncated_symplectic_product(spec: SymplecticConnectionSpec) -> StarProduct:
    """Order-2 product of a torsionless symplectic connection.

    The order-2 operator pairs second covariant jets and subtracts the
    Ricci term weighted by the connection's rational parameter;
    associativity holds (and is only claimed) through order 2.
    """
    d = spec.dim
    p = PoissonTensor.canonical(spec.n, 0)
    C = _pairing_product(p, symmetric_jet_ops(spec, 2), 2)
    # Ricci term -a (i/2)^2 / 2! P^(mu1 nu1) P^(mu2 nu2) R_(mu1 mu2) d_nu1 (x) d_nu2;
    # the canonical tensor pairs each coordinate with exactly one partner
    partner = p._partner
    weight = -(HALF_I ** 2) * HALF * spec.a
    acc: Dict[Tuple[MultiIndex, MultiIndex], Poly] = {}
    for (mu1, mu2), ric_comp in ricci(spec).items():
        (nu1, v1), (nu2, v2) = partner[mu1], partner[mu2]
        acc[(MultiIndex.unit(nu1), MultiIndex.unit(nu2))] = ric_comp.scale(weight * v1 * v2)
    C[2] = C[2] + BiDiffOp(d, acc)
    return StarProduct(p, C)


# ---------------------------------------------------------------------------
# deformed bracket and validation reports
# ---------------------------------------------------------------------------

def star_bracket(s: StarProduct, f, g) -> HbarSeries:
    """Deformed bracket (f*g - g*f) / (i hbar), one order shorter.

    The commutator is one keyed raw series, f * g plus (-g) * f.  The
    division is a series shift; the order-0 commutator coefficient
    vanishes when the order-0 operator is symmetric, as pointwise
    multiplication is.  When it does not, there is no bracket and
    CanonicityFailure is raised.
    """
    u, v = s._operands(f, g)
    acc: dict = {}
    s._pairs().add_star(acc, u, v)
    s._pairs().add_star(acc, [(k, m, -x) for k, m, x in v], u)
    return _bracket(HbarSeries(_coefficients(s.dim, s.order, acc)))


def _bracket(comm: HbarSeries) -> HbarSeries:
    """The deformed bracket of the commutator series f*g - g*f."""
    if not comm[0].is_zero():
        raise CanonicityFailure(f"order-0 commutator {comm[0]} is nonzero")
    if comm.order == 0:
        raise CanonicityFailure("an order-0 product has no deformed bracket")
    shifted = comm.shift_down()
    return shifted.scale(-IMAG)  # 1/i == -i


def _coordinate_commutator(s: StarProduct, a: int, b: int) -> List[Poly]:
    """C_l(x^a, x^b) - C_l(x^b, x^a) for every l, read off the keys (e_a, 0),
    (0, e_b), (e_a, e_b) of C_l and those of the reversed pair, negated: no
    other term sees both coordinates, and (0, 0) cancels."""
    ea, eb = MultiIndex.unit(a), MultiIndex.unit(b)
    reads = [(key, shift, sign) for u, v, sign in ((ea, eb, None), (eb, ea, -ONE))
             for key, shift in (((u, EMPTY_INDEX), v), ((EMPTY_INDEX, v), u), ((u, v), EMPTY_INDEX))]
    out = []
    for op in s.C:
        acc: Dict[MultiIndex, GaussianRational] = {}
        for key, shift, sign in reads:
            if key in op._terms:
                _acc_shifted(acc, op._terms[key]._terms, shift, sign)
        out.append(_nonzero_poly(s.dim, acc))
    return out


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class CheckReport:
    title: str
    entries: Tuple[CheckEntry, ...]
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> List[CheckEntry]:
        return [e for e in self.entries if not e.passed]

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "entries": [e.to_json() for e in self.entries],
        }


class _PairTable:
    """x^a * x^b of one product, the one truncated star-product kernel
    over them, `add_star`, and what the checks decide of the product's
    operators; one per product (`StarProduct._pairs`), made on first use
    and living as long as the product.

    A flat raw series is a sequence of (order, monomial, coefficient)
    entries in ascending order; a keyed one maps (order, monomial) to a
    coefficient.  The pair (a, b) is the flat series of the nonzero terms
    of C_0..C_k(x^a, x^b), one `apply_monomials` per order, or x^(a+b) at
    order 0 when C_0 is pointwise multiplication.  It is filled only up
    to the highest order k read from it so far, and a later request that
    reads further extends it; filled orders are kept while the table
    lives, and callers only read them.  The structural verdicts, C_0 is
    multiplication (`_mult`), every C_k with k >= 1 kills constants
    (`kills_constants`) and the slot-swap parity (`parity`), are each
    decided once.
    """

    __slots__ = ("_C", "_mult", "_kills", "_parity", "_pairs")

    def __init__(self, s: StarProduct):
        self._C = s.C
        self._mult = s.C[0] == BiDiffOp.multiplication(s.dim)
        self._kills: bool | None = None
        self._parity: bool | None = None
        # (a, b) -> (highest filled order, flat raw series up to it)
        self._pairs: Dict[tuple, tuple] = {}

    def kills_constants(self) -> bool:
        """Every C_k with k >= 1 vanishes on constants."""
        if self._kills is None:
            self._kills = all(op.vanishes_on_constants() for op in self._C[1:])
        return self._kills

    def parity(self) -> bool:
        """C_k.swap() == C_k.scale((-1)^k) for every k."""
        if self._parity is None:
            self._parity = all(op.swap() == (-op if k % 2 else op) for k, op in enumerate(self._C))
        return self._parity

    def pair(self, a: MultiIndex, b: MultiIndex) -> tuple:
        """x^a * x^b as the flat raw series of C_0..C_N(x^a, x^b)."""
        N = len(self._C) - 1
        got = self._pairs.get((a, b))
        if got is None or got[0] < N:
            got = self._fill(a, b, got, N)
        return got[1]

    def _fill(self, a: MultiIndex, b: MultiIndex, got: tuple | None, top: int) -> tuple:
        """Extend the cached pair (a, b), `got` or None, to order `top`."""
        if got is None:
            got = (0, ((0, a.sum_table()[b], ONE),)) if self._mult else (-1, ())
        filled, entries = got
        got = self._pairs[(a, b)] = (top, entries + tuple(
            (j, m, c) for j in range(filled + 1, top + 1)
            for m, c in self._C[j].apply_monomials(a, b).items()))
        return got

    def add_star(self, acc: dict, u, v) -> None:
        """Add u * v of flat raw series, truncated at order N, into the
        keyed raw series `acc`: entries (i, x^w, c) of `u` and (k, x^z, e)
        of `v` add c e C_l(x^w, x^z) at order i + k + l <= N, read from
        the pair (w, z) filled up to order N - i - k."""
        N = len(self._C) - 1
        pairs, fill = self._pairs, self._fill
        for a, fw, fc in u:
            for b, gw, gc in v:
                ab = a + b
                if ab > N:
                    break
                # a basis monomial's factor is the shared ONE
                c = gc if fc is ONE else fc if gc is ONE else fc * gc
                got = pairs.get((fw, gw))
                if got is None or got[0] < N - ab:
                    got = fill(fw, gw, got, N - ab)
                for l, m, t in got[1]:
                    if ab + l > N:
                        break
                    t = t if c is ONE else t * c
                    key = (ab + l, m)
                    acc[key] = acc[key] + t if key in acc else t


def _coefficients(dim: int, N: int, acc: dict) -> List[Poly]:
    """The coefficients of hbar^0..hbar^N of a keyed raw series."""
    maps: List[dict] = [{} for _ in range(N + 1)]
    for (k, m), c in acc.items():
        maps[k][m] = c
    return [_nonzero_poly(dim, t) for t in maps]


def _first_nonzero(dim: int, acc: dict) -> Tuple[int, Poly] | None:
    """The lowest order of a keyed raw series with a nonzero coefficient,
    and that coefficient, or None when every order is zero."""
    if not any(acc.values()):
        return None
    k = min(j for (j, _), c in acc.items() if c)
    return k, _nonzero_poly(dim, {m: c for (j, m), c in acc.items() if j == k})


def unital(s: StarProduct) -> bool:
    """True when 1 * u = u * 1 = u for every series u: C_0 is pointwise
    multiplication and every C_k with k >= 1 vanishes on constants,
    decided structurally, once per product."""
    table = s._pairs()
    return table._mult and table.kills_constants()


def swap_parity(s: StarProduct) -> bool:
    """True when every operator satisfies C_k(g, f) = (-1)^k C_k(f, g),
    decided structurally, once per product:
    C_k.swap() == C_k.scale((-1)^k)."""
    return s._pairs().parity()


def check_axioms(s: StarProduct, max_degree: int = 4) -> CheckReport:
    """Validate the defining conditions of a star product.

    Associativity is verified exactly on every monomial triple of total
    degree <= max_degree, at every order of the deformation parameter;
    the remaining conditions are structural.  Each associator
    (f*g)*h - f*(g*h) is one keyed raw series, filled by two `add_star`
    calls of the product's `_PairTable` from the flat pairs f*g and g*h;
    its lowest nonzero order is the failure reported.  The triples are
    visited in the same order as a direct evaluation, so the first
    failure reported (order, triple, residual) is unchanged.

    When the product is `unital` (the structural entries
    `order0-multiplication` and `unit-annihilation` both pass),
    1 * u = u * 1 = u for every series u, so every triple with a constant
    factor has a zero associator: only the triples of monomials of
    positive degree are visited.

    When `swap_parity` holds, g * f is f * g with hbar -> -hbar, so the
    associator obeys A(h, g, f)_k = -(-1)^k A(f, g, h)_k: a triple fails
    exactly when its mirror does, at the same first order.  The triples
    whose h comes before f in the basis are then skipped; each one's
    mirror is visited earlier, so the first failure is the same.  Either
    reduction skips only triples that pass or whose mirror is visited
    first, and keeps the visiting order, so the report is that of the
    full enumeration.
    """
    if max_degree < 0:
        raise InvalidArgument(f"a degree bound is 0 or more, not {max_degree}")
    d = s.dim
    table = s._pairs()
    entries: List[CheckEntry] = []

    entries.append(
        CheckEntry(
            "bidifferential",
            True,
            f"{s.order + 1} operators of bounded order with polynomial coefficients",
        )
    )

    mult = table._mult
    entries.append(
        CheckEntry(
            "order0-multiplication",
            mult,
            "order-0 operator must be pointwise multiplication",
        )
    )

    p_bidiff = s.poisson.as_bidiff()
    lhs = s.C[1] - s.C[1].swap() if s.order >= 1 else None
    ok = lhs == p_bidiff.scale(IMAG) if lhs is not None else False
    entries.append(
        CheckEntry(
            "bracket-leading-term",
            ok,
            "antisymmetric part of the order-1 operator must be i times the Poisson bivector",
        )
    )

    parity = table.parity()
    unit_ok = table.kills_constants()
    basis = monomials_up_to(d, max_degree)
    # `unital` from the two entries: the constant, first in the basis, is
    # then never visited
    basis = basis[1:] if mult and unit_ok else basis
    assoc_ok = True
    assoc_detail = f"monomial triples of total degree <= {max_degree}, orders <= {s.order}"
    for fi, fm in enumerate(basis):
        fdeg = fm.degree
        if not assoc_ok:
            break
        h_basis = basis[fi:] if parity else basis
        minus_f = ((0, fm, -ONE),)
        for gm in basis:
            if fdeg + gm.degree > max_degree or not assoc_ok:
                break
            fg = table.pair(fm, gm)
            for hm in h_basis:
                if fdeg + gm.degree + hm.degree > max_degree:
                    break
                # the associator (f*g)*h - f*(g*h), every order in one series
                acc: dict = {}
                table.add_star(acc, fg, ((0, hm, ONE),))
                table.add_star(acc, minus_f, table.pair(gm, hm))
                failure = _first_nonzero(d, acc)
                if failure is not None:
                    assoc_ok = False
                    fp, gp, hp = (Poly.monomial(d, m) for m in (fm, gm, hm))
                    k, residual = failure
                    assoc_detail = f"failed at order {k} on ({fp}, {gp}, {hp}): residual {residual}"
                    break
    entries.append(CheckEntry("associativity", assoc_ok, assoc_detail))

    entries.append(
        CheckEntry(
            "unit-annihilation",
            unit_ok,
            "every positive-order operator must differentiate both slots",
        )
    )

    entries.append(
        CheckEntry(
            "parity",
            parity,
            "slot swap must rescale order k by (-1)^k",
        )
    )

    return CheckReport(
        "star-product-axioms",
        tuple(entries),
        {"max_degree": max_degree, "order": s.order, "dim": d},
    )


def quantum_canonicity_check(s: StarProduct) -> CheckReport:
    """Check the deformed bracket of every coordinate pair against the Poisson
    tensor, exactly at every order, with no pair table made: a pair passes
    when its `_coordinate_commutator` is i P^(ab) hbar; only a failing pair
    forms its `_bracket` (as `star_bracket` does) for the detail."""
    d = s.dim
    entries: List[CheckEntry] = []
    zero = Poly.zero(d)
    for mu, nu in itertools.combinations(range(d), 2):
        comm = _coordinate_commutator(s, mu, nu)
        if comm == [zero, s.poisson.entry(mu, nu).scale(IMAG)] + [zero] * (s.order - 1):
            entries.append(CheckEntry(f"pair-{mu}-{nu}", True))
            continue
        try:
            detail = f"bracket = {_bracket(HbarSeries(comm))}"
        except CanonicityFailure as exc:
            detail = str(exc)
        entries.append(CheckEntry(f"pair-{mu}-{nu}", False, detail))
    return CheckReport("quantum-canonicity", tuple(entries), {"dim": d, "order": s.order})


def monomials_up_to(dim: int, max_degree: int) -> List[MultiIndex]:
    """All monomial indices of total degree <= max_degree, canonically ordered."""
    out = [
        MultiIndex.of(*coords)
        for deg in range(max_degree + 1)
        for coords in itertools.combinations_with_replacement(range(dim), deg)
    ]
    out.sort(key=lambda m: m.grlex_key(dim))
    return out
