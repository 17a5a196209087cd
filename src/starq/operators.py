"""Normal-form differential and bidifferential operators.

`DiffOp` and `BiDiffOp` share one normal form, a private base class: a
map from derivative keys (one multi-index per slot: the bare index, or
the pair (left, right)) to nonzero coefficient polynomials standing to
the left of the derivatives, so structural equality of the term maps is
equality of operators.  The base owns the one constructor that checks
every slot of every key against the dimension and against a fixed
derivative-order guard (`_check_order`, shared with the jet builders
and the Moyal walk) that catches runaway recursions early, and the
arithmetic, equality, hashing and JSON codec of the term map.  Negation,
scaling, `swap` and the pairing of `products` only reuse keys of checked
operators and skip the check (`_unchecked`).  The subclasses add the
action of their terms and, for every coordinate in one pass, what they
are at the coordinate functions (`DiffOp.coordinate_commutators`,
`BiDiffOp.coordinate_slots`).

An operator acts through one kernel, from the operand's side: for each
monomial x^a it finds its derivative indices I <= a among those of
degree <= |a|, and each hit (I, a - I, (a)_I) adds the coefficient of
d^I times (a)_I x^(a-I) into a raw term map (`_acc_shifted`).  Each
operator keeps the hits of every monomial it has met, slot by slot, so a
monomial is searched once per operator; the memo lives and dies with the
operator.  The search reads the monomial's divisor table when it has one
or when making it costs no more than filtering the candidates, and
filters otherwise (`_Hits`).  Terms whose derivative does not divide any
monomial are never visited.  A `DiffOp` reads its hits per monomial of
the operand; a `BiDiffOp` pairs the hits of two monomials
(`apply_monomials`, over its terms indexed by left, then right,
multi-index, built on first use) and applies to polynomials as the
bilinear sum of that over their monomials.  Sums are kept in one raw
term map and normalised once, so the result does not depend on the
summation order.

The same kernel builds operators.  `compose`, the jet step of
`geometry` and the right-hand sides of `equivalence` share one Leibniz
kernel (`_acc_compose`); it, the jet step's symbol contractions and the
pairing of `products` add raw term maps through `_acc_shifted`, one map
per derivative key, and make the operator once with `_from_raw`, which
normalises each map.  Every index sum in these kernels (x^m times
x^shift, the two rests of a pair of hits, a Leibniz remainder plus a
right derivative) is read from the sum tables of `poly.MultiIndex`.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterator, List, Tuple

from .errors import DimensionMismatch, OperatorOrderExceeded
from .poly import EMPTY_INDEX, MultiIndex, Poly, _GrlexKeys, _first
from .scalars import GaussianRational, HALF, ONE

_set = object.__setattr__
# the derivative-order guard: no slot of any operator key may go beyond it
MAX_OP_ORDER = 12


def _check_order(order: int) -> None:
    """Raise `OperatorOrderExceeded` for a derivative order past the guard."""
    if order > MAX_OP_ORDER:
        raise OperatorOrderExceeded(f"derivative order {order} exceeds guard {MAX_OP_ORDER}")


class _NormalForm:
    """A map from derivative keys to nonzero coefficient polynomials.

    A key holds one derivative multi-index per slot: the bare index for
    a `DiffOp`, the pair (left, right) for a `BiDiffOp`.  A subclass
    names the slots in JSON (`_SLOTS`), gives the grlex sort key of a key
    (`_grlex`) and adds the action of its terms.
    """

    # _memo is filled on first apply (see DiffOp.apply and
    # BiDiffOp._lookup); equality, hashing and serialization read _terms
    # only.
    __slots__ = ("dim", "_terms", "_memo")
    _SLOTS: Tuple[str, ...] = ()

    def __init__(self, dim: int, terms: dict | None = None):
        clean = {}
        if terms:
            for key, poly in terms.items():
                if poly.dim != dim:
                    raise DimensionMismatch(f"coefficient dim {poly.dim} != operator dim {dim}")
                if poly._terms:
                    clean[key] = poly
            for mi in terms if len(self._SLOTS) == 1 else chain.from_iterable(terms):
                if mi.max_coord() >= dim:
                    raise DimensionMismatch(f"derivative index {mi!r} out of range for dim {dim}")
                _check_order(mi.degree)
        _set(self, "dim", dim)
        _set(self, "_terms", clean)
        _set(self, "_memo", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.dim, dict(self._terms)))

    @classmethod
    def zero(cls, dim: int):
        return cls(dim)

    @classmethod
    def _unchecked(cls, dim: int, terms: dict):
        """The operator of a map whose keys and coefficients all come from
        checked operators of dimension `dim`: empty coefficients are
        dropped, and nothing is checked again."""
        op = object.__new__(cls)
        _set(op, "dim", dim)
        _set(op, "_terms", {key: p for key, p in terms.items() if p._terms})
        _set(op, "_memo", None)
        return op

    @classmethod
    def _from_raw(cls, dim: int, acc: dict):
        """The operator of a map from derivative keys to raw term maps
        (`_acc_shifted`), through the checked constructor."""
        return cls(dim, _nonzero_terms(dim, acc))

    # -- accessors ----------------------------------------------------------------

    def terms(self) -> Iterator[tuple]:
        """(key, coefficient) pairs, keys descending in grlex slot by slot."""
        dim, grlex = self.dim, self._grlex
        for key in sorted(self._terms, key=lambda key: grlex(key, dim), reverse=True):
            yield key, self._terms[key]

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    # -- arithmetic ---------------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        acc = dict(self._terms)
        for key, poly in other._terms.items():
            _acc_poly(acc, key, poly)
        return type(self)(self.dim, acc)

    def __neg__(self):
        return self._unchecked(self.dim, {key: -p for key, p in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, factor):
        return self._unchecked(self.dim, {key: p.scale(factor) for key, p in self._terms.items()})

    # -- dunder -----------------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self):
        return hash((self.dim, frozenset(self._terms.items())))

    # -- serialization ---------------------------------------------------------------------

    def to_json(self) -> dict:
        """The terms in `terms` order, each slot's index as a dense
        exponent list and its coefficient as `Poly.to_json` writes it."""
        return self._json(_GrlexKeys(self.dim))

    def _json(self, keys: _GrlexKeys) -> dict:
        """`to_json` over the grlex keys of `keys`, which the caller may
        share across operators of its dimension: the terms are sorted
        once, and each index's key is formed once per table."""
        slots = self._SLOTS
        rows = [((keys[key],) if len(slots) == 1 else (keys[key[0]], keys[key[1]]), p)
                for key, p in self._terms.items()]
        rows.sort(key=_first, reverse=True)
        if len(slots) == 1:
            return {"dim": self.dim, "terms": [
                {slots[0]: list(g[1]), "coefficient": p._json(keys)} for (g,), p in rows]}
        return {"dim": self.dim, "terms": [
            {slots[0]: list(g[1]), slots[1]: list(h[1]), "coefficient": p._json(keys)}
            for (g, h), p in rows]}

    @classmethod
    def from_json(cls, data: dict):
        dim = data["dim"]
        terms: Dict[object, Poly] = {}
        for entry in data["terms"]:
            key = tuple(MultiIndex.from_exponents(entry[s]) for s in cls._SLOTS)
            if len(key) == 1:
                key = key[0]
            if key in terms:
                raise ValueError("duplicate derivative index in serialized operator")
            terms[key] = Poly.from_json(dim, entry["coefficient"])
        return cls(dim, terms)


class DiffOp(_NormalForm):
    """Differential operator sum_I coeff_I(x) d^I in normal form."""

    # _memo holds the derivative hits of every operand monomial met (a
    # _Hits).
    __slots__ = ()
    _SLOTS = ("derivative",)
    _grlex = staticmethod(MultiIndex.grlex_key)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "DiffOp":
        return cls(dim, {EMPTY_INDEX: Poly.const(dim, 1)})

    @classmethod
    def derivative(cls, dim: int, index: MultiIndex, coeff=ONE) -> "DiffOp":
        return cls(dim, {index: Poly.const(dim, coeff)})

    @classmethod
    def partial(cls, dim: int, coord: int) -> "DiffOp":
        return cls.derivative(dim, MultiIndex.unit(coord))

    @classmethod
    def multiplication(cls, poly: Poly) -> "DiffOp":
        """The operator f -> poly * f."""
        return cls(poly.dim, {EMPTY_INDEX: poly})

    # -- accessors --------------------------------------------------------------

    def coefficient(self, index: MultiIndex) -> Poly:
        return self._terms.get(index, Poly.zero(self.dim))

    @property
    def order(self) -> int:
        return max((mi.degree for mi in self._terms), default=0)

    def annihilates_constants(self) -> bool:
        """True when there is no pure multiplication term."""
        return EMPTY_INDEX not in self._terms

    def zero_like(self) -> "DiffOp":
        return DiffOp(self.dim)

    # -- action and composition -----------------------------------------------------

    def apply(self, f: Poly) -> Poly:
        if f.dim != self.dim:
            raise DimensionMismatch(f"operand dim {f.dim} != operator dim {self.dim}")
        hits = self._memo
        if hits is None:
            hits = _Hits(self._terms)
            _set(self, "_memo", hits)
        terms = self._terms
        acc: Dict[MultiIndex, GaussianRational] = {}
        for a, c in f._terms.items():
            for sub, rest, weight in hits[a]:
                _acc_shifted(acc, terms[sub]._terms, rest, c if weight == 1 else c * weight)
        return _nonzero_poly(self.dim, acc)

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Normal form of self applied after `other` (generalized Leibniz,
        `_acc_compose`)."""
        if other.dim != self.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        acc: Dict[MultiIndex, Dict[MultiIndex, GaussianRational]] = {}
        _acc_compose(acc, _leibniz_splits(self._terms), other._terms)
        return DiffOp._from_raw(self.dim, acc)

    def coordinate_commutators(self) -> List["DiffOp"]:
        """[self, x^c] = self o (x^c *) - (x^c *) o self for every coordinate
        c, in one pass: a term coeff * d^I adds coeff * I_c * d^(I - e_c) to
        it, so each is strictly lower order."""
        d = self.dim
        accs: List[Dict[MultiIndex, dict]] = [{} for _ in range(d)]
        for mi, coeff in self._terms.items():
            for c, e in mi.pairs:
                _acc_scaled(accs[c].setdefault(mi.decrement(c), {}), coeff._terms, ONE if e == 1 else e)
        return [DiffOp._unchecked(d, _nonzero_terms(d, acc)) for acc in accs]

    # -- arithmetic ---------------------------------------------------------------------

    def __mul__(self, other):
        """Composition for operators, left coefficient product for Poly/scalars."""
        if isinstance(other, DiffOp):
            return self.compose(other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    # -- display ------------------------------------------------------------------------------

    def __repr__(self):
        return f"DiffOp({self.dim}, {self.format()!r})"

    def __str__(self):
        return self.format()

    def format(self, names: List[str] | None = None) -> str:
        if self.is_zero():
            return "0"
        if names is None:
            names = [f"x{j}" for j in range(self.dim)]
        chunks = []
        for mi, coeff in self.terms():
            ds = "".join(
                f"d_{names[c]}" + (f"^{e}" if e > 1 else "") for c, e in mi.pairs
            )
            cs = coeff.format(names)
            if ds and cs == "1":
                chunks.append(ds)
            elif ds:
                chunks.append(f"({cs}) {ds}")
            else:
                chunks.append(f"({cs})")
        return " + ".join(chunks)


class BiDiffOp(_NormalForm):
    """Bidifferential operator sum_(I,J) coeff_(I,J)(x) d^I (x) d^J."""

    # _memo is the index _lookup derives from _terms on first apply; it
    # then holds the derivative memos of both slots.
    __slots__ = ()
    _SLOTS = ("left", "right")

    @staticmethod
    def _grlex(key, dim: int):
        return (key[0].grlex_key(dim), key[1].grlex_key(dim))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def multiplication(cls, dim: int) -> "BiDiffOp":
        """(f, g) -> f*g."""
        return cls(dim, {(EMPTY_INDEX, EMPTY_INDEX): Poly.const(dim, 1)})

    # -- accessors ----------------------------------------------------------------

    def coefficient(self, li: MultiIndex, ri: MultiIndex) -> Poly:
        return self._terms.get((li, ri), Poly.zero(self.dim))

    def vanishes_on_constants(self) -> bool:
        """No term differentiates zero times in either slot."""
        return all(li.degree and ri.degree for li, ri in self._terms)

    # -- action ----------------------------------------------------------------------

    def apply(self, f: Poly, g: Poly) -> Poly:
        if f.dim != self.dim or g.dim != self.dim:
            raise DimensionMismatch("operand dimension mismatch")
        acc: Dict[MultiIndex, GaussianRational] = {}
        for a, ca in f._terms.items():
            for b, cb in g._terms.items():
                _acc_scaled(acc, self.apply_monomials(a, b), ca * cb)
        return _nonzero_poly(self.dim, acc)

    def apply_monomials(self, a: MultiIndex, b: MultiIndex) -> Dict[MultiIndex, GaussianRational]:
        """Raw term map of self(x^a, x^b), with no zero coefficient.

        Each hit (I, a - I, (a)_I) of the left slot and (J, b - J, (b)_J)
        of the right slot with a term coeff d^I (x) d^J adds
        coeff (a)_I (b)_J x^(a-I+b-J), read straight off the slot memos.
        """
        by_left, left_hits, right_hits = self._lookup()
        acc: Dict[MultiIndex, GaussianRational] = {}
        hits = left_hits[a]
        if not hits:
            return acc
        rights = right_hits[b]
        for li, rest_a, wa in hits:
            row = by_left[li]
            sums = rest_a.sum_table()
            for ri, rest_b, wb in rights:
                coeff = row.get(ri)
                if coeff is not None:
                    w = wa * wb
                    _acc_shifted(acc, coeff._terms, sums[rest_b], None if w == 1 else w)
        return {m: c for m, c in acc.items() if c}

    def _lookup(self):
        """(left index -> right index -> coefficient, left-slot hits,
        right-slot hits)."""
        index = self._memo
        if index is None:
            by_left: Dict[MultiIndex, Dict[MultiIndex, Poly]] = {}
            for (li, ri), coeff in self._terms.items():
                by_left.setdefault(li, {})[ri] = coeff
            index = (by_left, _Hits(by_left), _Hits(dict.fromkeys(ri for _, ri in self._terms)))
            _set(self, "_memo", index)
        return index

    def coordinate_slots(self, symmetric: bool = False) -> List[DiffOp]:
        """For every coordinate a, the operator f -> self(x^a, f), or with
        `symmetric` f -> (self(x^a, f) + self(f, x^a)) / 2, in one pass.

        A term c d^I (x) d^J adds c d^J to slot a when I = e_a, and
        (c x^a) d^J to every slot when I is empty; with `symmetric` it is
        read again with I and J swapped, and each contribution is halved.
        """
        d = self.dim
        coord = {MultiIndex.unit(a): a for a in range(d)}
        c = HALF if symmetric else ONE
        accs: List[Dict[MultiIndex, dict]] = [{} for _ in range(d)]
        for (li, ri), coeff in self._terms.items():
            for fixed, free in ((li, ri), (ri, li)) if symmetric else ((li, ri),):
                if fixed is EMPTY_INDEX:
                    for unit, acc in zip(coord, accs):
                        _acc_shifted(acc.setdefault(free, {}), coeff._terms, unit, c)
                elif fixed in coord:
                    _acc_scaled(accs[coord[fixed]].setdefault(free, {}), coeff._terms, c)
        return [DiffOp._unchecked(d, _nonzero_terms(d, acc)) for acc in accs]

    def swap(self) -> "BiDiffOp":
        """(f, g) -> self(g, f)."""
        acc: Dict[Tuple[MultiIndex, MultiIndex], Poly] = {}
        for (li, ri), coeff in self._terms.items():
            _acc_poly(acc, (ri, li), coeff)
        return BiDiffOp._unchecked(self.dim, acc)

    def __repr__(self):
        return f"BiDiffOp(dim={self.dim}, terms={self.term_count()})"


class _Hits(dict):
    """Monomial a -> its derivative hits (I, a - I, (a)_I) for one operator
    slot, I ranging over the slot's derivative indices `wanted` with I <= a.

    A monomial's hits are found on its first lookup and kept while the
    operator lives.  The candidates are the wanted indices of degree
    <= |a|, in degree order, and the hits keep that order.  When a has a
    divisor table, or has no more divisors, prod(a_c + 1), than there are
    candidates (so that making the table costs no more than one filter),
    each candidate is looked up in a's divisor table; otherwise the
    candidates are filtered for divisibility.  Both give the same tuple,
    and no table grows past the candidate list that made it.
    """

    __slots__ = ("_by_degree", "_degrees")

    def __init__(self, wanted):
        super().__init__()
        self._by_degree = sorted(wanted, key=MultiIndex.degree.fget)
        self._degrees = [mi.degree for mi in self._by_degree]

    def __missing__(self, a: MultiIndex):
        below = bisect_right(self._degrees, a.degree)
        divs = a._divs
        if divs is None and a.divisor_count() <= below:
            divs = a.divisors()
        if divs is None:
            hits = tuple(
                (sub, a.subtract(sub), a.falling(sub))
                for sub in self._by_degree[:below] if sub.divides(a)
            )
        else:
            get = divs.get
            hits = tuple(hit for hit in map(get, self._by_degree[:below]) if hit is not None)
        self[a] = hits
        return hits


def _leibniz_splits(left: dict) -> list:
    """For each term a d^I of a `DiffOp` term map, for `_acc_compose`: the
    raw map of a, its splits K -> (sum table of I - K, binom(I, K)) over
    K <= I, and a hit memo over those K (`_Hits`)."""
    out = []
    for i_idx, a in left.items():
        splits = {k: (rest.sum_table(), i_idx.binomial(k))
                  for k, rest, _ in i_idx.divisors().values()}
        out.append((a._terms, splits, _Hits(splits)))
    return out


def _acc_compose(acc: dict, left: list, right: dict) -> None:
    """Add the terms of left o right into `acc` (derivative index -> raw
    term map), `left` as `_leibniz_splits` lists it, `right` a term map:
    a d^I after b d^J adds binom(I, K) (m)_K b_m x^(m-K) a into the map of
    d^(I-K+J) for each hit (K, m - K, (m)_K) of each monomial m of b, read
    off the memo of the left term as in `apply`."""
    for a_terms, splits, hits in left:
        for j_idx, b in right.items():
            maps = {k: (acc.setdefault(sums[j_idx], {}), mult)
                    for k, (sums, mult) in splits.items()}
            for m, cb in b._terms.items():
                for k_idx, shift, fall in hits[m]:
                    target, mult = maps[k_idx]
                    w = fall * mult
                    c = cb if w == 1 else cb * w
                    _acc_shifted(target, a_terms, shift, None if c is ONE else c)


def _acc_shifted(acc: dict, terms: dict, shift: MultiIndex, c=None):
    """Add c x^shift times a raw term map into `acc`, or x^shift times the
    map when c is None (zeros left in place).  A constant map is added
    at `shift` itself, without filling its sum table."""
    if len(terms) == 1 and EMPTY_INDEX in terms:
        t = terms[EMPTY_INDEX]
        v = t if c is None else c if t is ONE else t * c
        acc[shift] = acc[shift] + v if shift in acc else v
        return
    sums = shift.sum_table()
    if c is None:
        for m, t in terms.items():
            key = sums[m]
            acc[key] = acc[key] + t if key in acc else t
    else:
        for m, t in terms.items():
            key = sums[m]
            v = t * c
            acc[key] = acc[key] + v if key in acc else v


def _acc_scaled(acc: dict, terms: dict, c):
    """Add c times a raw term map into `acc` (zeros left in place)."""
    if c is ONE:
        for m, t in terms.items():
            acc[m] = acc[m] + t if m in acc else t
        return
    for m, t in terms.items():
        v = t * c
        acc[m] = acc[m] + v if m in acc else v


def _acc_poly(acc: dict, key, poly: Poly):
    existing = acc.get(key)
    total = poly if existing is None else existing + poly
    if total.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = total


def _nonzero_terms(dim: int, acc: dict) -> dict:
    """Derivative key -> the polynomial of its raw term map, each map
    normalised once and the keys whose terms all cancel dropped."""
    terms = {}
    for key, raw in acc.items():
        poly = _nonzero_poly(dim, raw)
        if poly._terms:
            terms[key] = poly
    return terms


def _nonzero_poly(dim: int, acc: dict) -> Poly:
    """The polynomial of a raw term map whose monomials are all in range
    for `dim`, with its zero sums dropped."""
    terms = {}
    for m, c in acc.items():
        if c:
            terms[m] = c
    return Poly._normal(dim, terms)
