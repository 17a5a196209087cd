"""Multi-indices and exact multivariate polynomials.

A `MultiIndex` is a sparse map from coordinate index to a positive
exponent; zero entries are never stored.  Every constructor returns the
one object for its index from a module-level pool, so indices compare by
identity and hash by `id` in C; the pool holds the distinct indices the
process has met, and copies and pickles resolve to the pooled object.
Nothing may iterate a set of indices where the order shows, since that
order follows `id`.

Because an index is one object, the arithmetic of two indices is a pure
function of two pooled objects, and each index keeps three tables of it.
They are pure caches: their contents never change a result, they never
travel with a copy or a pickle, and nothing is filled at import.

* The exponent map, coordinate -> exponent, made when the index is
  interned; `divides`, `subtract`, `decrement`, `falling`, `binomial`
  and `Poly.diff_coord` read it.
* The sum table (`sum_table`), other -> self + other, filled as it is
  read: a missing sum is formed once by `__add__` and recorded in both
  operands' tables.  Only the operator kernels read it (the shifted
  accumulation, `BiDiffOp.apply_monomials`, `DiffOp.compose`, the C_0
  read-off of the products' pair table and the jet step).  `__add__`,
  `Poly.__mul__` and the parser stay unmemoised, so building a large
  polynomial fills no table.
* The divisor table (`divisors`), K -> (K, self - K, (self)_K) for every
  K <= self, made whole on first call.  The derivative memo of an
  operator slot (`operators._Hits`) makes it only when the index has no
  more divisors than the slot has candidate derivative indices, so a
  table never costs more than the one search it replaces; a monomial of
  high degree against a few derivatives keeps the plain filter.
  `DiffOp.compose` reads its Leibniz splits from the table of each
  derivative index, whose order the operator guard caps.

A `Poly` stores its terms as a map from
`MultiIndex` to `GaussianRational` with zero coefficients pruned, which
makes structural equality canonical.  The display/serialization order is
graded lexicographic, leading term first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter, mul
from typing import Dict, Iterable, Iterator, Tuple

from .errors import DimensionMismatch
from .scalars import GaussianRational, ONE, ZERO, _make


class MultiIndex:
    """Sparse multi-index of derivative/monomial exponents, one pooled
    object per index."""

    # _exps is the exponent map, made when the index is interned; _sums
    # and _divs are the sum and divisor tables, made on first use.
    __slots__ = ("_pairs", "_degree", "_exps", "_sums", "_divs")

    def __new__(cls, exponents: Dict[int, int] | Iterable[Tuple[int, int]] = ()):
        if isinstance(exponents, dict):
            items = exponents.items()
        else:
            items = exponents
        pairs = tuple(sorted((c, e) for c, e in items if e))
        for c, e in pairs:
            if c < 0 or e < 0:
                raise ValueError(f"invalid multi-index entry ({c}, {e})")
        return cls._from_sorted(pairs)

    def __setattr__(self, name, value):
        raise AttributeError("MultiIndex is immutable")

    def __reduce__(self):
        return (MultiIndex._from_sorted, (self._pairs,))

    # -- constructors -----------------------------------------------------

    @classmethod
    def unit(cls, coord: int) -> "MultiIndex":
        if coord < 0:
            raise ValueError(f"invalid multi-index entry ({coord}, 1)")
        return cls._from_sorted(((coord, 1),))

    @classmethod
    def of(cls, *coords: int) -> "MultiIndex":
        """Multi-index from a list of coordinates with repetition."""
        counts: Dict[int, int] = {}
        for c in coords:
            counts[c] = counts.get(c, 0) + 1
        return cls(counts)

    @classmethod
    def from_exponents(cls, exps: Iterable[int]) -> "MultiIndex":
        return cls({c: e for c, e in enumerate(exps) if e})

    @classmethod
    def _from_sorted(cls, pairs: Tuple[Tuple[int, int], ...]) -> "MultiIndex":
        """The pooled index of a tuple of pairs already sorted by coordinate
        with positive exponents, made on first request."""
        mi = _POOL.get(pairs)
        if mi is None:
            mi = object.__new__(cls)
            _set(mi, "_pairs", pairs)
            _set(mi, "_degree", sum(e for _, e in pairs))
            _set(mi, "_exps", dict(pairs))
            _set(mi, "_sums", None)
            _set(mi, "_divs", None)
            mi = _POOL.setdefault(pairs, mi)
        return mi

    # -- accessors ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return self._pairs

    def max_coord(self) -> int:
        """Largest coordinate with a nonzero exponent, or -1."""
        return self._pairs[-1][0] if self._pairs else -1

    def dense(self, dim: int) -> Tuple[int, ...]:
        exps = [0] * dim
        for c, e in self._pairs:
            exps[c] = e
        return tuple(exps)

    def coords(self) -> Iterator[int]:
        """Coordinates with repetition, ascending."""
        for c, e in self._pairs:
            for _ in range(e):
                yield c

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if not other._pairs:
            return self
        if not self._pairs:
            return other
        counts = dict(self._pairs)
        for c, e in other._pairs:
            counts[c] = counts.get(c, 0) + e
        return MultiIndex._from_sorted(tuple(sorted(counts.items())))

    def decrement(self, coord: int) -> "MultiIndex":
        """Remove one power of `coord`; exponent must be positive."""
        if self._exps.get(coord, 0) < 1:
            raise ValueError(f"{self} has no power of coordinate {coord}")
        return MultiIndex._from_sorted(
            tuple((c, e - 1 if c == coord else e) for c, e in self._pairs if c != coord or e > 1)
        )

    def subtract(self, other: "MultiIndex") -> "MultiIndex":
        if not other.divides(self):
            raise ValueError(f"{self} does not dominate {other}")
        sub = other._exps
        # every coordinate is one of self's, still in ascending order
        return MultiIndex._from_sorted(
            tuple((c, e - sub.get(c, 0)) for c, e in self._pairs if e != sub.get(c, 0))
        )

    def divides(self, other: "MultiIndex") -> bool:
        exps = other._exps
        for c, e in self._pairs:
            if exps.get(c, 0) < e:
                return False
        return True

    def sub_indices(self) -> Iterator["MultiIndex"]:
        """All K with K <= self componentwise (includes 0 and self)."""
        pairs = self._pairs
        for exps in itertools.product(*(range(e + 1) for _, e in pairs)):
            yield MultiIndex._from_sorted(tuple((c, k) for (c, _), k in zip(pairs, exps) if k))

    def binomial(self, sub: "MultiIndex") -> int:
        """Product of per-coordinate binomial coefficients C(self_c, sub_c)."""
        exps = self._exps
        result = 1
        for c, k in sub._pairs:
            result *= _binom(exps.get(c, 0), k)
        return result

    def falling(self, sub: "MultiIndex") -> int:
        """Product of per-coordinate falling factorials (self_c)_(sub_c).

        d^sub x^self = self.falling(sub) * x^(self - sub) when sub <= self.
        """
        exps = self._exps
        result = 1
        for c, k in sub._pairs:
            result *= _falling(exps.get(c, 0), k)
        return result

    # -- tables --------------------------------------------------------------

    def sum_table(self) -> "_SumTable":
        """The table other -> self + other, filled as it is read."""
        table = self._sums
        if table is None:
            table = _SumTable()
            table._owner = self
            _set(self, "_sums", table)
        return table

    def divisor_count(self) -> int:
        """The number of K <= self: the product of exponent + 1."""
        count = 1
        for _, e in self._pairs:
            count *= e + 1
        return count

    def divisors(self) -> Dict["MultiIndex", Tuple["MultiIndex", "MultiIndex", int]]:
        """The table K -> (K, self - K, (self)_K) over every K <= self, in
        `sub_indices` order, made whole on first call."""
        table = self._divs
        if table is None:
            table = {sub: (sub, self.subtract(sub), self.falling(sub)) for sub in self.sub_indices()}
            _set(self, "_divs", table)
        return table

    def grlex_key(self, dim: int) -> Tuple:
        return (self._degree, self.dense(dim))

    # -- dunder ------------------------------------------------------------

    def __repr__(self):
        return f"MultiIndex({dict(self._pairs)!r})"


class _SumTable(dict):
    """other -> owner + other for one pooled index, the owner.

    A missing entry is formed once by `MultiIndex.__add__` and recorded
    in the owner's table and, unless the other index is empty, in the
    other's.  Only the operator kernels read these tables.
    """

    __slots__ = ("_owner",)

    def __missing__(self, other: MultiIndex) -> MultiIndex:
        owner = self._owner
        total = self[other] = owner + other
        if other._pairs and other is not owner:
            other.sum_table()[owner] = total
        return total


_POOL: Dict[Tuple[Tuple[int, int], ...], MultiIndex] = {}
_set = object.__setattr__
EMPTY_INDEX = MultiIndex()


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    result = 1
    for j in range(k):
        result = result * (n - j) // (j + 1)
    return result


def _falling(n: int, k: int) -> int:
    result = 1
    for j in range(k):
        result *= n - j
    return result


def _times(mi: MultiIndex, k: int) -> MultiIndex:
    """k times an index, in one pass where k - 1 sums would merge maps."""
    return MultiIndex._from_sorted(tuple([(c, e * k) for c, e in mi._pairs])) if k else EMPTY_INDEX


class Poly:
    """Multivariate polynomial over GaussianRational in `dim` coordinates."""

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Dict[MultiIndex, GaussianRational] | None = None):
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        clean: Dict[MultiIndex, GaussianRational] = {}
        for mi, c in (terms or {}).items():
            if mi.max_coord() >= dim:
                raise DimensionMismatch(f"monomial {mi!r} out of range for dim {dim}")
            if c:
                clean[mi] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return (Poly._normal, (self.dim, dict(self._terms)))

    # -- constructors -------------------------------------------------------

    @classmethod
    def _normal(cls, dim: int, terms: Dict[MultiIndex, GaussianRational]) -> "Poly":
        """Unchecked constructor for a term map that is already in normal
        form: no zero coefficient and every monomial in range for `dim`.
        The map is taken over, not copied."""
        p = _new(cls)
        _set_dim(p, dim)
        _set_terms(p, terms)
        return p

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim)

    @classmethod
    def const(cls, dim: int, value) -> "Poly":
        value = _as_scalar(value)
        return cls(dim, {EMPTY_INDEX: value})

    @classmethod
    def coordinate(cls, dim: int, coord: int) -> "Poly":
        if not 0 <= coord < dim:
            raise DimensionMismatch(f"coordinate {coord} out of range for dim {dim}")
        return cls(dim, {MultiIndex.unit(coord): ONE})

    @classmethod
    def monomial(cls, dim: int, mi: MultiIndex, coeff=ONE) -> "Poly":
        return cls(dim, {mi: _as_scalar(coeff)})

    # -- predicates/accessors -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return all(mi.degree == 0 for mi in self._terms)

    def constant_term(self) -> GaussianRational:
        return self._terms.get(EMPTY_INDEX, ZERO)

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((mi.degree for mi in self._terms), default=0)

    def coefficient(self, mi: MultiIndex) -> GaussianRational:
        return self._terms.get(mi, ZERO)

    def terms(self) -> Iterator[Tuple[MultiIndex, GaussianRational]]:
        """Terms in canonical (graded lex, leading first) order."""
        for mi in sorted(self._terms, key=lambda m: m.grlex_key(self.dim), reverse=True):
            yield mi, self._terms[mi]

    def term_count(self) -> int:
        return len(self._terms)

    # -- arithmetic -------------------------------------------------------------

    def _check_dim(self, other: "Poly"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.const(self.dim, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_dim(other)
        terms = dict(self._terms)
        for mi, c in other._terms.items():
            acc = terms.get(mi)
            s = c if acc is None else acc + c
            if s:
                terms[mi] = s
            elif acc is not None:
                del terms[mi]
        return Poly._normal(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._normal(self.dim, {mi: -c for mi, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.const(self.dim, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_dim(other)
        terms: Dict[MultiIndex, GaussianRational] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 + m2
                c = c1 * c2
                acc = terms.get(m)
                s = c if acc is None else acc + c
                if s:
                    terms[m] = s
                elif acc is not None:
                    del terms[m]
        return Poly._normal(self.dim, terms)

    __rmul__ = __mul__

    def scale(self, factor) -> "Poly":
        factor = _as_scalar(factor)
        if not factor:
            return Poly(self.dim)
        # a nonzero factor times a nonzero coefficient is nonzero
        return Poly._normal(self.dim, {mi: c * factor for mi, c in self._terms.items()})

    def __pow__(self, n: int) -> "Poly":
        """The n-th power by the multinomial theorem, sum over k_1 + ... + k_t = n
        of n!/prod k_j! prod a_j^k_j x^(sum k_j u_j); prefixes k_1..k_j wait on a stack."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        *heads, (v, b) = self._terms.items() or [(EMPTY_INDEX, ZERO)]  # 0 as a constant; 0^0 = 1
        # k u and a^k, k = 0..n, per term but the last; a lone term's stand-in takes none
        pows = [([_times(u, k) for k in range(n + 1)], list(itertools.accumulate(
            [a] * n, mul, initial=ONE))) for u, a in heads] or [((EMPTY_INDEX,), (ONE,))]
        terms, stack, inner = {}, [(n, 0, EMPTY_INDEX, 1)], len(heads) - 1
        while stack:
            r, j, idx, c = stack.pop()  # factors left, term j next, index, coefficient
            for i in range(j, inner if r else j):  # middle term i takes k > 0, j..i-1 none
                ku, pa = pows[i]
                binom = r
                for k in range(1, r + 1):
                    stack.append((r - k, i + 1, idx + ku[k], pa[k] * (c * binom)))
                    binom = binom * (r - k) // (k + 1)
            ku, pa = pows[inner]  # or none does: term inner takes k = top..0, the last the rest
            top = min(r, len(ku) - 1)  # binom starts at C(r, top) = 1
            kv, pb, binom = _times(v, r - top), b ** (r - top), 1
            for k in range(top, -1, -1):
                mi, s = ku[k] + kv + idx, pa[k] * pb * (c * binom)
                terms[mi] = terms[mi] + s if mi in terms else s
                if k:  # the last term takes one factor more
                    kv, pb = kv + v, pb * b
                binom = binom * k // (r - k + 1)
        return Poly._normal(self.dim, {mi: s for mi, s in terms.items() if s})

    # -- calculus -----------------------------------------------------------------

    def diff_coord(self, coord: int, times: int = 1) -> "Poly":
        """Iterated partial derivative along one coordinate."""
        if not 0 <= coord < self.dim:
            raise DimensionMismatch(f"coordinate {coord} out of range for dim {self.dim}")
        terms: Dict[MultiIndex, GaussianRational] = {}
        for mi, c in self._terms.items():
            e = mi._exps.get(coord, 0)
            if e < times:
                continue
            factor = _falling(e, times)
            nm = MultiIndex._from_sorted(tuple(
                (cc, ee - times if cc == coord else ee)
                for cc, ee in mi._pairs if cc != coord or ee != times
            ))
            nc = c * factor
            acc = terms.get(nm)
            s = nc if acc is None else acc + nc
            if s:
                terms[nm] = s
            elif acc is not None:
                del terms[nm]
        return Poly(self.dim, terms)

    def diff(self, index: MultiIndex) -> "Poly":
        """Iterated partial derivative for a whole multi-index."""
        result = self
        for coord, e in index.pairs:
            result = result.diff_coord(coord, e)
            if result.is_zero():
                break
        return result

    # -- reshaping -------------------------------------------------------------------

    def embed(self, dim: int) -> "Poly":
        """Reinterpret in a space of at least the current dimension."""
        if dim < self.dim:
            raise DimensionMismatch(f"cannot shrink dim {self.dim} to {dim}")
        return Poly(dim, dict(self._terms))

    def zero_like(self) -> "Poly":
        return Poly(self.dim)

    # -- dunder ------------------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.const(self.dim, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self):
        return hash((self.dim, frozenset(self._terms.items())))

    def __repr__(self):
        return f"Poly({self.dim}, {self.format()!r})"

    def __str__(self):
        return self.format()

    def format(self, names: list[str] | None = None) -> str:
        if self.is_zero():
            return "0"
        if names is None:
            names = [f"x{j}" for j in range(self.dim)]
        chunks = []
        for mi, c in self.terms():
            factors = []
            for coord, e in mi.pairs:
                factors.append(names[coord] if e == 1 else f"{names[coord]}^{e}")
            cs = str(c)
            if factors and cs == "1":
                cs = ""
            elif factors and cs == "-1":
                cs = "-"
            elif ("+" in cs[1:]) or ("-" in cs[1:]) or ("*" in cs):
                cs = f"({cs})"
            body = "*".join(factors)
            if cs and body:
                chunks.append(f"{cs}{'*' if cs not in ('-',) else ''}{body}")
            elif body:
                chunks.append(body)
            else:
                chunks.append(cs)
        out = " + ".join(chunks)
        return out.replace("+ -", "- ")

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> list:
        """{"exps", "re", "im"} entries in `terms` order, sorted once."""
        return self._json(_GrlexKeys(self.dim))

    def _json(self, keys: "_GrlexKeys") -> list:
        """`to_json` over a grlex-key table the caller may share."""
        rows = [(keys[mi], keys[c._r, c._i, c._d]) for mi, c in self._terms.items()]
        rows.sort(key=_first, reverse=True)
        return [{"exps": list(key[1]), "re": re, "im": im} for key, (re, im) in rows]

    @classmethod
    def from_json(cls, dim: int, data: list) -> "Poly":
        terms: Dict[MultiIndex, GaussianRational] = {}
        for entry in data:
            mi = MultiIndex.from_exponents(entry["exps"])
            c = GaussianRational.from_json(entry)
            if mi in terms:
                raise ValueError(f"duplicate monomial {entry['exps']}")
            terms[mi] = c
        return cls(dim, terms)


class _GrlexKeys(dict):
    """index -> its grlex key (degree, dense exponents) in one dimension, and
    a scalar's (r, i, d) triple (its hash builds `Fraction`s) -> the (re, im)
    `GaussianRational.to_json` writes, each formed on first request; one
    table serves one serialization call, so each is formed once per call."""

    __slots__ = ("_dim",)

    def __init__(self, dim: int):
        super().__init__()
        self._dim = dim

    def __missing__(self, key):
        if isinstance(key, MultiIndex):
            got = self[key] = (key._degree, key.dense(self._dim))
        else:
            data = _make(*key).to_json()
            got = self[key] = (data["re"], data["im"])
        return got


_first = itemgetter(0)
_new = object.__new__
_set_dim = Poly.dim.__set__
_set_terms = Poly._terms.__set__


def _as_scalar(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f"cannot use {value!r} as a scalar")
