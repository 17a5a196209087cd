"""Connections on the base manifold and on phase space.

The base objects are polynomial Christoffel symbols on an n-dimensional
configuration space.  Every connection on the 2n-dimensional phase space
is a `SymplecticConnectionSpec`: fully lowered, totally symmetric
symbols, raised once by the canonical Poisson matrix.  `lift_connection`
writes the lift of a flat base connection straight into lowered symbols;
it is the one flatness check of the natural product, and rejects a
curved base with NonFlatConnection before it builds anything.

Every jet table comes from one step (`_jet_stepper`),
J(t) = D_t0 o J(t[1:]) - sum Gamma J(...), with D the partials and Gamma
the symbols of a connection: a lifted base connection, a symplectic one,
or the flat connection of a vector-field frame, whose symbols
Gamma^a_(bc) = -sum_mu (d_b e_mu^a) (e^-1)^mu_c keep the fields parallel
(`products._frame_connection`).  A frame on a tensor that pairs some
coordinate with more than one partner instead takes D its fields and
Gamma = 0: the compositions of the fields.

Index layout on phase space: coordinates 0..n-1 are the configuration
directions, n..2n-1 the conjugate momentum directions (the momentum
partner of base index i sits at n + i).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from .errors import DimensionMismatch, InvalidArgument, NonFlatConnection
from .operators import DiffOp, _acc_compose, _acc_shifted, _check_order, _leibniz_splits
from .poly import MultiIndex, Poly
from .scalars import ONE, GaussianRational


# ---------------------------------------------------------------------------
# base connection
# ---------------------------------------------------------------------------

class Connection:
    """Linear connection on R^n with polynomial symbols, symmetric in the
    two lower indices: a base connection, whose components depend on the
    configuration coordinates only, or the flat connection of a frame.
    """

    __slots__ = ("n", "_gamma")

    def __init__(self, n: int, gamma: Dict[Tuple[int, int, int], Poly] | None = None):
        if n < 0:
            raise DimensionMismatch(f"a connection lives on R^n with n >= 0, not n={n}")
        clean: Dict[Tuple[int, int, int], Poly] = {}
        for (i, j, k), poly in (gamma or {}).items():
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise DimensionMismatch(f"index ({i},{j},{k}) out of range for n={n}")
            if poly.dim != n:
                raise DimensionMismatch("symbol must be a polynomial in the base coordinates")
            if not poly.is_zero():
                clean[(i, j, k)] = poly
        for (i, j, k), poly in clean.items():
            if clean.get((i, k, j), Poly.zero(n)) != poly:
                raise InvalidArgument("connection symbols must be symmetric in the lower indices")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_gamma", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Connection is immutable")

    def __reduce__(self):
        return (Connection, (self.n, dict(self._gamma)))

    @property
    def dim(self) -> int:
        return self.n

    @classmethod
    def zero(cls, n: int) -> "Connection":
        return cls(n)

    @classmethod
    def one_dim(cls, gamma: Poly) -> "Connection":
        """Any single symbol gives a flat connection when n = 1."""
        if gamma.dim != 1:
            raise DimensionMismatch("expected a univariate symbol")
        return cls(1, {(0, 0, 0): gamma})

    def christoffel(self, i: int, j: int, k: int) -> Poly:
        return self._gamma.get((i, j, k), Poly.zero(self.n))

    def components(self) -> Dict[Tuple[int, int, int], Poly]:
        return dict(self._gamma)

    def is_zero(self) -> bool:
        return not self._gamma

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return self.n == other.n and self._gamma == other._gamma


def determinant(rows: List[List[Poly]], dim: int) -> Poly:
    """Laplace expansion along the first row of a square matrix of
    polynomials on R^dim; the empty matrix has determinant 1."""
    if not rows:
        return Poly.const(dim, 1)
    acc = Poly.zero(dim)
    for c, entry in enumerate(rows[0]):
        if not entry.is_zero():
            term = entry * determinant([row[:c] + row[c + 1:] for row in rows[1:]], dim)
            acc = acc + term if c % 2 == 0 else acc - term
    return acc


def inverse_jacobian(targets: List[Poly]) -> List[List[Poly]]:
    """Dphi^-1 of a polynomial map phi whose Jacobian determinant is a
    nonzero constant c, as adj(Dphi) / c: entry (a, b) is the (b, a)
    cofactor over c, a polynomial."""
    n = len(targets)
    if n == 0:
        raise DimensionMismatch("empty coordinate map")
    if any(t.dim != n for t in targets):
        raise DimensionMismatch("map components must live in the base space")
    jac = [[t.diff_coord(b) for b in range(n)] for t in targets]
    det = determinant(jac, n)
    if det.is_zero() or not det.is_constant():
        raise InvalidArgument(f"det Dphi = {det} is not a nonzero constant")
    scale = ONE / det.constant_term()

    def cofactor(r: int, c: int) -> Poly:
        minor = [row[:c] + row[c + 1:] for i, row in enumerate(jac) if i != r]
        return determinant(minor, n).scale(scale if (r + c) % 2 == 0 else -scale)

    return [[cofactor(b, a) for b in range(n)] for a in range(n)]


def flat_connection_from_diffeo(targets: List[Poly]) -> Connection:
    """Pull the trivial connection back along the polynomial map phi with
    components `targets`, whose Jacobian determinant must be a nonzero
    constant: Gamma^i_(jk) = sum_a (Dphi^-1)^i_a d_j d_k phi^a, with the
    polynomial Dphi^-1 of `inverse_jacobian`.  The result is flat.
    """
    n = len(targets)
    inv = inverse_jacobian(targets)
    gamma: Dict[Tuple[int, int, int], Poly] = {}
    for j, k in itertools.combinations_with_replacement(range(n), 2):
        hess = [t.diff(MultiIndex.of(j, k)) for t in targets]
        for i in range(n):
            gamma[(i, j, k)] = gamma[(i, k, j)] = sum(
                (inv[i][a] * hess[a] for a in range(n)), Poly.zero(n)
            )
    return Connection(n, gamma)


# ---------------------------------------------------------------------------
# symplectic connections on phase space
# ---------------------------------------------------------------------------

class SymplecticConnectionSpec:
    """Torsionless symplectic connection on R^(2n) plus a curvature weight.

    Stored as fully lowered symbols, which must be totally symmetric --
    that symmetry is exactly the torsionless+symplectic condition in
    canonical coordinates.  The raised symbols are built once, by the
    canonical rule Gamma^i = lowered (n + i, ., .) and
    Gamma^(n+i) = -lowered (i, ., .).  The rational weight `a` multiplies
    the Ricci term of the associated truncated product.
    """

    __slots__ = ("n", "dim", "_lowered", "_raised", "a")

    def __init__(
        self,
        n: int,
        lowered: Dict[Tuple[int, int, int], Poly],
        a: GaussianRational = GaussianRational(0),
    ):
        if n < 0:
            raise DimensionMismatch(f"a phase space R^(2n) has n >= 0, not n={n}")
        d = 2 * n
        clean: Dict[Tuple[int, int, int], Poly] = {}
        for (al, be, ga), poly in lowered.items():
            if not all(0 <= x < d for x in (al, be, ga)):
                raise DimensionMismatch("lowered index out of range")
            if poly.dim != d:
                raise DimensionMismatch("lowered symbols live on phase space")
            if not poly.is_zero():
                clean[(al, be, ga)] = poly
        for (al, be, ga), poly in clean.items():
            for perm in itertools.permutations((al, be, ga)):
                if clean.get(perm, Poly.zero(d)) != poly:
                    raise InvalidArgument("lowered symbols must be totally symmetric")
        raised: Dict[Tuple[int, int, int], Poly] = {}
        for (al, be, ga), poly in clean.items():
            if al < n:
                raised[(n + al, be, ga)] = -poly
            else:
                raised[(al - n, be, ga)] = poly
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "_lowered", clean)
        object.__setattr__(self, "_raised", raised)
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError("SymplecticConnectionSpec is immutable")

    def __reduce__(self):
        return (SymplecticConnectionSpec, (self.n, dict(self._lowered), self.a))

    @classmethod
    def from_symmetric_components(
        cls, n: int, components: Dict[Tuple[int, int, int], Poly], a=GaussianRational(0)
    ) -> "SymplecticConnectionSpec":
        """Build from one representative per index multiset."""
        full: Dict[Tuple[int, int, int], Poly] = {}
        for key, poly in components.items():
            for perm in itertools.permutations(key):
                existing = full.get(perm)
                if existing is not None and existing != poly:
                    raise InvalidArgument(f"conflicting values for symmetric index set {key}")
                full[perm] = poly
        return cls(n, full, a)

    def lowered(self, alpha: int, beta: int, gamma: int) -> Poly:
        return self._lowered.get((alpha, beta, gamma), Poly.zero(self.dim))

    def christoffel(self, mu: int, nu: int, rho: int) -> Poly:
        return self._raised.get((mu, nu, rho), Poly.zero(self.dim))

    def is_zero(self) -> bool:
        return not self._lowered


def lift_connection(conn: Connection) -> SymplecticConnectionSpec:
    """The symplectic connection on phase space induced by a flat base
    connection, as lowered symbols with weight 0.

    Raised, the lift has four component families: base-base-base copies
    the base symbols, the two mixed families with a momentum upper index
    are transposed negatives of them, and the momentum-direction family
    with two base lower indices is linear homogeneous in the momenta.
    Lowered by the canonical rule, the first three are one totally
    symmetric family, lowered (n + i, j, k) = Gamma^i_(jk) in every index
    order, and the fourth is

        lowered (i, j, k) = sum_l p_l (d_k Gamma^l_(ij)
            - Gamma^r_(jk) Gamma^l_(ri) - Gamma^r_(ik) Gamma^l_(rj)),

    which is symmetric in (i, k) exactly when the base curvature vanishes.
    So a curved base, whose lift would not be totally symmetric, is
    rejected up front with NonFlatConnection.
    """
    riem = curvature(conn)
    if riem:
        raise NonFlatConnection(
            f"the base connection is curved ({len(riem)} nonzero curvature components);"
            " the lift needs a flat one"
        )
    n = conn.n
    d = 2 * n
    gamma = conn.components()
    lowered: Dict[Tuple[int, int, int], Poly] = {}
    for (i, j, k), sym in gamma.items():
        sym = sym.embed(d)
        lowered[(n + i, j, k)] = lowered[(j, n + i, k)] = lowered[(j, k, n + i)] = sym
    for i, j, k in itertools.product(range(n), repeat=3):
        acc = Poly.zero(d)
        for l in range(n):
            inner = conn.christoffel(l, i, j).diff_coord(k)
            for r in range(n):
                for first, second in (((r, j, k), (l, r, i)), ((r, i, k), (l, r, j))):
                    if first in gamma and second in gamma:
                        inner = inner - gamma[first] * gamma[second]
            if not inner.is_zero():
                acc = acc + Poly.coordinate(d, n + l) * inner.embed(d)
        if not acc.is_zero():
            lowered[(i, j, k)] = acc
    return SymplecticConnectionSpec(n, lowered)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature(conn) -> Dict[Tuple[int, int, int, int], Poly]:
    """Nonzero components R^rho_(sigma mu nu) of the curvature tensor.

    R^rho_(sigma mu nu) = d_mu G^rho_(nu sigma) - d_nu G^rho_(mu sigma)
                        + G^rho_(mu lam) G^lam_(nu sigma)
                        - G^rho_(nu lam) G^lam_(mu sigma).
    """
    d = conn.dim
    out: Dict[Tuple[int, int, int, int], Poly] = {}
    for rho, sigma in itertools.product(range(d), repeat=2):
        for mu in range(d):
            for nu in range(mu + 1, d):
                term = conn.christoffel(rho, nu, sigma).diff_coord(mu)
                term = term - conn.christoffel(rho, mu, sigma).diff_coord(nu)
                for lam in range(d):
                    term = term + conn.christoffel(rho, mu, lam) * conn.christoffel(lam, nu, sigma)
                    term = term - conn.christoffel(rho, nu, lam) * conn.christoffel(lam, mu, sigma)
                if not term.is_zero():
                    out[(rho, sigma, mu, nu)] = term
                    out[(rho, sigma, nu, mu)] = -term
    return out


def is_flat(conn) -> bool:
    return not curvature(conn)


def ricci(conn) -> Dict[Tuple[int, int], Poly]:
    """Ricci tensor R_(mu nu) = R^alpha_(mu alpha nu); zeros omitted.

    The contraction is over the first upper and first lower-derivative
    slot of the curvature convention above.
    """
    d = conn.dim
    riem = curvature(conn)
    out: Dict[Tuple[int, int], Poly] = {}
    for mu, nu in itertools.product(range(d), repeat=2):
        acc = Poly.zero(d)
        for al in range(d):
            comp = riem.get((al, mu, al, nu))
            if comp is not None:
                acc = acc + comp
        if not acc.is_zero():
            out[(mu, nu)] = acc
    return out


# ---------------------------------------------------------------------------
# iterated covariant derivatives
# ---------------------------------------------------------------------------

def covariant_jet_ops(conn, rank: int) -> Dict[Tuple[int, ...], DiffOp]:
    """Operators computing the components of the rank-k iterated
    covariant derivative of a scalar.

    The recursion prepends the new index: the next jet along mu0 is the
    mu0-partial of the previous jet minus symbol contractions on each of
    the existing slots, one raw step (`_jet_stepper`) normalised once.
    """
    _check_order(rank)
    d = conn.dim
    step = _jet_stepper([DiffOp.partial(d, mu) for mu in range(d)], conn, False)
    jets: Dict[Tuple[int, ...], DiffOp] = {(): DiffOp.identity(d)}
    for _ in range(rank):
        jets = {(mu0,) + idx: step(jets, mu0, idx) for idx in jets for mu0 in range(d)}
    return jets


def symmetric_jet_ops(conn, order: int) -> Dict[Tuple[int, ...], DiffOp]:
    """Jet operators of ranks 0..order in one table keyed by sorted index
    tuples.

    Precondition: the jets of `conn` are symmetric in their indices up to
    rank `order`.  That holds at every rank for a flat torsion-free
    connection (a flat lift), and up to rank 2 for any torsion-free one.
    Under it the entry for a sorted tuple t equals
    `covariant_jet_ops(conn, len(t))[t]`: the same raw step of
    `covariant_jet_ops` is run with mu0 = t[0] on idx = t[1:], and every
    replaced index tuple is looked up by its sorted form.  Without the
    precondition the table is not the covariant jet.
    """
    d = conn.dim
    return _sorted_jets([DiffOp.partial(d, mu) for mu in range(d)], range(d), order, conn)


def _sorted_jets(fields, coords, order: int, conn=None) -> Dict[Tuple[int, ...], DiffOp]:
    """The jets of ranks 0..order keyed by the sorted tuples t over `coords`,
    each the step (`_jet_stepper`) along t[0] on t[1:] of `fields` and the
    symbols of `conn`, or of none: a frame's compositions D_t0 o ... o D_tk.
    `coords` must be closed under the symbols: every Gamma^lam_(mu nu)
    with mu and nu in `coords` has lam in `coords`."""
    _check_order(order)
    d = len(fields)
    step = _jet_stepper(fields, conn, True)
    jets: Dict[Tuple[int, ...], DiffOp] = {(): DiffOp.identity(d)}
    for rank in range(1, order + 1):
        for t in itertools.combinations_with_replacement(coords, rank):
            jets[t] = step(jets, t[0], t[1:])
    return jets


def _jet_stepper(fields: List[DiffOp], conn, sort: bool):
    """The one step of every jet recursion, as step(jets, mu0, idx): the
    jet along (mu0,) + idx,

        D_mu0 o J(idx) - sum over slots s and lam of
            Gamma^lam_(mu0 idx_s) J(idx with idx_s replaced by lam),

    where D = `fields`, J(r) is jets[r], or jets[sorted(r)] when `sort`
    (each value of the sorted idx is then contracted once, times its
    slots), and Gamma the symbols of `conn`, none when it is None.
    D_mu0 o J(idx) is added raw by the Leibniz kernel of `DiffOp.compose`
    (`operators._acc_compose`), and each -Gamma x^m J(replaced) through
    `_acc_shifted`, into one raw map per derivative, normalised once.
    """
    d = len(fields)
    lefts = [_leibniz_splits(field._terms) for field in fields]
    # (mu, nu) -> (lam, -Gamma^lam_(mu nu) as a raw map) for each nonzero symbol
    symbols: Dict[Tuple[int, int], List[Tuple[int, Dict[MultiIndex, GaussianRational]]]] = {}
    for lam, mu, nu in itertools.product(range(d), repeat=3) if conn is not None else ():
        sym = conn.christoffel(lam, mu, nu)
        if sym._terms:
            symbols.setdefault((mu, nu), []).append((lam, {m: -c for m, c in sym._terms.items()}))

    def step(jets, mu0: int, idx: Tuple[int, ...]) -> DiffOp:
        acc: Dict[MultiIndex, Dict[MultiIndex, GaussianRational]] = {}
        _acc_compose(acc, lefts[mu0], jets[idx]._terms)
        for s, mus in enumerate(idx):
            if sort and s and mus == idx[s - 1]:
                continue
            times = idx.count(mus) if sort else 1
            for lam, sym in symbols.get((mu0, mus), ()):
                replaced = idx[:s] + (lam,) + idx[s + 1:]
                replaced = jets[tuple(sorted(replaced)) if sort else replaced]
                for mi, coeff in replaced._terms.items():
                    target = acc.setdefault(mi, {})
                    for m, c in sym.items():
                        _acc_shifted(target, coeff._terms, m, c if times == 1 else c * times)
        return DiffOp._from_raw(d, acc)

    return step
