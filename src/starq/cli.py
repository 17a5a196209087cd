"""Batch front door: read a JSON problem file, run constructions and
verifications, emit a deterministic JSON report.

    starq validate      spec.json   -- axiom + canonicity checks
    starq derive        spec.json   -- derive the morphism, verify intertwining
    starq verify-tables spec.json   -- closed-form vs recursion comparison
    starq apply         spec.json --f expr [--g expr]

`apply` checks the canonicity of the coordinates and that every morphism
order has a solution, not intertwining: `derive` is what checks that.
Exit codes: 0 all checks passed, 1 a check failed, 2 unusable input;
a reader that closes stdout early truncates the report but not the exit
code.
Every spec field and the --out directory are checked before any engine
work; a frame or connection the engine rejects (InvalidFrame,
NonFlatConnection) or an operator past its derivative-order guard
(OperatorOrderExceeded) is unusable input too.
Reports are byte-identical across runs for the same input when --no-timing
is given.  See docs/problem-spec-schema.json for the input format.
The argument parser is built once per process and shared by every
`main` call in it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Tuple

from . import __version__
from .equivalence import (
    derive_equivalence,
    flat_cotangent_order2,
    flat_cotangent_order4,
    operator_diff_report,
    symplectic_order2,
    verify_intertwining,
)
from .errors import (
    ExprParseError, InvalidArgument, InvalidFrame, NonFlatConnection, OperatorOrderExceeded,
    ProblemSpecError, StarqError,
)
from .exprparse import coordinate_names, parse_base_poly, parse_phase_poly
from .geometry import Connection, SymplecticConnectionSpec
from .operators import MAX_OP_ORDER, BiDiffOp, DiffOp
from .poly import MultiIndex, Poly
from .products import (
    PoissonTensor,
    StarProduct,
    VectorFieldFrame,
    check_axioms,
    moyal_product,
    natural_cotangent_product,
    quantum_canonicity_check,
    star_bracket,
    truncated_symplectic_product,
    vector_field_product,
)
from .scalars import GaussianRational

KINDS = ("moyal", "vector-field", "natural-cotangent", "symplectic-truncated")


# ---------------------------------------------------------------------------
# problem-spec loading
# ---------------------------------------------------------------------------

def load_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemSpecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemSpecError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemSpecError(f"{path} is not UTF-8: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemSpecError("problem spec must be a JSON object")
    return data


@dataclass(frozen=True)
class ProblemSpec:
    """A problem spec whose every field has been type- and range-checked.

    `data` is the raw JSON object, echoed as the report's "input".
    `geometry` is the vector-field frame, the base connection or the
    symplectic connection of the kind, and None for Moyal.  A fault is
    kept as the term it adds: `product_fault` as (order, bidifferential
    bump) and `table_fault` as the operator added to each closed form.
    """

    data: dict
    kind: str
    n: int
    casimir: int
    order: int
    max_degree: int
    geometry: VectorFieldFrame | Connection | SymplecticConnectionSpec | None
    product_fault: Tuple[int, BiDiffOp] | None
    table_fault: DiffOp | None


def _is_count(value, minimum: int = 0) -> bool:
    """An integer >= minimum; JSON booleans are not integers."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _require_int(data: dict, key: str, minimum: int = 0, default: int | None = None) -> int:
    value = data.get(key, default)
    if not _is_count(value, minimum):
        raise ProblemSpecError(f"field {key!r} must be an integer >= {minimum}")
    return value


def _parse_indices(key: str, count: int, bound: int) -> Tuple[int, ...]:
    parts = key.split(",")
    if len(parts) != count:
        raise ProblemSpecError(f"index key {key!r} must have {count} comma-separated entries")
    try:
        idx = tuple(int(part) - 1 for part in parts)
    except ValueError as exc:
        raise ProblemSpecError(f"bad index key {key!r}") from exc
    if any(not 0 <= j < bound for j in idx):
        raise ProblemSpecError(f"index key {key!r} out of range (1..{bound})")
    return idx


def _parse_expr(where: str, parse, expr, *args) -> Poly:
    try:
        return parse(expr, *args)
    except ExprParseError as exc:
        raise ProblemSpecError(f"{where}: {exc}") from exc


def _rational(raw, what: str) -> GaussianRational:
    try:
        return GaussianRational(Fraction(str(raw)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemSpecError(f"bad {what}: {raw!r}") from exc


def _frame_from_spec(data: dict, n: int, casimir: int) -> VectorFieldFrame:
    frame_spec = data.get("frame")
    d = 2 * n + casimir
    if not isinstance(frame_spec, list) or len(frame_spec) != d:
        raise ProblemSpecError(f"frame must be a list of {d} component rows")
    rows: List[List[Poly]] = []
    for row in frame_spec:
        if not isinstance(row, list) or len(row) != d:
            raise ProblemSpecError(f"each frame row must have {d} expressions")
        rows.append([_parse_expr("frame entry", parse_phase_poly, e, n, casimir) for e in row])
    return VectorFieldFrame.from_components(rows)


def _connection_from_spec(data: dict, n: int) -> Connection:
    conn_spec = data.get("connection", {})
    gamma_spec = conn_spec.get("gamma", {}) if isinstance(conn_spec, dict) else None
    if not isinstance(gamma_spec, dict):
        raise ProblemSpecError("connection.gamma must be an object of index -> expression")
    gamma: Dict[Tuple[int, int, int], Poly] = {}
    for key, expr in gamma_spec.items():
        i, j, k = _parse_indices(key, 3, n)
        poly = _parse_expr(f"connection.gamma[{key!r}]", parse_base_poly, expr, n)
        existing = gamma.get((i, j, k))
        if existing is not None and existing != poly:
            raise ProblemSpecError(f"conflicting values for symbol {key!r}")
        gamma[(i, j, k)] = poly
        gamma[(i, k, j)] = poly
    return Connection(n, gamma)


def _symplectic_spec_from_spec(data: dict, n: int) -> SymplecticConnectionSpec:
    lowered_spec = data.get("gamma_tilde", {})
    if not isinstance(lowered_spec, dict):
        raise ProblemSpecError("gamma_tilde must be an object of index -> expression")
    comps: Dict[Tuple[int, int, int], Poly] = {}
    for key, expr in lowered_spec.items():
        canon = tuple(sorted(_parse_indices(key, 3, 2 * n)))
        poly = _parse_expr(f"gamma_tilde[{key!r}]", parse_phase_poly, expr, n)
        existing = comps.get(canon)
        if existing is not None and existing != poly:
            raise ProblemSpecError(f"conflicting values for symmetric symbol {key!r}")
        comps[canon] = poly
    a = _rational(data.get("a", "0"), "Ricci weight a")
    try:
        return SymplecticConnectionSpec.from_symmetric_components(n, comps, a)
    except InvalidArgument as exc:
        raise ProblemSpecError(str(exc)) from exc


def _fault_index(fault: dict, key: str, dim: int) -> MultiIndex:
    exps = fault.get(key, [])
    if (
        not isinstance(exps, list)
        or len(exps) > dim
        or not all(_is_count(e) for e in exps)
        or sum(exps) > MAX_OP_ORDER
    ):
        raise ProblemSpecError(
            f"fault.{key} must be a list of at most {dim} integers >= 0 summing to"
            f" <= {MAX_OP_ORDER}"
        )
    return MultiIndex.from_exponents(exps)


def _fault_from_spec(data: dict, order: int, dim: int) -> tuple:
    """The spec's fault hook as (product_fault, table_fault), at most one set."""
    if "fault" not in data:
        return None, None
    fault = data["fault"]
    if not isinstance(fault, dict):
        raise ProblemSpecError("fault must be an object")
    target = fault.get("target", "product")
    if target not in ("product", "table"):
        raise ProblemSpecError('fault.target must be "product" or "table"')
    coeff = Poly.const(dim, _rational(fault.get("coefficient", "1"), "fault.coefficient"))
    if target == "table":
        return None, DiffOp(dim, {_fault_index(fault, "derivative", dim): coeff})
    at = fault.get("order")
    if not _is_count(at) or at > order:
        raise ProblemSpecError("fault.order out of range")
    left, right = _fault_index(fault, "left", dim), _fault_index(fault, "right", dim)
    return (at, BiDiffOp(dim, {(left, right): coeff})), None


def parse_spec(data: dict) -> ProblemSpec:
    """Check every field of a loaded spec; the only reader of spec fields."""
    kind = data.get("kind")
    if kind not in KINDS:
        raise ProblemSpecError(f"kind must be one of {KINDS}")
    n = _require_int(data, "n", 1)
    casimir = _require_int(data, "casimir", 0, 0) if kind in ("moyal", "vector-field") else 0
    # an order-0 product has no deformed bracket to check
    order = _require_int(data, "order", 1, 2 if kind == "symplectic-truncated" else 4)
    if kind == "symplectic-truncated" and order != 2:
        raise ProblemSpecError("symplectic-truncated products are fixed at order 2")
    limit = 4 if kind == "natural-cotangent" else MAX_OP_ORDER
    if order > limit:
        raise ProblemSpecError(f"{kind} products are limited to order {limit}")
    max_degree = _require_int(data, "max_degree", 0, 4)
    if kind == "vector-field":
        geometry = _frame_from_spec(data, n, casimir)
    elif kind == "natural-cotangent":
        geometry = _connection_from_spec(data, n)
    elif kind == "symplectic-truncated":
        geometry = _symplectic_spec_from_spec(data, n)
    else:
        geometry = None
    return ProblemSpec(data, kind, n, casimir, order, max_degree, geometry,
                       *_fault_from_spec(data, order, 2 * n + casimir))


def build_product(spec: ProblemSpec) -> StarProduct:
    poisson = PoissonTensor.canonical(spec.n, spec.casimir)
    if spec.kind == "moyal":
        product = moyal_product(poisson, spec.order)
    elif spec.kind == "vector-field":
        product = vector_field_product(spec.geometry, poisson, spec.order)
    elif spec.kind == "natural-cotangent":
        product = natural_cotangent_product(spec.geometry, spec.order)
    else:  # symplectic-truncated
        product = truncated_symplectic_product(spec.geometry)
    if spec.product_fault:
        # test hook: add a derivative (x) derivative term to one operator
        at, bump = spec.product_fault
        C = list(product.C)
        C[at] = C[at] + bump
        product = StarProduct(product.poisson, C)
    return product


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _series_json(series) -> list:
    return [poly.to_json() for poly in series.coeffs]


# the text json writes for a scalar, by its class; bool before int
_SCALAR_TEXT = {
    bool: lambda v: "true" if v else "false", type(None): lambda v: "null",
    str: encode_basestring_ascii, int: int.__repr__, float: json.dumps,
}


def _write_json(value, newline: str, out) -> None:
    """Write `value` through `out` as `json.dumps(value, indent=2,
    sort_keys=True)` does, `newline` being the line break and indent of
    its nesting level.  Dict keys must be str; a tuple or a subclass is
    written as its base, and any other type raises TypeError."""
    cls = value.__class__
    if cls is not dict and cls is not list:
        if not isinstance(value, (dict, list, tuple)):
            base = next((b for b in _SCALAR_TEXT if isinstance(value, b)), None)
            if base is None:
                raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
            return out(_SCALAR_TEXT[base](value))
        value = dict(value.items()) if isinstance(value, dict) else list(value)
    if not value:
        return out("{}" if value.__class__ is dict else "[]")
    inner = newline + "  "
    is_dict = value.__class__ is dict
    sep = ("{" if is_dict else "[") + inner
    for entry in sorted(value) if is_dict else value:
        item = value[entry] if is_dict else entry
        if is_dict:
            sep += encode_basestring_ascii(entry) + ": "
        text = _SCALAR_TEXT.get(item.__class__)
        if text is not None:
            out(sep + text(item))
        else:
            out(sep)
            _write_json(item, inner, out)
        sep = "," + inner
    out(newline + ("}" if is_dict else "]"))


def report_text(report) -> str:
    """Exactly `json.dumps(report, indent=2, sort_keys=True)`: json itself
    from Python 3.13, which encodes indented JSON in C; before it, one
    recursive pass into a list of chunks, in under half the time of
    json's pure-Python indented encoder.  The writer is deleted once 3.12
    leaves the CI matrix."""
    if sys.version_info >= (3, 13):
        return json.dumps(report, indent=2, sort_keys=True)
    chunks: List[str] = []
    _write_json(report, "\n", chunks.append)
    return "".join(chunks)


def emit(report: dict, args) -> None:
    text = report_text(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ProblemSpecError(f"cannot write {args.out}: {exc}") from exc
    else:
        print(text)


def finalize(report: dict, args, spec: ProblemSpec, started: float, failed: bool) -> int:
    report.update(command=args.command, input=spec.data, status="fail" if failed else "pass",
                  engine={"name": "starq", "version": __version__})
    if not args.no_timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 3)}
    try:
        emit(report, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: the rest of the report is lost,
        # but the verdict stands; stdout goes to the null device so that
        # the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# subcommands: each takes (args, spec), checks its own flags before any
# engine work and returns (report body, failed)
# ---------------------------------------------------------------------------

def _max_degree(args, spec: ProblemSpec) -> int:
    """--max-degree when given, else the spec's max_degree."""
    if args.max_degree is None:
        return spec.max_degree
    if args.max_degree < 0:
        raise ProblemSpecError("--max-degree must be >= 0")
    return args.max_degree


def cmd_validate(args, spec: ProblemSpec) -> Tuple[dict, bool]:
    max_degree = _max_degree(args, spec)
    product = build_product(spec)
    axioms = check_axioms(product, max_degree)
    canonicity = quantum_canonicity_check(product)
    report = {"checks": [axioms.to_json(), canonicity.to_json()], "product": product.to_json()}
    return report, not (axioms.passed and canonicity.passed)


def cmd_derive(args, spec: ProblemSpec) -> Tuple[dict, bool]:
    order = spec.order if args.order is None else args.order
    if not 0 <= order <= spec.order:
        raise ProblemSpecError(f"--order must be between 0 and the product order {spec.order}")
    max_degree = _max_degree(args, spec)
    product = build_product(spec)
    morphism = derive_equivalence(product, order)
    intertwining = verify_intertwining(morphism, product.truncate(order), max_degree)
    report = {"morphism": morphism.to_json(), "checks": [intertwining.to_json()]}
    return report, not intertwining.passed


def cmd_verify_tables(args, spec: ProblemSpec) -> Tuple[dict, bool]:
    if spec.kind not in ("natural-cotangent", "symplectic-truncated"):
        raise ProblemSpecError(
            "verify-tables needs kind natural-cotangent or symplectic-truncated"
        )
    if spec.order < 2:
        raise ProblemSpecError("verify-tables needs order >= 2: its first table is T_2")
    product = build_product(spec)
    morphism = derive_equivalence(product, spec.order)

    def closed_form(op: DiffOp) -> DiffOp:
        return op + spec.table_fault if spec.table_fault else op

    if spec.kind == "natural-cotangent":
        closed = closed_form(flat_cotangent_order2(spec.geometry))
    else:
        closed = closed_form(symplectic_order2(spec.geometry))
    comparisons = [_compare("order-2", morphism.operator(2), closed)]
    failed = not comparisons[0]["match"]
    if spec.kind == "symplectic-truncated":
        pairs = zip(closed.coordinate_commutators(), product.C[2].coordinate_slots())
        entries = [{"coordinate": alpha, "match": comm == slot}
                   for alpha, (comm, slot) in enumerate(pairs)]
        comparisons.append(
            {"name": "coordinate-commutators", "match": all(e["match"] for e in entries),
             "entries": entries}
        )
    elif spec.order >= 4:
        # the first reading of the rearrangement sum that matches ends the search
        for mode in ("permutations", "rotations"):
            closed4 = closed_form(flat_cotangent_order4(spec.geometry, mode))
            comparisons.append(_compare(f"order-4-{mode}", morphism.operator(4), closed4))
            if comparisons[-1]["match"]:
                break
    failed = failed or not comparisons[-1]["match"]
    return {"comparisons": comparisons}, failed


def _compare(name: str, derived: DiffOp, closed: DiffOp) -> dict:
    match = derived == closed
    entry = {"name": name, "match": match}
    if not match:
        entry["diff"] = operator_diff_report(derived, closed)
    return entry


def cmd_apply(args, spec: ProblemSpec) -> Tuple[dict, bool]:
    if not args.f:
        raise ProblemSpecError("apply needs --f")
    f = parse_phase_poly(args.f, spec.n, spec.casimir)
    g = parse_phase_poly(args.g, spec.n, spec.casimir) if args.g else None
    product = build_product(spec)
    payload: Dict[str, object] = {
        "f": f.to_json(), "coordinates": coordinate_names(spec.n, spec.casimir)
    }
    if g is not None:
        payload["g"] = g.to_json()
        payload["star"] = _series_json(product.apply(f, g))
        payload["bracket"] = _series_json(star_bracket(product, f, g))
    payload["morphism_of_f"] = _series_json(derive_equivalence(product).apply(f))
    return {"result": payload}, False


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starq",
        description="Exact star-product constructions and Moyal-equivalence derivations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("validate", cmd_validate),
        ("derive", cmd_derive),
        ("verify-tables", cmd_verify_tables),
        ("apply", cmd_apply),
    ):
        p = sub.add_parser(name)
        p.add_argument("spec", help="problem specification JSON file")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--no-timing", action="store_true", help="omit timing for byte-stable output")
        p.add_argument("--max-degree", type=int, default=None, help="monomial degree bound for checks")
        if name == "derive":
            p.add_argument("--order", type=int, default=None, help="derivation order")
        if name == "apply":
            p.add_argument("--f", help="left factor expression")
            p.add_argument("--g", help="right factor expression")
        p.set_defaults(fn=fn)
    return parser


def _check_environment(args) -> None:
    """Reject an --out path that is a directory or lies in a missing one,
    before any engine work."""
    out = args.out and os.path.abspath(args.out)
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out))):
        raise ProblemSpecError(f"--out must be a file in an existing directory: {args.out}")


def main(argv: List[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _check_environment(args)
        spec = parse_spec(load_problem(args.spec))
        report, failed = args.fn(args, spec)
        return finalize(report, args, spec, started, failed)
    except (
        ProblemSpecError, ExprParseError, InvalidFrame, NonFlatConnection, OperatorOrderExceeded
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StarqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
