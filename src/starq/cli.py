"""Batch front door: read a JSON problem file, run constructions and
verifications, emit a deterministic JSON report.

    starq validate      spec.json   -- axiom + canonicity checks
    starq derive        spec.json   -- derive the morphism, verify intertwining
    starq verify-tables spec.json   -- closed-form vs recursion comparison
    starq apply         spec.json --f expr [--g expr]

Exit codes: 0 all checks passed, 1 a check failed, 2 unusable input.
Reports are byte-identical across runs for the same input when --no-timing
is given.  See docs/problem-spec-schema.json for the input format.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
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
from .errors import ExprParseError, ProblemSpecError, StarqError
from .exprparse import coordinate_names, parse_base_poly, parse_phase_poly
from .geometry import Connection, SymplecticConnectionSpec
from .operators import BiDiffOp, DiffOp
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
    if not isinstance(data, dict):
        raise ProblemSpecError("problem spec must be a JSON object")
    return data


def _require_int(data: dict, key: str, minimum: int = 0) -> int:
    value = data.get(key)
    if not isinstance(value, int) or value < minimum:
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


def _connection_from_spec(data: dict) -> Connection:
    n = _require_int(data, "n", 1)
    conn_spec = data.get("connection", {})
    gamma_spec = conn_spec.get("gamma", {}) if isinstance(conn_spec, dict) else None
    if not isinstance(gamma_spec, dict):
        raise ProblemSpecError("connection.gamma must be an object of index -> expression")
    gamma: Dict[Tuple[int, int, int], Poly] = {}
    for key, expr in gamma_spec.items():
        i, j, k = _parse_indices(key, 3, n)
        try:
            poly = parse_base_poly(expr, n)
        except ExprParseError as exc:
            raise ProblemSpecError(f"connection.gamma[{key!r}]: {exc}") from exc
        existing = gamma.get((i, j, k))
        if existing is not None and existing != poly:
            raise ProblemSpecError(f"conflicting values for symbol {key!r}")
        gamma[(i, j, k)] = poly
        gamma[(i, k, j)] = poly
    return Connection(n, gamma)


def _rational(raw, what: str) -> GaussianRational:
    try:
        return GaussianRational(Fraction(str(raw)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemSpecError(f"bad {what}: {raw!r}") from exc


def _symplectic_spec_from_spec(data: dict) -> SymplecticConnectionSpec:
    if data.get("order", 2) != 2:
        raise ProblemSpecError("symplectic-truncated products are fixed at order 2")
    n = _require_int(data, "n", 1)
    d = 2 * n
    lowered_spec = data.get("gamma_tilde", {})
    if not isinstance(lowered_spec, dict):
        raise ProblemSpecError("gamma_tilde must be an object of index -> expression")
    comps: Dict[Tuple[int, int, int], Poly] = {}
    for key, expr in lowered_spec.items():
        idx = _parse_indices(key, 3, d)
        try:
            poly = parse_phase_poly(expr, n)
        except ExprParseError as exc:
            raise ProblemSpecError(f"gamma_tilde[{key!r}]: {exc}") from exc
        canon = tuple(sorted(idx))
        existing = comps.get(canon)
        if existing is not None and existing != poly:
            raise ProblemSpecError(f"conflicting values for symmetric symbol {key!r}")
        comps[canon] = poly
    a = _rational(data.get("a", "0"), "Ricci weight a")
    try:
        return SymplecticConnectionSpec.from_symmetric_components(n, comps, a)
    except ValueError as exc:
        raise ProblemSpecError(str(exc)) from exc


def build_product(data: dict) -> StarProduct:
    kind = data.get("kind")
    if kind not in KINDS:
        raise ProblemSpecError(f"kind must be one of {KINDS}")
    n = _require_int(data, "n", 1)
    if kind == "moyal":
        casimir = _require_int(data, "casimir", 0) if "casimir" in data else 0
        order = _require_int(data, "order", 0) if "order" in data else 4
        product = moyal_product(PoissonTensor.canonical(n, casimir), order)
    elif kind == "vector-field":
        casimir = _require_int(data, "casimir", 0) if "casimir" in data else 0
        order = _require_int(data, "order", 0) if "order" in data else 4
        frame_spec = data.get("frame")
        d = 2 * n + casimir
        if not isinstance(frame_spec, list) or len(frame_spec) != d:
            raise ProblemSpecError(f"frame must be a list of {d} component rows")
        rows: List[List[Poly]] = []
        for row in frame_spec:
            if not isinstance(row, list) or len(row) != d:
                raise ProblemSpecError(f"each frame row must have {d} expressions")
            try:
                rows.append([parse_phase_poly(expr, n, casimir) for expr in row])
            except ExprParseError as exc:
                raise ProblemSpecError(f"frame entry: {exc}") from exc
        frame = VectorFieldFrame.from_components(rows)
        product = vector_field_product(frame, PoissonTensor.canonical(n, casimir), order)
    elif kind == "natural-cotangent":
        order = _require_int(data, "order", 0) if "order" in data else 4
        if order > 4:
            raise ProblemSpecError("natural-cotangent products are limited to order 4")
        product = natural_cotangent_product(_connection_from_spec(data), order)
    else:  # symplectic-truncated
        product = truncated_symplectic_product(_symplectic_spec_from_spec(data))

    fault = _fault(data, "product")
    if fault:
        product = _apply_product_fault(product, fault)
    return product


def _fault(data: dict, target: str) -> dict | None:
    """The spec's fault hook when it aims at `target`, else None."""
    fault = data.get("fault")
    if fault is not None and not isinstance(fault, dict):
        raise ProblemSpecError("fault must be an object")
    return fault if fault and fault.get("target", "product") == target else None


def _fault_index(fault: dict, key: str, dim: int) -> MultiIndex:
    exps = fault.get(key, [])
    if (
        not isinstance(exps, list)
        or len(exps) > dim
        or any(not isinstance(e, int) or e < 0 for e in exps)
    ):
        raise ProblemSpecError(f"fault.{key} must be a list of at most {dim} integers >= 0")
    return MultiIndex.from_exponents(exps)


def _apply_product_fault(product: StarProduct, fault: dict) -> StarProduct:
    """Test hook: add a derivative (x) derivative term to one operator."""
    d = product.dim
    order = fault.get("order")
    if not isinstance(order, int) or not 0 <= order <= product.order:
        raise ProblemSpecError("fault.order out of range")
    left = _fault_index(fault, "left", d)
    right = _fault_index(fault, "right", d)
    coeff = Poly.const(d, _rational(fault.get("coefficient", "1"), "fault.coefficient"))
    bump = BiDiffOp(d, {(left, right): coeff})
    C = list(product.C)
    C[order] = C[order] + bump
    return StarProduct(product.poisson, C, product.parity)


def _apply_table_fault(op: DiffOp, fault: dict) -> DiffOp:
    deriv = _fault_index(fault, "derivative", op.dim)
    coeff = Poly.const(op.dim, _rational(fault.get("coefficient", "1"), "fault.coefficient"))
    return op + DiffOp(op.dim, {deriv: coeff})


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _series_json(series) -> list:
    return [poly.to_json() for poly in series.coeffs]


def emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def finalize(report: dict, args, started: float, failed: bool) -> int:
    report["engine"] = {"name": "starq", "version": __version__}
    report["status"] = "fail" if failed else "pass"
    if not args.no_timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 3)}
    emit(report, args)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _max_degree(args, data: dict) -> int:
    """--max-degree when given, else the spec's max_degree, else 4."""
    if args.max_degree is None:
        return _require_int(data, "max_degree", 0) if "max_degree" in data else 4
    if args.max_degree < 0:
        raise ProblemSpecError("--max-degree must be >= 0")
    return args.max_degree


def cmd_validate(args) -> int:
    started = time.perf_counter()
    data = load_problem(args.spec)
    product = build_product(data)
    max_degree = _max_degree(args, data)
    axioms = check_axioms(product, max_degree)
    canonicity = quantum_canonicity_check(product)
    report = {
        "command": "validate",
        "input": data,
        "checks": [axioms.to_json(), canonicity.to_json()],
        "product": product.to_json(),
    }
    return finalize(report, args, started, not (axioms.passed and canonicity.passed))


def cmd_derive(args) -> int:
    started = time.perf_counter()
    data = load_problem(args.spec)
    product = build_product(data)
    order = product.order if args.order is None else args.order
    if not 0 <= order <= product.order:
        raise ProblemSpecError(f"--order must be between 0 and the product order {product.order}")
    morphism = derive_equivalence(product, order)
    max_degree = _max_degree(args, data)
    intertwining = verify_intertwining(morphism, product.truncate(order), max_degree)
    report = {
        "command": "derive",
        "input": data,
        "morphism": morphism.to_json(),
        "checks": [intertwining.to_json()],
    }
    return finalize(report, args, started, not intertwining.passed)


def cmd_verify_tables(args) -> int:
    started = time.perf_counter()
    data = load_problem(args.spec)
    kind = data.get("kind")
    table_fault = _fault(data, "table")
    comparisons = []
    failed = False

    if kind == "natural-cotangent":
        conn = _connection_from_spec(data)
        # the order-2 table needs T_2, so order 2 is the least comparable
        order = _require_int(data, "order", 2) if "order" in data else 4
        if order > 4:
            raise ProblemSpecError("natural-cotangent products are limited to order 4")
        product = natural_cotangent_product(conn, order)
        morphism = derive_equivalence(product, order)
        closed2 = flat_cotangent_order2(conn)
        if table_fault:
            closed2 = _apply_table_fault(closed2, table_fault)
        comparisons.append(_compare("order-2", morphism.operator(2), closed2))
        if order >= 4:
            derived4 = morphism.operator(4)
            for mode in ("permutations", "rotations"):
                closed4 = flat_cotangent_order4(conn, mode)
                if table_fault:
                    closed4 = _apply_table_fault(closed4, table_fault)
                cmp4 = _compare(f"order-4-{mode}", derived4, closed4)
                comparisons.append(cmp4)
                if cmp4["match"]:
                    break
            order4_matched = any(
                c["match"] for c in comparisons if c["name"].startswith("order-4")
            )
            failed = failed or not order4_matched
        failed = failed or not comparisons[0]["match"]
    elif kind == "symplectic-truncated":
        spec = _symplectic_spec_from_spec(data)
        product = truncated_symplectic_product(spec)
        morphism = derive_equivalence(product, 2)
        closed = symplectic_order2(spec)
        if table_fault:
            closed = _apply_table_fault(closed, table_fault)
        comparisons.append(_compare("order-2", morphism.operator(2), closed))
        commutator_entries = []
        for alpha in range(product.dim):
            lhs = closed.commutator_with_coordinate(alpha)
            rhs = product.C[2].slot_fix(alpha, "left")
            ok = lhs == rhs
            commutator_entries.append({"coordinate": alpha, "match": ok})
            failed = failed or not ok
        comparisons.append(
            {"name": "coordinate-commutators", "match": all(e["match"] for e in commutator_entries),
             "entries": commutator_entries}
        )
        failed = failed or not comparisons[0]["match"]
    else:
        raise ProblemSpecError(
            "verify-tables needs kind natural-cotangent or symplectic-truncated"
        )

    report = {
        "command": "verify-tables",
        "input": data,
        "comparisons": comparisons,
    }
    return finalize(report, args, started, failed)


def _compare(name: str, derived: DiffOp, closed: DiffOp) -> dict:
    match = derived == closed
    entry = {"name": name, "match": match}
    if not match:
        entry["diff"] = operator_diff_report(derived, closed)
    return entry


def cmd_apply(args) -> int:
    started = time.perf_counter()
    data = load_problem(args.spec)
    product = build_product(data)
    n = data["n"]
    casimir = data.get("casimir", 0) if data.get("kind") in ("moyal", "vector-field") else 0
    names = coordinate_names(n, casimir)
    if not args.f:
        raise ProblemSpecError("apply needs --f")
    f = parse_phase_poly(args.f, n, casimir)
    payload: Dict[str, object] = {"f": f.to_json(), "coordinates": names}
    if args.g:
        g = parse_phase_poly(args.g, n, casimir)
        payload["g"] = g.to_json()
        payload["star"] = _series_json(product.apply(f, g))
        payload["bracket"] = _series_json(star_bracket(product, f, g))
    morphism = derive_equivalence(product)
    payload["morphism_of_f"] = _series_json(morphism.apply(f))
    report = {"command": "apply", "input": data, "result": payload}
    return finalize(report, args, started, False)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

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


def main(argv: List[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ProblemSpecError, ExprParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StarqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
