"""Seeded inputs and job lists of the three benchmark workloads.

A workload is an ordered list of jobs.  :func:`make_inputs` draws every
input once per run from the seed.  The structure is fixed: ``n``, orders,
degree bounds and the supports of all polynomials.  The seed picks only
nonzero small rational coefficients and fault positions, so the cost of
a pass barely moves across seeds.

Each job returns the SHA-256 of the canonical JSON of its exact outputs
(product and morphism ``to_json``, check reports, CLI report bytes under
``--no-timing``) and a verdict that follows from how its input was built:
a flat connection passes every check, the closed forms match the
derivation, an injected fault exits 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

import starq
from starq import cli
from starq.exprparse import parse_base_poly, parse_phase_poly
from starq.poly import MultiIndex, Poly

# Structure of each workload.  "full" is what the benchmark measures;
# "tiny" runs the same job shapes at small sizes for the self-test.
SIZES = {
    "full": {
        "construct": {"moyal": (2, 7), "natural_n1": 6, "natural_n2": 4, "vector_field": (2, 4)},
        "verify": {"natural": (4, 3, 3), "vector_field": (6, 4), "symplectic": 4},
        "cli_demo": {"max_degree": None, "specs": None},
    },
    "tiny": {
        "construct": {"moyal": (1, 3), "natural_n1": 3, "natural_n2": 2, "vector_field": (1, 2)},
        "verify": {"natural": (2, 2, 2), "vector_field": (3, 3), "symplectic": 2},
        "cli_demo": {
            "max_degree": 1,
            "specs": ("moyal", "natural_cotangent", "symplectic_truncated", "vector_field"),
        },
    },
}

# Nonzero rationals with small numerators and denominators.
_COEFFS = sorted(
    {Fraction(s * a, b) for s in (1, -1) for a in (1, 2, 3) for b in (1, 2, 3)}
)


@dataclass(frozen=True)
class Outcome:
    digest: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Job:
    name: str
    seeded: bool  # whether the outputs depend on the seed
    run: Callable[[dict], Outcome]


def digest_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

class _Draw:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def coeff(self) -> Fraction:
        return self.rng.choice(_COEFFS)

    def expr(self, monomials: List[str]) -> str:
        """A polynomial with the given support and seeded coefficients."""
        parts = []
        for mono in monomials:
            c = self.coeff()
            sign = "-" if c < 0 else "+"
            lit = str(abs(c))
            parts.append(f"{sign} {lit}" if mono == "1" else f"{sign} {lit}*{mono}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    def exponents(self, dim: int, low: int, high: int) -> List[int]:
        """A nonzero exponent vector of total degree in [low, high]."""
        while True:
            exps = [self.rng.randint(0, high) for _ in range(dim)]
            if low <= sum(exps) <= high:
                return exps


def _diffeo_connection(draw: _Draw):
    """Flat n=2 connection pulled back along (q1, q2 + a q1^2 + b q1^3)."""
    targets = [parse_base_poly("q1", 2), parse_base_poly("q2 + " + draw.expr(["q1^2", "q1^3"]), 2)]
    return starq.flat_connection_from_diffeo(targets)


_PHI_SUPPORT = {1: ["p1^3", "p1^2"], 2: ["p1^3", "p1^2*p2", "p2^3"]}


def _cubic_frame(draw: _Draw, n: int) -> starq.VectorFieldFrame:
    """Frame d/dq_i, d/dp_i + sum_j (d^2 phi / dp_i dp_j) d/dq_j for a cubic phi(p)."""
    phi = parse_phase_poly(draw.expr(_PHI_SUPPORT[n]), n)
    d = 2 * n
    rows = []
    for i in range(d):
        row = [Poly.zero(d) for _ in range(d)]
        if i < n:
            row[i] = Poly.const(d, 1)
        else:
            row[i] = Poly.const(d, 1)
            for j in range(n):
                row[j] = phi.diff(MultiIndex.of(i, n + j))
        rows.append(row)
    return starq.VectorFieldFrame.from_components(rows)


def _symplectic_spec(draw: _Draw) -> starq.SymplecticConnectionSpec:
    """n=1 symplectic connection with the support of the shipped demo spec."""
    support = {
        (0, 0, 0): ["q1", "p1"],
        (0, 0, 1): ["q1^2"],
        (0, 1, 1): ["p1"],
        (1, 1, 1): ["q1*p1"],
    }
    comps = {key: parse_phase_poly(draw.expr(monos), 1) for key, monos in support.items()}
    return starq.SymplecticConnectionSpec.from_symmetric_components(
        1, comps, starq.GaussianRational(draw.coeff())
    )


def make_inputs(workload: str, seed: int, size: str, root: str, workdir: str) -> dict:
    """Every seeded input of one workload; cli_demo also writes its fault specs."""
    draw = _Draw(seed)
    if workload == "construct":
        return {
            "gamma": starq.Connection.one_dim(
                parse_base_poly(draw.expr(["q1"]), 1)
            ),
            "diffeo": _diffeo_connection(draw),
            "frame": _cubic_frame(draw, SIZES[size]["construct"]["vector_field"][0]),
        }
    if workload == "verify":
        return {
            "diffeo": _diffeo_connection(draw),
            "frame": _cubic_frame(draw, 1),
            "symplectic": _symplectic_spec(draw),
        }
    if workload == "cli_demo":
        return _cli_inputs(draw, size, root, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _cli_inputs(draw: _Draw, size: str, root: str, workdir: str) -> dict:
    spec_dir = os.path.join(root, "demos", "specs")
    wanted = SIZES[size]["cli_demo"]["specs"]
    specs = {}
    for fname in sorted(os.listdir(spec_dir)):
        stem, ext = os.path.splitext(fname)
        if ext == ".json" and (wanted is None or stem in wanted):
            with open(os.path.join(spec_dir, fname), encoding="utf-8") as fh:
                specs[stem] = (os.path.join(spec_dir, fname), json.load(fh))
    if "moyal" not in specs or "natural_cotangent" not in specs:
        raise FileNotFoundError(f"{spec_dir} lacks the moyal and natural_cotangent specs")

    # A product fault with left != right breaks the parity axiom whatever
    # the order, so validate must exit 1; a table fault adds a nonzero term
    # to both closed forms, so verify-tables must exit 1.
    while True:
        left, right = draw.exponents(2, 1, 2), draw.exponents(2, 1, 2)
        if left != right:
            break
    product_fault = dict(specs["moyal"][1])
    product_fault["fault"] = {
        "target": "product",
        "order": draw.rng.randint(1, product_fault.get("order", 4)),
        "left": left,
        "right": right,
        "coefficient": str(draw.coeff()),
    }
    table_fault = dict(specs["natural_cotangent"][1])
    table_fault["fault"] = {
        "target": "table",
        "derivative": draw.exponents(2, 1, 3),
        "coefficient": str(draw.coeff()),
    }
    paths = {}
    for name, data in (("product_fault", product_fault), ("table_fault", table_fault)):
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
    return {
        "specs": {stem: path for stem, (path, _) in specs.items()},
        "tables": [stem for stem, (_, data) in specs.items()
                   if data.get("kind") in ("natural-cotangent", "symplectic-truncated")],
        "faults": paths,
        "apply": {
            "f": draw.expr(["q1^2", "p1"]),
            "g": draw.expr(["q1*p1^2", "p1"]),
        },
    }


# ---------------------------------------------------------------------------
# library jobs
# ---------------------------------------------------------------------------

def _build(key: str, build: Callable[[], starq.StarProduct], seeded: bool) -> Job:
    def run(state):
        product = build()
        state[key] = product
        return Outcome(digest_json(product.to_json()), True)

    return Job(f"{key}.build", seeded, run)


def _derive(key: str, seeded: bool) -> Job:
    def run(state):
        morphism = starq.derive_equivalence(state[key])
        state[key + ".morphism"] = morphism
        return Outcome(digest_json(morphism.to_json()), True)

    return Job(f"{key}.derive", seeded, run)


def _report(name: str, seeded: bool, check: Callable[[dict], object]) -> Job:
    def run(state):
        report = check(state)
        detail = "" if report.passed else "; ".join(e.detail for e in report.failures())
        return Outcome(digest_json(report.to_json()), report.passed, detail)

    return Job(name, seeded, run)


def _closed_forms(key: str, conn, order: int) -> Job:
    """Derived T2 (and T4) against the flat-cotangent closed forms."""
    def run(state):
        morphism = state[key + ".morphism"]
        closed = [starq.flat_cotangent_order2(conn)]
        if order >= 4:
            closed.append(starq.flat_cotangent_order4(conn))
        bad = [2 * (j + 1) for j, op in enumerate(closed) if morphism.operator(2 * (j + 1)) != op]
        detail = "" if not bad else f"closed forms differ at orders {bad}"
        return Outcome(digest_json([op.to_json() for op in closed]), not bad, detail)

    return Job(f"{key}.closed_forms", True, run)


def construct_jobs(inputs: dict, size: str) -> List[Job]:
    sz = SIZES[size]["construct"]
    (mn, mo), (vn, vo) = sz["moyal"], sz["vector_field"]
    moyal = f"moyal_n{mn}_o{mo}"
    nat1 = f"natural_n1_o{sz['natural_n1']}"
    nat2 = f"natural_n2_o{sz['natural_n2']}"
    vf = f"vector_field_n{vn}_o{vo}"
    jobs = [
        _build(moyal, lambda: starq.moyal_product(starq.PoissonTensor.canonical(mn), mo), False),
        _build(nat1, lambda: starq.natural_cotangent_product(inputs["gamma"], sz["natural_n1"]), True),
        _build(nat2, lambda: starq.natural_cotangent_product(inputs["diffeo"], sz["natural_n2"]), True),
        _build(vf, lambda: starq.vector_field_product(
            inputs["frame"], starq.PoissonTensor.canonical(vn), vo), True),
    ]
    jobs += [_derive(key, key != moyal) for key in (moyal, nat1, nat2, vf)]
    jobs.append(_closed_forms(nat2, inputs["diffeo"], sz["natural_n2"]))
    return jobs


def verify_jobs(inputs: dict, size: str) -> List[Job]:
    sz = SIZES[size]["verify"]
    order, axioms_deg, inter_deg = sz["natural"]
    vf_order, vf_deg = sz["vector_field"]
    nat = f"natural_n2_o{order}"
    vf = f"vector_field_n1_o{vf_order}"
    sym = "symplectic_n1_o2"
    jobs = [
        _build(nat, lambda: starq.natural_cotangent_product(inputs["diffeo"], order), True),
        _report(f"{nat}.axioms_d{axioms_deg}", True,
                lambda st: starq.check_axioms(st[nat], axioms_deg)),
        _derive(nat, True),
        _report(f"{nat}.intertwining_d{inter_deg}", True,
                lambda st: starq.verify_intertwining(st[nat + ".morphism"], st[nat], inter_deg)),
        _build(vf, lambda: starq.vector_field_product(
            inputs["frame"], starq.PoissonTensor.canonical(1), vf_order), True),
        _report(f"{vf}.axioms_d{vf_deg}", True, lambda st: starq.check_axioms(st[vf], vf_deg)),
        _build(sym, lambda: starq.truncated_symplectic_product(inputs["symplectic"]), True),
        _report(f"{sym}.axioms_d{sz['symplectic']}", True,
                lambda st: starq.check_axioms(st[sym], sz["symplectic"])),
    ]
    jobs += [
        _report(f"{key}.canonicity", True, lambda st, key=key: starq.quantum_canonicity_check(st[key]))
        for key in (nat, vf, sym)
    ]
    return jobs


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------

def _cli(name: str, argv: List[str], expect_code: int, seeded: bool) -> Job:
    def run(state):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + ["--no-timing"])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        ok = code == expect_code and not err.getvalue()
        detail = "" if ok else f"exit {code}, expected {expect_code}; stderr {err.getvalue()[-200:]!r}"
        return Outcome(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), ok, detail)

    return Job(name, seeded, run)


def cli_jobs(inputs: dict, size: str) -> List[Job]:
    degree = SIZES[size]["cli_demo"]["max_degree"]
    flags = [] if degree is None else ["--max-degree", str(degree)]
    specs = inputs["specs"]
    jobs = []
    for command in ("validate", "derive"):
        jobs += [_cli(f"{command}.{stem}", [command, path] + flags, 0, False)
                 for stem, path in specs.items()]
    jobs += [_cli(f"verify-tables.{stem}", ["verify-tables", specs[stem]], 0, False)
             for stem in inputs["tables"]]
    f, g = inputs["apply"]["f"], inputs["apply"]["g"]
    jobs += [_cli(f"apply.{stem}", ["apply", specs[stem], "--f", f, "--g", g], 0, True)
             for stem in ("moyal", "vector_field") if stem in specs]
    jobs.append(_cli("validate.product_fault",
                     ["validate", inputs["faults"]["product_fault"]] + flags, 1, True))
    jobs.append(_cli("verify-tables.table_fault",
                     ["verify-tables", inputs["faults"]["table_fault"]], 1, True))
    return jobs


def make_jobs(workload: str, inputs: dict, size: str) -> List[Job]:
    return {"construct": construct_jobs, "verify": verify_jobs, "cli_demo": cli_jobs}[workload](
        inputs, size
    )
