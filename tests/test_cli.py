import ast
import copy
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from starq import cli
from starq.cli import build_arg_parser, main, report_text
from starq.poly import MultiIndex
from starq.scalars import GaussianRational

FIXTURES = {
    "moyal": {"kind": "moyal", "n": 1, "casimir": 0, "order": 4, "max_degree": 4},
    "moyal_casimir": {"kind": "moyal", "n": 1, "casimir": 1, "order": 3, "max_degree": 3},
    "moyal_n2_casimir_o6": {"kind": "moyal", "n": 2, "casimir": 1, "order": 6, "max_degree": 3},
    "moyal_o12": {"kind": "moyal", "n": 1, "order": 12, "max_degree": 4},
    "natural_q": {
        "kind": "natural-cotangent",
        "n": 1,
        "order": 4,
        "connection": {"gamma": {"1,1,1": "q1"}},
        "max_degree": 4,
    },
    "natural_n2": {
        "kind": "natural-cotangent",
        "n": 2,
        "order": 2,
        "connection": {"gamma": {"2,1,1": "2 + 6*q1"}},
        "max_degree": 3,
    },
    "vf_shear": {
        "kind": "vector-field",
        "n": 1,
        "order": 3,
        "frame": [["1", "0"], ["p1^2", "1"]],
        "max_degree": 4,
    },
    "symplectic": {
        "kind": "symplectic-truncated",
        "n": 1,
        "a": "-3/7",
        "gamma_tilde": {
            "1,1,1": "q1 + p1",
            "1,1,2": "1/2*q1^2",
            "1,2,2": "p1",
            "2,2,2": "q1*p1",
        },
    },
    "fault_assoc": {
        "kind": "moyal",
        "n": 1,
        "order": 4,
        "max_degree": 4,
        "fault": {
            "target": "product",
            "order": 2,
            "left": [1, 0],
            "right": [1, 0],
            "coefficient": "1",
        },
    },
    "fault_table": {
        "kind": "natural-cotangent",
        "n": 1,
        "order": 2,
        "connection": {"gamma": {"1,1,1": "q1"}},
        "fault": {"target": "table", "derivative": [0, 2], "coefficient": "1/5"},
    },
}


@pytest.fixture
def spec_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(FIXTURES[name]))
        return str(path)

    return write


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# -- validate ------------------------------------------------------------------

def test_validate_moyal_exit_zero(spec_file, capsys):
    code, report = run_cli(["validate", spec_file("moyal"), "--no-timing"], capsys)
    assert code == 0
    assert report["status"] == "pass"
    titles = [c["title"] for c in report["checks"]]
    assert "star-product-axioms" in titles and "quantum-canonicity" in titles


def test_validate_fault_exit_one_with_associativity_entry(spec_file, capsys):
    code, report = run_cli(["validate", spec_file("fault_assoc"), "--no-timing"], capsys)
    assert code == 1
    assert report["status"] == "fail"
    failed = [
        e["name"]
        for c in report["checks"]
        for e in c["entries"]
        if not e["passed"]
    ]
    assert "associativity" in failed


def test_validate_malformed_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["validate", str(bad)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_validate_bad_expression_exit_two(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "kind": "natural-cotangent",
                "n": 1,
                "order": 2,
                "connection": {"gamma": {"1,1,1": "q7 +"}},
            }
        )
    )
    assert main(["validate", str(path)]) == 2


def test_validate_vector_field_and_symplectic(spec_file, capsys):
    for name in ("vf_shear", "symplectic", "moyal_casimir"):
        code, report = run_cli(["validate", spec_file(name), "--no-timing"], capsys)
        assert code == 0, name
        assert report["status"] == "pass"


# -- derive ---------------------------------------------------------------------

def test_derive_natural_q(spec_file, capsys):
    code, report = run_cli(["derive", spec_file("natural_q"), "--no-timing"], capsys)
    assert code == 0
    counts = report["morphism"]["term_counts"]
    assert counts[1] == 0 and counts[3] == 0  # parity kills odd orders
    assert counts[2] > 0 and counts[4] > 0
    assert report["checks"][0]["title"] == "intertwining"
    assert report["checks"][0]["passed"]


# Moyal past the n = 1, order-4 demo: two pairs and a Casimir, and the
# highest order the derivative-order guard admits
@pytest.mark.parametrize("name", ["moyal_n2_casimir_o6", "moyal_o12"])
def test_moyal_beyond_the_demo_passes_every_command(name, spec_file, capsys):
    spec = spec_file(name)
    for command in (["validate"], ["derive"], ["apply", "--f", "q1^2+p1", "--g", "q1*p1^2-p1"]):
        code, report = run_cli([command[0], spec, "--no-timing"] + command[1:], capsys)
        assert code == 0 and report is not None, command


def test_derive_moyal_all_zero(spec_file, capsys):
    code, report = run_cli(["derive", spec_file("moyal"), "--no-timing"], capsys)
    assert code == 0
    assert report["morphism"]["term_counts"][1:] == [0, 0, 0, 0]


def test_derive_symplectic_order2(spec_file, capsys):
    code, report = run_cli(["derive", spec_file("symplectic"), "--no-timing"], capsys)
    assert code == 0
    assert len(report["morphism"]["term_counts"]) == 3
    assert report["morphism"]["term_counts"][2] > 0


def test_derive_order_flag(spec_file, capsys):
    code, report = run_cli(
        ["derive", spec_file("natural_q"), "--order", "2", "--no-timing"], capsys
    )
    assert code == 0
    assert len(report["morphism"]["term_counts"]) == 3


# -- verify-tables ----------------------------------------------------------------

def test_verify_tables_natural(spec_file, capsys):
    code, report = run_cli(
        ["verify-tables", spec_file("natural_q"), "--no-timing"], capsys
    )
    assert code == 0
    names = {c["name"]: c["match"] for c in report["comparisons"]}
    assert names["order-2"]
    assert names.get("order-4-permutations")


def test_verify_tables_natural_n2(spec_file, capsys):
    code, report = run_cli(
        ["verify-tables", spec_file("natural_n2"), "--no-timing"], capsys
    )
    assert code == 0


def test_verify_tables_symplectic(spec_file, capsys):
    code, report = run_cli(
        ["verify-tables", spec_file("symplectic"), "--no-timing"], capsys
    )
    assert code == 0
    names = {c["name"]: c["match"] for c in report["comparisons"]}
    assert names["order-2"] and names["coordinate-commutators"]


def test_verify_tables_fault_reports_term_diff(spec_file, capsys):
    code, report = run_cli(
        ["verify-tables", spec_file("fault_table"), "--no-timing"], capsys
    )
    assert code == 1
    order2 = [c for c in report["comparisons"] if c["name"] == "order-2"][0]
    assert not order2["match"]
    assert order2["diff"], "term-level diff must list the offending term"
    assert order2["diff"][0]["derivative"] == [0, 2]


def test_verify_tables_wrong_kind_exit_two(spec_file, capsys):
    assert main(["verify-tables", spec_file("moyal")]) == 2


# -- unusable input ----------------------------------------------------------------

MOYAL = FIXTURES["moyal"]
NATURAL = FIXTURES["natural_q"]
PRODUCT_FAULT = FIXTURES["fault_assoc"]["fault"]
TABLE_FAULT = FIXTURES["fault_table"]["fault"]
NESTED = "(" * 5000 + "q1" + ")" * 5000


@pytest.mark.parametrize(
    "command, spec, flags",
    [
        ("verify-tables", dict(NATURAL, order=1), []),
        ("verify-tables", dict(NATURAL, order="4"), []),
        ("validate", dict(MOYAL, fault=[PRODUCT_FAULT]), []),
        ("validate", dict(MOYAL, fault="product"), []),
        ("validate", dict(MOYAL, fault=dict(PRODUCT_FAULT, left="ab")), []),
        ("validate", dict(MOYAL, fault=dict(PRODUCT_FAULT, coefficient="x")), []),
        ("verify-tables", dict(FIXTURES["fault_table"], fault={"target": "table", "derivative": [0, 9, 1]}), []),
        ("validate", dict(MOYAL, max_degree="3"), []),
        ("validate", MOYAL, ["--max-degree", "-1"]),
        ("validate", dict(NATURAL, connection="q1"), []),
        ("derive", NATURAL, ["--order", "9"]),
        ("verify-tables", dict(FIXTURES["symplectic"], order=5), []),
        ("validate", dict(MOYAL, order=True), []),
        ("validate", dict(MOYAL, n=True), []),
        ("validate", dict(MOYAL, casimir=True), []),
        ("validate", dict(MOYAL, max_degree=True), []),
        ("validate", dict(MOYAL, fault=dict(PRODUCT_FAULT, order=True)), []),
        ("validate", dict(MOYAL, fault=dict(PRODUCT_FAULT, left=[True, 0])), []),
        ("validate", dict(NATURAL, connection={"gamma": {"1,1,1": 3}}), []),
        ("validate", dict(FIXTURES["vf_shear"], frame=[[1, 0], [0, 1]]), []),
        ("verify-tables", dict(FIXTURES["symplectic"], gamma_tilde={"1,1,1": 2}), []),
        ("validate", dict(MOYAL, order=13), []),
        ("validate", dict(FIXTURES["vf_shear"], order=13), []),
        ("verify-tables", dict(FIXTURES["fault_table"], fault=dict(TABLE_FAULT, derivative=[13])), []),
        ("validate", dict(MOYAL, fault=dict(PRODUCT_FAULT, target="tabel")), []),
        ("validate", dict(MOYAL, fault=dict(PRODUCT_FAULT, target=["table"])), []),
        ("validate", MOYAL, ["--out", "{tmp}/missing/report.json"]),
        ("validate", MOYAL, ["--out", "{tmp}"]),
        ("validate", dict(FIXTURES["vf_shear"], frame=[["0", "0"], ["0", "1"]]), []),
        ("validate", dict(FIXTURES["natural_n2"], connection={"gamma": {"1,2,2": "q1"}}), []),
        ("validate", dict(MOYAL, order=0), []),
        ("derive", dict(MOYAL, order=0), []),
        ("apply", dict(MOYAL, order=0), ["--f", "q1", "--g", "p1"]),
        ("validate", dict(NATURAL, connection={"gamma": {"1,1,1": NESTED}}), []),
        ("derive", dict(NATURAL, connection={"gamma": {"1,1,1": NESTED}}), []),
        ("apply", dict(NATURAL, connection={"gamma": {"1,1,1": NESTED}}), ["--f", "q1"]),
        ("apply", MOYAL, ["--f", NESTED]),
        ("apply", MOYAL, ["--f", "q1^100000000", "--g", "q1"]),
        ("apply", MOYAL, ["--f", "(q1+p1+1)^100", "--g", "q1"]),
        ("apply", MOYAL, ["--f", "(2/3*q1+5/7)^999", "--g", "q1"]),
    ],
    ids=[
        "natural-order-1", "order-string", "fault-list", "fault-string",
        "fault-left-string", "fault-coefficient", "table-fault-too-long", "max-degree-string",
        "max-degree-flag-negative", "connection-string", "derive-order-above-product",
        "symplectic-order-tables", "order-bool", "n-bool", "casimir-bool", "max-degree-bool",
        "fault-order-bool", "fault-left-bool", "gamma-not-string", "frame-not-string",
        "gamma-tilde-not-string", "moyal-order-above-guard", "vector-field-order-above-guard",
        "table-fault-above-guard", "fault-target-typo", "fault-target-list",
        "out-missing-dir", "out-is-directory", "frame-zero-row", "curved-connection",
        "order-zero-validate", "order-zero-derive", "order-zero-apply",
        "nested-gamma-validate", "nested-gamma-derive", "nested-gamma-apply", "nested-apply-f",
        "huge-exponent-apply-f", "huge-power-apply-f", "coefficient-power-apply-f",
    ],
)
def test_unusable_input_exit_two_without_traceback(command, spec, flags, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    assert main([command, str(path), "--no-timing"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_non_utf8_spec_exit_two_without_traceback(tmp_path, capsys):
    # a JSON dump would write UTF-8, so the bytes are written directly
    path = tmp_path / "spec.json"
    path.write_bytes('{"kind": "moyal", "n": 1, "order": 2, "note": "caf\xe9"}'.encode("latin-1"))
    assert main(["validate", str(path), "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not UTF-8")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_natural_cotangent_order_limit_follows_the_guard(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the product was built before the order was checked")

    monkeypatch.setattr("starq.cli.build_product", refuse)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(NATURAL, order=5)))
    for command, flags in (("validate", []), ("derive", []), ("verify-tables", []),
                           ("apply", ["--f", "q1"])):
        assert main([command, str(path), "--no-timing"] + flags) == 2, command
        err = capsys.readouterr().err
        assert err == "error: natural-cotangent products are limited to order 4\n", command


@pytest.mark.parametrize("command, flags", [("derive", []), ("apply", ["--f", "q1"])])
def test_engine_order_guard_exit_two(command, flags, tmp_path, capsys):
    # order 10 passes the spec check, but the product's operators reach
    # derivative order 14, past the engine's guard: unusable input
    spec = json.loads((DEMOS / "vector_field.json").read_text())
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(spec, order=10)))
    assert main([command, str(path), "--no-timing"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: derivative order 14 exceeds guard 12\n"


DEMOS =Path(__file__).parent.parent / "demos" / "specs"
NATURAL_N2 = json.loads((DEMOS / "natural_cotangent_n2.json").read_text())


@pytest.mark.parametrize(
    "field",
    [{"fault": {"target": "product", "order": 2, "left": "ab"}}, {"max_degree": "3"}],
    ids=["malformed-fault", "max-degree-string"],
)
def test_input_errors_are_reported_before_the_product_is_built(
    field, tmp_path, monkeypatch, capsys
):
    def refuse(*args):
        raise AssertionError("the product was built before the spec was checked")

    monkeypatch.setattr("starq.cli.natural_cotangent_product", refuse)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(NATURAL_N2, **field)))
    for command, flags in (("validate", []), ("derive", []), ("verify-tables", []),
                           ("apply", ["--f", "q1"])):
        assert main([command, str(path), "--no-timing"] + flags) == 2, command
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_tables_applies_product_fault(tmp_path, capsys):
    # left != right breaks the parity axiom, so the coordinates are not canonical
    fault = dict(PRODUCT_FAULT, left=[1, 0], right=[0, 1])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(NATURAL, fault=fault)))
    assert main(["verify-tables", str(path), "--no-timing"]) == 1
    assert "coordinates are not quantum canonical" in capsys.readouterr().err


ORDER0_FAULT = dict(PRODUCT_FAULT, order=0, left=[1, 0], right=[0, 1], coefficient="1/3")


def test_order0_product_fault_fails_canonicity_without_traceback(tmp_path, capsys):
    # C_0 + (1/3) d_q (x) d_p is not symmetric: q * p - p * q = 1/3 at
    # order 0, so there is no deformed bracket to divide out
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(MOYAL, fault=ORDER0_FAULT)))
    code, report = run_cli(["validate", str(path), "--no-timing"], capsys)
    assert code == 1
    canonicity = report["checks"][1]
    assert canonicity["title"] == "quantum-canonicity" and not canonicity["passed"]
    assert canonicity["entries"] == [
        {"name": "pair-0-1", "passed": False, "detail": "order-0 commutator 1/3 is nonzero"}
    ]
    for command, flags, message in (
        ("derive", [], "coordinates are not quantum canonical: pair-0-1"),
        ("apply", ["--f", "q1"], "coordinates are not quantum canonical: pair-0-1"),
        ("apply", ["--f", "q1", "--g", "p1"], "order-0 commutator 1/3 is nonzero"),
    ):
        assert main([command, str(path), "--no-timing"] + flags) == 1, command
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("order", [2, 3])
def test_unsolvable_product_fault_names_the_order_without_traceback(order, tmp_path, capsys):
    # (1/3) d_q^2 (x) d_p keeps the coordinate brackets, but its symmetric
    # part gives F^p = (1/6) d_q^2 at this order, and no T has
    # [T, q] = 0 with [T, p] = (1/6) d_q^2
    fault = dict(PRODUCT_FAULT, order=order, left=[2, 0], right=[0, 1], coefficient="1/3")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(MOYAL, fault=fault)))
    for command, flags in (("derive", []), ("apply", ["--f", "q1", "--g", "p1"])):
        assert main([command, str(path), "--no-timing"] + flags) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: order {order}: no solution for coordinate index 0\n"


# -- mutated demo specs --------------------------------------------------------------

N1_DEMOS = {
    stem: json.loads((DEMOS / f"{stem}.json").read_text())
    for stem in ("moyal", "natural_cotangent", "symplectic_truncated", "vector_field")
}
DELETE = object()
MUTANTS = (DELETE, None, True, -1, "4", 2.5, [], {}, 13)
REQUIRED = {"kind", "n", "frame"}  # "frame" only occurs in the vector-field spec


def _key_paths(node, path=()):
    """The path of every field and nested entry below `node`."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from _key_paths(child, path + (key,))


def _must_be_unusable(path, old, new) -> bool:
    """Mutations that no spec field tolerates: exit 2 for every command."""
    if new is DELETE:
        return len(path) == 1 and path[0] in REQUIRED
    if path == ("kind",) or (path == ("order",) and new == 13):
        return True
    if path[-1] == "a":  # a rational: a string or a JSON number
        return isinstance(new, bool) or not isinstance(new, (str, int, float))
    # a JSON type change (bool is not int), or a negative count
    return type(old) is not type(new) or (isinstance(new, int) and new < 0)


MUTATIONS = [
    (stem, path, new)
    for stem, spec in sorted(N1_DEMOS.items())
    for path in _key_paths(spec)
    for new in MUTANTS
    # n = 13 is a usable but large phase space (d = 26): slow, not malformed
    if not (path == ("n",) and new == 13)
]


# derandomized, so that every CI run tries the same mutations
@settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutation=st.sampled_from(MUTATIONS))
def test_mutated_demo_specs_keep_the_exit_code_contract(mutation, tmp_path):
    stem, path, new = mutation
    spec = copy.deepcopy(N1_DEMOS[stem])
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    spec_path, out = tmp_path / "spec.json", tmp_path / "report.json"
    spec_path.write_text(json.dumps(spec))
    unusable = _must_be_unusable(path, old, new)
    for command, flags in (("validate", []), ("derive", []), ("verify-tables", []),
                           ("apply", ["--f", "q1", "--g", "p1"])):
        argv = [command, str(spec_path), "--max-degree", "1", "--no-timing", "--out", str(out)]
        code = main(argv + flags)
        assert code in (0, 1, 2), command
        if unusable:
            assert code == 2, command


# -- product faults at every position ----------------------------------------------

UNIT_EXPONENTS = ([0, 0], [1, 0], [0, 1])


@pytest.mark.parametrize("stem", sorted(N1_DEMOS))
def test_product_faults_at_every_position_keep_the_exit_code_contract(stem, tmp_path, capsys):
    # a fault 1 (x) 1, 1 (x) d, d (x) 1 or d (x) d at every order: the
    # constant terms among them leave a right-hand side that kills no
    # constants, which derive and apply must report as a failed check
    spec = N1_DEMOS[stem]
    path = tmp_path / "spec.json"
    for order in range(spec.get("order", 2) + 1):
        for left, right in itertools.product(UNIT_EXPONENTS, repeat=2):
            fault = {"target": "product", "order": order, "left": left, "right": right}
            path.write_text(json.dumps(dict(spec, fault=fault)))
            for command, flags in (("validate", []), ("derive", []), ("verify-tables", []),
                                   ("apply", ["--f", "q1", "--g", "p1"])):
                code = main([command, str(path), "--no-timing"] + flags)
                where = (order, left, right, command)
                assert code in (0, 1, 2), where
                err = capsys.readouterr().err
                assert err == "" or err.startswith("error: ") and err.count("\n") == 1, where


CONSTANT_FAULT = dict(PRODUCT_FAULT, order=1, left=[0, 0], right=[0, 0])


def test_constant_product_fault_exits_one_without_traceback(tmp_path):
    # C_1 + 1 (x) 1 keeps the coordinate brackets, but F^q at order 1 then
    # has a constant term, and no T with T(1) = T(q) = 0 has [T, q] = F^q
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(MOYAL, fault=CONSTANT_FAULT)))
    for argv in (["derive", str(path)], ["apply", str(path), "--f", "q1", "--g", "p1"]):
        code, out, err = _run_in_fresh_process(argv + ["--no-timing"])
        assert (code, out) == (1, ""), argv
        assert err == "error: order 1: operator for coordinate 0 does not kill constants\n"


def test_zero_flags_are_honoured(spec_file, capsys):
    code, report = run_cli(
        ["derive", spec_file("natural_q"), "--order", "0", "--max-degree", "0", "--no-timing"],
        capsys,
    )
    assert code == 0
    assert report["morphism"]["order"] == 0
    assert len(report["morphism"]["term_counts"]) == 1
    assert report["checks"][0]["params"]["max_degree"] == "0"


# -- apply -------------------------------------------------------------------------

def test_apply_coordinate_pair(spec_file, capsys):
    code, report = run_cli(
        ["apply", spec_file("moyal"), "--f", "q1", "--g", "p1", "--no-timing"], capsys
    )
    assert code == 0
    star = report["result"]["star"]
    assert star[0] == [{"exps": [1, 1], "im": "0", "re": "1"}]
    assert star[1] == [{"exps": [0, 0], "im": "1/2", "re": "0"}]
    assert star[2] == []
    bracket = report["result"]["bracket"]
    assert bracket[0] == [{"exps": [0, 0], "im": "0", "re": "1"}]


def test_apply_unit_left_factor(spec_file, capsys):
    code, report = run_cli(
        ["apply", spec_file("natural_q"), "--f", "1", "--g", "q1^2*p1", "--no-timing"],
        capsys,
    )
    assert code == 0
    star = report["result"]["star"]
    assert star[0] == [{"exps": [2, 1], "im": "0", "re": "1"}]
    assert all(coeffs == [] for coeffs in star[1:])


def test_apply_squares(spec_file, capsys):
    code, report = run_cli(
        ["apply", spec_file("moyal"), "--f", "q1^2", "--g", "p1^2", "--no-timing"],
        capsys,
    )
    assert code == 0
    star = report["result"]["star"]
    assert star[1] == [{"exps": [1, 1], "im": "2", "re": "0"}]
    assert star[2] == [{"exps": [0, 0], "im": "0", "re": "-1/2"}]
    assert star[3] == [] and star[4] == []


def test_apply_missing_f_exit_two(spec_file, capsys):
    assert main(["apply", spec_file("moyal")]) == 2


def test_apply_expression_error_exit_two(spec_file, capsys):
    assert main(["apply", spec_file("moyal"), "--f", "q9"]) == 2


# -- report determinism ----------------------------------------------------------------

def test_reports_byte_identical_without_timing(spec_file, tmp_path, capsys):
    spec = spec_file("natural_q")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["derive", spec, "--no-timing", "--out", str(out1)]) == 0
    assert main(["derive", spec, "--no-timing", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


json_strings = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\n\t\r", "caf\u00e9", "\u2028", "\U0001f600",
                     "\ud800", 'k\u00e9y "\\\x07'])
)
json_scalars = st.one_of(
    st.none(), st.booleans(), json_strings,
    st.integers(), st.integers(min_value=-(10 ** 100), max_value=10 ** 100),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({})
@example([])
@example(())
@example(True)
@example(False)
@example(None)
@example(-0.0)
@example("\u00e9")
@example({"": [{}, [], ()], "\u00e9\x01\"\\": {"b": None, "a": [True, False]}})
@example([-(10 ** 99) - 1, 10 ** 100 - 1, float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
def test_report_text_is_json_dumps(value):
    want = json.dumps(value, indent=2, sort_keys=True)
    assert report_text(value) == want
    assert _written(value) == want


def _written(value):
    """The writer report_text selects before Python 3.13, on any version."""
    chunks = []
    cli._write_json(value, "\n", chunks.append)
    return "".join(chunks)


@pytest.mark.parametrize("value", [
    {1, 2}, GaussianRational(1), {"a": [frozenset()]}, [GaussianRational(1, 2)], {"k": {3j}},
])
def test_report_text_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    for write in (report_text, _written):
        with pytest.raises(TypeError):
            write(value)


@pytest.mark.parametrize("spec", sorted(DEMOS.glob("*.json")), ids=lambda path: path.stem)
def test_demo_reports_are_written_as_json_dumps(spec, tmp_path, monkeypatch):
    written = []

    def record(report):
        written.append(report)
        return report_text(report)

    monkeypatch.setattr(cli, "report_text", record)
    commands = [["validate"], ["derive"], ["verify-tables"],
                ["apply", "--f", "q1^2+p1", "--g", "q1*p1^2-p1"]]
    out = tmp_path / "report.json"
    for command in commands:
        code = main([command[0], str(spec), "--out", str(out)] + command[1:])
        if command == ["verify-tables"] and spec.stem in ("moyal", "vector_field"):
            assert code == 2
            continue
        assert code == 0
        assert out.read_text() == json.dumps(written[-1], indent=2, sort_keys=True) + "\n"
    assert len(written) == (3 if spec.stem in ("moyal", "vector_field") else 4)


def _run_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_in_fresh_process(argv):
    proc = subprocess.run([sys.executable, "-m", "starq.cli"] + argv, capture_output=True,
                          text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_per_process_leaves_no_state_between_calls(capsys, monkeypatch):
    # the usage text an argparse error prints is wrapped to the terminal
    # width, so both sides get the same one
    monkeypatch.setenv("COLUMNS", "80")
    assert build_arg_parser() is build_arg_parser()
    spec = str(DEMOS / "moyal.json")
    calls = [
        ["derive", spec, "--order", "2"], ["derive", spec],
        ["apply", spec, "--f", "q1^2", "--g", "q1*p1"], ["apply", spec, "--f", "q1^2"],
        ["validate", spec, "--max-degree", "2"], ["validate", spec],
        ["derive", spec, "--order", "two"], ["derive", spec],
    ]
    fresh = {}
    for argv in calls:
        argv = argv + ["--no-timing"]
        got = _run_in_process(argv, capsys)
        if tuple(argv) not in fresh:
            fresh[tuple(argv)] = _run_in_fresh_process(argv)
        assert got == fresh[tuple(argv)], argv
    assert [code for code, _, _ in fresh.values()] == [0, 0, 0, 0, 0, 0, 2]


def _derive_demo_in_subprocess(hash_seed):
    proc = subprocess.run(
        [sys.executable, "-m", "starq.cli", "derive", str(DEMOS / "natural_cotangent_n2.json"),
         "--no-timing"],
        capture_output=True,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_report_does_not_depend_on_the_hash_seed():
    assert _derive_demo_in_subprocess("0") == _derive_demo_in_subprocess("1")


def test_report_does_not_depend_on_the_index_pool(tmp_path):
    # multi-indices hash by identity: indices made first, in reversed
    # grlex order, must not change any order the report is written in
    exponents = [e for e in itertools.product(range(9), repeat=4) if sum(e) <= 8]
    exponents.sort(key=lambda e: (sum(e), e), reverse=True)
    held = [MultiIndex.from_exponents(e) for e in exponents]
    out = tmp_path / "report.json"
    spec = str(DEMOS / "natural_cotangent_n2.json")
    assert main(["derive", spec, "--no-timing", "--out", str(out)]) == 0
    assert held and out.read_bytes() == _derive_demo_in_subprocess("0")


@pytest.mark.parametrize("spec_name, want", [("moyal", 0), ("fault_assoc", 1)])
def test_closed_stdout_keeps_the_exit_code_without_traceback(spec_file, spec_name, want):
    # a pipe whose reader is gone before the report is written, as with
    # `starq validate ... | head -c 50`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "starq.cli", "validate", spec_file(spec_name), "--no-timing"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == want
    assert proc.stderr == ""


def test_console_script_entry_point(spec_file):
    spec = spec_file("moyal")
    proc = subprocess.run(
        [sys.executable, "-m", "starq.cli", "apply", spec, "--f", "q1", "--g", "p1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["status"] == "pass"
    assert "timing" in report


# -- the engine imports only the standard library ------------------------------------

ENGINE = Path(__file__).parent.parent / "src" / "starq"


def test_engine_imports_only_the_standard_library():
    outside = []
    modules = sorted(ENGINE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
