"""Standing mutation checks: every mutant below must make its tests fail.

For each mutant, `src/starq` is copied to a temporary directory and one
exact text substitution is applied to one of its files.  The mutant's
focused pytest selection then runs with `-x` against the copy, and the
mutant counts as caught only when some test fails (pytest exit code 1).
A substitution whose text no longer occurs exactly once in its file
fails the script, so the list cannot drift from the source unseen.  The
unmutated copy runs every selection first and must pass, so a caught
mutant is caught by its own change.

Run from anywhere, with pytest installed (the script itself is stdlib):

    python tests/mutants.py

It exits 0 when every mutant is caught within the time budget, 1
otherwise.  It is not part of the tier-1 suite: pytest does not collect
it, and CI runs it as a step of its own.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_MUTANTS = 12
BUDGET_S = 90.0

WALK = ["tests/test_products.py::test_entry_multiset_walk_matches_the_combos"]
MIRROR = ["tests/test_products.py::test_mirrored_pairing_needs_no_jet_symmetry"]

# (name, file under src/starq, text, its replacement, pytest selection)
MUTANTS = [
    ("pairing: (-1)^k swap sign dropped", "products.py",
     "_acc_poly(terms, (ri, li), -poly if k % 2 else poly)",
     "_acc_poly(terms, (ri, li), poly)", MIRROR),
    ("pairing: mirror skip removed", "products.py",
     "            if lt > rt:\n                continue\n", "", MIRROR),
    ("pairing: every key taken as self-mirror", "products.py",
     "into = acc if L is R else half", "into = acc if True else half", MIRROR),
    ("walk: per-key sum replaced by last write", "products.py",
     "keyed[key] = keyed[key] + v if key in keyed else v", "keyed[key] = v", WALK),
    ("walk: run division dropped", "products.py",
     "[HALF_I * v / r for r in range(1, order + 1)]",
     "[HALF_I * v for r in range(1, order + 1)]", WALK),
    ("walk: HALF for HALF_I", "products.py",
     "[HALF_I * v / r for r in range(1, order + 1)]",
     "[HALF * v / r for r in range(1, order + 1)]", WALK),
    ("walk: run never reset", "products.py",
     "r = run + 1 if j == last else 1", "r = run + 1", WALK),
    ("coordinate_slots: HALF dropped from the symmetric slots", "operators.py",
     "c = HALF if symmetric else ONE", "c = ONE",
     ["tests/test_operators.py::test_symmetric_coordinate_slots_read_both_slots_of_one_term"]),
    ("solver: weight 1/(2+|J|)", "equivalence.py",
     "GaussianRational(Fraction(1, 1 + j))", "GaussianRational(Fraction(1, 2 + j))",
     ["tests/test_equivalence.py::test_solvers_on_single_direction_family"]),
    ("intertwining: degree-1 pair skip without its coordinate-entry gate", "equivalence.py",
     "fixed = coord_failure is None and all(", "fixed = all(",
     ["tests/test_equivalence.py::test_verify_intertwining_matches_term_scan[T2-bumped]"]),
    ("closed-form plan: multiplicity weight dropped", "equivalence.py",
     "weight if mult == 1 else weight * mult", "weight",
     ["tests/test_equivalence.py::test_order4_multiset_sum_matches_rearrangement_loop"
      "[n2-nontriangular-permutations]"]),
    ("inverse_jacobian: division by the determinant dropped", "geometry.py",
     "scale = ONE / det.constant_term()", "scale = ONE",
     ["tests/test_geometry.py::test_inverse_jacobian_is_the_adjugate_over_the_determinant"]),
]


def _pytest(pkg_parent: Path, selection: list[str]) -> subprocess.CompletedProcess:
    """Run the selection with `-x` against the package copy under pkg_parent."""
    path = os.pathsep.join(p for p in (str(pkg_parent), os.environ.get("PYTHONPATH", "")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )


def _copy(dest: Path) -> Path:
    """A fresh copy of src/starq under dest, without compiled files."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(ROOT / "src" / "starq", dest / "starq",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def main() -> int:
    if len(MUTANTS) > MAX_MUTANTS:
        print(f"{len(MUTANTS)} mutants exceed the limit of {MAX_MUTANTS}")
        return 1
    start = time.perf_counter()
    failed = []
    with tempfile.TemporaryDirectory(prefix="starq-mutants-") as tmp:
        work = Path(tmp) / "pkg"
        clean = _copy(work)
        env = dict(os.environ, PYTHONPATH=str(clean), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import starq; print(starq.__file__)"],
                               env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(clean)):
            print(f"the copy is not the package imported: {where or 'no starq'}")
            return 1
        selections = sorted({node for *_, selection in MUTANTS for node in selection})
        run = _pytest(clean, selections)
        if run.returncode != 0:
            print("the unmutated copy fails its selections:")
            print(run.stdout[-2000:], run.stderr[-2000:])
            return 1
        for name, file, old, new, selection in MUTANTS:
            t0 = time.perf_counter()
            target = _copy(work) / "starq" / file
            text = target.read_text()
            count = text.count(old)
            if count != 1:
                print(f"STALE   {name}: the text occurs {count} times in {file}")
                failed.append(name)
                continue
            target.write_text(text.replace(old, new))
            run = _pytest(work, selection)
            verdict = "caught" if run.returncode == 1 else (
                "MISSED" if run.returncode == 0 else f"ERROR (pytest exit {run.returncode})")
            print(f"{verdict:8}{name} ({time.perf_counter() - t0:.1f} s)")
            if run.returncode != 1:
                failed.append(name)
    elapsed = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants caught in {elapsed:.1f} s"
          f" (budget {BUDGET_S:.0f} s)")
    if elapsed > BUDGET_S:
        print("over the time budget")
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
