"""Named mutants of the package, each with the tests that must kill it.

Each entry of ``MUTANTS`` names a file under ``src/altrings``, an exact
snippet of it, the snippet's replacement and the pytest node ids that must
fail once the replacement is made.  A node id names one test or, without
its ``[...]`` part, every case of a parametrised test, of which one must
fail.  ``test_mutants.py`` checks in tier-1 that every snippet occurs
exactly once in the source, so an edit that moves one is seen at once.

Run from anywhere as a script:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant it copies ``src`` into a temporary directory, makes the
replacement there, runs pytest on the mutant's node ids alone with that
copy first on ``PYTHONPATH``, and reports it killed when every node id
failed.  It exits 1 if any mutant survives, and 2 if a run could not
decide (a node id not found, or pytest stopped early).  Only the standard
library and pytest are used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "altrings"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/altrings
    old: str
    new: str
    kills: tuple  # node ids, relative to the repository root


LIETYPE, FINITE = "tests/test_lietype.py::", "tests/test_finite.py::"
BOUND = LIETYPE + "test_lie_n_space_stopped_at_the_bound_is_the_unstopped_space"
CONSTRUCTOR = "tests/test_algebra.py::test_constructor_matches_the_eager_one"

MUTANTS = (
    # Der and Lie_2 through the Peirce Z/3-grading
    Mutant("row filed under the wrong degree", "lietype.py",
           "            g = degree[lead]\n",
           "            g = (degree[lead] + 1) % 3\n",
           (LIETYPE + "test_graded_spaces_are_the_flat_folds[zorn~1-Q]",
            LIETYPE + "test_lie_n_rows_match_the_frozen_state_step[zorn~1-2-GF(3)]")),
    Mutant("R22 given weight 1", "lietype.py",
           "_WEIGHTS = {(1, 1): 0, (1, 2): 2, (2, 1): 1, (2, 2): 0}\n",
           "_WEIGHTS = {(1, 1): 0, (1, 2): 2, (2, 1): 1, (2, 2): 1}\n",
           (LIETYPE + "test_graded_spaces_are_the_flat_folds[zorn~1-Q]",)),
    Mutant("weight check skipped", "lietype.py",
           "            if any(weights[k] != (weights[a] + weights[b]) % 3 for k, _ in terms):\n",
           "            if False:\n",
           (LIETYPE + "test_no_checked_grading_takes_the_flat_fold",)),
    # id in the Lie-n bound where (n - 1) 1 = 0
    Mutant("id added when p does not divide n - 1", "lietype.py",
           "    if F.characteristic and (n - 1) % F.characteristic == 0:\n",
           "    if F.characteristic:\n",
           (LIETYPE + "test_lie_n_gap_table_over_small_fields[zorn-5]",)),
    Mutant("id added at p | n - 3", "lietype.py",
           "    if F.characteristic and (n - 1) % F.characteristic == 0:\n",
           "    if F.characteristic and (n - 3) % F.characteristic == 0:\n",
           (LIETYPE + "test_lie_n_gap_table_over_small_fields[mat2-3]",
            LIETYPE + "test_lie_n_is_der_plus_t_n_under_the_papers_hypotheses")),
    # the Lie-n bound Lie_2 + T_n and the lazy level walk
    Mutant("T_n built from W_(n+1)", "lietype.py",
           "    Z, W = center(A), nested_commutator_span(A, n)\n",
           "    Z, W = center(A), nested_commutator_span(A, n + 1)\n",
           (BOUND + "[nil4-3-Q]",)),
    Mutant("Lie_(n-1) in place of Lie_2", "lietype.py",
           "    known = lie_n_derivation_space(A, 2).space",
           "    known = lie_n_derivation_space(A, n - 1).space",
           (BOUND + "[mat2-4-GF(2)]",)),
    Mutant("null_space stops one rank early", "linalg.py",
           "    final = width - known.dim\n",
           "    final = width - known.dim - 1\n",
           (BOUND + "[nil4-3-Q]", BOUND + "[mat2+tri2-4-GF(3)]")),
    Mutant("late-binding generator chain in _walk_levels", "lietype.py",
           "        states = _kept_steps(echelon(F, width), states, step)\n",
           "        acc = echelon(F, width)\n"
           "        states = (t for s in states if acc.add(s) for t in step(s))\n",
           (LIETYPE + "test_walk_levels_matches_the_eager_walk",)),
    # the int constructor
    Mutant("repeated triples not summed", "algebra.py",
           "            given[at] = given[at] + c if at in given else c\n",
           "            given[at] = c\n",
           (CONSTRUCTOR,)),
    Mutant("unit check without its u_den scale", "algebra.py",
           "        scale = u_den * self._den\n",
           "        scale = self._den\n",
           (CONSTRUCTOR,)),
    Mutant("idempotent check without its e_den scale", "algebra.py",
           "        scale = e_den * self._den\n",
           "        scale = self._den\n",
           (CONSTRUCTOR,)),
    Mutant("GF(p) sums not reduced mod p", "algebra.py",
           "            flat[at] = n % p if p else n\n",
           "            flat[at] = n\n",
           (CONSTRUCTOR,)),
    # the ray scan
    Mutant("ray scan value bound one bit short", "peirce.py",
           "    b = V.bit_length()\n",
           "    b = V.bit_length() - 1\n",
           ("tests/test_peirce.py::test_packed_ray_test_reaches_its_value_bound",)),
    Mutant("ray scan lane one bit short", "peirce.py",
           "    lw = -(-w // 8) * 8  # one lane",
           "    lw = -(-w // 8) * 8 - 1  # one lane",
           ("tests/test_peirce.py::test_prime_reports_are_frozen[zorn/GF(3)]",
            "tests/test_peirce.py::test_condition_4_witness_is_the_first_central_zero_divisor[3]")),
    # the class walk of the finite scans and the search
    Mutant("passed keyed by the class of p_k alone", "finite.py",
           "            if state in seen:\n",
           "            if any(state[0] == s[0] for s in seen):\n",
           (FINITE + "test_passed_states_are_keyed_by_both_classes",)),
    Mutant("one passed set shared by all depths", "finite.py",
           "    passed = [set() for _ in range(n)]\n",
           "    passed = [set()] * n\n",
           (FINITE + "test_passed_states_are_kept_per_depth",)),
    Mutant("classes built from span(e_0) instead of the centre", "finite.py",
           "            Z = center(self.algebra)\n",
           "            Z = type(center(self.algebra)).from_ints(\n"
           "                self.algebra.field, self.algebra.dim,\n"
           "                [[1] + [0] * (self.algebra.dim - 1)])\n",
           (FINITE + "test_class_table_matches_reference_centre",
            FINITE + "test_passed_states_are_keyed_by_both_classes")),
    Mutant("leaf re-check passes without walking", "finite.py",
           "            lie_ok=_first_violation(ring, table, n) is None,\n",
           "            lie_ok=True,\n",
           (FINITE + "test_search_rechecks_summaries_on_value_lists",)),
    Mutant("P_(n+1) taken for P_n", "finite.py",
           "    P = nested_value_set(ring, n, budget)  # S^n <= budget once filed\n",
           "    P = nested_value_set(ring, n + 1, budget)  # S^n <= budget once filed\n",
           (FINITE + "test_search_orbits_match_reference",)),
    Mutant("P_2 taken for P_n", "finite.py",
           "    P = nested_value_set(ring, n, budget)  # S^n <= budget once filed\n",
           "    P = nested_value_set(ring, 2, budget)  # S^n <= budget once filed\n",
           (FINITE + "test_search_completes_off_the_papers_hypotheses",)),
)


def occurrences(mutant: Mutant, src: Path = SRC) -> int:
    """How often the mutant's old snippet occurs in its file."""
    return (src / mutant.file).read_text().count(mutant.old)


def survivors(mutant: Mutant, timeout: float = 900) -> list[str]:
    """The node ids of the mutant that pass with it applied to a copy of
    src, in order; [] means the mutant is killed.  Raises RuntimeError
    when the run decides nothing: the snippet is not there exactly once,
    or pytest ends other than with passes and failures."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC.parent, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "altrings" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise RuntimeError(f"{mutant.name}: the snippet occurs {text.count(mutant.old)} times")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.kills],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if run.returncode not in (0, 1):
        raise RuntimeError(f"{mutant.name}: pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return [k for k in mutant.kills
            if not any(f == k or f.startswith(k + "[") for f in failed)]


def main(argv: list[str]) -> int:
    names = {m.name for m in MUTANTS}
    unknown = [a for a in argv if a not in names]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    status = 0
    for mutant in MUTANTS:
        if argv and mutant.name not in argv:
            continue
        start = time.perf_counter()
        try:
            left = survivors(mutant)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"UNDECIDED {mutant.name}: {exc}")
            status = max(status, 2)
            continue
        took = time.perf_counter() - start
        if left:
            print(f"SURVIVED  {mutant.name} ({took:.1f} s): {', '.join(left)} passed")
            status = max(status, 1)
        else:
            print(f"killed    {mutant.name} ({took:.1f} s)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
