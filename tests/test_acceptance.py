"""Acceptance criteria, one test per criterion with its runtime budget.

Criteria 01-09 run the claims of `hermlat.claims`, the same table that
`hermlat verify-paper` reports; each claim belongs to exactly one criterion.
Run with -v to get one pass/fail line per criterion.  Budgets are
wall-clock seconds on a single core; every mathematical check is exact.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from hermlat import claims
from hermlat.claims import claim_list
from hermlat.lattice import DEFAULT_NODE_BUDGET

CLAIMS = {cid: (expected, run) for cid, _, expected, run in claim_list(5, DEFAULT_NODE_BUDGET)}

# criterion -> [(seconds, claim ids)]: each group of claims runs within its seconds
CRITERIA = {
    "01_construction_fidelity": [(1, ["construction-aug-matrix", "construction-det-one"])],
    "02_small_moduli_standard": [(10, ["thm-new-n1-standard", "thm-new-n2-standard"])],
    "03_nonstandard_witness_range": [(30, ["thm-new-nonstandard-range"])],
    "04_characteristic_norm_4n": [(10, ["lemma-char-norm-range"])],
    "05_defect_bounds": [
        (300, ["defect-exact-n3"]),
        (300, ["defect-exact-n4"]),
        (300, ["defect-exact-n5-bound", "defect-exact-n5-value"]),
        (60, ["defect-bound-range"]),
    ],
    "06_v3_minimal_vectors": [
        (120, ["thm-smalln-v3-mu24", "thm-smalln-v3-identify", "mu-e8-plus-i4"]),
    ],
    "07_v4_root_structure": [
        (120, ["thm-smalln-v4-dynkin", "thm-smalln-v4-roots", "thm-smalln-v4-identify"]),
    ],
    "08_overlattice_catalog": [
        (
            180,
            [
                "catalog-defect-floor",
                "catalog-mu-gamma12",
                "catalog-mu-gamma8",
                "catalog-gamma4-standard",
            ],
        ),
    ],
    "09_congruence_and_specific_family": [
        (
            60,
            [
                "lemma-rational-congruence",
                "lemma-specific-a-x1",
                "lemma-specific-a-x5",
                "lemma-specific-a-x21",
                "distinguishing-powers",
            ],
        ),
    ],
}


def _check(key):
    # the reports are cached for the whole process; clear them so each
    # criterion times its own enumerations, whatever ran before it
    claims._defect.cache_clear()
    claims._char.cache_clear()
    claims._roots.cache_clear()
    for seconds, ids in CRITERIA[key]:
        t0 = time.monotonic()
        for cid in ids:
            expected, run = CLAIMS[cid]
            assert run() == expected, cid
        assert time.monotonic() - t0 < seconds, ids


# one named test per criterion, so that each keeps its own test id


def test_criterion_01_construction_fidelity():
    _check("01_construction_fidelity")


def test_criterion_02_small_moduli_standard():
    _check("02_small_moduli_standard")


def test_criterion_03_nonstandard_witness_range():
    _check("03_nonstandard_witness_range")


def test_criterion_04_characteristic_norm_4n():
    _check("04_characteristic_norm_4n")


def test_criterion_05_defect_bounds():
    _check("05_defect_bounds")


def test_criterion_06_v3_minimal_vectors():
    _check("06_v3_minimal_vectors")


def test_criterion_07_v4_root_structure():
    _check("07_v4_root_structure")


def test_criterion_08_overlattice_catalog():
    _check("08_overlattice_catalog")


def test_criterion_09_congruence_and_specific_family():
    _check("09_congruence_and_specific_family")


def test_criteria_cover_every_claim():
    ids = [cid for groups in CRITERIA.values() for _, group in groups for cid in group]
    assert sorted(ids) == sorted(cid for cid, *_ in claim_list(5, DEFAULT_NODE_BUDGET))
    assert all(f"test_criterion_{key}" in globals() for key in CRITERIA)


def test_criterion_10_property_suites():
    t0 = time.monotonic()
    suite = Path(__file__).with_name("test_properties.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(suite), "-q", "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert time.monotonic() - t0 < 300


def test_verify_paper_reduces_each_lattice_once():
    # a spy on the Gram sweep and the LLL core during one fresh verify-paper
    # run: no Gram is swept twice and no Gram-Schmidt data is reduced twice
    code = """
import contextlib, io
from hermlat import cli, lattice
sweeps, reductions = [], []
bareiss, lll_core = lattice._bareiss, lattice._lll_core
def sweep(rows):
    sweeps.append(rows)
    return bareiss(rows)
def lll(d, lam):
    reductions.append((d, lam))
    return lll_core(d, lam)
lattice._bareiss, lattice._lll_core = sweep, lll
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify-paper", "--max-n", "5"]) == 0
print(len(sweeps), len(set(sweeps)), len(reductions), len(set(reductions)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(claims.__file__).parents[1])},
    )
    sweeps, distinct_sweeps, reductions, distinct_reductions = map(int, proc.stdout.split())
    assert sweeps == distinct_sweeps and reductions == distinct_reductions
