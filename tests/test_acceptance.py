"""Acceptance criteria, one test per criterion with its runtime budget.

Run with -v to get one pass/fail line per criterion.  Budgets are wall-clock
seconds on a single core; every mathematical check is exact.
"""

import subprocess
import sys
import time
from pathlib import Path

from hermlat.charvec import (
    char_witness,
    check_orthonormal_certificate,
    defect_certificate_check,
    floor3_multiplier,
    is_characteristic,
    is_standard,
    min_characteristic,
    specific_criterion,
    wa_norm,
    witness_vector,
)
from hermlat.forms import (
    aug_form,
    b_sequence,
    build_form,
    build_form_power,
    form_det,
    rational_congruence_check,
    reduce_form,
    transfer,
)
from hermlat.lattice import canonical_rep, direct_sum, inner, norm
from hermlat.ring import LaurentPoly, sym_power
from hermlat.roots import (
    check_dynkin,
    gamma_gram,
    identify,
    identity_gram,
    root_system,
    v4_root_batches,
)

L1_MATRIX = ((7, 6, 3, 2), (6, 7, 2, 3), (3, 2, 2, 0), (2, 3, 0, 2))


def timed():
    return time.monotonic()


def test_criterion_01_construction_fidelity():
    t0 = timed()
    assert aug_form(build_form_power(1)).gram == L1_MATRIX
    assert form_det(build_form_power(1)) == LaurentPoly.one()
    assert timed() - t0 < 1


def test_criterion_02_small_moduli_standard(vn):
    t0 = timed()
    for n in (1, 2):
        ok, cert = is_standard(vn(n), min_characteristic(vn(n)), root_system(vn(n)).units)
        assert ok
        assert check_orthonormal_certificate(vn(n), cert)
    assert timed() - t0 < 10


def test_criterion_03_nonstandard_witness_range(vn):
    t0 = timed()
    for n in range(3, 31):
        G = vn(n)
        w1 = witness_vector(n, (1,))
        assert norm(G, w1) == 4 * n - 8
        assert is_characteristic(G, w1)
        assert defect_certificate_check(G, w1, 1)
    assert timed() - t0 < 30


def test_criterion_04_characteristic_norm_4n(vn):
    t0 = timed()
    for n in range(1, 31):
        G = vn(n)
        w = char_witness(n)
        assert is_characteristic(G, w)
        assert norm(G, w) == 4 * n
    assert timed() - t0 < 10


def test_criterion_05_defect_bounds(vn):
    exact = {}
    for n in (3, 4, 5):
        t0 = timed()
        exact[n] = min_characteristic(vn(n)).defect
        assert timed() - t0 < 300
        assert n // 3 <= exact[n] < n / 2
    assert exact[3] == 1 and exact[4] == 1
    assert exact[5] in (1, 2)
    assert exact[5] == 1  # the enumerated value, pinned
    t0 = timed()
    for n in range(6, 31):
        G = vn(n)
        a = floor3_multiplier(n)
        w0 = witness_vector(n, a)
        assert norm(G, w0) == wa_norm(n, a) == 4 * n - 8 * (n // 3)
        assert defect_certificate_check(G, w0, n // 3)
    assert timed() - t0 < 60


def test_criterion_06_v3_minimal_vectors(vn):
    t0 = timed()
    rep = min_characteristic(vn(3))
    assert rep.min_norm == 4 and rep.mu == 24
    w = char_witness(3)
    expected = set()
    for i in range(3):
        for mods in ((0,), (1,), (0, 3), (1, 2)):  # e1, e2, e1+e4, e2+e3
            v = list(w)
            for m in mods:
                v[m * 3 + i] -= 2
            expected.add(canonical_rep(v))
    assert set(rep.minimizers) == expected
    assert identify(vn(3)) == "Gamma12"
    assert min_characteristic(direct_sum(gamma_gram(8), identity_gram(4))).mu == 16
    assert timed() - t0 < 120


def test_criterion_07_v4_root_structure(vn):
    t0 = timed()
    G = vn(4)
    b1, b2 = v4_root_batches()
    assert check_dynkin(G, b1, "D", 8)
    assert check_dynkin(G, b2, "D", 8)
    assert all(inner(G, u, v) == 0 for u in b1 for v in b2)
    assert root_system(G).components == (("D", 8, 112), ("D", 8, 112))
    assert timed() - t0 < 120


def test_criterion_08_overlattice_catalog():
    t0 = timed()
    assert [min_characteristic(gamma_gram(4 * m)).defect for m in (1, 2, 3, 4)] == [
        0,
        1,
        1,
        2,
    ]
    assert min_characteristic(gamma_gram(12)).mu == 24
    assert min_characteristic(gamma_gram(8)).mu == 1
    G4 = gamma_gram(4)
    ok, cert = is_standard(G4, min_characteristic(G4), root_system(G4).units)
    assert ok and check_orthonormal_certificate(G4, cert)
    assert timed() - t0 < 180


def test_criterion_09_congruence_and_specific_family():
    t0 = timed()
    for a in (sym_power(1), LaurentPoly.zero(), sym_power(5), sym_power(21)):
        assert rational_congruence_check(a)
    for b in (1, 5, 21):
        a = sym_power(b)
        holds, m, witness_norm = specific_criterion(a)
        assert holds and m == b
        for n in (4 * b + 1, 4 * b + 2):
            G = transfer(reduce_form(build_form(a), n))
            w1 = witness_vector(n, (1,))
            assert norm(G, w1) == witness_norm(n)
            assert defect_certificate_check(G, w1, (4 * n - witness_norm(n)) // 8)
    for k in (1, 2, 3):
        bk = b_sequence(k)
        assert reduce_form(build_form_power(k), bk).is_constant()
        for j in range(1, k):
            G = transfer(reduce_form(build_form_power(j), bk))
            w1 = witness_vector(bk, (1,))
            _, _, witness_norm = specific_criterion(sym_power(b_sequence(j)))
            nw = norm(G, w1)
            assert nw == witness_norm(bk) < 4 * bk
            assert defect_certificate_check(G, w1, (4 * bk - nw) // 8)
    assert timed() - t0 < 60


def test_criterion_10_property_suites():
    t0 = timed()
    suite = Path(__file__).with_name("test_properties.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(suite), "-q", "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert timed() - t0 < 300
