"""Characteristic vectors, defect, standardness certificates, witness family."""

import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_basis_change,
    e8_gram,
    entrywise_is_characteristic,
    entrywise_norm,
    random_unimodular,
)
from hermlat.charvec import (
    char_rep,
    characteristic_defect,
    check_orthonormal_certificate,
    defect_certificate_check,
    is_characteristic,
    is_standard,
    min_characteristic,
    specific_criterion,
    wa_norm,
    witness_vector,
)
from hermlat.forms import build_form_power, reduce_form
from hermlat.lattice import GramMatrix, direct_sum, enumerate_short, norm
from hermlat.claims import _floor3_multiplier, _witness_holds
from hermlat.ring import LaurentPoly, sym_power
from hermlat.roots import gamma_gram, identity_gram, root_system


def _standard(G):
    return is_standard(G, min_characteristic(G), root_system(G).units)


def test_char_rep_examples(vn):
    assert char_rep(identity_gram(4)) == (1, 1, 1, 1)
    assert char_rep(gamma_gram(8)) == (0,) * 8
    for n in (1, 2, 3, 4):
        c = char_rep(vn(n))
        w = witness_vector(n, ())
        assert all((a - b) % 2 == 0 for a, b in zip(c, w))


def test_char_rep_even_determinant_rejected():
    # the shared GF(2) solve raises; char_rep names the lattice condition
    with pytest.raises(ValueError, match="determinant is even; lattice is not unimodular"):
        char_rep(GramMatrix([[2, 0], [0, 2]]))


def test_min_characteristic_rejects_non_unimodular():
    for rows in ([[2]], [[3]], [[2, 1], [1, 2]]):
        for search in (min_characteristic, characteristic_defect):
            with pytest.raises(ValueError):
                search(GramMatrix(rows))


def test_is_characteristic(vn):
    V3 = vn(3)
    w = witness_vector(3, ())
    assert is_characteristic(V3, w)
    w1 = list(w)
    w1[0] -= 2
    assert is_characteristic(V3, w1)
    assert not is_characteristic(identity_gram(2), (1, 0))


def test_min_characteristic_i4():
    rep = min_characteristic(identity_gram(4))
    assert rep.min_norm == 4 and rep.mu == 16 and rep.defect == 0
    assert len(rep.minimizers) == 8


def test_min_characteristic_direct_sum():
    rep = min_characteristic(direct_sum(gamma_gram(8), identity_gram(4)))
    assert rep.mu == 16 and rep.defect == 1


def test_min_characteristic_v3(vn):
    rep = min_characteristic(vn(3))
    assert rep.min_norm == 4 and rep.mu == 24 and rep.defect == 1
    expected = set()
    w = witness_vector(3, ())
    for i in range(3):
        for mods in ((0,), (1,), (0, 3), (1, 2)):
            v = list(w)
            for m in mods:
                v[m * 3 + i] -= 2
            expected.add(tuple(v) if next(c for c in v if c) > 0 else tuple(-c for c in v))
    assert set(rep.minimizers) == expected


def test_mu_counts_zero_vector_once():
    rep = min_characteristic(gamma_gram(8))
    assert rep.min_norm == 0 and rep.mu == 1 and rep.defect == 1
    assert rep.minimizers == ((0,) * 8,)


def test_defect_examples(vn):
    assert min_characteristic(vn(1)).defect == 0
    assert min_characteristic(gamma_gram(16)).defect == 2
    assert min_characteristic(vn(3)).defect == 1


DEFECT_POOL = ("V3", "V4", "Gamma12", "E8+I4", "I1", "I3", "I5", "I8")


def _pool_lattice(name, vn):
    if name.startswith("V"):
        return vn(int(name[1:]))
    if name == "Gamma12":
        return gamma_gram(12)
    if name == "E8+I4":
        return direct_sum(e8_gram(), identity_gram(4))
    return identity_gram(int(name[1:]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(DEFECT_POOL), st.integers(0, 2**32 - 1))
def test_defect_route_matches_the_listing(vn, name, seed):
    # after a basis change the first leaf is one of the listed minimizers,
    # and the route's norm and defect are the listing's
    G = _pool_lattice(name, vn)
    u = random_unimodular(random.Random(seed), G.rank, steps=3 * G.rank)
    H = GramMatrix(apply_basis_change(G.gram, u))
    rep, listed = characteristic_defect(H), min_characteristic(H)
    assert (rep.min_norm, rep.defect) == (listed.min_norm, listed.defect)
    assert rep.witness in listed.minimizers
    assert defect_certificate_check(H, rep.witness, rep.defect)
    assert rep.nodes <= listed.nodes


def test_is_standard_small_n(vn):
    ok, cert = _standard(vn(2))
    assert ok and cert["kind"] == "orthonormal_basis" and len(cert["columns"]) == 8
    assert check_orthonormal_certificate(vn(2), cert)


def test_is_standard_v3_witness(vn):
    ok, cert = _standard(vn(3))
    assert not ok
    assert cert["kind"] == "characteristic_witness"
    assert cert["norm"] == 4 and cert["rank"] == 12
    assert is_characteristic(vn(3), cert["vector"])


def test_is_standard_even_lattice():
    ok, cert = _standard(gamma_gram(8))
    assert not ok and cert["norm"] == 0
    assert cert["vector"] == [0] * 8


def test_is_standard_reuses_the_callers_report(vn):
    # root_system's bound-2 pass lists the norm-1 pairs as a bound-1 pass does
    for G in (vn(1), vn(2), vn(3), gamma_gram(8)):
        assert root_system(G).units == enumerate_short(G, 1).pairs
    # the report decides which certificate is built
    with pytest.raises(AssertionError):
        is_standard(vn(2), min_characteristic(vn(3)), root_system(vn(2)).units)


def test_orthonormal_certificate_checker(vn):
    standard, cert = _standard(vn(1))
    assert standard and cert["kind"] == "orthonormal_basis"
    assert check_orthonormal_certificate(vn(1), cert)
    bad = {"kind": "orthonormal_basis", "columns": [[1, 0, 0, 0]] * 4}
    assert not check_orthonormal_certificate(vn(1), bad)
    assert not check_orthonormal_certificate(vn(1), {"kind": "other"})


def test_orthonormal_certificate_needs_lattice_columns():
    # the halved Hadamard matrix is orthonormal in Q^4 but not in Z^4
    h = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    halved = [[c / 2 for c in col] for col in h]
    assert all(sum(map(mul, u, v)) == (u is v) for u in halved for v in halved)
    unit = [[int(i == j) for j in range(4)] for i in range(4)]
    for cols in (halved, unit[:3] + [[0, 0, 1]], unit[:3] + [[0, 0, 0, "1"]], unit[:3] + [None]):
        cert = {"kind": "orthonormal_basis", "columns": cols}
        assert check_orthonormal_certificate(identity_gram(4), cert) is False


@pytest.mark.parametrize(
    "w",
    [(1.0, 1, 1, 1), (True, True, True, True), "1111", None],
    ids=["float", "bool", "str", "none"],
)
def test_characteristic_checks_need_lattice_vectors(w):
    G = identity_gram(4)
    assert is_characteristic(G, w) is False
    assert defect_certificate_check(G, w, 0) is False


def test_defect_certificate_examples(vn):
    V6 = vn(6)
    w0 = witness_vector(6, _floor3_multiplier(6))
    assert defect_certificate_check(V6, w0, 2)
    assert defect_certificate_check(vn(3), witness_vector(3, (1,)), 1)
    assert not defect_certificate_check(identity_gram(4), (1, 1, 1, 1), 1)
    assert not defect_certificate_check(identity_gram(4), (1, 1, 1), 0)


def _witness_cases(n):
    """(witness, target norm) at modulus n: the norm-element witness, w - 2 e_1
    and the floor(n/3) witness, and copies of each with one coordinate moved
    by +-1 (no longer characteristic) or +-2 (characteristic, another norm)."""
    a3 = _floor3_multiplier(n)
    bases = [
        (witness_vector(n, ()), 4 * n),
        (witness_vector(n, (1,)), 4 * n - 8),
        (witness_vector(n, a3), wa_norm(n, a3)),
    ]
    for w, target in bases:
        yield w, target
        for k in (0, n + n // 2, 2 * n + 1, 4 * n - 1):
            for step in (-2, -1, 1, 2):
                v = list(w)
                v[k] += step
                yield tuple(v), target


def test_witness_checks_match_entrywise_definitions(vn):
    # the Gram checks on vn(n), and the claims' check on the cyclic form it
    # is the transfer of, against the entrywise definitions on vn(n)
    for n in range(3, 31):
        G, Gn = vn(n), reduce_form(build_form_power(1), n)
        r, g = G.rank, G.gram
        for w, target in _witness_cases(n):
            char, nw = entrywise_is_characteristic(g, w), entrywise_norm(g, w)
            assert is_characteristic(G, w) == char
            for d in (0, 1, n // 3, n // 3 + 1):
                assert defect_certificate_check(G, w, d) == (char and nw <= r - 8 * d)
            want = nw == target < r and char and nw <= r - 8 * ((r - target) // 8)
            assert _witness_holds(Gn, w, target) == want
            assert _witness_holds(Gn, w, nw) == (char and nw < r)


def test_char_witness_shape():
    # the norm-element witness N (e_3 + e_4) is the zero multiplier's
    assert witness_vector(3, ()) == (0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        witness_vector(0, ())


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize(
    "call",
    [lambda n: witness_vector(n, (1,)), lambda n: wa_norm(n, (1,))],
    ids=["witness_vector", "wa_norm"],
)
def test_witness_helpers_reject_moduli_below_one(call, n):
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        call(n)


def test_witness_vector_and_fold():
    # a(x) is reduced mod x^n - 1: 1 + 2 x^3 folds to 3 at modulus 3
    assert witness_vector(3, (1, 0, 0, 2)) == (-6, 0, 0) + (0,) * 3 + (1,) * 6
    assert witness_vector(2, (1,)) == (-2, 0, 0, 0, 1, 1, 1, 1)


@pytest.mark.parametrize("a", [(1.5,), (True,), (1, "2")])
def test_witness_helpers_reject_non_integer_coefficients(a):
    for call in (witness_vector, wa_norm):
        with pytest.raises(ValueError, match="coefficient must be an integer"):
            call(4, a)


def test_wa_norm_closed_form(vn):
    # the 4n-8 identity needs n >= 3: below that a^1 and a^2 of the constant
    # multiplier wrap around mod x^n - 1 (checked against direct norms)
    for n in (3, 5, 9, 12):
        assert wa_norm(n, (1,)) == 4 * n - 8
    for n in (1, 2, 3, 5, 9, 12):
        assert wa_norm(n, ()) == 4 * n
    for n in (9, 10, 14):
        assert wa_norm(n, (1, 0, 0, 1, 0, 0, 1)) == 4 * n - 24
    assert wa_norm(1, (1,)) == norm(vn(1), witness_vector(1, (1,)))
    assert wa_norm(2, (1,)) == norm(vn(2), witness_vector(2, (1,)))


def test_wa_norm_matches_direct_eval(vn):
    # the closed form against honest Gram arithmetic, several multipliers
    cases = [(3, (1,)), (4, (1, 2)), (5, (0, 1, 1)), (6, (1, 0, 0, 1)), (2, (1, 1))]
    # these wrap: a is longer than n, and at n = 1, 2 the exponents of a^1, a^2 fold
    cases += [(3, (1, -2, 0, 1, 2)), (1, (1, 2, -1)), (2, (0, 1, -1, 2))]
    for n, a in cases:
        G = vn(n)
        assert norm(G, witness_vector(n, a)) == wa_norm(n, a)
        assert is_characteristic(G, witness_vector(n, a))


def test_floor3_multiplier():
    assert _floor3_multiplier(6) == [1, 0, 0, 1]
    assert _floor3_multiplier(9) == [1, 0, 0, 1, 0, 0, 1]
    assert _floor3_multiplier(2) == [0]


def test_specific_criterion_examples():
    holds, m, fn = specific_criterion(sym_power(1))
    assert holds and m == 1 and fn(5) == 12 and fn(9) == 28
    holds0, _, fn0 = specific_criterion(LaurentPoly.zero())
    assert not holds0 and fn0 is None
    holds1, m1, fn1 = specific_criterion(LaurentPoly({0: 1, 1: 1, -1: 1}))
    assert holds1 and m1 == 1 and fn1(5) == 4 * 5 - 8


def test_specific_criterion_domain():
    _, m, fn = specific_criterion(sym_power(5))
    assert m == 5
    with pytest.raises(ValueError):
        fn(20)
    assert fn(21) == 4 * 21 - 8
    with pytest.raises(ValueError):
        specific_criterion(LaurentPoly.monomial(2))
