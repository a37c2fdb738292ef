"""Randomized law checking, >= 500 cases per suite.

Suites: ring homomorphism/involution laws, the mod-8 congruence for
characteristic vectors, mu multiplicativity with defect additivity on direct
sums, transfer symmetry/equivariance, the cyclic product `transfer_image`
against the dense one, enumeration against brute force on small random
lattices, the standardness criterion defect = 0 iff a full set of unit
vectors exists, the Gram matrices of vector lists over Z against their
entrywise pairings, and the rational congruence check against the direct
congruence of the rank-4 form.
"""

import random
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (
    apply_basis_change,
    brute_force_coset,
    brute_force_short,
    random_unimodular,
    sesq_eval,
)
from hermlat import forms
from hermlat.charvec import char_rep, is_characteristic, min_characteristic
from hermlat.forms import (
    HermitianForm,
    build_form,
    rational_congruence_check,
    reduce_form,
    transfer,
    transfer_image,
)
from hermlat.lattice import (
    GramMatrix,
    _gram_of,
    _image,
    direct_sum,
    enumerate_coset,
    enumerate_short,
    inner,
    norm,
)
from hermlat.ring import LaurentPoly, format_laurent, parse_laurent
from hermlat.roots import gamma_gram, identity_gram

SUITE = settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=5
).map(LaurentPoly)


# -- suite 1: ring laws ----------------------------------------------------------


@SUITE
@given(laurents, laurents, st.integers(1, 7))
def test_ring_laws(p, q, n):
    assert (p + q).conj() == p.conj() + q.conj()
    assert (p * q).conj() == p.conj() * q.conj()
    assert p.conj().conj() == p
    assert (p * q).aug() == p.aug() * q.aug()
    assert p.conj().coeff(0) == p.coeff(0)
    # reduction mod x^n - 1 is a ring map: a sum or product reduces to what
    # the reductions of its operands, lifted back to x^0..x^(n-1), give
    lift = lambda c: LaurentPoly(dict(enumerate(c)))
    pn, qn = lift(p.reduce(n)), lift(q.reduce(n))
    assert (p + q).reduce(n) == (pn + qn).reduce(n)
    assert (p * q).reduce(n) == (pn * qn).reduce(n)
    assert sum(p.reduce(n)) == p.aug()
    # and the involution: coefficient j of conj(p) is that of x^((-j) mod n)
    assert tuple(p.reduce(n)[-j % n] for j in range(n)) == p.conj().reduce(n)
    assert parse_laurent(format_laurent(p)) == p


# -- pools for the lattice suites ------------------------------------------------

POOL = {
    "I1": identity_gram(1),
    "I2": identity_gram(2),
    "I3": identity_gram(3),
    "I4": identity_gram(4),
    "Gamma4": gamma_gram(4),
    "Gamma8": gamma_gram(8),
    "Gamma12": gamma_gram(12),
}
POOL_NAMES = sorted(POOL)

_single_cache = {}
_pair_cache = {}


def _report(name):
    if name not in _single_cache:
        _single_cache[name] = min_characteristic(POOL[name])
    return _single_cache[name]


def _pair_report(na, nb):
    if (na, nb) not in _pair_cache:
        _pair_cache[(na, nb)] = min_characteristic(direct_sum(POOL[na], POOL[nb]))
    return _pair_cache[(na, nb)]


# -- suite 2: mod-8 congruence ----------------------------------------------------


@SUITE
@given(st.sampled_from(POOL_NAMES), st.integers(0, 2**32 - 1))
def test_char_norm_mod8(name, seed):
    G = POOL[name]
    u = random_unimodular(random.Random(seed), G.rank)
    H = GramMatrix(apply_basis_change(G.gram, u))
    if H.determinant() % 2 == 0:
        raise AssertionError("basis change must preserve unimodularity")
    c = char_rep(H)
    assert is_characteristic(H, c)
    assert (norm(H, c) - H.rank) % 8 == 0


# -- suite 3: mu multiplies, defect adds ------------------------------------------


@SUITE
@given(st.sampled_from(POOL_NAMES), st.sampled_from(POOL_NAMES))
def test_mu_defect_on_sums(na, nb):
    ra, rb = _report(na), _report(nb)
    rab = _pair_report(na, nb)
    assert rab.mu == ra.mu * rb.mu
    assert rab.defect == ra.defect + rb.defect
    assert rab.min_norm == ra.min_norm + rb.min_norm


# -- suite 4: transfer symmetry and equivariance ----------------------------------

sym_laurents = st.builds(
    lambda const, side: LaurentPoly(
        {0: const, **{e: c for e, c in side.items() if c}, **{-e: c for e, c in side.items() if c}}
    ),
    st.integers(-3, 3),
    st.dictionaries(st.integers(1, 4), st.integers(-3, 3), max_size=3),
)


@SUITE
@given(sym_laurents, st.integers(1, 6))
def test_transfer_symmetry_equivariance(a, n):
    F = build_form(a)
    G = transfer(reduce_form(F, n))
    assert G.rank == 4 * n
    g = G.gram
    for i in range(4):
        for i2 in range(4):
            for j in range(n):
                for j2 in range(n):
                    # symmetry comes from hermitian symmetry of the source
                    assert g[i * n + j][i2 * n + j2] == g[i2 * n + j2][i * n + j]
                    # multiplication by x is an isometry: shift both blocks
                    assert (
                        g[i * n + j][i2 * n + j2]
                        == g[i * n + (j + 1) % n][i2 * n + (j2 + 1) % n]
                    )
    # at n = 1 the transfer is the augmentation, every entry at x = 1
    assert transfer(reduce_form(F, 1)).gram == tuple(tuple(e.aug() for e in row) for row in F.rows())


@st.composite
def cyclic_forms_and_vectors(draw):
    """(Gn, v) at a modulus n in 1..40: Gn is the rank-4 form at a
    self-conjugate multiplier, or a hermitian form of rank 1..3 whose
    off-diagonal entries are not self-conjugate (so a product that rotates
    the wrong way shows), with exponents up to +-2n so that reducing wraps;
    v has length rank * n and some blocks all zero."""
    n = draw(st.integers(1, 40))

    def laurent():
        return LaurentPoly(
            draw(st.dictionaries(st.integers(-2 * n, 2 * n), st.integers(-3, 3), max_size=4))
        )

    def self_conjugate():
        side = draw(st.dictionaries(st.integers(1, 2 * n), st.integers(-3, 3), max_size=3))
        const = draw(st.integers(-3, 3))
        return LaurentPoly({0: const, **side, **{-e: c for e, c in side.items()}})

    if draw(st.booleans()):
        F = build_form(self_conjugate())
    else:
        m = draw(st.integers(1, 3))
        rows = [[None] * m for _ in range(m)]
        for i in range(m):
            rows[i][i] = self_conjugate()
            for j in range(i + 1, m):
                rows[i][j] = laurent()
                rows[j][i] = rows[i][j].conj()
        F = HermitianForm(rows)
    v = []
    for _ in range(F.size):
        v += [0] * n if draw(st.booleans()) else draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return reduce_form(F, n), tuple(v)


@SUITE
@given(cyclic_forms_and_vectors())
def test_transfer_image_matches_the_dense_product(case):
    Gn, v = case
    assert transfer_image(Gn, v) == _image(transfer(Gn), v)
    for bad in (v[:-1], v + (0,)):
        with pytest.raises(ValueError):
            transfer_image(Gn, bad)


# -- suite 5: enumeration equals brute force ---------------------------------------


@st.composite
def small_posdef(draw):
    k = draw(st.integers(1, 4))
    a = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(k)]
    g = [
        [sum(a[l][i] * a[l][j] for l in range(k)) + (1 if i == j else 0) for j in range(k)]
        for i in range(k)
    ]
    return GramMatrix(g)


@SUITE
@given(small_posdef(), st.integers(1, 8), st.data())
def test_enumeration_vs_brute_force(G, bound, data):
    c = tuple(data.draw(st.integers(0, 1)) for _ in range(G.rank))
    for res, want in (
        (enumerate_short(G, bound), brute_force_short(G.gram, bound)),
        (enumerate_coset(G, c, bound), brute_force_coset(G.gram, c, bound)),
    ):
        assert set(res.pairs) == want
        # the tree's norms, and one solution per +/- pair
        assert res.norms == tuple(norm(G, v) for v in res.pairs)
        assert len(set(res.pairs)) == len(res.pairs)


# -- suite 6: defect 0 iff a full unit set -----------------------------------------


@SUITE
@given(st.sampled_from(POOL_NAMES + ["V1", "V2", "V3"]), st.integers(0, 2**32 - 1))
def test_standard_iff_full_unit_set(name, seed):
    if name.startswith("V"):
        from hermlat.forms import build_form_power

        G = transfer(reduce_form(build_form_power(1), int(name[1:])))
    else:
        G = POOL[name]
    u = random_unimodular(random.Random(seed), G.rank, steps=4)
    H = GramMatrix(apply_basis_change(G.gram, u))
    rep = min_characteristic(H)
    units = len(enumerate_short(H, 1).pairs)
    assert (rep.defect == 0) == (units == H.rank)
    # basis change is an isometry, so the invariants agree with the original
    base = min_characteristic(G)
    assert (rep.min_norm, rep.defect, rep.mu) == (base.min_norm, base.defect, base.mu)


# -- suite 7: Gram matrices of vector lists ------------------------------------------


@st.composite
def symmetric_and_vectors(draw):
    """(G, vectors): a symmetric integer G of rank 1..5, definite or not, and
    0..5 vectors of its rank."""
    r = draw(st.integers(1, 5))
    g = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            g[i][j] = g[j][i] = draw(st.integers(-4, 4))
    vec = st.lists(st.integers(-3, 3), min_size=r, max_size=r).map(tuple)
    return GramMatrix(g), draw(st.lists(vec, max_size=5))


@SUITE
@given(symmetric_and_vectors())
def test_gram_of_matches_the_entrywise_pairing(case):
    G, vectors = case
    g, r = G.gram, G.rank
    # inner skips the rows where u is zero: add the zero vector and copies
    # with every other coordinate zeroed
    vectors = [*vectors, (0,) * r, *(tuple(c * (i % 2) for i, c in enumerate(v)) for v in vectors)]
    want = tuple(
        tuple(sum(u[i] * g[i][j] * v[j] for i in range(r) for j in range(r)) for v in vectors)
        for u in vectors
    )
    assert _gram_of(G, vectors) == want
    # inner is the same pairing, one entry at a time
    assert tuple(tuple(inner(G, u, v) for v in vectors) for u in vectors) == want
    for bad in ((0,) * (r + 1), (1,) * (r - 1)):
        with pytest.raises(ValueError, match="vector length must match rank"):
            _gram_of(G, [*vectors, bad])
        for args in ((bad, (0,) * r), ((0,) * r, bad)):
            with pytest.raises(ValueError, match="vector length must match rank"):
                inner(G, *args)


# -- suite 8: the rational congruence is its three block identities ----------------


congruence_multipliers = st.builds(
    lambda const, exps: LaurentPoly({0: const, **{e: 1 for e in exps}, **{-e: 1 for e in exps}}),
    st.integers(-2, 2),
    st.sets(st.integers(1, 4), max_size=3),
)
small_laurents = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2), max_size=2).map(LaurentPoly)
# None keeps build_form(a); (i, j, d) adds d at (i, j) and conj(d) at (j, i),
# so d + conj(d) on the diagonal, and the form stays hermitian
form_edits = st.one_of(
    st.none(),
    st.just("swap"),
    st.tuples(st.integers(0, 3), st.integers(0, 3), small_laurents),
)


@SUITE
@given(congruence_multipliers, form_edits)
@example(LaurentPoly({0: 1, 1: 1, -1: 1}), "swap")
def test_rational_congruence_check_matches_the_direct_congruence(a, edit):
    # the check reads C = 2I, X = B and 2A - B conj(B)^T = I off whatever
    # build_form returns; the direct congruence Q F conj(Q)^T = diag(2, 2, 8, 8)
    # with Q = 2P must agree on every form, the basis swap included, which
    # keeps the Schur complement but moves X off B
    F = build_form(a)
    if edit == "swap":
        p = (0, 1, 3, 2)
        F = HermitianForm([[F.rows()[i][j] for j in p] for i in p])
    elif edit is not None:
        i, j, d = edit
        rows = [list(row) for row in F.rows()]
        rows[i][j] += d
        rows[j][i] += d.conj()
        F = HermitianForm(rows)
    one, zero, two = LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.const(2)
    b11, b12 = -(one + a), -a
    Q = [[two, zero, b11, b12], [zero, two, b12, b11], [zero, zero, two, zero], [zero, zero, zero, two]]
    want = [[LaurentPoly.const(d if k == l else 0) for l, d in enumerate((2, 2, 8, 8))] for k in range(4)]
    with patch.object(forms, "build_form", return_value=F) as built:
        got = rational_congruence_check(a)
    built.assert_called_once_with(a)
    assert got == ([[sesq_eval(F, u, v) for v in Q] for u in Q] == want)
