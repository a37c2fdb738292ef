"""Root systems, the reference lattices, and identification by the rank <= 16
classification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    a_gram,
    apply_basis_change,
    d_gram,
    e8_gram,
    frac_det,
    frac_inverse,
    frac_rank,
    gamma_root_count,
    glue_overlattice,
    random_unimodular,
)
from hermlat.charvec import min_characteristic
from hermlat.claims import v4_root_batches
from hermlat.lattice import _bareiss, GramMatrix, direct_sum, enumerate_short, inner, norm
from hermlat.roots import (
    check_dynkin,
    dynkin_edges,
    gamma_gram,
    identify,
    identity_gram,
    root_system,
)


def _root_pairs(G):
    """Norm-2 vectors as +/- pair representatives."""
    return tuple(v for v in enumerate_short(G, 2).pairs if norm(G, v) == 2)


def test_gamma8_is_even_unimodular():
    G = gamma_gram(8)
    assert G.rank == 8 and G.determinant() == 1
    assert not G.is_odd()


def test_gamma4_is_standard_class():
    G = gamma_gram(4)
    assert min_characteristic(G).defect == 0
    assert identify(G, root_system(G)) == "I4"


def test_d8_det_and_roots():
    G = d_gram(8)
    assert G.determinant() == 4
    assert len(_root_pairs(G)) == 56


def test_gamma_parity_alternates():
    # the glue vector has norm m, so parity follows m
    assert gamma_gram(4).is_odd()
    assert not gamma_gram(8).is_odd()
    assert gamma_gram(12).is_odd()
    assert not gamma_gram(16).is_odd()


def test_gamma_det_one():
    for rank in (4, 8, 12, 16, 20):
        G = gamma_gram(rank)
        assert G.determinant() == 1
        assert int(frac_det(G.gram)) == 1
    for bad in (5, 6):
        with pytest.raises(ValueError):
            gamma_gram(bad)


def test_dynkin_edges_conventions():
    assert dynkin_edges("A", 3) == frozenset({frozenset({1, 2}), frozenset({2, 3})})
    d4 = dynkin_edges("D", 4)
    assert frozenset({2, 4}) in d4 and frozenset({2, 3}) in d4 and len(d4) == 3
    e8 = dynkin_edges("E", 8)
    assert frozenset({5, 8}) in e8 and len(e8) == 8 - 1
    assert dynkin_edges("D", 2) == frozenset()
    with pytest.raises(ValueError):
        dynkin_edges("E", 5)


def test_root_counts_match_types():
    assert len(_root_pairs(e8_gram())) == 120
    assert len(_root_pairs(identity_gram(1))) == 0
    assert len(_root_pairs(a_gram(3))) == 6  # 12 roots


def test_gamma_root_counts_vs_oracle():
    for rank in (8, 12, 16):
        got = 2 * len(_root_pairs(gamma_gram(rank)))
        assert got == gamma_root_count(rank)


def test_root_system_i4():
    rs = root_system(identity_gram(4))
    assert rs.components == (("D", 4, 24),)
    assert rs.total_roots == 24 and rs.spanning_rank == 4
    assert len(rs.units) == 4 and rs.core == ()


def test_root_system_e8():
    rs = root_system(e8_gram())
    assert rs.components == (("E", 8, 240),)


def test_root_system_gamma12():
    rs = root_system(gamma_gram(12))
    assert rs.components == (("D", 12, 264),)


def test_root_system_direct_sum_splits():
    rs = root_system(direct_sum(e8_gram(), identity_gram(4)))
    assert rs.components == (("D", 4, 24), ("E", 8, 240))
    assert len(rs.units) == 4 and rs.core == (("E", 8, 240),)
    rs2 = root_system(direct_sum(a_gram(2), a_gram(2)))
    assert rs2.components == (("A", 2, 6), ("A", 2, 6))


def test_root_system_v4(vn):
    rs = root_system(vn(4))
    assert rs.components == (("D", 8, 112), ("D", 8, 112))
    assert rs.spanning_rank == 16
    rs = root_system(vn(3))
    assert rs.components == (("D", 12, 264),)
    assert rs.spanning_rank == 12


summands = st.one_of(
    st.integers(1, 5).map(a_gram),
    st.integers(2, 5).map(d_gram),
    st.just(e8_gram()),
    st.integers(1, 4).map(identity_gram),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(summands, min_size=1, max_size=3).filter(lambda gs: sum(g.rank for g in gs) <= 14),
    st.randoms(use_true_random=False),
)
def test_root_system_of_scrambled_sums(parts, rng):
    G = parts[0]
    for part in parts[1:]:
        G = direct_sum(G, part)
    U = random_unimodular(rng, G.rank, steps=3 * G.rank)
    got = root_system(GramMatrix(apply_basis_change(G.gram, U)))
    want = root_system(G)
    assert got.components == want.components
    assert len(got.units) == len(want.units)
    assert got.core == want.core
    assert got.spanning_rank == want.spanning_rank
    assert got.spanning_rank == frac_rank(_root_pairs(G))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 8),
    st.lists(st.integers(-3, 3), min_size=128, max_size=128),
)
def test_int_rank_matches_fraction_elimination(nrows, ncols, k, coeffs):
    # a product of nrows x k and k x ncols factors has rank <= k
    k = min(k, nrows, ncols)
    a = [coeffs[i * k : (i + 1) * k] for i in range(nrows)]
    b = [coeffs[64 + j * ncols : 64 + (j + 1) * ncols] for j in range(k)]
    rows = [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(ncols)] for i in range(nrows)]
    assert _bareiss(rows)[0] == frac_rank(rows)


def test_int_rank_examples(vn):
    assert _bareiss([])[0] == 0
    assert _bareiss([[0, 0], [0, 0]])[0] == 0
    assert _bareiss([[2, 4, 6], [1, 2, 3], [0, 0, 5]])[0] == 2
    pairs = _root_pairs(vn(4))
    assert _bareiss(pairs)[0] == frac_rank(pairs) == 16


def test_check_dynkin_on_simple_roots():
    for typ, n in (("A", 3), ("D", 5), ("E", 8)):
        G = {"A": a_gram, "D": d_gram}.get(typ, lambda k: e8_gram())(n)
        basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        assert check_dynkin(G, basis, typ, n)


def test_check_dynkin_negative():
    G = identity_gram(3)
    vecs = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    assert not check_dynkin(G, vecs, "A", 3)  # triangle, not a path
    with pytest.raises(ValueError):
        check_dynkin(G, vecs[:2], "A", 3)


def test_check_dynkin_single_root():
    assert check_dynkin(identity_gram(2), [(1, 1)], "A", 1)
    assert not check_dynkin(identity_gram(2), [(1, 0)], "A", 1)


def test_v4_batches(vn):
    G = vn(4)
    b1, b2 = v4_root_batches()
    assert len(b1) == len(b2) == 8
    assert check_dynkin(G, b1, "D", 8)
    assert check_dynkin(G, b2, "D", 8)
    assert all(inner(G, u, v) == 0 for u in b1 for v in b2)
    roots = set(_root_pairs(G))
    from hermlat.lattice import canonical_rep

    for v in b1 + b2:
        assert canonical_rep(v) in roots


def test_identify_examples(vn):
    V3 = vn(3)
    rep = min_characteristic(V3)
    assert V3.is_odd() and V3.determinant() == 1
    assert rep.defect == 1 and rep.mu == 24
    examples = (
        (V3, "Gamma12"),
        (vn(4), "D8^2[(12)]"),
        (identity_gram(12), "I12"),
        (identity_gram(7), "I7"),
        (gamma_gram(12), "Gamma12"),
        (direct_sum(gamma_gram(8), identity_gram(4)), "E8+I4"),
        (gamma_gram(8), "E8"),
    )
    for G, name in examples:
        assert identify(G, root_system(G)) == name
    G = identity_gram(17)
    with pytest.raises(ValueError):
        identify(G, root_system(G))


def test_identify_rejects_non_unimodular():
    for G in (d_gram(8), GramMatrix([[3]])):  # det 4, det 3
        with pytest.raises(ValueError):
            identify(G, root_system(G))
    G = GramMatrix([[0, 1], [1, 0]])  # det -1, indefinite: no root report
    with pytest.raises(ValueError):
        identify(G, root_system(G))


def test_identify_rank16_candidates():
    for G, name in (
        (gamma_gram(16), "Gamma16"),
        (direct_sum(gamma_gram(8), gamma_gram(8)), "E8+E8"),
        (direct_sum(gamma_gram(8), identity_gram(8)), "E8+I8"),
        (direct_sum(gamma_gram(12), identity_gram(4)), "Gamma12+I4"),
        (identity_gram(16), "I16"),
    ):
        assert identify(G, root_system(G)) == name


def _glued(blocks, glue):
    """Overlattice of the direct sum of the simple-root Grams `blocks`; each
    glue vector is given by one fundamental-weight node (0-based) per block."""
    R = blocks[0]
    for G in blocks[1:]:
        R = direct_sum(R, G)
    weights = [frac_inverse(G.gram) for G in blocks]
    vectors = [
        [x for w, node in zip(weights, nodes) for x in w[node]] for nodes in glue
    ]
    return GramMatrix(glue_overlattice(R.gram, vectors))


def _e7():
    edges = dynkin_edges("E", 7)
    return GramMatrix(
        [
            [2 if i == j else (-1 if frozenset((i + 1, j + 1)) in edges else 0) for j in range(7)]
            for i in range(7)
        ]
    )


# Node 1 ends the long arm of E7 (minuscule, norm 3/2); node 4 of A15 is
# omega_4 (norm 3); in D8, node 1 is the vector class v (norm 1) and node 8
# a spinor class s (norm 2).
GLUED = {
    "E7^2[11]": ([_e7(), _e7()], [(0, 0)], 112),
    "A15[4]": ([a_gram(15)], [(3,)], 240),
    "D8^2[(12)]": ([d_gram(8), d_gram(8)], [(7, 0), (0, 7)], 512),
}


@pytest.mark.parametrize("name", sorted(GLUED))
def test_identify_glued_cores(name):
    blocks, glue, mu = GLUED[name]
    G = _glued(blocks, glue)
    rep = min_characteristic(G)
    assert G.determinant() == 1 and G.is_odd()
    assert rep.defect == 1 and rep.mu == mu
    assert identify(G, root_system(G)) == name


def test_identify_glued_core_plus_units():
    blocks, glue, _ = GLUED["E7^2[11]"]
    G = direct_sum(_glued(blocks, glue), identity_gram(2))
    # the roots +/-e1 +/-e2 of the unit summand are not core roots
    assert identify(G, root_system(G)) == "E7^2[11]+I2"
    U = random_unimodular(random.Random(7), G.rank, steps=40)
    H = GramMatrix(apply_basis_change(G.gram, U))
    assert identify(H, root_system(H)) == "E7^2[11]+I2"
