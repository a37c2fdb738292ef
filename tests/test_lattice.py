"""Integer lattices: validation, reduction, exact enumeration."""

import random
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    apply_basis_change,
    brute_force_coset,
    brute_force_short,
    d_gram,
    e8_gram,
    entrywise_gram_error,
    frac_det,
    frac_enumerate_coset,
    frac_enumerate_short,
    frac_gso,
    frac_lll,
    random_unimodular,
)
from hermlat.charvec import (
    char_rep,
    characteristic_defect,
    defect_certificate_check,
    min_characteristic,
)
from hermlat.claims import _floor3_witness
from hermlat.lattice import (
    _coset,
    _rows,
    _solve_mod2,
    Budget,
    BudgetExceeded,
    GramMatrix,
    canonical_rep,
    direct_sum,
    enumerate_coset,
    enumerate_short,
    inner,
    lll_reduce,
    norm,
)
from hermlat.roots import gamma_gram, identity_gram, root_system


def test_gram_validation():
    with pytest.raises(ValueError):
        GramMatrix([[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        GramMatrix([[1, 0], [0]])
    with pytest.raises(ValueError):
        GramMatrix([[True, 0], [0, 1]])


class _Int(int):
    """An int subclass: accepted as a Gram entry, like int itself."""


_BAD_ENTRIES = st.sampled_from([True, False, 1.0, -2.5, "1", None]) | st.integers(-99, 99).map(_Int)


@st.composite
def _gram_inputs(draw):
    """Square symmetric integer lists of rank 0..6 (multi-digit and negative
    entries, sometimes int subclasses) with up to three edits: one entry
    flipped off symmetry, a row made ragged or dropped, or an entry replaced
    by a bool, float, str, None or int-subclass value."""
    r = draw(st.integers(0, 6))
    entry = st.integers(-(10**12), 10**12) | st.integers(-99, 99).map(_Int)
    upper = {(i, j): draw(entry) for i in range(r) for j in range(i, r)}
    rows = [[upper[min(i, j), max(i, j)] for j in range(r)] for i in range(r)]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, max(len(rows[i]) - 1, 0)))
        kind = draw(st.sampled_from(["flip", "ragged", "drop", "entry"]))
        if kind == "flip" and j < len(rows[i]):
            rows[i][j] += draw(st.sampled_from([-2, -1, 1, 2]))
        elif kind == "ragged":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [0]
        elif kind == "drop":
            del rows[i]
        elif j < len(rows[i]):
            rows[i][j] = draw(_BAD_ENTRIES)
    return rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_gram_inputs())
@example([[None, 0], [0]])  # a bad entry in an earlier row than a short one
@example([[1, True], [0, 1, 2]])
@example([[1, 0], [0, 1, 2.0]])  # a long row before its bad entry
@example([[1, 2], ["2", 1]])  # types before symmetry
@example([[_Int(1), 2], [2, _Int(1)]])
@example([[1, 2, 3], [2, 1, 4], [3, 5, 1]])
def test_gram_validation_matches_the_entrywise_scan(rows):
    # the row-wise checks accept and reject as the per-entry scan does, with the
    # same message, naming the same first asymmetric (i, j)
    want = entrywise_gram_error(rows)
    if want is None:
        assert GramMatrix(rows).gram == tuple(map(tuple, rows))
    else:
        with pytest.raises(ValueError) as exc:
            GramMatrix(rows)
        assert str(exc.value) == want


def test_determinant_and_minors():
    G = GramMatrix([[2, 1], [1, 1]])
    assert G.determinant() == 1
    assert G.is_positive_definite()
    assert not GramMatrix([[0, 1], [1, 0]]).is_positive_definite()
    assert not GramMatrix([[-1, 0], [0, 1]]).is_positive_definite()


def test_determinant_matches_fraction_elimination():
    for G in (gamma_gram(12), d_gram(8), identity_gram(5)):
        assert G.determinant() == int(frac_det(G.gram))
    assert d_gram(8).determinant() == 4


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 7), st.lists(st.integers(-2, 2), min_size=28, max_size=28))
def test_one_sweep_matches_fraction_elimination(r, coeffs):
    # small entries make zero pivots, swaps and singular corners common
    upper = iter(coeffs)
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            rows[i][j] = rows[j][i] = next(upper)
    G = GramMatrix(rows)
    minors = [int(frac_det([row[:k] for row in rows[:k]])) for k in range(1, r + 1)]
    assert G.determinant() == minors[-1]
    assert G.is_positive_definite() == all(m > 0 for m in minors)


def _oracle_gso(gram):
    """The integral Gram-Schmidt data (d, lam) from the Fraction oracle's
    (mu, B): d[i+1] = B_0 ... B_i and lam[i][j] = d[j+1] mu_ij for j < i,
    zero on and above the diagonal."""
    mu, B = frac_gso(gram)
    d = [1]
    for b in B:
        d.append(d[-1] * b)
    r = len(B)
    lam = [[d[j + 1] * mu[i][j] if j < i else 0 for j in range(r)] for i in range(r)]
    return tuple(d), _rows(lam)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 6),
    st.integers(1, 7),
    st.lists(st.integers(-3, 3), min_size=42, max_size=42),
    st.integers(-2, 2),
)
@example(3, 2, [1] * 42, 0)  # B^T B of a rank-1 B: semidefinite and singular
@example(2, 2, [1, 0, 0, 1] + [0] * 38, 0)  # the identity: definite
@example(2, 2, [1, 0, 0, 1] + [0] * 38, -1)  # the zero matrix
@example(3, 3, [1, 1, 0, 0, 1, 0, 0, 0, 1] + [0] * 33, -1)  # indefinite, zero leading pivot
def test_definiteness_from_the_sweep_matches_the_gso(r, k, entries, shift):
    # B^T B + shift I with B of size k x r: definite when B has full column
    # rank and shift >= 0, semidefinite when k < r and shift = 0, and
    # indefinite or negative for many negative shifts
    B = [entries[i * r : (i + 1) * r] for i in range(k)]
    rows = [
        [sum(B[l][i] * B[l][j] for l in range(k)) + (shift if i == j else 0) for j in range(r)]
        for i in range(r)
    ]
    G = GramMatrix(rows)
    gso = G._swept()[2]
    if all(frac_det([row[:m] for row in rows[:m]]) > 0 for m in range(1, r + 1)):
        assert gso == _oracle_gso(rows)
    else:
        assert gso is None
    assert G.is_positive_definite() == (gso is not None)


def test_structure_report(vn):
    G1 = vn(1)
    assert G1.rank == 4 and G1.determinant() == 1
    assert G1.is_positive_definite() and G1.is_odd()

    G3 = vn(3)
    assert G3.rank == 12 and G3.determinant() == 1
    assert G3.is_positive_definite() and G3.is_odd()

    small = GramMatrix([[2, 1], [1, 1]])
    assert small.determinant() == 1 and small.is_positive_definite()

    # positive definite but not unimodular
    two = GramMatrix([[2, 0], [0, 2]])
    assert two.is_positive_definite() and two.determinant() == 4


def test_inner_norm(vn):
    for n in (1, 2, 3, 5):
        G = vn(n)
        e3 = tuple(1 if i == 2 * n else 0 for i in range(4 * n))
        assert norm(G, e3) == 2
    w = (0,) * 6 + (1,) * 6
    assert norm(vn(3), w) == 12
    assert inner(identity_gram(2), (1, 0), (0, 1)) == 0
    with pytest.raises(ValueError):
        norm(identity_gram(2), (1, 0, 0))
    # a wrong-length u is caught as well as a wrong-length v
    for u, v in (((1, 0, 0), (1, 0)), ((1,), (1, 0)), ((1, 0), (1,))):
        with pytest.raises(ValueError, match="vector length must match rank"):
            inner(identity_gram(2), u, v)


def test_direct_sum():
    assert direct_sum(identity_gram(4), identity_gram(4)).gram == identity_gram(8).gram
    S = direct_sum(gamma_gram(8), identity_gram(4))
    assert S.rank == 12 and S.determinant() == 1
    D = direct_sum(d_gram(8), d_gram(8))
    assert D.rank == 16 and D.determinant() == 16


def test_lll_identity():
    G2, U = lll_reduce(identity_gram(4))
    assert sorted(G2.diagonal()) == [1, 1, 1, 1]
    assert G2.determinant() == 1


def test_lll_contract(vn):
    G = vn(3)
    G2, U = lll_reduce(G)
    r = G.rank
    # U^T G U = G' and |det U| = 1
    for i in range(r):
        col_i = [U[k][i] for k in range(r)]
        for j in range(r):
            col_j = [U[k][j] for k in range(r)]
            assert inner(G, col_i, col_j) == G2.gram[i][j]
    assert abs(frac_det(U)) == 1
    assert G2.determinant() == G.determinant()


def test_lll_gamma12_reaches_minimum():
    G2, _ = lll_reduce(gamma_gram(12))
    assert min(G2.diagonal()) == 2


def test_enumerate_short_examples():
    res = enumerate_short(identity_gram(2), 1)
    assert set(res.pairs) == {(1, 0), (0, 1)}
    e8 = gamma_gram(8)
    assert len(enumerate_short(e8, 2).pairs) == 120
    assert len(enumerate_short(d_gram(8), 2).pairs) == 56


def test_enumerate_short_vs_brute_force(vn):
    for G in (vn(1), GramMatrix([[2, 1], [1, 1]]), d_gram(4)):
        for bound in (1, 2, 4, 7):
            got = set(enumerate_short(G, bound).pairs)
            assert got == brute_force_short(G.gram, bound)


def test_enumerate_short_invariants(vn):
    G = vn(2)
    res = enumerate_short(G, 4)
    seen = set()
    for v in res.pairs:
        assert 0 < norm(G, v) <= 4
        assert canonical_rep(v) == v
        assert v not in seen
        seen.add(v)
    assert list(res.pairs) == sorted(res.pairs)
    with pytest.raises(ValueError):
        enumerate_short(G, 0)


def test_enumerate_coset_examples(vn):
    got = enumerate_coset(identity_gram(4), (1, 1, 1, 1), 4)
    assert len(got.pairs) == 8
    assert all(norm(identity_gram(4), v) == 4 for v in got.pairs)

    e8 = gamma_gram(8)
    z = enumerate_coset(e8, (0,) * 8, 0)
    assert z.pairs == ((0,) * 8,)

    from hermlat.charvec import char_rep

    V3 = vn(3)
    res = enumerate_coset(V3, char_rep(V3), 4)
    assert len(res.pairs) == 12


def test_enumerate_coset_vs_brute_force():
    G = GramMatrix([[2, 1, 0], [1, 2, 1], [0, 1, 3]])
    for c in ((0, 0, 0), (1, 0, 1), (1, 1, 1)):
        for bound in (0, 3, 8, 12):
            got = set(enumerate_coset(G, c, bound).pairs)
            assert got == brute_force_coset(G.gram, c, bound)


def test_coset_zero_membership():
    G = identity_gram(3)
    assert (0, 0, 0) in enumerate_coset(G, (0, 0, 0), 5).pairs
    assert (0, 0, 0) in enumerate_coset(G, (2, 0, -4), 5).pairs
    assert all(any(v) for v in enumerate_coset(G, (1, 0, 0), 5).pairs)


def test_unit_pair_count(vn):
    assert len(enumerate_short(identity_gram(12), 1).pairs) == 12
    assert len(enumerate_short(gamma_gram(12), 1).pairs) == 0
    assert len(enumerate_short(vn(1), 1).pairs) == 4


def test_budget_exceeded(vn):
    with pytest.raises(BudgetExceeded):
        enumerate_short(vn(5), 8, Budget(50))
    try:
        enumerate_short(vn(5), 8, Budget(50))
    except BudgetExceeded as exc:
        assert exc.nodes >= 50 and exc.budget == 50


def _nodes(search, *args):
    """The nodes that one call search(*args, budget) spends from a fresh Budget."""
    budget = Budget()
    search(*args, budget)
    return budget.used


# (n, bound-2 short-vector nodes, minimal characteristic norm, coset nodes there)
NODE_COUNTS = ((3, 739, 4, 87), (4, 1961, 8, 2086), (5, 3222, 12, 37656))


@pytest.mark.parametrize("n, short, min_norm, coset", NODE_COUNTS)
def test_node_counts(vn, n, short, min_norm, coset):
    """Node counts are deterministic, so they pin the sign-halved trees."""
    G = vn(n)
    assert _nodes(enumerate_short, G, 2) == short
    assert _nodes(enumerate_coset, G, char_rep(G), min_norm) == coset


def test_min_characteristic_budget_covers_every_pass(vn):
    G, c = vn(4), char_rep(vn(4))
    # rank 16: bound 0 is empty, and bound 8 is listed in the same pass
    # that found the first minimizer
    total = _nodes(enumerate_coset, G, c, 0) + _nodes(enumerate_coset, G, c, 8)
    assert total == 2 + 2086
    _assert_visits_exactly(lambda b: min_characteristic(G, b), total)


# (lattice, minimal characteristic norm, defect, nodes of characteristic_defect):
# the empty passes plus the first pass up to its first leaf
DEFECT_NODES = (
    ("V1", 4, 0, 4),
    ("V2", 8, 0, 9),
    ("V3", 4, 1, 12),
    ("V4", 8, 1, 69),
    ("V5", 12, 1, 158),
    ("V6", 8, 2, 488),
    ("V7", 12, 2, 1025),
    ("V8", 16, 2, 22967),
    ("V9", 12, 3, 52969),
    ("V10", 16, 3, 117058),
    ("Gamma4", 4, 0, 4),
    ("Gamma8", 0, 1, 8),
    ("Gamma12", 4, 1, 12),
    ("Gamma16", 0, 2, 16),
)
# nodes of min_characteristic: the empty passes, then the pass at min_norm run
# to its end
LISTING_NODES = {"V3": 87, "V4": 2088, "V5": 37772, "V6": 8447}


@pytest.mark.parametrize("name, min_norm, defect, nodes", DEFECT_NODES)
def test_defect_route_node_counts(vn, name, min_norm, defect, nodes):
    """The defect route's node counts are deterministic too.  From V3 on the
    defect is floor(n/3), the bound the closed-form witness gives, so that
    witness is minimal there."""
    G = _oracle_lattice(name, vn)
    budget = Budget()
    rep = characteristic_defect(G, budget)
    assert (rep.min_norm, rep.defect, budget.used) == (min_norm, defect, nodes)
    assert defect_certificate_check(G, rep.witness, rep.defect)
    n = int(name[1:]) if name.startswith("V") else 0
    if 3 <= n <= 6 or name.startswith("Gamma"):
        # one pass per bound: min_characteristic re-walks no node
        c = char_rep(G)
        passes = sum(_nodes(enumerate_coset, G, c, b) for b in range(G.rank % 8, min_norm + 1, 8))
        assert _nodes(min_characteristic, G) == passes == LISTING_NODES.get(name, passes)
    if n >= 3:
        assert rep.defect == n // 3 and _floor3_witness(n)


def _scrambled_v4(vn):
    return GramMatrix(apply_basis_change(vn(4).gram, random_unimodular(random.Random(5), 16, steps=48)))


def test_defect_route_budget_covers_every_pass(vn):
    # V5, rank 20: bound 4 is empty and bound 12 stops at its first leaf;
    # scrambled V4, rank 16: bound 0 is empty and bound 8 stops there
    for G, empty, first in ((vn(5), 4, 12), (_scrambled_v4(vn), 0, 8)):
        c = char_rep(G)
        budget = Budget()
        passed = enumerate_coset(G, c, empty, budget)
        _, leaf_norm = next(_coset(G, c, first, budget))
        assert not passed.pairs and leaf_norm == first
        _assert_visits_exactly(lambda b: characteristic_defect(G, b), budget.used)


def test_one_budget_covers_every_search_it_is_passed_to(vn):
    # the defect search and then the root pass of scrambled V4 spend from one
    # Budget, and BudgetExceeded reports their total
    G = _scrambled_v4(vn)
    total = _nodes(characteristic_defect, G) + _nodes(root_system, G)

    def both(budget):
        characteristic_defect(G, budget)
        root_system(G, budget=budget)

    _assert_visits_exactly(both, total)


def test_canonical_rep():
    assert canonical_rep((-1, 2)) == (1, -2)
    assert canonical_rep((0, -3, 1)) == (0, 3, -1)
    assert canonical_rep((0, 0)) == (0, 0)


# -- the integral core against the Fraction oracle --------------------------------

ORACLE_LATTICES = ("V1", "V2", "V3", "V4", "V5", "E8", "Gamma12")


def _oracle_lattice(name, vn):
    if name == "E8":
        return e8_gram()
    if name.startswith("Gamma"):
        return gamma_gram(int(name[5:]))
    return vn(int(name[1:]))


def _assert_visits_exactly(call, count):
    """call(budget) fits a Budget of count nodes and not of count - 1."""
    call(Budget(count))
    with pytest.raises(BudgetExceeded) as exc:
        call(Budget(count - 1))
    assert (exc.value.nodes, exc.value.budget) == (count, count - 1)


def _assert_matches_oracle(G):
    """LLL output, pairs and node counts agree with the Fraction oracle for
    the norm-2 short vectors and for min_characteristic's first coset, the
    Gram-Schmidt data kept by the reduction are those of its output, and the
    coset residue solved mod 2 is the oracle's U^-1 c."""
    G2, U = lll_reduce(G)
    g, Uf, Uinv = frac_lll(G.gram)
    assert (G2.gram, U) == (_rows(g), _rows(Uf))
    assert G._reduced() == (U, *_oracle_gso(G2.gram))

    pairs, nodes = frac_enumerate_short(G.gram, 2)
    budget = Budget()
    res = enumerate_short(G, 2, budget)
    assert (set(res.pairs), budget.used) == (pairs, nodes)
    _assert_visits_exactly(lambda b: enumerate_short(G, 2, b), nodes)

    c, bound = char_rep(G), G.rank % 8 or 8
    assert _solve_mod2(U, c) == tuple(sum(map(mul, row, c)) % 2 for row in Uinv)
    pairs, nodes = frac_enumerate_coset(G.gram, c, bound)
    budget = Budget()
    res = enumerate_coset(G, c, bound, budget)
    assert (set(res.pairs), budget.used) == (pairs, nodes)
    _assert_visits_exactly(lambda b: enumerate_coset(G, c, bound, b), nodes)


@pytest.mark.parametrize("name", ORACLE_LATTICES)
def test_integral_core_matches_fraction_oracle(name, vn):
    _assert_matches_oracle(_oracle_lattice(name, vn))


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.sampled_from(("V3", "V4", "E8", "Gamma12")), st.randoms(use_true_random=False))
def test_integral_core_matches_oracle_on_scrambled_bases(vn, name, rng):
    G = _oracle_lattice(name, vn)
    U = random_unimodular(rng, G.rank, steps=3 * G.rank)
    _assert_matches_oracle(GramMatrix(apply_basis_change(G.gram, U)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.randoms(use_true_random=False), st.data())
def test_solve_mod2_solves_unimodular_systems(r, rng, data):
    U = random_unimodular(rng, r, steps=3 * r)
    c = data.draw(st.lists(st.integers(-9, 9), min_size=r, max_size=r))
    x = _solve_mod2(U, c)
    assert set(x) <= {0, 1} and len(x) == r
    assert all((sum(map(mul, row, x)) - ci) % 2 == 0 for row, ci in zip(U, c))


@pytest.mark.parametrize(
    "rows", [[[0]], [[2, 1], [0, 1]], [[1, 1], [1, 1]], [[1, 0, 1], [0, 1, 1], [1, 1, 0]]]
)
def test_solve_mod2_rejects_singular_mod_2(rows):
    with pytest.raises(ValueError):
        _solve_mod2(rows, [1] * len(rows))


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [1, 0]],
        [[-1, 0], [0, 1]],
        [[1, 2], [2, 1]],
        [[2, 1, 0], [1, 2, 0], [0, 0, 0]],
        [[2, -1, 0], [-1, 2, -1], [0, -1, -5]],
    ],
)
def test_not_positive_definite_raises(rows):
    G = GramMatrix(rows)
    r = G.rank
    for call in (
        lambda: G._reduced(),
        lambda: lll_reduce(G),
        lambda: enumerate_short(G, 1),
        lambda: enumerate_coset(G, [1] * r, 4),
    ):
        with pytest.raises(ValueError):
            call()
