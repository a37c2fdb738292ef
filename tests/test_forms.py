"""The rank-4 hermitian family, reduction, and the scalar-restriction map."""

from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    frac_det,
    laplace_det,
    module_basis_vector,
    sesq_eval,
    symbolic_family_det,
    sylvester_matrix,
)
from hermlat import forms
from hermlat.forms import (
    _resultant,
    HermitianForm,
    b_sequence,
    build_form,
    build_form_power,
    flatten_vector,
    form_det,
    power_exceeds,
    rational_congruence_check,
    reduce_form,
    transfer,
    transfer_determinant,
)
from hermlat.lattice import direct_sum
from hermlat.ring import LaurentPoly, parse_laurent, sym_power

t = sym_power(1)
L = build_form(t)
L1_MATRIX = ((7, 6, 3, 2), (6, 7, 2, 3), (3, 2, 2, 0), (2, 3, 0, 2))


def test_entry_11_of_family():
    assert L.rows()[0][0] == LaurentPoly({0: 3, 1: 1, -1: 1, 2: 1, -2: 1})


def test_family_at_zero():
    F = build_form(LaurentPoly.zero())
    rows = [
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (1, 0, 2, 0),
        (0, 1, 0, 2),
    ]
    for i in range(4):
        for j in range(4):
            assert F.rows()[i][j] == LaurentPoly.const(rows[i][j])


def test_family_rejects_non_self_conjugate():
    with pytest.raises(ValueError):
        build_form(LaurentPoly.monomial(1))


def test_hermitian_validation():
    bad = [[LaurentPoly.monomial(1)]]
    with pytest.raises(ValueError):
        HermitianForm(bad)
    with pytest.raises(ValueError):
        HermitianForm([])


def test_form_validation_message_order():
    # the upper entry's own test comes first, then its mirror: a lower entry
    # that is an int, a reduction or the entry itself unconjugated fails the
    # mirror test
    one, x = LaurentPoly.one(), LaurentPoly.monomial(1)
    for lower in (1, x.conj().reduce(3), x):
        with pytest.raises(ValueError, match=r"not hermitian at \(0,1\)"):
            HermitianForm([[one, x], [lower, one]])
    # an int or a reduction as an upper entry fails its own test
    for upper in (1, x.reduce(3)):
        with pytest.raises(ValueError, match="entries must be LaurentPoly"):
            HermitianForm([[one, upper], [1, one]])


def test_form_types_never_compare_equal():
    # a form never equals its reduction, which is a plain matrix of tuples
    G = HermitianForm([[LaurentPoly.const(2)]])
    Gn = reduce_form(G, 1)
    assert Gn == (((2,),),)
    assert G != Gn and Gn != G
    assert G == HermitianForm([[LaurentPoly.const(2)]])
    assert G != HermitianForm([[LaurentPoly.const(3)]])


def test_b_sequence():
    assert [b_sequence(k) for k in (1, 2, 3, 4)] == [1, 5, 21, 85]
    assert all(b_sequence(k + 1) == 4 * b_sequence(k) + 1 for k in range(1, 60))
    with pytest.raises(ValueError):
        b_sequence(0)


def test_power_exceeds_matches_the_printed_exponent():
    for digits in range(1, 40):
        for k in range(1, 80):
            assert power_exceeds(k, digits) == (len(str(2 * b_sequence(k))) > digits)


def test_power_family():
    assert build_form_power(1).rows()[0][0] == L.rows()[0][0]
    assert build_form_power(2).rows()[0][0] == build_form(sym_power(5)).rows()[0][0]
    assert build_form_power(3).rows()[3][3] == LaurentPoly.const(2)


def test_det_is_one():
    assert form_det(L) == LaurentPoly.one()
    assert form_det(build_form(LaurentPoly.zero())) == LaurentPoly.one()
    assert form_det(build_form(sym_power(2))) == LaurentPoly.one()


def test_det_symbolic_oracle():
    # determinant over Z[a] collapses to 1, independently of any substitution
    assert symbolic_family_det() == [1]


def is_constant(R) -> bool:
    """True when every entry of a reduction lies in Z*1, i.e. the form is
    extended from an integer matrix."""
    return not any(any(e[1:]) for row in R for e in row)


def test_aug_form():
    # the augmentation, every entry evaluated at x = 1, is the transfer at n = 1
    def aug(F):
        return transfer(reduce_form(F, 1)).gram

    assert aug(L) == L1_MATRIX
    F0 = build_form(LaurentPoly.zero())
    assert aug(F0) == ((1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 2, 0), (0, 1, 0, 2))
    for k in (1, 2, 3):
        assert aug(build_form_power(k)) == L1_MATRIX


def test_reduce_form():
    R1 = reduce_form(L, 1)
    assert is_constant(R1)
    assert tuple(tuple(R1[i][j][0] for j in range(4)) for i in range(4)) == L1_MATRIX
    assert reduce_form(L, 2)[0][0] == (5, 2)
    for k in (1, 2, 3):
        assert is_constant(reduce_form(build_form_power(k), b_sequence(k)))
    assert not is_constant(reduce_form(build_form_power(2), 3))


def test_sesq_eval_convention():
    # linear in the first slot, conjugate-linear in the second
    e1 = [LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.zero(), LaurentPoly.zero()]
    xe1 = [LaurentPoly.monomial(1), LaurentPoly.zero(), LaurentPoly.zero(), LaurentPoly.zero()]
    assert sesq_eval(L, e1, e1) == L.rows()[0][0]
    assert sesq_eval(L, xe1, xe1) == L.rows()[0][0]
    assert sesq_eval(L, xe1, e1) == LaurentPoly.monomial(1) * L.rows()[0][0]
    assert sesq_eval(L, e1, xe1) == LaurentPoly.monomial(-1) * L.rows()[0][0]


def test_sesq_eval_norm_element_absorption():
    # <N v, e> = N * aug(<v, e>) over Z[C_3], N = 1 + x + x^2
    n = 3
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    N = LaurentPoly({0: 1, 1: 1, 2: 1})
    v = [zero, zero, one, one]
    Nv = [zero, zero, N, N]
    e1 = module_basis_vector(4, 0)
    base = sesq_eval(L, v, e1)
    assert sesq_eval(L, Nv, e1).reduce(n) == (base.aug(),) * n


def test_transfer_matches_sesq_pi():
    # each transfer entry is the identity coefficient of the hermitian
    # pairing, reduced mod x^n - 1
    n = 3
    G = transfer(reduce_form(L, n))
    for i in range(4):
        for j in range(n):
            for i2 in range(4):
                for j2 in range(n):
                    u = module_basis_vector(4, i, j)
                    v = module_basis_vector(4, i2, j2)
                    assert G.gram[i * n + j][i2 * n + j2] == sesq_eval(L, u, v).reduce(n)[0]


def test_transfer_small_n():
    assert transfer(reduce_form(L, 1)).gram == L1_MATRIX
    assert transfer(reduce_form(L, 2)).diagonal() == (5, 5, 5, 5, 2, 2, 2, 2)
    assert transfer(reduce_form(L, 3)).diagonal() == (3,) * 6 + (2,) * 6


def test_transfer_at_constant_form_is_block_identity():
    # constant entries spread to c * I_n blocks
    Rn = reduce_form(build_form_power(2), b_sequence(2))
    G = transfer(Rn)
    n = b_sequence(2)
    assert is_constant(Rn)
    for i in range(4):
        for i2 in range(4):
            for j in range(n):
                for j2 in range(n):
                    want = Rn[i][i2][0] if j == j2 else 0
                    assert G.gram[i * n + j][i2 * n + j2] == want


def test_transfer_rejects_a_non_hermitian_reduction():
    # the Gram of a reduction is symmetric exactly when the reduction is
    # hermitian: x sits above the diagonal and 0 below it
    with pytest.raises(ValueError, match=r"asymmetric at"):
        transfer((((1, 0), (0, 1)), ((0, 0), (1, 0))))


def test_family_reduction_is_a_direct_sum_of_first_power_transfers():
    # with g = gcd(b, n) and m = n / g, the form at a = x^b + x^-b reduced
    # mod x^n - 1 is g copies of the first-power form reduced mod x^m - 1:
    # z^t e_i of copy r goes to x^(r + b t) e_i, so index r*4m + i*m + t of
    # the direct sum is index i*n + (r + b t) mod n of the transfer
    for n in range(1, 13):
        for b in range(1, 3 * n + 2):
            g = gcd(b, n)
            m = n // g
            G = transfer(reduce_form(build_form(sym_power(b)), n)).gram
            V = reduce(direct_sum, [transfer(reduce_form(build_form_power(1), m))] * g)
            perm = [i * n + (r + b * t) % n for r in range(g) for i in range(4) for t in range(m)]
            assert sorted(perm) == list(range(4 * n))
            assert tuple(tuple(G[p][q] for q in perm) for p in perm) == V.gram, (b, n)


def test_flatten_vector():
    n = 3
    v = [LaurentPoly.zero()] * 2 + [LaurentPoly({0: 1, 1: 1, 2: 1})] * 2
    assert flatten_vector([c.reduce(n) for c in v]) == (0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1)
    e2x = module_basis_vector(4, 1, 2)
    assert flatten_vector([c.reduce(n) for c in e2x]) == (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)


def test_rational_congruence():
    for a in (
        t,
        LaurentPoly.zero(),
        sym_power(3),
        sym_power(5),
        sym_power(21),
        parse_laurent("x + x^-1 - 4"),
        parse_laurent("x^2 + 3 + x^-2"),
    ):
        assert rational_congruence_check(a)


def test_rational_congruence_rejects_a_changed_form(monkeypatch):
    # one more on entry (0, 0) keeps the form hermitian but moves
    # Q G conj(Q)^T off diag(2, 2, 8, 8)
    def shifted(a):
        rows = [list(row) for row in build_form(a).rows()]
        rows[0][0] = rows[0][0] + LaurentPoly.one()
        return HermitianForm(rows)

    monkeypatch.setattr(forms, "build_form", shifted)
    for a in (t, LaurentPoly.zero(), sym_power(5)):
        assert not rational_congruence_check(a)


def test_form_json_round_trip():
    data = L.to_json_dict()
    back = HermitianForm.from_json_dict(data)
    assert back.to_json_dict() == data
    with pytest.raises(ValueError):
        HermitianForm.from_json_dict([data])


# -- the ring determinant and the transfer determinant ------------------------

COEFF = st.integers(-3, 3)


@st.composite
def hermitian_laurent_forms(draw, max_m=5):
    """Random HermitianForm, m 1..max_m, exponents -2..2; now and then the
    last row and column repeat the first, which makes it singular."""
    m = draw(st.integers(1, max_m))
    coeffs = lambda k: draw(st.lists(COEFF, min_size=k, max_size=k))
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        c = coeffs(3)
        # c[|k|] at x^k makes the diagonal entry self-conjugate
        rows[i][i] = LaurentPoly({k: c[abs(k)] for k in range(-2, 3)})
        for j in range(i + 1, m):
            rows[i][j] = LaurentPoly(dict(zip(range(-2, 3), coeffs(5))))
            rows[j][i] = rows[i][j].conj()
    if m > 1 and draw(st.booleans()):
        for i in range(m - 1):
            rows[i][m - 1] = rows[i][0]
        rows[m - 1] = rows[0][:]
    return HermitianForm(rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hermitian_laurent_forms(), st.integers(1, 9))
def test_transfer_determinant_matches_fraction_elimination(G, n):
    assert transfer_determinant(G, n) == frac_det(transfer(reduce_form(G, n)).gram)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hermitian_laurent_forms())
def test_ring_det_matches_laplace(G):
    assert form_det(G) == laplace_det(G.rows(), LaurentPoly.one())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hermitian_laurent_forms(max_m=4), st.integers(1, 9))
def test_transfer_matches_sesq_pi_on_random_forms(G, n):
    # entry by entry against the pairing of the basis vectors x^j e_i,
    # reduced mod x^n - 1
    m = G.size
    basis = [module_basis_vector(m, i, j) for i in range(m) for j in range(n)]
    T = transfer(reduce_form(G, n))
    assert T.rank == m * n
    for a, u in enumerate(basis):
        for b, v in enumerate(basis):
            assert T.gram[a][b] == sesq_eval(G, u, v).reduce(n)[0]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


# integer polynomials, lowest degree first, with a nonzero top coefficient
POLY = st.builds(
    lambda low, top: low + [top],
    st.lists(st.integers(-4, 4), max_size=6),
    st.integers(-4, 4).filter(bool),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(POLY, POLY, POLY, st.integers(1, 3), st.integers(1, 3))
@example([1, 2], [3, 0, -2], [1], 1, 1)  # deg A < deg B: the swap
@example([2, 1], [1, 0, 1, 1], [1], 1, 1)  # the swap with both degrees odd
@example([5], [3], [1], 1, 1)  # two constants
@example([2], [1, 0, 1], [1], 1, 1)  # constant A
@example([1, 1, 0, 2], [-3], [1], 1, 1)  # constant B
@example([2, 1], [1, 0, 1], [-1, 1], 1, 1)  # shared factor x - 1
@example([1, -2], [3, 1, -5], [1], 1, 1)  # negative top coefficients
@example([1, 2, 3], [1, 0, 3], [1], 2, 3)  # non-primitive
@example([0, 0, -1], [-1, 0, 0, 1], [1], 1, 1)  # the last step drops two degrees
def test_resultant_matches_sylvester_determinant(a, b, f, ka, kb):
    # f is a factor shared by both (resultant 0 unless constant); ka and kb
    # make the inputs non-primitive
    a = [ka * x for x in _poly_mul(a, f)]
    b = [kb * x for x in _poly_mul(b, f)]
    assert _resultant(a, b) == frac_det(sylvester_matrix(a, b))


def test_resultant_of_zero_and_of_padded_inputs():
    assert _resultant([0], [1, 1]) == _resultant([1, 1], []) == 0
    # zero top coefficients are ignored: Res(x^2 - 1, 3) = 9
    assert _resultant([-1, 0, 1, 0], [3, 0]) == 9


@pytest.mark.parametrize("n", [41, 48])
def test_transfer_determinant_dense_large_modulus(n):
    # a dense self-conjugate entry whose reduction has c_k = c_(n-k) and
    # whose norm has ~30 digits (c_24 = 0 at n = 48, so exponents |k| < n/2
    # reach every nonzero coefficient)
    c = [k * (n - k) % 7 - 2 for k in range(n)]
    h = (n - 1) // 2
    G = HermitianForm([[LaurentPoly({k: c[k % n] for k in range(-h, h + 1)})]])
    assert G.rows()[0][0].reduce(n) == tuple(c)
    det = transfer_determinant(G, n)
    assert det == frac_det(transfer(reduce_form(G, n)).gram)
    assert len(str(abs(det))) > 20


def test_transfer_determinant_examples():
    form = lambda *rows: HermitianForm([[parse_laurent(e) for e in row] for row in rows])
    # n = 1 is the integer determinant itself
    assert transfer_determinant(form(["-1"]), 1) == -1
    assert transfer_determinant(form(["2", "3"], ["3", "2"]), 1) == -5
    # the norm element 1 + x + x^2 = 1 + x + 1/x mod x^3 - 1 has norm 0: its
    # circulant is all ones
    assert transfer_determinant(form(["1 + x + x^-1"]), 3) == 0
    # a hyperbolic plane spreads to n hyperbolic planes
    H = form(["0", "1"], ["1", "0"])
    assert [transfer_determinant(H, n) for n in (1, 2, 3)] == [-1, 1, -1]
    # 3 + x + 1/x at n = 5: prod_k (3 + 2 cos(2 pi k / 5)) = 125
    assert transfer_determinant(form(["3 + x + x^-1"]), 5) == 125
    for n in (1, 2, 3, 7):
        assert transfer_determinant(L, n) == transfer(reduce_form(L, n)).determinant() == 1
