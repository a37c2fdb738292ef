"""Laurent ring arithmetic and its reduction to the cyclic group ring."""

from fractions import Fraction

import pytest

from hermlat.charvec import wa_norm, witness_vector
from hermlat.forms import build_form, reduce_form, transfer
from hermlat.ring import LaurentPoly, format_laurent, parse_laurent, sym_power

x = LaurentPoly.monomial(1)
xinv = LaurentPoly.monomial(-1)
t = x + xinv


def test_mul_t_squared():
    assert t * t == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_one_plus_t_plus_t_squared():
    p = LaurentPoly.one() + t + t * t
    assert p == LaurentPoly({0: 3, 1: 1, -1: 1, 2: 1, -2: 1})


def test_additive_inverse_is_empty():
    p = LaurentPoly({3: 2, -1: 5})
    assert p + (-p) == LaurentPoly.zero()
    assert not (p + (-p)).support()


def test_zero_coefficients_dropped():
    assert LaurentPoly({5: 0, 1: 2}) == LaurentPoly({1: 2})


def test_coefficients_must_be_integers():
    # bool is an int subclass, but True is no coefficient and no exponent:
    # accepted, it would serialize as "True" or fail to load back
    for bad in (Fraction(1, 2), Fraction(2, 1), 0.5, True, False):
        with pytest.raises(ValueError):
            LaurentPoly({0: bad})
        with pytest.raises(ValueError):
            LaurentPoly({bad: 3})
        # nor of a reduction: its transfer refuses it
        with pytest.raises(ValueError, match="gram entries must be integers"):
            transfer((((bad, 0),),))


def test_ints_do_not_mix_with_ring_elements():
    for mixed in (
        lambda: x + 1,
        lambda: 1 * x,
        lambda: 1 - x,
        lambda: x.reduce(3) + 1,
    ):
        with pytest.raises(TypeError):
            mixed()


def test_conj():
    assert x.conj() == xinv
    sym = LaurentPoly({2: 1, -2: 1})
    assert sym.conj() == sym
    assert LaurentPoly({0: 3, 1: 2}).conj() == LaurentPoly({0: 3, -1: 2})


def test_self_conjugate_predicate():
    assert t.is_self_conjugate()
    assert not (x + LaurentPoly.one()).is_self_conjugate()
    assert LaurentPoly.zero().is_self_conjugate()


def test_aug():
    p = LaurentPoly({0: 3, 1: 1, -1: 1, 2: 1, -2: 1})
    assert p.aug() == 7
    assert LaurentPoly.zero().aug() == 0
    assert sym_power(5).aug() == 2


def test_pi():
    # pi, the projection onto the identity component, is the coefficient of x^0
    p = LaurentPoly({0: 3, 1: 1, -1: 1, 2: 1, -2: 1})
    assert p.coeff(0) == 3
    assert x.coeff(0) == 0
    assert p.reduce(2)[0] == 5


def test_reduce_coeffs():
    p = LaurentPoly({0: 3, 1: 1, -1: 1, 2: 1, -2: 1})
    assert p.reduce(2) == (5, 2)
    assert p.reduce(1) == (7,)
    for n in (1, 2, 3, 5):
        assert LaurentPoly.monomial(n).reduce(n) == tuple([1] + [0] * (n - 1))
    assert all(type(c) is int for c in p.reduce(5))


def lift(c) -> LaurentPoly:
    """The representative sum_j c_j x^j, j = 0..n-1, of a reduction."""
    return LaurentPoly(dict(enumerate(c)))


def cyclic_conj(c):
    """The involution x^j -> x^(n-j) on a reduction, written out per index."""
    n = len(c)
    return tuple(c[(-j) % n] for j in range(n))


def test_reduce_is_ring_hom():
    # the reduction of a sum or product depends only on the reductions of
    # its operands, and it keeps the augmentation and the involution
    p = LaurentPoly({0: 2, 3: -1, -4: 5})
    q = LaurentPoly({1: 1, -2: 7})
    n = 5
    for op in (LaurentPoly.__add__, LaurentPoly.__mul__):
        assert op(p, q).reduce(n) == op(lift(p.reduce(n)), lift(q.reduce(n))).reduce(n)
    pn, one = p.reduce(n), LaurentPoly.one().reduce(n)
    assert sum(pn) == p.aug()
    assert cyclic_conj(pn) == p.conj().reduce(n)
    # the transfer is symmetric exactly when the mirror is that involution
    transfer(((one, pn), (p.conj().reduce(n), one)))
    with pytest.raises(ValueError, match=r"asymmetric at"):
        transfer(((one, pn), (pn, one)))


def test_norm_element_absorbs():
    # N * r = aug(r) * N in the cyclic ring, N = 1 + x + x^2 at n = 3
    r = LaurentPoly({0: 1, 1: 1, -4: 3})
    N = LaurentPoly.one() + x + x * x
    assert (N * r).reduce(3) == (r.aug(),) * 3 == (5, 5, 5)


def test_cyclic_conj_fixed_pointwise_at_n2():
    # at n = 2, x^-1 = x: every entry is self-conjugate, so (5, 2) may sit
    # on the diagonal of a reduction; at n = 3, (5, 2, 0) may not
    assert cyclic_conj((5, 2)) == (5, 2)
    assert transfer((((5, 2),),)).gram == ((5, 2), (2, 5))
    assert cyclic_conj((5, 2, 0)) != (5, 2, 0)
    with pytest.raises(ValueError, match=r"asymmetric at"):
        transfer((((5, 2, 0),),))


MODULUS_TAKERS = {
    "reduce": lambda n: LaurentPoly({1: 1}).reduce(n),
    "reduce_form": lambda n: reduce_form(build_form(sym_power(1)), n),
    "witness_vector": lambda n: witness_vector(n, ()),
    "wa_norm": lambda n: wa_norm(n, (1,)),
}


@pytest.mark.parametrize("take", MODULUS_TAKERS.values(), ids=MODULUS_TAKERS)
def test_every_modulus_is_an_int(take):
    # a modulus is an int, as a coefficient is: not True, though True == 1,
    # and not 2.0, though 2.0 == 2
    for bad in (True, False, 2.0, 1.0, "2", None):
        with pytest.raises(ValueError, match="modulus must be an integer"):
            take(bad)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            take(bad)


def test_sym_power():
    assert sym_power(3) == LaurentPoly({3: 1, -3: 1})
    assert sym_power(0) == LaurentPoly({0: 2})
    assert sym_power(1) == t


def test_parse_format_round_trip():
    for s, poly in [
        ("0", LaurentPoly.zero()),
        ("1", LaurentPoly.one()),
        ("x^1 + x^-1", t),
        ("2 + x^5 + x^-5", LaurentPoly({0: 2, 5: 1, -5: 1})),
        ("-3*x^2", LaurentPoly({2: -3})),
    ]:
        assert parse_laurent(s) == poly
        assert parse_laurent(format_laurent(poly)) == poly


def test_parse_rejects_garbage():
    for bad in ("x^^2", "2x", "x^", "+", "x^1.5"):
        with pytest.raises(ValueError):
            parse_laurent(bad)


def test_laurent_json_round_trip():
    p = LaurentPoly({0: 3, 7: -2, -4: 1})
    assert LaurentPoly.from_json_dict(p.to_json_dict()) == p


@pytest.mark.parametrize("cls", [LaurentPoly])
@pytest.mark.parametrize("data", [[1, 2], 3, "x", None])
def test_json_loaders_reject_non_objects(cls, data):
    with pytest.raises(ValueError):
        cls.from_json_dict(data)


@pytest.mark.parametrize("key", ["1_0", " 2 ", "01", "-0", "+1", "\u0663"])
def test_laurent_json_rejects_non_canonical_exponent_keys(key):
    # an exponent is named only by its decimal text str(e); int() would read
    # these keys as 10, 2, 1, 0, 1 and 3 and merge "01" with "1"
    with pytest.raises(ValueError, match="bad exponent key"):
        LaurentPoly.from_json_dict({key: 1, "1": 1})
