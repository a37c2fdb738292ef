"""The reproduction claims, shared by `hermlat verify-paper` and the
acceptance tests.

`claim_list(max_n, budget)` returns one (claim_id, paper_location,
expected, run) tuple per claim; a claim passes when `run()` equals
`expected`, and run is None when the claim's modulus is above max_n.

Every claim about a lattice reads reports computed once per lattice and
budget: `_defect` (the defect, from the search that stops at its first
minimal characteristic vector), `_char` (all minimal characteristic
vectors, for mu and the minimizers) and `_roots` (the root system).  The
lattices are built once as well (`_vn`, `_gamma`), so each is swept and
LLL-reduced once.  Standardness and names are pure checks on those
reports: the defect decides standardness (Elkies, Math. Res. Lett. 2,
1995), and up to rank 16 the root system names the lattice (`identify`,
SPLAG ch. 16, Table 16.7).
Claims on the moduli up to 30, and the multiplier claims at moduli up to 86,
use closed-form witnesses that integer arithmetic re-checks instead, on the
cyclic form (`_cyclic`) through `transfer_image`: no rank-4n Gram is built
for them.  Their characteristic test, `_transfer_characteristic_norm`,
reads charvec's one parity-and-norm rule off the product G w that
`transfer_image` takes from the cyclic form itself, with the transfer's
diagonal read off the form's.  Only the enumeration claims (moduli up to
--max-n) and the Dynkin check at modulus 4 form the dense transfer `_vn`;
that check's two D8 batches (`v4_root_batches`) are built here as well.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, List, Optional, Sequence, Tuple

from hermlat.charvec import (
    CharReport,
    DefectReport,
    _norm_if_characteristic,
    characteristic_defect,
    check_orthonormal_certificate,
    is_standard,
    min_characteristic,
    specific_criterion,
    wa_norm,
    witness_vector,
)
from hermlat.forms import (
    CyclicForm,
    HermitianForm,
    aug_form,
    b_sequence,
    build_form,
    build_form_power,
    flatten_vector,
    form_det,
    rational_congruence_check,
    reduce_form,
    transfer,
    transfer_image,
)
from hermlat.lattice import GramMatrix, Vector, _gram_of, canonical_rep, direct_sum
from hermlat.ring import CyclicElement, LaurentPoly, format_laurent, sym_power
from hermlat.roots import (
    RootSystemReport,
    check_dynkin,
    gamma_gram,
    identify,
    identity_gram,
    root_system,
)

Claim = Tuple[str, str, Any, Optional[Callable[[], Any]]]


@lru_cache(maxsize=None)
def _form(b: int) -> HermitianForm:
    """The rank-4 form at a = x^b + x^-b (b = 1 is the first-power form),
    built once per multiplier."""
    return build_form(sym_power(b))


@lru_cache(maxsize=None)
def _cyclic(b: int, n: int) -> CyclicForm:
    """`_form(b)` reduced modulo x^n - 1."""
    return reduce_form(_form(b), n)


@lru_cache(maxsize=None)
def _vn(n: int) -> GramMatrix:
    """Transfer of the first-power form at modulus n (rank 4n)."""
    return transfer(_cyclic(1, n))


@lru_cache(maxsize=None)
def _gamma(rank: int) -> GramMatrix:
    """`gamma_gram(rank)`, built once, so it is swept and reduced once."""
    return gamma_gram(rank)


@lru_cache(maxsize=None)
def _defect(G: GramMatrix, budget: int) -> DefectReport:
    """G's `characteristic_defect`, enumerated once per lattice and budget."""
    return characteristic_defect(G, max_nodes=budget)


@lru_cache(maxsize=None)
def _char(G: GramMatrix, budget: int) -> CharReport:
    """G's `min_characteristic`, enumerated once per lattice and budget."""
    return min_characteristic(G, max_nodes=budget)


@lru_cache(maxsize=None)
def _roots(G: GramMatrix, budget: int) -> RootSystemReport:
    """G's `root_system`, enumerated once per lattice and budget."""
    return root_system(G, max_nodes=budget)


def _standard(G: GramMatrix, budget: int) -> dict:
    std, cert = is_standard(G, _defect(G, budget), _roots(G, budget).units)
    return {"standard": std, "certificate_ok": std and check_orthonormal_certificate(G, cert)}


def _transfer_characteristic_norm(Gn: CyclicForm, w: Sequence[int]) -> Optional[int]:
    """`_characteristic_norm(transfer(Gn), w)` without forming the transfer:
    the product is `transfer_image(Gn, w)`, and diagonal entry i*n + j of the
    transfer is the constant coefficient of Gn[i][i]."""
    n = Gn.n
    diagonal = [row[i].coeffs[0] for i, row in enumerate(Gn.rows()) for _ in range(n)]
    return _norm_if_characteristic(transfer_image(Gn, w), diagonal, w)


def _witness_holds(Gn: CyclicForm, w: Sequence[int], target: int) -> bool:
    """w is characteristic of norm target < rank in transfer(Gn), so it
    certifies defect >= (rank - target) // 8 (`defect_certificate_check`),
    from one product `transfer_image(Gn, w)`."""
    return _transfer_characteristic_norm(Gn, w) == target < Gn.size * Gn.n


def _range_claim(
    claim_id: str, location: str, first: int, key: str, holds: Callable[[int], bool]
) -> Claim:
    """A claim that `holds(n)` for every modulus n from first to 30; a
    failure reports the first failing modulus."""

    def run() -> dict:
        for n in range(first, 31):
            if not holds(n):
                return {"moduli": f"failed at {n}", key: False}
        return {"moduli": f"{first}..30", key: True}

    return (claim_id, location, {"moduli": f"{first}..30", key: True}, run)


def _char_witness_norm(n: int) -> bool:
    return _transfer_characteristic_norm(_cyclic(1, n), witness_vector(n, ())) == 4 * n


def _floor3_multiplier(n: int) -> List[int]:
    """a(x) = 1 + x^3 + x^6 + ... with floor(n/3) terms; the multiplier whose
    witness has norm 4n - 8 floor(n/3)."""
    q = n // 3
    out = [0] * max(1, 3 * (q - 1) + 1)
    for i in range(q):
        out[3 * i] = 1
    return out


def _floor3_witness(n: int) -> bool:
    a = _floor3_multiplier(n)
    target = 4 * n - 8 * (n // 3)
    return wa_norm(n, a) == target and _witness_holds(
        _cyclic(1, n), witness_vector(n, a), target
    )


def _v3_minimizers(budget: int) -> dict:
    # the twelve +/- classes w - 2 x^i e with e one of e1, e2, e1+e4, e2+e3
    w = witness_vector(3, ())
    expected = set()
    for i in range(3):
        for mods in ((0,), (1,), (0, 3), (1, 2)):
            v = list(w)
            for m in mods:
                v[m * 3 + i] -= 2
            expected.add(canonical_rep(v))
    rep = _char(_vn(3), budget)
    return {
        "min_norm": rep.min_norm,
        "mu": rep.mu,
        "minimizers_match": set(rep.minimizers) == expected,
    }


def v4_root_batches() -> Tuple[Tuple[Vector, ...], Tuple[Vector, ...]]:
    """Two batches of 8 norm-2 vectors in the rank-16 transfer (modulus 4),
    each realizing the D8 diagram, spanning mutually orthogonal copies.

    The second batch is x times the first, coordinate-wise in the group ring.
    """
    n = 4
    zero = CyclicElement.zero(n)

    def mono(e: int) -> CyclicElement:
        return CyclicElement.monomial(n, e)

    one = mono(0)
    x = mono(1)
    x2 = mono(2)
    ones_134 = one + x + mono(3)  # 1 + x + x^3
    vs = [
        [zero, zero, zero, x2],
        [-x2, x2, x2, zero],
        [zero, zero, x2, zero],
        [x2, -one, zero, zero],
        [one, -one, zero, zero],
        [zero, zero, one, zero],
        [-one, one, one, -one],
        [-one, -one, ones_134, ones_134],
    ]
    batch1 = tuple(flatten_vector(v) for v in vs)
    batch2 = tuple(flatten_vector([x * c for c in v]) for v in vs)
    return batch1, batch2


def _v4_dynkin() -> dict:
    G = _vn(4)
    b1, b2 = v4_root_batches()
    gram = _gram_of(G, b1 + b2)
    return {
        "batch1_d8": check_dynkin(G, b1, "D", 8),
        "batch2_d8": check_dynkin(G, b2, "D", 8),
        "orthogonal": not any(x for row in gram[: len(b1)] for x in row[len(b1) :]),
    }


def _rational_congruence() -> dict:
    values = (sym_power(1), LaurentPoly.zero(), sym_power(5), sym_power(21))
    ok = all(rational_congruence_check(a) for a in values)
    return {"a_values": len(values), "all_pass": ok}


def _specific(b: int) -> dict:
    # the lattice varies with the multiplier; the witness is always w - 2 e_1
    a = sym_power(b)
    holds, m, witness_norm = specific_criterion(a)
    ok = holds and m == b and all(
        _witness_holds(_cyclic(b, n), witness_vector(n, (1,)), witness_norm(n))
        for n in (4 * b + 1, 4 * b + 2)
    )
    return {"holds": holds, "m": m, "norms_match": ok}


def _distinguishing() -> dict:
    for k in (1, 2, 3):
        bk = b_sequence(k)
        if not _cyclic(bk, bk).is_constant():
            return {"checked": f"power {k} not constant at its modulus", "all": False}
        for j in range(1, k):
            bj = b_sequence(j)
            _, _, witness_norm = specific_criterion(sym_power(bj))
            w = witness_vector(bk, (1,))
            if witness_norm is None or not _witness_holds(_cyclic(bj, bk), w, witness_norm(bk)):
                return {"checked": f"witness failed at j={j}, k={k}", "all": False}
    return {"checked": "k=1..3 with all j<k", "all": True}


def claim_list(max_n: int, budget: int) -> List[Claim]:
    """The claims in report order; `budget` bounds each enumeration."""

    def upto(n: int, run: Callable[[], Any]) -> Optional[Callable[[], Any]]:
        return run if n <= max_n else None

    standard = {"standard": True, "certificate_ok": True}
    return [
        (
            "construction-aug-matrix",
            "augmentation of the first-power form",
            [[7, 6, 3, 2], [6, 7, 2, 3], [3, 2, 2, 0], [2, 3, 0, 2]],
            lambda: [list(row) for row in aug_form(build_form_power(1)).gram],
        ),
        (
            "construction-det-one",
            "determinant of the first-power form",
            "1",
            lambda: format_laurent(form_det(build_form_power(1))),
        ),
        (
            "thm-new-n1-standard",
            "standardness of the transfer at modulus 1",
            standard,
            lambda: _standard(_vn(1), budget),
        ),
        (
            "thm-new-n2-standard",
            "standardness of the transfer at modulus 2",
            standard,
            lambda: _standard(_vn(2), budget),
        ),
        _range_claim(
            "thm-new-nonstandard-range",
            "norm 4n-8 characteristic witnesses at moduli 3..30",
            3,
            "all_nonstandard",
            lambda n: _witness_holds(_cyclic(1, n), witness_vector(n, (1,)), 4 * n - 8),
        ),
        _range_claim(
            "lemma-char-norm-range",
            "norm-element witness is characteristic of norm 4n at moduli 1..30",
            1,
            "all_match",
            _char_witness_norm,
        ),
        (
            "defect-exact-n3",
            "enumerated defect of the modulus-3 transfer",
            1,
            upto(3, lambda: _defect(_vn(3), budget).defect),
        ),
        (
            "defect-exact-n4",
            "enumerated defect of the modulus-4 transfer",
            1,
            upto(4, lambda: _defect(_vn(4), budget).defect),
        ),
        (
            "defect-exact-n5-bound",
            "defect bounds at modulus 5",
            {"lower": 1, "upper": 2, "within": True},
            upto(
                5,
                lambda: {
                    "lower": 1,
                    "upper": 2,
                    "within": 1 <= _defect(_vn(5), budget).defect <= 2,
                },
            ),
        ),
        (
            "defect-exact-n5-value",
            "enumerated defect value at modulus 5",
            1,
            upto(5, lambda: _defect(_vn(5), budget).defect),
        ),
        _range_claim(
            "defect-bound-range",
            "spaced-power witnesses give defect >= floor(n/3) at moduli 6..30",
            6,
            "all_valid",
            _floor3_witness,
        ),
        (
            "thm-smalln-v3-mu24",
            "minimal characteristic vectors of the modulus-3 transfer",
            {"min_norm": 4, "mu": 24, "minimizers_match": True},
            lambda: _v3_minimizers(budget),
        ),
        (
            "thm-smalln-v3-identify",
            "fingerprint identification of the modulus-3 transfer",
            "Gamma12",
            lambda: identify(_vn(3), _roots(_vn(3), budget)),
        ),
        (
            "mu-e8-plus-i4",
            "minimal characteristic count of the rank-8 even lattice plus I4",
            16,
            lambda: _char(direct_sum(_gamma(8), identity_gram(4)), budget).mu,
        ),
        (
            "thm-smalln-v4-dynkin",
            "two orthogonal D8 diagrams inside the modulus-4 transfer",
            {"batch1_d8": True, "batch2_d8": True, "orthogonal": True},
            _v4_dynkin,
        ),
        (
            "thm-smalln-v4-roots",
            "root decomposition of the modulus-4 transfer",
            [
                {"type": "D", "rank": 8, "roots": 112},
                {"type": "D", "rank": 8, "roots": 112},
            ],
            lambda: _roots(_vn(4), budget).to_json_dict()["components"],
        ),
        (
            "thm-smalln-v4-identify",
            "fingerprint identification of the modulus-4 transfer",
            "D8^2[(12)]",
            lambda: identify(_vn(4), _roots(_vn(4), budget)),
        ),
        (
            "catalog-defect-floor",
            "defect of the half-integer overlattices of ranks 4,8,12,16",
            [0, 1, 1, 2],
            lambda: [
                _defect(_gamma(4 * m), budget).defect for m in (1, 2, 3, 4)
            ],
        ),
        (
            "catalog-mu-gamma12",
            "minimal characteristic count of the rank-12 overlattice",
            24,
            lambda: _char(_gamma(12), budget).mu,
        ),
        (
            "catalog-mu-gamma8",
            "minimal characteristic count of the rank-8 overlattice",
            1,
            lambda: _char(_gamma(8), budget).mu,
        ),
        (
            "catalog-gamma4-standard",
            "the rank-4 overlattice is standard",
            standard,
            lambda: _standard(_gamma(4), budget),
        ),
        (
            "lemma-rational-congruence",
            "rational block diagonalization of the rank-4 form",
            {"a_values": 4, "all_pass": True},
            _rational_congruence,
        ),
        *(
            (
                f"lemma-specific-a-x{b}",
                f"sum-of-squares witness for the {ordinal} power multiplier",
                {"holds": True, "m": b, "norms_match": True},
                lambda b=b: _specific(b),
            )
            for b, ordinal in ((1, "first"), (5, "fifth"), (21, "twenty-first"))
        ),
        (
            "distinguishing-powers",
            "lower powers stay nonstandard at the higher modulus while the matching power extends from the integers",
            {"checked": "k=1..3 with all j<k", "all": True},
            _distinguishing,
        ),
    ]
