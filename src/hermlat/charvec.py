"""Characteristic vectors, defect, and standardness certificates.

A characteristic vector of an integral lattice satisfies (w, v) = (v, v)
mod 2 for every v; they form a single coset of 2*lattice when the
determinant is odd.  All characteristic norms agree mod 8 with the rank
(van der Blij), the defect (rank - minimal norm)/8 is a nonnegative
integer, and it vanishes exactly for the standard lattice.  This module
computes those invariants by exact coset enumeration.  The one search runs
lazy passes that widen by 8 until one is nonempty: `characteristic_defect`
takes that pass's first solution as the witness of the defect, and
`min_characteristic` runs the same pass to its end for mu and the
minimizers, so no pass runs twice.  `is_standard` reads either report and
enumerates nothing.  The module also holds one characteristic test read off
G w and the diagonal of G (`_norm_if_characteristic`), and the closed-form
witnesses of the rank-4 transfer family, computed in the group ring of
`hermlat.ring`, that certify nonstandardness without any enumeration.
"""

from __future__ import annotations

from itertools import chain
from operator import mul
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from hermlat.lattice import (
    Budget,
    GramMatrix,
    _coset,
    _gram_of,
    _image,
    _input_pairs,
    _is_vector,
    _solve_mod2,
    canonical_rep,
)
from hermlat.ring import LaurentPoly

Vector = Tuple[int, ...]


def char_rep(G: GramMatrix) -> Vector:
    """A characteristic vector with 0/1 coordinates: the unique mod-2
    solution of G w = diag(G).  Even lattices get the zero vector."""
    try:
        return _solve_mod2(G.gram, G.diagonal())
    except ValueError:
        raise ValueError("determinant is even; lattice is not unimodular") from None


def _norm_if_characteristic(
    image: Sequence[int], diagonal: Sequence[int], w: Sequence[int]
) -> Optional[int]:
    """|w|^2 when w is characteristic, else None, both read off one product
    image = G w and the diagonal of G: (w, e_i) = (G w)_i must agree with
    (e_i, e_i) mod 2 on every basis vector (sufficient by bilinearity), and
    |w|^2 = w . G w."""
    if any((a - b) % 2 for a, b in zip(image, diagonal)):
        return None
    return sum(map(mul, image, w))


def _characteristic_norm(G: GramMatrix, w: Sequence[int]) -> Optional[int]:
    """`_norm_if_characteristic` on a Gram, from one dense product G w."""
    return _norm_if_characteristic(_image(G, w), G.diagonal(), w)


def is_characteristic(G: GramMatrix, w: Sequence[int]) -> bool:
    """(w, e_i) = (e_i, e_i) mod 2 on all basis vectors (sufficient by
    bilinearity), from one product G w.  False when w is not a vector of
    G's lattice (`_is_vector`)."""
    return _is_vector(G, w) and _characteristic_norm(G, w) is not None


class DefectReport(NamedTuple):
    """Minimal characteristic norm and defect of a definite unimodular
    lattice, and one characteristic vector of that norm."""

    min_norm: int
    defect: int
    witness: Vector


class CharReport(NamedTuple):
    """The `DefectReport` fields with every minimal characteristic vector:
    mu counts them, and the witness is the first of the sorted
    ``minimizers``."""

    min_norm: int
    defect: int
    witness: Vector
    mu: int
    minimizers: Tuple[Vector, ...]


def _defect_search(G: GramMatrix, budget: Budget) -> Tuple[int, Iterator[Tuple[List[int], int]]]:
    """(min_norm, the solutions (w, norm) of the first nonempty coset pass,
    lazily from its first), spending from ``budget``."""
    if G.determinant() != 1:
        raise ValueError("lattice is not unimodular (determinant != 1)")
    c = char_rep(G)
    bound = G.rank % 8
    while True:
        sols = _coset(G, c, bound, budget)
        first = next(sols, None)
        if first is not None:
            break
        bound += 8
    mn = first[1]
    if (G.rank - mn) % 8:
        raise AssertionError("characteristic norm violates the mod-8 congruence")
    return mn, chain([first], sols)


def characteristic_defect(G: GramMatrix, budget: Optional[Budget] = None) -> DefectReport:
    """Exact minimal characteristic norm and defect, with one minimizer as
    the witness, without listing the minimizers.

    Characteristic norms lie in one residue class mod 8 (van der Blij), so
    coset passes run at bounds rank mod 8, +8, ... until one is nonempty.
    Each empty pass proves that no characteristic vector has a norm up to
    its bound; the nonempty pass stops at its first solution, whose norm
    is the bound by the congruence.  That leaf is the witness, and it is
    re-checked in integers (`defect_certificate_check` holds for it).
    Every pass spends from ``budget``.  Determinants other than 1 raise
    ValueError.
    """
    mn, sols = _defect_search(G, budget or Budget())
    w = canonical_rep(next(sols)[0])
    if _characteristic_norm(G, w) != mn:
        raise AssertionError("the witness is not characteristic of the minimal norm")
    return DefectReport(mn, (G.rank - mn) // 8, w)


def min_characteristic(G: GramMatrix, budget: Optional[Budget] = None) -> CharReport:
    """Exact minimal characteristic norm, defect, all minimizers and mu:
    the `characteristic_defect` search, with its nonempty pass, at the
    minimal norm, run to its end, so each pass runs once.  Every pass
    spends from ``budget``.  Determinants other than 1 raise ValueError.
    """
    mn, sols = _defect_search(G, budget or Budget())
    minimizers, norms = _input_pairs(sols)
    if any(nv != mn for nv in norms):
        raise AssertionError("a listed norm differs from the minimal norm")
    mu = sum(1 if all(x == 0 for x in v) else 2 for v in minimizers)
    if _characteristic_norm(G, minimizers[0]) != mn:
        raise AssertionError("the witness is not characteristic of the minimal norm")
    return CharReport(mn, (G.rank - mn) // 8, minimizers[0], mu, minimizers)


def is_standard(
    G: GramMatrix, report: DefectReport | CharReport, units: Sequence[Vector]
) -> Tuple[bool, dict]:
    """Decide standardness with an exact certificate either way, from G's
    `characteristic_defect` or `min_characteristic` report (only its
    defect, witness and min_norm are read) and its norm-1 pairs
    (`root_system(G).units`).

    The defect decides: it is 0 exactly for Z^r (Elkies 1995).  True comes
    with an orthonormal basis (columns of a unimodular U with U^T G U = I,
    the norm-1 pairs themselves); False comes with a characteristic vector
    of norm < rank.  Both outcomes are cross-checked against the count of
    norm-1 pairs, which must equal the rank exactly in the standard case.
    No enumeration happens here.
    """
    r = G.rank
    if report.defect == 0:
        if len(units) != r:
            raise AssertionError("defect 0 but unit-pair count differs from rank")
        cert = {"kind": "orthonormal_basis", "columns": [list(u) for u in units]}
        if not check_orthonormal_certificate(G, cert):
            raise AssertionError("unit pairs are not an orthonormal basis")
        return True, cert
    if len(units) == r:
        raise AssertionError("positive defect but a full set of unit pairs")
    return False, {
        "kind": "characteristic_witness",
        "vector": list(report.witness),
        "norm": report.min_norm,
        "rank": r,
    }


def check_orthonormal_certificate(G: GramMatrix, cert: dict) -> bool:
    """Whether the certificate lists rank lattice vectors U with U^T G U = I."""
    if cert.get("kind") != "orthonormal_basis":
        return False
    cols = cert.get("columns")
    r = G.rank
    if not isinstance(cols, list) or len(cols) != r or not all(_is_vector(G, c) for c in cols):
        return False
    return _gram_of(G, cols) == tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def defect_certificate_check(G: GramMatrix, w: Sequence[int], d: int) -> bool:
    """True iff w certifies defect >= d: characteristic with
    |w|^2 <= rank - 8d.  One product G w gives both tests: quadratic time,
    no enumeration.  False when w is not a vector of G's lattice."""
    if not _is_vector(G, w):
        return False
    nw = _characteristic_norm(G, w)
    return nw is not None and nw <= G.rank - 8 * d


# -- closed-form witnesses for the rank-4 transfer family ---------------------
#
# In the rank 4n transfer the basis is x^j e_i at flat index i*n + j.  The
# distinguished characteristic vector is w = N (e_3 + e_4) where N is the
# norm element, i.e. all-ones on the last two blocks, and |w|^2 = 4n; it is
# the witness vector of the zero multiplier.  A multiplier a_0 + a_1 x + ...
# is read as a LaurentPoly and reduced mod x^n - 1 in the group ring.


def witness_vector(n: int, a_coeffs: Sequence[int]) -> Vector:
    """w - 2 a(x) e_1 in transfer coordinates, with a(x) reduced mod x^n - 1.
    Raises ValueError for n < 1 or a coefficient that is not an int."""
    r = LaurentPoly(dict(enumerate(a_coeffs))).reduce(n)
    return tuple([-2 * c for c in r] + [0] * n + [1] * (2 * n))


def wa_norm(n: int, a_coeffs: Sequence[int]) -> int:
    """Closed-form |w - 2 a(x) e_1|^2 = 4n - 4 (5 a(1) - 3 a^0 - 2 (a^1 + a^2)).

    With a^i = sum_j a_j a_{j+i}, indices mod n, the coefficient of x^i in
    a * conj(a) reduced mod x^n - 1, it holds for every n >= 1; it must agree
    with the direct Gram evaluation on the transfer.  The reduction is the
    tuple of those n coefficients, so a^i is its entry i mod n, which wraps
    a^1 and a^2 at n = 1 and a^2 at n = 2.
    """
    a = LaurentPoly(dict(enumerate(a_coeffs)))
    aa = (a * a.conj()).reduce(n)
    return 4 * n - 4 * (5 * a.aug() - 3 * aa[0] - 2 * (aa[1 % n] + aa[2 % n]))


def specific_criterion(
    a: LaurentPoly,
) -> Tuple[bool, int, Optional[Callable[[int], int]]]:
    """The sum-of-squares test: write a = a_0 + sum_{l=1..m} a_l (x^l + x^-l).

    If a_0^2 + 2 sum a_l^2 < a_0 + 4 sum a_l, the rank-4 form at a is not
    standard after transfer at any modulus n > 4m; the returned function gives
    the certifying witness norm 4n - 4((a_0 + 4 sum a_l) - (a_0^2 + 2 sum a_l^2)),
    always < 4n when the test holds.
    """
    if not isinstance(a, LaurentPoly) or not a.is_self_conjugate():
        raise ValueError("a must be a self-conjugate LaurentPoly")
    a0 = a.coeff(0)
    m = max((e for e in a.support() if e > 0), default=0)
    side = [a.coeff(l) for l in range(1, m + 1)]
    lhs = a0 * a0 + 2 * sum(c * c for c in side)
    rhs = a0 + 4 * sum(side)
    if lhs >= rhs:
        return False, m, None

    def witness_norm(n: int) -> int:
        if n <= 4 * m:
            raise ValueError(f"witness norm needs n > {4 * m}")
        return 4 * n - 4 * (rhs - lhs)

    return True, m, witness_norm
