"""Hermitian forms over the Laurent ring and their reductions mod x^n - 1.

A form is a square matrix G over Z[x,1/x] with G[j][i] = conj(G[i][j])
(``HermitianForm``, the one form type); a form file is read by
`lattice._json_square`, the reader of the Gram files too.  Its reduction
``reduce_form(G, n)`` is the plain matrix of the coefficient tuples that
`LaurentPoly.reduce(n)` returns, index j of an entry holding the coefficient
of x^j.  Reduction commutes with conj, so that matrix is hermitian because G
is, and nothing checks it again.  The pairing convention throughout is

    <u, v> = sum_ij u_i * G[i][j] * conj(v_j)

linear in the first slot and conjugate-linear in the second, so that
<v, u> = conj(<u, v>).  The rational congruence P G conj(P)^T of
`rational_congruence_check` is read off G's 2 x 2 blocks.

``transfer`` restricts scalars: a rank-m reduction mod x^n - 1 becomes a
rank m*n integer symmetric matrix on the basis x^j e_i, ordered
lexicographically with i outermost and j = 0..n-1 innermost, so index
i*n + j meets index i'*n + j' in the coefficient of x^((j'-j) mod n) of
G[i][i'].  ``transfer_image`` returns the product transfer(G) v in that
convention without forming the matrix: block i of the image is
sum_i' sum_k G[i][i'][k] * rot_left(v_i', k), which touches only the nonzero
coefficients of each entry, O(n) work per coefficient instead of O((m*n)^2)
for the dense product.  Both read n as the length of an entry.

Arithmetic runs over Z[x,1/x] alone: a reduction is only read, never
computed with.  ``form_det`` uses Berkowitz's algorithm, which never divides:
Bareiss would need exact division in Z[x,1/x], which the package lacks.
Reduction mod x^n - 1 is a ring map, so it commutes with det, and
``transfer_determinant`` takes the norm of the reduced determinant, the
resultant Res(x^n - 1, delta), which equals det transfer(G) without forming
an n x n or m*n x m*n integer matrix or computing over Z[C_n].
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterator, List, Sequence, Tuple

from hermlat.lattice import GramMatrix, _json_square
from hermlat.ring import LaurentPoly, sym_power


class HermitianForm:
    """Square matrix over Z[x,1/x] with G[j][i] = conj(G[i][j]).  In row
    order over the upper triangle, each entry must be a LaurentPoly and its
    mirror must be its conjugate."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        rows = tuple(tuple(row) for row in entries)
        m = len(rows)
        if m < 1:
            raise ValueError("size must be positive")
        if any(len(row) != m for row in rows):
            raise ValueError("entries must form a square matrix")
        for i in range(m):
            for j in range(i, m):
                if not isinstance(rows[i][j], LaurentPoly):
                    raise ValueError("entries must be LaurentPoly")
                if rows[j][i] != rows[i][j].conj():
                    raise ValueError(f"not hermitian at ({i},{j})")
        self._entries = rows

    @property
    def size(self) -> int:
        return len(self._entries)

    def rows(self) -> Tuple[Tuple[LaurentPoly, ...], ...]:
        return self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianForm):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"HermitianForm(size={self.size})"

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "entries": [[e.to_json_dict() for e in row] for row in self._entries],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HermitianForm":
        rows = _json_square(data, "size", "entries")
        return cls([list(map(LaurentPoly.from_json_dict, row)) for row in rows])


# -- the rank-4 family -------------------------------------------------------


def build_form(a: LaurentPoly) -> HermitianForm:
    """The rank-4 hermitian form attached to a self-conjugate element a:

        [ 1+a+a^2  a+a^2   1+a  a ]
        [ a+a^2    1+a+a^2 a    1+a ]
        [ 1+a      a       2    0 ]
        [ a        1+a     0    2 ]

    Unimodular (determinant 1) for every self-conjugate a.
    """
    if not isinstance(a, LaurentPoly):
        raise ValueError("a must be a LaurentPoly")
    if not a.is_self_conjugate():
        raise ValueError("a must be fixed by conjugation")
    one = LaurentPoly.one()
    two = LaurentPoly.const(2)
    zero = LaurentPoly.zero()
    a2 = a * a
    return HermitianForm(
        [
            [one + a + a2, a + a2, one + a, a],
            [a + a2, one + a + a2, a, one + a],
            [one + a, a, two, zero],
            [a, one + a, zero, two],
        ]
    )


def b_sequence(k: int) -> int:
    """b_1 = 1, b_{k+1} = 4*b_k + 1, so b_k = (4^k - 1) / 3 (1, 5, 21, 85, ...)."""
    if k < 1:
        raise ValueError("index must be >= 1")
    return ((1 << 2 * k) - 1) // 3


def power_exceeds(k: int, digits: int) -> bool:
    """Whether the top exponent 2 b_k of `build_form_power(k)` has more than
    `digits` decimal digits, decided without computing b_k."""
    # 2 (4^k - 1) / 3 >= 10^digits exactly when 4^k > 3 * 10^digits // 2
    return k > ((3 * 10**digits // 2).bit_length() - 1) // 2


def build_form_power(k: int) -> HermitianForm:
    """The form at a = x^(b_k) + x^(-b_k)."""
    return build_form(sym_power(b_sequence(k)))


def reduce_form(G: HermitianForm, n: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Reduce every entry modulo x^n - 1: the matrix of the coefficient
    tuples `e.reduce(n)`, hermitian because G is.  A bad modulus raises
    ValueError."""
    return tuple(tuple(e.reduce(n) for e in row) for row in G.rows())


def form_det(G: HermitianForm) -> LaurentPoly:
    """Determinant over the Laurent ring.

    Berkowitz's division-free algorithm (Inf. Process. Lett. 18, 1984): with
    A_k the leading k x k block and A_{k+1} = [[A_k, c], [r, a]], the
    characteristic polynomial of A_{k+1} is the lower-triangular Toeplitz
    matrix with first column (1, -a, -r c, -r A_k c, ..., -r A_k^(k-1) c)
    applied to that of A_k: O(m^4) ring operations and no division.
    """
    mat = G.rows()
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    p = [one]  # char. polynomial of the leading block, highest degree first
    for k in range(len(mat)):
        block = [row[:k] for row in mat[:k]]
        r = mat[k][:k]
        v = [row[k] for row in mat[:k]]
        q = [one, -mat[k][k]]
        for step in range(k):
            if step:
                v = [sum(map(mul, row, v), zero) for row in block]
            q.append(-sum(map(mul, r, v), zero))
        p = [sum(map(mul, q[i::-1], p[: i + 1]), zero) for i in range(k + 2)]
    return p[-1] if len(mat) % 2 == 0 else -p[-1]


# -- module vectors ----------------------------------------------------------


def flatten_vector(vec: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
    """Coordinates of sum_i a_i(x) e_i on the transfer basis x^j e_i, given
    the coefficient tuples of the a_i reduced mod x^n - 1: their
    concatenation, so index i*n + j holds the coefficient of x^j in a_i,
    matching ``transfer``.
    """
    return tuple(c for a in vec for c in a)


# -- restriction of scalars --------------------------------------------------


def _transfer_rows(Gn: Sequence[Sequence[Sequence]]) -> Iterator[list]:
    """The rows of `transfer(Gn)`, row (i, j) = i*n + j in order, for any
    entry type: the coefficients themselves, or their printed forms.

    Row (i, j) and column (i', j') meet in the coefficient of x^((j'-j) mod n)
    of G[i][i'], which is the integer pairing (x^j e_i, x^j' e_i').  So the
    block of row (i, j) under column block i' is the coefficient sequence of
    G[i][i'] rotated right by j, and each row is the concatenation of m such
    slices, never built one entry at a time.
    """
    n = len(Gn[0][0])
    for entries in Gn:
        for j in range(n):
            row: list = []
            for cs in entries:
                row += cs[n - j :]
                row += cs[: n - j]
            yield row


def transfer(Gn: Sequence[Sequence[Tuple[int, ...]]]) -> GramMatrix:
    """Rank m*n integer Gram of the reduction Gn = `reduce_form(G, n)`
    viewed as a lattice over Z, from the rows of `_transfer_rows`.  The Gram
    is symmetric exactly when Gn is hermitian, so `GramMatrix` rejects a Gn
    that is not.  `hermlat transfer` writes its Gram file from the same rows
    of printed coefficients and never forms this Gram.
    """
    return GramMatrix(list(_transfer_rows(Gn)))


def transfer_image(Gn: Sequence[Sequence[Tuple[int, ...]]], v: Sequence[int]) -> Tuple[int, ...]:
    """transfer(Gn) v without forming transfer(Gn).

    Entry (i*n + j, i'*n + j') of the transfer is g[k] for g = G[i][i'] and
    k = (j' - j) mod n, so coordinate j of block i of the image is
    sum_i' sum_k g[k] v_i'[(j + k) mod n]: block i is the sum over the
    nonzero coefficients g[k] of g[k] times block i' of v rotated left by k.
    Blocks of v that are all zero are skipped.  A vector whose length is not
    m*n raises ValueError.
    """
    n = len(Gn[0][0])
    if len(v) != len(Gn) * n:
        raise ValueError("vector length must match rank")
    blocks = [(i, v[i * n : i * n + n]) for i in range(len(Gn))]
    blocks = [(i, b) for i, b in blocks if any(b)]
    image: List[int] = []
    for entries in Gn:
        acc = [0] * n
        for i, b in blocks:
            for k, c in enumerate(entries[i]):
                if c:
                    acc = [s + c * x for s, x in zip(acc, b[k:] + b[:k])]
        image += acc
    return tuple(image)


def transfer_determinant(G: HermitianForm, n: int) -> int:
    """det transfer(reduce_form(G, n)), as the norm N(delta) of the
    determinant delta of the reduced form over Z[C_n].

    transfer sends each entry to an n x n circulant, and c -> circulant(c) is
    a ring map, so the blocks commute and det over Z of the block matrix is
    det of the circulant of delta (Silvester, Math. Gazette 84, 2000).
    Reduction is a ring map too, so delta is `form_det(G)` reduced mod
    x^n - 1.  The circulant's eigenvalues are delta(zeta) over the n-th roots
    of unity zeta, so its determinant is prod_zeta delta(zeta) =
    Res(x^n - 1, delta), which `_resultant` computes without forming the
    n x n matrix.  A bad modulus raises ValueError.
    """
    return _resultant([-1] + [0] * (n - 1) + [1], form_det(G).reduce(n))


def _strip(p: Sequence[int]) -> List[int]:
    """The coefficient list without its zero top coefficients."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Res(A, B) of integer polynomials given by coefficients, lowest degree
    first (0 when either is 0), by the subresultant algorithm (Cohen, *A
    Course in Computational Algebraic Number Theory*, Alg. 3.3.7) on the
    primitive parts: every division is exact, so no rationals occur."""
    a, b = _strip(a), _strip(b)
    if not a or not b:
        return 0
    ca, cb = gcd(*a), gcd(*b)
    a, b = [x // ca for x in a], [x // cb for x in b]
    s = ca ** (len(b) - 1) * cb ** (len(a) - 1)  # the contents, then the sign
    if len(a) < len(b):
        a, b = b, a
        s *= (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = 1
    while len(b) > 1:
        da, db, lb = len(a) - 1, len(b) - 1, b[-1]
        delta = da - db
        s *= (-1) ** (da * db)
        # the pseudo-remainder r of lb^(delta+1) A = B Q + r (Cohen, Alg.
        # 3.1.2): Q is integral, so each of its coefficients divides exactly
        r = [lb ** (delta + 1) * x for x in a]
        for k in range(da, db - 1, -1):
            q = r[k] // lb
            for i, y in enumerate(b, k - db):
                r[i] -= q * y
        a, b = b, [x // (g * h**delta) for x in _strip(r[:db])]
        g, h = lb, lb**delta * h // h**delta
    da = len(a) - 1
    return s * b[0] ** da * h // h**da if b else 0


# -- the rational congruence over the Laurent ring ----------------------------


def rational_congruence_check(a: LaurentPoly) -> bool:
    """Verify P G P* = diag(1/2, 1/2, 2, 2) exactly, * the conjugate transpose,
    for the rank-4 form G at a, P = [[I, -B/2], [0, I]], B = [[1+a, a], [a, 1+a]].

    In 2 x 2 blocks G = [[A, X], [X*, C]], and

        P G P* = [[A - (B X* + X B*)/2 + B C B*/4, X - B C/2], [X* - C B*/2, C]].

    The lower-right block is 2I exactly when C = 2I; then the off-diagonal
    blocks vanish exactly when X = B, the B built from a and not G's own;
    then the upper-left A - B B*/2 is I/2 exactly when 2A - B B* = I.  These
    three identities, in exact Laurent arithmetic, certify that the form is
    positive definite whenever a is specialised compatibly.
    """
    G = build_form(a).rows()
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    I, B = ((one, zero), (zero, one)), ((one + a, a), (a, one + a))
    return all(
        G[2 + i][2 + j] == I[i][j] + I[i][j]
        and G[i][2 + j] == B[i][j]
        and G[i][j] + G[i][j] - B[i][0] * B[j][0].conj() - B[i][1] * B[j][1].conj() == I[i][j]
        for i in range(2)
        for j in range(2)
    )
