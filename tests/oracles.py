"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: box searches over integer cubes,
cofactor determinants over dense polynomial lists, combinatorial counts from
closed-form descriptions.  None of it shares code with the package under
test, so agreement is meaningful.  Sizes are kept small enough that the
naive approach stays exact and fast.

Two groups are built on the package's own types instead: the Grams of the
root lattices A_n, D_n and E8, which are GramMatrix objects read off the
package's ``dynkin_edges``, and ``sesq_eval``, which evaluates the hermitian
pairing with the package's ring arithmetic, the reference for ``transfer``
and ``rational_congruence_check``.
"""

from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from typing import List, Optional, Sequence, Set, Tuple

from hermlat.lattice import GramMatrix
from hermlat.ring import LaurentPoly
from hermlat.roots import dynkin_edges

Vec = Tuple[int, ...]


# -- exact linear algebra helpers ----------------------------------------------


def frac_inverse(gram: Sequence[Sequence[int]]) -> List[List[Fraction]]:
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        inv[col] = [x / d for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    return inv


def frac_det(mat: Sequence[Sequence[int]]) -> Fraction:
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            if a[i][col] != 0:
                f = a[i][col] / a[col][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def sylvester_matrix(a: Sequence[int], b: Sequence[int]) -> List[List[int]]:
    """The Sylvester matrix of two polynomials with nonzero top coefficients,
    given lowest degree first: deg b shifted rows of a over deg a shifted
    rows of b, highest degree in the first column.  Its determinant is
    Res(a, b) (1 when both are constants)."""
    m, n = len(a) - 1, len(b) - 1
    return [[0] * i + list(a[::-1]) + [0] * (n - 1 - i) for i in range(n)] + [
        [0] * i + list(b[::-1]) + [0] * (m - 1 - i) for i in range(m)
    ]


def frac_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def laplace_det(mat: Sequence[Sequence], one):
    """Cofactor expansion along the first row over any commutative ring
    whose elements support +, - and * (such as LaurentPoly); ``one`` is the
    ring's unit.  m! terms, so only for small m."""
    m = len(mat)
    if m == 0:
        return one
    total = one - one
    for j in range(m):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * laplace_det(minor, one)
        total = total + term if j % 2 == 0 else total - term
    return total


def _floor_sqrt_frac(q: Fraction) -> int:
    if q < 0:
        return -1
    return isqrt(q.numerator * q.denominator) // q.denominator


def _box_radii(gram: Sequence[Sequence[int]], bound: int) -> List[int]:
    # |x_i| <= sqrt(bound * (G^-1)_ii) for any x with x^T G x <= bound
    inv = frac_inverse(gram)
    return [_floor_sqrt_frac(bound * inv[i][i]) for i in range(len(gram))]


def entrywise_norm(gram, v) -> int:
    return sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


def entrywise_is_characteristic(gram, w) -> bool:
    """(w, e_i) = (e_i, e_i) mod 2 for every i, summed one entry at a time."""
    r = len(gram)
    return all((sum(gram[i][j] * w[j] for j in range(r)) - gram[i][i]) % 2 == 0 for i in range(r))


def entrywise_gram_error(gram) -> Optional[str]:
    """The ValueError message of `GramMatrix(gram)`, or None when it accepts:
    an entry-by-entry scan in row order, the reference for the order and the
    messages of the constructor's row-wise checks."""
    rows = tuple(tuple(row) for row in gram)
    r = len(rows)
    if r == 0:
        return "rank must be positive"
    for row in rows:
        if len(row) != r:
            return "gram must be square"
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                return "gram entries must be integers"
    for i in range(r):
        for j in range(i + 1, r):
            if rows[i][j] != rows[j][i]:
                return f"asymmetric at ({i},{j})"
    return None


def _canon(v: Sequence[int]) -> Vec:
    for c in v:
        if c:
            return tuple(v) if c > 0 else tuple(-x for x in v)
    return tuple(v)


def brute_force_short(gram: Sequence[Sequence[int]], bound: int) -> Set[Vec]:
    """All +/- pair representatives with 0 < x^T G x <= bound, by box search."""
    radii = _box_radii(gram, bound)
    out: Set[Vec] = set()
    for v in product(*(range(-r, r + 1) for r in radii)):
        if any(v):
            if entrywise_norm(gram, v) <= bound:
                out.add(_canon(v))
    return out


def brute_force_coset(
    gram: Sequence[Sequence[int]], c: Sequence[int], bound: int
) -> Set[Vec]:
    """All +/- pair reps w = c mod 2 with x^T G x <= bound (zero included
    when c is even)."""
    radii = _box_radii(gram, bound)
    out: Set[Vec] = set()
    for v in product(*(range(-r, r + 1) for r in radii)):
        if all((x - y) % 2 == 0 for x, y in zip(v, c)):
            if entrywise_norm(gram, v) <= bound:
                out.add(_canon(v))
    return out


# -- Fraction Gram-Schmidt LLL and Fincke-Pohst enumeration ----------------------
#
# The package's original LLL and enumerator, over Fraction Gram-Schmidt data
# (mu, B) recomputed from scratch after every swap.  The integral core must
# reproduce them exactly: the same reduced Gram, the same U and U^-1, the same
# pairs and the same number of search-tree nodes.


def frac_gso(gram) -> Tuple[List[List[Fraction]], List[Fraction]]:
    """Gram-Schmidt data (mu, B) of a Gram matrix; ValueError unless
    positive definite."""
    r = len(gram)
    mu = [[Fraction(0)] * r for _ in range(r)]
    B = [Fraction(0)] * r
    for i in range(r):
        for j in range(i):
            s = Fraction(gram[i][j])
            for k in range(j):
                s -= mu[j][k] * mu[i][k] * B[k]
            mu[i][j] = s / B[j]
        s = Fraction(gram[i][i])
        for k in range(i):
            s -= mu[i][k] * mu[i][k] * B[k]
        if s <= 0:
            raise ValueError("matrix is not positive definite")
        B[i] = s
    return mu, B


def frac_lll(gram_in):
    """Gram-only LLL with delta = 3/4: (G', U, U^-1) with U^T G U = G'."""
    r = len(gram_in)
    g = [list(row) for row in gram_in]
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    Uinv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    mu, B = frac_gso(g)
    k = 1
    while k < r:
        for j in range(k - 1, -1, -1):
            q = (mu[k][j] + Fraction(1, 2)).__floor__()
            if q != 0:
                for i in range(r):
                    g[k][i] -= q * g[j][i]
                for i in range(r):
                    g[i][k] -= q * g[i][j]
                for t in range(r):
                    U[t][k] -= q * U[t][j]
                    Uinv[j][t] += q * Uinv[k][t]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if B[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            for t in range(r):
                U[t][k], U[t][k - 1] = U[t][k - 1], U[t][k]
            Uinv[k], Uinv[k - 1] = Uinv[k - 1], Uinv[k]
            mu, B = frac_gso(g)
            k = max(k - 1, 1)
    return g, U, Uinv


def _frac_shifted(gram, t: List[Fraction], bound: Fraction):
    """One integer v of each pair v + t, -(v + t) with (v+t)^T G (v+t) <=
    bound, and the number of search-tree nodes (one per call of the level
    recursion).  The pair's member is the one whose last nonzero z = v + t
    coordinate is positive: while every higher z is 0, a level takes only
    candidates with z_j >= 0."""
    r = len(gram)
    mu, B = frac_gso(gram)
    sols: List[List[int]] = []
    nodes = 0
    v = [0] * r
    z = [Fraction(0)] * r

    def rec(j: int, remaining: Fraction, top: bool) -> None:
        nonlocal nodes
        nodes += 1
        c = t[j] + sum(mu[i][j] * z[i] for i in range(j + 1, r))
        s2 = remaining / B[j]
        half = Fraction(isqrt(s2.numerator * s2.denominator), s2.denominator)
        lo, hi = (-c - half).__ceil__(), (-c + half).__floor__()
        while B[j] * (hi + 1 + c) ** 2 <= remaining:
            hi += 1
        while B[j] * (lo - 1 + c) ** 2 <= remaining:
            lo -= 1
        if top:
            lo = max(lo, (-t[j]).__ceil__())
        for cand in range(lo, hi + 1):
            v[j] = cand
            z[j] = cand + t[j]
            if j == 0:
                sols.append(v.copy())
            else:
                rec(j - 1, remaining - B[j] * (cand + c) ** 2, top and z[j] == 0)
        v[j] = 0
        z[j] = Fraction(0)

    rec(r - 1, bound, True)
    return sols, nodes


def frac_enumerate_short(gram, bound: int) -> Tuple[Set[Vec], int]:
    """Pairs with 0 < norm <= bound after Fraction LLL, and the node count."""
    r = len(gram)
    g, U, _ = frac_lll(gram)
    sols, nodes = _frac_shifted(g, [Fraction(0)] * r, Fraction(bound))
    out = {
        _canon([sum(U[i][j] * v[j] for j in range(r)) for i in range(r)])
        for v in sols
        if any(v)
    }
    return out, nodes


def frac_enumerate_coset(gram, c: Sequence[int], bound: int) -> Tuple[Set[Vec], int]:
    """Pairs w = c (mod 2) with norm <= bound, as the shift w = cr + 2v of the
    LLL basis (|w|^2 = 4 |v + cr/2|^2), and the node count."""
    r = len(gram)
    g, U, Uinv = frac_lll(gram)
    cr = [sum(Uinv[i][j] * (c[j] % 2) for j in range(r)) % 2 for i in range(r)]
    sols, nodes = _frac_shifted(g, [Fraction(x, 2) for x in cr], Fraction(bound, 4))
    out = set()
    for v in sols:
        wr = [cr[i] + 2 * v[i] for i in range(r)]
        out.add(_canon([sum(U[i][j] * wr[j] for j in range(r)) for i in range(r)]))
    return out, nodes


# -- symbolic determinant of the rank-4 family ---------------------------------
#
# Polynomials in one commuting variable "a" as dense coefficient lists.  The
# family's matrix has entries of degree <= 2 in a; its determinant collapses
# to the constant 1, which proves det = 1 for every substituted multiplier.


def _padd(p: List[int], q: List[int]) -> List[int]:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _pneg(p: List[int]) -> List[int]:
    return [-c for c in p]

def _pmul(p: List[int], q: List[int]) -> List[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def _pdet(mat: List[List[List[int]]]) -> List[int]:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total: List[int] = []
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = _pmul(mat[0][j], _pdet(minor))
        total = _padd(total, term if j % 2 == 0 else _pneg(term))
    return total


def symbolic_family_det() -> List[int]:
    """Determinant of the rank-4 family as a polynomial in a; expect [1]."""
    one, a = [1], [0, 1]
    a2 = _pmul(a, a)
    opa = _padd(one, a)           # 1 + a
    apa2 = _padd(a, a2)           # a + a^2
    opapa2 = _padd(one, apa2)     # 1 + a + a^2
    two = [2]
    zero: List[int] = []
    mat = [
        [opapa2, apa2, opa, a],
        [apa2, opapa2, a, opa],
        [opa, a, two, zero],
        [a, opa, zero, two],
    ]
    return _pdet(mat)


# -- root lattice Grams ---------------------------------------------------------


def _simple_root_gram(typ: str, n: int) -> GramMatrix:
    edges = dynkin_edges(typ, n)
    return GramMatrix(
        [
            [
                2 if i == j else (-1 if frozenset((i + 1, j + 1)) in edges else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def a_gram(n: int) -> GramMatrix:
    return _simple_root_gram("A", n)


def d_gram(n: int) -> GramMatrix:
    return _simple_root_gram("D", n)


def e8_gram() -> GramMatrix:
    return _simple_root_gram("E", 8)


# -- the hermitian pairing ------------------------------------------------------


def sesq_eval(G, u: Sequence, v: Sequence):
    """<u, v> = sum_ij u_i G[i][j] conj(v_j) over Z[x,1/x], for a
    HermitianForm and LaurentPoly vectors; linear in u, conjugate-linear in
    v.  Its value over Z[C_n] is its reduction mod x^n - 1."""
    m = G.size
    if len(u) != m or len(v) != m:
        raise ValueError("vector length must match the form size")
    rows = G.rows()
    terms = (u[i] * rows[i][j] * v[j].conj() for i in range(m) for j in range(m))
    return sum(terms, u[0] - u[0])


def module_basis_vector(m: int, i: int, j: int = 0) -> List[LaurentPoly]:
    """x^j e_i (i 0-based) as a LaurentPoly vector of length m."""
    return [LaurentPoly.monomial(j) if k == i else LaurentPoly.zero() for k in range(m)]


# -- half-integer overlattice counts -------------------------------------------
#
# Gamma_4m = D_4m + the glue vector g = (1/2,...,1/2).  In doubled
# coordinates u = 2w its norm-2 vectors split into the all-even branch
# (+-e_i +- e_j, always present) and the all-odd branch (only at rank 8).


def gamma_root_count(rank: int) -> int:
    assert rank % 4 == 0 and rank >= 4
    count = 0
    # all-even branch: u has two entries +-2, rest 0; sum is 0 or +-4
    count += 2 * rank * (rank - 1)
    # all-odd branch: sum of squares 4*2=8 with every |u_i| >= 1 needs rank 8
    if rank == 8:
        for signs in product((1, -1), repeat=8):
            if sum(signs) % 4 == 0:
                count += 1
    return count


# -- overlattices from glue vectors ---------------------------------------------
#
# A root lattice plus rational glue vectors spans an overlattice.  Scaling
# every generator by the common denominator makes them integral; integer row
# reduction of the scaled generators (Euclid down each column, as in a Hermite
# normal form) leaves a triangular basis of the same lattice.


def _echelon(rows: List[List[int]], ncols: int) -> List[List[int]]:
    rows = [list(r) for r in rows]
    basis = []
    for col in range(ncols):
        while True:
            live = [r for r in rows if r[col]]
            if len(live) <= 1:
                break
            piv = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not piv:
                    q = r[col] // piv[col]
                    r[:] = [a - q * b for a, b in zip(r, piv)]
        piv = next(r for r in rows if r[col])
        rows.remove(piv)
        basis.append(piv)
    return basis


def glue_overlattice(
    gram: Sequence[Sequence[int]], glue: Sequence[Sequence[Fraction]]
) -> List[List[int]]:
    """Gram matrix of the lattice spanned by the basis of `gram` and the
    `glue` vectors, given as rational coordinates in that basis."""
    n = len(gram)
    den = lcm(*(Fraction(x).denominator for g in glue for x in g))
    gens = [[den if i == j else 0 for j in range(n)] for i in range(n)]
    gens += [[int(den * Fraction(x)) for x in g] for g in glue]
    basis = _echelon(gens, n)
    out = []
    for u in basis:
        row = []
        for v in basis:
            q = Fraction(
                sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n)),
                den * den,
            )
            if q.denominator != 1:
                raise ValueError("glue vectors do not pair integrally")
            row.append(q.numerator)
        out.append(row)
    return out


# -- random unimodular basis changes (generator, not an oracle) ----------------


def random_unimodular(rng, k: int, steps: int = 6) -> List[List[int]]:
    """Product of elementary integer row operations; det is +-1 by design."""
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(k)
        j = rng.randrange(k)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        elif kind == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return u


def apply_basis_change(gram: Sequence[Sequence[int]], u: Sequence[Sequence[int]]):
    """U G U^T as plain lists (rows of U are the new basis vectors)."""
    k = len(gram)
    gu = [
        [sum(gram[i][l] * u[j][l] for l in range(k)) for j in range(k)]
        for i in range(k)
    ]
    return [[sum(u[i][l] * gu[l][j] for l in range(k)) for j in range(k)] for i in range(k)]
