"""Integral lattice core: exact validation, LLL reduction, and enumeration.

Everything here is exact and runs on Python integers only.  Determinants and
principal minors use fraction-free Bareiss elimination; LLL and the
Fincke-Pohst enumerator work on the integral Gram-Schmidt data (leading minors
d_i and lam_ij = d_{j+1} mu_ij).  No floating point and no rationals anywhere:
the downstream standardness and defect certificates rely on exact comparisons.

A `GramMatrix` makes one Bareiss sweep (rank, determinant, definiteness by
Sylvester's criterion and, when definite, the integral Gram-Schmidt data on
its pivot rows) and one LLL reduction started from that data, each on first
use, and keeps both as tuples: a Gram is eliminated once, a call that only
asks for the determinant or definiteness never reduces, and every enumeration
starts from the reduction.  The reduction keeps only the transform U and the
integral Gram-Schmidt data (d, lam) of the reduced basis; `lll_reduce` forms
the reduced Gram on request, and a coset's residue in the reduced basis is
one GF(2) solve against U.  Neither spends enumeration nodes, so neither
counts against a budget.  Every Gram matrix V^T G V of a list of vectors, the
reduced Gram and the certificate checks alike, comes from `_gram_of`: one
product G v per vector, then dot products.

Enumeration walks a bounded search tree; every visited node counts against a
caller-supplied node budget (default 10^9) and exhausting it raises
``BudgetExceeded`` rather than silently truncating.  The tree visits one
vector of each +/- pair (the sign rule of Schnorr & Euchner, *Math.
Programming* 66, 1994: the last nonzero coordinate in the reduced basis is
positive), and its leaves know each solution's exact norm, so an
``EnumerationResult`` carries the norms and the node count along with the
pairs and nothing downstream recomputes a norm.  The tree is a generator that
visits nodes only as its solutions are pulled; callers that chain coset passes
(`charvec`) pull them from `_coset`, which spends from the caller's `_Budget`.
"""

from __future__ import annotations

from itertools import chain
from math import isqrt, lcm
from operator import eq, mul
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

DEFAULT_NODE_BUDGET = 10**9

Vector = Tuple[int, ...]
_Sweep = Tuple[int, int, Optional[Tuple[Vector, Tuple[Vector, ...]]]]


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration visits more nodes than its budget allows."""

    def __init__(self, nodes: int, budget: int):
        super().__init__(f"enumeration budget exhausted ({nodes} > {budget} nodes)")
        self.nodes = nodes
        self.budget = budget


def _int_type(t: type) -> bool:
    """Whether entries of type t are integers: int and its subclasses, not bool."""
    return issubclass(t, int) and t is not bool


def _is_vector(G: GramMatrix, v) -> bool:
    """Whether v is a vector of G's lattice: a list or tuple of G.rank ints,
    bools excluded.  The certificate checks reject anything else."""
    return isinstance(v, (list, tuple)) and len(v) == G.rank and all(map(_int_type, map(type, v)))


class GramMatrix:
    """Symmetric integer matrix, the Gram matrix of a based lattice.

    The constructor rejects a matrix that is empty, not square, has an entry
    that is not an int (bools are rejected), or is not symmetric, with the
    same message the first offending row or entry would give in a scan in
    row order.  The checks run over whole rows, types and row/column pairs,
    so validating a rank-r matrix takes r^2 C-level steps but only O(r)
    Python-level ones.
    """

    __slots__ = ("_rank", "_gram", "_sweep", "_reduction")

    def __init__(self, gram: Sequence[Sequence[int]]):
        rows = tuple(map(tuple, gram))
        r = len(rows)
        if r == 0:
            raise ValueError("rank must be positive")
        # bulk checks first; on a failure, the row-by-row loop names it
        types = set(map(type, chain.from_iterable(rows)))
        if any(len(row) != r for row in rows) or not all(map(_int_type, types)):
            for row in rows:
                if len(row) != r:
                    raise ValueError("gram must be square")
                if not all(_int_type(type(v)) for v in row):
                    raise ValueError("gram entries must be integers")
        # one row against one column at a time, never a transposed copy
        if not all(map(eq, rows, zip(*rows))):
            for i in range(r):
                for j in range(i + 1, r):
                    if rows[i][j] != rows[j][i]:
                        raise ValueError(f"asymmetric at ({i},{j})")
        self._rank = r
        self._gram = rows
        self._sweep = None
        self._reduction = None

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def gram(self) -> Tuple[Tuple[int, ...], ...]:
        return self._gram

    def diagonal(self) -> Tuple[int, ...]:
        return tuple(self._gram[i][i] for i in range(self._rank))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GramMatrix):
            return NotImplemented
        return self._gram == other._gram

    def __hash__(self) -> int:
        return hash(self._gram)

    def __repr__(self) -> str:
        return f"GramMatrix(rank={self._rank})"

    def is_odd(self) -> bool:
        """Odd lattice: some vector has odd norm (iff some diagonal entry is odd)."""
        return any(d % 2 for d in self.diagonal())

    def _swept(self) -> _Sweep:
        """The `_bareiss` sweep (rank, det, gso), made on first use."""
        if self._sweep is None:
            self._sweep = _bareiss(self._gram)
        return self._sweep

    def _reduced(self):
        """The `_lll_core` reduction (U, d, lam) of the sweep's Gram-Schmidt
        data, made on first use.  Raises ValueError when the matrix is not
        positive definite."""
        if self._reduction is None:
            gso = self._swept()[2]
            if gso is None:
                raise ValueError("matrix is not positive definite")
            self._reduction = _lll_core(*gso)
        return self._reduction

    def determinant(self) -> int:
        return self._swept()[1]

    def is_positive_definite(self) -> bool:
        """Whether every leading minor is positive, read off the sweep."""
        return self._swept()[2] is not None

    def to_json_dict(self) -> dict:
        return {"rank": self._rank, "gram": [list(row) for row in self._gram]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GramMatrix":
        if not isinstance(data, dict):
            raise ValueError("a Gram matrix must be a JSON object")
        rank = data.get("rank")
        gram = data.get("gram")
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise ValueError("bad rank")
        if not isinstance(gram, list) or len(gram) != rank:
            raise ValueError("rank does not match gram size")
        return cls(gram)


def inner(G: GramMatrix, u: Sequence[int], v: Sequence[int]) -> int:
    """u^T G v, exactly."""
    r = G.rank
    if len(u) != r or len(v) != r:
        raise ValueError("vector length must match rank")
    g = G.gram
    return sum(ui * sum(map(mul, g[i], v)) for i, ui in enumerate(u) if ui)


def norm(G: GramMatrix, v: Sequence[int]) -> int:
    return inner(G, v, v)


def _image(G: GramMatrix, v: Sequence[int]) -> Vector:
    """G v, one C-level dot product per row.  One product gives both the
    parities (v, e_i) and the norm (v, v) = v . G v."""
    if len(v) != G.rank:
        raise ValueError("vector length must match rank")
    return tuple(sum(map(mul, row, v)) for row in G.gram)


def _gram_of(G: GramMatrix, vectors: Sequence[Sequence[int]]) -> Tuple[Vector, ...]:
    """V^T G V for the columns V = (v_1, ..., v_k): entry (i, j) is
    v_i^T G v_j.  One product G v per vector, then one dot product per entry.
    A vector whose length is not the rank raises ValueError."""
    images = [_image(G, v) for v in vectors]
    return tuple(tuple(sum(map(mul, u, gv)) for gv in images) for u in vectors)


def direct_sum(G1: GramMatrix, G2: GramMatrix) -> GramMatrix:
    r1, r2 = G1.rank, G2.rank
    rows = []
    for i in range(r1):
        rows.append(list(G1.gram[i]) + [0] * r2)
    for i in range(r2):
        rows.append([0] * r1 + list(G2.gram[i]))
    return GramMatrix(rows)


# -- exact elimination --------------------------------------------------------


def _bareiss(rows: Sequence[Sequence[int]]) -> _Sweep:
    """One fraction-free (Bareiss) sweep to echelon form: (rank, det, gso).

    Each step takes the first row at or below the current one with a nonzero
    entry in the column, swaps it up if needed, and eliminates below it;
    after a step every entry below the pivot rows is a minor of the input, so
    dividing by the previous pivot is exact.  ``det`` is the determinant of a
    square input (0 when the rank is short).  With no swap and no skipped
    column the pivots are the leading minors d[1..r] (d[0] = 1), and pivot
    row j of a symmetric input reads (0, ..., 0, d[j+1], lam[j+1][j], ...,
    lam[r-1][j]) with lam[i][j] = d[j+1] mu_ij: the integral Gram-Schmidt
    data of Cohen, *A Course in Computational Algebraic Number Theory*, Alg.
    2.6.7.  When every pivot is also positive, the input is positive definite
    (Sylvester's criterion) and ``gso`` is (d, lam), lam zero on and above
    its diagonal; otherwise ``gso`` is None.
    """
    m = [list(row) for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank = 0
    sign = 1
    prev = 1
    definite = True
    for col in range(ncols):
        sel = next((i for i in range(rank, nrows) if m[i][col]), None)
        if sel is None:
            continue
        if sel != rank:
            m[rank], m[sel] = m[sel], m[rank]
            sign = -sign
        top = m[rank]
        piv = top[col]
        definite = definite and sel == rank == col and piv > 0
        for i in range(rank + 1, nrows):
            f = m[i][col]
            m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = piv
        rank += 1
        if rank == nrows:
            break
    full = rank == nrows == ncols
    if not (definite and full):
        return rank, sign * prev if full else 0, None
    # column i of the echelon form is (lam[i][0], ..., lam[i][i-1], d[i+1], 0, ...)
    cols = list(zip(*m))
    d = (1, *(cols[i][i] for i in range(rank)))
    lam = tuple(col[:i] + (0,) * (rank - i) for i, col in enumerate(cols))
    return rank, prev, (d, lam)


def _solve_mod2(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Vector:
    """The 0/1 vector x with rows x = rhs (mod 2), by Gauss-Jordan elimination
    over GF(2) on the square integer matrix ``rows``.  Each augmented row is
    one int, bit j for column j and bit r for rhs, so a row operation is one
    XOR.  Raises ValueError when the determinant is even."""
    r = len(rows)
    aug = [sum((a & 1) << j for j, a in enumerate((*row, b))) for row, b in zip(rows, rhs)]
    for col in range(r):
        sel = next((i for i in range(col, r) if aug[i] >> col & 1), None)
        if sel is None:
            raise ValueError("matrix is singular mod 2")
        aug[col], aug[sel] = aug[sel], aug[col]
        top = aug[col]
        for i in range(r):
            if i != col and aug[i] >> col & 1:
                aug[i] ^= top
    return tuple(row >> r & 1 for row in aug)


# -- LLL ----------------------------------------------------------------------


def _rows(m) -> Tuple[Tuple[int, ...], ...]:
    return tuple(map(tuple, m))


def _lll_core(d, lam):
    """Gram-only LLL with the Lovasz constant 3/4, started from the integral
    Gram-Schmidt data (d, lam) of a positive definite Gram G (its sweep's
    ``gso``).  Returns (U, d, lam) as tuples: U, whose columns are the
    reduced basis in input coordinates, so U^T G U is the reduced Gram, and
    (d, lam) of that basis, all integers.

    Size reduction and the Lovasz test read only (d, lam), which are updated
    in copies on each size reduction and swap (Cohen, Alg. 2.6.7), so the
    input tuples never change and the reduced Gram is never formed.  Row k
    is reduced against every earlier row, rounding mu = lam / d to
    floor(mu + 1/2), before the Lovasz test B_k >= (3/4 - mu_{k,k-1}^2)
    B_{k-1}, which in integers reads 4 d[k+1] d[k-1] >= 3 d[k]^2 -
    4 lam_{k,k-1}^2.
    """
    r = len(lam)
    basis = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    d, lam = list(d), [list(row) for row in lam]

    def row_op(k: int, j: int, q: int) -> None:
        # b_k <- b_k - q b_j
        basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
        lk, lj = lam[k], lam[j]
        for i in range(j):
            lk[i] -= q * lj[i]
        lk[j] -= q * d[j + 1]

    def swap(k: int) -> None:
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        lk, lk1 = lam[k], lam[k - 1]
        lk[: k - 1], lk1[: k - 1] = lk1[: k - 1], lk[: k - 1]
        l = lk[k - 1]
        b = (d[k - 1] * d[k + 1] + l * l) // d[k]
        for i in range(k + 1, r):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - l * t) // d[k]
            li[k - 1] = (b * t + l * li[k]) // d[k + 1]
        d[k] = b

    k = 1
    while k < r:
        for j in range(k - 1, -1, -1):
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            if q != 0:
                row_op(k, j, q)
        l = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * l * l:
            k += 1
        else:
            swap(k)
            k = max(k - 1, 1)
    return _rows(zip(*basis)), tuple(d), _rows(lam)


def lll_reduce(G: GramMatrix):
    """LLL-reduce, returning (G', U) with U^T G U = G' and |det U| = 1.
    G' is formed here, as `_gram_of` the columns of U."""
    U = G._reduced()[0]
    return GramMatrix(_gram_of(G, list(zip(*U)))), U


# -- enumeration --------------------------------------------------------------


class EnumerationResult(NamedTuple):
    """Canonically sorted +/- pair representatives within a norm bound.

    ``norms[i]`` is the exact norm of ``pairs[i]``, read off the search tree,
    and ``nodes`` is the number of tree nodes the enumeration visited.
    """

    bound: int
    pairs: Tuple[Vector, ...]
    norms: Tuple[int, ...]
    nodes: int


def canonical_rep(v: Sequence[int]) -> Vector:
    """The +/- pair representative: first nonzero coordinate positive."""
    for c in v:
        if c != 0:
            return tuple(v) if c > 0 else tuple(-x for x in v)
    return tuple(v)


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(self.used, self.limit)


def _enumerate(d, lam, U, parity: Sequence[int], step: int, bound: int, budget: _Budget):
    """Yields (U w, w^T G w), in tree order, for one w of each +/- pair of
    integer vectors with w_j = parity_j (mod step) and w^T G w <= bound, where
    G is the reduced Gram matrix and U maps its basis to the input basis.  The
    tree advances only as solutions are pulled.

    Fincke-Pohst over the integral Gram-Schmidt data (d, lam) of G.  With
    x_j = d[j+1] w_j + sum_{i>j} lam_ij w_i the form is
    sum_j x_j^2 / (d[j] d[j+1]); scaling by M = lcm_j d[j] d[j+1] makes each
    level's weight W_j = M / (d[j] d[j+1]) an integer, and level j's window
    is |x_j| <= isqrt(remaining // W_j).  While every higher level is 0 the
    window is symmetric and a level takes only candidates >= 0, so the last
    nonzero coordinate of each solution is positive and -w is never visited;
    the coset is closed under w -> -w because -c = c (mod 2).  U w is built
    along the path, one column of U per nonzero level, and at a leaf the
    scaled slack left is M (bound - norm), which gives the norm exactly: a
    solution costs O(r) beyond its node.  Every level visited counts one
    node against the budget.
    """
    r = len(lam)
    M = lcm(*(d[j] * d[j + 1] for j in range(r)))
    W = [M // (d[j] * d[j + 1]) for j in range(r)]
    # column j of lam: lam is zero on and above its diagonal, so the column
    # is zero on rows <= j, where w is still 0 at level j
    cols = list(zip(*lam))
    ucols = list(zip(*U))
    w = [0] * r

    def rec(j: int, remaining: int, top: bool, v: List[int]) -> Iterator[Tuple[List[int], int]]:
        # v = U w, with w_j .. w_0 still 0
        budget.spend()
        dj, wj, uj = d[j + 1], W[j], ucols[j]
        s = isqrt(remaining // wj)
        if top:  # w is 0 above level j, so e = 0: take w_j >= 0
            e, lo = 0, parity[j]
        else:
            e = sum(map(mul, cols[j], w))
            lo = -((s + e) // dj)
            lo += (parity[j] - lo) % step
        for cand in range(lo, (s - e) // dj + 1, step):
            w[j] = cand
            x = dj * cand + e
            u = [a + cand * b for a, b in zip(v, uj)] if cand else v
            if j == 0:
                yield u, bound - (remaining - wj * x * x) // M
            else:
                yield from rec(j - 1, remaining - wj * x * x, top and not cand, u)
        w[j] = 0

    yield from rec(r - 1, M * bound, True, [0] * r)


def _input_pairs(sols) -> Tuple[Tuple[Vector, ...], Tuple[int, ...]]:
    """Sorted +/- pair representatives of the solutions (U w, norm), with
    their norms in the same order.  The sign rule of `_enumerate` has
    already kept one w of each pair, so every solution gives one pair."""
    out = sorted((canonical_rep(v), nv) for v, nv in sols)
    return tuple(v for v, _ in out), tuple(nv for _, nv in out)


def enumerate_short(
    G: GramMatrix, bound: int, max_nodes: int = DEFAULT_NODE_BUDGET
) -> EnumerationResult:
    """All +/- pairs with 0 < norm <= bound (Fincke-Pohst after LLL)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    U, d, lam = G._reduced()
    budget = _Budget(max_nodes)
    sols = _enumerate(d, lam, U, [0] * G.rank, 1, bound, budget)
    nonzero = ((v, nv) for v, nv in sols if nv)
    return EnumerationResult(bound, *_input_pairs(nonzero), budget.used)


def enumerate_coset(
    G: GramMatrix,
    c: Sequence[int],
    bound: int,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> EnumerationResult:
    """All +/- pairs w with w = c (mod 2) coordinate-wise and |w|^2 <= bound.

    The zero vector is listed (once) exactly when c = 0 mod 2.  The
    enumeration runs in the LLL basis, where the coset is the solution x of
    U x = c (mod 2), and steps each coordinate through its residue class
    directly.
    """
    budget = _Budget(max_nodes)
    return EnumerationResult(bound, *_input_pairs(_coset(G, c, bound, budget)), budget.used)


def _coset(
    G: GramMatrix, c: Sequence[int], bound: int, budget: _Budget
) -> Iterator[Tuple[List[int], int]]:
    """The solutions (U w, norm) of `enumerate_coset`, lazily in tree order,
    spending from ``budget``: passes sharing one budget raise `BudgetExceeded`
    with their total.  The bound and the shift are checked at the call."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if len(c) != G.rank:
        raise ValueError("shift length must match rank")
    U, d, lam = G._reduced()
    return _enumerate(d, lam, U, _solve_mod2(U, c), 2, bound, budget)
