"""Root systems, the reference lattices I_k and Gamma_4m, and identification
by the rank <= 16 classification.

Roots are the norm-2 vectors of a definite lattice.  Their span decomposes
into an orthogonal sum of simply-laced root lattices (types A, D, E), and
each irreducible piece is pinned down by its rank together with its root
count: A_n has n(n+1) roots, D_n has 2n(n-1), and E6/E7/E8 have 72/126/240.

Every positive definite integral lattice is Z^k + L, where k is its number
of norm-1 pairs and L has no norm-1 vectors.  A root of Z^k meets some unit
and a root of L meets none, so one bound-2 enumeration and one root graph
give `root_system` the whole decomposition, the k unit pairs, and the core:
the components that make up the root system of L.  On a standard lattice
the unit pairs are the orthonormal certificate of `charvec.is_standard`.
At determinant 1 and rank <= 16, L is one of the eight lattices of Conway
& Sloane, *Sphere Packings, Lattices and Groups*, ch. 16, Table 16.7: 0,
E8, D12+, E7^2+, A15+, E8^2, D16+ or D8^2+, and its root system
determines it.  So `identify` names a lattice by one table lookup on the
caller's `root_system` report, with no enumeration of its own, and never
through an isometry search or reference data computed at run time.
"""

from __future__ import annotations

from operator import mul
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

from hermlat.lattice import (
    DEFAULT_NODE_BUDGET,
    GramMatrix,
    _bareiss,
    _gram_of,
    _image,
    _is_vector,
    enumerate_short,
)

Vector = Tuple[int, ...]


# -- reference lattices ---------------------------------------------------------


def identity_gram(k: int) -> GramMatrix:
    if k < 1:
        raise ValueError("rank must be >= 1")
    return GramMatrix([[1 if i == j else 0 for j in range(k)] for i in range(k)])


def dynkin_edges(typ: str, n: int) -> FrozenSet[FrozenSet[int]]:
    """Edge set of the Dynkin diagram on nodes 1..n.

    A_n is the path; D_n (n >= 2) forks at node n-2 into n-1 and n; E_n
    (n = 6,7,8) hangs node n off node n-3 of the path 1..n-1.
    """
    if typ == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        return frozenset(frozenset((i, i + 1)) for i in range(1, n))
    if typ == "D":
        if n < 2:
            raise ValueError("D_n needs n >= 2")
        if n == 2:
            return frozenset()
        edges = {frozenset((i, i + 1)) for i in range(1, n - 1)}
        edges.add(frozenset((n - 2, n)))
        return frozenset(edges)
    if typ == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs n in {6, 7, 8}")
        edges = {frozenset((i, i + 1)) for i in range(1, n - 1)}
        edges.add(frozenset((n - 3, n)))
        return frozenset(edges)
    raise ValueError(f"unknown type {typ!r}")


def gamma_gram(rank: int) -> GramMatrix:
    """The half-integer overlattice of D_rank, rank = 4m.

    Basis: g = (v_1 + ... + v_4m)/2, then v_1 + v_2, then v_i - v_{i-1} for
    i = 2..4m-1, built in doubled coordinates so everything stays integral.
    Unimodularity is asserted at construction.
    """
    if rank < 4 or rank % 4:
        raise ValueError("rank must be a positive multiple of 4")
    basis2: List[List[int]] = [[1] * rank]
    row = [0] * rank
    row[0] = row[1] = 2
    basis2.append(row)
    for i in range(2, rank):  # v_i - v_{i-1}, 1-based i up to rank-1
        row = [0] * rank
        row[i - 1] = 2
        row[i - 2] = -2
        basis2.append(row)
    gram4 = _gram_of(identity_gram(rank), basis2)
    if any(dot % 4 for row in gram4 for dot in row):
        raise AssertionError("basis vectors must pair integrally")
    G = GramMatrix([[dot // 4 for dot in row] for row in gram4])
    if G.determinant() != 1:
        raise AssertionError("half-integer overlattice basis must have det 1")
    return G


# -- roots and components ------------------------------------------------------

# The lattices without norm-1 vectors in SPLAG Table 16.7, keyed by their root
# systems.  Each root system spans its lattice, so the rank of a core is the
# sum of its component ranks.
_CORES: Dict[Tuple[Tuple[str, int, int], ...], str] = {
    (): "",
    (("E", 8, 240),): "E8",
    (("D", 12, 264),): "Gamma12",
    (("E", 7, 126), ("E", 7, 126)): "E7^2[11]",
    (("A", 15, 240),): "A15[4]",
    (("E", 8, 240), ("E", 8, 240)): "E8+E8",
    (("D", 16, 480),): "Gamma16",
    (("D", 8, 112), ("D", 8, 112)): "D8^2[(12)]",
}


class RootSystemReport(NamedTuple):
    """ADE decomposition of the root sublattice of Z^k + L.

    `components` covers every root; `units` are the k norm-1 pairs, sorted as
    `enumerate_short` lists them, and `core` lists the components whose roots
    are orthogonal to all of them, the root system of L.
    """

    components: Tuple[Tuple[str, int, int], ...]  # (type, rank, root count)
    total_roots: int
    spanning_rank: int
    units: Tuple[Vector, ...]
    core: Tuple[Tuple[str, int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {"type": t, "rank": r, "roots": c} for (t, r, c) in self.components
            ]
        }


def _component_type(rank: int, count: int) -> Tuple[str, int, int]:
    if count == rank * (rank + 1):
        return ("A", rank, count)
    if rank >= 4 and count == 2 * rank * (rank - 1):
        return ("D", rank, count)
    if (rank, count) in ((6, 72), (7, 126), (8, 240)):
        return ("E", rank, count)
    raise AssertionError(
        f"root component of rank {rank} with {count} roots is not simply laced"
    )


def _root_graph(pairs: Sequence[Vector], images: Sequence[Vector]) -> List[List[int]]:
    """Connected components, as index lists, of the graph on the root pairs
    whose edges join roots with nonzero inner product.  ``images[i]`` is
    G pairs[i], so an edge test is an O(r) dot product, and it is made only
    for pairs whose union-find roots still differ."""
    k = len(pairs)
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        ri, gi = find(i), images[i]
        for j in range(i + 1, k):
            rj = find(j)
            if ri != rj and sum(map(mul, gi, pairs[j])):
                parent[ri] = rj
                ri = rj
    groups: Dict[int, List[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def root_system(G: GramMatrix, max_nodes: int = DEFAULT_NODE_BUDGET) -> RootSystemReport:
    """Components of the root graph, each typed by its span rank and root
    count, with the norm-1 pairs and the core, all from one bound-2
    enumeration, whose norms split the units from the roots.  In a definite
    lattice the components span mutually orthogonal sublattices, so the
    span of all roots has the sum of their ranks."""
    found = enumerate_short(G, 2, max_nodes=max_nodes)
    units = [v for v, nv in zip(found.pairs, found.norms) if nv == 1]
    roots = [v for v, nv in zip(found.pairs, found.norms) if nv == 2]
    images = [_image(G, v) for v in roots]
    components, core = [], []
    for comp in _root_graph(roots, images):
        typed = _component_type(_bareiss([roots[i] for i in comp])[0], 2 * len(comp))
        components.append(typed)
        if not any(sum(map(mul, images[i], u)) for i in comp for u in units):
            core.append(typed)
    return RootSystemReport(
        components=tuple(sorted(components)),
        total_roots=2 * len(roots),
        spanning_rank=sum(rank for _, rank, _ in components),
        units=tuple(units),
        core=tuple(sorted(core)),
    )


def check_dynkin(
    G: GramMatrix, vectors: Sequence[Sequence[int]], typ: str, n: int
) -> bool:
    """Do the vectors realize the Dynkin diagram of (typ, n)?

    All must have norm 2, and |(v_i, v_j)| must be 1 on diagram edges and 0
    off them, both read off the Gram matrix of the vectors.  Absolute values
    make both edge-sign conventions acceptable: the diagrams are trees, so
    sign flips of the vectors can realize either.  False when a vector is
    not a vector of G's lattice (`_is_vector`).
    """
    if len(vectors) != n:
        raise ValueError(f"expected {n} vectors, got {len(vectors)}")
    edges = dynkin_edges(typ, n)
    if not all(_is_vector(G, v) for v in vectors):
        return False
    gram = _gram_of(G, vectors)
    if any(gram[i][i] != 2 for i in range(n)):
        return False
    return all(
        abs(gram[i][j]) == (frozenset((i + 1, j + 1)) in edges)
        for i in range(n)
        for j in range(i + 1, n)
    )


# -- identification --------------------------------------------------------------


def identify(G: GramMatrix, report: RootSystemReport) -> str:
    """Name a positive definite unimodular lattice of rank <= 16 from its
    `root_system` report.

    The lattice is Z^k + L (SPLAG ch. 16, Table 16.7), and the report gives
    k and the root system of L, which names L.  The result is one of
    "I{k}", "E8", "Gamma12", "E7^2[11]", "A15[4]", "E8+E8", "Gamma16" or
    "D8^2[(12)]", the last seven with "+I{k}" appended when k > 0.
    Gamma12 = D12+ and Gamma16 = D16+; the bracket gives the glue of the
    overlattice.

    Raises ValueError for rank > 16 or determinant != 1.
    """
    if G.rank > 16:
        raise ValueError("identification is supported up to rank 16")
    if G.determinant() != 1:
        raise ValueError("identification needs a unimodular lattice (determinant 1)")
    k = len(report.units)
    if report.core not in _CORES or sum(r for _, r, _ in report.core) != G.rank - k:
        raise AssertionError(
            f"rank {G.rank - k} core with root system {report.core} is not in SPLAG Table 16.7"
        )
    name = _CORES[report.core]
    if not name:
        return f"I{k}"
    return f"{name}+I{k}" if k else name
