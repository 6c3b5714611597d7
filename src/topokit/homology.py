"""Exact integer chain complexes in degrees <= 2 and Smith normal form.

Matrices are lists of lists of Python ints or sparse ``{row: value}`` column
dicts, so all arithmetic is exact.  First homology reads the boundary map
``d2`` as sparse columns from the edge skeleton that the fundamental group
reads too (``_skeleton()``): the edges, and one relator per triangle of a
complex or rank-3 element of a simplicial poset (a regular CW complex whose
cells are simplices, with the homology of its order complex).  It drops the
rows of a spanning forest, contracting it (Kaczynski, Mischaikow and Mrozek,
*Computational Homology*, 2004): that is injective on cycles, so rank and
invariant factors stay.  :func:`unit_pivot_factor` factors the rest: each +-1
pivot adds an invariant factor 1, and the dense :func:`smith_normal_form`
(``U @ A @ V == D``, one least-entry loop) runs only on the block the pivots
leave over.  :func:`cycle_class_equal` reads the end vertices of each edge from
the same data, so it answers on posets too.  Dense SNF and
:func:`boundary_matrices` stay public as the tested oracle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from . import _read
from .complex import SimplicialComplex
from .errors import FaceNotFoundError, ValidationError

Matrix = list[list[int]]


# -- elementary exact linear algebra -----------------------------------------


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner = len(a), len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    oi[j] += x * bk[j]
    return out


def determinant(a: Matrix) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize over the integers: returns (U, D, V) with U @ a @ V == D.

    U and V are unimodular, D is diagonal with nonnegative entries forming a divisibility
    chain d1 | d2 | ...  One least-entry loop (Cohen, *A Course in Computational Algebraic
    Number Theory*, 2.4) moves the least nonzero |entry| of the block left to each corner
    (t, t) and divides it out of column t, then row t; a remainder is the next corner.
    """
    d = _read.matrix(a)
    m, n = len(d), len(d[0]) if d else 0
    u, v = identity_matrix(m), identity_matrix(n)
    t = 0
    while t < min(m, n):
        p = 0  # the corner
        for i in range(t, m):
            rest = d[i][t:]
            x = min(filter(None, rest), key=abs, default=0)
            if x and (not p or abs(x) < abs(p)):
                p, row, col = x, i, t + rest.index(x)
                if x in (1, -1):
                    break
        if not p:
            break
        d[t], d[row], u[t], u[row] = d[row], d[t], u[row], u[t]
        for r in d[t:] + v:
            r[t], r[col] = r[col], r[t]
        for i in range(t + 1, m):
            q = d[i][t] // p
            if q:
                d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        if any(d[i][t] for i in range(t + 1, m)):  # a remainder: the next corner
            continue
        # column t is zero below the corner, so column operations change only row t of D
        top = d[t]
        quotients = [(j, top[j] // p) for j in range(t + 1, n) if top[j]]
        for j, q in quotients:
            top[j] -= q * p
        for r in v:
            if r[t]:
                for j, q in quotients:
                    r[j] -= q * r[t]
        if any(top[t + 1 :]):
            continue
        bad = [] if p in (1, -1) else [i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])]
        if bad:  # the corner takes in a row where it leaves a non-multiple (+-1 divides all)
            d[t] = [x + y for x, y in zip(top, d[bad[0]])]
            u[t] = [x + y for x, y in zip(u[t], u[bad[0]])]
            continue
        if p < 0:
            top[t], u[t] = -p, [-x for x in u[t]]
        t += 1
    return u, d, v


def snf_diagonal(d: Matrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def invariant_factors(a: Matrix) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form, in chain order."""
    _, d, _ = smith_normal_form(a)
    return [x for x in snf_diagonal(d) if x]


def snf_is_valid(a: Matrix, u: Matrix, d: Matrix, v: Matrix) -> bool:
    """Full validity check: shapes, product identity, unimodularity, divisibility chain."""
    a, u, d, v = map(_read.matrix, (a, u, d, v))
    (m, n), *shapes = [(len(x), len(x[0]) if x else 0) for x in (a, u, d, v)]
    if shapes != [(m, m), (m, n), (n, n)] or mat_mul(mat_mul(u, a), v) != d:
        return False
    if abs(determinant(u)) != 1 or abs(determinant(v)) != 1:
        return False
    if any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
        return False
    diag = snf_diagonal(d)
    chain = zip(diag, diag[1:])
    return all(x >= 0 for x in diag) and all(y % x == 0 if x else y == 0 for x, y in chain)


# -- sparse unit-pivot elimination ---------------------------------------------


@dataclass(frozen=True)
class SparseFactor:
    """An integer matrix after unit-pivot elimination, with its dense residual.

    ``pivots`` holds ``(row, column)`` in elimination order, each column a
    ``{row: value}`` dict as it stood when chosen: +-1 in its pivot row, zero
    in every earlier one.  The other columns end up zero on all pivot rows;
    ``u`` and ``diagonal`` come from the dense Smith normal form of their
    non-zero block, ``rows`` x ``columns``.
    """

    pivots: tuple
    rows: tuple[int, ...]
    columns: int
    u: Matrix
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots) + sum(1 for x in self.diagonal if x)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(x for x in self.diagonal if x > 1)

    def contains(self, vector: list[int]) -> bool:
        """Whether a dense vector, indexed by row, lies in the column lattice; for
        ``chain_data``'s ``d2``, a projected cycle: its entries on the ``"cotree"`` edges."""
        w = list(vector)
        for r, col in self.pivots:
            c = w[r] * col[r]
            if c:
                for i, x in col.items():
                    w[i] -= c * x
        rest = [w[i] for i in self.rows]
        if sum(map(abs, w)) != sum(map(abs, rest)):  # non-zero off the residual
            return False
        for row, d in zip(self.u, self.diagonal + (0,) * len(self.u)):
            wi = sum(a * b for a, b in zip(row, rest))
            if wi % d if d else wi:
                return False
        return True


def unit_pivot_factor(columns) -> SparseFactor:
    """Factor the integer matrix whose columns are the given ``{row: value}`` dicts.

    Live columns are taken smallest first, ties by index.  In each, the +-1
    entry whose row has the fewest live columns (ties by row) becomes the
    pivot, and exact column operations clear that row from every other live
    column, which is queued again at its new size.  Dense Smith normal form
    runs only on the columns that never get a +-1 entry, restricted to their
    non-zero rows.
    """
    cols = [{i: x for i, x in c.items() if x} for c in columns]
    live = defaultdict(set)  # row -> live columns with an entry in it
    for j, col in enumerate(cols):
        for i in col:
            live[i].add(j)
    queue = [(len(col), j) for j, col in enumerate(cols)]
    heapify(queue)
    pivots = []
    while queue:
        size, j = heappop(queue)
        col = cols[j]
        units = [i for i, x in col.items() if x in (1, -1)] if size == len(col) else []
        if not units:
            continue
        r = min(units, key=lambda i: (len(live[i]), i))
        for i in col:
            live[i].discard(j)
        for k in live.pop(r):
            other = cols[k]
            c = other[r] * col[r]
            for i, x in col.items():
                y = other.get(i, 0) - c * x
                if y:
                    other[i] = y
                    live[i].add(k)
                else:
                    other.pop(i, None)
                    live[i].discard(k)
            heappush(queue, (len(other), k))
        pivots.append((r, col))
        cols[j] = {}  # out of the live set
    left = [col for col in cols if col]
    if not left:
        return SparseFactor(tuple(pivots), (), 0, [], ())
    rows = sorted({i for col in left for i in col})
    u, d, _ = smith_normal_form([[col.get(i, 0) for col in left] for i in rows])
    return SparseFactor(tuple(pivots), tuple(rows), len(left), u, tuple(snf_diagonal(d)))


# -- simplicial boundary maps -------------------------------------------------


def boundary_matrices(complex: SimplicialComplex) -> tuple[Matrix, Matrix]:
    """Vertex-edge and edge-triangle boundary maps, oriented by ascending ids."""
    verts = list(complex.vertices)
    vidx = {v: i for i, v in enumerate(verts)}
    edges = complex.edges()
    eidx = {e: i for i, e in enumerate(edges)}
    tris = complex.faces(2) if complex.dim >= 2 else []

    d1 = [[0] * len(edges) for _ in verts]
    for j, (x, y) in enumerate(edges):
        d1[vidx[x]][j] = -1
        d1[vidx[y]][j] = 1

    d2 = [[0] * len(tris) for _ in edges]
    for j, (x, y, z) in enumerate(tris):
        d2[eidx[(y, z)]][j] = 1
        d2[eidx[(x, z)]][j] = -1
        d2[eidx[(x, y)]][j] = 1
    return d1, d2


@dataclass(frozen=True)
class HomologySummary:
    """First integral homology: free rank and invariant-factor torsion."""

    betti1: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        torsion = _read.ids(self.torsion)
        if _read.integer(self.betti1, "betti1") < 0 or any(t < 2 for t in torsion):
            raise ValidationError(f"betti1 must be >= 0 and torsion > 1, got {self.betti1}, {list(torsion)}")
        object.__setattr__(self, "torsion", torsion)  # an array, read as a tuple

    @property
    def min_generators(self) -> int:
        return self.betti1 + len(self.torsion)

    def as_dict(self) -> dict:
        return {"betti1": self.betti1, "torsion": list(self.torsion), "min_generators": self.min_generators}


def chain_data(space) -> dict:
    """The end vertices of each edge, the ``"cotree"`` (ascending indexes of the edges off
    a spanning forest, which takes each edge in turn that joins two of its trees) and
    ``d2`` factored on its rows, cached on the complex or poset.  From the presentation
    skeleton: ``d2``'s column j is triangle j's relator less its forest letters, row i
    the edge ``cotree[i]`` (letter ``cotree[i] + 1``)."""
    cache = space._cache
    if "chain" not in cache:
        edges, _, relators = space._skeleton()
        ends = [*map(space._ends, edges)]
        parent, row = {v: v for e in ends for v in e}, {}  # union-find; cotree edge -> its row
        for i, (a, b) in enumerate(ends):
            while (up := parent[a]) != a:  # path halving
                parent[a] = a = parent[up]
            while (up := parent[b]) != b:
                parent[b] = b = parent[up]
            if a == b:
                row[i] = len(row)
            parent[a] = b  # joins two trees, or leaves a root where it is
        columns = ({r: 1 if x > 0 else -1 for x in rel if (r := row.get(abs(x) - 1)) is not None} for rel in relators)
        cache["chain"] = {"edges": ends, "cotree": tuple(row), "d2": unit_pivot_factor(columns)}
    return cache["chain"]


def h1(space) -> HomologySummary:
    """H1 over the integers via the factored ``d2``; the space must be connected.
    ``betti1`` is the number of edges off the forest, less the rank of ``d2``."""
    if not space.is_connected():
        raise ValidationError("H1 summary requires a connected complex")
    data = chain_data(space)
    # forgetting the forest maps ker d1 onto Z^cotree, so the projected d2 has the
    # invariant factors of d2 into ker d1, which are those of d2 (ker d1 is saturated)
    return HomologySummary(len(data["cotree"]) - data["d2"].rank, data["d2"].torsion)


def edge_path_cycle_vector(complex: SimplicialComplex, path) -> list[int]:
    """Signed edge-incidence vector of an edge path (degenerate edges count 0), read in
    one pass: each edge a pair of integer vertex ids."""
    letters = complex._skeleton()[1]
    z = [0] * len(letters)
    try:
        for e in path if type(path) is list or type(path) is tuple else _read.items(path):
            u, v = e if type(e) is tuple and len(e) == 2 else _read.ids(e, 2)
            if type(u) is not int or type(v) is not int:  # refuse bools, floats, strings, None
                _read.integer(u), _read.integer(v)
            if u != v:
                z[letters[(u, v) if u < v else (v, u)] - 1] += 1 if u < v else -1
    except KeyError as missing:
        raise FaceNotFoundError("({},{}) is not an edge of the complex".format(*missing.args[0])) from None
    return z


def cycle_class_equal(space, z1: list[int], z2: list[int]) -> bool:
    """Whether two 1-cycles of a complex or poset, indexed like ``edges()``, differ by a
    boundary, decided exactly on the factored d2 from the entries off the forest."""
    data = chain_data(space)
    edges = data["edges"]
    z1, z2 = _read.ids(z1), _read.ids(z2)
    for z in (z1, z2):
        if len(z) != len(edges):
            raise ValidationError("cycle vector has the wrong length")
        boundary: dict[int, int] = {}
        for i, x in enumerate(z):
            if x:
                u, v = edges[i]
                boundary[u] = boundary.get(u, 0) - x
                boundary[v] = boundary.get(v, 0) + x
        if any(boundary.values()):
            raise ValidationError("input is not a cycle")
    return data["d2"].contains([z1[i] - z2[i] for i in data["cotree"]])
