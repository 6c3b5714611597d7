"""Exact integer chain complexes in degrees <= 2 and Smith normal form.

Matrices are plain lists of lists of Python ints, so every computation is
carried out in arbitrary precision.  The Smith normal form returns the full
transform triple ``U @ A @ V == D`` with unimodular ``U`` and ``V``, which
is what the first-homology summary and the cycle membership test run on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complex import SimplicialComplex
from .errors import ValidationError

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


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


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


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize over the integers: returns (U, D, V) with U @ a @ V == D.

    U and V are unimodular, D is diagonal with nonnegative entries forming a
    divisibility chain d1 | d2 | ...  Pivots are chosen by minimal absolute
    value to keep intermediate entries small.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [row[:] for row in a]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def combine_rows(t, i, a11, a12, a21, a22):
        # rows t, i <- (a11*t + a12*i, a21*t + a22*i); det of the 2x2 block is +-1
        for c in range(n):
            x, y = d[t][c], d[i][c]
            d[t][c], d[i][c] = a11 * x + a12 * y, a21 * x + a22 * y
        for c in range(m):
            x, y = u[t][c], u[i][c]
            u[t][c], u[i][c] = a11 * x + a12 * y, a21 * x + a22 * y

    def combine_cols(t, j, a11, a12, a21, a22):
        for row in d:
            x, y = row[t], row[j]
            row[t], row[j] = a11 * x + a21 * y, a12 * x + a22 * y
        for row in v:
            x, y = row[t], row[j]
            row[t], row[j] = a11 * x + a21 * y, a12 * x + a22 * y

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = d[i][j]
                if val:
                    key = (abs(val), i, j)
                    if best is None or key < best:
                        best = key
                        pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, m):
                b = d[i][t]
                if not b:
                    continue
                p = d[t][t]
                if b % p == 0:
                    q = b // p
                    for c in range(t, n):
                        d[i][c] -= q * d[t][c]
                    for c in range(m):
                        u[i][c] -= q * u[t][c]
                else:
                    g, x, y = _ext_gcd(p, b)
                    combine_rows(t, i, x, y, -(b // g), p // g)
                    dirty = True
            if dirty:
                continue
            # clear the pivot row
            for j in range(t + 1, n):
                b = d[t][j]
                if not b:
                    continue
                p = d[t][t]
                if b % p == 0:
                    q = b // p
                    for row in d:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                else:
                    g, x, y = _ext_gcd(p, b)
                    combine_cols(t, j, x, -(b // g), y, p // g)
                    dirty = True
            if dirty:
                continue
            # pivot must divide the whole remaining block for the chain d1 | d2 | ...
            p = d[t][t]
            offender = None
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for c in range(n):
                d[t][c] += d[offender][c]
            for c in range(m):
                u[t][c] += u[offender][c]

        if d[t][t] < 0:
            for c in range(n):
                d[t][c] = -d[t][c]
            for c in range(m):
                u[t][c] = -u[t][c]
        t += 1

    return u, d, v


def snf_diagonal(d: Matrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def invariant_factors(a: Matrix) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form, in chain order."""
    _, d, _ = smith_normal_form(a)
    return [x for x in snf_diagonal(d) if x]


def snf_is_valid(a: Matrix, u: Matrix, d: Matrix, v: Matrix) -> bool:
    """Full validity check: product identity, unimodularity, divisibility chain."""
    if mat_mul(mat_mul(u, a), v) != d:
        return False
    if abs(determinant(u)) != 1 or abs(determinant(v)) != 1:
        return False
    diag = snf_diagonal(d)
    for i in range(len(d)):
        for j in range(len(d[0]) if d else 0):
            if i != j and d[i][j]:
                return False
    if any(x < 0 for x in diag):
        return False
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            return False
        if x and y % x:
            return False
    return True


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

    @property
    def min_generators(self) -> int:
        return self.betti1 + len(self.torsion)

    def as_dict(self) -> dict:
        return {
            "betti1": self.betti1,
            "torsion": list(self.torsion),
            "min_generators": self.min_generators,
        }


def chain_data(complex: SimplicialComplex) -> dict:
    """Boundary matrices and the SNF of ``d2``, cached on the complex."""
    cache = complex._cache
    if "chain" not in cache:
        d1, d2 = boundary_matrices(complex)
        cache["chain"] = {
            "edges": complex.edges(),
            "d1": d1,
            "d2": d2,
            "snf2": smith_normal_form(d2),
        }
    return cache["chain"]


def h1(complex: SimplicialComplex) -> HomologySummary:
    """H1 over the integers via Smith normal form; the complex must be connected."""
    if not complex.is_connected():
        raise ValidationError("H1 summary requires a connected complex")
    data = chain_data(complex)
    # d1 of a connected complex has rank |V| - 1; the clamp keeps the void
    # complex at betti1 = 0
    rank1 = max(len(complex.vertices) - 1, 0)
    diag2 = snf_diagonal(data["snf2"][1])
    rank2 = sum(1 for x in diag2 if x)
    betti = len(data["edges"]) - rank1 - rank2
    # im d2 lies in the saturated subgroup ker d1, so the invariant factors of
    # d2 are already those of the restriction to ker d1
    torsion = tuple(x for x in diag2 if x > 1)
    return HomologySummary(betti, torsion)


def edge_path_cycle_vector(complex: SimplicialComplex, path) -> list[int]:
    """Signed edge-incidence vector of an edge path (degenerate edges count 0)."""
    data = chain_data(complex)
    index = {e: i for i, e in enumerate(data["edges"])}
    z = [0] * len(data["edges"])
    for u, v in path:
        if u == v:
            continue
        if u < v:
            z[index[(u, v)]] += 1
        else:
            z[index[(v, u)]] -= 1
    return z


def cycle_class_equal(complex: SimplicialComplex, z1: list[int], z2: list[int]) -> bool:
    """Whether two 1-cycles differ by a boundary, decided exactly via the SNF of d2."""
    data = chain_data(complex)
    d1 = data["d1"]
    for z in (z1, z2):
        if len(z) != len(data["edges"]):
            raise ValidationError("cycle vector has the wrong length")
        if any(mat_vec(d1, z)):
            raise ValidationError("input is not a cycle")
    u2, d2, _ = data["snf2"]
    diff = [x - y for x, y in zip(z1, z2)]
    w = mat_vec(u2, diff)
    diag = snf_diagonal(d2)
    for i, wi in enumerate(w):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if wi:
                return False
        elif wi % di:
            return False
    return True
