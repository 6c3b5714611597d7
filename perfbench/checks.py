"""Independent oracles for the benchmark's output checks.

Nothing here calls topokit: every expected value is recomputed from the
instance's JSON (facets, colouring, elements and covers) with plain set
arithmetic, so a defect in the library cannot also hide in its check.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def h_from_f(f) -> list[int]:
    """h_i = sum_j (-1)^(i-j) C(d-j, d-i) f_j, with f_0 = 1 for the empty face."""
    d = len(f) - 1
    return [
        sum((-1) ** (i - j) * comb(d - j, d - i) * f[j] for j in range(i + 1))
        for i in range(d + 1)
    ]


def all_faces(facets) -> set[tuple[int, ...]]:
    """Every nonempty face of the complex, as sorted vertex tuples."""
    faces = set()
    for facet in facets:
        facet = tuple(sorted(facet))
        for k in range(1, len(facet) + 1):
            faces.update(combinations(facet, k))
    return faces


def complex_f_vector(facets) -> list[int]:
    d = max(len(f) for f in facets)
    f = [1] + [0] * d
    for face in all_faces(facets):
        f[len(face)] += 1
    return f


def complex_pair_h2(facets, coloring, pair) -> int:
    """h2 of the subcomplex selected by a colour pair, a graph: 1 - f1 + f2."""
    allowed = set(pair)
    verts, edges = set(), set()
    for facet in facets:
        sel = tuple(sorted(v for v in facet if coloring[v] in allowed))
        verts.update(sel)
        if len(sel) == 2:
            edges.add(sel)
    return 1 - len(verts) + len(edges)


def poset_f_vector(ranks: dict[int, int]) -> list[int]:
    d = max(ranks.values())
    f = [1] + [0] * d
    for r in ranks.values():
        f[r] += 1
    return f


def poset_pair_h2(ranks, covers, coloring, pair) -> int:
    """h2 of the rank selection to a colour pair: atoms of those colours and
    rank-2 elements whose two atoms carry both colours."""
    allowed = set(pair)
    atoms = [x for x, r in ranks.items() if r == 1 and coloring[x] in allowed]
    below: dict[int, list[int]] = {}
    for lo, hi in covers:
        below.setdefault(hi, []).append(lo)
    edges = [
        x
        for x, r in ranks.items()
        if r == 2 and all(coloring[a] in allowed for a in below[x])
    ]
    return 1 - len(atoms) + len(edges)


def path_vertices_ok(path, coloring, pair) -> bool:
    """Nonempty, chained, and every vertex coloured inside ``pair``."""
    if not path:
        return False
    for (_, v), (u2, _) in zip(path, path[1:]):
        if v != u2:
            return False
    return all(coloring[u] in pair and coloring[v] in pair for u, v in path)


def replay(faces, source, moves):
    """Apply certificate moves to an edge path; None if any move is illegal.

    ``faces`` holds every nonempty face of the complex.  A move is
    ``("expand", pos, (a, b, c))``: edge (a, c) becomes (a, b)(b, c);
    ``("contract", pos, (a, b, c))``: the reverse; ``("cancel", pos)``: drop an
    edge followed by its reverse; ``("insert", pos, (u, v))``: add (u, v)(v, u).
    """

    def is_face(*vs):
        return tuple(sorted(set(vs))) in faces

    path = [tuple(e) for e in source]
    if not path or not all(is_face(u, v) for u, v in path):
        return None
    for move in moves:
        kind, pos = move[0], move[1]
        if kind in ("expand", "contract"):
            a, b, c = move[2]
            if not is_face(a, b, c):
                return None
            if kind == "expand":
                if not 0 <= pos < len(path) or path[pos] != (a, c):
                    return None
                path[pos : pos + 1] = [(a, b), (b, c)]
            else:
                if path[pos : pos + 2] != [(a, b), (b, c)]:
                    return None
                path[pos : pos + 2] = [(a, c)]
        elif kind == "cancel":
            if not 0 <= pos < len(path) - 1:
                return None
            u, v = path[pos]
            if path[pos + 1] != (v, u):
                return None
            path[pos : pos + 2] = [] if len(path) > 2 else [(u, u)]
        elif kind == "insert":
            u, v = move[2]
            if not is_face(u, v) or not 0 <= pos <= len(path):
                return None
            junction = path[pos][0] if pos < len(path) else path[-1][1]
            if junction != u:
                return None
            path[pos:pos] = [(u, v), (v, u)]
        else:
            return None
    return path


class Mod2Boundaries:
    """The image of the triangle boundary map over GF(2), in echelon form.

    Edges are bits of a Python int; ``is_boundary`` reduces a mod-2 edge
    vector against the pivots.
    """

    def __init__(self, facets):
        faces = all_faces(facets)
        edges = sorted(f for f in faces if len(f) == 2)
        self.edge_bit = {e: 1 << i for i, e in enumerate(edges)}
        self.pivots: dict[int, int] = {}  # highest bit -> reduced row
        for a, b, c in (f for f in faces if len(f) == 3):
            self._insert(self.edge_bit[(a, b)] | self.edge_bit[(b, c)] | self.edge_bit[(a, c)])

    def _reduce(self, row: int) -> int:
        while row:
            top = row.bit_length() - 1
            pivot = self.pivots.get(top)
            if pivot is None:
                return row
            row ^= pivot
        return 0

    def _insert(self, row: int) -> None:
        row = self._reduce(row)
        if row:
            self.pivots[row.bit_length() - 1] = row

    def path_vector(self, path) -> int:
        row = 0
        for u, v in path:
            if u != v:
                row ^= self.edge_bit[(u, v) if u < v else (v, u)]
        return row

    def same_class(self, path1, path2) -> bool:
        return self._reduce(self.path_vector(path1) ^ self.path_vector(path2)) == 0
