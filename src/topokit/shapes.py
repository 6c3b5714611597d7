"""Canonical generated instances used by the CLI, the demos, and the tests."""

from __future__ import annotations

import heapq
from itertools import product

from . import _read
from .complex import SimplicialComplex, _glued
from .errors import ValidationError
from .poset import SimplicialPoset

# Largest inputs the generators build: a cross-polytope boundary of dimension d has
# 2^d facets and 3^d faces (531,441 at d = 12), a sum of n octahedra has 6n + 2 facets
# (3,002 at the cap), built in time linear in n, and an n-cycle is built whole, n
# facets and a color per vertex.
MAX_CROSS_POLYTOPE_DIM = 12
MAX_OCTAHEDRON_COPIES = 500
MAX_CYCLE_LENGTH = 100_000

# Classical 7-vertex torus triangulation (Moebius): triangles {i, i+1, i+3}
# and {i, i+2, i+3} mod 7.  Not balanced (its 1-skeleton is K7).
_TORUS_FACETS = tuple(
    tuple(sorted(t))
    for i in range(7)
    for t in (((i) % 7, (i + 1) % 7, (i + 3) % 7), ((i) % 7, (i + 2) % 7, (i + 3) % 7))
)

# Classical 6-vertex real projective plane (antipodal quotient of the
# icosahedron); 2-neighborly, every edge lies in exactly two triangles.
_RP2_FACETS = (
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 4),
    (0, 3, 5),
    (0, 4, 5),
    (1, 2, 5),
    (1, 3, 4),
    (1, 4, 5),
    (2, 3, 4),
    (2, 3, 5),
)


def cross_polytope(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope with the antipodal coloring.

    Vertices 2i and 2i+1 form the i-th antipodal pair and share color i+1;
    facets pick one vertex from every pair, so the coloring is balanced.
    The case d = 3 is the octahedron.  Dimensions above
    ``MAX_CROSS_POLYTOPE_DIM`` (12) are refused before anything is built.
    """
    if not 1 <= _read.integer(d) <= MAX_CROSS_POLYTOPE_DIM:
        raise ValidationError(
            f"cross-polytope dimension must be between 1 and {MAX_CROSS_POLYTOPE_DIM}, got {d}"
        )
    facets = [
        tuple(sorted(2 * i + choice[i] for i in range(d)))
        for choice in product((0, 1), repeat=d)
    ]
    coloring = {2 * i + s: i + 1 for i in range(d) for s in (0, 1)}
    return SimplicialComplex(facets, coloring)


def cycle_complex(n: int) -> SimplicialComplex:
    """The n-cycle graph; even cycles carry the alternating 2-coloring.  Cycles longer
    than ``MAX_CYCLE_LENGTH`` (100,000) are refused before anything is built."""
    if _read.integer(n) < 3:
        raise ValidationError("cycles need at least 3 vertices")
    if n > MAX_CYCLE_LENGTH:
        raise ValidationError(f"cycles take at most {MAX_CYCLE_LENGTH} vertices, got {n}")
    facets = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    coloring = {i: 1 + (i % 2) for i in range(n)} if n % 2 == 0 else None
    return SimplicialComplex(facets, coloring)


def torus_7() -> SimplicialComplex:
    return SimplicialComplex(_TORUS_FACETS)


def projective_plane_6() -> SimplicialComplex:
    return SimplicialComplex(_RP2_FACETS)


def sd_torus() -> SimplicialComplex:
    """Barycentric subdivision of the 7-vertex torus; balanced by face size."""
    return torus_7().barycentric_subdivision()


def sd_projective_plane() -> SimplicialComplex:
    """Barycentric subdivision of the 6-vertex projective plane."""
    return projective_plane_6().barycentric_subdivision()


def double_edge_circle() -> SimplicialPoset:
    """Two atoms joined by two parallel edge elements; realization is a circle."""
    return SimplicialPoset(
        ranks={0: 1, 1: 1, 2: 2, 3: 2},
        covers=[(0, 2), (1, 2), (0, 3), (1, 3)],
        coloring={0: 1, 1: 2},
        labels={0: "u", 1: "v", 2: "e", 3: "f"},
    )


def octahedron_sum(copies: int) -> SimplicialComplex:
    """Iterated connected sum of octahedra, glued along matched facets.

    Each gluing identifies the lexicographically largest facet of the running
    sum with the smallest facet of a fresh octahedron, matching vertices in
    ascending order; colors are aligned automatically.  The facets wait in a heap,
    the largest on top (negated entrywise): each copy of the one octahedron pops the
    facet it glues away and pushes its seven others, and one strict build checks the
    sum.  Over ``MAX_OCTAHEDRON_COPIES`` (500) copies are refused before any build.
    """
    if not 1 <= _read.integer(copies) <= MAX_OCTAHEDRON_COPIES:
        raise ValidationError(
            f"connected sums take between 1 and {MAX_OCTAHEDRON_COPIES} copies, got {copies}"
        )
    octahedron = cross_polytope(3)
    face2, palette, coloring = min(octahedron.facets), octahedron.colors, octahedron.coloring
    heap = [tuple(-v for v in f) for f in octahedron.facets]
    heapq.heapify(heap)
    for _ in range(copies - 1):
        face1 = tuple(-v for v in heapq.heappop(heap))
        fresh = len(coloring)  # ids stay dense: the next fresh id is the number of vertices
        _, facets, colors = _glued(octahedron, face2, dict(zip(face1, face2)), fresh, True, coloring, palette)
        coloring.update(colors)
        for f in facets:
            heapq.heappush(heap, tuple(-v for v in f))
    return SimplicialComplex([tuple(-v for v in f) for f in heap], coloring)
