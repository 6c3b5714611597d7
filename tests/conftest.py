"""Shared corpus fixtures and independent test oracles."""

from itertools import combinations
from math import gcd

import pytest

from topokit import build_nested_tree, shapes
from topokit.pi1 import NestedSpanningTree


def corpus_complexes():
    """The standing corpus: name -> balanced complex."""
    return {
        "octahedron": shapes.cross_polytope(3),
        "cross4": shapes.cross_polytope(4),
        "cross5": shapes.cross_polytope(5),
        "cycle4": shapes.cycle_complex(4),
        "cycle6": shapes.cycle_complex(6),
        "cycle8": shapes.cycle_complex(8),
        "sd_torus": shapes.sd_torus(),
        "sd_rp2": shapes.sd_projective_plane(),
        "sum2": shapes.octahedron_sum(2),
        "sum3": shapes.octahedron_sum(3),
    }


@pytest.fixture(scope="session")
def corpus():
    return corpus_complexes()


@pytest.fixture(scope="session")
def double_circle():
    return shapes.double_edge_circle()


# -- independent oracles -------------------------------------------------------


def brute_force_face_counts(complex):
    """Face counts by explicit powerset enumeration of every facet."""
    faces = set()
    for facet in complex.facets:
        for k in range(len(facet) + 1):
            faces.update(combinations(facet, k))
    counts = [0] * (max(len(f) for f in faces) + 1)
    for f in faces:
        counts[len(f)] += 1
    return tuple(counts)


def link_graph_by_star_scan(complex, vertex, colors):
    """The link graph of ``vertex`` on its vertices colored in ``colors``, neighbors
    ascending, built alone from a scan of the facets through the vertex."""
    kappa = complex.coloring
    adj = {}
    for facet in complex.facets:
        if vertex in facet:
            sel = [w for w in facet if w != vertex and kappa[w] in colors]
            for a, b in combinations(sel, 2):
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
    return {w: tuple(sorted(ns)) for w, ns in adj.items()}


def det_oracle(matrix):
    """Fraction-free determinant, written independently of the library SNF."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invariant_factors_by_minors(matrix):
    """Invariant factors from gcds of k x k minors: d_k = g_k / g_{k-1}."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    factors = []
    g_prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[matrix[r][c] for c in cols] for r in rows]
                g = gcd(g, det_oracle(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // g_prev)
        g_prev = g
    return factors


def h_from_f_by_polynomial(f, lam):
    """Evaluate sum_i f[i] * (lam - 1)^(d - i) exactly (the h-generating identity)."""
    d = len(f) - 1
    return sum(f[i] * (lam - 1) ** (d - i) for i in range(d + 1))


def random_closed_path(complex, root, rng, max_steps=12, min_steps=3):
    """Deterministic pseudo-random closed walk: wander ``min_steps`` to ``max_steps``
    edges, then return by BFS tree."""
    adjacency = complex.adjacency()
    parent = {root: None}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for w in adjacency[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    current = root
    edges = []
    for _ in range(rng.randint(min_steps, max_steps)):
        neighbors = adjacency[current]
        if not neighbors:
            break
        nxt = rng.choice(neighbors)
        edges.append((current, nxt))
        current = nxt
    while parent[current] is not None:
        edges.append((current, parent[current]))
        current = parent[current]
    if not edges:
        edges = [(root, root)]
    return edges


def depth_first_tree(complex, pair):
    """The nested tree's selected part, with the off-color vertices grown depth first
    from each selected vertex in turn, so that they hang in long off-color chains."""
    bfs = build_nested_tree(complex, pair)
    kappa, adj = complex.coloring, complex.adjacency()
    parent = {v: p for v, p in bfs.parent.items() if kappa[v] in bfs.colors}
    for start in sorted(parent):
        stack = [start]
        while stack:
            nxt = next((w for w in adj[stack[-1]] if w not in parent), None)
            if nxt is None:
                stack.pop()
            else:
                parent[nxt] = stack[-1]
                stack.append(nxt)
    return NestedSpanningTree(complex, pair, bfs.root, parent)
