"""The two color-selection kernels of ``topo verify`` against their slow oracles.

Each pair's restriction reads its bypass letters from a per-pair memo; the
oracle (``oracles.oracle_restrict``) walks every bypass afresh.  Both the
restriction and the path rewriter walk on one index of vertex positions and
edge letters; the oracles walk on vertex ids over tuple-keyed completions, and
are run as well on copies whose ids are shuffled, spread apart and large.  Every
selection's h is read from one subset transform of the face counts by color
mask; the oracle (``oracles.oracle_selected_h``) sums ``(-1)^(|S|-|T|) f_T``
over every subset ``T`` of the selection ``S``.  Each instance is checked as
built and after a seeded relabelling of its vertex ids and its colors.
"""

import random
from itertools import combinations

import pytest

from conftest import corpus_complexes, depth_first_tree, random_closed_path
from oracles import oracle_nested_parent, oracle_restrict, oracle_rewrite, oracle_selected_h
from topokit import (
    GroupPresentation,
    NestedSpanningTree,
    SimplicialComplex,
    build_nested_tree,
    default_basepoint,
    face_poset,
    full_presentation,
    restrict_presentation,
    rewrite_path_to_colors,
    shapes,
)
from topokit import pi1


def relabel(complex, seed):
    """``complex`` with its vertex ids and its colors sent to seeded distinct values."""
    rng = random.Random(seed)
    n, d = len(complex.vertices), len(complex.colors)
    ids = dict(zip(complex.vertices, rng.sample(range(3 * n + 3), n)))
    colors = dict(zip(complex.colors, rng.sample(range(1, 4 * d + 1), d)))
    coloring = {ids[v]: colors[c] for v, c in complex.coloring.items()}
    return SimplicialComplex([[ids[v] for v in f] for f in complex.facets], coloring)


BUILDS = {
    **{f"corpus-{name}": (lambda c=c: c) for name, c in corpus_complexes().items()},
    **{f"cross{d}": (lambda d=d: shapes.cross_polytope(d)) for d in range(3, 9)},
    **{f"sum{n}": (lambda n=n: shapes.octahedron_sum(n)) for n in (1, 5, 40)},
    "sd-torus": shapes.sd_torus,
    "sd2-torus": lambda: shapes.sd_torus().barycentric_subdivision(),
    "sd-rp2": shapes.sd_projective_plane,
    "sd2-rp2": lambda: shapes.sd_projective_plane().barycentric_subdivision(),
}
COMPLEXES = {
    f"{name}{tag}": (lambda build=build, seed=seed: build() if seed is None else relabel(build(), seed))
    for name, build in BUILDS.items()
    for tag, seed in (("", None), ("-relabelled", 24))
}


def _assert_same(production, oracle, pair):
    assert production.generators == oracle.generators, pair
    assert production.relators == oracle.relators, pair


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_restriction_matches_the_unmemoized_oracle(name):
    """Pair by pair, on the skeleton (as ``generator_bounds`` restricts) and on the full
    presentation, whose relators include the length-1 relators of the tree edges."""
    complex = COMPLEXES[name]()
    edges, _, triangles = complex._skeleton()
    for pair in combinations(complex.colors, 2):
        tree = build_nested_tree(complex, pair)
        oracle = oracle_restrict(complex, tree, edges, triangles)
        _assert_same(pi1._restrict(complex, tree, edges, triangles), oracle, pair)
        full = full_presentation(complex, tree)
        oracle = oracle_restrict(complex, tree, [g.edge for g in full.generators], full.relators)
        _assert_same(restrict_presentation(full, complex, pair, tree), oracle, pair)


@pytest.mark.parametrize("name", ["corpus-sd_rp2", "cross5-relabelled", "sum5"])
def test_restriction_maps_relators_of_every_length(name):
    """A triangle's image is folded as one sum, any other relator letter by letter; on
    relators of length 0 to 6 (each triangle, its product with the next, its first two
    letters and its inverse's first) both give the oracle's words."""
    complex = COMPLEXES[name]()
    edges, _, triangles = complex._skeleton()
    mixed = [()]
    for rel, nxt in zip(triangles, triangles[1:]):
        mixed += [rel, rel + nxt, rel[:2], (-rel[0],)]
    for pair in combinations(complex.colors, 2):
        tree = build_nested_tree(complex, pair)
        _assert_same(pi1._restrict(complex, tree, edges, mixed), oracle_restrict(complex, tree, edges, mixed), pair)


def spread(complex, seed):
    """``complex`` with each vertex v sent to ``10**12 + 7 * sigma(v) + 3`` for a seeded
    permutation sigma, and its colors to seeded distinct values: ids shuffled, gapped and
    large, and the palette in another order."""
    rng = random.Random(seed)
    sigma = rng.sample(range(len(complex.vertices)), len(complex.vertices))
    ids = {v: 10**12 + 7 * s + 3 for v, s in zip(complex.vertices, sigma)}
    colors = dict(zip(complex.colors, rng.sample(range(1, 4 * len(complex.colors) + 1), len(complex.colors))))
    coloring = {ids[v]: colors[c] for v, c in complex.coloring.items()}
    return SimplicialComplex([[ids[v] for v in f] for f in complex.facets], coloring)


WALK_BUILDS = {
    **{f"corpus-{name}": (lambda c=c: c) for name, c in corpus_complexes().items()},
    "cross6": lambda: shapes.cross_polytope(6),
    "sd2-torus": lambda: shapes.sd_torus().barycentric_subdivision(),
}
WALK_COMPLEXES = {
    f"{name}{tag}": (lambda build=build, seed=seed: build() if seed is None else spread(build(), seed))
    for name, build in WALK_BUILDS.items()
    for tag, seed in (("", None), ("-spread", 26))
}


def shuffled(presentation, rng) -> GroupPresentation:
    """The same presentation with its generators in a seeded order."""
    order = rng.sample(range(len(presentation.generators)), len(presentation.generators))
    renamed = {old + 1: new + 1 for new, old in enumerate(order)}
    relators = [tuple(renamed[x] if x > 0 else -renamed[-x] for x in rel) for rel in presentation.relators]
    return GroupPresentation([presentation.generators[i] for i in order], relators)


@pytest.mark.parametrize("name", sorted(WALK_COMPLEXES))
def test_walk_index_matches_the_tuple_keyed_walk(name):
    """Per pair: restrictions of the skeleton and of a full presentation with its generators
    shuffled, and rewrites of seeded closed paths, twice (the second time from the warm hop
    memo), equal the oracles' word for word and move for move."""
    complex, rng = WALK_COMPLEXES[name](), random.Random(26)
    edges, _, triangles = complex._skeleton()
    for pair in combinations(complex.colors, 2):
        tree = build_nested_tree(complex, pair)
        _assert_same(pi1._restrict(complex, tree, edges, triangles), oracle_restrict(complex, tree, edges, triangles), pair)
        full = shuffled(full_presentation(complex, tree), rng)
        oracle = oracle_restrict(complex, tree, [g.edge for g in full.generators], full.relators)
        _assert_same(restrict_presentation(full, complex, pair, tree), oracle, pair)
        paths = [random_closed_path(complex, default_basepoint(complex, pair), rng, 30) for _ in range(4)]
        for path in paths + paths:
            fixed, cert = rewrite_path_to_colors(complex, pair, path)
            expected, oracle_cert = oracle_rewrite(complex, pair, path)
            assert (fixed, cert.moves) == (expected, oracle_cert.moves), (pair, path)


TREE_COMPLEXES = {
    f"{name}{tag}": (lambda c=c, seed=seed: c if seed is None else transform(c, seed))
    for name, c in {**corpus_complexes(), "cross6": shapes.cross_polytope(6)}.items()
    for tag, seed, transform in (("", None, None), ("-relabelled", 28, relabel), ("-spread", 28, spread))
}


@pytest.mark.parametrize("name", sorted(TREE_COMPLEXES))
def test_nested_tree_is_the_two_bfs_tree(name):
    """One BFS and a one-step outer layer give the parent pointers, and so the tree order,
    of a second BFS over everything, from the least selected vertex and from the largest."""
    complex = TREE_COMPLEXES[name]()
    for pair in combinations(complex.colors, 2):
        selected = [v for v in complex.vertices if complex.coloring[v] in pair]
        for root in (None, selected[-1]):
            tree = build_nested_tree(complex, pair, root)
            parent = oracle_nested_parent(complex, frozenset(pair), tree.root)
            assert tree.parent == parent, (pair, root)
            assert tree._order == NestedSpanningTree(complex, pair, tree.root, parent)._order
            off_color = [v for v in complex.vertices if complex.coloring[v] not in pair]
            assert all(complex.coloring[tree.parent[v]] in pair for v in off_color)


@pytest.mark.parametrize(
    "build",
    [lambda: shapes.cross_polytope(5), lambda: spread(shapes.cross_polytope(6), 28), lambda: shapes.cross_polytope(4).barycentric_subdivision()],
    ids=["cross5", "cross6-spread", "sd-cross4"],
)
def test_restriction_of_off_color_chains_matches_the_unmemoized_oracle(build):
    """A hand-built tree whose off-color vertices hang in chains takes the restriction's
    deep branch, where each chain's descents and climbs bypass one vertex after another."""
    complex, kappa = build(), build().coloring
    longest = 0  # the most off-color vertices on one tree path
    for pair in combinations(complex.colors, 2):
        tree = depth_first_tree(complex, pair)
        for v in complex.vertices:
            longest = max(longest, next(i for i, w in enumerate(tree.path_to_root(v)) if kappa[w] in pair))
        full = full_presentation(complex, tree)
        oracle = oracle_restrict(complex, tree, [g.edge for g in full.generators], full.relators)
        _assert_same(restrict_presentation(full, complex, pair, tree), oracle, pair)
    assert longest >= 3


SPACES = {
    **COMPLEXES,
    **{f"fp-{name}": (lambda build=build: face_poset(build())) for name, build in COMPLEXES.items()},
    "double-circle": shapes.double_edge_circle,
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_transform_matches_the_subset_sum_oracle(name):
    space = SPACES[name]()
    flag, h = space.flag_f_vector(), space._selection_h()
    selections = [s for k in range(len(space.colors) + 1) for s in combinations(space.colors, k)]
    assert sorted(h) == sorted(selections)
    for selection in selections:
        assert h[selection] == oracle_selected_h(flag, selection), selection
