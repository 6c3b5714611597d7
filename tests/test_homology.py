import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_complexes, invariant_factors_by_minors

from topokit import (
    FaceNotFoundError,
    SimplicialComplex,
    SimplicialPoset,
    ValidationError,
    boundary_matrices,
    cycle_class_equal,
    edge_path_cycle_vector,
    face_poset,
    h1,
    invariant_factors,
    smith_normal_form,
    snf_is_valid,
)
from topokit import shapes
from topokit.homology import chain_data, mat_mul, snf_diagonal, unit_pivot_factor


def dense_h1(complex):
    """H1 from the dense boundary matrices and their dense Smith normal forms."""
    d1, d2 = boundary_matrices(complex)
    factors2 = invariant_factors(d2)
    betti = len(d2) - len(invariant_factors(d1)) - len(factors2)
    return betti, tuple(x for x in factors2 if x > 1)


def poset_d2(poset):
    """Dense d2 of a simplicial poset, read from its covers: a rank-3 element on atoms
    a < b < c has boundary bc - ac + ab, each side named by its two atoms."""
    edges, tris = poset.edges(), poset.elements_of_rank(3)
    row = {e: i for i, e in enumerate(edges)}
    d2 = [[0] * len(tris) for _ in edges]
    for j, t in enumerate(tris):
        a, b, c = sorted(poset.atoms_of(t))
        sign = {frozenset((b, c)): 1, frozenset((a, c)): -1, frozenset((a, b)): 1}
        for lo, hi in poset.covers:
            if hi == t:
                d2[row[lo]][j] = sign[poset.atoms_of(lo)]
    return d2


def edge_ends(space):
    """The end vertices of each edge, ascending, indexed like ``edges()``."""
    if isinstance(space, SimplicialPoset):
        return [tuple(sorted(space.atoms_of(e))) for e in space.edges()]
    return list(space.edges())


def random_cycle(ends, rng, root, steps=10):
    """A signed edge vector: ``steps`` random edges from ``root``, then back along a
    BFS tree; an edge (u, v) counts +1 from u to v."""
    at = {}
    for i, (u, v) in enumerate(ends):
        at.setdefault(u, []).append((i, v, 1))
        at.setdefault(v, []).append((i, u, -1))
    back, queue = {root: None}, [root]  # vertex -> (edge, parent, sign) toward the root
    for u in queue:
        for i, w, s in at[u]:
            if w not in back:
                back[w] = (i, u, -s)
                queue.append(w)
    z, at_vertex = [0] * len(ends), root
    for _ in range(steps):
        i, at_vertex, s = rng.choice(at[at_vertex])
        z[i] += s
    while back[at_vertex] is not None:
        i, at_vertex, s = back[at_vertex]
        z[i] += s
    return z


def dense_membership(d2):
    """Whether z1 - z2 lies in the column lattice of the dense ``d2``."""
    u, d, _ = smith_normal_form(d2)
    diag = snf_diagonal(d)
    diag += [0] * (len(u) - len(diag))

    def same_class(z1, z2):
        w = [sum(a * (x - y) for a, x, y in zip(row, z1, z2)) for row in u]
        return all((wi % di == 0) if di else wi == 0 for wi, di in zip(w, diag))

    return same_class


def sd(complex, times):
    for _ in range(times):
        complex = complex.barycentric_subdivision()
    return complex


# -- boundary matrices ---------------------------------------------------------


def test_single_edge_boundary():
    d1, d2 = boundary_matrices(SimplicialComplex([(0, 1)]))
    assert d1 == [[-1], [1]]
    assert d2 == [[]]


def test_triangle_boundary_rank():
    hollow = SimplicialComplex([(0, 1), (0, 2), (1, 2)])
    d1, d2 = boundary_matrices(hollow)
    assert all(not row for row in d2)
    assert sum(1 for x in snf_diagonal(smith_normal_form(d1)[1]) if x) == 2


def test_boundary_composition_vanishes(corpus):
    for name in ("octahedron", "sum2", "sd_rp2"):
        d1, d2 = boundary_matrices(corpus[name])
        assert all(all(x == 0 for x in row) for row in mat_mul(d1, d2))



def test_d1_rank_is_vertex_count_minus_one(corpus):
    # h1 reads the rank of d1 of a connected complex as |V| - 1 instead of
    # factoring d1; the dense Smith form is the oracle
    spaces = list(corpus.values()) + [SimplicialComplex([(0,)]), SimplicialComplex([()])]
    for complex in spaces:
        d1, _ = boundary_matrices(complex)
        rank = sum(1 for x in snf_diagonal(smith_normal_form(d1)[1]) if x)
        assert rank == max(len(complex.vertices) - 1, 0)


def test_h1_of_point_and_void():
    for complex in (SimplicialComplex([(0,)]), SimplicialComplex([()])):
        summary = h1(complex)
        assert (summary.betti1, summary.torsion) == (0, ())

# -- Smith normal form -----------------------------------------------------------


def test_snf_two_by_two():
    a = [[2, 4], [6, 8]]
    u, d, v = smith_normal_form(a)
    assert snf_diagonal(d) == [2, 4]
    assert snf_is_valid(a, u, d, v)


def test_snf_identity():
    a = [[1, 0], [0, 1]]
    u, d, v = smith_normal_form(a)
    assert snf_diagonal(d) == [1, 1]
    assert snf_is_valid(a, u, d, v)


def test_snf_zero_matrix():
    a = [[0, 0, 0], [0, 0, 0]]
    u, d, v = smith_normal_form(a)
    assert snf_diagonal(d) == [0, 0]
    assert snf_is_valid(a, u, d, v)


def test_snf_empty_shapes():
    for a in ([], [[]], [[], []]):
        u, d, v = smith_normal_form(a)
        assert snf_is_valid(a, u, d, v)


def test_snf_against_minors_oracle_small_sample():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(a)
        assert snf_is_valid(a, u, d, v)
        assert invariant_factors(a) == invariant_factors_by_minors(a)


@pytest.mark.parametrize(
    "a,factors",
    [
        ([[2, 0], [0, 3]], [1, 6]),
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
        ([[0, 0, 2], [0, 3, 0]], [1, 6]),
    ],
)
def test_snf_corner_that_does_not_divide_the_block(a, factors):
    # in the 2 x 2 and 2 x 3 matrices the corner 2 leaves 3 in the block, so it takes in
    # that row; in the 3 x 3 one the corner 18 leaves a remainder 12 below it
    u, d, v = smith_normal_form(a)
    assert snf_is_valid(a, u, d, v)
    assert invariant_factors(a) == factors == invariant_factors_by_minors(a)


@pytest.mark.parametrize("seed", range(5))
def test_snf_transforms_stay_small(seed):
    # on seeded random 24 x 24 matrices, entries -9..9, every entry of U and V stays near
    # 1,000 bits; the bound leaves four times that
    rng = random.Random(seed)
    a = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)]
    u, d, v = smith_normal_form(a)
    assert snf_is_valid(a, u, d, v)
    assert max(abs(x).bit_length() for t in (u, v) for row in t for x in row) <= 4096


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_snf_is_valid_on_corpus_boundaries(corpus, name):
    for a in boundary_matrices(corpus[name]):
        u, d, v = smith_normal_form(a)
        assert snf_is_valid(a, u, d, v)


# -- sparse unit-pivot factorisation --------------------------------------------


def columns_of(a):
    return [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(len(a[0]) if a else 0)]


@st.composite
def integer_matrices(draw):
    """Up to 8 x 8, entries in {-1, 0, 1} or in -4..4."""
    rows, cols, bound = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.sampled_from([1, 4]))
    return [[draw(st.integers(-bound, bound)) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(integer_matrices())
def test_kernel_invariant_factors_match_dense(a):
    factor = unit_pivot_factor(columns_of(a))
    kernel = [1] * len(factor.pivots) + [x for x in factor.diagonal if x]
    assert kernel == invariant_factors(a)


def test_kernel_pivot_columns_clear_earlier_pivot_rows(corpus):
    factor = unit_pivot_factor(columns_of(boundary_matrices(corpus["sd_rp2"])[1]))
    seen = []
    for row, col in factor.pivots:
        assert col[row] in (1, -1)
        assert not any(col.get(r) for r in seen)
        seen.append(row)
    assert factor.torsion == (2,)


# -- first homology -----------------------------------------------------------------


def test_h1_matches_dense_oracle(corpus, double_circle):
    for complex in list(corpus.values()) + [double_circle.order_complex()]:
        summary = h1(complex)
        assert (summary.betti1, summary.torsion) == dense_h1(complex)


def test_h1_of_second_and_third_subdivisions():
    summary = h1(sd(shapes.sd_projective_plane(), 1))
    assert (summary.betti1, summary.torsion) == (0, (2,))
    summary = h1(sd(shapes.sd_torus(), 2))
    assert (summary.betti1, summary.torsion) == (2, ())


def test_h1_circle():
    summary = h1(shapes.cycle_complex(6))
    assert summary.betti1 == 1
    assert summary.torsion == ()
    assert summary.min_generators == 1


def test_h1_sd_torus():
    summary = h1(shapes.sd_torus())
    assert (summary.betti1, summary.torsion) == (2, ())


def test_h1_sd_projective_plane():
    summary = h1(shapes.sd_projective_plane())
    assert (summary.betti1, summary.torsion) == (0, (2,))
    assert summary.min_generators == 1


def test_h1_subdivision_invariance(corpus, double_circle):
    small = [
        corpus["octahedron"],
        corpus["cycle4"],
        corpus["cycle6"],
        corpus["sum2"],
        shapes.torus_7(),
        shapes.projective_plane_6(),
        double_circle.order_complex(),
    ]
    for complex in small:
        assert h1(complex) == h1(complex.barycentric_subdivision())


def test_h1_requires_connected():
    with pytest.raises(ValidationError):
        h1(SimplicialComplex([(0, 1), (2, 3)]))


def test_h1_sphere_trivial(corpus):
    for name in ("octahedron", "cross4", "cross5", "sum2", "sum3"):
        summary = h1(corpus[name])
        assert (summary.betti1, summary.torsion) == (0, ())


# -- cycle classes ----------------------------------------------------------------------


def test_cycle_equal_to_itself():
    hexagon = shapes.cycle_complex(6)
    z = edge_path_cycle_vector(hexagon, [(i, (i + 1) % 6) for i in range(6)])
    assert cycle_class_equal(hexagon, z, z)


def test_fundamental_cycle_not_boundary():
    hexagon = shapes.cycle_complex(6)
    z = edge_path_cycle_vector(hexagon, [(i, (i + 1) % 6) for i in range(6)])
    zero = [0] * len(z)
    assert not cycle_class_equal(hexagon, z, zero)


def test_triangle_boundary_is_trivial_class():
    solid = SimplicialComplex([(0, 1, 2)])
    z = edge_path_cycle_vector(solid, [(0, 1), (1, 2), (2, 0)])
    zero = [0] * 3
    assert cycle_class_equal(solid, z, zero)


def test_cycle_check_rejects_non_cycles():
    hexagon = shapes.cycle_complex(6)
    not_cycle = [1, 0, 0, 0, 0, 0]
    with pytest.raises(ValidationError):
        cycle_class_equal(hexagon, not_cycle, not_cycle)


def test_cycle_check_rejects_wrong_length():
    hexagon = shapes.cycle_complex(6)
    with pytest.raises(ValidationError):
        cycle_class_equal(hexagon, [0] * 5, [0] * 5)


def test_cycle_classes_on_the_double_circle(double_circle):
    # its two edges join the same atoms, so [1, -1] is a cycle, and with no
    # 2-cells it bounds nothing
    assert cycle_class_equal(double_circle, [1, -1], [1, -1])
    assert not cycle_class_equal(double_circle, [1, -1], [0, 0])
    with pytest.raises(ValidationError, match="^input is not a cycle$"):
        cycle_class_equal(double_circle, [1, 0], [1, 0])


def class_queries(space, roots, same_class, seed, count=30):
    """Compare ``cycle_class_equal`` with ``same_class`` on seeded pairs of cycles, each
    a sum of closed walks from ``roots``; returns the answers seen."""
    ends, rng, outcomes = edge_ends(space), random.Random(seed), set()
    for _ in range(count):
        first = [sum(x) for x in zip(*(random_cycle(ends, rng, r) for r in roots))]
        extra = random_cycle(ends, rng, rng.choice(roots))
        k = rng.choice([1, 2])
        second = [x + k * y for x, y in zip(first, extra)] if rng.random() < 0.5 else extra
        answer = cycle_class_equal(space, first, second)
        assert answer == same_class(first, second)
        outcomes.add(answer)
    return outcomes


def two_projective_planes():
    rp2 = shapes.sd_projective_plane()
    return SimplicialComplex(list(rp2.facets) + [tuple(v + 1000 for v in f) for f in rp2.facets])


def torus_and_a_point():
    return SimplicialComplex(list(shapes.sd_torus().facets) + [(999,)])


CLASS_CASES = {  # name -> (build, the roots the walks start from, number of components)
    "sd_torus": (shapes.sd_torus, [0], 1),
    "sd_rp2": (shapes.sd_projective_plane, [0], 1),
    # a tree per copy; H1 is (Z/2)^2, so a loop through one copy differs from one through both
    "two_rp2": (two_projective_planes, [0, 1000], 2),
    "torus_and_a_point": (torus_and_a_point, [0], 2),  # a vertex on no edge
    # parallel edges: one is the forest, the other the only row of d2
    "double_circle": (shapes.double_edge_circle, [0], 1),
}


@pytest.mark.parametrize("name", list(CLASS_CASES))
def test_cycle_class_matches_dense_membership(name):
    build, roots, components = CLASS_CASES[name]
    space = build()
    cotree = chain_data(space)["cotree"]
    assert len(cotree) == len(edge_ends(space)) - len(space.vertices) + components
    d2 = poset_d2(space) if isinstance(space, SimplicialPoset) else boundary_matrices(space)[1]
    assert class_queries(space, roots, dense_membership(d2), seed=name, count=40) == {True, False}


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_cycle_classes_on_face_posets_match_dense_membership(corpus, name):
    poset = face_poset(corpus[name])
    d2 = poset_d2(poset)
    assert d2 == boundary_matrices(corpus[name])[1]  # a face poset keeps the complex's cells
    outcomes = class_queries(poset, [poset.atoms()[0]], dense_membership(d2), seed=11)
    assert outcomes == ({True} if h1(poset).min_generators == 0 else {True, False})


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_factor_rows_are_the_edges_off_a_spanning_forest(corpus, name):
    for space in (corpus[name], face_poset(corpus[name])):
        data = chain_data(space)
        cotree, factor = set(data["cotree"]), data["d2"]
        assert list(data["cotree"]) == sorted(cotree)
        trees = {v: v for e in data["edges"] for v in e}

        def root(v):
            while trees[v] != v:
                v = trees[v]
            return v

        forest = [e for i, e in enumerate(data["edges"]) if i not in cotree]
        for a, b in forest:  # acyclic...
            assert root(a) != root(b)
            trees[root(a)] = root(b)
        assert all(root(a) == root(b) for a, b in data["edges"])  # ...and spanning
        assert len(forest) == len(space.vertices) - 1
        # no forest row in any pivot column or in the residual: every row is a cotree edge's
        rows = range(len(cotree))
        assert all(i in rows for _, col in factor.pivots for i in col)
        assert all(i in rows for i in factor.rows)


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_h1_matches_dense_oracle_on_spread_ids(corpus, name):
    # gapped ids in shuffled order, so the forest reads the edges in a new order
    complex = corpus[name]
    rng = random.Random(name)
    spread = dict(zip(complex.vertices, rng.sample(range(10**6, 10**9, 7919), len(complex.vertices))))
    relabelled = SimplicialComplex([tuple(spread[v] for v in f) for f in complex.facets])
    expected = dense_h1(relabelled)
    assert expected == dense_h1(complex)
    for space in (relabelled, face_poset(relabelled)):
        summary = h1(space)
        assert (summary.betti1, summary.torsion) == expected


def test_degenerate_edges_contribute_nothing():
    hexagon = shapes.cycle_complex(6)
    z = edge_path_cycle_vector(hexagon, [(0, 0), (0, 1), (1, 1), (1, 0)])
    assert z == [0] * 6


def test_edge_path_cycle_vector_names_a_missing_edge():
    # {0, 1} is an antipodal pair of the octahedron, never an edge
    with pytest.raises(FaceNotFoundError, match=r"\(0,1\) is not an edge of the complex"):
        edge_path_cycle_vector(shapes.cross_polytope(3), [(0, 1)])
