import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_complexes, invariant_factors_by_minors, random_closed_path

from topokit import (
    FaceNotFoundError,
    SimplicialComplex,
    ValidationError,
    boundary_matrices,
    cycle_class_equal,
    edge_path_cycle_vector,
    h1,
    invariant_factors,
    smith_normal_form,
    snf_is_valid,
)
from topokit import shapes
from topokit.homology import mat_mul, snf_diagonal, unit_pivot_factor


def dense_h1(complex):
    """H1 from the dense boundary matrices and their dense Smith normal forms."""
    d1, d2 = boundary_matrices(complex)
    factors2 = invariant_factors(d2)
    betti = len(d2) - len(invariant_factors(d1)) - len(factors2)
    return betti, tuple(x for x in factors2 if x > 1)


def dense_class_oracle(complex):
    """Membership of z1 - z2 in im d2, through the dense U of the Smith form of d2."""
    u, d, _ = smith_normal_form(boundary_matrices(complex)[1])
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


@pytest.mark.parametrize("name", ["sd_torus", "sd_rp2"])
def test_cycle_class_matches_dense_membership(corpus, name):
    complex = corpus[name]
    same_class = dense_class_oracle(complex)
    rng = random.Random(11)
    outcomes = set()
    for _ in range(40):
        root = rng.choice(complex.vertices)
        first = random_closed_path(complex, root, rng)
        extra = random_closed_path(complex, root, rng)
        second = first + extra * rng.choice([1, 2]) if rng.random() < 0.5 else extra
        z1 = edge_path_cycle_vector(complex, first)
        z2 = edge_path_cycle_vector(complex, second)
        answer = cycle_class_equal(complex, z1, z2)
        assert answer == same_class(z1, z2)
        outcomes.add(answer)
    assert outcomes == {True, False}


def test_degenerate_edges_contribute_nothing():
    hexagon = shapes.cycle_complex(6)
    z = edge_path_cycle_vector(hexagon, [(0, 0), (0, 1), (1, 1), (1, 0)])
    assert z == [0] * 6


def test_edge_path_cycle_vector_names_a_missing_edge():
    # {0, 1} is an antipodal pair of the octahedron, never an edge
    with pytest.raises(FaceNotFoundError, match=r"\(0,1\) is not an edge of the complex"):
        edge_path_cycle_vector(shapes.cross_polytope(3), [(0, 1)])
