import random

import pytest

from conftest import invariant_factors_by_minors

from topokit import (
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
from topokit.homology import mat_mul, snf_diagonal


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


# -- first homology -----------------------------------------------------------------


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


def test_degenerate_edges_contribute_nothing():
    hexagon = shapes.cycle_complex(6)
    z = edge_path_cycle_vector(hexagon, [(0, 0), (0, 1), (1, 1), (1, 0)])
    assert z == [0] * 6
