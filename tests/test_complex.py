import json
import random
import re
import sys
import traceback
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_face_counts, corpus_complexes, h_from_f_by_polynomial
from oracles import oracle_octahedron_sum, oracle_proper_coloring

from topokit import (
    FaceNotFoundError,
    MissingColoringError,
    PurityError,
    SimplicialComplex,
    SimplicialPoset,
    ValidationError,
    connected_sum,
    face_poset,
    find_balanced_coloring,
    h_additivity_table,
)
from topokit import shapes
from topokit.complex import _tops_connected, proper_coloring


@pytest.fixture(scope="module")
def octahedron():
    return shapes.cross_polytope(3)


# -- face enumeration ---------------------------------------------------------


def test_single_edge_vertices():
    edge = SimplicialComplex([(0, 1)])
    assert edge.faces(0) == [(0,), (1,)]
    assert edge.faces(-1) == [()]


def test_octahedron_edge_count_matches_brute_force(octahedron):
    assert len(octahedron.faces(1)) == 12
    assert octahedron.f_vector() == brute_force_face_counts(octahedron)


def test_face_dimension_out_of_range(octahedron):
    with pytest.raises(ValidationError, match=r"face dimension 3 out of range \[-1, 2\]"):
        octahedron.faces(3)
    with pytest.raises(ValidationError, match="face dimension -2 out of range"):
        octahedron.faces(-2)


def test_faces_are_lexicographically_sorted(octahedron):
    edges = octahedron.faces(1)
    assert edges == sorted(edges)


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_faces_of_each_size_are_the_slice_of_one_sorted_face_list(name):
    """``faces(k)`` reads by-length buckets, each sorted alone: the same lists as the
    slices of every face sorted by (length, face)."""
    complex = corpus_complexes()[name]
    ordered = sorted(complex.face_set(), key=lambda f: (len(f), f))
    for k in range(-1, complex.dim + 1):
        assert complex.faces(k) == [f for f in ordered if len(f) == k + 1], k


# -- f- and h-vectors ----------------------------------------------------------


def test_f_vectors():
    assert SimplicialComplex([(0, 1)]).f_vector() == (1, 2, 1)
    assert shapes.cross_polytope(3).f_vector() == (1, 6, 12, 8)
    assert shapes.cycle_complex(6).f_vector() == (1, 6, 6)


def test_h_vectors():
    assert SimplicialComplex([(0, 1)]).h_vector() == (1, 0, 0)
    assert shapes.cross_polytope(3).h_vector() == (1, 3, 3, 1)
    assert shapes.cycle_complex(6).h_vector() == (1, 4, 1)


def test_h_vector_requires_pure():
    mixed = SimplicialComplex([(0, 1, 2), (2, 3)])
    with pytest.raises(PurityError):
        mixed.h_vector()


def test_h_f_polynomial_identity(corpus):
    # sum_i h_i lam^(d-i) == sum_i f_{i-1} (lam-1)^(d-i), checked at lam = 0, 1, 2
    for complex in corpus.values():
        f, h = complex.f_vector(), complex.h_vector()
        d = len(h) - 1
        for lam in (0, 1, 2):
            lhs = sum(h[i] * lam ** (d - i) for i in range(d + 1))
            assert lhs == h_from_f_by_polynomial(f, lam)


def test_h_vector_sums_to_facet_count(corpus):
    for complex in corpus.values():
        assert sum(complex.h_vector()) == len(complex.facets)


# -- link and star ---------------------------------------------------------------


def test_link_of_empty_face_is_whole_complex(octahedron):
    assert octahedron.link(()) == octahedron


def test_octahedron_vertex_link_is_four_cycle(octahedron):
    link = octahedron.link((0,))
    assert link.f_vector() == (1, 4, 4)
    assert link.is_connected()
    assert link.h_vector() == (1, 2, 1)


def test_link_of_vertex_in_edge():
    edge = SimplicialComplex([(0, 1)])
    assert edge.link((0,)).facets == ((1,),)


def test_link_requires_existing_face(octahedron):
    with pytest.raises(FaceNotFoundError):
        octahedron.link((0, 1))  # antipodal pair, not an edge


def test_link_coloring_is_restricted(octahedron):
    link = octahedron.link((0,))
    kappa = octahedron.coloring
    assert link.coloring == {v: kappa[v] for v in link.vertices}


# -- rank selection ---------------------------------------------------------------


def test_rank_select_all_colors_is_identity(octahedron):
    assert octahedron.rank_select({1, 2, 3}) == octahedron


def test_rank_select_pair_is_four_cycle(octahedron):
    sub = octahedron.rank_select({1, 2})
    assert sub.f_vector() == (1, 4, 4)
    assert sub.is_connected()


def test_rank_select_empty_is_empty_complex(octahedron):
    sub = octahedron.rank_select(set())
    assert sub.facets == ((),)
    assert sub.f_vector() == (1,)
    assert sub.h_vector() == (1,)


def test_rank_select_needs_coloring():
    with pytest.raises(MissingColoringError):
        shapes.torus_7().rank_select({1, 2})


def test_h_additivity_on_corpus_members(corpus):
    for name in ("octahedron", "cycle6", "sd_rp2"):
        assert h_additivity_table(corpus[name])["holds"]


# -- balanced colorings --------------------------------------------------------------


def test_simplex_coloring_assigns_distinct_colors():
    simplex = SimplicialComplex([(0, 1, 2, 3)])
    coloring = find_balanced_coloring(simplex)
    assert sorted(coloring.values()) == [1, 2, 3, 4]


def test_even_cycle_coloring_alternates():
    coloring = find_balanced_coloring(SimplicialComplex([(i, (i + 1) % 6) for i in range(6)]))
    assert coloring is not None
    for i in range(6):
        assert coloring[i] != coloring[(i + 1) % 6]


def test_odd_cycle_has_no_balanced_coloring():
    five = SimplicialComplex([(i, (i + 1) % 5) for i in range(5)])
    assert find_balanced_coloring(five) is None


def test_coloring_search_is_deterministic():
    hexagon = SimplicialComplex([(i, (i + 1) % 6) for i in range(6)])
    assert find_balanced_coloring(hexagon) == find_balanced_coloring(hexagon)


# Colors found for the uncolored corpus by the earlier recursive search, in
# vertex order (every corpus complex has vertices 0..n-1).
PINNED_COLORINGS = {
    "octahedron": "112233",
    "cross4": "11223344",
    "cross5": "1122334455",
    "cycle4": "1212",
    "cycle6": "121212",
    "cycle8": "12121212",
    "sd_torus": "111111122222222222222222222233333333333333",
    "sd_rp2": "1111112222222222222223333333333",
    "sum2": "112233123",
    "sum3": "112233123123",
}


@pytest.mark.parametrize("name", sorted(PINNED_COLORINGS))
def test_coloring_search_matches_pinned_colorings(name):
    bare = SimplicialComplex(corpus_complexes()[name].facets)
    coloring = find_balanced_coloring(bare)
    assert "".join(str(coloring[v]) for v in bare.vertices) == PINNED_COLORINGS[name]


def test_coloring_search_does_not_recurse_per_vertex():
    sd2 = SimplicialComplex(shapes.sd_torus().barycentric_subdivision().facets)
    assert len(sd2.vertices) == 252
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 100)
    try:
        coloring = find_balanced_coloring(sd2)
    finally:
        sys.setrecursionlimit(limit)
    assert coloring is not None
    assert all(coloring[u] != coloring[v] for u, v in sd2.edges())


def _stalls_without_backtracking(vertices, adjacency, palette) -> bool:
    """Whether the first descent of the pick rule (fewest colors left, then least id;
    least color) meets a vertex with no color left."""
    assignment = {}
    while len(assignment) < len(vertices):
        left, v = min(
            (len(set(palette) - {assignment.get(u) for u in adjacency[v]}), v) for v in vertices if v not in assignment
        )
        if not left:
            return True
        assignment[v] = min(set(palette) - {assignment.get(u) for u in adjacency[v]})
    return False


def test_coloring_search_matches_the_scanning_oracle_on_random_graphs():
    """Seeded graphs on gapped ids near the density where three colors run out: the
    heap's picks give the oracle's coloring, or None with it, also where the search
    backtracks."""
    rng, outcomes = random.Random(28), Counter()
    for _ in range(600):
        ids = rng.sample(range(10**6, 10**6 + 99), rng.randint(10, 20))
        adjacency = {v: set() for v in ids}
        edge_odds = rng.uniform(0.15, 0.4)
        for u, v in combinations(ids, 2):
            if rng.random() < edge_odds:
                adjacency[u].add(v)
                adjacency[v].add(u)
        adjacency = {v: tuple(sorted(ns)) for v, ns in adjacency.items()}
        palette = rng.sample(range(1, 9), 3)
        expected = oracle_proper_coloring(ids, adjacency, palette)
        assert proper_coloring(ids, adjacency, palette) == expected
        stalled = _stalls_without_backtracking(ids, adjacency, palette)
        outcomes["none" if expected is None else "backtracked" if stalled else "straight"] += 1
    assert min(outcomes["none"], outcomes["backtracked"], outcomes["straight"]) >= 10, outcomes


def _uncolored(space):
    return SimplicialComplex(space.facets)


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_coloring_search_matches_the_scanning_oracle_on_the_corpus(name):
    bare = _uncolored(corpus_complexes()[name])
    for space in (bare, _uncolored(bare.barycentric_subdivision()), face_poset(bare)):
        palette = range(1, space.d + 1)
        expected = oracle_proper_coloring(space.vertices, space.adjacency(), palette)
        assert find_balanced_coloring(space) == expected is not None


# -- property checks -------------------------------------------------------------------


def test_octahedron_properties(octahedron):
    report = octahedron.check_properties()
    assert report.pure and report.balanced and report.links_connected


def test_disconnected_complex_fails_link_check():
    two_edges = SimplicialComplex([(0, 1), (2, 3)])
    report = two_edges.check_properties()
    assert report.pure
    assert not report.links_connected


def test_cycle_properties():
    report = shapes.cycle_complex(6).check_properties()
    assert report.pure and report.balanced and report.links_connected


def test_improper_attached_coloring_rejected():
    with pytest.raises(ValidationError):
        SimplicialComplex([(0, 1)], coloring={0: 1, 1: 1})
    # colors and labels are checked, not converted: 1.9 and 1.2 are not both color 1
    with pytest.raises(ValidationError, match="1.9"):
        SimplicialComplex([(0, 1), (1, 2)], coloring={0: 1.9, 1: 2, 2: 1.2})
    with pytest.raises(ValidationError, match="True"):
        SimplicialComplex([(0, 1)], coloring={0: True, 1: 2})
    with pytest.raises(ValidationError, match=r"\[1, 2\]"):
        SimplicialComplex([(0, 1)], labels={0: [1, 2]})


def test_ids_of_colors_and_labels_are_checked_not_converted():
    with pytest.raises(ValidationError, match="'x'"):
        SimplicialComplex([(0, 1)], coloring={"x": 1, 0: 1, 1: 2})
    with pytest.raises(ValidationError, match="'a'"):
        SimplicialComplex([(0, 1)], labels={"a": "x"})
    with pytest.raises(ValidationError, match="0.5"):  # not dropped as a color off the vertices
        SimplicialComplex([(0, 1)], coloring={0.5: 1, 0: 1, 1: 2})
    with pytest.raises(ValidationError, match="True"):
        SimplicialComplex([(0, 1)], labels={True: "x"})


# each is read by ``int()`` as an id that ``str()`` writes otherwise
NON_CANONICAL_KEYS = ["00", " 0", "+0", "-0", "0\n", "1_0"]
ID_MAPS = {
    "complex-coloring": {"type": "complex", "facets": [[0, 1], [0, 10]], "coloring": {"0": 1, "1": 2, "10": 2}},
    "complex-labels": {"type": "complex", "facets": [[0, 1], [0, 10]], "labels": {"0": "a", "1": "b", "10": "c"}},
    "poset-coloring": {
        "type": "poset",
        "elements": [{"id": x, "rank": 1} for x in (0, 1, 10)] + [{"id": 2, "rank": 2}, {"id": 3, "rank": 2}],
        "covers": [[0, 2], [1, 2], [0, 3], [10, 3]],
        "coloring": {"0": 1, "1": 2, "10": 2},
    },
}


@pytest.mark.parametrize("key", NON_CANONICAL_KEYS)
@pytest.mark.parametrize("name", sorted(ID_MAPS))
def test_json_id_keys_must_be_written_canonically(name, key):
    data = ID_MAPS[name]
    field = "labels" if "labels" in data else "coloring"
    # a second key for an id that is already there, with the same value
    data = {**data, field: {**data[field], key: data[field][str(int(key))]}}
    load = SimplicialPoset.from_json if data["type"] == "poset" else SimplicialComplex.from_json
    with pytest.raises(ValidationError, match=f'"{field}" id {re.escape(repr(key))} is not'):
        load(data)


# -- strong connectivity ------------------------------------------------------------------


def test_octahedron_strongly_connected(octahedron):
    assert octahedron.is_strongly_connected()


def test_two_triangles_sharing_vertex_not_strongly_connected():
    bowtie = SimplicialComplex([(0, 1, 2), (0, 3, 4)])
    assert not bowtie.is_strongly_connected()


def test_single_facet_strongly_connected():
    assert SimplicialComplex([(0, 1, 2)]).is_strongly_connected()


def test_strong_connectivity_requires_pure():
    with pytest.raises(PurityError):
        SimplicialComplex([(0, 1, 2), (2, 3)]).is_strongly_connected()


def test_properties_imply_strong_connectivity(corpus):
    for complex in corpus.values():
        assert complex.check_properties().all_hold
        assert complex.is_strongly_connected()


def test_two_color_selections_are_connected(corpus):
    from itertools import combinations

    for complex in corpus.values():
        for pair in combinations(complex.colors, 2):
            assert complex.rank_select(pair).is_connected()


def test_links_of_small_faces_inherit_properties(corpus):
    for name in ("octahedron", "cross4", "sd_rp2"):
        complex = corpus[name]
        for size in range(0, complex.d - 1):
            for face in complex.faces(size - 1):
                assert complex.link(face).check_properties().all_hold


# -- barycentric subdivision ------------------------------------------------------------------


def test_sd_of_edge_is_path():
    sd = SimplicialComplex([(0, 1)]).barycentric_subdivision()
    assert sd.f_vector() == (1, 3, 2)


def test_sd_of_triangle_has_six_facets():
    sd = SimplicialComplex([(0, 1, 2)]).barycentric_subdivision()
    assert len(sd.facets) == 6


def test_sd_vertex_count_is_face_count(octahedron):
    sd = octahedron.barycentric_subdivision()
    assert sd.f_vector()[1] == 6 + 12 + 8


def test_sd_is_balanced_by_size(corpus):
    for name in ("octahedron", "cycle6"):
        sd = corpus[name].barycentric_subdivision()
        report = sd.check_properties()
        assert report.balanced
        assert set(sd.coloring.values()) == set(range(1, sd.d + 1))


# -- connected sums -----------------------------------------------------------------------------


def test_sum_of_edges_is_path():
    e1 = SimplicialComplex([(0, 1)])
    e2 = SimplicialComplex([(0, 1)])
    total = connected_sum(e1, e2, (1,), (0,), {1: 0})
    assert total.f_vector() == (1, 3, 2)


def test_octahedron_sum_counts():
    total = shapes.octahedron_sum(2)
    assert total.f_vector()[1] == 9
    assert len(total.facets) == 14


def test_sum_of_balanced_is_balanced():
    total = shapes.octahedron_sum(3)
    assert total.check_properties().balanced
    assert len(total.colors) == 3


@pytest.mark.parametrize("copies", [*range(1, 61), 150])
def test_octahedron_sum_matches_the_fold_over_connected_sum(copies):
    total, oracle = shapes.octahedron_sum(copies), oracle_octahedron_sum(copies)
    assert total.facets == oracle.facets
    assert total.coloring == oracle.coloring
    assert json.dumps(total.to_json()) == json.dumps(oracle.to_json())


def test_octahedron_sum_builds_as_many_complexes_for_any_number_of_copies(monkeypatch):
    built = []
    build = SimplicialComplex._build

    def counting(self, *args):
        built.append(self)
        build(self, *args)

    monkeypatch.setattr(SimplicialComplex, "_build", counting)
    counts = []
    for copies in (2, 200):
        built.clear()
        assert len(shapes.octahedron_sum(copies).facets) == 6 * copies + 2
        counts.append(len(built))
    assert counts[0] == counts[1], counts


OCT3 = shapes.cross_polytope(3)
F = OCT3.facets[0]
SUM_REFUSALS = {
    "impure": (
        (OCT3, SimplicialComplex([(0, 1, 2), (2, 3)]), F, (0, 1, 2), {v: v for v in F}),
        PurityError,
        "connected sums need pure summands",
    ),
    "dimensions": ((OCT3, shapes.cycle_complex(4), F, (0, 1), {}), ValidationError, "dimension mismatch: 2 vs 1"),
    "face sizes": (
        (OCT3, OCT3, (0, 2), F, {0: 0, 2: 2}),
        ValidationError,
        "glued faces must be nonempty and of equal size",
    ),
    "first face": (
        (OCT3, OCT3, (0, 1, 2), F, dict(zip((0, 1, 2), F))),
        FaceNotFoundError,
        r"\[0, 1, 2\] is not a face of the first summand",
    ),
    "second face": (
        (OCT3, OCT3, F, (0, 1, 2), dict(zip(F, (0, 1, 2)))),
        FaceNotFoundError,
        r"\[0, 1, 2\] is not a face of the second summand",
    ),
    "matching": (
        (OCT3, OCT3, F, F, {v: v for v in OCT3.facets[1]}),
        ValidationError,
        "matching must be a bijection from face1 onto face2",
    ),
    "one colored": (
        (OCT3, SimplicialComplex(OCT3.facets), F, F, {v: v for v in F}),
        ValidationError,
        "cannot align colors: exactly one summand is colored",
    ),
    "palettes": (
        (
            SimplicialComplex([(0, 1)], {0: 1, 1: 2}),
            SimplicialComplex([(0, 1), (1, 2)], {0: 1, 1: 2, 2: 3}),
            (0, 1),
            (0, 1),
            {0: 0, 1: 1},
        ),
        ValidationError,
        "cannot align colors: palettes differ in size",
    ),
}


@pytest.mark.parametrize("name", sorted(SUM_REFUSALS))
def test_sum_refusals_name_their_cause(name):
    args, error, message = SUM_REFUSALS[name]
    with pytest.raises(error, match=f"^{message}$"):
        connected_sum(*args)


def test_colored_wedge_keeps_labels_and_aligns_colors():
    path = SimplicialComplex([(0, 1), (1, 2)], {0: 1, 1: 2, 2: 3}, {0: "a", 2: "c"})
    fork = SimplicialComplex([(5, 7), (7, 9)], {5: 3, 7: 1, 9: 2}, {5: "p", 7: "q", 9: "r"})
    total = connected_sum(path, fork, (2,), (7,), {2: 7})
    assert total.facets == ((0, 1), (1, 2), (2, 3), (2, 4))
    # 7's color 1 goes to 2's color 3; the free colors 2, 3 go to 1, 2 in ascending order
    assert total.coloring == {0: 1, 1: 2, 2: 3, 3: 2, 4: 1}
    assert total.labels == {0: "a", 2: "c", 3: "p", 4: "r"}


def test_sum_error_cases():
    oct3 = shapes.cross_polytope(3)
    square = shapes.cycle_complex(4)
    with pytest.raises(ValidationError):
        connected_sum(oct3, square, oct3.facets[0], square.facets[0], {})
    f = oct3.facets[0]
    with pytest.raises(FaceNotFoundError):
        connected_sum(oct3, oct3, (0, 1, 2), f, dict(zip((0, 1, 2), f)))
    with pytest.raises(ValidationError):
        connected_sum(oct3, oct3, f, f, {v: v for v in oct3.facets[1]})


# -- constructor and JSON -----------------------------------------------------------------------


def test_duplicate_facets_rejected():
    with pytest.raises(ValidationError):
        SimplicialComplex([(0, 1), (0, 1)])


def test_contained_facets_rejected():
    with pytest.raises(ValidationError):
        SimplicialComplex([(0, 1, 2), (0, 1)])


@pytest.mark.parametrize(
    "facets,named",
    [
        ([(0, 1, 2), (1, 2)], [1, 2]),
        ([(3, 4), (0, 1, 2), (2,), (1, 2, 5, 6)], [2]),  # (2,) comes first in size order
        ([(), (0, 1)], []),  # an empty facet beside a non-empty one
        ([(0,), ()], []),
    ],
)
def test_contained_facet_message_names_the_first_in_size_order(facets, named):
    with pytest.raises(ValidationError, match=rf"^facet {re.escape(str(named))} is contained in a larger facet$"):
        SimplicialComplex(facets)


def containment_by_pairs(facets):
    """The first facet, in (size, ids) order, inside a larger one: every pair compared."""
    unique = sorted({tuple(sorted(f)) for f in facets}, key=lambda f: (len(f), f))
    return next((list(f) for f in unique if any(set(f) < set(g) for g in unique)), None)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.integers(0, 7), max_size=4, unique=True), min_size=1, max_size=10, unique_by=lambda f: tuple(sorted(f))))
def test_containment_check_matches_pairwise_scan(facets):
    expected = containment_by_pairs(facets)
    if expected is None:
        SimplicialComplex(facets)
    else:
        with pytest.raises(ValidationError, match=rf"^facet {re.escape(str(expected))} is contained"):
            SimplicialComplex(facets)


def test_from_faces_maximalizes():
    complex = SimplicialComplex.from_faces([(0, 1, 2), (0, 1), (2,)])
    assert complex.facets == ((0, 1, 2),)


# -- star index against brute-force scans ----------------------------------------------------

face_lists = st.lists(st.lists(st.integers(0, 7), max_size=4, unique=True), max_size=12)


def scan_facets_containing(complex, face):
    """Every facet checked in stored order: the index must answer exactly this."""
    fs = set(face)
    return [f for f in complex.facets if fs <= set(f)]


def maximal_by_pairs(faces):
    """Faces contained in no other face, every pair compared."""
    unique = {tuple(sorted(f)) for f in faces}
    kept = [f for f in unique if not any(set(f) < set(g) for g in unique)]
    return tuple(sorted(kept, key=lambda f: (len(f), f))) or ((),)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(face_lists, st.lists(st.lists(st.integers(0, 9), max_size=4, unique=True), max_size=6))
def test_facets_containing_matches_scan(faces, queries):
    complex = SimplicialComplex.from_faces(faces)
    for face in sorted(complex.face_set()) + queries + [[], [8], [3, 9]]:
        assert complex.facets_containing(face) == scan_facets_containing(complex, face)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(face_lists)
def test_from_faces_matches_pairwise_maximal_filter(faces):
    assert SimplicialComplex.from_faces(faces).facets == maximal_by_pairs(faces)


# -- the connectivity walk against the link-building definitions ---------------------


def skeleton_connected(complex):
    """Walk the 1-skeleton adjacency of a built complex (the definition before the walk)."""
    adjacency = complex.adjacency()
    seen = set(complex.vertices[:1])
    stack = list(seen)
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(complex.vertices)


def ridge_grouped_strongly_connected(complex):
    """Facets joined when they share a ridge, through the facets grouped by ridge."""
    by_ridge = {}
    for f in complex.facets:
        for ridge in combinations(f, len(f) - 1) if f else ():
            by_ridge.setdefault(ridge, []).append(f)
    reached = {complex.facets[0]}
    grew = True
    while grew:
        grew = False
        for group in by_ridge.values():
            if reached.intersection(group) and not reached.issuperset(group):
                reached.update(group)
                grew = True
    return len(reached) == len(complex.facets)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(face_lists)
def test_connectivity_walk_matches_link_definitions(faces):
    complex = SimplicialComplex.from_faces(faces)
    small = []
    for face in sorted(complex.face_set()):
        built = skeleton_connected(complex.link(face))
        assert _tops_connected(complex._link_tops(face)) == built, face
        if len(face) < complex.d - 1:
            small.append(built)
    assert complex.check_properties().links_connected == all(small)
    assert complex.is_connected() == skeleton_connected(complex)
    if complex.is_pure:
        assert complex.is_strongly_connected() == ridge_grouped_strongly_connected(complex)


@pytest.mark.parametrize(
    "facets,strongly,links,connected",
    [
        ([], True, True, True),  # the void complex
        ([()], True, True, True),
        ([(0,), (1,)], True, True, False),  # two points share the empty ridge
        ([(0, 1), (2, 3)], False, False, False),
    ],
)
def test_connectivity_of_degenerate_complexes(facets, strongly, links, connected):
    complex = SimplicialComplex(facets)
    assert complex.is_strongly_connected() == strongly
    assert complex.check_properties().links_connected == links
    assert complex.is_connected() == connected


def test_json_roundtrip(octahedron):
    data = octahedron.to_json()
    again = SimplicialComplex.from_json(data)
    assert again == octahedron
    assert again.to_json() == data


def test_json_rejects_unsorted_facet():
    with pytest.raises(ValidationError):
        SimplicialComplex.from_json({"type": "complex", "facets": [[1, 0]]})


def test_json_rejects_duplicates():
    with pytest.raises(ValidationError):
        SimplicialComplex.from_json({"type": "complex", "facets": [[0, 1], [0, 1]]})
