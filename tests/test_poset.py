from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topokit import (
    FaceNotFoundError,
    HomologySummary,
    MissingColoringError,
    PurityError,
    SimplicialComplex,
    SimplicialPoset,
    ValidationError,
    build_nested_tree,
    face_poset,
    full_presentation,
    h1,
    poset_edge_path_group,
    restrict_presentation,
    tietze_simplify,
)
from conftest import corpus_complexes

from topokit import shapes
from topokit.pi1 import check_edge_path
from topokit.complex import _tops_connected


def shifted_double_circle(offset):
    base = shapes.double_edge_circle()
    ranks = {x + offset: base.rank(x) for x in base.ids}
    covers = [(lo + offset, hi + offset) for lo, hi in base.covers]
    coloring = {v + offset: c for v, c in base.coloring.items()}
    return ranks, covers, coloring


# -- validation -----------------------------------------------------------------


def test_face_poset_is_valid(corpus):
    for complex in corpus.values():
        face_poset(complex)  # the constructor refuses an invalid poset


def test_double_circle_is_valid(double_circle):
    for e in (2, 3):
        assert double_circle.atoms_of(e) == {0, 1}


def test_rank2_element_with_single_atom_invalid():
    with pytest.raises(ValidationError, match="^invalid simplicial poset: element 1 of rank 2 has 1 atoms"):
        SimplicialPoset({0: 1, 1: 2}, [(0, 1)])


def test_rank_jump_invalid():
    with pytest.raises(ValidationError, match=r"cover \(0, 1\) jumps from rank 1 to 3"):
        SimplicialPoset({0: 1, 1: 3}, [(0, 1)])


def test_colors_and_labels_are_checked_not_converted():
    with pytest.raises(ValidationError, match="True"):
        SimplicialPoset({0: 1, 1: 1}, [], coloring={0: True, 1: 2})
    with pytest.raises(ValidationError, match="'2'"):
        SimplicialPoset({0: 1, 1: 1}, [], coloring={0: 1, 1: "2"})
    with pytest.raises(ValidationError, match="None"):
        SimplicialPoset({0: 1}, [], labels={0: None})
    with pytest.raises(ValidationError, match="not an atom"):
        SimplicialPoset({0: 1, 1: 2}, [(0, 1)], coloring={0: 1, 1: 2})


def test_ids_and_ranks_are_checked_not_converted():
    with pytest.raises(ValidationError, match="1.7"):
        SimplicialPoset({0: 1.7}, [])
    with pytest.raises(ValidationError, match="'0'"):
        SimplicialPoset({"0": 1}, [])
    with pytest.raises(ValidationError, match="2.0"):
        SimplicialPoset({0: 1, 1: 1, 2: 2}, [(0, 2), (1, 2.0)])
    with pytest.raises(ValidationError, match="'x'"):
        SimplicialPoset({0: 1}, [], coloring={"x": 1})
    with pytest.raises(ValidationError, match="'a'"):
        SimplicialPoset({0: 1}, [], labels={"a": "x"})


def test_shared_atom_sets_invalid():
    # two rank-2 elements below one rank-3 element, both on the same atom pair
    with pytest.raises(ValidationError, match="element 4 of rank 3 has 2 atoms below it"):
        SimplicialPoset(
            {0: 1, 1: 1, 2: 2, 3: 2, 4: 3},
            [(0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4)],
        )


def brute_force_simplicial(ranks, covers) -> bool:
    """Whether each element x of rank k has 2^k - 1 elements at or below it, sent one to
    one onto the nonempty sets of x's atoms by taking atoms; covers go up one rank."""
    below: dict[int, set[int]] = {}
    for x in sorted(ranks, key=ranks.get):
        below[x] = {x}.union(*(below[lo] for lo, hi in covers if hi == x))
    for x, k in ranks.items():
        atoms = frozenset(z for z in below[x] if ranks[z] == 1)
        atom_sets = {atoms & below[y] for y in below[x]}
        nonempty = {frozenset(s) for n in range(1, len(atoms) + 1) for s in combinations(atoms, n)}
        if len(below[x]) != 2 ** k - 1 or len(atom_sets) != len(below[x]) or atom_sets != nonempty:
            return False
    return True


@st.composite
def ranked_posets(draw):
    """Elements of ranks 1 to 4 whose covers go up one rank: either drawn freely, or the
    face poset of a drawn complex with one cover dropped or added, or one element
    doubled (same lower covers) and the double put in place of another lower cover of
    an element above it, or in place of the element it copies below one element above
    it (below a tetrahedron, only the pairwise rank >= 4 condition refuses that), so
    that valid posets and near misses of every kind occur."""
    if draw(st.booleans()):
        layers = []
        for size in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
            start = sum(map(len, layers))
            layers.append(range(start, start + size))
        ranks = {x: r for r, layer in enumerate(layers, 1) for x in layer}
        covers = {
            (lo, hi)
            for r, (lower, layer) in enumerate(zip(layers, layers[1:]), 2)
            for hi in layer
            for lo in draw(
                st.lists(st.sampled_from(lower), min_size=1, max_size=r + 1, unique=True)
            )
        }
        return ranks, covers
    faces = st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True)
    poset = face_poset(SimplicialComplex.from_faces(draw(st.lists(faces, max_size=6))))
    ranks = {x: poset.rank(x) for x in poset.ids}
    covers = set(poset.covers)
    mutation = draw(st.sampled_from(["none", "drop", "add", "double", "split"]))
    if mutation == "drop" and covers:
        covers.discard(draw(st.sampled_from(sorted(covers))))
    pairs = sorted((lo, hi) for lo in ranks for hi in ranks if ranks[hi] == ranks[lo] + 1)
    if mutation == "add" and pairs:
        covers.add(draw(st.sampled_from(pairs)))
    if mutation in ("double", "split") and ranks:
        x, double = draw(st.sampled_from(sorted(ranks))), len(ranks)
        ranks[double] = ranks[x]
        covers |= {(lo, double) for lo, hi in covers if hi == x}
        if mutation == "double":
            others = sorted((y, hi) for y, hi in covers if (x, hi) in covers and y != x)
        else:
            others = sorted((y, hi) for y, hi in covers if y == x)
        if others:
            y, hi = draw(st.sampled_from(others))
            covers ^= {(y, hi), (double, hi)}
    return ranks, covers


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ranked_posets())
def test_validation_matches_brute_force_on_small_ranked_posets(poset_data):
    ranks, covers = poset_data
    valid = brute_force_simplicial(ranks, covers)
    try:
        SimplicialPoset(ranks, covers)
    except ValidationError as exc:
        assert not valid, exc
    else:
        assert valid


def test_parallel_sides_of_one_triangle_invalid():
    # every size is right (7 elements below 6, on 3 atoms), but 3 and 4 both join 0 and 1
    with pytest.raises(ValidationError, match="two elements below 6 share the same atom set"):
        SimplicialPoset(
            {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3},
            [(0, 3), (1, 3), (0, 4), (1, 4), (1, 5), (2, 5), (3, 6), (4, 6), (5, 6)],
        )


def test_triangles_over_parallel_edges_below_a_tetrahedron_invalid():
    # triangle 0-1-3 covers a copy 15 of edge 0-1 instead of the edge: every element up
    # to rank 3 has a Boolean interval and the tetrahedron 14 covers four triangles on
    # distinct atom sets, but 0-1-2 and 0-1-3 cover no common edge
    tetrahedron = face_poset(SimplicialComplex([(0, 1, 2, 3)]))
    assert (tetrahedron.labels[4], tetrahedron.labels[11]) == ("0-1", "0-1-3")
    ranks = {x: tetrahedron.rank(x) for x in tetrahedron.ids} | {15: 2}
    covers = set(tetrahedron.covers) - {(4, 11)} | {(0, 15), (1, 15), (15, 11)}
    SimplicialPoset(
        {x: r for x, r in ranks.items() if x != 14}, [c for c in covers if 14 not in c]
    )
    with pytest.raises(
        ValidationError,
        match="^invalid simplicial poset: two elements below 14 share the same atom set$",
    ):
        SimplicialPoset(ranks, covers)


# -- face posets -------------------------------------------------------------------


def test_face_poset_of_edge():
    poset = face_poset(SimplicialComplex([(0, 1)]))
    assert len(poset.ids) == 3
    assert len(poset.covers) == 2


def test_face_poset_of_triangle():
    poset = face_poset(SimplicialComplex([(0, 1, 2)]))
    assert len(poset.ids) == 7


def test_face_poset_of_octahedron(corpus):
    assert len(face_poset(corpus["octahedron"]).ids) == 26


# -- order complexes ------------------------------------------------------------------


def test_order_complex_of_edge_poset():
    oc = face_poset(SimplicialComplex([(0, 1)])).order_complex()
    assert oc.f_vector() == (1, 3, 2)


def test_order_complex_of_double_circle(double_circle):
    oc = double_circle.order_complex()
    assert oc.f_vector() == (1, 4, 4)
    assert sorted(oc.facets) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_order_complex_invariants(corpus, double_circle):
    posets = [double_circle, face_poset(corpus["octahedron"])]
    for poset in posets:
        oc = poset.order_complex()
        assert oc.f_vector()[1] == len(poset.ids)
        assert oc.check_properties().balanced
        assert oc.is_pure == poset.is_pure
        assert set(oc.coloring.values()) == set(range(1, poset.d + 1))
    impure = face_poset(SimplicialComplex([(0, 1, 2), (2, 3)]))
    assert not impure.is_pure
    assert not impure.order_complex().is_pure


def test_order_complex_matches_barycentric_subdivision(corpus):
    for name in ("octahedron", "cycle6"):
        complex = corpus[name]
        oc = face_poset(complex).order_complex()
        sd = complex.barycentric_subdivision()
        assert oc.facets == sd.facets
        assert oc.coloring == sd.coloring


# -- links ---------------------------------------------------------------------------


def test_link_of_bottom_is_whole_poset(double_circle):
    assert double_circle.link(None) is double_circle


def test_double_circle_atom_link(double_circle):
    link = double_circle.link(0)
    assert set(link.ids) == {2, 3}
    assert link.rank(2) == link.rank(3) == 1
    # inherited colors come from the opposite endpoints
    assert link.coloring == {2: 2, 3: 2}


def test_link_of_facet_is_empty(double_circle):
    link = double_circle.link(2)
    assert link.ids == ()


def test_link_of_missing_element(double_circle):
    with pytest.raises(FaceNotFoundError):
        double_circle.link(99)


def test_poset_links_inherit_properties(corpus, double_circle):
    posets = [double_circle, face_poset(corpus["octahedron"])]
    for poset in posets:
        d = poset.d
        for x in poset.ids:
            if poset.rank(x) < d - 1:
                assert poset.link(x).check_properties().all_hold


# -- the link walk against Hasse diagrams of built links ------------------------------


def hasse_connected(poset):
    """Walk the Hasse diagram of a built poset (the definition before the walk)."""
    neighbors = {x: set() for x in poset.ids}
    for lo, hi in poset.covers:
        neighbors[lo].add(hi)
        neighbors[hi].add(lo)
    seen = set(poset.ids[:1])
    stack = list(seen)
    while stack:
        for y in neighbors[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(poset.ids)


# The per-element link walk that ``links_connected`` ran before its sweep,
# kept as the oracle for it: ``_tops_connected(_link_tops(poset, x))``.
def _link_tops(self, x) -> list[tuple[int, ...]]:
    """For each facet above ``x``, the elements covering ``x`` below it (the
    atoms when ``x`` is the bottom ``None``).  Covers, not atoms: two rank-2
    elements may share their atoms without being joined in the link.  It walks the
    lower covers itself, so it reads none of the poset's rank or atom tables."""
    facets = []
    for m in self._rank:
        if not self._up[m]:
            below, stack = {m}, [m]
            while stack:
                for y in self._down[stack.pop()]:
                    if y not in below:
                        below.add(y)
                        stack.append(y)
            facets.append(below)
    if x is None:
        return [tuple(y for y in below if not self._down[y]) for below in facets]
    return [tuple(y for y in self._up[x] if y in below) for below in facets if x in below]


def check_link_walk(poset):
    small = []
    for x in [None, *poset.ids]:
        built = hasse_connected(poset.link(x))
        assert _tops_connected(_link_tops(poset, x)) == built, x
        if x is None or poset.rank(x) < poset.d - 1:
            small.append(built)
    assert poset.links_connected() == (poset.d < 2 or all(small))
    assert poset.is_connected() == hasse_connected(poset)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.integers(0, 6), max_size=4, unique=True), max_size=10))
def test_link_walk_matches_hasse_diagrams_on_face_posets(faces):
    complex = SimplicialComplex.from_faces(faces)
    poset = face_poset(complex)
    check_link_walk(poset)
    if complex.is_pure:
        assert poset.is_strongly_connected() == complex.is_strongly_connected()


def pinched_triangles():
    """Triangles 20 on atoms {0, 1, 2} and 21 on {0, 1, 3}, whose 0-1 sides
    are the distinct rank-2 elements 10 and 11."""
    ranks = {0: 1, 1: 1, 2: 1, 3: 1, 20: 3, 21: 3}
    ranks.update({e: 2 for e in range(10, 16)})
    covers = [(0, 10), (1, 10), (0, 12), (2, 12), (1, 13), (2, 13), (10, 20), (12, 20), (13, 20)]
    covers += [(0, 11), (1, 11), (0, 14), (3, 14), (1, 15), (3, 15), (11, 21), (14, 21), (15, 21)]
    return SimplicialPoset(ranks, covers, {0: 1, 1: 2, 2: 3, 3: 3})


def test_link_walk_on_double_circle_and_pinched_triangles(double_circle):
    check_link_walk(double_circle)
    check_link_walk(pinched_triangles())


def test_link_connectivity_joins_through_covers_not_atoms():
    poset = pinched_triangles()
    # both facets above atom 0 also hold atom 1, but no element covering 0
    assert not hasse_connected(poset.link(0))
    assert not poset.links_connected()
    report = poset.check_properties()
    assert report.pure and report.balanced and not report.links_connected


# -- rank selection --------------------------------------------------------------------


def test_rank_select_everything(double_circle):
    sub = double_circle.rank_select({1, 2})
    assert sub.ids == double_circle.ids
    assert sub.covers == double_circle.covers


def test_rank_select_commutes_with_face_poset(corpus):
    octa = corpus["octahedron"]
    left = face_poset(octa).rank_select({1, 2})
    right = face_poset(octa.rank_select({1, 2}))
    # same shape up to ids: compare rank counts and cover counts
    assert [len(left.elements_of_rank(r)) for r in (1, 2)] == [
        len(right.elements_of_rank(r)) for r in (1, 2)
    ]
    assert len(left.covers) == len(right.covers)


def test_rank_select_needs_coloring():
    poset = face_poset(shapes.torus_7())
    with pytest.raises(MissingColoringError):
        poset.rank_select({1, 2})


def test_two_color_selections_connected(corpus, double_circle):
    from itertools import combinations

    posets = [double_circle] + [face_poset(corpus[n]) for n in ("octahedron", "cycle6")]
    for poset in posets:
        for pair in combinations(poset.colors, 2):
            assert poset.rank_select(pair).is_connected()


# -- properties --------------------------------------------------------------------------


def test_double_circle_properties(double_circle):
    report = double_circle.check_properties()
    assert report.pure and report.balanced and report.links_connected


def test_face_poset_properties(corpus):
    report = face_poset(corpus["octahedron"]).check_properties()
    assert report.pure and report.balanced and report.links_connected


def test_disjoint_union_fails_link_connectivity():
    r1, c1, col1 = shifted_double_circle(0)
    r2, c2, col2 = shifted_double_circle(10)
    union = SimplicialPoset(r1 | r2, c1 + c2, col1 | col2)
    report = union.check_properties()
    assert report.pure
    assert not report.links_connected


# -- the 1-skeleton shared with complexes -------------------------------------------------------


def disjoint_triangles():
    return SimplicialComplex([(0, 1, 2), (3, 4, 5)], coloring={0: 1, 1: 2, 2: 3, 3: 1, 4: 2, 5: 3})


@pytest.mark.parametrize("name", [*corpus_complexes(), "disjoint-triangles"])
def test_face_poset_answers_like_its_complex_on_the_1_skeleton(corpus, name):
    complex = corpus[name] if name in corpus else disjoint_triangles()
    poset = face_poset(complex)
    vertex = {a: int(poset.labels[a]) for a in poset.atoms()}
    assert sorted(vertex.values()) == list(complex.vertices)
    adjacency = poset.adjacency()
    assert {vertex[a]: tuple(sorted(map(vertex.get, ns))) for a, ns in adjacency.items()} == complex.adjacency()
    assert all(list(ns) == sorted(ns) for ns in adjacency.values())
    assert poset.is_connected() == complex.is_connected()
    assert poset.check_properties() == complex.check_properties()


def test_parallel_edges_give_one_neighbor(double_circle):
    assert double_circle.adjacency() == {0: (1,), 1: (0,)}
    assert double_circle.is_connected()


def test_invalid_poset_has_no_1_skeleton():
    # covers that run in a cycle: the table is refused before any query can run on it
    with pytest.raises(ValidationError, match=r"^invalid simplicial poset: cover \(1, 0\) jumps"):
        SimplicialPoset({0: 1, 1: 2}, [(0, 1), (1, 0)])


# -- f/h-vectors ------------------------------------------------------------------------------


def test_double_circle_f_h(double_circle):
    f, h = double_circle.f_vector(), double_circle.h_vector()
    assert f == (1, 2, 2)
    assert h == (1, 0, 1)


def test_face_poset_f_h_matches_complex(corpus):
    bowtie = SimplicialComplex([(0, 1, 2), (0, 3, 4)], coloring={0: 1, 1: 2, 2: 3, 3: 2, 4: 3})
    for complex in [*corpus.values(), bowtie]:
        poset = face_poset(complex)
        f, h = poset.f_vector(), poset.h_vector()
        assert f == complex.f_vector()
        assert h == complex.h_vector()
        # the rank-2 and rank-3 ids ascend in the complex's edge and triangle order,
        # so the shared skeleton gives the same relators, letter for letter
        assert poset._skeleton()[2] == complex._skeleton()[2]
        assert poset.flag_f_vector() == complex.flag_f_vector()
        assert poset.links_connected() == complex.links_connected()
        assert poset.colors == complex.colors
    assert not face_poset(bowtie).links_connected()


def test_single_edge_face_poset_h():
    h = face_poset(SimplicialComplex([(0, 1)])).h_vector()
    assert h == (1, 0, 0)


def test_f_h_requires_pure():
    poset = face_poset(SimplicialComplex([(0, 1, 2), (2, 3)]))
    with pytest.raises(PurityError):
        poset.h_vector()


# -- strong connectivity ------------------------------------------------------------------------


def test_double_circle_strongly_connected(double_circle):
    assert double_circle.is_strongly_connected()


def test_face_poset_strong_connectivity_matches(corpus):
    for name in ("octahedron", "sum2"):
        assert face_poset(corpus[name]).is_strongly_connected()


def test_disjoint_union_not_strongly_connected():
    r1, c1, col1 = shifted_double_circle(0)
    r2, c2, col2 = shifted_double_circle(10)
    union = SimplicialPoset(r1 | r2, c1 + c2, col1 | col2)
    assert not union.is_strongly_connected()


def test_poset_properties_imply_strong_connectivity(corpus, double_circle):
    posets = [double_circle] + [
        face_poset(corpus[n]) for n in ("octahedron", "cycle4", "sum2")
    ]
    for poset in posets:
        assert poset.check_properties().all_hold
        assert poset.is_strongly_connected()


# -- serialization -----------------------------------------------------------------------------


def test_poset_json_roundtrip(double_circle):
    data = double_circle.to_json()
    again = SimplicialPoset.from_json(data)
    assert again.ids == double_circle.ids
    assert again.covers == double_circle.covers
    assert again.coloring == double_circle.coloring
    assert again.to_json() == data


def test_poset_json_rank_crosscheck():
    data = {
        "type": "poset",
        "elements": [{"id": 0, "rank": 1}, {"id": 1, "rank": 3}],
        "covers": [[0, 1]],
    }
    with pytest.raises(ValidationError):
        SimplicialPoset.from_json(data)


def test_poset_json_rejects_unknown_cover():
    data = {
        "type": "poset",
        "elements": [{"id": 0, "rank": 1}],
        "covers": [[0, 5]],
    }
    with pytest.raises(ValidationError):
        SimplicialPoset.from_json(data)


# -- H1 and the edge-path group from the poset's cells, against the order complex ---------


def relabelled(poset, new_id):
    """The same poset with every element id x renamed to new_id[x]."""
    ranks = {new_id[x]: poset.rank(x) for x in poset.ids}
    covers = [(new_id[lo], new_id[hi]) for lo, hi in poset.covers]
    coloring = poset.coloring and {new_id[v]: c for v, c in poset.coloring.items()}
    return SimplicialPoset(ranks, covers, coloring)


def two_tops_on_one_boundary():
    """Rank-3 elements 6 and 7 over the same sides 3-5 on atoms 0-2: a 2-sphere
    made of two parallel triangles."""
    ranks = {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 3}
    covers = [(0, 3), (1, 3), (0, 4), (2, 4), (1, 5), (2, 5)]
    covers += [(s, t) for s in (3, 4, 5) for t in (6, 7)]
    return SimplicialPoset(ranks, covers, {0: 1, 1: 2, 2: 3})


@st.composite
def connected_complex_posets(draw):
    """Face posets of random ``from_faces`` complexes on vertices 0..6 that a
    path through every vertex keeps connected; element ids permuted."""
    faces = draw(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True), max_size=10))
    poset = face_poset(SimplicialComplex.from_faces(faces + [(v, v + 1) for v in range(6)]))
    return relabelled(poset, dict(zip(poset.ids, draw(st.permutations(poset.ids)))))


GROWTH_SEEDS = {
    "triangle": [(0, 1, 2)],
    "annulus": [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)],
    "moebius": [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)],
    "octahedron": shapes.cross_polytope(3).facets,
    "sd_torus": shapes.sd_torus().facets,
    "sd_rp2": shapes.sd_projective_plane().facets,
}


@st.composite
def grown_surface_posets(draw):
    """Face posets of ``from_faces`` complexes grown from a seed surface by
    random moves that keep them pure with connected links: subdividing a
    triangle at a new vertex, or gluing a triangle along an edge whose new
    corner is a fresh vertex or a neighbor of the edge.  Element ids are
    permuted."""
    triangles = set(GROWTH_SEEDS[draw(st.sampled_from(sorted(GROWTH_SEEDS)))])
    for _ in range(draw(st.integers(0, 8))):
        fresh = 1 + max(v for t in triangles for v in t)
        if draw(st.booleans()):
            a, b, c = draw(st.sampled_from(sorted(triangles)))
            triangles -= {(a, b, c)}
            triangles |= {(a, b, fresh), (a, c, fresh), (b, c, fresh)}
            continue
        a, b = draw(st.sampled_from(sorted({e for t in triangles for e in combinations(t, 2)})))
        near = sorted({v for t in triangles if a in t or b in t for v in t} - {a, b})
        triangles.add(tuple(sorted((a, b, draw(st.sampled_from(near + [fresh]))))))
    poset = face_poset(SimplicialComplex.from_faces(triangles))
    assert poset.is_pure and poset.links_connected()
    return relabelled(poset, dict(zip(poset.ids, draw(st.permutations(poset.ids)))))


def order_complex_restriction(poset):
    """The order complex's presentation on ranks {1, 2} from the least atom, by the
    complex pipeline, before and after Tietze simplification."""
    oc = poset.order_complex()
    tree = build_nested_tree(oc, {1, 2}, min(poset.atoms()))
    restricted = restrict_presentation(full_presentation(oc, tree), oc, {1, 2}, tree)
    return restricted, tietze_simplify(restricted)


def check_h1_against_order_complex(poset):
    summary = h1(poset)
    assert summary == h1(poset.order_complex())
    return summary


def check_group_against_order_complex(poset):
    summary = check_h1_against_order_complex(poset)
    group = poset_edge_path_group(poset)
    assert group.abelianization() == (summary.betti1, summary.torsion)
    restricted, simplified = order_complex_restriction(poset)
    assert [g.edge for g in group.generators] == [g.edge for g in restricted.generators]
    assert len(tietze_simplify(group).generators) == len(simplified.generators)
    base = min(poset.atoms())
    for g in group.generators:
        loop = check_edge_path(poset, g.realization)
        assert loop[0].init == loop[-1].term == base


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(connected_complex_posets())
def test_h1_of_random_face_posets_matches_order_complex(poset):
    check_h1_against_order_complex(poset)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(grown_surface_posets())
def test_group_of_random_face_posets_matches_order_complex(poset):
    check_group_against_order_complex(poset)


@pytest.mark.parametrize("name", ["octahedron", "cross4", "cycle6", "sd_torus", "sd_rp2", "sum2"])
def test_group_of_corpus_face_posets_matches_order_complex(corpus, name):
    check_group_against_order_complex(face_poset(corpus[name]))


def test_group_of_double_circle_matches_order_complex(double_circle):
    check_group_against_order_complex(double_circle)
    check_group_against_order_complex(relabelled(double_circle, {0: 3, 1: 0, 2: 2, 3: 1}))


def test_parallel_triangles_give_a_sphere():
    poset = two_tops_on_one_boundary()
    assert poset.triangle_sides() == [(3, 5, 4), (3, 5, 4)]
    check_group_against_order_complex(poset)
    assert h1(poset).betti1 == 0


def test_pinched_triangles_keep_their_parallel_sides_apart():
    poset = pinched_triangles()
    assert poset.edges() == tuple(range(10, 16))
    # the 0-1 sides 10 and 11 are different cells, so the two discs meet in
    # two points and enclose a loop; links are disconnected, so no group
    assert check_h1_against_order_complex(poset) == HomologySummary(1, ())
