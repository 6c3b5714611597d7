import gc
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_complexes, depth_first_tree, link_graph_by_star_scan, random_closed_path

from topokit import (
    Certificate,
    FaceNotFoundError,
    GroupPresentation,
    MissingColoringError,
    PosetEdge,
    PropertyError,
    SimplicialComplex,
    SimplicialPoset,
    ValidationError,
    apply_certificate,
    build_nested_tree,
    cycle_class_equal,
    default_basepoint,
    edge_path_cycle_vector,
    face_poset,
    full_presentation,
    generator_bounds,
    h1,
    poset_edge_path_group,
    restrict_presentation,
    rewrite_path_to_colors,
    tietze_simplify,
    verify_certificate,
    word_to_loop,
)
from topokit import pi1, shapes
from topokit.pi1 import Generator, NestedSpanningTree, free_reduce, invert_word


@pytest.fixture(scope="module")
def octahedron():
    return shapes.cross_polytope(3)


@pytest.fixture(scope="module")
def hexagon():
    return shapes.cycle_complex(6)


def colored_square():
    return shapes.cycle_complex(4)


def colored_triangle():
    return SimplicialComplex([(0, 1, 2)], coloring={0: 1, 1: 2, 2: 3})


# -- nested spanning trees ------------------------------------------------------


def _inner_edges(tree):
    """The tree edges whose two colors are selected: the tree of the selected subcomplex."""
    kappa = tree.complex.coloring
    return {e for e in tree.edges if {kappa[v] for v in e} <= tree.colors}


def test_hexagon_tree_spans_with_five_edges(hexagon):
    tree = build_nested_tree(hexagon, {1, 2})
    assert tree.root == 0
    assert len(tree.edges) == 5
    assert _inner_edges(tree) == tree.edges


def test_octahedron_tree_sizes(octahedron):
    tree = build_nested_tree(octahedron, {1, 2})
    inner = _inner_edges(tree)
    assert len(inner) == 3  # spans the 4 selected vertices
    assert {v for e in inner for v in e} == {0, 1, 2, 3}
    assert len(tree.edges) == 5  # spans all 6 vertices


def test_single_edge_tree():
    edge = SimplicialComplex([(0, 1)], coloring={0: 1, 1: 2})
    tree = build_nested_tree(edge, {1, 2})
    assert tree.edges == frozenset({(0, 1)})


def test_tree_root_must_be_selected(octahedron):
    with pytest.raises(FaceNotFoundError):
        build_nested_tree(octahedron, {1, 2}, root=4)  # color 3


def test_default_basepoint_is_minimum_selected(octahedron):
    assert default_basepoint(octahedron, {2, 3}) == 2


# -- full presentations ------------------------------------------------------------


def test_square_presentation_is_free_of_rank_one():
    square = colored_square()
    tree = build_nested_tree(square, {1, 2})
    pres = full_presentation(square, tree)
    assert len(pres.generators) == 4
    assert sum(1 for r in pres.relators if len(r) == 1) == 3
    simplified = tietze_simplify(pres)
    assert len(simplified.generators) == 1
    assert simplified.relators == ()


def test_solid_triangle_presentation_is_trivial():
    triangle = colored_triangle()
    tree = build_nested_tree(triangle, {1, 2})
    pres = full_presentation(triangle, tree)
    assert len(pres.generators) == 3
    assert sum(1 for r in pres.relators if len(r) == 1) == 2
    assert sum(1 for r in pres.relators if len(r) == 3) == 1
    simplified = tietze_simplify(pres)
    assert len(simplified.generators) == 0


def test_single_edge_presentation_is_trivial():
    edge = SimplicialComplex([(0, 1)], coloring={0: 1, 1: 2})
    tree = build_nested_tree(edge, {1, 2})
    pres = full_presentation(edge, tree)
    assert len(pres.generators) == 1
    assert pres.relators == ((1,),)
    assert len(tietze_simplify(pres).generators) == 0


def test_presentation_render_format():
    edge = SimplicialComplex([(0, 1)], coloring={0: 1, 1: 2})
    tree = build_nested_tree(edge, {1, 2})
    text = full_presentation(edge, tree).render()
    assert text.splitlines()[0] == "g1 := edge(0,1)"


# -- words and loops --------------------------------------------------------------------


def test_empty_word_gives_stationary_loop(hexagon):
    tree = build_nested_tree(hexagon, {1, 2})
    pres = full_presentation(hexagon, tree)
    assert word_to_loop(pres, tree, ()) == ((0, 0),)


def test_word_to_loop_structure():
    square = colored_square()
    tree = build_nested_tree(square, {1, 2})
    pres = full_presentation(square, tree)
    non_tree = next(
        i + 1 for i, g in enumerate(pres.generators) if g.edge not in tree.edges
    )
    loop = word_to_loop(pres, tree, (non_tree,))
    assert loop[0][0] == tree.root and loop[-1][1] == tree.root
    assert pres.generators[non_tree - 1].edge in {tuple(sorted(e)) for e in loop}


def test_word_loop_round_trip(octahedron):
    # tree letters are identity and vanish on re-reading, so sample the others
    tree = build_nested_tree(octahedron, {1, 2})
    pres = full_presentation(octahedron, tree)
    rng = random.Random(11)
    letters = [
        i + 1 for i, g in enumerate(pres.generators) if g.edge not in tree.edges
    ]
    for _ in range(25):
        word = tuple(
            rng.choice([1, -1]) * rng.choice(letters) for _ in range(rng.randint(0, 4))
        )
        loop = word_to_loop(pres, tree, word)
        assert loop[0][0] == tree.root == loop[-1][1]
        # read the loop back: stationary and tree edges drop, the rest give signed letters
        read = [
            pres.generator_index((u, v)) if u < v else -pres.generator_index((v, u))
            for u, v in loop
            if u != v and (min(u, v), max(u, v)) not in tree.edges
        ]
        assert free_reduce(read) == free_reduce(word)


# -- rewriting --------------------------------------------------------------------------


def test_path_already_selected_is_unchanged(octahedron):
    path = ((0, 2), (2, 1))  # colors 1, 2, 1
    rewritten, cert = rewrite_path_to_colors(octahedron, {1, 2}, path)
    assert rewritten == path
    assert cert.moves == ()


def test_octahedron_detour_around_color_three(octahedron):
    kappa = octahedron.coloring
    path = [(0, 4), (4, 2)]  # through a color-3 vertex
    rewritten, cert = rewrite_path_to_colors(octahedron, {1, 2}, path)
    assert verify_certificate(octahedron, path, rewritten, cert)
    assert rewritten[0][0] == 0 and rewritten[-1][1] == 2
    for u, v in rewritten:
        assert kappa[u] in {1, 2} and kappa[v] in {1, 2}


def test_closed_path_class_is_preserved(octahedron):
    path = [(0, 4), (4, 2), (2, 5), (5, 0)]
    rewritten, cert = rewrite_path_to_colors(octahedron, {1, 2}, path)
    assert verify_certificate(octahedron, path, rewritten, cert)
    z_in = edge_path_cycle_vector(octahedron, path)
    z_out = edge_path_cycle_vector(octahedron, rewritten)
    assert cycle_class_equal(octahedron, z_in, z_out)


def test_rewrite_rejects_bad_endpoints(octahedron):
    with pytest.raises(ValidationError):
        rewrite_path_to_colors(octahedron, {1, 2}, [(4, 0), (0, 2)])


def test_rewriting_needs_coloring():
    with pytest.raises(MissingColoringError):
        rewrite_path_to_colors(SimplicialComplex([(0, 1, 2)]), (1, 2), [(0, 1)])


def test_the_structure_is_checked_before_the_coloring():
    # the uncolored bowtie: the link of vertex 0 is two edges, so the structure fails first
    bowtie = SimplicialComplex([(0, 1, 2), (0, 3, 4)])
    with pytest.raises(PropertyError, match="input fails the property checks"):
        rewrite_path_to_colors(bowtie, (1, 2), [(1, 0), (0, 3)])


@pytest.mark.parametrize("call", [build_nested_tree, lambda k, c: rewrite_path_to_colors(k, c, [(0, 2)])])
def test_an_empty_color_set_is_refused(octahedron, call):
    with pytest.raises(ValidationError, match=r"need exactly two palette colors, got \[\]"):
        call(octahedron, [])


def test_is_pure_is_computed_once():
    for space in (shapes.cross_polytope(3), face_poset(shapes.cross_polytope(3))):
        assert "is_pure" not in vars(space)
        assert space.is_pure and vars(space)["is_pure"] is True


def test_rewrite_handles_degenerate_edges(octahedron):
    path = [(0, 0), (0, 4), (4, 4), (4, 2)]
    rewritten, cert = rewrite_path_to_colors(octahedron, {1, 2}, path)
    assert verify_certificate(octahedron, path, rewritten, cert)
    kappa = octahedron.coloring
    assert all(kappa[u] in {1, 2} and kappa[v] in {1, 2} for u, v in rewritten)


def test_rewrite_on_warm_caches_matches_fresh_complex():
    def rewrite_seeded_loops(torus):
        rng = random.Random(7)
        out = []
        for pair in combinations(torus.colors, 2):
            root = default_basepoint(torus, pair)
            for _ in range(4):
                path, cert = rewrite_path_to_colors(torus, pair, random_closed_path(torus, root, rng))
                out.append((path, cert.moves))
        return out

    warm = shapes.sd_torus()
    rewrite_seeded_loops(warm)
    assert warm._cache["walk"] and warm._cache["rewrite_memos"]
    assert rewrite_seeded_loops(warm) == rewrite_seeded_loops(shapes.sd_torus())



def test_rewrite_from_threads_on_one_complex_matches_fresh_complexes():
    """Threads rewriting on one complex share its bridge and detour memos; a detour
    search is stored only whole, so every thread gets a fresh complex's rewrites."""

    def rewrite_all(space, job):
        out = []
        for pair, path in job:
            fixed, cert = rewrite_path_to_colors(space, pair, path)
            out.append((fixed, cert.moves))
        return out

    rng = random.Random(0)
    space = shapes.cross_polytope(5)
    roots = {p: default_basepoint(space, p) for p in combinations(space.colors, 2)}
    job = [(p, random_closed_path(space, root, rng, 30)) for p, root in roots.items()] * 2
    expected = rewrite_all(space, job)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for _ in range(20):  # each round races four threads on one complex's empty memos
            shared = shapes.cross_polytope(5)
            start = threading.Barrier(4)

            def run(_, shared=shared, start=start):
                start.wait()
                return rewrite_all(shared, job)

            with ThreadPoolExecutor(4) as pool:
                assert list(pool.map(run, range(4))) == [expected] * 4
    finally:
        sys.setswitchinterval(interval)

# -- certificates --------------------------------------------------------------------------


def test_empty_certificate_verifies_identity(octahedron):
    path = ((0, 2), (2, 1))
    cert = Certificate("complex", ())
    assert verify_certificate(octahedron, path, path, cert)
    assert not verify_certificate(octahedron, path, ((0, 2), (2, 4)), cert)


def test_fabricated_witness_fails(octahedron):
    # {0, 1} is an antipodal pair, never a face
    cert = Certificate("complex", (("expand", 0, (0, 1, 2)),))
    assert not verify_certificate(octahedron, ((0, 2),), ((0, 1), (1, 2)), cert)


def test_cancel_and_insert_moves(octahedron):
    path = ((0, 2), (2, 4), (4, 2), (2, 1))
    cert = Certificate("complex", (("cancel", 1),))
    assert verify_certificate(octahedron, path, ((0, 2), (2, 1)), cert)
    back = Certificate("complex", (("insert", 1, (2, 4)),))
    assert verify_certificate(octahedron, ((0, 2), (2, 1)), path, back)


def test_cancel_of_whole_path_leaves_stationary(octahedron):
    cert = Certificate("complex", (("cancel", 0),))
    assert verify_certificate(octahedron, ((0, 2), (2, 0)), ((0, 0),), cert)


def test_certificate_json_round_trip(octahedron):
    path = [(0, 4), (4, 2)]
    rewritten, cert = rewrite_path_to_colors(octahedron, {1, 2}, path)
    again = Certificate.from_json(cert.to_json())
    assert again == cert
    assert verify_certificate(octahedron, path, rewritten, again)


def test_poset_triangle_moves():
    poset = face_poset(SimplicialComplex([(0, 1, 2)]))
    # ids: vertices 0,1,2 -> 0,1,2; edges (0,1),(0,2),(1,2) -> 3,4,5; top -> 6
    one_step = (PosetEdge(5, 1, 2),)
    two_step = (PosetEdge(3, 1, 0), PosetEdge(4, 0, 2))
    expand = Certificate("poset", (("expand", 0, 6),))
    assert apply_certificate(poset, one_step, expand) == two_step
    contract = Certificate("poset", (("contract", 0, 6),))
    assert apply_certificate(poset, two_step, contract) == one_step
    assert verify_certificate(poset, one_step, two_step, expand)


def test_poset_cancel_insert(double_circle):
    path = (PosetEdge(2, 0, 1), PosetEdge(2, 1, 0))
    cert = Certificate("poset", (("cancel", 0),))
    assert verify_certificate(double_circle, path, (PosetEdge(None, 0, 0),), cert)
    grow = Certificate("poset", (("insert", 0, PosetEdge(3, 0, 1)),))
    assert verify_certificate(
        double_circle,
        path,
        (PosetEdge(3, 0, 1), PosetEdge(3, 1, 0)) + path,
        grow,
    )


def test_poset_parallel_edges_are_distinct(double_circle):
    # cancelling e against f-reversed must fail: different elements
    path = (PosetEdge(2, 0, 1), PosetEdge(3, 1, 0))
    cert = Certificate("poset", (("cancel", 0),))
    assert not verify_certificate(double_circle, path, (PosetEdge(None, 0, 0),), cert)


# -- restriction -------------------------------------------------------------------------------


def test_octahedron_restriction_has_one_generator(octahedron):
    tree = build_nested_tree(octahedron, {1, 2})
    pres = full_presentation(octahedron, tree)
    restricted = restrict_presentation(pres, octahedron, {1, 2}, tree)
    assert len(restricted.generators) == 1
    assert octahedron.rank_select({1, 2}).h_vector()[2] == 1


def test_hexagon_restriction_has_one_generator(hexagon):
    tree = build_nested_tree(hexagon, {1, 2})
    pres = full_presentation(hexagon, tree)
    restricted = restrict_presentation(pres, hexagon, {1, 2}, tree)
    assert len(restricted.generators) == 1
    assert restricted.relators == ()


def test_restriction_on_selected_complex_only_drops_tree_edges():
    square = colored_square()
    tree = build_nested_tree(square, {1, 2})
    pres = full_presentation(square, tree)
    restricted = restrict_presentation(pres, square, {1, 2}, tree)
    assert len(restricted.generators) == len(pres.generators) - len(tree.edges)


def test_restriction_preserves_abelianization(octahedron):
    tree = build_nested_tree(octahedron, {1, 2})
    pres = full_presentation(octahedron, tree)
    restricted = restrict_presentation(pres, octahedron, {1, 2}, tree)
    assert restricted.abelianization() == pres.abelianization()


def test_restriction_rejects_a_tree_of_another_complex(octahedron, hexagon):
    tree = build_nested_tree(octahedron, {1, 2})
    pres = full_presentation(octahedron, tree)
    with pytest.raises(ValidationError, match="tree was built on a different complex"):
        restrict_presentation(pres, hexagon, {1, 2}, tree)
    cross4 = shapes.cross_polytope(4)
    cross4_tree = build_nested_tree(cross4, {1, 2})
    with pytest.raises(ValidationError, match="tree was built on a different complex"):
        restrict_presentation(full_presentation(cross4, cross4_tree), octahedron, {1, 2}, cross4_tree)


def test_restriction_rejects_generators_outside_the_complex(octahedron):
    tree = build_nested_tree(octahedron, {1, 2})
    cross4 = shapes.cross_polytope(4)
    foreign = full_presentation(cross4, build_nested_tree(cross4, {1, 2}))
    with pytest.raises(FaceNotFoundError, match="is not an edge of the complex"):
        restrict_presentation(foreign, octahedron, {1, 2}, tree)
    # {0, 1} is an antipodal pair of the octahedron, never an edge
    bogus = GroupPresentation([Generator(edge=(0, 1))], [])
    with pytest.raises(FaceNotFoundError, match=r"\(0, 1\) is not an edge of the complex"):
        restrict_presentation(bogus, octahedron, {1, 2}, tree)


def test_restriction_rejects_a_presentation_of_another_tree(octahedron):
    tree = build_nested_tree(octahedron, {1, 2})
    other = build_nested_tree(octahedron, {1, 2}, root=3)
    assert other.edges != tree.edges
    with pytest.raises(ValidationError, match="disagrees with the tree"):
        restrict_presentation(full_presentation(octahedron, other), octahedron, {1, 2}, tree)


def _retree(tree, moves):
    """A hand-built tree on ``tree``'s complex and pair: its parent pointers updated by ``moves``."""
    parent = {**tree.parent, **moves}
    return NestedSpanningTree(tree.complex, tree.colors, tree.root, parent)


def test_tree_constructor_refuses_parent_pointers_that_are_not_a_tree(octahedron):
    tree = build_nested_tree(octahedron, {1, 2})
    assert tree.root == 0 and tree._order[0] == 0 and sorted(tree._order) == list(octahedron.vertices)
    with pytest.raises(ValidationError):
        _retree(tree, {4: 5, 5: 4})  # a 2-cycle off the root
    # 2 and 4 are adjacent, so only the cycle is wrong
    with pytest.raises(ValidationError, match="do not hang every vertex from root 0"):
        _retree(tree, {2: 4, 4: 2})
    with pytest.raises(ValidationError, match="do not hang every vertex from root 0"):
        _retree(tree, {0: 2})  # the root hangs below its own child
    with pytest.raises(ValidationError, match="do not hang every vertex from root 0"):
        _retree(tree, {5: None})  # a second root
    missing = {v: p for v, p in tree.parent.items() if v != 5}
    with pytest.raises(ValidationError, match="do not hang every vertex from root 0"):
        NestedSpanningTree(octahedron, {1, 2}, 0, missing)
    # {0, 1} is an antipodal pair, never an edge
    with pytest.raises(ValidationError, match=r"tree edge \(1,0\) is not an edge of the complex"):
        _retree(tree, {1: 0})


def test_restriction_refuses_a_tree_that_is_not_nested(octahedron):
    torus = shapes.sd_torus()
    tree = build_nested_tree(torus, {1, 2})
    assert torus.coloring[31] == 3 and torus.coloring[6] in tree.colors and tree.parent[6] != 31
    hung = _retree(tree, {6: 31})  # still a spanning tree of the torus, but not nested
    with pytest.raises(ValidationError, match="selected vertex 6 hangs from the off-color 31"):
        restrict_presentation(full_presentation(torus, hung), torus, {1, 2}, hung)
    # every vertex of the octahedron hangs from the off-color 4, but for 5 from 0
    parent = {4: None, 0: 4, 1: 4, 2: 4, 3: 4, 5: 0}
    off_root = NestedSpanningTree(octahedron, {1, 2}, 4, parent)
    with pytest.raises(ValidationError, match="tree root 4 is not in the selected subcomplex"):
        restrict_presentation(full_presentation(octahedron, off_root), octahedron, {1, 2}, off_root)


def _whole_loop_restriction(presentation, complex, colors, tree):
    """Oracle: rewrite every off-color generator's whole tree loop through the
    public rewriter, validating each loop afresh."""
    colors = frozenset(int(c) for c in colors)
    kappa = complex.coloring
    kept = [
        i
        for i, g in enumerate(presentation.generators)
        if not g.tree and kappa[g.edge[0]] in colors and kappa[g.edge[1]] in colors
    ]
    new_letter = {old + 1: new + 1 for new, old in enumerate(kept)}

    def selected_word(loop):
        word = []
        for u, v in loop:
            e = (min(u, v), max(u, v))
            if u == v or e in tree.edges:
                continue
            new = new_letter[presentation.generator_index(e)]
            word.append(new if (u, v) == e else -new)
        return word

    images = {}
    for i, g in enumerate(presentation.generators):
        letter = i + 1
        if g.tree:
            images[letter] = ()
        elif letter in new_letter:
            images[letter] = (new_letter[letter],)
        else:
            loop = word_to_loop(presentation, tree, (letter,))
            rewritten, _ = rewrite_path_to_colors(complex, colors, loop)
            images[letter] = tuple(selected_word(rewritten))
    relators = []
    for rel in presentation.relators:
        word = []
        for x in rel:
            word.extend(images[abs(x)] if x > 0 else invert_word(images[abs(x)]))
        word = free_reduce(word)
        if word:
            relators.append(tuple(word))
    generators = [
        Generator(edge=presentation.generators[i].edge, tree=False, selected=True) for i in kept
    ]
    return GroupPresentation(generators, relators)


def _flipped(tree):
    """The same tree with its parent dict in reverse order."""
    parent = dict(reversed(tree.parent.items()))
    return NestedSpanningTree(tree.complex, tree.colors, tree.root, parent)


def _assert_restrictions_agree(complex, pairs=None, root=None):
    """The production restriction of generator_bounds, the public oracle pair
    and the whole-loop oracle give the same generators and relators."""
    for pair in pairs or combinations(complex.colors, 2):
        tree = build_nested_tree(complex, pair, root)
        pres = full_presentation(complex, tree)
        local = restrict_presentation(pres, complex, pair, tree)
        oracle = _whole_loop_restriction(pres, complex, pair, tree)
        edges, _, triangles = complex._skeleton()
        production = pi1._restrict(complex, tree, edges, triangles)
        for other in (local, oracle, pi1._restrict(complex, _flipped(tree), edges, triangles)):
            assert production.generators == other.generators
            assert production.relators == other.relators


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_trusted_presentations_equal_the_public_constructors(name):
    complex = corpus_complexes()[name]
    edges, _, triangles = complex._skeleton()
    for pair in combinations(complex.colors, 2):
        restricted = pi1._restrict(complex, build_nested_tree(complex, pair), edges, triangles)
        for trusted in (restricted, tietze_simplify(restricted)):
            public = GroupPresentation(trusted.generators, trusted.relators, trusted.rounds, trusted.converged)
            assert vars(trusted) == vars(public), pair
            assert type(trusted.generators) is tuple and all(type(r) is tuple for r in trusted.relators)
        assert (restricted.rounds, restricted.converged) == (None, None)


ORACLE_COMPLEXES = {
    **{f"corpus-{name}": (lambda c=c: c) for name, c in corpus_complexes().items()},
    **{f"sum{n}": (lambda n=n: shapes.octahedron_sum(n)) for n in range(2, 7)},
    **{f"cross{d}": (lambda d=d: shapes.cross_polytope(d)) for d in range(3, 7)},
    "sd2-torus": lambda: shapes.sd_torus().barycentric_subdivision(),
    "oc-face-poset-octahedron": lambda: face_poset(shapes.cross_polytope(3)).order_complex(),
    "oc-double-circle": lambda: shapes.double_edge_circle().order_complex(),
}


@pytest.mark.parametrize("name", ORACLE_COMPLEXES)
def test_local_restriction_matches_whole_loop_oracle(name):
    _assert_restrictions_agree(ORACLE_COMPLEXES[name]())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["sd_torus", "sd_rp2", "sum3", "cross4"]), st.data())
def test_local_restriction_matches_oracle_at_random_roots(name, data):
    complex = corpus_complexes()[name]
    pair = data.draw(st.sampled_from(list(combinations(complex.colors, 2))))
    selected = [v for v in complex.vertices if complex.coloring[v] in pair]
    root = data.draw(st.sampled_from(selected))
    _assert_restrictions_agree(complex, [pair], root)


@pytest.mark.parametrize(
    "build", [lambda: shapes.cross_polytope(5), lambda: shapes.cross_polytope(4).barycentric_subdivision()]
)
def test_restriction_follows_long_off_color_chains(build):
    """A nested tree from build_nested_tree hangs every off-color vertex from a
    selected one; a hand-built tree may not, and the per-vertex descents and climbs
    of the restriction must then follow whole chains."""
    complex = build()
    kappa = complex.coloring
    longest = 0
    for pair in combinations(complex.colors, 2):
        tree = depth_first_tree(complex, pair)
        for v in complex.vertices:
            if kappa[v] not in tree.colors:
                depth = next(i for i, w in enumerate(tree.path_to_root(v)) if kappa[w] in tree.colors)
                longest = max(longest, depth)
        pres = full_presentation(complex, tree)
        oracle = _whole_loop_restriction(pres, complex, pair, tree)
        for hung in (tree, _flipped(tree)):  # reversed, each chain is listed bottom up
            production = restrict_presentation(pres, complex, pair, hung)
            assert production.generators == oracle.generators
            assert production.relators == oracle.relators
    assert longest >= 4


def test_restriction_validates_once_per_call(monkeypatch):
    calls = []
    ready = pi1._require_pi1_ready

    def counting(*args, **kwargs):
        calls.append(args)
        return ready(*args, **kwargs)

    monkeypatch.setattr(pi1, "_require_pi1_ready", counting)
    torus = shapes.sd_torus()
    generator_bounds(torus)
    pairs = len(list(combinations(torus.colors, 2)))
    off_color = sum(
        1
        for pair in combinations(torus.colors, 2)
        for u, v in torus.edges()
        if not {torus.coloring[u], torus.coloring[v]} <= set(pair)
    )
    # once for the whole run, then the tree and the restriction of each pair
    assert len(calls) <= 1 + 2 * pairs < off_color


def _pair_of(space, walk):
    return frozenset(space.colors[c] for c in (walk.first, walk.second))


def _memos_by_pair(space, calls, memo, key):
    """The memo dicts (``memo(walk)``) the calls were given, one per color pair; checks
    that each holds exactly the keys (``key(*args)``) it was asked for, and no memo
    serves two pairs."""
    memos = {}
    for args in calls:
        assert memos.setdefault(_pair_of(space, args[0]), memo(args[0])) is memo(args[0])
    assert len({id(m) for m in memos.values()}) == len(memos)
    for colors, m in memos.items():
        assert set(m) == {key(*args) for args in calls if _pair_of(space, args[0]) == colors}
    return memos


def test_bridges_asked_for_match_a_facet_scan(monkeypatch):
    """No bridge memo: each pair's restriction asks for each off-color (mid, tail) once, and
    each answer is the facet scan's and a fresh complex's."""
    rp2 = shapes.sd_projective_plane()
    calls, bridge = [], pi1._bridge

    def recording(walk, mid, tail):
        calls.append((_pair_of(rp2, walk), mid, tail, bridge(walk, mid, tail)))
        return calls[-1][-1]

    monkeypatch.setattr(pi1, "_bridge", recording)
    generator_bounds(rp2)
    assert "bridges" not in pi1._Walk._fields and "bridges" not in rp2._cache
    assert {colors for colors, *_ in calls} == {frozenset(p) for p in combinations(rp2.colors, 2)}
    assert len({(colors, mid, tail) for colors, mid, tail, _ in calls}) == len(calls)
    kappa, ids, fresh = rp2.coloring, rp2.vertices, shapes.sd_projective_plane()
    for colors, mid, tail, answer in calls:
        assert kappa[ids[mid]] not in colors
        scan = min(
            w
            for facet in fresh.facets
            if ids[mid] in facet and ids[tail] in facet
            for w in facet
            if kappa[w] in colors - {kappa[ids[tail]]}
        )
        assert ids[answer] == scan
        assert bridge(pi1._pair_walk(fresh, colors), mid, tail) == answer


def _link_detour(complex, colors, center, start, goal):
    """Oracle: one BFS per move from start, stopped at goal, ascending tie-breaks."""
    if start == goal:
        return [start]
    adj = link_graph_by_star_scan(complex, center, colors)
    parent = {start: None}
    queue = [start]
    while queue:
        u = queue.pop(0)
        if u == goal:
            break
        for w in adj.get(u, ()):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    out = [goal]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out[::-1]


def _bfs_tree(adj, start):
    parent = {start: None}
    queue = [start]
    while queue:
        u = queue.pop(0)
        for w in sorted(adj.get(u, ())):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


@pytest.mark.parametrize("build", [shapes.sd_projective_plane, lambda: shapes.cross_polytope(5)])
def test_detour_tree_cache_matches_fresh_searches(monkeypatch, build):
    """Each pair searches each (center, start) once, over center's whole selected link, and
    keeps the parent pointers, equal to a fresh BFS; a bypass searches iff its bridge is
    not its entry vertex, and walks the oracle's path."""
    space = build()
    search, n = pi1._detour, len(space.vertices)
    calls, stored = [], []  # per call: its arguments, and whether its search was stored before it

    def recording_search(walk, center, start):
        stored.append(center * n + start in walk.searches)
        calls.append((walk, center, start))
        return search(walk, center, start)

    monkeypatch.setattr(pi1, "_detour", recording_search)
    bypasses, bypass = [], pi1._bypass_walk

    def recording_bypass(walk, entry, mid, bridge):
        before = len(calls)
        hops = bypass(walk, entry, mid, bridge)
        bypasses.append((_pair_of(space, walk), entry, mid, bridge, hops, len(calls) - before))
        return hops

    monkeypatch.setattr(pi1, "_bypass_walk", recording_bypass)
    generator_bounds(space)
    memos = _memos_by_pair(space, calls, lambda walk: walk.searches, lambda walk, center, start: center * n + start)
    assert set(memos) == {frozenset(p) for p in combinations(space.colors, 2)}
    seen = set()
    for (walk, center, start), hit in zip(calls, stored):  # only the first call searches
        assert hit == ((_pair_of(space, walk), center, start) in seen)
        seen.add((_pair_of(space, walk), center, start))
    if build is shapes.sd_projective_plane:  # a later bypass of a pair reads a stored search
        assert 0 < sum(stored) < len(calls)
    assert "detour_trees" not in space._cache
    fresh, ids = build(), space.vertices
    for colors, searches in memos.items():
        for key, parent in searches.items():
            center, start = divmod(key, n)
            full = _bfs_tree(link_graph_by_star_scan(fresh, ids[center], colors), ids[start])
            assert {ids[w]: None if u is None else ids[u] for w, u in parent.items()} == full
            assert search(pi1._pair_walk(fresh, colors), center, start) == parent
    searched = 0
    for colors, u, mid, bridge, hops, searches in bypasses:
        assert [ids[p] for p in hops] == _link_detour(fresh, colors, ids[mid], ids[u], ids[bridge])
        assert searches == (bridge != u)  # a bypass whose bridge is its entry vertex searches nothing
        searched += searches
    assert 0 < searched < len(bypasses)


def _corrupted(walk, slots) -> "pi1._Walk":
    """``walk`` on a copy of its index whose completions hold ``slots[i]`` at each slot
    i; its witness keys and the memos stay the walk's own."""
    near = list(walk.index.near)
    for i, value in slots.items():
        near[i] = value
    return walk._replace(index=walk.index._replace(near=tuple(near)))


def test_detour_tree_memo_keeps_no_tree_that_failed_its_witness_check():
    octahedron = shapes.cross_polytope(3)  # ids are positions; colors 1, 2, 3 have palette indices 0, 1, 2
    walk = pi1._pair_walk(octahedron, {1, 2})
    index, searches = walk.index, walk.searches
    # first use: 0 and 1 are antipodal, so the triangle {0, 1, 2} is not a face
    bad = _corrupted(walk, {index.d * index.nbr[0][2]: (1,)})
    for _ in range(2):
        with pytest.raises(pi1.ContractViolationError, match=r"\[2, 1, 0\] is not a face"):
            pi1._detour(bad, 0, 2)
        assert searches == {}
    # the search from 0 around 4 finds 2 and 3, then meets {2, 4, 5}: nothing is stored
    bad = _corrupted(walk, {index.d * index.nbr[2][4]: (5,)})
    with pytest.raises(pi1.ContractViolationError, match=r"\[2, 5, 4\] is not a face"):
        pi1._detour(bad, 4, 0)
    assert searches == {}
    whole = {0: None, 2: 0, 3: 0, 1: 2}  # the link of 4 is the 4-cycle 0, 2, 1, 3
    assert pi1._detour(walk, 4, 0) == whole and searches == {4 * index.n + 0: whole}
    # a bridge's witness is checked on every call: {4, 5} is no edge, {2, 4, 5} no face
    vertex = index.d * index.nbr[4][4]
    bad = _corrupted(walk, {vertex: (5,), vertex + 1: (5,)})
    with pytest.raises(pi1.ContractViolationError, match=r"\[4, 5, 4\] is not a face"):
        pi1._bridge(bad, 4, 4)
    bad = _corrupted(walk, {index.d * index.nbr[4][2]: (5,)})
    with pytest.raises(pi1.ContractViolationError, match=r"\[4, 5, 2\] is not a face"):
        pi1._bridge(bad, 4, 2)
    assert pi1._bridge(walk, 4, 2) == 0 and searches == {4 * index.n + 0: whole}


def test_verify_leaves_no_per_pair_memos_on_the_complex():
    from topokit.cli import verification_report

    for space in (shapes.sd_projective_plane(), shapes.cross_polytope(5)):
        verification_report(space)
        assert not {"detour_trees", "bridges", "rewrite_memos"} & set(space._cache)
        assert not {"star", "link_edges", "link_graphs"} & set(space._cache)
        # exactly the indexes shared by every pair: one walk index, no second index or memo
        assert set(space._cache) == {"adj", "by_size", "chain", "connected", "faces", "flag", "links_ok", "skeleton", "walk"}


@pytest.mark.parametrize("build", [shapes.sd_projective_plane, lambda: shapes.cross_polytope(5)])
def test_bounds_and_verify_leave_no_cyclic_garbage(build):
    """The per-pair memos are plain containers: dropping them frees everything by
    reference counting, with nothing left for the cyclic collector."""
    from topokit.cli import verification_report

    for run in (generator_bounds, verification_report):
        space = build()
        gc.collect()
        gc.disable()
        try:
            run(space)
            assert gc.collect() == 0, run.__name__
        finally:
            gc.enable()


@pytest.mark.parametrize("name", ORACLE_COMPLEXES)
def test_restricted_generator_count_is_selected_h2(name):
    complex = ORACLE_COMPLEXES[name]()
    for pair, entry in generator_bounds(complex)["per_pair"].items():
        h2 = complex.rank_select(pair).h_vector()[2]
        assert entry["generators"] == entry["h2_selected"] == h2, pair


def test_coloring_is_read_at_most_once_per_call(monkeypatch):
    reads = []
    getter = SimplicialComplex.coloring.fget

    def counting(self):
        reads.append(self)
        return getter(self)

    monkeypatch.setattr(SimplicialComplex, "coloring", property(counting))
    for build in (shapes.sd_torus, lambda: shapes.cross_polytope(4)):
        for call in (face_poset, generator_bounds):
            space = build()
            reads.clear()
            call(space)
            assert len(reads) <= 1, call.__name__


# -- Tietze simplification -----------------------------------------------------------------------


def one_generator():
    from topokit import Generator

    return Generator(edge=(0, 1))


def test_tietze_kills_single_letter_relator():
    pres = GroupPresentation([one_generator()], [(1,)])
    simplified = tietze_simplify(pres)
    assert len(simplified.generators) == 0
    assert simplified.relators == ()


def test_tietze_leaves_free_generator():
    pres = GroupPresentation([one_generator()], [])
    simplified = tietze_simplify(pres)
    assert len(simplified.generators) == 1


def test_tietze_monotone_over_rounds(octahedron):
    tree = build_nested_tree(octahedron, {1, 2})
    pres = full_presentation(octahedron, tree)
    previous = None
    for rounds in range(6):
        simplified = tietze_simplify(pres, max_rounds=rounds)
        measure = (
            len(simplified.generators),
            sum(len(r) for r in simplified.relators),
        )
        if previous is not None:
            assert measure[0] <= previous[0]
            assert measure[1] <= previous[1]
        previous = measure


def test_tietze_zero_rounds_is_identity(octahedron):
    tree = build_nested_tree(octahedron, {1, 2})
    pres = full_presentation(octahedron, tree)
    simplified = tietze_simplify(pres, max_rounds=0)
    assert simplified.relators == pres.relators
    assert len(simplified.generators) == len(pres.generators)


# -- generator bounds -----------------------------------------------------------------------------


def test_octahedron_bounds(octahedron):
    bounds = generator_bounds(octahedron)
    assert bounds["best"] <= 1
    for entry in bounds["per_pair"].values():
        assert entry["h2_selected"] == 1
        assert entry["generators"] == 1


def test_hexagon_bound_is_exactly_one(hexagon):
    bounds = generator_bounds(hexagon)
    assert bounds["best"] == 1
    assert h1(hexagon).min_generators == 1


def test_single_facet_bound_is_zero():
    bounds = generator_bounds(colored_triangle())
    assert bounds["best"] == 0


# -- poset edge path groups -----------------------------------------------------------------------


def test_double_circle_group(double_circle):
    pres = poset_edge_path_group(double_circle)
    assert len(pres.generators) == 1
    assert pres.relators == ()
    assert pres.abelianization() == (1, ())
    realization = pres.generators[0].realization
    assert len(realization) == 2
    assert {e.elem for e in realization} == {2, 3}


def test_face_poset_of_octahedron_group(octahedron):
    pres = poset_edge_path_group(face_poset(octahedron))
    simplified = tietze_simplify(pres)
    assert len(simplified.generators) <= 1
    assert pres.abelianization() == (0, ())


def test_face_poset_of_edge_group():
    poset = face_poset(SimplicialComplex([(0, 1)]))
    pres = poset_edge_path_group(poset)
    assert tietze_simplify(pres).abelianization() == (0, ())


def test_poset_realizations_are_valid_paths(double_circle):
    from topokit.pi1 import check_edge_path

    pres = poset_edge_path_group(double_circle)
    for g in pres.generators:
        check_edge_path(double_circle, g.realization)


def test_poset_and_complex_pipelines_agree(corpus):
    for name in ("octahedron", "cycle6"):
        complex = corpus[name]
        poset_pres = poset_edge_path_group(face_poset(complex))
        bounds = generator_bounds(complex)
        pair = min(bounds["per_pair"])
        complex_pres = bounds["per_pair"][pair]["presentation"]
        assert poset_pres.abelianization() == complex_pres.abelianization()


# -- abelianization against homology -----------------------------------------------------------------


def test_abelianization_matches_h1(corpus):
    for name in ("octahedron", "cycle6", "sd_rp2"):
        complex = corpus[name]
        tree = build_nested_tree(complex, tuple(complex.colors[:2]))
        pres = full_presentation(complex, tree)
        summary = h1(complex)
        assert pres.abelianization() == (summary.betti1, summary.torsion)


# -- certificate replay table ---------------------------------------------------------------------


def _triangle_with_parallel_edge():
    # face poset of the triangle 012 (atoms 0-2, edges 3={0,1}, 4={0,2},
    # 5={1,2}, top 6) plus a second edge 7 on {0,1} that bounds nothing
    ranks = {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 2}
    covers = [(0, 3), (1, 3), (0, 4), (2, 4), (1, 5), (2, 5), (3, 6), (4, 6), (5, 6), (0, 7), (1, 7)]
    return SimplicialPoset(ranks, covers)


REPLAY_SPACES = {
    "octahedron": lambda: shapes.cross_polytope(3),
    "two_triangles": lambda: face_poset(SimplicialComplex([(0, 1, 2), (1, 2, 3)])),
    "triangle": lambda: face_poset(SimplicialComplex([(0, 1, 2)])),
    "triangle_parallel": _triangle_with_parallel_edge,
}

E = PosetEdge

# (space, source path, moves, message fragment); every row must be refused.
# Octahedron colors: 0,1 -> 1; 2,3 -> 2; 4,5 -> 3 (antipodal pairs are not edges).
REJECTED_REPLAYS = [
    # complex paths and moves
    ("octahedron", (), (), "edge paths must be nonempty"),
    ("octahedron", ((0, 2), (4, 2)), (), "path breaks between"),
    ("octahedron", ((0, 1), (1, 2)), (), r"\(0,1\) is not an edge of the complex"),
    ("octahedron", ((0, 2),), (("expand", 0, (0, 1, 2)),), r"witness \[0, 1, 2\] is not a face"),
    ("octahedron", ((0, 2),), (("expand", 1, (0, 4, 2)),), "expand at 1 does not match the path"),
    ("octahedron", ((0, 2),), (("expand", 0, (0, 4, 3)),), "expand at 0 does not match the path"),
    ("octahedron", ((0, 2),), (("contract", 0, (0, 4, 2)),), "contract at 0 does not match the path"),
    ("octahedron", ((0, 4), (4, 2)), (("contract", 0, (0, 5, 2)),), "contract at 0 does not match the path"),
    ("octahedron", ((0, 2),), (("cancel", 0),), "cancel position out of range"),
    ("octahedron", ((0, 2), (2, 4)), (("cancel", 0),), "cancel needs an edge followed by its"),
    ("octahedron", ((0, 2),), (("insert", 0, (0, 1)),), r"\(0,1\) is not an edge of the complex"),
    ("octahedron", ((0, 2),), (("insert", 2, (2, 4)),), "insert position out of range"),
    ("octahedron", ((0, 2),), (("insert", 0, (2, 4)),), "inserted pair does not chain with the path"),
    ("octahedron", ((0, 2),), (("flip", 0),), "unknown move kind 'flip'"),
    # poset paths
    ("triangle", (), (), "edge paths must be nonempty"),
    ("triangle", (E(3, 0, 1), E(4, 0, 2)), (), "path breaks between"),
    ("triangle", (E(None, 0, 1),), (), "is not a stationary edge at an atom"),
    ("triangle", (E(None, 3, 3),), (), "is not a stationary edge at an atom"),
    ("triangle", (E(6, 0, 1),), (), "element 6 is not an edge element"),
    ("triangle", (E(3, 0, 2),), (), "does not traverse element 3"),
    # poset expand
    ("triangle", (E(5, 1, 2),), (("expand", 1, 6),), "expand position out of range"),
    ("triangle", (E(None, 0, 0),), (("expand", 0, 6),), "cannot expand a stationary edge"),
    ("triangle", (E(5, 1, 2),), (("expand", 0, 3),), "witness 3 is not a rank-3 element"),
    ("triangle", (E(5, 1, 2),), (("expand", 0, 99),), "no element with id 99"),
    ("triangle_parallel", (E(7, 0, 1),), (("expand", 0, 6),), "edge element 7 is not a side of 6"),
    ("two_triangles", (E(7, 1, 3),), (("expand", 0, 9),), "edge element 7 is not a side of 9"),
    # poset contract
    ("triangle", (E(3, 0, 1),), (("contract", 0, 6),), "contract position out of range"),
    ("triangle", (E(3, 0, 1), E(3, 1, 0)), (("contract", 0, 6),), "contract needs two distinct edge elements"),
    ("triangle", (E(None, 0, 0), E(4, 0, 2)), (("contract", 0, 6),), "contract needs two distinct edge elements"),
    ("triangle", (E(3, 0, 1), E(5, 1, 2)), (("contract", 0, 3),), "witness 3 is not a rank-3 element"),
    ("two_triangles", (E(4, 0, 1), E(7, 1, 3)), (("contract", 0, 9),), "triangle atoms do not match"),
    ("triangle_parallel", (E(7, 0, 1), E(5, 1, 2)), (("contract", 0, 6),), "contracted edges are not sides"),
    ("two_triangles", (E(4, 0, 1), E(6, 1, 2)), (("contract", 0, 99),), "no element with id 99"),
    # poset cancel and insert
    ("triangle", (E(3, 0, 1),), (("cancel", 0),), "cancel position out of range"),
    ("triangle", (E(3, 0, 1), E(5, 1, 2)), (("cancel", 0),), "cancel needs an edge followed by its"),
    ("triangle_parallel", (E(3, 0, 1), E(7, 1, 0)), (("cancel", 0),), "cancel needs an edge followed by its"),
    ("triangle", (E(3, 0, 1),), (("insert", 0, E(None, 3, 3)),), "is not a stationary edge at an atom"),
    ("triangle", (E(3, 0, 1),), (("insert", 0, E(6, 0, 1)),), "element 6 is not an edge element"),
    ("triangle", (E(3, 0, 1),), (("insert", 0, E(3, 0, 2)),), "does not traverse element 3"),
    ("triangle", (E(3, 0, 1),), (("insert", 2, E(5, 1, 2)),), "insert position out of range"),
    ("triangle", (E(3, 0, 1),), (("insert", 0, E(5, 1, 2)),), "inserted pair does not chain with the path"),
    ("triangle", (E(3, 0, 1),), (("flip", 0),), "unknown move kind 'flip'"),
    ("octahedron", ((0, 2),), (("expand", 0, (0, 2)),), r"witness \[0, 2\] does not name three vertices"),
    # ids that are not integers are refused, not converted
    ("octahedron", ((0.9, 2.2),), (), "expected an integer, got 0.9"),
    ("octahedron", (("0", "2"),), (), "expected an integer, got '0'"),
    ("octahedron", ((True, 2),), (), "expected an integer, got True"),
    ("octahedron", ((None, 2),), (), "expected an integer, got None"),
    ("octahedron", ((0, 2, 99),), (), r"a complex edge is a pair of vertex ids, got \(0, 2, 99\)"),
    ("octahedron", ((0,),), (), r"a complex edge is a pair of vertex ids, got \(0,\)"),
    ("octahedron", (5,), (), "a complex edge is a pair of vertex ids, got 5"),
    ("octahedron", ((0, 2),), (("expand", 0, (0, 4.0, 2)),), "expected an integer, got 4.0"),
    ("octahedron", ((0, 2),), (("expand", 0, 7),), "witness 7 does not name three vertices"),
    ("octahedron", ((0, 2),), (("insert", 1, (2.0, 4)),), "expected an integer, got 2.0"),
    ("triangle", ((3.0, 0, 1),), (), "expected an integer, got 3.0"),
    ("triangle", ((3, 0, True),), (), "expected an integer, got True"),
    ("triangle", ((None, "0", "0"),), (), "expected an integer, got '0'"),
    ("triangle", ((3, 0),), (), r"a poset edge is an \(elem, init, term\) triple, got \(3, 0\)"),
    ("triangle", (E(5, 1, 2),), (("expand", 0, 6.0),), "expected an integer, got 6.0"),
    ("triangle", (E(3, 0, 1),), (("insert", 1, (5, 1)),), r"triple, got \(5, 1\)"),
    # malformed moves: each is refused, so verify_certificate returns False
    ("octahedron", ((0, 2),), (("expand", 0.5, (0, 4, 2)),), "move position must be an integer, got 0.5"),
    ("octahedron", ((0, 2),), (("expand", True, (0, 4, 2)),), "move position must be an integer, got True"),
    ("octahedron", ((0, 2), (2, 0)), (("cancel", "a"),), "move position must be an integer, got 'a'"),
    ("octahedron", ((0, 2),), (("expand", 0, (0, 4, 2), 9),), "'expand' move has 3 entries"),
    ("octahedron", ((0, 2), (2, 0)), (("cancel",),), "'cancel' move has 2 entries"),
    ("octahedron", ((0, 2),), (("insert", 0, (0,)),), r"a complex edge is a pair of vertex ids, got \(0,\)"),
    ("octahedron", ((0, 2),), ((),), r"a move is a \(kind, pos, ...\) tuple, got \(\)"),
    ("octahedron", ((0, 2),), ("cancel",), "a move is a .* tuple, got 'cancel'"),
    ("octahedron", ((0, 2),), (None,), "a move is a .* tuple, got None"),
    ("octahedron", ((0, 2),), ((["expand"], 0, (0, 4, 2)),), r"unknown move kind \['expand'\]"),
    ("triangle", (E(5, 1, 2),), (("expand", 0.0, 6),), "move position must be an integer, got 0.0"),
    ("triangle", (E(5, 1, 2),), (("contract", 0),), "'contract' move has 3 entries"),
]

ACCEPTED_REPLAYS = [
    ("octahedron", ((0, 2),), ("expand", 0, (0, 4, 2)), ((0, 4), (4, 2))),
    ("octahedron", ((0, 4), (4, 2)), ("contract", 0, (0, 4, 2)), ((0, 2),)),
    ("octahedron", ((0, 4), (4, 0), (0, 2)), ("contract", 0, (0, 4, 0)), ((0, 0), (0, 2))),
    ("octahedron", ((0, 2), (2, 4), (4, 2)), ("cancel", 1), ((0, 2),)),
    ("octahedron", ((0, 2), (2, 0)), ("cancel", 0), ((0, 0),)),
    ("octahedron", ((0, 2),), ("insert", 1, (2, 4)), ((0, 2), (2, 4), (4, 2))),
    ("triangle", (E(5, 1, 2),), ("expand", 0, 6), (E(3, 1, 0), E(4, 0, 2))),
    ("triangle", (E(3, 1, 0), E(4, 0, 2)), ("contract", 0, 6), (E(5, 1, 2),)),
    ("triangle", (E(3, 0, 1), E(3, 1, 0), E(4, 0, 2)), ("cancel", 0), (E(4, 0, 2),)),
    ("triangle", (E(3, 0, 1), E(3, 1, 0)), ("cancel", 0), (E(None, 0, 0),)),
    ("triangle", (E(4, 0, 2),), ("insert", 1, E(5, 2, 1)), (E(4, 0, 2), E(5, 2, 1), E(5, 1, 2))),
]


# (certificate JSON, message fragment); Certificate.from_json must refuse every row.
MALFORMED_CERTIFICATES = [
    (None, "a certificate must be a JSON object"),
    ([], "a certificate must be a JSON object"),
    ({"setting": "complex", "moves": {"kind": "cancel"}}, "certificate moves must be a list"),
    ({"setting": "complex", "moves": [None]}, "a move must be a JSON object"),
    ({"setting": "complex", "moves": [["cancel", 0]]}, "a move must be a JSON object"),
    ({"setting": "complex", "moves": [{"kind": "cancel"}]}, "expected an integer, got None"),
    ({"setting": "complex", "moves": [{"kind": "cancel", "pos": 1.7}]}, "expected an integer, got 1.7"),
    ({"setting": "complex", "moves": [{"kind": "cancel", "pos": True}]}, "expected an integer, got True"),
    ({"setting": "complex", "moves": [{"kind": "expand", "pos": 0, "witness": 3}]}, "expected an array"),
    ({"setting": "complex", "moves": [{"kind": "expand", "pos": 0, "witness": [0, "4", 2]}]}, "expected an integer"),
    ({"setting": "complex", "moves": [{"kind": "insert", "pos": 0, "edge": [2, 4, 5]}]}, "array of 2 entries"),
    ({"setting": "poset", "moves": [{"kind": "insert", "pos": 0, "edge": [5, 1]}]}, "array of 3 entries"),
    ({"setting": "poset", "moves": [{"kind": "expand", "pos": 0, "witness": [6]}]}, "expected an integer"),
]


@pytest.mark.parametrize("data,message", MALFORMED_CERTIFICATES)
def test_certificate_json_rejects(data, message):
    with pytest.raises(ValidationError, match=message):
        Certificate.from_json(data)


def test_two_vertex_witness_parses_but_does_not_verify(octahedron):
    cert = Certificate.from_json(
        {"setting": "complex", "moves": [{"kind": "expand", "pos": 0, "witness": [0, 2]}]}
    )
    assert not verify_certificate(octahedron, ((0, 2),), ((0, 2),), cert)


def _setting(space):
    return "poset" if isinstance(space, SimplicialPoset) else "complex"


@pytest.mark.parametrize("space,source,moves,message", REJECTED_REPLAYS)
def test_replay_rejects(space, source, moves, message):
    space = REPLAY_SPACES[space]()
    cert = Certificate(_setting(space), moves)
    with pytest.raises((ValidationError, FaceNotFoundError), match=message):
        apply_certificate(space, source, cert)
    assert not verify_certificate(space, source, source, cert)


def test_rank3_witnesses_that_are_not_triangles_cannot_be_built():
    # replay reads a rank-3 witness's three sides by their atom pairs; a rank-3
    # element with parallel sides, or over one edge, is refused before any replay
    with pytest.raises(ValidationError, match="two elements below 6 share the same atom set"):
        SimplicialPoset(
            {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3},
            [(0, 3), (1, 3), (0, 4), (1, 4), (1, 5), (2, 5), (3, 6), (4, 6), (5, 6)],
        )
    with pytest.raises(ValidationError, match="element 3 of rank 3 has 2 atoms below it"):
        SimplicialPoset({0: 1, 1: 1, 2: 2, 3: 3}, [(0, 2), (1, 2), (2, 3)])


@pytest.mark.parametrize("space,source,move,target", ACCEPTED_REPLAYS)
def test_replay_accepts(space, source, move, target):
    space = REPLAY_SPACES[space]()
    cert = Certificate(_setting(space), (move,))
    assert apply_certificate(space, source, cert) == target
    assert verify_certificate(space, source, target, cert)
    assert Certificate.from_json(cert.to_json()) == cert


def test_replay_checks_the_space_matches_the_setting(double_circle):
    octahedron = shapes.cross_polytope(3)
    with pytest.raises(ValidationError, match="complex certificate needs a simplicial complex"):
        apply_certificate(double_circle, ((0, 1),), Certificate("complex", ()))
    with pytest.raises(ValidationError, match="poset certificate needs a simplicial poset"):
        apply_certificate(octahedron, (E(2, 0, 1),), Certificate("poset", ()))
    with pytest.raises(ValidationError, match="unknown certificate setting"):
        apply_certificate(octahedron, ((0, 2),), Certificate("graph", ()))


def test_certificate_does_not_verify_against_a_float_source():
    octahedron = shapes.cross_polytope(3)
    rewritten, cert = rewrite_path_to_colors(octahedron, {1, 2}, [(0, 4), (4, 2)])
    assert verify_certificate(octahedron, [(0, 4), (4, 2)], rewritten, cert)
    assert not verify_certificate(octahedron, [(0.0, 4.9), (4.2, 2)], rewritten, cert)
    assert not verify_certificate(octahedron, [(0, 4), (4, 2)], [tuple(map(float, e)) for e in rewritten], cert)
    with pytest.raises(ValidationError, match="expected an integer, got 0.0"):
        rewrite_path_to_colors(octahedron, {1, 2}, [(0.0, 4.9), (4.2, 2)])


@pytest.mark.parametrize("colors,bad", [((1.9, 2.7), "1.9"), ((True, 2), "True"), (("1", "2"), "'1'"), ((1, None), "None")])
def test_colors_are_refused_not_converted(colors, bad):
    octahedron = shapes.cross_polytope(3)
    with pytest.raises(ValidationError, match=f"expected an integer, got {bad}"):
        rewrite_path_to_colors(octahedron, colors, [(0, 4), (4, 2)])
    with pytest.raises(ValidationError, match=f"expected an integer, got {bad}"):
        build_nested_tree(octahedron, colors)
