"""Color-keyed indexes against the per-selection builds they replace.

The additivity table, each pair's selected h2 and the poset ``per_colors``
entries are read from one count of faces by color mask, through one subset
transform (``_selection_h``); ``flag_f_vector`` reads the same counts.
The rewriter's link graphs and bridge vertices are read from one walk index,
shared by every color pair, of the vertices that complete each vertex and edge
to a face, by color, on vertex positions and edge letters.  The tests below keep
the direct constructions as oracles: rank selection for the h-entries, a scan
of the face set for each entry of the index, and a fresh scan of the star for
each (vertex, colors) link graph and each bridge.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_complexes, link_graph_by_star_scan
from topokit import (
    PropertyError,
    SimplicialComplex,
    SimplicialPoset,
    face_poset,
    generator_bounds,
    h_additivity_table,
    shapes,
)
from topokit import pi1
from topokit.cli import verification_report
from oracles import oracle_selected_h


def complexes():
    objs = dict(corpus_complexes())
    for d in range(2, 7):
        objs[f"cross{d}"] = shapes.cross_polytope(d)
    for k in (1, 4):
        objs[f"sum{k}"] = shapes.octahedron_sum(k)
    for name in ("cross2", "octahedron", "cross4", "cycle6"):
        objs[f"sd_{name}"] = objs[name].barycentric_subdivision()
    return objs


COMPLEXES = complexes()
SPACES = {**COMPLEXES, **{f"fp_{k}": face_poset(c) for k, c in COMPLEXES.items()}}
SPACES["double_circle"] = shapes.double_edge_circle()


def relabel(space, seed):
    """The same complex or poset with its ids sent to distinct random ids."""
    rng = random.Random(seed)
    if isinstance(space, SimplicialPoset):
        ids = space.ids
    else:
        ids = space.vertices
    new = dict(zip(ids, rng.sample(range(4 * len(ids) + 4), len(ids))))
    coloring = {new[v]: c for v, c in (space.coloring or {}).items()} or None
    if isinstance(space, SimplicialPoset):
        ranks = {new[x]: space.rank(x) for x in ids}
        return SimplicialPoset(ranks, [(new[a], new[b]) for a, b in space.covers], coloring)
    return SimplicialComplex([[new[v] for v in f] for f in space.facets], coloring)


def additivity_by_rank_selection(space):
    """The additivity table built from every rank-selected subcomplex."""
    h = space.h_vector()
    rows = []
    for i in range(len(h)):
        total = 0
        for sel in combinations(space.colors, i):
            hs = space.rank_select(sel).h_vector()
            total += hs[i] if i < len(hs) else 0
        rows.append({"i": i, "h": h[i], "sum_over_selections": total})
    return {"holds": all(r["h"] == r["sum_over_selections"] for r in rows), "by_index": rows}


seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(seed=seeds)
def test_color_set_counts_match_rank_selection(name, seed):
    space = relabel(SPACES[name], seed)
    flag = space.flag_f_vector()
    assert h_additivity_table(space) == additivity_by_rank_selection(space)
    for k in range(len(space.colors) + 1):
        for sel in combinations(space.colors, k):
            assert oracle_selected_h(flag, sel) == space.rank_select(sel).h_vector()[k], sel


@pytest.mark.parametrize("name", sorted(SPACES))
def test_selected_h2_of_every_pair_matches_rank_selection(name):
    space = relabel(SPACES[name], 1)
    expected = {p: space.rank_select(p).h_vector()[2] for p in combinations(space.colors, 2)}
    if isinstance(space, SimplicialPoset):
        table = verification_report(space)["per_colors"]
        got = {tuple(row["colors"]): row["h2_selected"] for row in table}
    else:
        got = {p: e["h2_selected"] for p, e in generator_bounds(space)["per_pair"].items()}
    assert got == expected


@pytest.mark.parametrize("name", sorted(SPACES))
def test_flag_f_vector_counts_faces_by_color_set(name):
    space = SPACES[name]
    kappa = space.coloring
    if isinstance(space, SimplicialPoset):
        sets = [frozenset()] + [frozenset(kappa[a] for a in space.atoms_of(x)) for x in space.ids]
    else:
        faces = {f for facet in space.facets for k in range(len(facet) + 1) for f in combinations(facet, k)}
        sets = [frozenset(kappa[v] for v in f) for f in faces]
    expected = {s: sets.count(s) for s in set(sets)}
    flag = space.flag_f_vector()
    assert flag == expected
    assert [sum(n for s, n in flag.items() if len(s) == k) for k in range(space.d + 1)] == list(
        space.f_vector()
    )
    flag.clear()  # a copy: the cached counts stay
    assert space.flag_f_vector() == expected


def test_parallel_edges_count_separately(double_circle):
    assert double_circle.flag_f_vector() == {
        frozenset(): 1,
        frozenset({1}): 1,
        frozenset({2}): 1,
        frozenset({1, 2}): 2,
    }


def test_additivity_table_needs_a_full_palette():
    # a proper coloring of the 4-cycle with 3 colors, where d = 2
    square = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)], {0: 1, 1: 2, 2: 1, 3: 3})
    for space in (square, face_poset(square)):
        with pytest.raises(PropertyError, match="coloring uses 3 colors"):
            h_additivity_table(space)


# -- link graphs and bridges shared across pairs ---------------------------------------


def bridge_by_facet_scan(complex, colors, kappa, mid, tail):
    """The least vertex colored in ``colors`` less tail's color on a facet
    through mid and tail, or None."""
    allowed = colors - {kappa[tail]}
    found = [w for f in complex.facets if mid in f and tail in f for w in f if kappa[w] in allowed]
    return min(found, default=None)


def completions_by_face_scan(complex, base):
    """{color: ascending tuple of the vertices w off base for which base + w is a face},
    by testing every vertex against the face set."""
    kappa, faces = complex.coloring, complex.face_set()
    out = {}
    for w in complex.vertices:
        if w not in base and tuple(sorted({*base, w})) in faces:
            out.setdefault(kappa[w], []).append(w)
    return {c: tuple(ws) for c, ws in out.items()}


def index_completions(complex) -> dict:
    """The walk index read back into vertex ids: vertex ``(v,)`` or edge ``(a, b)`` ->
    {color: the ascending ids off it completing it to a face}, empty colors left out."""
    index = pi1._walk_index(complex)
    ids, palette, d = index.ids, complex.colors, index.d
    bases = [((v,), index.nbr[p][p]) for p, v in enumerate(ids)]
    bases += [(tuple(ids[p] for p in index.ends[x]), x) for x in range(1, len(index.ends))]
    return {
        base: {c: tuple(ids[w] for w in index.near[x * d + i]) for i, c in enumerate(palette) if index.near[x * d + i]}
        for base, x in bases
    }


INDEX_COMPLEXES = {f"{name}-relabelled": relabel(c, 7) for name, c in corpus_complexes().items()}
INDEX_COMPLEXES.update((f"cross{d}", shapes.cross_polytope(d)) for d in (5, 6, 7))


@pytest.mark.parametrize("name", sorted(INDEX_COMPLEXES))
def test_completions_match_a_face_scan(name):
    """The index keeps no base's own vertices: the bridge and the detour never ask for
    the colors of an off-color vertex or of the vertex they leave it toward."""
    complex = INDEX_COMPLEXES[name]
    near = index_completions(complex)
    bases = [(v,) for v in complex.vertices] + complex.edges()
    assert list(near) == bases  # positions in id order, letters in edge order
    for base in bases:
        assert near[base] == completions_by_face_scan(complex, base), base


@pytest.mark.parametrize("name", sorted(INDEX_COMPLEXES))
def test_walk_index_triangles_match_the_face_set(name):
    """A key ``letter * n + w`` is in ``tri`` iff the edge of that letter (a vertex, as a
    degenerate edge) and w span a face one larger: each witness check reads the faces."""
    complex = INDEX_COMPLEXES[name]
    index, faces = pi1._walk_index(complex), complex.face_set()
    ids, n = index.ids, index.n
    assert index.pos == {v: p for p, v in enumerate(complex.vertices)}
    assert [tuple(ids[p] for p in ends) for ends in index.ends[1:]] == complex.edges()
    m = len(index.ends)  # the vertex at position p is the degenerate edge (p, p) of letter m + p
    for p, around in enumerate(index.nbr):
        assert sorted(ids[q] for q in around if q != p) == list(complex.adjacency()[ids[p]])
        assert around[p] == m + p
        assert all(index.ends[letter] == (min(p, q), max(p, q)) for q, letter in around.items() if q != p)
    triangles = {
        letter * n + w
        for letter, (a, b) in enumerate(index.ends[1:], 1)
        for w in range(n)
        if w not in (a, b) and tuple(sorted((ids[a], ids[b], ids[w]))) in faces
    }
    edges = {(m + p) * n + w for p in range(n) for w in range(n) if w != p and tuple(sorted((ids[p], ids[w]))) in faces}
    assert index.tri == triangles | edges


def test_walk_index_witnesses_do_not_follow_the_completions():
    """The triangle keys are read from the faces, so a completion table built from wrong
    relators cannot vouch for itself: with the relators lost, the completions lose every
    triangle and the witness keys keep them all."""
    octahedron = shapes.cross_polytope(3)
    edges, letters, _ = octahedron._skeleton()
    octahedron._cache["skeleton"] = (edges, letters, [])
    index, intact = pi1._walk_index(octahedron), pi1._walk_index(shapes.cross_polytope(3))
    assert index.tri == intact.tri
    colors = {c: i for i, c in enumerate(octahedron.colors)}
    third = index.nbr[0][2] * index.d + colors[octahedron.coloring[4]]  # edge {0, 2}: 4 and 5
    assert intact.near[third] == (4, 5) and index.near[third] == ()


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_link_graphs_match_a_scan_per_selection(name):
    """The link graph of each (vertex, colors), as read from the completions of
    the vertex's edges, against a scan of its star."""
    complex = relabel(corpus_complexes()[name], 7)
    kappa, near = complex.coloring, index_completions(complex)
    palette = complex.colors
    selections = [frozenset(s) for k in range(len(palette) + 1) for s in combinations(palette, k)]
    for v in complex.vertices:
        for colors in selections:
            graph = {}
            for u in complex.adjacency()[v]:
                by_color = near[pi1._canon(v, u)]
                ns = [w for c in colors - {kappa[u]} for w in by_color.get(c, ()) if w != v]
                if kappa[u] in colors and ns:
                    graph[u] = tuple(sorted(ns))
            assert graph == link_graph_by_star_scan(complex, v, colors), (v, colors)


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_bridges_match_a_facet_scan_per_pair(name):
    """On every off-color mid, toward itself or a neighbor tail: the walks ask for no other."""
    complex = relabel(corpus_complexes()[name], 7)
    kappa = complex.coloring
    bases = [(v, v) for v in complex.vertices]
    bases += [e for u, v in complex.edges() for e in ((u, v), (v, u))]
    checked = 0
    for pair in combinations(complex.colors, 2):
        colors, walk = frozenset(pair), pi1._pair_walk(complex, pair)
        ids, pos = walk.index.ids, walk.index.pos
        for mid, tail in bases:
            if kappa[mid] not in colors:
                expected = bridge_by_facet_scan(complex, colors, kappa, mid, tail)
                assert ids[pi1._bridge(walk, pos[mid], pos[tail])] == expected
                checked += 1
    assert checked or complex.d == 2  # a graph's one pair selects every vertex


# -- reports read no rank selection --------------------------------------------------


def test_reports_build_no_rank_selection(tmp_path, monkeypatch):
    from test_golden import INSTANCES, load, run_cli, write_instance

    def refuse(self, colors):
        raise AssertionError("rank_select() reached from a report")

    monkeypatch.setattr(SimplicialComplex, "rank_select", refuse)
    monkeypatch.setattr(SimplicialPoset, "rank_select", refuse)
    for name in ("octahedron", "cross4", "double_circle", "face_poset_octahedron"):
        path = write_instance(tmp_path, name, INSTANCES[name])
        for command, argv in (("verify", ("verify",)), ("verify_ns", ("verify", "--ns")), ("pi1", ("pi1",))):
            assert run_cli(argv + (path,)) == load(command)[name], (name, command)


def test_face_lists_are_fresh_copies():
    octahedron = shapes.cross_polytope(3)
    triangles = sorted(octahedron.facets)
    octahedron.edges().clear()
    octahedron.faces(2).append((9, 9, 9))
    assert len(octahedron.edges()) == 12
    assert octahedron.faces(2) == triangles
    assert octahedron.triangle_sides() == [((a, b), (b, c), (a, c)) for a, b, c in triangles]


def test_warm_indexes_do_not_change_reports():
    warm = shapes.cross_polytope(4)
    generator_bounds(warm)
    reports = [verification_report(c, ns=True) for c in (warm, shapes.cross_polytope(4))]
    for report in reports:
        report.pop("timing_seconds")
    assert reports[0] == reports[1]
