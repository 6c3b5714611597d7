"""The small-face link sweep against the per-face link walk it replaces.

``check_properties`` and ``links_connected`` decide the links of all faces of
one size in a single union-find sweep (``_links_connected`` over each layer
from ``_link_layer``, whose link vertices are integer ids and whose edges come
in rows).  The oracle is the per-face walk over the facets above a face:
``_tops_connected(complex._link_tops(face))`` for a complex and
``_tops_connected(_link_tops(poset, x))`` for a poset.  The sweep's verdict
for each face is read by running the production core on that face's share of
its layer, each id mapped back to its cell.  Each layer's verdict is also
held against the full-read sweep of ``oracles.py``, and the rows each layer
reads pin where the sweep stops.
"""

import random
from bisect import bisect_left
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_complexes
from oracles import oracle_link_layer, oracle_links_connected
from test_golden import INSTANCES, load, run_cli, write_instance
from test_poset import _link_tops, pinched_triangles
from topokit import SimplicialComplex, SimplicialPoset, connected_sum, face_poset, shapes
from topokit.complex import _links_connected, _row_pairs, _tops_connected


def small_cells(space):
    """Each cell whose link the property check decides, with its size or rank."""
    if isinstance(space, SimplicialPoset):
        return [(None, 0)] + [(x, space.rank(x)) for x in space.ids if space.rank(x) < space.d - 1]
    return [(f, len(f)) for f in space.face_set() if len(f) < space.d - 1]


def walk(space, cell) -> bool:
    """The per-face walk: the facets above ``cell``, joined through its covers."""
    if isinstance(space, SimplicialPoset):
        return _tops_connected(_link_tops(space, cell))
    return _tops_connected(space._link_tops(cell))


def id_cells(space, k) -> list:
    """The cell of each link vertex id of layer ``k``: id ``i * (k + 1) + p`` is the
    p-th vertex of the i-th face of size k + 1, in the link of that face less it
    (for a poset, the i-th element y of rank k + 1, in the link of its lower cover
    that lacks the p-th least atom of y)."""
    if isinstance(space, SimplicialPoset):
        ups, atoms = space.elements_of_rank(k + 1), space.atoms_of
        return [
            next(x for x in space._down[y] if a not in atoms(x)) if k else None
            for y in ups
            for a in sorted(atoms(y))
        ]
    return [up[:p] + up[p + 1 :] for up in space.faces(k) for p in range(k + 1)]


def layer_edges(layer):
    """The link edges ``(a, b)`` of a row-form layer: each ``(i, j, j1)`` of its pair
    table joins ``r[j] + i`` and ``r[i] + j1`` in each of its rows ``r``."""
    _, _, rows, pairs = layer
    return [(r[j] + i, r[i] + j1) for r in rows for i, j, j1 in pairs]


def sweep_verdicts(space, k) -> dict:
    """The sweep's verdict for each cell of layer ``k`` that has a link vertex."""
    size, cells, rows, pairs = layer = space._link_layer(k)
    owner = id_cells(space, k)
    assert len(owner) == size and len(set(owner)) == cells
    ids = defaultdict(dict)  # cell -> {layer id: id within the cell's share}
    for x, cell in enumerate(owner):
        ids[cell][x] = len(ids[cell])
    shares = defaultdict(list)  # cell -> its edges as rows of two ids, joined by pair (0, 1, 0)
    for a, b in layer_edges(layer):
        assert owner[a] == owner[b], (a, b)
        shares[owner[a]].append((ids[owner[a]][a], ids[owner[a]][b]))
    return {
        cell: _links_connected([(len(local), 1, shares[cell], _row_pairs(2))])
        for cell, local in ids.items()
    }


def links_ok(space) -> bool:
    if isinstance(space, SimplicialPoset):
        return space.links_connected()
    return space.check_properties().links_connected


def check_sweep_matches_walk(space):
    """Every small face's verdict, and the whole check, against the walk;
    returns the cells whose links are disconnected."""
    verdicts = {k: sweep_verdicts(space, k) for k in range(space.d - 1)}
    disconnected = set()
    for cell, k in small_cells(space):
        expected = walk(space, cell)
        assert verdicts[k].get(cell, True) == expected, cell
        if not expected:
            disconnected.add(cell)
    assert links_ok(space) == (not disconnected)
    return disconnected


# -- layer-targeted cases -------------------------------------------------------------


def two_octahedra():
    octahedron = shapes.cross_polytope(3)
    facets = list(octahedron.facets) + [tuple(v + 6 for v in f) for f in octahedron.facets]
    coloring = {v + s: c for v, c in octahedron.coloring.items() for s in (0, 6)}
    return SimplicialComplex(facets, coloring)


def cross4_glued(face):
    """Two boundaries of the 4-cross-polytope glued along ``face`` (a wedge)."""
    cross4 = shapes.cross_polytope(4)
    return connected_sum(cross4, cross4, face, face, {v: v for v in face})


def tetrahedron_edge_and_point():
    """Not pure: a tetrahedron, an edge and an isolated vertex, so the vertex and the
    edge are facets of sizes below d - 1 and have no link vertex in their layers."""
    return SimplicialComplex([(0, 1, 2, 3), (7, 8), (9,)], {0: 1, 1: 2, 2: 3, 3: 4, 7: 1, 8: 2, 9: 1})


# name -> (complex, the one face whose link is disconnected, or None)
TARGETED = {
    "tetrahedron_edge_and_point": (tetrahedron_edge_and_point(), ()),
    "two_octahedra": (two_octahedra(), ()),
    "cross4_at_vertex": (cross4_glued((0,)), (0,)),
    "cross4_along_edge": (cross4_glued((0, 2)), (0, 2)),
    "cross4": (shapes.cross_polytope(4), None),
}


def shuffled(ids, seed):
    """``ids`` sent to distinct random ids; the identity when ``seed`` is None."""
    if seed is None:
        return {x: x for x in ids}
    return dict(zip(ids, random.Random(seed).sample(range(4 * len(ids) + 4), len(ids))))


def check_only_layer_fails(space, k_bad):
    """The sweep of each layer alone fails exactly at layer ``k_bad`` (None: none)."""
    layers = [_links_connected([space._link_layer(k)]) for k in range(space.d - 1)]
    assert layers == [k != k_bad for k in range(space.d - 1)]


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", sorted(TARGETED))
def test_only_the_glued_face_has_a_disconnected_link(name, seed):
    complex, face = TARGETED[name]
    new = shuffled(complex.vertices, seed)
    moved = SimplicialComplex(
        [[new[v] for v in f] for f in complex.facets],
        {new[v]: c for v, c in complex.coloring.items()},
    )
    bad = None if face is None else tuple(sorted(new[v] for v in face))
    assert check_sweep_matches_walk(moved) == ({bad} if bad is not None else set())
    check_only_layer_fails(moved, None if face is None else len(face))


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", sorted(TARGETED))
def test_only_the_glued_element_has_a_disconnected_link(name, seed):
    complex, face = TARGETED[name]
    poset = face_poset(complex)
    new = shuffled(poset.ids, seed)
    moved = SimplicialPoset(
        {new[x]: poset.rank(x) for x in poset.ids},
        [(new[lo], new[hi]) for lo, hi in poset.covers],
        {new[v]: c for v, c in poset.coloring.items()},
    )
    if face is None:
        expected = set()
    elif face == ():
        expected = {None}
    else:
        label = "-".join(map(str, face))
        expected = {new[x] for x, s in poset.labels.items() if s == label}
    assert check_sweep_matches_walk(moved) == expected
    check_only_layer_fails(moved, None if face is None else len(face))


# -- bench-scale instances --------------------------------------------------------------


def bench_complexes():
    objs = {f"cross{d}": shapes.cross_polytope(d) for d in range(3, 7)}
    objs.update({f"sum{k}": shapes.octahedron_sum(k) for k in range(2, 7)})
    objs["sd_torus"] = shapes.sd_torus()
    objs["sd_rp2"] = shapes.sd_projective_plane()
    objs["sd2_torus"] = objs["sd_torus"].barycentric_subdivision()
    return objs


BENCH = bench_complexes()


@pytest.mark.parametrize("name", sorted(BENCH))
def test_sweep_matches_walk_on_bench_complexes(name):
    assert check_sweep_matches_walk(BENCH[name]) == set()


@pytest.mark.parametrize("name", sorted(BENCH))
def test_sweep_matches_walk_on_bench_face_posets(name):
    assert check_sweep_matches_walk(face_poset(BENCH[name])) == set()


def test_sweep_matches_walk_on_double_circle_and_pinched_triangles(double_circle):
    assert check_sweep_matches_walk(double_circle) == set()
    assert check_sweep_matches_walk(pinched_triangles()) == {0, 1}


# -- reports build no link -------------------------------------------------------------


def test_reports_walk_no_link(tmp_path, monkeypatch):
    def refuse(self, face):
        raise AssertionError("a link was built or walked from a report")

    monkeypatch.setattr(SimplicialComplex, "_link_tops", refuse)
    monkeypatch.setattr(SimplicialComplex, "link", refuse)
    monkeypatch.setattr(SimplicialPoset, "link", refuse)
    for name, obj in INSTANCES.items():
        path = write_instance(tmp_path, name, obj)
        for command, argv in (("check", ("check",)), ("verify", ("verify",))):
            assert run_cli(argv + (path,)) == load(command)[name], (name, command)


# -- the row-form sweep against the full-read oracle ------------------------------------


def oracle_cells(space, k) -> list:
    """The cell of each link vertex id of the oracle's layer ``k``: a poset's i-th element
    of rank k + 1 is there in the link of its p-th lower cover."""
    if isinstance(space, SimplicialPoset):
        ups = space.elements_of_rank(k + 1)
        return [space._down[y][p] if k else None for y in ups for p in range(k + 1)]
    return id_cells(space, k)


def named_edges(space, k, edges, cells) -> Counter:
    """The link edges of layer ``k``, each id named by its cell and its cell of size
    (rank) k + 1, which no numbering of the ids can change."""
    ups = space.faces(k) if isinstance(space, SimplicialComplex) else space.elements_of_rank(k + 1)
    return Counter(frozenset(((cells[a], ups[a // (k + 1)]), (cells[b], ups[b // (k + 1)]))) for a, b in edges)


SWEPT = dict(corpus_complexes())
SWEPT.update({f"cross{d}": shapes.cross_polytope(d) for d in range(3, 8)})
SWEPT.update({name: complex for name, (complex, _) in TARGETED.items()})
SWEPT.update(void=SimplicialComplex([()]), point=SimplicialComplex([(0,)], {0: 1}))


def relabelled(space, seed):
    """``space`` with its vertex (element) ids sent to seeded random ones."""
    if isinstance(space, SimplicialPoset):
        new = shuffled(space.ids, seed)
        return SimplicialPoset(
            {new[x]: space.rank(x) for x in space.ids},
            [(new[lo], new[hi]) for lo, hi in space.covers],
            {new[v]: c for v, c in (space.coloring or {}).items()} or None,
        )
    new = shuffled(space.vertices, seed)
    coloring = {new[v]: c for v, c in (space.coloring or {}).items()}
    return SimplicialComplex([[new[v] for v in f] for f in space.facets], coloring or None)


@pytest.mark.parametrize("poset", [False, True])
@pytest.mark.parametrize("name", sorted(SWEPT))
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32))
def test_row_sweep_matches_the_full_read_oracle(name, poset, seed):
    space = relabelled(face_poset(SWEPT[name]) if poset else SWEPT[name], seed)
    layers = range(space.d - 1)
    for k in layers:
        verdict = oracle_links_connected([oracle_link_layer(space, k)])
        assert _links_connected([space._link_layer(k)]) == verdict, k
        edges = named_edges(space, k, layer_edges(space._link_layer(k)), id_cells(space, k))
        assert edges == named_edges(space, k, oracle_link_layer(space, k)[2], oracle_cells(space, k)), k
    assert space.links_connected() == oracle_links_connected(oracle_link_layer(space, k) for k in layers)


# -- where the sweep stops ----------------------------------------------------------------


def rows_read(monkeypatch, space) -> tuple[bool, Counter]:
    """``links_connected()`` of ``space``, and the rows it read from each layer."""
    reads, layer = Counter(), type(space)._link_layer

    def counted(self, k):
        size, cells, rows, pairs = layer(self, k)
        return size, cells, (reads.update((k,)) or r for r in rows), pairs

    monkeypatch.setattr(type(space), "_link_layer", counted)
    return space.links_connected(), reads


def spanning_prefix(layer) -> int:
    """The fewest leading rows of ``layer`` whose edges leave one tree per cell in the
    full-read oracle's forest; all of them when no prefix does."""
    size, cells, rows, pairs = layer
    rows = list(rows)

    def spans(n):
        return oracle_links_connected([(size, cells, layer_edges((size, cells, rows[:n], pairs)))])

    return min(bisect_left(range(len(rows) + 1), True, key=spans), len(rows))


@pytest.mark.parametrize("poset", [False, True])
def test_a_spanning_layer_reads_no_further_row(monkeypatch, poset):
    space = shapes.cross_polytope(7)
    space = face_poset(space) if poset else space
    spanned = [spanning_prefix(space._link_layer(k)) for k in range(6)]
    verdict, reads = rows_read(monkeypatch, space)
    assert verdict
    assert [reads[k] for k in range(6)] == spanned
    # the rows of layer k are the cells of size k + 2; layers 3 and 4 span at 52% and 72%
    assert sum(reads.values()) < sum(space.f_vector()[2:8]) == 2172


@pytest.mark.parametrize("poset", [False, True])
@pytest.mark.parametrize("name", sorted(name for name, (_, face) in TARGETED.items() if face is not None))
def test_the_failing_layer_reads_all_its_rows(monkeypatch, name, poset):
    complex, face = TARGETED[name]
    space = face_poset(complex) if poset else complex
    verdict, reads = rows_read(monkeypatch, space)
    assert not verdict
    assert max(reads, default=0) <= len(face)  # no layer past the failing one is read
    assert reads[len(face)] == space.f_vector()[len(face) + 2]


@pytest.mark.parametrize("poset", [False, True])
def test_void_complex_sweeps_no_layer(monkeypatch, poset):
    space = face_poset(SimplicialComplex([()])) if poset else SimplicialComplex([()])
    verdict, reads = rows_read(monkeypatch, space)
    assert verdict and not reads
    assert space.check_properties().links_connected
