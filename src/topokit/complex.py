"""Facet-encoded simplicial complexes with balanced vertex colorings.

A complex is stored by its inclusion-maximal faces (facets); all other
faces are recovered by downward closure on demand, which keeps iterated
subdivisions memory-lean.  Vertices are nonnegative integers.  An optional
coloring (pairwise-distinct colors on the vertices of every facet) makes
the complex balanced and unlocks rank selection.

Conventions used throughout:

* a face is a sorted tuple of distinct vertex ids; ``()`` is the empty face,
  which every complex contains;
* ``d`` denotes ``dim + 1``, the number of vertices of a top facet;
* the f-vector is indexed so that ``f[k]`` counts faces of size ``k``
  (``f[0] = 1`` for the empty face);
* a link with at most one vertex counts as connected, two or more isolated
  vertices count as disconnected.

Every argument is read through :mod:`topokit._read`, which states the rule
once: a value of the wrong type is refused, not converted.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, combinations, permutations
from math import comb

from . import _read
from .errors import (
    FaceNotFoundError,
    MissingColoringError,
    PropertyError,
    PurityError,
    ValidationError,
)

Face = tuple[int, ...]


def as_face(vertices) -> Face:
    """Canonicalize an array of vertex ids into a sorted face tuple."""
    face = tuple(sorted(_read.ids(vertices)))
    if face and face[0] < 0:
        raise ValidationError(f"vertex ids must be nonnegative integers, got {face[0]}")
    if len(set(face)) != len(face):
        raise ValidationError(f"face has repeated vertices: {face}")
    return face


def _maximal(faces) -> list[Face]:
    """Filter an iterable of faces down to the inclusion-maximal ones, in (size, lex) order.

    Faces go largest first.  Each one smaller than the largest is tested only against
    the kept faces through its first vertex, which are the only ones that can contain
    it, and only faces larger than the smallest are indexed.
    """
    ordered = sorted(set(faces), key=lambda f: (len(f), f))
    smallest, largest = (len(ordered[0]), len(ordered[-1])) if ordered else (0, 0)
    kept: list[Face] = []
    through: dict[int, list[frozenset[int]]] = {}  # vertex -> kept faces containing it
    for face in reversed(ordered):
        if len(face) < largest:
            fs = frozenset(face)
            if not face or any(fs < g for g in through.get(face[0], ())):
                continue
        kept.append(face)
        if len(face) > smallest:
            fs = frozenset(face)
            for v in face:
                through.setdefault(v, []).append(fs)
    return kept[::-1]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the pure / balanced / connected-links property checks."""

    pure: bool
    balanced: bool
    links_connected: bool

    @property
    def all_hold(self) -> bool:
        return self.pure and self.balanced and self.links_connected

    def as_dict(self) -> dict:
        return asdict(self)


class _Space:
    """What a simplicial complex and a simplicial poset share.

    A subclass calls :meth:`_attach` and sets ``_cache``; it supplies ``d``, ``vertices``,
    ``is_pure``, ``f_vector()``, ``edges()``, ``_ends(edge)``, an edge's two end vertices
    ascending, and ``triangle_sides()``, and three sweeps: ``_link_layer(k)``, the links of
    the size-k cells as rows of ids that one pair table reads (see :func:`_links_connected`),
    ``_ridges()``, each facet's codimension-1 cells, and ``_color_masks(bit)``, the color
    mask of each face (of each element, and of the implicit bottom): the sum of its vertices'
    ``bit``.  Both constructors check their input, so every instance is valid.  The
    1-skeleton, its vertices joined by the ends of its edges, is read only here.
    """

    def _attach(self, coloring, labels, vertices) -> None:
        """Store ``coloring`` on ``vertices`` and ``labels``, mappings read by ``_read``.
        Every vertex needs a color, a positive integer; colors off ``vertices`` are dropped."""
        if coloring is not None:
            coloring = _read.id_map(coloring, _read.integer)
            for v in vertices:
                if v not in coloring:
                    raise ValidationError(f"vertex {v} has no color")
            for c in coloring.values():
                if c < 1:
                    raise ValidationError(f"colors must be positive integers, got {c}")
            coloring = {v: coloring[v] for v in vertices}
        self._coloring: dict[int, int] | None = coloring
        self._labels: dict[int, str] | None = labels and _read.id_map(labels, _read.label) or None

    @property
    def coloring(self) -> dict[int, int] | None:
        return dict(self._coloring) if self._coloring is not None else None

    @property
    def labels(self) -> dict[int, str] | None:
        return dict(self._labels) if self._labels is not None else None

    @cached_property
    def colors(self) -> tuple[int, ...]:
        """Sorted distinct color values of the attached coloring."""
        if self._coloring is None:
            raise MissingColoringError("no coloring attached")
        return tuple(sorted(set(self._coloring.values())))

    def h_vector(self) -> tuple[int, ...]:
        """The alternating-sum transform of the f-vector; pure spaces only."""
        return self._h_of(self.f_vector())

    def _h_of(self, f: tuple[int, ...]) -> tuple[int, ...]:
        """The h-vector of this space's f-vector ``f``; pure spaces only."""
        if not self.is_pure:
            raise PurityError("h-vectors are only defined for pure complexes and posets")
        return h_from_f(f)

    def flag_f_vector(self) -> dict[frozenset[int], int]:
        """Face counts by color set, the empty face under ``frozenset()``; read from :meth:`_flag`."""
        counts, colors = self._flag()[0], self.colors
        return {frozenset(c for i, c in enumerate(colors) if m >> i & 1): n for m, n in counts.items()}

    def _flag(self) -> tuple:
        """(face counts by color mask, bit i for ``colors[i]`` and a face's mask the sum of its
        vertices' bits, as colorings are proper; the table of :meth:`_selection_h` or None)."""
        if self._coloring is None:
            raise MissingColoringError("color-set counts need a coloring")
        if "flag" not in self._cache:
            bit = {c: 1 << i for i, c in enumerate(self.colors)}
            masks = self._color_masks({v: bit[c] for v, c in self._coloring.items()})
            self._cache["flag"] = (Counter(masks), None)
        return self._cache["flag"]

    def _selection_h(self) -> dict[tuple[int, ...], int]:
        """``h_|S|`` of each color selection ``S`` (a sorted tuple): the sum of ``(-1)^(|S|-|T|) f_T``
        over ``T`` in ``S``, one subset transform of the mask counts in O(d 2^d); full palette only."""
        require_full_palette(self)
        counts, h = self._flag()
        if h is None:
            h = [counts[mask] for mask in range(1 << self.d)]
            for bit in (1 << i for i in range(self.d)):  # then h[m] sums over T in m equal to m above bit
                h = [x - h[mask ^ bit] if mask & bit else x for mask, x in enumerate(h)]
            h = {tuple(c for i, c in enumerate(self.colors) if m >> i & 1): x for m, x in enumerate(h)}
            self._cache["flag"] = (counts, h)
        return h

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """1-skeleton adjacency, neighbors in ascending order; cached."""
        if "adj" not in self._cache:
            adj: dict[int, set[int]] = {v: set() for v in self.vertices}
            for u, v in map(self._ends, self.edges()):
                adj[u].add(v)
                adj[v].add(u)
            self._cache["adj"] = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        return self._cache["adj"]

    def is_connected(self) -> bool:
        """Whether the 1-skeleton is connected (no vertex, or one, counts as connected); cached."""
        if "connected" not in self._cache:
            tops = chain(zip(self.vertices), map(self._ends, self.edges()))
            self._cache["connected"] = _tops_connected(tops)
        return self._cache["connected"]

    def check_properties(self) -> PropertyReport:
        """Exact tests for purity, balancedness, and connectivity of small-face links; cached."""
        if "props" not in self._cache:
            self._cache["props"] = PropertyReport(
                self.is_pure, _is_balanced(self), self.links_connected()
            )
        return self._cache["props"]

    def links_connected(self) -> bool:
        """Whether the link of the empty face and of each face of size < d - 1 is connected; one
        sweep per size stops once its forest has one tree per face, as it never has fewer; cached."""
        if "links_ok" not in self._cache:
            self._cache["links_ok"] = _links_connected(map(self._link_layer, range(self.d - 1)))
        return self._cache["links_ok"]

    def is_strongly_connected(self) -> bool:
        """Facet chain connectivity: consecutive facets share a codimension-1 face."""
        if not self.is_pure:
            raise PurityError("strong connectivity is only defined for pure complexes and posets")
        return _tops_connected(self._ridges())

    def _skeleton(self) -> tuple:
        """The edges, their letters ``{edge: 1, ...}`` in order, and each triangle's
        relator ``ab bc ac^-1`` on them, ``(ab, bc, -ac)``; read by H1 and by every
        presentation of the group, and cached."""
        if "skeleton" not in self._cache:
            edges = self.edges()
            letters = {e: i for i, e in enumerate(edges, 1)}
            relators = [
                (letters[ab], letters[bc], -letters[ac]) for ab, bc, ac in self.triangle_sides()
            ]
            self._cache["skeleton"] = (edges, letters, relators)
        return self._cache["skeleton"]


class SimplicialComplex(_Space):
    """An abstract simplicial complex given by its facets.

    Instances are immutable; every operation returns a new complex.  The
    constructor is strict: duplicate facets and facets contained in one
    another are rejected.  Use :meth:`from_faces` to build a complex from
    an arbitrary family of faces.  Every entry reads its faces once, then
    shares one build step, :meth:`_of`.
    """

    def __init__(self, facets, coloring=None, labels=None):
        self._build(_strict([as_face(f) for f in _read.items(facets)]), coloring, labels)

    @classmethod
    def _of(cls, facets, coloring=None, labels=None) -> "SimplicialComplex":
        """The complex on ``facets``, already read, inclusion-maximal, in (size, lex) order."""
        self = cls.__new__(cls)
        self._build(facets or [()], coloring, labels)
        return self

    def _build(self, facets, coloring, labels) -> None:
        self._facets: tuple[Face, ...] = tuple(facets)
        self._vertices: tuple[int, ...] = tuple(sorted({v for f in facets for v in f}))
        self._attach(coloring, labels, self._vertices)
        if self._coloring is not None:
            for f in self._facets:
                cols = [self._coloring[v] for v in f]
                if len(set(cols)) != len(cols):
                    raise ValidationError(
                        f"facet {list(f)} has repeated colors {cols}; coloring is not proper"
                    )
        self._hash = hash(
            (self._facets, tuple(sorted(self._coloring.items())) if self._coloring else None)
        )
        self._cache: dict = {}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_faces(cls, faces, coloring=None, labels=None) -> "SimplicialComplex":
        """Build the smallest complex containing every face in ``faces``."""
        return cls._of(_maximal(map(as_face, _read.items(faces))), coloring, labels)

    # -- basic accessors ------------------------------------------------------

    @property
    def facets(self) -> tuple[Face, ...]:
        return self._facets

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @cached_property
    def dim(self) -> int:
        return max(len(f) for f in self._facets) - 1

    @property
    def d(self) -> int:
        """Number of vertices in a top-dimensional facet (``dim + 1``)."""
        return self.dim + 1

    @cached_property
    def is_pure(self) -> bool:
        return len({len(f) for f in self._facets}) == 1

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._facets == other._facets and self._coloring == other._coloring

    def __hash__(self):
        return self._hash

    def __repr__(self):
        shape = f"{len(self._vertices)} vertices, {len(self._facets)} facets, dim {self.dim}"
        return f"SimplicialComplex({shape})"

    # -- faces ----------------------------------------------------------------

    def face_set(self) -> frozenset[Face]:
        """All faces of the complex, cached after the first call."""
        if "faces" not in self._cache:
            faces = {()}
            for facet in self._facets:
                for k in range(1, len(facet) + 1):
                    faces.update(combinations(facet, k))
            self._cache["faces"] = frozenset(faces)
        return self._cache["faces"]

    def has_face(self, face) -> bool:
        return as_face(face) in self.face_set()

    def faces(self, k: int) -> list[Face]:
        """All faces of dimension ``k`` (size ``k + 1``), sorted; a copy of a cached list."""
        if type(k) is not int:
            _read.integer(k)
        if k < -1 or k > self.dim:
            raise ValidationError(f"face dimension {k} out of range [-1, {self.dim}]")
        return list(self._by_size()[k + 1])

    def _by_size(self) -> list[list[Face]]:
        """The sorted faces of each size ``0 .. d``, none of them empty; cached."""
        if "by_size" not in self._cache:
            by_size = [[] for _ in range(self.d + 1)]
            for face in self.face_set():
                by_size[len(face)].append(face)
            self._cache["by_size"] = [sorted(faces) for faces in by_size]  # published whole, for concurrent readers
        return self._cache["by_size"]

    def edges(self) -> list[Face]:
        return self.faces(1) if self.dim >= 1 else []

    def triangle_sides(self) -> list[tuple[Face, Face, Face]]:
        """The edges ``(ab, bc, ac)`` of each triangle ``a < b < c``, triangles sorted."""
        return [((a, b), (b, c), (a, c)) for a, b, c in (self.faces(2) if self.dim >= 2 else [])]

    def _ends(self, edge: Face) -> Face:
        """An edge of a complex is the pair of its vertices, ascending."""
        return edge

    def facets_containing(self, face) -> list[Face]:
        """Facets containing ``face``, in stored order: the intersection of the
        stars of its vertices, a star being the positions of the facets through
        a vertex (indexed on first use)."""
        face = as_face(face)
        if not face:
            return list(self._facets)
        if "star" not in self._cache:
            star: dict[int, set[int]] = {}
            for i, f in enumerate(self._facets):
                for v in f:
                    star.setdefault(v, set()).add(i)
            self._cache["star"] = star
        star = self._cache["star"]
        if not all(v in star for v in face):
            return []
        return [self._facets[i] for i in sorted(set.intersection(*(star[v] for v in face)))]

    # -- f- and h-vectors -----------------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        """Face counts ``(f_empty, f_vertices, ..., f_top)``; entry k counts size-k faces."""
        counts = [0] * (self.dim + 2)
        for face in self.face_set():
            counts[len(face)] += 1
        return tuple(counts)

    # -- local structure ------------------------------------------------------

    def link(self, face) -> "SimplicialComplex":
        """Subcomplex of faces disjoint from ``face`` whose union with it is a face."""
        face = as_face(face)
        if not self.has_face(face):
            raise FaceNotFoundError(f"{list(face)} is not a face")
        return self._subcomplex(self._link_tops(face))

    def _link_tops(self, face) -> list[Face]:
        """``F - face`` for each facet ``F`` containing ``face``: the link's generators."""
        return [tuple(v for v in g if v not in face) for g in self.facets_containing(face)]

    def rank_select(self, colors) -> "SimplicialComplex":
        """Subcomplex of faces all of whose vertex colors lie in ``colors``."""
        if self._coloring is None:
            raise MissingColoringError("rank selection needs a coloring")
        allowed = _read.colors(colors)
        return self._subcomplex(
            [tuple(v for v in f if self._coloring[v] in allowed) for f in self._facets]
        )

    def _subcomplex(self, tops) -> "SimplicialComplex":
        """The complex generated by ``tops``, with this complex's colors and labels."""
        verts = {v for t in tops for v in t}
        coloring = None if self._coloring is None else {v: self._coloring[v] for v in verts}
        labels = self._labels and {v: self._labels[v] for v in verts if v in self._labels}
        return SimplicialComplex._of(_maximal(tops), coloring, labels or None)

    # -- checks -----------------------------------------------------------------

    # perfbench/tracer.py wraps it in this class's own __dict__
    check_properties = _Space.check_properties

    def _ridges(self):
        return (combinations(f, len(f) - 1) for f in self._facets if f)

    def _color_masks(self, bit):
        return (sum(map(bit.__getitem__, f)) for f in self.face_set())

    def _link_layer(self, k: int):
        """The links of the faces of size k in row form (see :func:`_links_connected`): the
        vertex at position p of the i-th face of size k + 1 is the link vertex ``i * (k + 1)
        + p`` of that face less it.  Face t of size k + 2 has at j the first id of t less
        t[j], so pair ``(i, j, j - 1)`` joins t[i] and t[j], i < j, in the link of t less both."""
        by_size = self._by_size()
        index = {up: i * (k + 1) for i, up in enumerate(by_size[k + 1])}
        rows = (list(map(index.__getitem__, combinations(t, k + 1)))[::-1] for t in by_size[k + 2])
        cells = len(by_size[k]) - sum(len(f) == k for f in self._facets)
        return len(index) * (k + 1), cells, rows, _row_pairs(k + 2)

    # -- constructions --------------------------------------------------------

    def barycentric_subdivision(self) -> "SimplicialComplex":
        """Complex of chains of nonempty faces, colored by face size.

        New vertex ids are dense, assigned in (size, lexicographic) order of
        the original faces; the original face is recorded in the labels table.
        """
        faces = sorted((f for f in self.face_set() if f), key=lambda f: (len(f), f))
        index = {f: i for i, f in enumerate(faces)}
        chains: set[Face] = set()
        for facet in self._facets:
            for order in permutations(facet):
                chain = tuple(
                    index[tuple(sorted(order[: k + 1]))] for k in range(len(order))
                )
                chains.add(tuple(sorted(chain)))
        return SimplicialComplex._of(
            sorted(chains, key=lambda f: (len(f), f)),
            coloring={i: len(f) for f, i in index.items()},
            labels={i: "-".join(map(str, f)) for f, i in index.items()},
        )

    def to_json(self) -> dict:
        data: dict = {"type": "complex", "facets": [list(f) for f in self._facets]}
        if self._coloring is not None:
            data["coloring"] = {str(v): c for v, c in sorted(self._coloring.items())}
        if self._labels is not None:
            data["labels"] = {str(v): s for v, s in sorted(self._labels.items())}
        return data

    @classmethod
    def from_json(cls, data) -> "SimplicialComplex":
        if not isinstance(data, dict) or data.get("type") != "complex":
            raise ValidationError('complex JSON must carry "type": "complex"')
        facets = data.get("facets")
        if not isinstance(facets, list):
            raise ValidationError('"facets" must be a list of vertex lists')
        faces = [as_face(f) for f in facets]
        for f, face in zip(facets, faces):
            if list(face) != f:
                raise ValidationError(f"facet {f} is not strictly ascending")
        labels = _read.json_id_map(data, "labels")
        return cls._of(_strict(faces), _read.json_id_map(data, "coloring"), labels)


def _strict(faces) -> list[Face]:
    """Read faces as the constructor takes them: no duplicate, none inside another;
    inclusion-maximal, in (size, lex) order."""
    seen: set[Face] = set()
    for f in faces:
        if f in seen:
            raise ValidationError(f"duplicate facet: {list(f)}")
        seen.add(f)
    norm = _maximal(seen) or [()]
    if len(norm) < len(seen):
        least = min(seen.difference(norm), key=lambda f: (len(f), f))
        raise ValidationError(f"facet {list(least)} is contained in a larger facet")
    return norm


def h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """Alternating-sum transform: h_i = sum_j (-1)^(i-j) C(d-j, d-i) f[j]."""
    f = _read.ids(f)
    d = len(f) - 1
    return tuple(
        sum((-1) ** (i - j) * comb(d - j, d - i) * f[j] for j in range(i + 1))
        for i in range(d + 1)
    )


def _tops_connected(tops) -> bool:
    """Whether the elements of the tuples in ``tops`` are connected, two being joined when some
    tuple holds both (the 1-skeleton they generate); no element, or one, counts as connected."""
    tops = [tuple(top) for top in tops]
    index = {v: i for i, v in enumerate({v for top in tops for v in top})}
    rows = ((index[top[0]], index[v]) for top in tops for v in top[1:])
    return _links_connected([(len(index), min(len(index), 1), rows, _row_pairs(2))])


def _row_pairs(n: int) -> list[tuple[int, int, int]]:
    """The pair table of a row of n ids (see :func:`_links_connected`): ``(i, j, j - 1)``, i < j < n."""
    return [(i, j, j - 1) for i, j in combinations(range(n), 2)]


def _links_connected(layers) -> bool:
    """Whether each layer's cells have connected links.  A layer is ``(size, cells, rows,
    pairs)``: link vertices ``0 .. size - 1``, the number of cells that have one, and rows
    of ids, each ``(i, j, j1)`` in ``pairs`` joining ``r[j] + i`` and ``r[i] + j1`` of a row
    ``r`` in one cell's link.  Each cell owns a link vertex and each merge of its flat
    union-find forest joins two trees of one cell, so the layer passes when ``size - cells``
    merges leave one tree per cell, reading no further row; one that ends short fails."""
    for size, cells, rows, pairs in layers:
        parent, short = list(range(size)), size - cells  # merges still to come
        for r in rows:
            for i, j, j1 in pairs:
                a, b = r[j] + i, r[i] + j1
                while (up := parent[a]) != a:  # path halving
                    parent[a] = a = parent[up]
                while (up := parent[b]) != b:
                    parent[b] = b = parent[up]
                if a != b:
                    parent[a], short = b, short - 1
            if not short:
                break
        if short:
            return False
    return True


def proper_coloring(vertices, adjacency, palette) -> dict[int, int] | None:
    """Proper graph coloring by backtracking, or None.

    The most constrained vertex (fewest remaining colors) is assigned first, ties
    broken by ascending id, from a lazy heap of (colors left, id) that gets an entry
    whenever a neighbor is assigned or released and skips one that no longer holds;
    colors are tried in ascending order, so the result is deterministic.  Backtracking
    keeps an explicit stack, so the search depth is not bounded by the recursion limit.
    """
    palette = sorted(palette)
    assignment: dict[int, int] = {}
    seen = {v: Counter() for v in vertices}  # v -> the colors of its assigned neighbors, counted
    heap = [(len(palette), v) for v in sorted(vertices)]  # sorted, so already a heap

    def tell(v, c, step) -> None:
        """Count v's color c in or out of its neighbors' colors and push their new entries."""
        for u in adjacency[v]:
            seen[u][c] += step
            if not seen[u][c]:
                del seen[u][c]
            if u not in assignment:
                heapq.heappush(heap, (len(palette) - len(seen[u]), u))

    stack: list = []  # (vertex, iterator over the colors left to try for it)
    while heap:  # every unassigned vertex has an entry that holds
        left, v = heapq.heappop(heap)
        if v in assignment or left != len(palette) - len(seen[v]):
            continue
        stack.append((v, iter([c for c in palette if c not in seen[v]])))
        while stack:
            v, options = stack[-1]
            if v in assignment:
                tell(v, assignment.pop(v), -1)
            c = next(options, None)
            if c is not None:
                assignment[v] = c
                tell(v, c, 1)
                break
            stack.pop()
            heapq.heappush(heap, (len(palette) - len(seen[v]), v))
        else:
            return None
    return dict(assignment)


def find_balanced_coloring(space) -> dict[int, int] | None:
    """A proper d-coloring of the 1-skeleton of a pure complex or poset, or None."""
    if not space.is_pure:
        raise PurityError("balanced colorings are defined for pure complexes and posets")
    return proper_coloring(space.vertices, space.adjacency(), range(1, space.d + 1))


def _is_balanced(space) -> bool:
    """Pure, with the attached coloring or a searched one using exactly ``d`` colors."""
    if not space.is_pure:
        return False
    if space._coloring is not None and len(space.colors) == space.d:
        return True
    return find_balanced_coloring(space) is not None


def _glued(k2, face2, matching, fresh, top, colors1, palette1) -> tuple:
    """``k2`` relabeled to be glued along ``face2`` onto the face that ``matching`` maps onto
    it: ``(relabel, facets, coloring)``.  A vertex of ``face2`` takes its match, the others
    fresh ids from ``fresh`` up in ``k2``'s vertex order; ``face2`` itself is dropped when
    ``top``.  With ``palette1``, the first summand's palette, ``k2``'s colors are permuted
    onto it to agree with ``colors1`` on the glued face, and ``coloring`` gives the new
    vertices' colors; else it is None.  The two palettes must be of one size."""
    relabel = {w: v for v, w in matching.items()}
    for v in k2.vertices:
        if v not in relabel:
            relabel[v] = fresh
            fresh += 1
    facets = [tuple(sorted(relabel[v] for v in f)) for f in k2.facets if not (top and f == face2)]
    coloring = None
    if palette1 is not None:
        if len(palette1) != len(k2.colors):
            raise ValidationError("cannot align colors: palettes differ in size")
        c2 = k2._coloring
        perm = {c2[w]: colors1[v] for v, w in matching.items()}
        free_sources = [c for c in k2.colors if c not in perm]
        free_targets = [c for c in palette1 if c not in set(perm.values())]
        perm.update(zip(free_sources, free_targets))
        coloring = {relabel[v]: perm[c2[v]] for v in k2.vertices if v not in face2}
    return relabel, facets, coloring


def connected_sum(
    k1: SimplicialComplex,
    k2: SimplicialComplex,
    face1,
    face2,
    matching: dict[int, int],
) -> SimplicialComplex:
    """Glue two pure complexes of equal dimension along matched faces.

    ``matching`` maps the vertices of ``face1`` bijectively onto the vertices
    of ``face2``.  When the glued faces are top-dimensional (the usual case),
    the identified facet is deleted from both sides; gluing along a smaller
    face is a wedge.  Vertices of ``k2`` are relabeled with fresh dense ids;
    when both complexes are colored, the colors of ``k2`` are permuted so the
    identification is color-preserving, keeping the sum balanced.
    """
    face1, face2 = as_face(face1), as_face(face2)
    matching = _read.id_map(matching, _read.integer)
    if not (k1.is_pure and k2.is_pure):
        raise PurityError("connected sums need pure summands")
    if k1.dim != k2.dim:
        raise ValidationError(f"dimension mismatch: {k1.dim} vs {k2.dim}")
    if len(face1) != len(face2) or not face1:
        raise ValidationError("glued faces must be nonempty and of equal size")
    if not k1.has_face(face1):
        raise FaceNotFoundError(f"{list(face1)} is not a face of the first summand")
    if not k2.has_face(face2):
        raise FaceNotFoundError(f"{list(face2)} is not a face of the second summand")
    if set(matching.keys()) != set(face1) or set(matching.values()) != set(face2):
        raise ValidationError("matching must be a bijection from face1 onto face2")
    if (k1.coloring is None) != (k2.coloring is None):
        raise ValidationError("cannot align colors: exactly one summand is colored")

    top = len(face1) == k1.dim + 1  # facet gluing deletes the identified facet
    palette = k1.colors if k1._coloring is not None else None
    relabel, facets, coloring = _glued(k2, face2, matching, max(k1.vertices) + 1, top, k1._coloring, palette)
    facets = [f for f in k1.facets if not (top and f == face1)] + facets
    if coloring is not None:
        coloring = {**k1._coloring, **coloring}

    labels = None
    if k1.labels or k2.labels:
        labels = dict(k1.labels or {})
        for v, s in (k2.labels or {}).items():
            if v not in face2:
                labels[relabel[v]] = s

    return SimplicialComplex(facets, coloring, labels)


def require_full_palette(space) -> tuple[int, ...]:
    """The palette of a complex or poset, which must have exactly ``d`` colors."""
    palette = space.colors  # raises MissingColoringError when uncolored
    if len(palette) != space.d:
        raise PropertyError(
            f"coloring uses {len(palette)} colors on a complex with facet size {space.d}"
        )
    return palette


def h_additivity_table(space) -> dict:
    """Compare each h_i with the sum of h_i over all size-i color selections.

    ``space`` is a complex or simplicial poset colored with exactly ``d`` colors
    (else :class:`PropertyError`), so each selection to ``S`` is pure of facet size
    ``|S|``, its ``h_|S|`` is read from :meth:`_Space._selection_h` and f from the counts
    under it, a face's size being its mask's popcount; no selection or face is recounted.
    Returns ``{"holds": bool, "by_index": [{"i", "h", "sum_over_selections"}]}``.
    """
    table = space._selection_h()  # refuses a palette that is not full
    f = [0] * (space.d + 1)
    for mask, count in space._flag()[0].items():
        f[mask.bit_count()] += count
    h = space._h_of(tuple(f))
    sums = [sum(x for selection, x in table.items() if len(selection) == i) for i in range(len(h))]
    rows = [{"i": i, "h": h[i], "sum_over_selections": total} for i, total in enumerate(sums)]
    return {"holds": all(r["h"] == r["sum_over_selections"] for r in rows), "by_index": rows}
