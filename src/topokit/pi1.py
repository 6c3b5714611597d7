"""Edge-path machinery for the fundamental group.

The group of a connected complex is presented on its oriented edges: every
tree edge of a chosen spanning tree dies, and every triangle face imposes a
two-step/one-step substitution relation.  Edges are canonically oriented
from the lower to the higher vertex id, with the reversed use encoded as a
formal inverse, so words are tuples of signed 1-based generator indices.

Two further ingredients make the presentation shrink:

* a *nested* spanning tree, whose inner part spans the subcomplex selected
  by a pair of colors, certifies that the selected edges generate;
* a constructive path rewriter pushes any edge path into the selected
  subcomplex by detouring around each off-color vertex through its link,
  emitting a replayable certificate of elementary moves.

Restricting to a color pair needs no full presentation: each edge maps to a
word on the pair's selected non-tree edges (an off-color edge, the rewrite of
its tree loop between selected vertices, put together from each vertex's
descent and climb, filled in one parents-first pass over the nested tree),
and the triangle relators map through those images.  The edges, their letters
and the triangle relators come from the space's edge skeleton (``_skeleton()``),
built once per complex or poset and read by first homology as well.  The
rewriter and the restriction bypass an off-color vertex by one walk on one
index per complex, built from the skeleton: vertices by position, edges by
letter, and flat int-keyed tables of the vertices completing each vertex and
edge to a face, by color; every witness is checked against int keys read from
the faces themselves.  A walk takes the least bridge, then the path to it in one
search of the vertex's whole selected link, small as every facet has every color.
A simplicial poset's group is read from the same skeleton, unrewritten.

Every move is one of: expanding one edge into two across a triangle,
contracting two edges into one across a triangle, cancelling an edge
followed by its reverse, or inserting such a pair.  For simplicial posets
the triangle witness is a rank-3 element and edges carry the id of the
rank-2 element they traverse, which keeps parallel edges apart.  A replay
copies the checked source into one list and edits it in place, move by move,
so its cost grows with the moves and the path length, not their product.
Edge paths are read, type-checked, chained and looked up in one pass.  Every
argument is read through :mod:`topokit._read`, which states the rule once:
a value of the wrong type (a bool, float, string or None for an id, position
or color) is refused, not converted.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations
from typing import NamedTuple

from . import _read
from .complex import SimplicialComplex, require_full_palette
from .errors import (
    ContractViolationError,
    FaceNotFoundError,
    PropertyError,
    ValidationError,
)
from .homology import unit_pivot_factor
from .poset import SimplicialPoset

ComplexEdge = tuple[int, int]

# rounds of :func:`tietze_simplify` when no limit is given, in the library and the CLI
DEFAULT_TIETZE_ROUNDS = 50


class PosetEdge(NamedTuple):
    """An oriented traversal of a rank-2 element; ``elem`` is None for the
    stationary edge (v, v)."""

    elem: int | None
    init: int
    term: int

    def reverse(self) -> "PosetEdge":
        return PosetEdge(self.elem, self.term, self.init)


def _canon(u: int, v: int) -> ComplexEdge:
    return (u, v) if u <= v else (v, u)


# -- edge paths ----------------------------------------------------------------


def check_edge_path(space, path) -> tuple:
    """Read, type-check, chain and look up each edge of ``path`` in one pass; returns
    the path as a tuple.

    A complex edge is a pair ``(u, v)`` of vertex ids, a poset edge a
    :class:`PosetEdge` or an ``(elem, init, term)`` triple; either way ``e[-2]`` and
    ``e[-1]`` are its endpoints.  Ids must be integers: bools, floats, strings and
    None (but for a stationary poset edge's element) are refused, not converted.
    """
    if isinstance(space, SimplicialPoset):
        return tuple(_poset_path(space, path))
    return tuple(_complex_path(space, space.face_set(), path))


def _complex_path(complex, faces, path) -> list[ComplexEdge]:
    """:func:`check_edge_path` on a complex with face set ``faces``, as a list."""
    edges: list[ComplexEdge] = []
    end = None  # the end of the last edge read
    for raw in path if type(path) is list or type(path) is tuple else _read.items(path):
        e = raw if type(raw) is tuple else tuple(raw) if isinstance(raw, (tuple, list)) else ()
        if len(e) != 2:
            raise ValidationError(f"a complex edge is a pair of vertex ids, got {raw!r}")
        u, v = e
        if type(u) is not int or type(v) is not int:  # refuse bools, floats, strings, None
            _read.integer(u), _read.integer(v)
        if u != end and edges:
            raise ValidationError(f"path breaks between {edges[-1]} and {e}")
        # a miss goes to has_face, which rejects negative ids
        face = e if u < v else (v, u) if u > v else (u,)
        if face not in faces and not complex.has_face(face):
            raise FaceNotFoundError(f"({u},{v}) is not an edge of the complex")
        edges.append(e)
        end = v
    if not edges:
        raise ValidationError("edge paths must be nonempty")
    return edges


def _poset_path(poset, path) -> list[PosetEdge]:
    """:func:`check_edge_path` on a poset, as a list."""
    edges: list[PosetEdge] = []
    for raw in path if type(path) is list or type(path) is tuple else _read.items(path):
        if not isinstance(raw, (tuple, list)) or len(raw) != 3:
            raise ValidationError(f"a poset edge is an (elem, init, term) triple, got {raw!r}")
        elem, init, term = raw
        e = PosetEdge(None if elem is None else _read.integer(elem), _read.integer(init), _read.integer(term))
        if elem is None:
            if init != term or poset.rank(init) != 1:
                raise ValidationError(f"{e} is not a stationary edge at an atom")
        elif poset.rank(elem) != 2:
            raise ValidationError(f"element {elem} is not an edge element")
        elif init == term or poset.atoms_of(elem) != {init, term}:
            raise ValidationError(f"{e} does not traverse element {elem}")
        if edges and edges[-1].term != init:
            raise ValidationError(f"path breaks between {edges[-1]} and {e}")
        edges.append(e)
    if not edges:
        raise ValidationError("edge paths must be nonempty")
    return edges


def _reverse(e):
    return e.reverse() if isinstance(e, PosetEdge) else (e[1], e[0])


def _stationary(e):
    """The stationary edge at the start of ``e``."""
    return PosetEdge(None, e.init, e.init) if isinstance(e, PosetEdge) else (e[0], e[0])


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A replayable list of elementary moves between two edge paths.  Building one checks
    only its setting and that ``moves`` is a list or tuple: the replay checks each move,
    and the JSON forms read each with :func:`_read.move`."""

    setting: str  # "complex" | "poset"
    moves: tuple

    def __post_init__(self):
        if self.setting not in ("complex", "poset"):
            raise ValidationError(f"unknown certificate setting {self.setting!r}")
        if not isinstance(self.moves, (tuple, list)):
            raise ValidationError(f"certificate moves must be a list, got {self.moves!r}")

    def to_json(self) -> dict:
        out = []
        for kind, pos, *x in (_read.move(self.setting, move) for move in self.moves):
            out.append({"kind": kind, "pos": pos})
            if x:  # a witness (a poset's is one id) or an inserted edge
                out[-1]["edge" if kind == "insert" else "witness"] = x[0] if type(x[0]) is int else list(x[0])
        return {"setting": self.setting, "moves": out}

    @classmethod
    def from_json(cls, data) -> "Certificate":
        if not isinstance(data, dict):
            raise ValidationError("a certificate must be a JSON object")
        raw = cls(data.get("setting"), data.get("moves", []))  # checks the setting and the list
        moves = []
        for entry in raw.moves:
            if not isinstance(entry, dict):
                raise ValidationError(f"a move must be a JSON object, got {entry!r}")
            kind, pos = entry.get("kind"), _read.integer(entry.get("pos"))
            x = () if kind == "cancel" else (entry.get("edge" if kind == "insert" else "witness"),)
            moves.append(_read.move(raw.setting, (kind, pos, *x)))
        return cls(raw.setting, tuple(moves))


def _complex_moves(complex):
    """The path reader and the in-place expand/contract of a complex, both on one read
    of its face set.  For the ordered witness ``(a, b, c)``, expand turns ``a -> c``
    into ``a -> b -> c`` and contract turns it back; ``(u, mid, u)`` contracts
    ``u -> mid -> u`` to ``(u, u)``."""
    faces = complex.face_set()

    def triangle(path, kind, pos, witness):
        if not isinstance(witness, (tuple, list)) or len(witness) != 3:
            shown = list(witness) if isinstance(witness, (tuple, list)) else repr(witness)
            raise ValidationError(f"witness {shown} does not name three vertices")
        a, b, c = witness
        if type(a) is not int or type(b) is not int or type(c) is not int:  # as for edges
            _read.integer(a), _read.integer(b), _read.integer(c)
        x, y, z = a, b, c  # sorted, then deduplicated: (u, mid, u) names the edge {u, mid}
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
            if x > y:
                x, y = y, x
        face = (x, y, z) if x != y != z else (x, z) if x != z else (x,)
        if face not in faces and not complex.has_face(face):
            raise ValidationError(f"witness {list(face)} is not a face")
        if kind == "expand":
            if not 0 <= pos < len(path) or path[pos] != (a, c):
                raise ValidationError(f"expand at {pos} does not match the path")
            path[pos : pos + 1] = ((a, b), (b, c))
        elif not 0 <= pos < len(path) - 1 or path[pos] != (a, b) or path[pos + 1] != (b, c):
            raise ValidationError(f"contract at {pos} does not match the path")
        else:
            path[pos : pos + 2] = ((a, c),)

    return partial(_complex_path, complex, faces), triangle


def _rank3_sides(poset, sigma) -> dict[frozenset[int], int]:
    """The three edge elements of a rank-3 element, keyed by their atom pairs."""
    if poset.rank(sigma) != 3:
        raise ValidationError(f"witness {sigma} is not a rank-3 element")
    return {poset.atoms_of(e): e for e in poset._down[sigma]}


def _poset_moves(poset):
    """The path reader and the in-place expand of one edge into two, or contraction
    of two into one, across a rank-3 witness, of a poset."""

    def triangle(path, kind, pos, sigma):
        sigma = _read.integer(sigma)
        if kind == "expand":
            if not 0 <= pos < len(path):
                raise ValidationError("expand position out of range")
            cur = path[pos]
            if cur.elem is None:
                raise ValidationError("cannot expand a stationary edge across a triangle")
            sides = _rank3_sides(poset, sigma)
            if cur.elem not in sides.values():
                raise ValidationError(f"edge element {cur.elem} is not a side of {sigma}")
            x, z = cur.init, cur.term
            (y,) = poset.atoms_of(sigma) - {x, z}
            first, second = sides[frozenset((x, y))], sides[frozenset((y, z))]
            path[pos : pos + 1] = (PosetEdge(first, x, y), PosetEdge(second, y, z))
            return
        if not 0 <= pos < len(path) - 1:
            raise ValidationError("contract position out of range")
        e1, e2 = path[pos], path[pos + 1]
        if e1.elem is None or e2.elem is None or e1.elem == e2.elem:
            raise ValidationError("contract needs two distinct edge elements")
        sides = _rank3_sides(poset, sigma)
        x, y, z = e1.init, e1.term, e2.term
        if {x, y, z} != poset.atoms_of(sigma):
            raise ValidationError("triangle atoms do not match the contracted edges")
        if e1.elem not in sides.values() or e2.elem not in sides.values():
            raise ValidationError("contracted edges are not sides of the witness")
        path[pos : pos + 2] = (PosetEdge(sides[frozenset((x, z))], x, z),)

    return partial(_poset_path, poset), triangle


# setting -> (space type, its path reader and in-place expand/contract)
_SETTINGS = {
    "complex": (SimplicialComplex, _complex_moves),
    "poset": (SimplicialPoset, _poset_moves),
}


def apply_certificate(space, source, certificate: Certificate):
    """Replay every move on ``source``, editing one list in place; raises on the
    first invalid move and returns the final path as a tuple."""
    setting = certificate.setting
    space_type, setting_moves = _SETTINGS[setting]
    if not isinstance(space, space_type):
        raise ValidationError(f"{setting} certificate needs a simplicial {setting}")
    read_path, triangle = setting_moves(space)
    path = read_path(source)
    for move in certificate.moves:
        # a position is an int but not a bool, as _read.integer reads it
        match move:
            case ("expand" | "contract" as kind, int() as pos, witness) if type(pos) is not bool:
                triangle(path, kind, pos, witness)
            case ("cancel", int() as pos) if type(pos) is not bool:
                if not 0 <= pos < len(path) - 1:
                    raise ValidationError("cancel position out of range")
                if path[pos + 1] != _reverse(path[pos]):
                    raise ValidationError("cancel needs an edge followed by its reverse")
                path[pos : pos + 2] = () if len(path) > 2 else (_stationary(path[pos]),)
            case ("insert", int() as pos, edge) if type(pos) is not bool:
                (edge,) = read_path((edge,))
                if not 0 <= pos <= len(path):
                    raise ValidationError("insert position out of range")
                junction = path[pos][-2] if pos < len(path) else path[-1][-1]
                if junction != edge[-2]:
                    raise ValidationError("inserted pair does not chain with the path")
                path[pos:pos] = (edge, _reverse(edge))
            case _:  # a move the reader accepts matches a case above
                _read.move(setting, move)  # raises, naming the fault
                raise ValidationError(f"malformed move {move!r}")
    return tuple(path)


def verify_certificate(space, source, target, certificate: Certificate) -> bool:
    """True iff the certificate replays cleanly and lands exactly on ``target``."""
    try:
        final = apply_certificate(space, source, certificate)
        expected = check_edge_path(space, target)
    except (ValidationError, FaceNotFoundError):
        return False
    return final == expected


# -- nested spanning trees -------------------------------------------------------


class NestedSpanningTree:
    """A spanning tree of the whole complex containing a spanning tree of the
    color-selected subcomplex; parent pointers answer path-to-root queries.
    The constructor checks that they hang every vertex from ``root`` along
    edges, and keeps the vertices parents first (a BFS over the children)."""

    def __init__(self, complex, colors, root, parent):
        _require_complex(complex)
        self.complex = complex
        self.colors = _read.colors(colors)
        self.root = _read.integer(root)
        if not isinstance(parent, Mapping):
            _read.id_map(parent, None)  # refuses it
        faces, children, edges, self.parent = complex.face_set(), {}, [], {}
        for v, p in parent.items():  # ids read, edges checked, children listed in one pass
            if type(v) is not int or p is not None and type(p) is not int:
                _read.ids((v, p))  # refuses the id that is not an integer
            if p is not None:
                edge = (v, p) if v <= p else (p, v)
                if edge not in faces:
                    raise ValidationError(f"tree edge ({v},{p}) is not an edge of the complex")
                edges.append(edge)
            self.parent[v] = p
            children.setdefault(p, []).append(v)
        self.edges = frozenset(edges)
        order = [root] if (root,) in faces and self.parent.get(root, root) is None else []
        for v in order:  # the root has no parent, so no cycle is reached
            order.extend(children.get(v, ()))
        if not len(order) == len(self.parent) == len(complex.vertices):
            raise ValidationError(f"parent pointers do not hang every vertex from root {root}")
        self._order = order

    def path_to_root(self, v) -> list[int]:
        if _read.integer(v) not in self.parent:
            raise FaceNotFoundError(f"vertex {v} is not in the tree")
        out = [v]
        while self.parent[out[-1]] is not None:
            out.append(self.parent[out[-1]])
        return out

    def edge_path(self, a, b) -> tuple[ComplexEdge, ...]:
        """The unique tree path from a to b as a sequence of oriented edges."""
        pa = self.path_to_root(a)
        pb = self.path_to_root(b)
        ia, ib = len(pa) - 1, len(pb) - 1
        while ia >= 0 and ib >= 0 and pa[ia] == pb[ib]:
            ia -= 1
            ib -= 1
        verts = pa[: ia + 2] + (pb[ib::-1] if ib >= 0 else [])
        return tuple(zip(verts, verts[1:]))


def _require_complex(space) -> None:
    """The one refusal of a poset, or any other value, by the functions that read complexes."""
    if not isinstance(space, SimplicialComplex):
        name = type(space).__name__
        raise ValidationError(f"expected a simplicial complex, got {name}; see poset_edge_path_group")


def _require_structure(space) -> None:
    """Pure, with connected links, else :class:`PropertyError`; no coloring is read."""
    if not (space.is_pure and space.links_connected()):
        checks = {"pure": space.is_pure, "links_connected": space.links_connected()}
        raise PropertyError(f"input fails the property checks: {checks}")


def _require_pi1_ready(space, colors=None, poset=False) -> frozenset | None:
    """The one precondition of the pi1 functions and reports, checked in order: a complex (a
    poset too when ``poset``); the structure; a coloring (else :class:`MissingColoringError`) of
    exactly d colors (else :class:`PropertyError`), which the constructors make proper on every
    facet, so no balanced coloring is searched for; two palette ``colors``, when given, returned."""
    if not poset:
        _require_complex(space)
    _require_structure(space)
    palette = require_full_palette(space)
    if colors is not None and (len(colors := _read.colors(colors)) != 2 or not colors <= set(palette)):
        raise ValidationError(f"need exactly two palette colors, got {sorted(colors)}")
    return colors


def default_basepoint(complex: SimplicialComplex, colors) -> int:
    """Minimum-id vertex of the color-selected subcomplex."""
    _require_complex(complex)
    allowed, kappa = _read.colors(colors), complex._coloring
    if allowed.isdisjoint(complex.colors):  # the palette: MissingColoringError when uncolored
        raise FaceNotFoundError(f"no vertices colored in {sorted(allowed)}")
    return min(v for v in complex.vertices if kappa[v] in allowed)


def build_nested_tree(complex, colors, root=None) -> NestedSpanningTree:
    """BFS tree of the selected subcomplex, in ascending id order, each off-color vertex hung from
    its least selected neighbor: :func:`_require_pi1_ready` admits only pure complexes with exactly
    d colors, so every facet has every color and the outer layer is one step deep."""
    colors = _require_pi1_ready(complex, colors)
    kappa = complex._coloring
    root = default_basepoint(complex, colors) if root is None else _read.integer(root)
    if kappa.get(root) not in colors:
        raise FaceNotFoundError(f"root {root} is not in the selected subcomplex")
    adj = complex.adjacency()
    selected = [v for v in complex.vertices if kappa[v] in colors]

    parent: dict[int, int | None] = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if kappa[w] in colors and w not in parent:
                parent[w] = u
                queue.append(w)
    if len(parent) != len(selected):
        raise ContractViolationError(
            "selected subcomplex is disconnected although the property checks passed"
        )
    for v in complex.vertices:
        if v not in parent:
            parent[v] = next((u for u in adj[v] if kappa[u] in colors), None)
            if parent[v] is None:
                raise ContractViolationError(f"vertex {v} has no selected neighbor although checks passed")
    return NestedSpanningTree(complex, colors, root, parent)


# -- presentations ----------------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    """One presentation generator with its provenance."""

    edge: ComplexEdge
    tree: bool = False
    selected: bool | None = None
    realization: tuple | None = None


class GroupPresentation:
    """Generators plus relator words (tuples of signed 1-based indices)."""

    def __init__(self, generators, relators, rounds=None, converged=None):
        self.generators: tuple[Generator, ...] = _read.items(generators)
        for g in self.generators:
            if type(g) is not Generator:
                raise ValidationError(f"expected a Generator, got {g!r}")
            if not (type(e := g.edge) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is int):
                _read.ids(e, 2)  # names a bad id or length; else the edge is not a tuple
                raise ValidationError(f"a generator edge is a tuple of two ids, got {e!r}")
        rels = []
        n = len(self.generators)
        for rel in _read.items(relators):
            word = _read.ids(rel)
            if word and (0 in word or max(map(abs, word)) > n):  # one pass; name the first bad letter
                bad = next(x for x in word if x == 0 or abs(x) > n)
                raise ValidationError(f"relator letter {bad} references no generator")
            rels.append(word)
        self.relators: tuple[tuple[int, ...], ...] = tuple(rels)
        # set by tietze_simplify: the rounds it ran and whether the last changed nothing
        self.rounds = rounds
        self.converged = converged

    @classmethod
    def _of(cls, generators, relators, rounds=None, converged=None) -> "GroupPresentation":
        """The presentation on ``generators`` and ``relators`` of letters, both already read."""
        self = cls.__new__(cls)
        self.generators, self.relators = tuple(generators), tuple(relators)
        self.rounds, self.converged = rounds, converged
        return self

    def generator_index(self, edge) -> int:
        edge = _read.ids(edge)
        for i, g in enumerate(self.generators, 1):
            if g.edge == edge:
                return i
        raise ValidationError(f"no generator for edge {edge}")

    def abelianization(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, invariant factors > 1) of the abelianized group."""
        columns = []
        for rel in self.relators:
            col: dict[int, int] = {}
            for x in rel:
                col[abs(x)] = col.get(abs(x), 0) + (1 if x > 0 else -1)
            columns.append(col)
        factor = unit_pivot_factor(columns)
        return len(self.generators) - factor.rank, factor.torsion

    def render(self) -> str:
        lines = [
            f"g{i + 1} := edge({g.edge[0]},{g.edge[1]})"
            for i, g in enumerate(self.generators)
        ]
        for rel in self.relators:
            lines.append(" ".join(f"g{x}" if x > 0 else f"g{-x}^-1" for x in rel))
        return "\n".join(lines)

    def __repr__(self):
        return f"GroupPresentation({len(self.generators)} generators, {len(self.relators)} relators)"


def free_reduce(word) -> list[int]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def cyclic_reduce(word) -> list[int]:
    """Strip letters cancelling across the ends, moving one index in from each end."""
    word = list(word)
    i, j = 0, len(word) - 1
    while i < j and word[i] == -word[j]:
        i += 1
        j -= 1
    return word[i : j + 1]


def invert_word(word) -> list[int]:
    return [-x for x in reversed(word)]


def full_presentation(complex, tree: NestedSpanningTree) -> GroupPresentation:
    """One generator per edge; tree edges die, triangles impose substitution."""
    _require_complex(complex)
    if not complex.is_connected():
        raise ValidationError("presentations need a connected complex")
    kappa = complex._coloring
    edges, _, triangles = complex._skeleton()
    generators = [
        Generator(e, e in tree.edges, None if kappa is None else {kappa[e[0]], kappa[e[1]]} <= tree.colors)
        for e in edges
    ]
    relators = [(i,) for i, e in enumerate(edges, 1) if e in tree.edges]
    return GroupPresentation(generators, relators + triangles)


def word_to_loop(presentation, tree, word) -> tuple[ComplexEdge, ...]:
    """Inverse reading: each letter becomes tree-path + edge + tree-path."""
    segments: list[ComplexEdge] = []
    n = len(presentation.generators)
    for letter in _read.ids(word):
        if letter == 0 or abs(letter) > n:
            raise ValidationError(f"unknown generator {letter}")
        a, b = presentation.generators[abs(letter) - 1].edge
        if letter < 0:
            a, b = b, a
        segments.extend(tree.edge_path(tree.root, a))
        segments.append((a, b))
        segments.extend(tree.edge_path(b, tree.root))
    if not segments:
        return ((tree.root, tree.root),)
    return tuple(segments)


# -- the bypass walk: rewriting into the selected subcomplex --------------------------


class _WalkIndex(NamedTuple):
    """A complex's walk index, cached and shared by every color pair.  A vertex is its
    position p in ``vertices`` (the least position is the least id) and also the degenerate
    edge (p, p) of letter ``m + p``, m = ``len(ends)``, completed by p's neighbors."""

    ids: tuple[int, ...]  # position -> vertex id
    pos: dict[int, int]  # vertex id -> position
    color: list[int]  # position -> the palette index of its color
    ends: list  # edge letter -> its end positions, ascending (letter 0 unused)
    nbr: list[dict[int, int]]  # position p -> {neighbor or p: the letter of their edge}
    near: tuple  # letter * d + c -> ascending positions of color c completing the edge to a face
    tri: frozenset[int]  # letter * n + w for the edge of each letter and each w completing it
    d: int  # colors
    n: int  # vertices


class _Walk(NamedTuple):
    """A color pair's walk: the complex's index, the pair's palette indices and its searches."""

    index: _WalkIndex
    first: int
    second: int
    searches: dict  # center * n + start -> the parent pointers of a detour search, see _detour


def _walk_index(complex) -> _WalkIndex:
    """The walk index, filled in one pass over the skeleton's edges and triangle relators
    (sorted, so each completion tuple ascends), and cached."""
    index = complex._cache.get("walk")
    if index is None:
        edges, _, relators = complex._skeleton()
        ids, palette, m = complex.vertices, complex.colors, len(edges) + 1
        n, d, pos = len(ids), len(palette), {v: p for p, v in enumerate(ids)}
        color = [palette.index(complex._coloring[v]) for v in ids]
        ends, nbr, near = [None], [{p: m + p} for p in range(n)], [[] for _ in range((m + n) * d)]
        completions = []  # (letter, w): w completes that letter's edge to a face
        for letter, (a, b) in enumerate(edges, 1):
            a, b = pos[a], pos[b]
            ends.append((a, b))
            nbr[a][b] = nbr[b][a] = letter
            completions += ((m + a, b), (m + b, a))
        for ab, bc, ac in relators:  # (ab, bc, -ac) of the triangle a < b < c
            (a, b), c = ends[ab], ends[bc][1]
            completions += ((ab, c), (bc, a), (-ac, b))
        for letter, w in completions:  # not an edge's own ends: no read asks for their colors
            near[letter * d + color[w]].append(w)
        tri = []  # the witnesses, read from the faces themselves rather than the completions
        for a, b in complex.edges():
            a, b = pos[a], pos[b]
            tri += ((m + a) * n + b, (m + b) * n + a)
        for a, b, c in complex.faces(2) if complex.dim >= 2 else ():
            a, b, c = pos[a], pos[b], pos[c]
            tri += (nbr[a][b] * n + c, nbr[b][c] * n + a, nbr[a][c] * n + b)
        near, tri = tuple(map(tuple, near)), frozenset(tri)
        index = complex._cache["walk"] = _WalkIndex(ids, pos, color, ends, nbr, near, tri, d, n)
    return index


def _pair_walk(complex, colors) -> _Walk:
    first, second = map(complex.colors.index, colors)
    return _Walk(_walk_index(complex), first, second, {})


def _broken(walk, text, *at) -> ContractViolationError:
    """The error ``text`` names, the ids of the positions ``at`` filled in."""
    return ContractViolationError(text.format(*(walk.index.ids[p] for p in at)) + "; hypotheses broken")


def _bridge(walk, mid, tail) -> int:
    """The least selected position completing the edge {mid, tail} (the vertex mid if equal) to
    a face, not of tail's color: a least first completion by color, its witness checked.  The
    off-color mid and tail's color are never asked for, so their completions are not indexed."""
    index, first, second = walk.index, walk.first, walk.second
    near, d = index.near, index.d
    c, letter = index.color[tail], index.nbr[mid].get(tail, 0)  # letter 0 completes nothing
    a = () if c == first else near[letter * d + first]
    b = () if c == second else near[letter * d + second]
    if not (a or b):
        raise _broken(walk, "no selected vertex completes ({},{}) to a face", mid, tail)
    bridge = b[0] if not a else a[0] if not b or a[0] < b[0] else b[0]
    if letter * index.n + bridge not in index.tri:
        raise _broken(walk, "witness [{}, {}, {}] is not a face", mid, bridge, tail)
    return bridge


def _detour(walk, center, start) -> dict[int, int | None]:
    """Parent pointers of the ascending BFS from ``start`` over the whole selected link of the
    off-color ``center`` (u's neighbors: the pair's other color completing {center, u} to a face),
    searched once per (center, start) and stored once each edge's triangle with center has checked."""
    index, searches = walk.index, walk.searches
    parent = searches.get(key := center * index.n + start)
    if parent is None:
        color, near, tri, d, n = index.color, index.near, index.tri, index.d, index.n
        around, other = index.nbr[center], walk.first + walk.second  # u lacks the color other - color[u]
        parent, order = {start: None}, [start]
        for u in order:  # the queue: each neighbor found is appended
            letter = around[u]
            for w in near[letter * d + other - color[u]]:
                if w not in parent:
                    if letter * n + w not in tri:
                        raise _broken(walk, "witness [{}, {}, {}] is not a face", u, w, center)
                    parent[w] = u
                    order.append(w)
        searches[key] = parent
    return parent


def _bypass_walk(walk, entry, mid, bridge) -> list[int]:
    """The selected positions ``entry, ..., bridge`` that replace the off-color ``mid`` on the way to
    its ``bridge``, which the caller has just asked :func:`_bridge` for: ``[entry]`` if that is entry,
    else the path in mid's :func:`_detour` from entry; the one walk of the rewriter and the restriction."""
    if bridge == entry:
        return [entry]
    parent = _detour(walk, mid, entry)
    if bridge not in parent:
        raise _broken(walk, "link of {} has no selected path {} -> {}", mid, entry, bridge)
    hops = [bridge]
    while parent[hops[-1]] is not None:
        hops.append(parent[hops[-1]])
    return hops[::-1]


def rewrite_path_to_colors(complex, colors, path):
    """Rewrite an edge path into the two-color subcomplex, with a certificate.

    The first off-color interior vertex is bypassed: its outgoing edge is
    expanded through a bridge vertex of the missing color, and its incoming
    edge is re-routed along a selected path in the vertex's link, one
    triangle move at a time.  The returned certificate replays from the
    input path to the returned path.
    """
    colors = _require_pi1_ready(complex, colors)
    path = check_edge_path(complex, path)
    kappa = complex._coloring
    if kappa[path[0][0]] not in colors or kappa[path[-1][1]] not in colors:
        raise ValidationError("path endpoints must lie in the selected subcomplex")
    by_pair = complex._cache.setdefault("rewrite_memos", {})  # reused across calls
    walk, bypasses = by_pair.get(colors) or by_pair.setdefault(colors, (_pair_walk(complex, colors), {}))
    ids, pos = walk.index.ids, walk.index.pos
    moves: list[tuple] = []
    out: list[ComplexEdge] = []
    u = path[0][0]  # selected: an endpoint, or the bridge of the last bypass
    for i, (_, mid) in enumerate(path):
        if kappa[mid] in colors:
            out.append((u, mid))
            u = mid
            continue
        tail = path[i + 1][1]
        hops = bypasses.get((u, mid, tail))
        if hops is None:  # hops in ids by (entry, mid, tail): only a triple seen before is not walked
            walked = _bypass_walk(walk, pos[u], pos[mid], _bridge(walk, pos[mid], pos[tail]))
            hops = bypasses[u, mid, tail] = [ids[p] for p in walked]
        bridge, idx = hops[-1], len(out)
        moves.append(("expand", idx + 1, (mid, bridge, tail)))
        if len(hops) == 1:
            moves.append(("contract", idx, (u, mid, u)))
        else:
            moves += (("expand", idx + j, (hops[j], hops[j + 1], mid)) for j in range(len(hops) - 2))
            moves.append(("contract", idx + len(hops) - 2, (hops[-2], mid, bridge)))
        out.extend(zip(hops, hops[1:]) if len(hops) > 1 else [(u, u)])
        u = bridge
    return tuple(out), Certificate("complex", tuple(moves))


# -- presentation restriction and simplification -----------------------------------


def _restrict(complex, tree, edges, relators) -> GroupPresentation:
    """Restrict generators ``edges`` (letters 1, 2, ...) and ``relators`` to the pair
    ``tree.colors``.  A tree edge maps to (), a kept (selected non-tree) edge to its new
    letter, and an off-color edge (a, b) to the rewrite of its tree loop between a's and
    b's nearest selected ancestors: a's descent, the bypasses of a and b, and b's climb.
    One parents-first pass over the nested tree gives each off-color w its descent (the
    letters from its nearest selected ancestor down to w, and the vertex they end at) and
    its climb (w's bridge, and the letters from it back up).  On walk positions; the memos
    are this pair's, its bypass letters by (mid, entry, bridge)."""
    walk = _pair_walk(complex, tree.colors)
    index, letters = walk.index, complex._skeleton()[1]
    ids, pos, ends, nbr, n = index.ids, index.pos, index.ends, index.nbr, index.n
    selected = [c == walk.first or c == walk.second for c in index.color]
    kept = [None] * len(ends)  # letter -> its generator, 0 on the tree, None for no generator
    for e in tree.edges:
        kept[letters[e]] = 0
    generators, words = [], {}  # words: (mid * n + entry) * n + bridge -> the letters of that bypass
    edge_letters = [letters[e] for e in edges]  # the skeleton's letter of each generator edge
    for e, letter in zip(edges, edge_letters):
        a, b = ends[letter]
        if kept[letter] != 0 and selected[a] and selected[b]:
            generators.append(Generator(edge=e, tree=False, selected=True))
            kept[letter] = len(generators)

    def steps(hops) -> tuple[int, ...]:
        """The kept letters of a walk between selected positions, signed by direction."""
        word = ()
        for u, v in zip(hops, hops[1:]):
            x = kept[nbr[u][v]]
            if x is None:
                raise ValidationError(f"no generator for edge {_canon(ids[u], ids[v])}")
            if x:
                word += (x,) if u < v else (-x,)
        return word

    def bypass(u, mid, bridge) -> tuple[int, ...]:
        """The letters of the walk around ``mid`` from ``u`` to its ``bridge``."""
        if (word := words.get(key := (mid * n + u) * n + bridge)) is None:
            word = words[key] = steps(_bypass_walk(walk, u, mid, bridge))
        return word

    down, up = [None] * n, [None] * n
    for w in map(pos.__getitem__, tree._order):  # parents first
        if selected[w]:
            continue
        p = pos[tree.parent[ids[w]]]
        x = _bridge(walk, w, p)
        if selected[p]:
            down[w], up[w] = ((), p), (x, steps((x, p)))
            continue
        (word, u), (y, climb), z = down[p], up[p], _bridge(walk, p, w)
        down[w], up[w] = (word + bypass(u, p, z), z), (x, bypass(x, p, y) + climb)
    images = [()] * (2 * len(edges) + 1)  # images[i] and images[-i]: letter i and its inverse
    for i, letter in enumerate(edge_letters, 1):
        x = kept[letter]
        if x:
            images[i], images[-i] = (x,), (-x,)
        elif x is None:
            a, b = ends[letter]
            if selected[a]:
                word, u = (), a
            else:  # a's bridge toward b is asked for once, here
                (word, u), x = down[a], _bridge(walk, a, b)
                word, u = word + bypass(u, a, x), x
            if selected[b]:
                word += steps((u, b))
            else:
                x, climb = up[b]
                word += bypass(u, b, x) + climb
            if word:
                images[i], images[-i] = word, tuple(invert_word(word))
    mapped = []
    for rel in relators:
        if len(rel) == 3:  # a triangle, as every skeleton relator is
            word = images[rel[0]] + images[rel[1]] + images[rel[2]]
        else:
            word = ()
            for x in rel:
                word += images[x]
        if len(word) > 1:
            word = free_reduce(word)
        if word:
            mapped.append(tuple(word))
    return GroupPresentation._of(generators, mapped)


def restrict_presentation(presentation, complex, colors, tree) -> GroupPresentation:
    """Eliminate every generator outside the selected subcomplex.

    The inputs are validated once, here, the tree's nestedness included;
    :func:`generator_bounds` runs the same restriction.  The result is presented
    on exactly the selected non-tree edges, as many as the selection's h2.
    """
    colors = _require_pi1_ready(complex, colors)
    if tree.complex is not complex:
        raise ValidationError("tree was built on a different complex")
    if tree.colors != colors:
        raise ValidationError("tree was built for a different color pair")
    kappa = complex._coloring
    if kappa[tree.root] not in colors:
        raise ValidationError(f"tree root {tree.root} is not in the selected subcomplex")
    for v, p in tree.parent.items():
        if p is not None and kappa[v] in colors and kappa[p] not in colors:
            raise ValidationError(f"selected vertex {v} hangs from the off-color {p}; the tree is not nested")
    faces = complex.face_set()
    for g in presentation.generators:
        if g.edge not in faces:
            raise FaceNotFoundError(f"generator edge {g.edge} is not an edge of the complex")
        if g.tree != (g.edge in tree.edges):
            raise ValidationError(f"generator edge {g.edge} disagrees with the tree")
    return _restrict(complex, tree, [g.edge for g in presentation.generators], presentation.relators)


def _cyclic_canonical(word) -> tuple[int, ...]:
    words = (tuple(word), tuple(invert_word(word)))
    return min((w[s:] + w[:s] for w in words for s in range(len(w))), default=())


def tietze_simplify(presentation, max_rounds: int = DEFAULT_TIETZE_ROUNDS) -> GroupPresentation:
    """Bounded, deterministic presentation cleanup.

    Each round free- and cyclically reduces relators, drops empty ones,
    eliminates generators that occur exactly once in some relator (shortest
    relator first, ties by position, and only when the substitution does not
    grow the total relator length), and drops duplicate relators up to
    rotation and inversion.  Stops at a fixpoint or after ``max_rounds``; the
    result records the rounds run and whether the last one changed nothing.

    An index from each generator to the relators holding it confines a
    substitution to those relators.  Whether a candidate relator's
    substitution shrinks the total depends only on it and on the relators
    holding its generator, so a failed candidate is tried again only after
    one of those changes.
    """
    max_rounds = _read.rounds(max_rounds)
    words: list[list[int] | None] = [list(r) for r in presentation.relators]  # None once dropped
    alive = [True] * len(presentation.generators)
    holding: dict[int, set[int]] = {}  # generator -> ids of the relators holding it
    for k, word in enumerate(words):
        for x in word:
            holding.setdefault(abs(x), set()).add(k)
    heap = [(len(word), k) for k, word in enumerate(words)]  # candidates, in (length, id) order
    heapq.heapify(heap)
    failed: dict[int, int | None] = {}  # candidate -> the generator it would eliminate
    waiting: dict[int, set[int]] = {}  # generator -> failed candidates that would eliminate it
    keys: dict[int, tuple[int, ...]] = {}  # id -> cyclic canonical form of its word

    def put(k, word):
        """Replace relator k (drop it if ``word`` is empty) and re-open the failed
        candidates whose generator it held or holds."""
        touched = [abs(x) for x in words[k]]
        for g in touched:
            holding[g].discard(k)
        for x in word:  # a substitution brings in only generators some relator held
            holding[abs(x)].add(k)
        if waiting:
            for g in chain(touched, map(abs, word)):
                for c in waiting.pop(g, ()):
                    if failed.get(c) == g:
                        del failed[c]
                        heapq.heappush(heap, (len(words[c]), c))
        words[k] = word or None
        keys.pop(k, None)
        failed.pop(k, None)
        if word:
            heapq.heappush(heap, (len(word), k))

    def eliminate(k) -> bool:
        """Try candidate k; on success substitute it away and drop it."""
        rel = words[k]
        counts = Counter(map(abs, rel))
        pos = next((p for p, x in enumerate(rel) if counts[abs(x)] == 1), None)
        if pos is None:
            failed[k] = None
            return False
        x = rel[pos]
        g = abs(x)
        tau = rel[pos + 1 :] + rel[:pos]
        replacement = invert_word(tau) if x > 0 else tau
        inverse = invert_word(replacement)
        trial = {}
        growth = -len(rel)
        for j in holding[g] - {k}:
            word: list[int] = []
            for y in words[j]:
                if y == g:
                    word.extend(replacement)
                elif y == -g:
                    word.extend(inverse)
                else:
                    word.append(y)
            trial[j] = cyclic_reduce(free_reduce(word))
            growth += len(trial[j]) - len(words[j])
        if growth > 0:
            failed[k] = g
            waiting.setdefault(g, set()).add(k)
            return False
        alive[g - 1] = False
        for j, word in trial.items():
            put(j, word)
        put(k, [])
        return True

    rounds, converged = 0, False
    for rounds in range(1, max_rounds + 1):
        changed = False
        for k, word in enumerate(words):
            if word is None:
                continue
            reduced = cyclic_reduce(free_reduce(word))
            if not reduced or reduced != word:
                put(k, reduced)
                changed = True
        while heap:
            length, k = heapq.heappop(heap)
            if words[k] is not None and k not in failed and len(words[k]) == length:
                changed |= eliminate(k)
        seen = set()
        for k, word in enumerate(words):
            if word is None:
                continue
            if k not in keys:
                keys[k] = _cyclic_canonical(word)
            if keys[k] in seen:
                put(k, [])
                changed = True
            else:
                seen.add(keys[k])
        if not changed:
            converged = True
            break

    mapping: dict[int, int] = {}
    new_gens = []
    for i, g in enumerate(presentation.generators):
        if alive[i]:
            mapping[i + 1] = len(new_gens) + 1
            new_gens.append(g)
    new_rels = [
        tuple(mapping[x] if x > 0 else -mapping[-x] for x in r) for r in words if r is not None
    ]
    return GroupPresentation._of(new_gens, new_rels, rounds, converged)


def generator_bounds(complex, tietze_rounds: int = DEFAULT_TIETZE_ROUNDS) -> dict:
    """Per color pair: selected h2, restricted and post-simplification
    generator counts; ``best`` is the smallest certified upper bound."""
    tietze_rounds = _read.rounds(tietze_rounds)
    _require_pi1_ready(complex)
    edges, _, triangles = complex._skeleton()
    h = complex._selection_h()
    per_pair: dict[tuple[int, int], dict] = {}
    for pair in combinations(complex.colors, 2):
        tree = build_nested_tree(complex, pair)
        restricted = _restrict(complex, tree, edges, triangles)
        simplified = tietze_simplify(restricted, tietze_rounds)
        per_pair[pair] = {
            "h2_selected": h[pair],
            "generators": len(restricted.generators),
            "post_tietze": len(simplified.generators),
            "presentation": simplified,
        }
    best = min((entry["post_tietze"] for entry in per_pair.values()), default=0)
    return {"per_pair": per_pair, "best": best}


# -- poset edge-path groups ---------------------------------------------------------


def poset_edge_path_group(poset, base=None) -> GroupPresentation:
    """Present the edge-path group of a pure, connected-links simplicial poset.

    A BFS from ``base`` (the least atom by default), taking the rank-2
    elements at each atom in ascending order, spans the atoms.  Every other
    rank-2 element is a generator, oriented from its lower atom up and named
    by its edge in the rank-colored order complex: the sorted pair (its end
    reached last, itself).  Each rank-3 element gives its relator in the
    skeleton shared with H1, less its tree sides.  ``Generator.realization``
    is the tree path from the base, the element, and the tree path back.
    """
    _require_structure(poset)
    atoms = poset.atoms()
    if not atoms:
        return GroupPresentation((), ())
    if base is None:
        base = min(atoms)
    if poset.rank(base) != 1:
        raise FaceNotFoundError(f"basepoint {base} must be an atom")

    edges, _, triangles = poset._skeleton()
    ends = {e: poset._ends(e) for e in edges}
    incident: dict[int, list[int]] = {a: [] for a in atoms}
    for e, (a, b) in ends.items():  # e ascends, so every list does
        incident[a].append(e)
        incident[b].append(e)
    up: dict[int, PosetEdge | None] = {base: None}  # atom -> tree edge toward base
    queue = deque([base])
    while queue:
        a = queue.popleft()
        for e in incident[a]:
            b = ends[e][ends[e][0] == a]  # the other end
            if b not in up:
                up[b] = PosetEdge(e, b, a)
                queue.append(b)
    reached = {a: i for i, a in enumerate(up)}
    tree = {t.elem for t in up.values() if t is not None}
    names = {e: _canon(max(ab, key=reached.get), e) for e, ab in ends.items() if e not in tree}

    def to_base(x) -> list[PosetEdge]:
        path = []
        while up[x] is not None:
            path.append(up[x])
            x = up[x].term
        return path

    order = sorted(names, key=names.get)
    letter = {e: i + 1 for i, e in enumerate(order)}
    generators = []
    for e in order:
        a, b = ends[e]
        loop = [t.reverse() for t in reversed(to_base(a))] + [PosetEdge(e, a, b)] + to_base(b)
        generators.append(Generator(names[e], False, True, tuple(loop)))
    renamed = [0] + [letter.get(e, 0) for e in edges]  # skeleton letter -> generator, 0 on the tree
    relators = []
    for rel in triangles:
        word = tuple(renamed[x] if x > 0 else -renamed[-x] for x in rel if renamed[abs(x)])
        if word:
            relators.append(word)
    return GroupPresentation(generators, relators)
