"""Simplicial posets: ranked posets whose lower intervals are Boolean.

Elements are identified by integer ids with an explicit rank; the least
element is implicit (never stored) and sits below every rank-1 element.
Unlike a simplicial complex, two distinct rank-2 elements may share the
same pair of atoms, which is exactly what makes the double-edge circle and
its relatives representable.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from . import _read
from .complex import SimplicialComplex, _row_pairs, _Space
from .errors import FaceNotFoundError, MissingColoringError, ValidationError


class SimplicialPoset(_Space):
    """A ranked element table plus cover relations with an implicit bottom.

    The constructor is strict: a table that is not a simplicial poset is
    refused with the first violation found.
    """

    def __init__(self, ranks: dict[int, int], covers, coloring=None, labels=None):
        self._rank: dict[int, int] = _read.id_map(ranks, _read.integer)
        for x, r in self._rank.items():
            if r < 1:
                raise ValidationError(f"element {x} has rank {r}; ranks start at 1")
        cover_set = set()
        for cover in _read.items(covers):
            lo, hi = _read.ids(cover, 2)
            if lo not in self._rank or hi not in self._rank:
                raise ValidationError(f"cover ({lo}, {hi}) references unknown elements")
            if lo == hi:
                raise ValidationError(f"element {lo} cannot cover itself")
            cover_set.add((lo, hi))
        self._covers: tuple[tuple[int, int], ...] = tuple(sorted(cover_set))
        up: dict[int, list[int]] = {x: [] for x in self._rank}
        down: dict[int, list[int]] = {x: [] for x in self._rank}
        for lo, hi in self._covers:
            up[lo].append(hi)
            down[hi].append(lo)
        self._up: dict[int, tuple[int, ...]] = {x: tuple(sorted(ns)) for x, ns in up.items()}
        self._down: dict[int, tuple[int, ...]] = {x: tuple(sorted(ns)) for x, ns in down.items()}

        for v in () if coloring is None else _read.id_map(coloring, _read.integer):
            if self._rank.get(v) != 1:
                raise ValidationError(f"colored element {v} is not an atom")
        self._attach(coloring, labels, sorted(x for x, r in self._rank.items() if r == 1))
        reason = self._index()
        if reason is not None:
            raise ValidationError(f"invalid simplicial poset: {reason}")
        self._cache: dict = {}

    # -- accessors -------------------------------------------------------------

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._rank))

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        return self._covers

    @property
    def d(self) -> int:
        """The largest rank, the poset analogue of a complex's facet size."""
        return len(self._by_rank)  # every rank from 1 to the largest is occupied

    def rank(self, x: int) -> int:
        if type(x) is not int:
            _read.integer(x)
        if x not in self._rank:
            raise FaceNotFoundError(f"no element with id {x}")
        return self._rank[x]

    def elements_of_rank(self, r: int) -> tuple[int, ...]:
        return self._by_rank.get(r if type(r) is int else _read.integer(r), ())

    def atoms(self) -> tuple[int, ...]:
        return self.elements_of_rank(1)

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(sorted(x for x in self._rank if not self._up[x]))

    @property
    def vertices(self) -> tuple[int, ...]:
        """The atoms, which play the part of a complex's vertices."""
        return self.atoms()

    def edges(self) -> tuple[int, ...]:
        """The rank-2 elements, so parallel edges stay apart."""
        return self.elements_of_rank(2)

    def _ends(self, edge: int) -> tuple[int, int]:
        """The two atoms of a rank-2 element, its lower covers."""
        return self._down[edge]

    def triangle_sides(self) -> list[tuple[int, int, int]]:
        """The sides ``(ab, bc, ac)`` of each rank-3 element on atoms ``a < b < c``."""
        # a side's lower covers are its two atoms; sorted by them, sides run ab, ac, bc
        sides = (sorted(self._down[t], key=self._down.get) for t in self.elements_of_rank(3))
        return [(ab, bc, ac) for ab, ac, bc in sides]

    def atoms_of(self, x: int) -> frozenset[int]:
        """The atoms below or at x."""
        self.rank(x)  # refuses an unknown id
        return self._atoms[x]

    def color_set(self, x: int) -> frozenset[int]:
        if self._coloring is None:
            raise MissingColoringError("poset has no coloring attached")
        return frozenset(self._coloring[a] for a in self.atoms_of(x))

    def __repr__(self):
        return f"SimplicialPoset({len(self._rank)} elements, rank {self.d})"

    # -- validation --------------------------------------------------------

    def _index(self) -> str | None:
        """Build ``_by_rank`` (the ids of each rank, ascending) and ``_atoms`` (each
        element's atom set) in one pass in (rank, id) order, and return the first
        invariant the table breaks, or None.

        When x of rank k is reached, every element below it has passed.  Its interval
        is then Boolean exactly when x covers k elements (none at k = 1) with pairwise
        distinct atom sets and k atoms between them, and, for k >= 4, every two of them,
        a on all of x's atoms but i and b on all but j, cover a common element c.
        Proof: c lies on all atoms but i and j, so two elements below a and b on one
        atom set lie below c (the intervals below a and b are Boolean) and are one.  At
        k = 2 and 3, c is the bottom or the atom that a and b share, so it always exists.
        """
        for lo, hi in self._covers:
            if self._rank[hi] != self._rank[lo] + 1:
                return f"cover ({lo}, {hi}) jumps from rank {self._rank[lo]} to {self._rank[hi]}"
        by_rank: dict[int, list[int]] = {}
        self._atoms: dict[int, frozenset[int]] = {}
        for x in sorted(self._rank, key=lambda y: (self._rank[y], y)):
            k, below = self._rank[x], self._down[x]
            atoms = frozenset().union(*map(self._atoms.get, below)) if k > 1 else frozenset((x,))
            if len(atoms) != k:
                return f"element {x} of rank {k} has {len(atoms)} atoms below it"
            if k > 1 and len(below) != k:
                return f"element {x} of rank {k} covers {len(below)} elements, expected {k}"
            if len(set(map(self._atoms.get, below))) < len(below) or k >= 4 and any(
                set(self._down[a]).isdisjoint(self._down[b]) for a, b in combinations(below, 2)
            ):
                return f"two elements below {x} share the same atom set"
            self._atoms[x] = atoms
            by_rank.setdefault(k, []).append(x)
        self._by_rank: dict[int, tuple[int, ...]] = {r: tuple(xs) for r, xs in by_rank.items()}
        if self._coloring is not None:
            for facet in self.maximal_elements():
                cols = [self._coloring[a] for a in sorted(self._atoms[facet])]
                if len(set(cols)) != len(cols):
                    return f"facet {facet} has repeated atom colors {cols}"
        return None

    # -- structure ----------------------------------------------------------

    @cached_property
    def is_pure(self) -> bool:
        d = self.d
        return all(self._rank[x] == d for x in self.maximal_elements())

    def order_complex(self) -> SimplicialComplex:
        """Complex of chains of elements, colored by rank; vertex ids are element ids.

        It is the barycentric subdivision of the poset's cells, so it has the
        same H1 and edge-path group; the library computes both from the cells.
        """
        chains = [(m,) for m in self.maximal_elements()]  # extended downward
        facets = set()
        while chains:
            chain = chains.pop()
            lower = self._down[chain[-1]]
            chains.extend(chain + (y,) for y in lower)
            if not lower:
                facets.add(tuple(sorted(chain)))
        coloring = {x: self._rank[x] for x in self._rank}
        return SimplicialComplex(sorted(facets), coloring or None, self._labels)

    def link(self, x: int | None) -> "SimplicialPoset":
        """The upper set of ``x`` re-ranked so that ``x`` becomes the implicit bottom."""
        if x is None:
            return self
        base = self.rank(x)
        members, stack = set(), [x]
        while stack:
            for y in self._up[stack.pop()]:
                if y not in members:
                    members.add(y)
                    stack.append(y)
        ranks = {y: self._rank[y] - base for y in members}
        coloring = None
        if self._coloring is not None:  # an atom of the link adds one atom to x's
            kappa, atoms = self._coloring, self._atoms
            coloring = {y: kappa[min(atoms[y] - atoms[x])] for y in self._up[x]}
        return self._sub_poset(members, ranks, coloring)

    def rank_select(self, colors) -> "SimplicialPoset":
        """Sub-poset of elements all of whose atom colors lie in ``colors``."""
        if self._coloring is None:
            raise MissingColoringError("rank selection needs a coloring")
        allowed = _read.colors(colors)
        members = {x for x in self._rank if self.color_set(x) <= allowed}
        ranks = {x: self._rank[x] for x in members}
        coloring = {v: c for v, c in self._coloring.items() if v in members}
        return self._sub_poset(members, ranks, coloring)

    def _sub_poset(self, members, ranks, coloring) -> "SimplicialPoset":
        """The elements ``members`` with the given ranks and the covers among them,
        read from the members' own lower covers."""
        down = self._down
        covers = [(lo, hi) for hi in members for lo in down[hi] if lo in members]
        labels = self._labels and {x: self._labels[x] for x in members if x in self._labels}
        return SimplicialPoset(ranks, covers, coloring, labels)

    def _link_layer(self, k: int):
        """The links of the rank-k elements (the bottom's at k = 0) in a complex's row form,
        covers not atoms, as edges may be parallel.  A lower cover of y lacks one atom of y,
        and two lower covers of z cover the one element below z that lacks both their atoms
        (the interval is Boolean).  So the i-th y of rank k + 1 is ``i * (k + 1) + p`` in the
        link of its cover that lacks its p-th least atom, and z's row lists its covers so."""
        ups, down = self.elements_of_rank(k + 1), self._down
        first = {y: i * (k + 1) for i, y in enumerate(ups)}
        lacks = {y: -sum(self._atoms[y]) for y in ups}  # sorts z's covers by the atom each lacks
        rows = ([first[y] for y in sorted(down[z], key=lacks.get)] for z in self.elements_of_rank(k + 2))
        cells = len({x for y in ups for x in down[y]}) or 1  # the bottom at k = 0
        return len(ups) * (k + 1), cells, rows, _row_pairs(k + 2)

    # perfbench/tracer.py wraps it in this class's own __dict__
    check_properties = _Space.check_properties

    def f_vector(self) -> tuple[int, ...]:
        """Element counts by rank; ``f[0] = 1`` counts the implicit bottom."""
        return tuple([1] + [len(self.elements_of_rank(r)) for r in range(1, self.d + 1)])

    def _ridges(self):
        return (self._down[m] for m in self.maximal_elements())

    def _color_masks(self, bit):
        return [0, *(sum(map(bit.__getitem__, atoms)) for atoms in self._atoms.values())]

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        elements = []
        for x in self.ids:
            entry: dict = {"id": x, "rank": self._rank[x]}
            if self._labels and x in self._labels:
                entry["label"] = self._labels[x]
            elements.append(entry)
        data: dict = {
            "type": "poset",
            "elements": elements,
            "covers": [list(c) for c in self._covers],
        }
        if self._coloring is not None:
            data["coloring"] = {str(v): c for v, c in sorted(self._coloring.items())}
        return data

    @classmethod
    def from_json(cls, data) -> "SimplicialPoset":
        if not isinstance(data, dict) or data.get("type") != "poset":
            raise ValidationError('poset JSON must carry "type": "poset"')
        elements, covers = data.get("elements"), data.get("covers")
        if not isinstance(elements, list) or not isinstance(covers, list):
            raise ValidationError('"elements" and "covers" must be lists')
        ranks: dict[int, int] = {}
        labels: dict = {}
        for entry in elements:
            if not isinstance(entry, dict) or "id" not in entry or "rank" not in entry:
                raise ValidationError("each element needs an id and a rank")
            x = _read.integer(entry["id"])
            if x in ranks:
                raise ValidationError(f"duplicate element id {x}")
            ranks[x] = entry["rank"]
            if "label" in entry:
                labels[x] = entry["label"]
        return cls(ranks, covers, _read.json_id_map(data, "coloring"), labels or None)


def face_poset(complex: SimplicialComplex) -> SimplicialPoset:
    """The poset of nonempty faces ordered by inclusion, atoms colored as in the complex."""
    faces = sorted((f for f in complex.face_set() if f), key=lambda f: (len(f), f))
    index = {f: i for i, f in enumerate(faces)}
    ranks = {i: len(f) for f, i in index.items()}
    covers = []
    for f in faces:
        if len(f) >= 2:
            for sub in combinations(f, len(f) - 1):
                covers.append((index[sub], index[f]))
    coloring = None
    if (kappa := complex._coloring) is not None:
        coloring = {index[(v,)]: kappa[v] for v in complex.vertices}
    labels = {i: "-".join(map(str, f)) for f, i in index.items()}
    return SimplicialPoset(ranks, covers, coloring, labels)
