"""Slow exact computations kept as differential oracles for the production code.

``oracle_apply_certificate`` replays a certificate by rebuilding the whole path
tuple for every move, the way the library did before its replay edited one
list in place.  It reads paths and inserted edges with the library's
``check_edge_path``, so the two replays differ only in how they apply moves.

``oracle_restrict`` restricts a presentation to a color pair the way the
library did before it memoized each pair's bypass letters: every bypass walks
its detour and reads its letters afresh.  ``oracle_rewrite`` rewrites a path
into a color pair with fresh memos on every call.  Both run the walk as the
library ran it before its walk index: on vertex ids, over an index of
completions keyed by vertex and edge tuples (``oracle_completions``,
``oracle_bridge``, ``oracle_detour``, ``oracle_bypass``), each witness checked
against the face set.

``oracle_selected_h`` sums ``(-1)^(|S|-|T|) f_T`` over every subset ``T`` of a
selection ``S``, the 3^d-term sum the library replaced by one subset transform.

``oracle_octahedron_sum`` folds the public ``connected_sum`` over fresh
octahedra, rebuilding and checking the whole running sum for every copy, the
way the library built the sum before it glued every copy onto one facet heap.

``oracle_links_connected`` over ``oracle_link_layer(space, k)`` is the link
sweep as the library ran it before its rows: every link edge of a layer is a
pair of ids, all of them are read, and the layer passes when its union-find
forest ends with one tree per cell.

``oracle_nested_parent`` builds a nested tree's parent pointers by two BFS runs,
the second over everything from a queue of every selected vertex in id order,
the way the library built them before it hung each off-color vertex from its
least selected neighbor.

``oracle_proper_coloring`` backtracks with the library's pick rule and color
order, but scans every vertex for each pick, the way the library picked before it
kept a lazy heap of (colors left, id).
"""

from collections import deque
from functools import partial
from itertools import combinations

from topokit.complex import connected_sum
from topokit.errors import ContractViolationError, ValidationError
from topokit.pi1 import (
    Certificate,
    Generator,
    GroupPresentation,
    PosetEdge,
    _canon,
    _rank3_sides,
    _reverse,
    _stationary,
    check_edge_path,
    free_reduce,
    invert_word,
)
from topokit.poset import SimplicialPoset
from topokit.shapes import cross_polytope


def oracle_link_layer(space, k):
    """``(size, cells, edges)`` of the links of the cells of size (rank) k.  For a complex,
    the vertex at position p of the i-th face of size k + 1 is the link vertex ``i * (k +
    1) + p`` of that face less it, and a face t of size k + 2 joins t[i] and t[j], i < j.
    For a poset, each pair of (k + 1)-elements below a (k + 2)-element joins in the link
    of the one element both cover."""
    if isinstance(space, SimplicialPoset):
        down, ups = space._down, space.elements_of_rank(k + 1)
        at = {xy: n for n, xy in enumerate((x, y) for y in ups for x in down[y] or (None,))}
        edges = (
            (at[x, a], at[x, b])
            for z in space.elements_of_rank(k + 2)
            for a, b in combinations(down[z], 2)
            for x in (min(set(down[a]) & set(down[b]), default=None),)
        )
        return len(at), len({x for x, _ in at}), edges
    index = {up: i * (k + 1) for i, up in enumerate(space.faces(k))}
    edges = (
        (less[j] + i, less[i] + j - 1)
        for t in space.faces(k + 1)
        for less in ([index[s] for s in combinations(t, k + 1)][::-1],)  # t less t[j]
        for i, j in combinations(range(k + 2), 2)
    )
    cells = len(space.faces(k - 1)) - sum(len(f) == k for f in space.facets)
    return len(index) * (k + 1), cells, edges


def oracle_links_connected(layers) -> bool:
    """Whether each layer's cells have connected links: every edge is read, then the
    trees of one flat union-find forest are counted against the cells."""
    for size, cells, edges in layers:
        parent = list(range(size))
        for a, b in edges:
            while (up := parent[a]) != a:  # path halving
                parent[a] = a = parent[up]
            while (up := parent[b]) != b:
                parent[b] = b = parent[up]
            parent[a] = b
        if sum(v == up for v, up in enumerate(parent)) != cells:
            return False
    return True


def oracle_apply_certificate(space, source, certificate):
    """Replay ``certificate`` on ``source`` one rebuilt tuple per move."""
    triangle_move = _triangle_move_poset if isinstance(space, SimplicialPoset) else _triangle_move_complex
    path = check_edge_path(space, source)
    for move in certificate.moves:
        path = _apply_move(space, path, move, triangle_move)
    return path


def _apply_move(space, path, move, triangle_move):
    """Replay one move; ``triangle_move`` is the setting's expand/contract."""
    kind = move[0]
    if kind in ("expand", "contract"):
        return triangle_move(space, path, move)
    if kind == "cancel":
        _, pos = move
        if not 0 <= pos < len(path) - 1:
            raise ValidationError("cancel position out of range")
        if path[pos + 1] != _reverse(path[pos]):
            raise ValidationError("cancel needs an edge followed by its reverse")
        if len(path) == 2:
            return (_stationary(path[pos]),)
        return path[:pos] + path[pos + 2 :]
    if kind == "insert":
        _, pos, edge = move
        (edge,) = check_edge_path(space, [edge])
        if not 0 <= pos <= len(path):
            raise ValidationError("insert position out of range")
        junction = path[pos][-2] if pos < len(path) else path[-1][-1]
        if junction != edge[-2]:
            raise ValidationError("inserted pair does not chain with the path")
        return path[:pos] + (edge, _reverse(edge)) + path[pos:]
    raise ValidationError(f"unknown move kind {kind!r}")


def _triangle_move_complex(complex, path, move):
    """Expand ``a -> c`` into ``a -> b -> c`` or contract it back, for the ordered
    witness ``(a, b, c)``; ``(u, mid, u)`` contracts ``u -> mid -> u`` to ``(u, u)``."""
    kind, pos, witness = move
    if len(witness) != 3:
        raise ValidationError(f"witness {list(witness)} does not name three vertices")
    a, b, c = witness
    witness = tuple(sorted({a, b, c}))
    if witness not in complex.face_set() and not complex.has_face(witness):
        raise ValidationError(f"witness {list(witness)} is not a face")
    if kind == "expand":
        if not 0 <= pos < len(path) or path[pos] != (a, c):
            raise ValidationError(f"expand at {pos} does not match the path")
        return path[:pos] + ((a, b), (b, c)) + path[pos + 1 :]
    if not 0 <= pos < len(path) - 1 or path[pos] != (a, b) or path[pos + 1] != (b, c):
        raise ValidationError(f"contract at {pos} does not match the path")
    return path[:pos] + ((a, c),) + path[pos + 2 :]


def _triangle_move_poset(poset, path, move):
    """Expand one edge into two, or contract two into one, across a rank-3 witness."""
    kind, pos, sigma = move
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
        return path[:pos] + (PosetEdge(first, x, y), PosetEdge(second, y, z)) + path[pos + 1 :]
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
    return path[:pos] + (PosetEdge(sides[frozenset((x, z))], x, z),) + path[pos + 2 :]


def oracle_octahedron_sum(copies):
    """The sum of ``copies`` octahedra: the running sum's largest facet is glued onto a
    fresh octahedron's smallest, vertices matched in ascending order, one copy at a time."""
    total = cross_polytope(3)
    for _ in range(copies - 1):
        extra = cross_polytope(3)
        f1, f2 = max(total.facets), min(extra.facets)
        total = connected_sum(total, extra, f1, f2, dict(zip(f1, f2)))
    return total


def oracle_selected_h(flag, colors):
    """``h_|S|`` of the selection to the colors ``S`` from the color-set counts ``flag``."""
    return sum(
        (-1) ** (len(colors) - k) * flag.get(frozenset(sub), 0)
        for k in range(len(colors) + 1)
        for sub in combinations(colors, k)
    )


def oracle_completions(complex) -> dict:
    """Vertex ``(v,)`` or edge ``(a, b)``, a < b -> {color: ascending tuple of the
    vertices w for which base + w is a face}, the base's own vertices included."""
    kappa = complex.coloring
    near = {(v,): {kappa[v]: [v]} for v in complex.vertices}
    for a, b in complex.edges():
        near[a,].setdefault(kappa[b], []).append(b)
        near[b,].setdefault(kappa[a], []).append(a)
        near[a, b] = {kappa[a]: [a], kappa[b]: [b]}
    for a, b, c in complex.faces(2) if complex.dim >= 2 else ():
        near[a, b].setdefault(kappa[c], []).append(c)
        near[a, c].setdefault(kappa[b], []).append(b)
        near[b, c].setdefault(kappa[a], []).append(a)
    return {base: {c: tuple(ws) for c, ws in by_color.items()} for base, by_color in near.items()}


def _not_a_face(witness):
    return ContractViolationError(f"witness {list(witness)} is not a face; hypotheses broken")


def oracle_bridge(complex, colors, mid, tail, near):
    """The least selected vertex completing {mid, tail} to a face, avoiding tail's color."""
    by_color = near.get((mid,) if mid == tail else _canon(mid, tail), {})
    color = complex.coloring[tail]
    firsts = [by_color[c][0] for c in colors if c != color and c in by_color]
    if not firsts:
        raise ContractViolationError(f"no selected vertex completes ({mid},{tail}) to a face; hypotheses broken")
    bridge = min(firsts)
    if tuple(sorted({mid, bridge, tail})) not in complex.face_set():
        raise _not_a_face((mid, bridge, tail))
    return bridge


def oracle_detour(complex, colors, center, start, goal, near, searches):
    """Parent pointers of the ascending BFS from ``start`` over the selected link of
    ``center``, expanded until ``goal`` is found; resumed from ``searches[center, start]``
    on a copy, stored whole once each new edge's triangle with center has checked."""
    kappa, key = complex.coloring, (center, start)
    parent, order, expanded = searches.get(key) or ({start: None}, [start], 0)
    parent, order = dict(parent), list(order)
    while goal not in parent:
        if expanded == len(order):
            raise ContractViolationError(f"link of {center} has no selected path {start} -> {goal}; hypotheses broken")
        u = order[expanded]
        expanded += 1
        (other,) = colors - {kappa[u]}
        for w in near[_canon(center, u)].get(other, ()):
            if w not in parent:
                if tuple(sorted((u, w, center))) not in complex.face_set():
                    searches.pop(key, None)
                    raise _not_a_face((u, w, center))
                parent[w] = u
                order.append(w)
    searches[key] = (parent, order, expanded)
    return parent


def oracle_bypass(complex, colors, u, mid, tail, near, searches):
    """The selected vertices ``u, ..., bridge`` replacing the off-color ``mid`` between
    ``u`` and ``tail``: ``[u]`` if the bridge is u, else the path from mid's detour."""
    bridge = oracle_bridge(complex, colors, mid, tail, near)
    if bridge == u:
        return [u]
    parent = oracle_detour(complex, colors, mid, u, bridge, near, searches)
    hops = [bridge]
    while parent[hops[-1]] is not None:
        hops.append(parent[hops[-1]])
    return hops[::-1]


def oracle_rewrite(complex, colors, path):
    """``rewrite_path_to_colors`` on the tuple-keyed walk, with fresh memos."""
    colors, kappa = frozenset(colors), complex.coloring
    path = check_edge_path(complex, path)
    near, searches = oracle_completions(complex), {}
    moves, out = [], []
    u = path[0][0]
    for i, (_, mid) in enumerate(path):
        if kappa[mid] in colors:
            out.append((u, mid))
            u = mid
            continue
        hops = oracle_bypass(complex, colors, u, mid, path[i + 1][1], near, searches)
        bridge, idx = hops[-1], len(out)
        moves.append(("expand", idx + 1, (mid, bridge, path[i + 1][1])))
        if len(hops) == 1:
            moves.append(("contract", idx, (u, mid, u)))
        else:
            for j in range(len(hops) - 2):
                moves.append(("expand", idx + j, (hops[j], hops[j + 1], mid)))
            moves.append(("contract", idx + len(hops) - 2, (hops[-2], mid, bridge)))
        out.extend(zip(hops, hops[1:]) if len(hops) > 1 else [(u, u)])
        u = bridge
    return tuple(out), Certificate("complex", tuple(moves))


def _letters(signed, steps):
    """The kept letters of a walk ``steps`` between selected vertices; tree edges add none."""
    word = []
    for e in steps:
        if e not in signed:
            raise ValidationError(f"no generator for edge {_canon(*e)}")
        if signed[e]:
            word.append(signed[e])
    return tuple(word)


def _bypass_word(complex, colors, u, mid, tail, near, searches, signed):
    """The letters of ``oracle_bypass`` and its bridge, walked afresh on every call."""
    hops = oracle_bypass(complex, colors, u, mid, tail, near, searches)
    return _letters(signed, zip(hops, hops[1:])), hops[-1]


def oracle_restrict(complex, tree, edges, relators):
    """Restrict generators ``edges`` (letters 1, 2, ...) and ``relators`` to the pair
    ``tree.colors``: a tree edge maps to (), a kept edge to its new letter, and an
    off-color edge to a's descent, the bypasses of a and b, and b's climb."""
    colors, parent, kappa = tree.colors, tree.parent, complex.coloring
    near, searches = oracle_completions(complex), {}
    walk = partial(_bypass_word, complex, colors)
    signed = {}
    for u, v in tree.edges:
        signed[u, v] = signed[v, u] = 0
    generators = []
    for u, v in edges:
        if (u, v) not in tree.edges and kappa[u] in colors and kappa[v] in colors:
            generators.append(Generator(edge=(u, v), tree=False, selected=True))
            signed[u, v], signed[v, u] = len(generators), -len(generators)
    down, up = {}, {}
    for w in tree._order:
        if kappa[w] in colors:
            continue
        p = parent[w]
        x = oracle_bridge(complex, colors, w, p, near)
        if kappa[p] in colors:
            down[w] = ((), p)
            up[w] = _letters(signed, [(x, p)])
        else:
            word, u = down[p]
            letters, u = walk(u, p, w, near, searches, signed)
            down[w] = (word + letters, u)
            up[w] = walk(x, p, parent[p], near, searches, signed)[0] + up[p]
    images = [()] * (2 * len(edges) + 1)
    for i, (a, b) in enumerate(edges, 1):
        x = signed.get((a, b))
        if x:
            images[i], images[-i] = (x,), (-x,)
        elif x is None:
            if kappa[a] in colors:
                word, u = (), a
            else:
                word, u = down[a]
                letters, u = walk(u, a, b, near, searches, signed)
                word += letters
            if kappa[b] in colors:
                word += _letters(signed, [(u, b)])
            else:
                word += walk(u, b, parent[b], near, searches, signed)[0] + up[b]
            images[i], images[-i] = word, tuple(invert_word(word))
    mapped = []
    for rel in relators:
        word = ()
        for x in rel:
            word += images[x]
        if len(word) > 1:
            word = free_reduce(word)
        if word:
            mapped.append(tuple(word))
    return GroupPresentation(generators, mapped)


def oracle_nested_parent(complex, colors, root) -> dict:
    """The parent pointers of the BFS tree from ``root`` over the vertices colored in
    ``colors``, extended by a BFS over everything from every selected vertex in id order."""
    kappa, adj = complex.coloring, complex.adjacency()
    parent = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if kappa[w] in colors and w not in parent:
                parent[w] = u
                queue.append(w)
    queue = deque(sorted(parent))
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def oracle_proper_coloring(vertices, adjacency, palette):
    """A proper coloring by backtracking, or None: the unassigned vertex with the fewest
    colors left, ties by ascending id, found by a scan of every vertex for each pick; its
    colors tried in ascending order, on an explicit stack."""
    order, palette, assignment = sorted(vertices), sorted(palette), {}

    def next_vertex():
        best = None
        for v in order:
            if v in assignment:
                continue
            used = {assignment[u] for u in adjacency[v] if u in assignment}
            key = (len(palette) - len(used), v)
            if best is None or key < best[0]:
                best = (key, v, used)
        return best

    stack = []  # (vertex, iterator over the colors left to try for it)
    while (pick := next_vertex()) is not None:
        _, v, used = pick
        stack.append((v, iter([c for c in palette if c not in used])))
        while stack:
            v, options = stack[-1]
            assignment.pop(v, None)
            c = next(options, None)
            if c is not None:
                assignment[v] = c
                break
            stack.pop()
        else:
            return None
    return dict(assignment)
