"""Slow exact replays kept as differential oracles for the production code.

``oracle_apply_certificate`` replays a certificate by rebuilding the whole path
tuple for every move, the way the library did before its replay edited one
list in place.  It reads paths and inserted edges with the library's
``check_edge_path``, so the two replays differ only in how they apply moves.
"""

from topokit.errors import ValidationError
from topokit.pi1 import (
    PosetEdge,
    _rank3_sides,
    _reverse,
    _stationary,
    check_edge_path,
)
from topokit.poset import SimplicialPoset


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
