"""The one input boundary: every public entry reads its arguments and JSON here.

The rule is to refuse, not convert.  An integer is an ``int`` that is not a
bool; a float, string, None or any other value in its place raises
:class:`ValidationError` naming it, and nothing is rounded or coerced.
Command-line text is the one input parsed into numbers (:func:`text_ints`).
Hot loops keep an inline ``type(x) is int`` guard and call a reader only to
raise.  Objects (a space, a tree, a presentation) are not read here.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import ValidationError


def integer(value, name=None) -> int:
    """An integer id, position, color or count (``name`` names it in the refusal)."""
    if not isinstance(value, int) or isinstance(value, bool):
        want = "expected an integer" if name is None else f"{name} must be an integer"
        raise ValidationError(f"{want}, got {value!r}")
    return value


def items(value, size=None) -> tuple:
    """An array (a list, tuple or other iterable but a string) as a tuple, of ``size``
    entries when given."""
    try:
        out = None if isinstance(value, (str, bytes)) else tuple(value)
    except TypeError:
        out = None
    if out is None or size is not None and len(out) != size:
        want = "an array" if size is None else f"an array of {size} entries"
        raise ValidationError(f"expected {want}, got {value!r}")
    return out


def ids(value, size=None) -> tuple[int, ...]:
    """An array of integers, of ``size`` entries when given, as a tuple."""
    out = items(value, size)
    for x in out:
        if type(x) is not int:
            integer(x)
    return out


def colors(value) -> frozenset[int]:
    """A color set: an array of integer colors."""
    return frozenset(ids(value))


def rounds(value) -> int:
    """A Tietze round count: a nonnegative integer."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValidationError(f"tietze rounds must be a nonnegative integer, got {value!r}")
    return value


def label(value) -> str:
    """A label: a string."""
    if not isinstance(value, str):
        raise ValidationError(f"expected a string label, got {value!r}")
    return value


def flag(value, name) -> bool:
    """A yes-or-no option: a bool, not any truthy value."""
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be True or False, got {value!r}")
    return value


def id_map(value, read) -> dict:
    """A mapping keyed by integer ids, each value read by ``read``."""
    if not isinstance(value, Mapping):
        raise ValidationError(f"expected a mapping keyed by integer ids, got {value!r}")
    return {k if type(k) is int else integer(k): read(v) for k, v in value.items()}


def json_id_map(data: dict, key: str) -> dict | None:
    """The JSON object ``data[key]`` keyed by integer ids, each written as ``str`` writes
    it, or None when it is absent or empty; the caller reads its values."""
    raw = data.get(key)
    if not isinstance(raw, (dict, type(None))):
        raise ValidationError(f'"{key}" must be an object keyed by ids')
    out = {}
    for k, value in (raw or {}).items():
        try:
            v = int(k)
        except (TypeError, ValueError):
            v = None
        if v is None or str(v) != k:
            raise ValidationError(f'"{key}" id {k!r} is not an integer written canonically')
        out[v] = value
    return out or None


def matrix(value) -> list[list[int]]:
    """An integer matrix: an array of equally long arrays of integers, copied."""
    rows = [list(ids(row)) for row in items(value)]
    if len({len(row) for row in rows}) > 1:
        raise ValidationError("matrix rows differ in length")
    return rows


def move(setting: str, value) -> tuple:
    """A certificate move of ``setting``: ``(kind, pos)`` for a cancel, else ``(kind,
    pos, x)``, x a witness (a complex's vertex ids, a poset's rank-3 element) or an
    inserted edge (two vertex ids, or a poset's ``(elem or None, init, term)``)."""
    if not isinstance(value, (tuple, list)) or not value:
        raise ValidationError(f"a move is a (kind, pos, ...) tuple, got {value!r}")
    kind = value[0]
    if kind not in ("expand", "contract", "cancel", "insert"):
        raise ValidationError(f"unknown move kind {kind!r}")
    size = 2 if kind == "cancel" else 3
    if len(value) != size:
        raise ValidationError(f"a {kind!r} move has {size} entries, got {value!r}")
    pos = integer(value[1], "move position")
    if kind == "cancel":
        return kind, pos
    x = value[2]
    if kind != "insert":
        return kind, pos, ids(x) if setting == "complex" else integer(x)
    if setting == "complex":
        return kind, pos, ids(x, 2)
    elem, *ends = items(x, 3)
    return kind, pos, (elem if elem is None else integer(elem), *ids(ends))


def text_ints(text: str, what: str, count=None) -> list[int]:
    """The comma-separated integers of the command-line value ``what``, ``count`` of
    them when given."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = None
    if values is None or count is not None and len(values) != count:
        raise ValidationError(f"bad {what} value {text!r}")
    return values
