"""Command-line front end: ``topo check|hvec|pi1|verify|gen|rewrite``.

All reports are JSON on stdout (or ``-o FILE``).  Exit codes are a stable
contract: 0 success, 1 a verified property or bound check failed, 2 the
input could not be parsed or the parameters are invalid.  ``pi1`` and
``verify`` refuse alike: one check (structure 1, coloring 2, palette 1, pair 2)
runs before the one run of the stages, :func:`_run`, which both reports format.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import combinations
from math import comb

from . import _read, shapes
from .complex import SimplicialComplex, h_additivity_table
from .errors import ContractViolationError, PropertyError, TopoError, ValidationError
from .homology import h1
from .pi1 import (
    DEFAULT_TIETZE_ROUNDS,
    GroupPresentation,
    _require_pi1_ready,
    generator_bounds,
    poset_edge_path_group,
    rewrite_path_to_colors,
    tietze_simplify,
    verify_certificate,
)
from .poset import SimplicialPoset


def load_input(path: str):
    """Parse a JSON file into a complex or a poset, keyed on its "type"."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"expected a file path, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8 JSON, too deep
        raise ValidationError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError("input JSON must be an object")
    kind = data.get("type")
    if kind == "complex":
        return SimplicialComplex.from_json(data)
    if kind == "poset":
        return SimplicialPoset.from_json(data)
    raise ValidationError(f'unknown input type {kind!r}; expected "complex" or "poset"')


def _emit(report, out_path=None):
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


# -- check ----------------------------------------------------------------------


def check_report(obj) -> dict:
    report = obj.check_properties()
    out = report.as_dict()
    out["strongly_connected"] = report.pure and obj.is_strongly_connected()
    out["all_hold"] = report.all_hold and out["strongly_connected"]
    return out


# -- hvec -----------------------------------------------------------------------


def hvec_report(obj) -> dict:
    f = obj.f_vector()  # counted once: h_vector() would count it again
    return {"d": obj.d, "f_vector": list(f), "h_vector": list(obj._h_of(f))}


# -- pi1 and verify ---------------------------------------------------------------


def _run(obj, tietze_rounds=None, colors=None) -> tuple:
    """The one run of the stages under both reports, after every refusal (the rounds,
    ``colors`` on a poset, :func:`_require_pi1_ready`): each pair's presentations (the
    poset's group), then H1.  Returns the rows by pair (a poset's: selected h2 only), the
    upper bound, the chosen pair (``colors``, else the first; None for a poset), its
    presentation (trivial below two colors) and the H1 summary."""
    rounds = DEFAULT_TIETZE_ROUNDS if tietze_rounds is None else _read.rounds(tietze_rounds)
    if isinstance(obj, SimplicialPoset):
        if colors is not None:
            raise ValidationError("--colors applies to complexes only")
        _require_pi1_ready(obj, poset=True)
        chosen = tietze_simplify(poset_edge_path_group(obj), rounds)
        h = obj._selection_h()
        rows = {p: {"h2_selected": h[p], "post_tietze": None} for p in combinations(obj.colors, 2)}
        return rows, len(chosen.generators), None, chosen, h1(obj)
    pair = tuple(sorted(_require_pi1_ready(obj, colors) or obj.colors[:2]))
    bounds = generator_bounds(obj, rounds)
    rows = {
        key: {k: val[k] for k in ("h2_selected", "generators", "post_tietze")}
        | {"tietze_rounds": val["presentation"].rounds, "tietze_converged": val["presentation"].converged}
        for key, val in bounds["per_pair"].items()
    }
    chosen = bounds["per_pair"][pair]["presentation"] if len(pair) == 2 else GroupPresentation((), ())
    return rows, bounds["best"], pair, chosen, h1(obj)


def pi1_report(obj, colors=None, tietze_rounds=None) -> dict:
    rows, upper, pair, presentation, summary = _run(obj, tietze_rounds, colors)
    per_pair = {"-".join(map(str, key)): row for key, row in rows.items()}
    head = {"kind": "poset"} if pair is None else {"kind": "complex", "colors": list(pair)}
    body = {"generators": upper} if pair is None else {"per_pair": per_pair}
    return {
        **head,
        "presentation": presentation.render(),
        **body,
        "min_generators_lower_bound": summary.min_generators,
        "min_generators_upper_bound": upper,
    }


# perfbench/tracer.py traces the shared additivity table under this name
poset_h_additivity = h_additivity_table


def verification_report(obj, input_id="", ns=False, tietze_rounds=None) -> dict:
    """The machine-readable bound report for one complex or poset."""
    input_id, ns = _read.label(input_id), _read.flag(ns, "ns")
    start = time.perf_counter()
    rows, upper, pair, _, summary = _run(obj, tietze_rounds)
    additivity = h_additivity_table(obj)
    d, h = obj.d, [row["h"] for row in additivity["by_index"]]  # the f-vector counted once
    lower = summary.min_generators
    h2 = h[2] if len(h) > 2 else 0
    pairs = comb(d, 2)
    checks = {
        "h_additivity_holds": additivity["holds"],
        "bound_holds": pairs * lower <= h2,
        "upper_bound_within_h2": pairs * upper <= h2,
    }
    if ns:
        checks["ns_holds"] = h2 - h[1] >= comb(d + 1, 2) * summary.betti1
    report = {
        "input": input_id,
        "kind": "poset" if pair is None else "complex",
        "d": d,
        "h_vector": list(h),
        "per_colors": [
            {"colors": list(key), **{k: v for k, v in row.items() if k != "generators"}}
            for key, row in rows.items()
        ],
        "min_generators_lower_bound": lower,
        "min_generators_upper_bound": upper,
        "h_additivity": additivity["by_index"],
        "checks": checks,
        "timing_seconds": round(time.perf_counter() - start, 6),
    }
    report["ok"] = checks["h_additivity_holds"] and checks["bound_holds"] and checks.get("ns_holds", True)
    return report


# -- gen --------------------------------------------------------------------------


def _even_cycle(n: int):
    if n % 2:
        raise ValidationError("cycle length must be even to admit the alternating coloring")
    return shapes.cycle_complex(n)


# each shape of ``topo gen``: the parameter it needs (None for none) and its builder
_SHAPES = {
    "cross-polytope": ("dim", shapes.cross_polytope),
    "cycle": ("n", _even_cycle),
    "sd-torus": (None, shapes.sd_torus),
    "sd-rp2": (None, shapes.sd_projective_plane),
    "double-circle": (None, shapes.double_edge_circle),
    "connected-sum": ("copies", shapes.octahedron_sum),
}


def generate_shape(shape: str, dim=None, n=None, copies=None):
    if not isinstance(shape, str) or shape not in _SHAPES:
        raise ValidationError(f"unknown shape {shape!r}")
    param, build = _SHAPES[shape]
    value = {"dim": dim, "n": n, "copies": copies}.get(param)
    if param and value is None:
        raise ValidationError(f"{shape} needs --{param}")
    return build(_read.integer(value)) if param else build()


# -- rewrite ----------------------------------------------------------------------


def rewrite_report(complex, vertex_list, colors) -> dict:
    vertex_list = _read.ids(vertex_list)
    if len(vertex_list) < 2:
        raise ValidationError("--path needs at least two vertices")
    path = list(zip(vertex_list, vertex_list[1:]))
    rewritten, certificate = rewrite_path_to_colors(complex, colors, path)
    verified = verify_certificate(complex, path, rewritten, certificate)
    return {
        "input_path": [list(e) for e in path],
        "rewritten_path": [list(e) for e in rewritten],
        "certificate": certificate.to_json(),
        "verified": verified,
        "endpoints_preserved": path[0][0] == rewritten[0][0]
        and path[-1][1] == rewritten[-1][1],
    }


# -- argument plumbing --------------------------------------------------------------


def _rounds_text(text):
    """``--tietze-rounds`` read as one integer, or None for the default."""
    return None if text is None else _read.text_ints(text, "tietze rounds", 1)[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topo",
        description="Exact checks, invariants, and fundamental-group bounds "
        "for simplicial complexes and posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "check": "run the property checks",
        "hvec": "print f- and h-vectors",
        "pi1": "presentation and generator bounds",
        "verify": "verify the h-vector bound inequalities",
        "gen": "emit a canonical instance as JSON",
        "rewrite": "rewrite an edge path into two colors",
    }
    cmd = {name: sub.add_parser(name, help=text) for name, text in helps.items()}
    for name in ("check", "hvec", "pi1", "verify", "rewrite"):
        cmd[name].add_argument("file")
    cmd["pi1"].add_argument("--colors", metavar="A,B")
    cmd["pi1"].add_argument("--tietze-rounds", dest="tietze_rounds")
    cmd["verify"].add_argument("--ns", action="store_true")
    cmd["verify"].add_argument("--tietze-rounds", dest="tietze_rounds")
    cmd["gen"].add_argument("--shape", required=True, choices=list(_SHAPES))
    for flag in ("--dim", "--n", "--copies"):
        cmd["gen"].add_argument(flag, type=int)
    cmd["rewrite"].add_argument("--path", required=True, metavar="V0,V1,...")
    cmd["rewrite"].add_argument("--colors", required=True, metavar="A,B")
    for p in cmd.values():
        p.add_argument("-o", metavar="FILE", dest="out")
    return parser


_parser = functools.cache(build_parser)  # one parser per process; build_parser() stays fresh


# the report field that reads false when a command's verified check fails (exit 1)
_VERDICTS = {"check": "all_hold", "verify": "ok", "rewrite": "verified"}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "gen":
            report = generate_shape(args.shape, args.dim, args.n, args.copies).to_json()
        elif args.command == "pi1":
            colors = None if args.colors is None else _read.text_ints(args.colors, "--colors", 2)
            report = pi1_report(load_input(args.file), colors, _rounds_text(args.tietze_rounds))
        elif args.command in ("check", "hvec"):
            report = (check_report if args.command == "check" else hvec_report)(load_input(args.file))
        elif args.command == "verify":
            obj = load_input(args.file)
            report = verification_report(obj, args.file, args.ns, _rounds_text(args.tietze_rounds))
        else:
            obj = load_input(args.file)
            if isinstance(obj, SimplicialPoset):
                raise ValidationError("rewrite applies to complexes only")
            verts = _read.text_ints(args.path, "--path")
            report = rewrite_report(obj, verts, _read.text_ints(args.colors, "--colors", 2))
        _emit(report, args.out)
        return 1 if args.command in _VERDICTS and not report[_VERDICTS[args.command]] else 0
    except (PropertyError, ContractViolationError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, TopoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
