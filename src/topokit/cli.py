"""Command-line front end: ``topo check|hvec|pi1|verify|gen|rewrite``.

All reports are JSON on stdout (or ``-o FILE``).  Exit codes are a stable
contract: 0 success, 1 a verified property or bound check failed, 2 the
input could not be parsed or the parameters are invalid.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import combinations
from math import comb

from .complex import SimplicialComplex, h_additivity_table, selected_h
from .errors import (
    ContractViolationError,
    PropertyError,
    TopoError,
    ValidationError,
)
from .homology import h1
from .pi1 import (
    DEFAULT_TIETZE_ROUNDS,
    generator_bounds,
    poset_edge_path_group,
    require_full_palette,
    rewrite_path_to_colors,
    tietze_simplify,
    verify_certificate,
)
from .poset import SimplicialPoset
from . import shapes


def _tietze_rounds(value=None) -> int:
    """``--tietze-rounds``, else the default; a non-integer or negative value is
    invalid input."""
    if value is None:
        return DEFAULT_TIETZE_ROUNDS
    try:
        rounds = int(value)
    except ValueError:
        rounds = None
    if rounds is None or rounds < 0:
        raise ValidationError(f"tietze rounds must be a nonnegative integer, got {value!r}")
    return rounds


def load_input(path: str):
    """Parse a JSON file into a complex or a poset, keyed on its "type"."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deeply
        raise ValidationError(f"cannot decode {path}: {exc}") from None
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
    return {"d": obj.d, "f_vector": list(obj.f_vector()), "h_vector": list(obj.h_vector())}


# -- pi1 ------------------------------------------------------------------------


def _convergence(simplified) -> dict:
    """Rounds a Tietze run used and whether it reached a fixpoint."""
    return {"tietze_rounds": simplified.rounds, "tietze_converged": simplified.converged}


def pi1_report(obj, colors=None, tietze_rounds=None) -> dict:
    rounds = _tietze_rounds(tietze_rounds)
    if isinstance(obj, SimplicialPoset) and colors is not None:
        raise ValidationError("--colors applies to complexes only")
    require_full_palette(obj)
    if isinstance(obj, SimplicialPoset):
        simplified = tietze_simplify(poset_edge_path_group(obj), rounds)
        return {
            "kind": "poset",
            "presentation": simplified.render(),
            "generators": len(simplified.generators),
            "min_generators_lower_bound": h1(obj).min_generators,
            "min_generators_upper_bound": len(simplified.generators),
        }
    bounds = generator_bounds(obj, rounds)
    pair = tuple(sorted(colors) if colors is not None else obj.colors[:2])
    if pair not in bounds["per_pair"]:
        raise ValidationError(f"no color pair {pair} in the palette")
    entry = bounds["per_pair"][pair]
    lower = h1(obj).min_generators
    return {
        "kind": "complex",
        "colors": list(pair),
        "presentation": entry["presentation"].render(),
        "per_pair": {
            "-".join(map(str, key)): {
                "h2_selected": val["h2_selected"],
                "generators": val["generators"],
                "post_tietze": val["post_tietze"],
                **_convergence(val["presentation"]),
            }
            for key, val in bounds["per_pair"].items()
        },
        "min_generators_lower_bound": lower,
        "min_generators_upper_bound": bounds["best"],
    }


# -- verify -----------------------------------------------------------------------


# perfbench/tracer.py traces the shared additivity table under this name
poset_h_additivity = h_additivity_table


def verification_report(obj, input_id="", ns=False, tietze_rounds=None) -> dict:
    """The machine-readable bound report for one complex or poset."""
    rounds = _tietze_rounds(tietze_rounds)
    start = time.perf_counter()
    props = obj.check_properties()
    if not props.all_hold:
        raise PropertyError(f"input fails the property checks: {props.as_dict()}")
    d = obj.d
    h = obj.h_vector()
    additivity = h_additivity_table(obj)
    summary = h1(obj)
    if isinstance(obj, SimplicialPoset):
        kind = "poset"
        upper = len(tietze_simplify(poset_edge_path_group(obj), rounds).generators)
        # with all d colors on every facet, each pair selects a poset of rank 2
        per_table = [
            {"colors": list(p), "h2_selected": selected_h(obj.flag_f_vector(), p), "post_tietze": None}
            for p in combinations(obj.colors, 2)
        ]
    else:
        kind = "complex"
        bounds = generator_bounds(obj, rounds)
        upper = bounds["best"]
        per_table = [
            {
                "colors": list(pair),
                "h2_selected": entry["h2_selected"],
                "post_tietze": entry["post_tietze"],
                **_convergence(entry["presentation"]),
            }
            for pair, entry in bounds["per_pair"].items()
        ]

    lower = summary.min_generators
    h2 = h[2] if len(h) > 2 else 0
    pairs = comb(d, 2)
    bound_holds = pairs * lower <= h2
    upper_bound_info = pairs * upper <= h2
    checks = {
        "h_additivity_holds": additivity["holds"],
        "bound_holds": bound_holds,
        "upper_bound_within_h2": upper_bound_info,
    }
    if ns:
        checks["ns_holds"] = h2 - h[1] >= comb(d + 1, 2) * summary.betti1
    report = {
        "input": input_id,
        "kind": kind,
        "d": d,
        "h_vector": list(h),
        "per_colors": per_table,
        "min_generators_lower_bound": lower,
        "min_generators_upper_bound": upper,
        "h_additivity": additivity["by_index"],
        "checks": checks,
        "timing_seconds": round(time.perf_counter() - start, 6),
    }
    mandatory = checks["h_additivity_holds"] and checks["bound_holds"]
    if ns:
        mandatory = mandatory and checks["ns_holds"]
    report["ok"] = mandatory
    return report


# -- gen --------------------------------------------------------------------------


def generate_shape(shape: str, dim=None, n=None, copies=None):
    if shape == "cross-polytope":
        if dim is None:
            raise ValidationError("cross-polytope needs --dim")
        return shapes.cross_polytope(int(dim))
    if shape == "cycle":
        if n is None:
            raise ValidationError("cycle needs --n")
        n = int(n)
        if n % 2:
            raise ValidationError("cycle length must be even to admit the alternating coloring")
        return shapes.cycle_complex(n)
    if shape == "sd-torus":
        return shapes.sd_torus()
    if shape == "sd-rp2":
        return shapes.sd_projective_plane()
    if shape == "double-circle":
        return shapes.double_edge_circle()
    if shape == "connected-sum":
        if copies is None:
            raise ValidationError("connected-sum needs --copies")
        return shapes.octahedron_sum(int(copies))
    raise ValidationError(f"unknown shape {shape!r}")


# -- rewrite ----------------------------------------------------------------------


def rewrite_report(complex, vertex_list, colors) -> dict:
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


def _parse_colors(text):
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad --colors value {text!r}") from exc
    if len(parts) != 2:
        raise ValidationError("--colors needs exactly two comma-separated colors")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topo",
        description="Exact checks, invariants, and fundamental-group bounds "
        "for simplicial complexes and posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the property checks")
    p_check.add_argument("file")
    p_check.add_argument("-o", metavar="FILE", dest="out")

    p_hvec = sub.add_parser("hvec", help="print f- and h-vectors")
    p_hvec.add_argument("file")
    p_hvec.add_argument("-o", metavar="FILE", dest="out")

    p_pi1 = sub.add_parser("pi1", help="presentation and generator bounds")
    p_pi1.add_argument("file")
    p_pi1.add_argument("--colors", metavar="A,B")
    p_pi1.add_argument("--tietze-rounds", dest="tietze_rounds")
    p_pi1.add_argument("-o", metavar="FILE", dest="out")

    p_verify = sub.add_parser("verify", help="verify the h-vector bound inequalities")
    p_verify.add_argument("file")
    p_verify.add_argument("--ns", action="store_true")
    p_verify.add_argument("--tietze-rounds", dest="tietze_rounds")
    p_verify.add_argument("-o", metavar="FILE", dest="out")

    p_gen = sub.add_parser("gen", help="emit a canonical instance as JSON")
    p_gen.add_argument(
        "--shape",
        required=True,
        choices=[
            "cross-polytope",
            "cycle",
            "sd-torus",
            "sd-rp2",
            "double-circle",
            "connected-sum",
        ],
    )
    p_gen.add_argument("--dim", type=int)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--copies", type=int)
    p_gen.add_argument("-o", metavar="FILE", dest="out")

    p_rw = sub.add_parser("rewrite", help="rewrite an edge path into two colors")
    p_rw.add_argument("file")
    p_rw.add_argument("--path", required=True, metavar="V0,V1,...")
    p_rw.add_argument("--colors", required=True, metavar="A,B")
    p_rw.add_argument("-o", metavar="FILE", dest="out")
    return parser


_parser = functools.cache(build_parser)  # one parser per process; build_parser() stays fresh


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "check":
            report = check_report(load_input(args.file))
            _emit(report, args.out)
            return 0 if report["all_hold"] else 1
        if args.command == "hvec":
            _emit(hvec_report(load_input(args.file)), args.out)
            return 0
        if args.command == "pi1":
            colors = _parse_colors(args.colors) if args.colors else None
            report = pi1_report(load_input(args.file), colors, args.tietze_rounds)
            _emit(report, args.out)
            return 0
        if args.command == "verify":
            obj = load_input(args.file)
            report = verification_report(
                obj, input_id=args.file, ns=args.ns, tietze_rounds=args.tietze_rounds
            )
            _emit(report, args.out)
            return 0 if report["ok"] else 1
        if args.command == "gen":
            obj = generate_shape(args.shape, args.dim, args.n, args.copies)
            _emit(obj.to_json(), args.out)
            return 0
        if args.command == "rewrite":
            obj = load_input(args.file)
            if isinstance(obj, SimplicialPoset):
                raise ValidationError("rewrite applies to complexes only")
            try:
                verts = [int(x) for x in args.path.split(",")]
            except ValueError as exc:
                raise ValidationError(f"bad --path value {args.path!r}") from exc
            report = rewrite_report(obj, verts, _parse_colors(args.colors))
            _emit(report, args.out)
            return 0 if report["verified"] else 1
    except (PropertyError, ContractViolationError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, OSError, TopoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
