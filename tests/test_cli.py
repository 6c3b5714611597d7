import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_complexes

from topokit import SimplicialComplex, SimplicialPoset, face_poset, shapes
from topokit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, capsys, shape, *extra):
    path = tmp_path / f"{shape}.json"
    code, _, err = run(capsys, "gen", "--shape", shape, *extra, "-o", str(path))
    assert code == 0, err
    return path


# -- gen -------------------------------------------------------------------------


def test_gen_cross_polytope(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")
    data = json.loads(path.read_text())
    assert data["type"] == "complex"
    assert len(data["facets"]) == 8


def test_gen_cycle_rejects_odd(capsys):
    code, _, err = run(capsys, "gen", "--shape", "cycle", "--n", "5")
    assert code == 2
    assert "even" in err


def test_gen_connected_sum_counts(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "connected-sum", "--copies", "3")
    data = json.loads(path.read_text())
    assert len(data["facets"]) == 20


def test_gen_missing_params(capsys):
    code, _, _ = run(capsys, "gen", "--shape", "cross-polytope")
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (("cross-polytope", "--dim", "13"), "between 1 and 12, got 13"),
        (("connected-sum", "--copies", "501"), "between 1 and 500 copies, got 501"),
    ],
)
def test_gen_refuses_shapes_past_their_cap(capsys, monkeypatch, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a shape past its cap was built")

    monkeypatch.setattr(shapes, "SimplicialComplex", refuse)
    code, out, err = run(capsys, "gen", "--shape", *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_gen_builds_the_largest_cross_polytope(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "12")
    assert len(json.loads(path.read_text())["facets"]) == 2 ** 12


# -- check -----------------------------------------------------------------------


def test_check_octahedron(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["all_hold"] and report["strongly_connected"]


def test_check_disjoint_triangles_fails(tmp_path, capsys):
    path = tmp_path / "disjoint.json"
    path.write_text(
        json.dumps({"type": "complex", "facets": [[0, 1, 2], [3, 4, 5]]})
    )
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert not json.loads(out)["links_connected"]


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "check", str(path))
    assert code == 2


# a file json.load cannot decode: not UTF-8, or nested past the recursion limit
UNREADABLE_FILES = {
    "not-utf8": b'{"type": "complex", "facets": [[0, 1]], "labels": {"0": "\xe9"}}',
    "nested-lists": b"[" * 100000 + b"]" * 100000,
    "nested-objects": b'{"a":' * 100000 + b"1" + b"}" * 100000,
}


@pytest.mark.parametrize(
    "argv",
    [("check",), ("hvec",), ("pi1",), ("verify",), ("rewrite", "--path", "0,1", "--colors", "1,2")],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
def test_undecodable_input_exits_2(tmp_path, capsys, argv, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE_FILES[name])
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_check_duplicate_facets(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"type": "complex", "facets": [[0, 1], [0, 1]]}))
    code, _, _ = run(capsys, "check", str(path))
    assert code == 2


def test_check_poset(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "double-circle")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["all_hold"]



MALFORMED_INPUTS = {
    "coloring-list": {"type": "complex", "facets": [[0, 1], [1, 2]], "coloring": [1, 2, 1]},
    "coloring-key-not-canonical": {"type": "complex", "facets": [[0, 1]], "coloring": {"0": 2, "00": 1, "1": 2}},
    "coloring-not-int": {"type": "complex", "facets": [[0, 1], [1, 2]], "coloring": {"0": 1, "1": "x", "2": 1}},
    "one-element-cover": {"type": "poset", "elements": [{"id": 0, "rank": 1}], "covers": [[0]]},
    "cyclic-covers": {
        "type": "poset",
        "elements": [{"id": 0, "rank": 1}, {"id": 1, "rank": 2}],
        "covers": [[0, 1], [1, 0]],
    },
    "facet-mixed-types": {"type": "complex", "facets": [[0, "a"]]},
    "facet-null-vertex": {"type": "complex", "facets": [[0, None]]},
    "labels-list": {"type": "complex", "facets": [[0, 1]], "labels": ["x", "y"]},
    "labels-array-value": {"type": "complex", "facets": [[0, 1]], "labels": {"0": [1, 2]}},
    "labels-number-value": {"type": "complex", "facets": [[0, 1]], "labels": {"0": "a", "1": 5}},
    "poset-label-array": {"type": "poset", "elements": [{"id": 0, "rank": 1, "label": [1, 2]}], "covers": []},
    "poset-label-null": {"type": "poset", "elements": [{"id": 0, "rank": 1, "label": None}], "covers": []},
    "coloring-zero": {"type": "complex", "facets": [[0, 1]], "coloring": 0},
    "coloring-float": {"type": "complex", "facets": [[0, 1]], "coloring": {"0": 1.5, "1": 2}},
    "coloring-bool": {"type": "complex", "facets": [[0, 1]], "coloring": {"0": True, "1": 2}},
    "poset-id-string": {"type": "poset", "elements": [{"id": "a", "rank": 1}], "covers": []},
    "poset-id-null": {"type": "poset", "elements": [{"id": None, "rank": 1}], "covers": []},
    "poset-id-float": {"type": "poset", "elements": [{"id": 1.5, "rank": 1}], "covers": []},
    "poset-id-bool": {"type": "poset", "elements": [{"id": True, "rank": 1}], "covers": []},
    "poset-rank-string": {"type": "poset", "elements": [{"id": 0, "rank": "x"}], "covers": []},
    "poset-cover-string": {
        "type": "poset",
        "elements": [{"id": 0, "rank": 1}, {"id": 1, "rank": 2}],
        "covers": [["a", 0]],
    },
    "poset-coloring-float": {
        "type": "poset",
        "elements": [{"id": 0, "rank": 1}],
        "covers": [],
        "coloring": {"0": 1.5},
    },
    "poset-coloring-bool": {
        "type": "poset",
        "elements": [{"id": 0, "rank": 1}],
        "covers": [],
        "coloring": {"0": True},
    },
}


@pytest.mark.parametrize("command", ["check", "verify", "pi1"])
@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, capsys, command, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED_INPUTS[name]))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def _poset(ranks, covers, **extra):
    return {
        "type": "poset",
        "elements": [{"id": x, "rank": r} for x, r in ranks.items()],
        "covers": covers,
        **extra,
    }


INVALID_POSETS = {
    "rank-jump": _poset({0: 1, 1: 1, 2: 3}, [[0, 2], [1, 2]]),
    "cover-cycle": _poset({0: 1, 1: 1, 2: 2}, [[0, 2], [1, 2], [2, 0]]),
    "rank-2-on-one-atom": _poset({0: 1, 1: 2}, [[0, 1]]),
    "repeated-facet-colors": _poset({0: 1, 1: 1, 2: 2}, [[0, 2], [1, 2]], coloring={"0": 1, "1": 1}),
    "rank-1e9": _poset({0: 10**9}, []),
    "rank-3-without-covers": _poset({0: 1, 1: 1, 2: 1, 3: 3}, []),
}


@pytest.mark.parametrize("name", sorted(INVALID_POSETS))
def test_check_refuses_an_invalid_poset(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INVALID_POSETS[name]))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid simplicial poset: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("facets", [[], [[]]])
def test_check_void_complex(tmp_path, capsys, facets):
    path = tmp_path / "void.json"
    path.write_text(json.dumps({"type": "complex", "facets": facets}))
    code, out, err = run(capsys, "check", str(path))
    assert code == 0, err
    assert all(json.loads(out).values())


# Small JSON objects of both types.  Each part is well formed nine times in ten,
# so that many inputs get past parsing, and otherwise any JSON value.
json_values = st.one_of(
    st.integers(-1, 4),
    st.text(max_size=2),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 5), max_size=3),
)


def mostly(good):
    return st.integers(0, 9).flatmap(lambda k: good if k else json_values)


ids = mostly(st.integers(0, 5))
id_maps = mostly(st.dictionaries(st.sampled_from("012345"), mostly(st.integers(1, 3)), max_size=6))
facet_lists = st.lists(st.lists(st.integers(0, 5), max_size=4, unique=True), max_size=6).map(
    lambda faces: [list(f) for f in SimplicialComplex.from_faces(faces).facets]
)
fuzzed_complexes = st.fixed_dictionaries(
    {"type": st.just("complex"), "facets": mostly(facet_lists)},
    optional={"coloring": id_maps, "labels": id_maps},
)
fuzzed_elements = st.fixed_dictionaries(
    {"id": ids, "rank": mostly(st.integers(1, 3))}, optional={"label": json_values}
)
fuzzed_posets = st.fixed_dictionaries(
    {
        "type": st.just("poset"),
        "elements": mostly(st.lists(mostly(fuzzed_elements), max_size=6)),
        "covers": mostly(st.lists(mostly(st.lists(ids, min_size=2, max_size=2)), max_size=8)),
    },
    optional={"coloring": id_maps},
)
# face posets of graphs on three vertices: valid posets, at most 6 ids
face_posets = st.builds(
    lambda faces, coloring: {
        **face_poset(SimplicialComplex.from_faces(faces)).to_json(),
        "coloring": coloring,
    },
    st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True), max_size=3),
    id_maps,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(fuzzed_complexes, fuzzed_posets, face_posets))
def test_fuzzed_input_keeps_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        for command in ("check", "verify", "pi1"):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([command, path])
            assert code in (0, 1, 2), (command, data)
            assert "Traceback" not in err.getvalue()

# -- hvec -------------------------------------------------------------------------


def test_hvec_octahedron(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")
    code, out, _ = run(capsys, "hvec", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["f_vector"] == [1, 6, 12, 8]
    assert report["h_vector"] == [1, 3, 3, 1]


def test_hvec_double_circle(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "double-circle")
    code, out, _ = run(capsys, "hvec", str(path))
    assert code == 0
    assert json.loads(out)["h_vector"] == [1, 0, 1]


@pytest.mark.parametrize("build", [lambda: shapes.cross_polytope(8), lambda: face_poset(shapes.sd_torus())])
def test_hvec_counts_the_f_vector_once(monkeypatch, build):
    from topokit.cli import hvec_report

    space, calls = build(), []
    f_vector = type(space).f_vector
    monkeypatch.setattr(type(space), "f_vector", lambda self: calls.append(self) or f_vector(self))
    report = hvec_report(space)
    assert len(calls) == 1
    assert report == {"d": space.d, "f_vector": list(f_vector(space)), "h_vector": list(space.h_vector())}


@pytest.mark.parametrize(
    "space",
    [
        SimplicialComplex([(0, 1, 2), (2, 3)]),
        SimplicialPoset({0: 1, 1: 1, 2: 1, 3: 2}, [(0, 3), (1, 3)]),
    ],
    ids=["complex", "poset"],
)
def test_hvec_refuses_a_non_pure_input(tmp_path, capsys, space):
    from topokit.cli import hvec_report
    from topokit.errors import PurityError

    with pytest.raises(PurityError, match="h-vectors are only defined for pure complexes and posets"):
        hvec_report(space)
    path = tmp_path / "non_pure.json"
    path.write_text(json.dumps(space.to_json()))
    code, out, err = run(capsys, "hvec", str(path))
    assert (code, out, err) == (2, "", "error: h-vectors are only defined for pure complexes and posets\n")


# -- pi1 ---------------------------------------------------------------------------


def test_pi1_hexagon(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cycle", "--n", "6")
    code, out, _ = run(capsys, "pi1", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["min_generators_lower_bound"] == 1
    assert report["min_generators_upper_bound"] == 1


def test_pi1_octahedron_bounds(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")
    code, out, _ = run(capsys, "pi1", str(path), "--colors", "1,2")
    assert code == 0
    report = json.loads(out)
    assert report["min_generators_lower_bound"] == 0
    assert report["min_generators_upper_bound"] <= 1


def test_pi1_double_circle(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "double-circle")
    code, out, _ = run(capsys, "pi1", str(path))
    report = json.loads(out)
    assert code == 0
    assert report["min_generators_lower_bound"] == 1
    assert report["min_generators_upper_bound"] == 1


def test_pi1_tietze_rounds_flag(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")
    code, out, _ = run(capsys, "pi1", str(path), "--tietze-rounds", "0")
    assert code == 0
    assert json.loads(out)["min_generators_upper_bound"] == 1  # no simplification


def pair_entries(report):
    """The per-pair entries of a pi1 (a dict by pair) or verify (a list) report."""
    table = report["per_pair"] if "per_pair" in report else report["per_colors"]
    return list(table.values()) if isinstance(table, dict) else table


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_tietze_convergence_is_reported_per_pair(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(corpus_complexes()[name].to_json()))
    for command in ("pi1", "verify"):
        _, out, _ = run(capsys, command, str(path))
        entries = pair_entries(json.loads(out))
        assert entries and all(e["tietze_converged"] is True for e in entries)
        assert all(1 <= e["tietze_rounds"] <= 50 for e in entries)
        _, out, _ = run(capsys, command, str(path), "--tietze-rounds", "0")
        for entry in pair_entries(json.loads(out)):
            assert (entry["tietze_rounds"], entry["tietze_converged"]) == (0, False)


@pytest.mark.parametrize(
    "first,last",
    [("abc", None), ("-3", None), ("1.5", None), (None, "-1"), ("2", "-1")],
)
@pytest.mark.parametrize("command", ["pi1", "verify"])
def test_bad_tietze_rounds_exit_2(tmp_path, capsys, command, first, last):
    """A bad ``--tietze-rounds`` is invalid input, also after a good one (the last counts)."""
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")
    argv = [command, str(path)]
    for value in (first, last):
        if value is not None:
            argv += ["--tietze-rounds", value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "tietze rounds" in err


# -- verify -------------------------------------------------------------------------


def test_verify_octahedron(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["h_additivity_holds"]
    assert report["checks"]["bound_holds"]
    assert report["checks"]["upper_bound_within_h2"]


def test_verify_hexagon_bound_is_tight(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cycle", "--n", "6")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["h_vector"][2] == 1
    assert report["min_generators_lower_bound"] == 1


def test_verify_double_circle_tight(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "double-circle")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["h_vector"][2] == 1
    assert report["min_generators_lower_bound"] == 1


@pytest.mark.parametrize("build", [lambda: shapes.cross_polytope(5), lambda: face_poset(shapes.sd_torus())])
def test_verify_reads_the_f_vector_off_the_color_counts(monkeypatch, build):
    """The additivity table reads f off the face counts by color mask: verify walks the
    faces once, for those counts, and never calls ``f_vector``."""
    from topokit.cli import verification_report

    space, calls = build(), []
    f_vector = type(space).f_vector
    monkeypatch.setattr(type(space), "f_vector", lambda self: calls.append(self) or f_vector(self))
    report = verification_report(space, ns=True)
    assert calls == []
    assert tuple(report["h_vector"]) == space._h_of(f_vector(space))


def test_verify_with_ns_flag(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "4")
    code, out, _ = run(capsys, "verify", str(path), "--ns")
    assert code == 0
    assert json.loads(out)["checks"]["ns_holds"]


def test_verify_ns_reports_surface_failure(tmp_path, capsys):
    # the asserted inequality is false for surfaces (it needs dimension >= 3),
    # and the check reports that honestly
    path = gen_file(tmp_path, capsys, "sd-torus")
    code, out, _ = run(capsys, "verify", str(path), "--ns")
    assert code == 1
    assert not json.loads(out)["checks"]["ns_holds"]


@pytest.mark.parametrize(
    "data",
    [
        {"type": "complex", "facets": [[0]], "coloring": {"0": 1}},
        {"type": "poset", "elements": [{"id": 0, "rank": 1}], "covers": [], "coloring": {"0": 1}},
    ],
    ids=["complex", "poset"],
)
def test_verify_ns_on_facet_size_1(tmp_path, capsys, data):
    # the h-vector (1, 0) has no h2 entry, which the check reads as 0, as the bound does
    path = tmp_path / "point.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path), "--ns")
    assert (code, err) == (0, "")
    assert json.loads(out)["checks"]["ns_holds"]


def test_verify_is_deterministic(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "sd-rp2")
    _, out1, _ = run(capsys, "verify", str(path))
    _, out2, _ = run(capsys, "verify", str(path))
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timing_seconds")
    r2.pop("timing_seconds")
    assert r1 == r2


def test_verify_rejects_unbalanced(tmp_path, capsys):
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps({"type": "complex", "facets": [[0, 1, 2], [0, 3, 4]]}))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1



def test_verify_rejects_a_palette_not_of_size_d_for_both_kinds(tmp_path, capsys):
    # a proper coloring of the 4-cycle with 3 colors; a balanced one exists,
    # so the property checks pass, but the palette is not of size d = 2
    square = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)], {0: 1, 1: 2, 2: 1, 3: 3})
    for kind, obj in (("complex", square), ("poset", face_poset(square))):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(obj.to_json()))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (1, ""), kind
        assert err.startswith("check failed: coloring uses 3 colors"), kind


def test_pi1_rejects_a_palette_not_of_size_d_for_both_kinds(tmp_path, capsys):
    square = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)], {0: 1, 1: 2, 2: 1, 3: 3})
    for kind, obj in (("complex", square), ("poset", face_poset(square))):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(obj.to_json()))
        code, out, err = run(capsys, "pi1", str(path))
        assert (code, out) == (1, ""), kind
        assert err.startswith("check failed: coloring uses 3 colors"), kind


def test_poset_reports_do_not_build_the_order_complex(tmp_path, monkeypatch):
    from test_golden import INSTANCES, load, run_cli, write_instance

    def refuse(self):
        raise AssertionError("order_complex() reached from a report")

    monkeypatch.setattr(SimplicialPoset, "order_complex", refuse)
    for name in ("double_circle", "face_poset_octahedron"):
        path = write_instance(tmp_path, name, INSTANCES[name])
        for command, argv in (("verify", ("verify",)), ("verify_ns", ("verify", "--ns")), ("pi1", ("pi1",))):
            assert run_cli(argv + (path,)) == load(command)[name], (name, command)


def test_verify_ns_on_a_poset_factors_no_more(tmp_path, capsys, monkeypatch):
    from topokit import homology, face_poset, shapes

    path = tmp_path / "poset.json"
    path.write_text(json.dumps(face_poset(shapes.cross_polytope(3)).to_json()))
    calls = []
    factor = homology.unit_pivot_factor
    monkeypatch.setattr(homology, "unit_pivot_factor", lambda c: calls.append(1) or factor(c))
    counts = []
    for flags in ((), ("--ns",)):
        calls.clear()
        code, _, _ = run(capsys, "verify", str(path), *flags)
        assert code == 0
        counts.append(len(calls))
    assert counts[0] == 1
    assert counts[1] <= counts[0]

# -- rewrite -------------------------------------------------------------------------


def test_rewrite_octahedron(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")
    code, out, _ = run(capsys, "rewrite", str(path), "--path", "0,4,2", "--colors", "1,2")
    assert code == 0
    report = json.loads(out)
    assert report["verified"] and report["endpoints_preserved"]
    assert report["rewritten_path"][0][0] == 0
    assert report["rewritten_path"][-1][1] == 2


def test_rewrite_bad_endpoint(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")
    code, _, _ = run(capsys, "rewrite", str(path), "--path", "4,0", "--colors", "1,2")
    assert code == 2


def test_rewrite_output_file(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")
    out_path = tmp_path / "rw.json"
    code, _, _ = run(
        capsys,
        "rewrite",
        str(path),
        "--path",
        "0,4,2",
        "--colors",
        "1,2",
        "-o",
        str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["verified"]
    assert report["certificate"]["moves"]


# -- generated corpus sanity ------------------------------------------------------------


@pytest.mark.parametrize(
    "shape,extra",
    [
        ("cross-polytope", ("--dim", "4")),
        ("cycle", ("--n", "8")),
        ("sd-torus", ()),
        ("sd-rp2", ()),
        ("double-circle", ()),
        ("connected-sum", ("--copies", "2")),
    ],
)
def test_generated_instances_check_and_verify(tmp_path, capsys, shape, extra):
    path = gen_file(tmp_path, capsys, shape, *extra)
    code, _, _ = run(capsys, "check", str(path))
    assert code == 0
    code, _, _ = run(capsys, "verify", str(path))
    assert code == 0


def test_parser_is_built_once_per_process(tmp_path, capsys):
    from topokit import cli

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    # options parsed by one call do not leak into the next
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")

    def verify(*options):
        report = json.loads(run(capsys, "verify", *options, str(path))[1])
        report.pop("timing_seconds")
        return report

    plain = verify()
    assert verify("--ns") != plain
    assert verify() == plain


# -- one precondition check for pi1 and verify ----------------------------------------

BOWTIE = [(0, 1, 2), (0, 3, 4)]
PROPER_BOWTIE = SimplicialComplex(BOWTIE, {0: 1, 1: 2, 2: 3, 3: 2, 4: 3})
LINKS_FAIL = "check failed: input fails the property checks: {'pure': True, 'links_connected': False}"
UNCOLORED = "error: no coloring attached"
# class -> (input, exit code and stderr that ``pi1`` and ``verify`` both give), in the
# check order: structure (1), a coloring attached (2), exactly d colors (1)
PRECONDITION_CLASSES = {
    "uncolored bowtie": (SimplicialComplex(BOWTIE), 1, LINKS_FAIL),
    "uncolored sd-torus": (SimplicialComplex(shapes.sd_torus().facets), 2, UNCOLORED),
    "uncolored 7-vertex torus": (shapes.torus_7(), 2, UNCOLORED),
    "face poset of the uncolored 7-vertex torus": (face_poset(shapes.torus_7()), 2, UNCOLORED),
    "square with 3 colors": (
        SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)], {0: 1, 1: 2, 2: 1, 3: 3}),
        1,
        "check failed: coloring uses 3 colors on a complex with facet size 2",
    ),
    "bowtie with 4 colors": (SimplicialComplex(BOWTIE, {0: 1, 1: 2, 2: 3, 3: 2, 4: 4}), 1, LINKS_FAIL),
    "properly colored bowtie": (PROPER_BOWTIE, 1, LINKS_FAIL),
    "non-pure colored complex": (
        SimplicialComplex([(0, 1, 2), (2, 3)], {0: 1, 1: 2, 2: 3, 3: 1}),
        1,
        "check failed: input fails the property checks: {'pure': False, 'links_connected': False}",
    ),
    "face poset of the colored bowtie": (face_poset(PROPER_BOWTIE), 1, LINKS_FAIL),
    "double circle": (shapes.double_edge_circle(), 0, ""),
    "octahedron": (shapes.cross_polytope(3), 0, ""),
}


@pytest.mark.parametrize("name", sorted(PRECONDITION_CLASSES))
def test_pi1_and_verify_refuse_alike(tmp_path, capsys, name):
    obj, code, err = PRECONDITION_CLASSES[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj.to_json()))
    for command in ("pi1", "verify"):
        got_code, out, got_err = run(capsys, command, str(path))
        assert (got_code, got_err.strip()) == (code, err), command
        assert bool(out) == (code == 0), command


def test_uncolored_verify_searches_no_coloring(tmp_path, capsys, monkeypatch):
    from topokit import complex as complex_module

    def refuse(*args):
        raise AssertionError("a coloring was searched for")

    monkeypatch.setattr(complex_module, "proper_coloring", refuse)
    sd2 = shapes.sd_torus().barycentric_subdivision()
    path = tmp_path / "sd2.json"
    path.write_text(json.dumps(SimplicialComplex(sd2.facets).to_json()))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err.strip()) == (2, "", UNCOLORED)


def test_a_bad_pair_is_refused_before_any_stage(tmp_path, capsys, monkeypatch):
    from topokit import cli

    def refuse(*args):
        raise AssertionError("a stage ran before the pair was checked")

    monkeypatch.setattr(cli, "generator_bounds", refuse)
    path = gen_file(tmp_path, capsys, "sd-torus")
    code, out, err = run(capsys, "pi1", str(path), "--colors", "1,9")
    assert (code, out) == (2, "")
    assert err.strip() == "error: need exactly two palette colors, got [1, 9]"


def test_only_no_colors_selects_the_default_pair(tmp_path, capsys):
    from topokit import cli
    from topokit.errors import ValidationError

    octahedron = shapes.cross_polytope(3)
    assert cli.pi1_report(octahedron)["colors"] == [1, 2]
    with pytest.raises(ValidationError, match=r"need exactly two palette colors, got \[\]"):
        cli.pi1_report(octahedron, [])
    path = gen_file(tmp_path, capsys, "cross-polytope", "--dim", "3")
    code, out, err = run(capsys, "pi1", str(path), "--colors", "")
    assert (code, out) == (2, "")
    assert err.strip() == "error: bad --colors value ''"
