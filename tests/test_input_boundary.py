"""Every public entry reads its data through one set of readers (``topokit._read``).

The contract: whatever data is passed, only a :class:`TopoError` escapes a
data-taking entry point, and ``topo`` exits 0, 1 or 2 without a traceback.  The
space, tree and presentation arguments are fixed to real instances; every other
argument is drawn as garbage.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_complexes

from topokit import (
    Certificate,
    Generator,
    GroupPresentation,
    HomologySummary,
    MissingColoringError,
    NestedSpanningTree,
    SimplicialComplex,
    SimplicialPoset,
    TopoError,
    ValidationError,
    apply_certificate,
    build_nested_tree,
    connected_sum,
    cycle_class_equal,
    default_basepoint,
    edge_path_cycle_vector,
    face_poset,
    full_presentation,
    generator_bounds,
    h_from_f,
    invariant_factors,
    poset_edge_path_group,
    restrict_presentation,
    rewrite_path_to_colors,
    shapes,
    smith_normal_form,
    snf_is_valid,
    tietze_simplify,
    verify_certificate,
    word_to_loop,
)
from topokit import cli
from topokit.pi1 import check_edge_path

OCTAHEDRON = shapes.cross_polytope(3)
POSET = face_poset(OCTAHEDRON)
RP2 = shapes.sd_projective_plane()
TREE = build_nested_tree(OCTAHEDRON, {1, 2})
PRESENTATION = full_presentation(OCTAHEDRON, TREE)
GENS = PRESENTATION.generators
PATH = [(0, 4), (4, 2)]
CERT = rewrite_path_to_colors(OCTAHEDRON, {1, 2}, PATH)[1]

# ints, bools, floats, None, strings and huge ints, nested in tuples, lists and dicts
scalars = st.one_of(
    st.integers(-2, 7), st.booleans(), st.floats(), st.none(), st.text(max_size=3), st.just(10**30)
)
garbage = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.integers(-1, 5), st.text(max_size=2)), inner, max_size=3),
    ),
    max_leaves=8,
)

# name -> (number of garbage arguments, the call)
ENTRY_POINTS = {
    "SimplicialComplex": (3, SimplicialComplex),
    "SimplicialComplex.from_faces": (3, SimplicialComplex.from_faces),
    "SimplicialComplex.from_json": (1, SimplicialComplex.from_json),
    "SimplicialComplex.has_face": (1, OCTAHEDRON.has_face),
    "SimplicialComplex.faces": (1, OCTAHEDRON.faces),
    "SimplicialComplex.facets_containing": (1, OCTAHEDRON.facets_containing),
    "SimplicialComplex.link": (1, OCTAHEDRON.link),
    "SimplicialComplex.rank_select": (1, OCTAHEDRON.rank_select),
    "connected_sum": (3, lambda f1, f2, m: connected_sum(OCTAHEDRON, OCTAHEDRON, f1, f2, m)),
    "h_from_f": (1, h_from_f),
    "SimplicialPoset": (4, SimplicialPoset),
    "SimplicialPoset.from_json": (1, SimplicialPoset.from_json),
    "SimplicialPoset.rank": (1, POSET.rank),
    "SimplicialPoset.elements_of_rank": (1, POSET.elements_of_rank),
    "SimplicialPoset.atoms_of": (1, POSET.atoms_of),
    "SimplicialPoset.color_set": (1, POSET.color_set),
    "SimplicialPoset.link": (1, POSET.link),
    "SimplicialPoset.rank_select": (1, POSET.rank_select),
    "check_edge_path": (1, lambda path: check_edge_path(OCTAHEDRON, path)),
    "check_edge_path(poset)": (1, lambda path: check_edge_path(POSET, path)),
    "Certificate": (2, Certificate),
    "Certificate.from_json": (1, Certificate.from_json),
    "Certificate.to_json": (2, lambda setting, moves: Certificate(setting, moves).to_json()),
    "apply_certificate": (
        2,
        lambda source, moves: apply_certificate(OCTAHEDRON, source, Certificate("complex", moves)),
    ),
    "apply_certificate(poset)": (
        2,
        lambda source, moves: apply_certificate(POSET, source, Certificate("poset", moves)),
    ),
    "verify_certificate": (2, lambda source, target: verify_certificate(OCTAHEDRON, source, target, CERT)),
    "rewrite_path_to_colors": (2, lambda colors, path: rewrite_path_to_colors(OCTAHEDRON, colors, path)),
    "build_nested_tree": (2, lambda colors, root: build_nested_tree(OCTAHEDRON, colors, root)),
    "default_basepoint": (1, lambda colors: default_basepoint(OCTAHEDRON, colors)),
    "NestedSpanningTree": (
        3,
        lambda colors, root, parent: NestedSpanningTree(OCTAHEDRON, colors, root, parent),
    ),
    "NestedSpanningTree.path_to_root": (1, TREE.path_to_root),
    "NestedSpanningTree.edge_path": (2, TREE.edge_path),
    "GroupPresentation": (1, lambda relators: GroupPresentation(GENS, relators)),
    "GroupPresentation(generators)": (1, lambda generators: GroupPresentation(generators, ())),
    "HomologySummary": (2, HomologySummary),
    "GroupPresentation.generator_index": (1, PRESENTATION.generator_index),
    "word_to_loop": (1, lambda word: word_to_loop(PRESENTATION, TREE, word)),
    "restrict_presentation": (
        1,
        lambda colors: restrict_presentation(PRESENTATION, OCTAHEDRON, colors, TREE),
    ),
    "tietze_simplify": (1, lambda rounds: tietze_simplify(PRESENTATION, rounds)),
    "generator_bounds": (1, lambda rounds: generator_bounds(OCTAHEDRON, rounds)),
    "poset_edge_path_group": (1, lambda base: poset_edge_path_group(POSET, base)),
    "smith_normal_form": (1, smith_normal_form),
    "invariant_factors": (1, invariant_factors),
    "snf_is_valid": (4, snf_is_valid),
    "edge_path_cycle_vector": (1, lambda path: edge_path_cycle_vector(RP2, path)),
    "cycle_class_equal": (2, lambda z1, z2: cycle_class_equal(RP2, z1, z2)),
    "shapes.cross_polytope": (1, shapes.cross_polytope),
    "shapes.cycle_complex": (1, shapes.cycle_complex),
    "shapes.octahedron_sum": (1, shapes.octahedron_sum),
    "cli.load_input": (1, cli.load_input),
    "cli.generate_shape": (4, cli.generate_shape),
    "cli.pi1_report": (2, lambda colors, rounds: cli.pi1_report(OCTAHEDRON, colors, rounds)),
    "cli.pi1_report(poset)": (1, lambda rounds: cli.pi1_report(POSET, None, rounds)),
    "cli.verification_report": (
        3,
        lambda input_id, ns, rounds: cli.verification_report(OCTAHEDRON, input_id, ns, rounds),
    ),
    "cli.rewrite_report": (2, lambda vertices, colors: cli.rewrite_report(OCTAHEDRON, vertices, colors)),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_only_topo_errors_escape(name, data):
    count, call = ENTRY_POINTS[name]
    args = [data.draw(garbage, label=f"arg{i}") for i in range(count)]
    try:
        call(*args)
    except TopoError:
        pass


# the values a command-line option is drawn from: garbage text, or near misses
arg_text = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["1,2", "0,4,2", "3", "-1", "1.5", "1e3", ",", " 1", "1,", "2,1", "0", "10" * 8]),
)
json_files = st.one_of(
    garbage,
    st.just(OCTAHEDRON.to_json()),
    st.just(POSET.to_json()),
    st.builds(
        lambda k, v: {**OCTAHEDRON.to_json(), k: v},
        st.sampled_from(["facets", "coloring", "labels"]),
        garbage,
    ),
    st.builds(
        lambda k, v: {**POSET.to_json(), k: v},
        st.sampled_from(["elements", "covers", "coloring"]),
        garbage,
    ),
)
COMMANDS = {
    "check": [],
    "hvec": [],
    "pi1": ["--colors", "--tietze-rounds"],
    "verify": ["--tietze-rounds"],
    "rewrite": ["--path", "--colors"],
    "gen": ["--dim", "--n", "--copies"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exits_0_1_or_2_on_garbage(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        if command == "gen":
            argv += ["--shape", data.draw(st.sampled_from(["cross-polytope", "cycle", "connected-sum", "torus"]))]
        else:
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data.draw(json_files), handle)
            argv.append(path)
        for option in COMMANDS[command]:
            if command == "rewrite" or data.draw(st.booleans()):  # rewrite needs both options
                argv += [option, data.draw(arg_text)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()


# (call, message of the ValidationError, or of the error named third) for each input that
# escaped as another error, or was converted, before the readers
NAMED_ROWS = {
    "rewrite colors not iterable": (
        lambda: rewrite_path_to_colors(OCTAHEDRON, 5, PATH),
        "expected an array, got 5",
    ),
    "edge path not iterable": (lambda: check_edge_path(OCTAHEDRON, 5), "expected an array, got 5"),
    "certificate moves not a list": (lambda: Certificate("complex", 5), "certificate moves must be a list"),
    "certificate setting unknown": (lambda: Certificate("graph", ()), "unknown certificate setting 'graph'"),
    "to_json of a short move": (
        lambda: Certificate("complex", (("expand", 0),)).to_json(),
        "'expand' move has 3 entries",
    ),
    "generator edge an integer, rendered": (
        lambda: GroupPresentation([Generator(edge=5)], []).render(),
        "expected an array of 2 entries, got 5",
    ),
    "generator edge an integer, restricted": (
        lambda: restrict_presentation(GroupPresentation([Generator(edge=5)], []), OCTAHEDRON, {1, 2}, TREE),
        "expected an array of 2 entries, got 5",
    ),
    "generator not a Generator": (lambda: GroupPresentation([5], []), "expected a Generator, got 5"),
    "generator edge id a string": (
        lambda: GroupPresentation([Generator(edge=(0, "a"))], []).render(),
        "expected an integer, got 'a'",
    ),
    "homology betti1 a string": (
        lambda: HomologySummary(betti1="x", torsion=()).min_generators,
        "betti1 must be an integer, got 'x'",
    ),
    "homology torsion factor 1": (lambda: HomologySummary(0, (1,)), "torsion > 1, got 0, \\[1\\]"),
    "relator letter float": (lambda: GroupPresentation(GENS, [(1.7, -2)]), "expected an integer, got 1.7"),
    "relator letter string": (lambda: GroupPresentation(GENS, [("1",)]), "expected an integer, got '1'"),
    "relator letter bool": (lambda: GroupPresentation(GENS, [(True, 2)]), "expected an integer, got True"),
    "tietze rounds bool": (lambda: tietze_simplify(PRESENTATION, True), "tietze rounds must be"),
    "tietze rounds negative": (lambda: tietze_simplify(PRESENTATION, -1), "tietze rounds must be"),
    "tietze rounds float": (lambda: tietze_simplify(PRESENTATION, 2.5), "tietze rounds must be"),
    "tietze rounds None": (lambda: tietze_simplify(PRESENTATION, None), "tietze rounds must be"),
    "cycle vector float ids": (
        lambda: edge_path_cycle_vector(RP2, [(0.0, 6.0)]),
        "expected an integer, got 0.0",
    ),
    "poset rank of a list": (lambda: POSET.rank([1]), r"expected an integer, got \[1\]"),
    "face dimension past the top": (lambda: OCTAHEDRON.faces(3), "face dimension 3 out of range"),
    "cross-polytope float dim": (
        lambda: cli.generate_shape("cross-polytope", 6.7),
        "expected an integer, got 6.7",
    ),
    "cycle float length": (lambda: cli.generate_shape("cycle", n=6.0), "expected an integer, got 6.0"),
    "verify ns not a bool": (
        lambda: cli.verification_report(OCTAHEDRON, ns="no"),
        "ns must be True or False, got 'no'",
    ),
    "verify input id not a string": (
        lambda: cli.verification_report(OCTAHEDRON, input_id=object()),
        "expected a string label, got <object object",
    ),
    "sum float copies": (
        lambda: cli.generate_shape("connected-sum", copies=2.5),
        "expected an integer, got 2.5",
    ),
    "basepoint of an uncolored complex": (
        lambda: default_basepoint(SimplicialComplex([(0, 1, 2), (0, 2, 3)]), {1, 2}),
        "no coloring attached",
        MissingColoringError,
    ),
    "generator bounds of a poset": (
        lambda: generator_bounds(POSET),
        "got SimplicialPoset; .*poset_edge_path_group",
    ),
    "nested tree of a poset": (lambda: build_nested_tree(POSET, {1, 2}), "poset_edge_path_group"),
    "tree constructor on a poset": (
        lambda: NestedSpanningTree(POSET, {1, 2}, 0, {0: None}),
        "poset_edge_path_group",
    ),
    "full presentation of a poset": (lambda: full_presentation(POSET, TREE), "poset_edge_path_group"),
    "rewrite on a poset": (
        lambda: rewrite_path_to_colors(POSET, {1, 2}, [(None, 0, 0)]),
        "poset_edge_path_group",
    ),
}


@pytest.mark.parametrize("name", sorted(NAMED_ROWS))
def test_named_inputs_are_refused(name):
    call, message, *error = NAMED_ROWS[name]
    with pytest.raises(error[0] if error else ValidationError, match=message):
        call()


def test_cycle_length_is_capped_before_anything_is_built(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a cycle past its cap was built")

    assert len(shapes.cycle_complex(shapes.MAX_CYCLE_LENGTH).facets) == shapes.MAX_CYCLE_LENGTH
    monkeypatch.setattr(shapes, "SimplicialComplex", refuse)
    with pytest.raises(ValidationError, match="at most 100000 vertices, got 100002"):
        shapes.cycle_complex(shapes.MAX_CYCLE_LENGTH + 2)
    assert cli.main(["gen", "--shape", "cycle", "--n", "1000000000000"]) == 2
    assert "at most 100000 vertices" in capsys.readouterr().err


def test_octahedron_sum_is_capped_before_anything_is_built(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a sum past its cap was built")

    total = shapes.octahedron_sum(shapes.MAX_OCTAHEDRON_COPIES)
    assert len(total.facets) == 3002
    assert total.h_vector() == (1, 1500, 1500, 1)
    assert cli.verification_report(total)["ok"] is True
    monkeypatch.setattr(shapes, "SimplicialComplex", refuse)
    monkeypatch.setattr(shapes, "cross_polytope", refuse)
    with pytest.raises(ValidationError, match="between 1 and 500 copies, got 501"):
        shapes.octahedron_sum(shapes.MAX_OCTAHEDRON_COPIES + 1)
    assert cli.main(["gen", "--shape", "connected-sum", "--copies", "501"]) == 2
    assert "between 1 and 500 copies" in capsys.readouterr().err


def test_tietze_rounds_accepts_what_it_did():
    assert tietze_simplify(PRESENTATION, 0).rounds == 0
    assert tietze_simplify(PRESENTATION, 10**30).converged


SPACES = dict(corpus_complexes())
SPACES.update({f"face_poset({name})": face_poset(c) for name, c in corpus_complexes().items()})
SPACES["double_circle"] = shapes.double_edge_circle()


@pytest.mark.parametrize("rounds", [None, 1])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_pi1_and_verify_reports_agree(name, rounds):
    space = SPACES[name]
    pi1 = cli.pi1_report(space, tietze_rounds=rounds)
    verify = cli.verification_report(space, tietze_rounds=rounds)
    for bound in ("min_generators_lower_bound", "min_generators_upper_bound"):
        assert pi1[bound] == verify[bound]
    if isinstance(space, SimplicialPoset):
        assert pi1["generators"] == pi1["min_generators_upper_bound"]
        return
    rows = {"-".join(map(str, row.pop("colors"))): row for row in verify["per_colors"]}
    without_generators = {
        key: {k: v for k, v in row.items() if k != "generators"} for key, row in pi1["per_pair"].items()
    }
    assert rows == without_generators
    if rounds == 1:
        assert all(row["tietze_rounds"] <= 1 for row in rows.values())
