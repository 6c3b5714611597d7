"""The names that outside code reaches by name stay where it looks for them, the
library imports nothing from outside the standard library, and only its readers
module converts or type-checks input.

``perfbench/tracer.py`` wraps its ``TARGETS`` on their owners: a function on
its module, a ``Class.method`` in that class's own ``__dict__`` (an inherited
method is not patched there).  A name moved to a base class or another module
would otherwise only show in the benchmark's traced runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import topokit

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> list[tuple[str, str]]:
    """``(layer, qualified name)`` for each entry of the tracer's ``TARGETS``."""
    spec = importlib.util.spec_from_file_location("_tracer_targets", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [(layer, qual) for layer, quals in module.TARGETS.items() for qual in quals]


@pytest.mark.parametrize("layer,qual", tracer_targets())
def test_tracer_target_is_bound_on_its_owner(layer, qual):
    module = importlib.import_module(f"topokit.{layer}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        assert attr in vars(getattr(module, cls_name)), f"{qual} is not in the class's own __dict__"
    else:
        assert callable(getattr(module, qual, None)), f"topokit.{layer} has no {qual}"


@pytest.mark.parametrize("name", topokit.__all__)
def test_public_name_resolves(name):
    assert getattr(topokit, name, None) is not None


@pytest.mark.parametrize("path", sorted(Path(topokit.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_the_standard_library(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots = [node.module.split(".")[0]]
        else:
            continue
        for root in roots:
            assert root in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {root}"


LIBRARY_FILES = sorted(Path(topokit.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", [p for p in LIBRARY_FILES if p.name != "_read.py"], ids=lambda p: p.name)
def test_only_the_readers_convert_or_test_for_bools(path):
    """Outside ``_read.py`` no ``int(...)`` call and no ``isinstance(..., bool)``: the
    refuse-do-not-convert policy lives in one module.  Inline ``type(x) is int`` is allowed."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        assert node.func.id != "int", f"{path.name}:{node.lineno} calls int()"
        if node.func.id == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            names = {k.id for k in kinds if isinstance(k, ast.Name)}
            assert "bool" not in names, f"{path.name}:{node.lineno} tests isinstance(..., bool)"


@pytest.mark.parametrize("path", LIBRARY_FILES, ids=lambda p: p.name)
def test_library_parses_as_its_minimum_python(path):
    """``pyproject.toml`` declares ``requires-python = ">=3.10"``: no newer syntax."""
    ast.parse(path.read_text(), str(path), feature_version=(3, 10))


CLI = Path(topokit.__file__).parent / "cli.py"
# name -> the one function of ``cli.py`` that may use it (None: no function may).  The
# stages run once, in ``_run``, after the one precondition check; the reports format.
STAGE_USERS = {
    "_require_pi1_ready": "_run",
    "generator_bounds": "_run",
    "poset_edge_path_group": "_run",
    "tietze_simplify": "_run",
    "h1": "_run",
    "require_full_palette": None,
    "check_properties": "check_report",
}


def names_used_by_function(path) -> dict[str, set[str]]:
    """Each name read in ``path`` (a bare name, or an attribute) -> the top-level
    functions (or ``<module>``) that read it; imports are not reads."""
    used: dict[str, set[str]] = {}
    for top in ast.parse(path.read_text(), str(path)).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.setdefault(node.id, set()).add(owner)
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, set()).add(owner)
    return used


def test_cli_runs_the_stages_in_one_place():
    used = names_used_by_function(CLI)
    for name, user in STAGE_USERS.items():
        assert used.get(name, set()) == ({user} if user else set()), f"cli.py: {name} used by {used.get(name)}"
    assert used["_run"] == {"pi1_report", "verification_report"}


PI1 = Path(topokit.__file__).parent / "pi1.py"
# the tuple-keyed walk the walk index replaced; its copy lives in tests/oracles.py
TUPLE_KEYED_WALK = ("_completions", "_bridge_vertex", "_detour_search", "_bypass", "_bypass_word", "_letters")


def test_the_rewriter_and_the_restriction_run_one_bypass_walk():
    from topokit import pi1

    used = names_used_by_function(PI1)
    assert used["_bypass_walk"] == {"_restrict", "rewrite_path_to_colors"}
    assert callers(PI1)["_bypass_walk"] == {"_restrict", "rewrite_path_to_colors"}
    assert used["_detour"] == {"_bypass_walk"}
    for name in TUPLE_KEYED_WALK:
        assert name not in vars(pi1), f"topokit.pi1 binds {name}"


def test_the_walk_keeps_no_bridge_memo():
    """Each caller passes the bridge it has just asked for, so a pair's walk holds only its
    detour searches, and no module reads a ``bridges`` attribute."""
    from topokit import pi1

    assert pi1._Walk._fields == ("index", "first", "second", "searches")
    for path in LIBRARY_FILES:
        assert "bridges" not in names_used_by_function(path), f"{path.name} reads .bridges"


SRC = Path(topokit.__file__).parent


def callers(path) -> dict[str, set[str]]:
    """Each callee in ``path`` as written (``f``, ``Class.method``) -> the top-level
    functions (or ``Class.method`` for a method body) that call it."""
    calls: dict[str, set[str]] = {}
    for top in ast.parse(path.read_text(), str(path)).body:
        if isinstance(top, ast.ClassDef):
            bodies = [(f"{top.name}.{getattr(m, 'name', '<body>')}", m) for m in top.body]
        else:
            bodies = [(getattr(top, "name", "<module>"), top)]
        for owner, body in bodies:
            for node in ast.walk(body):
                if isinstance(node, ast.Call):
                    calls.setdefault(ast.unparse(node.func), set()).add(owner)
    return calls


def test_the_octahedron_sum_glues_without_the_fold_and_trusted_presentations_stay_in_pi1():
    shapes, complex = callers(SRC / "shapes.py"), callers(SRC / "complex.py")
    assert "connected_sum" not in shapes  # the fold over connected_sum is tests/oracles.py's
    assert shapes["_glued"] == {"octahedron_sum"} and complex["_glued"] == {"connected_sum"}
    trusted = {
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for callee, owners in callers(path).items()
        if callee.endswith("GroupPresentation._of") or (path.name == "pi1.py" and callee == "cls._of")
        for owner in owners
    }
    assert trusted == {("pi1.py", "_restrict"), ("pi1.py", "tietze_simplify")}
