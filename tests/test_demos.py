"""Every demo script, and the README's library tour, runs against the library in ``src/``.

Each demo is deterministic, and prints exactly its recording in ``tests/golden/demos/``;
record a demo again (``PYTHONPATH=src python demos/NAME.py > tests/golden/demos/NAME.txt``)
only when its output is meant to change.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (RECORDED / f"{demo.stem}.txt").read_text()


def test_every_recording_is_of_a_demo():
    assert sorted(path.stem for path in RECORDED.glob("*.txt")) == [demo.stem for demo in DEMOS]


def test_readme_library_tour_gives_its_commented_results():
    """Each expression line of the tour evaluates to the value its comment
    shows (the text before any colon); the other statements run in order."""
    readme = (ROOT / "README.md").read_text()
    code = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        if isinstance(node, ast.Expr):
            shown = lines[node.end_lineno - 1].split("#", 1)[1].split(":", 1)[0].strip()
            assert repr(eval(source, namespace)) == shown, source
            checked.append(shown)
        else:
            exec(source, namespace)
    assert checked == ["(1, 3, 3, 1)", "HomologySummary(betti1=0, torsion=())", "0", "True"]
