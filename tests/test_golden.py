"""Whole CLI reports compared field for field with stored golden reports.

The goldens in ``tests/golden/`` hold the JSON of ``topo check``, ``hvec``,
``verify``, ``verify --ns`` and ``pi1`` for the conftest corpus, the
double-edge circle and the face poset of the octahedron, plus ``topo
rewrite`` of three fixed loops per color pair of the subdivided torus.
``timing_seconds`` and ``input`` (the temporary file name) are left out.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only when a
report is meant to change.
"""

import io
import json
import random
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from conftest import corpus_complexes, random_closed_path
from topokit import default_basepoint, face_poset, shapes
from topokit.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    "check": ("check",),
    "hvec": ("hvec",),
    "verify": ("verify",),
    "verify_ns": ("verify", "--ns"),
    "pi1": ("pi1",),
}
VOLATILE = ("timing_seconds", "input")


def instances():
    objs = dict(corpus_complexes())
    objs["double_circle"] = shapes.double_edge_circle()
    objs["face_poset_octahedron"] = face_poset(shapes.cross_polytope(3))
    return objs


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    report = json.loads(buf.getvalue())
    for key in VOLATILE:
        report.pop(key, None)
    return {"exit": code, "report": report}


def write_instance(directory, name, obj):
    path = Path(directory) / f"{name}.json"
    path.write_text(json.dumps(obj.to_json()))
    return str(path)


def rewrite_loops():
    """Three seeded closed loops per color pair of sd-torus, as vertex lists."""
    torus = shapes.sd_torus()
    rng = random.Random(20261017)
    loops = {}
    for pair in combinations(torus.colors, 2):
        root = default_basepoint(torus, pair)
        for k in range(3):
            edges = random_closed_path(torus, root, rng)
            loops[f"{pair[0]}-{pair[1]}-{k}"] = {
                "colors": list(pair),
                "path": [u for u, _ in edges] + [edges[-1][1]],
            }
    return loops


def rewrite_argv(torus_file, entry):
    return (
        "rewrite",
        torus_file,
        "--path",
        ",".join(map(str, entry["path"])),
        "--colors",
        ",".join(map(str, entry["colors"])),
    )


def load(command):
    return json.loads((GOLDEN / f"{command}.json").read_text())


INSTANCES = instances()
CASES = [(command, name) for command in COMMANDS for name in INSTANCES]
CASES += [("rewrite", key) for key in rewrite_loops()]


@pytest.mark.parametrize("command,name", CASES)
def test_report_matches_golden(tmp_path, command, name):
    golden = load(command)[name]
    if command == "rewrite":
        torus_file = write_instance(tmp_path, "sd_torus", shapes.sd_torus())
        actual = run_cli(rewrite_argv(torus_file, golden))
        golden = {"exit": golden["exit"], "report": golden["report"]}
    else:
        path = write_instance(tmp_path, name, INSTANCES[name])
        actual = run_cli(COMMANDS[command] + (path,))
    assert actual["exit"] == golden["exit"]
    assert actual["report"].keys() == golden["report"].keys()
    for field, value in golden["report"].items():
        assert actual["report"][field] == value, field


def regenerate(directory):
    GOLDEN.mkdir(exist_ok=True)
    files = {name: write_instance(directory, name, obj) for name, obj in instances().items()}
    for command, flags in COMMANDS.items():
        reports = {name: run_cli(flags + (path,)) for name, path in files.items()}
        (GOLDEN / f"{command}.json").write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    torus_file = write_instance(directory, "sd_torus", shapes.sd_torus())
    loops = rewrite_loops()
    for entry in loops.values():
        entry.update(run_cli(rewrite_argv(torus_file, entry)))
    (GOLDEN / "rewrite.json").write_text(json.dumps(loops, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        regenerate(scratch)
