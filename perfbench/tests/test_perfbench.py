"""Tests of the benchmark itself, on tiny instances of every workload.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import reference
import run
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def metric_names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", NAMES)
def test_tiny_untraced_run_checks_every_operation(name, tmp_path):
    _, out = run.measure(name, 3, 0, False, tmp_path, tiny=True)
    assert out["attempted"] >= 1
    assert out["failed"] == 0 and out["correct"] is True
    assert set(out["metrics"]) == metric_names("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_matches_untraced_outputs(name, tmp_path):
    details, out = run.measure(name, 3, 0, True, tmp_path, tiny=True)
    assert out["failed"] == 0 and out["correct"] is True
    assert set(out["metrics"]) == metric_names("per_layer")
    assert details["instances"]
    for record in details["instances"].values():
        assert record["f_vector"][0] == 1


def test_workload_list_matches_the_code():
    assert set(NAMES) == set(workloads.WORKLOADS)


def count_failures(name, tmp_path, patch):
    """Failed operations in one pass after ``patch(lib)`` alters the library."""
    workload, _ = run.set_up(name, 5, tmp_path, True)
    patch(workload.lib)
    result = run.run_pass(workload, reference.Reference())
    return sum(
        not run.passed(workload, item, out) for item, out in zip(workload.items, result.outputs)
    ), len(workload.items)


def test_corrupted_certificate_is_a_failure(tmp_path):
    def patch(lib):
        original = lib.pi1.rewrite_path_to_colors

        def corrupted(complex, colors, path):
            rewritten, certificate = original(complex, colors, path)
            u, v = rewritten[0]
            moves = certificate.moves + (("insert", 0, (u, v)),)
            return rewritten, replace(certificate, moves=moves)

        lib.pi1.rewrite_path_to_colors = corrupted
        # the benchmark's own replay must catch it even if the library's does not
        lib.pi1.verify_certificate = lambda *args: True

    failed, attempted = count_failures("rewrite-paths", tmp_path, patch)
    assert failed == attempted


def test_flipped_class_answer_is_a_failure(tmp_path):
    def patch(lib):
        original = lib.homology.cycle_class_equal
        lib.homology.cycle_class_equal = lambda *args: not original(*args)

    failed, attempted = count_failures("cycle-classes", tmp_path, patch)
    assert failed == attempted


def test_wrong_h_vector_is_a_failure(tmp_path):
    def patch(lib):
        original = lib.cli.verification_report

        def wrong(*args, **kwargs):
            report = original(*args, **kwargs)
            report["h_vector"][1] += 1
            return report

        lib.cli.verification_report = wrong

    failed, attempted = count_failures("verify-cross", tmp_path, patch)
    assert failed == attempted


@pytest.mark.parametrize("name", ["verify-cross", "rewrite-paths", "cycle-classes"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    runs = [run.measure(name, 11, 0, True, tmp_path, tiny=True)[1]["metrics"] for _ in range(2)]
    exact = [k for k in runs[0] if k.endswith((".calls", ".cells", ".moves"))]
    assert exact
    assert {k: runs[0][k] for k in exact} == {k: runs[1][k] for k in exact}


def test_rank_select_reuse_ratio_on_cross_polytopes(tmp_path):
    # d = 3, 4: 2^3 + 2^4 additivity selections, then C(3,2) + C(4,2) pairs again
    _, out = run.measure("verify-cross", 1, 0, True, tmp_path, tiny=True)
    assert out["metrics"]["complex.rank_select.distinct_ratio"]["value"] == 24 / 33


def test_tracer_restores_every_attribute(tmp_path):
    workload, _ = run.set_up("verify-surfaces", 2, tmp_path, True)
    modules = [vars(m) for m in vars(workload.lib).values()]
    classes = [vars(workload.lib.complex.SimplicialComplex), vars(workload.lib.poset.SimplicialPoset)]
    before = [dict(ns) for ns in modules + classes]
    with Tracer() as tracer:
        assert workload.lib.cli.h1 is not before[0]["h1"]
        run.run_pass(workload, reference.Reference(), tracer)
    assert [dict(ns) for ns in modules + classes] == before
    assert tracer.spans["homology.h1"].calls == tracer.spans["cli.verification_report"].calls


def test_inputs_follow_the_seed(tmp_path):
    def inputs(name, seed):
        workload, _ = run.set_up(name, seed, tmp_path, True)
        files = [Path(item.args[0]).read_text() for item in workload.items] if "verify" in name else []
        return files, [item.args for item in workload.items if "verify" not in name]

    for name in NAMES:
        assert inputs(name, 4) == inputs(name, 4)
        assert inputs(name, 4) != inputs(name, 5)


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(range(100)) == 89
    assert run.tail(range(21)) == 10
    assert run.tail(range(20)) == 19


def test_pass_times_are_scaled_by_the_bracketing_kernel_runs(tmp_path, monkeypatch):
    workload, _ = run.set_up("rewrite-paths", 6, tmp_path, True)
    ref = reference.Reference()
    # a kernel run is due before every operation, so each one is bracketed alone
    monkeypatch.setattr(reference, "CHUNK_S", 0.0)
    result = run.run_pass(workload, ref)
    assert len(ref.times) == len(workload.items) + 2
    raw = [t / ref.scale(i, i + 1) for i, t in enumerate(result.latencies, start=1)]
    assert sum(raw) == pytest.approx(result.raw_wall_s - result.begin_s / ref.scale(0, 1))
    ref.times[:] = [2 * reference.REFERENCE_S] * len(ref.times)
    assert ref.scale(0, 1) == 0.5


def test_reference_kernel_is_deterministic():
    assert reference.kernel() == reference.kernel() == reference.Reference().rank == reference.SIDE


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
