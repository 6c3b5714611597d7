"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is exact equality or an exact inequality; the
two timed criteria carry their stated wall-clock budgets.
"""

import random
import time
from itertools import combinations
from math import comb

import pytest

from conftest import corpus_complexes, invariant_factors_by_minors, random_closed_path

from topokit import (
    cycle_class_equal,
    edge_path_cycle_vector,
    face_poset,
    build_nested_tree,
    full_presentation,
    generator_bounds,
    h1,
    h_additivity_table,
    invariant_factors,
    poset_edge_path_group,
    restrict_presentation,
    rewrite_path_to_colors,
    smith_normal_form,
    snf_is_valid,
    tietze_simplify,
    verify_certificate,
)
from topokit import shapes
from topokit.pi1 import default_basepoint


CORPUS = corpus_complexes()
DOUBLE_CIRCLE = shapes.double_edge_circle()


def report(line):
    print(line)


def test_criterion_1_h_additivity():
    start = time.perf_counter()
    for name, complex in CORPUS.items():
        table = h_additivity_table(complex)
        assert table["holds"], f"h additivity fails on {name}: {table['by_index']}"
        assert len(table["by_index"]) == complex.d + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget 10s"
    report(
        f"PASS criterion 1: h_i additivity over color selections exact on "
        f"{len(CORPUS)} corpus complexes in {elapsed:.2f}s"
    )


def test_criterion_2_main_bound():
    for name, complex in CORPUS.items():
        d = complex.d
        h = complex.h_vector()
        lower = h1(complex).min_generators
        assert comb(d, 2) * lower <= h[2], f"main bound fails on {name}"
    # tightness on the 6-cycle: 1 * 1 = 1 = h2
    hexagon = CORPUS["cycle6"]
    assert h1(hexagon).min_generators == 1
    assert hexagon.h_vector()[2] == 1
    assert comb(2, 2) * 1 == 1
    # connected sums carry exactly the h2 budget the bound would need for rank r
    for r, name in ((2, "sum2"), (3, "sum3")):
        h2 = CORPUS[name].h_vector()[2]
        assert comb(3, 2) * r <= h2
        assert h2 == comb(3, 2) * r
    # tight poset instance: the double-edge circle
    hp = DOUBLE_CIRCLE.h_vector()
    lower = h1(DOUBLE_CIRCLE.order_complex()).min_generators
    assert comb(2, 2) * lower == 1 == hp[2]
    report(
        "PASS criterion 2: C(d,2)*m_lower <= h2 exact on all corpus complexes; "
        "tight on the 6-cycle and the double-edge circle; sums meet C(3,2)*r = h2"
    )


def test_criterion_3_poset_bound():
    instances = [("double_circle", DOUBLE_CIRCLE, DOUBLE_CIRCLE.order_complex())]
    for name, complex in CORPUS.items():
        instances.append((f"face_poset({name})", face_poset(complex), complex))
    for name, poset, space in instances:
        d = poset.d
        h = poset.h_vector()
        lower = h1(space).min_generators
        assert comb(d, 2) * lower <= h[2], f"poset bound fails on {name}"
    report(
        f"PASS criterion 3: C(d,2)*m_lower <= h2(P) exact on "
        f"{len(instances)} poset instances"
    )


def test_criterion_4_rewriting_soundness():
    start = time.perf_counter()
    rng = random.Random(20260809)
    total = 0
    for name, complex in CORPUS.items():
        pairs = list(combinations(complex.colors, 2))
        for trial in range(100):
            colors = frozenset(pairs[trial % len(pairs)])
            root = default_basepoint(complex, colors)
            path = random_closed_path(complex, root, rng)
            rewritten, certificate = rewrite_path_to_colors(complex, colors, path)
            assert verify_certificate(complex, path, rewritten, certificate), name
            assert rewritten[0][0] == path[0][0] and rewritten[-1][1] == path[-1][1]
            kappa = complex.coloring
            for u, v in rewritten:
                assert kappa[u] in colors and kappa[v] in colors, name
            z_in = edge_path_cycle_vector(complex, path)
            z_out = edge_path_cycle_vector(complex, rewritten)
            assert cycle_class_equal(complex, z_in, z_out), name
            total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s, budget 30s"
    report(
        f"PASS criterion 4: {total} random closed paths rewritten with verified "
        f"certificates, endpoints, colors, and homology classes in {elapsed:.2f}s"
    )


def test_criterion_5_generator_count_exactness():
    checked = 0
    for name, complex in CORPUS.items():
        for pair in combinations(complex.colors, 2):
            sel = frozenset(pair)
            tree = build_nested_tree(complex, sel)
            pres = full_presentation(complex, tree)
            restricted = restrict_presentation(pres, complex, sel, tree)
            h2 = complex.rank_select(sel).h_vector()[2]
            assert len(restricted.generators) == h2, (name, pair)
            checked += 1
    report(
        f"PASS criterion 5: restriction emits exactly h2 of the selection "
        f"across {checked} (complex, color pair) cases"
    )


def test_criterion_6_homology_oracle_suite():
    assert h1(CORPUS["cycle6"]) == h1(shapes.cycle_complex(6))
    summary = h1(shapes.cycle_complex(6))
    assert (summary.betti1, summary.torsion) == (1, ())
    summary = h1(CORPUS["sd_torus"])
    assert (summary.betti1, summary.torsion) == (2, ())
    summary = h1(CORPUS["sd_rp2"])
    assert (summary.betti1, summary.torsion) == (0, (2,))

    rng = random.Random(1729)
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(matrix)
        assert snf_is_valid(matrix, u, d, v)
        assert invariant_factors(matrix) == invariant_factors_by_minors(matrix)
    report(
        "PASS criterion 6: H1 oracle values (circle, torus, projective plane) and "
        "200/200 random Smith forms agree with the gcd-of-minors oracle"
    )


def test_criterion_7_sandwich_consistency():
    for name, complex in CORPUS.items():
        bounds = generator_bounds(complex)
        summary = h1(complex)
        assert summary.min_generators <= bounds["best"], name
        best_pair = min(
            bounds["per_pair"], key=lambda k: (bounds["per_pair"][k]["post_tietze"], k)
        )
        final = bounds["per_pair"][best_pair]["presentation"]
        assert final.abelianization() == (summary.betti1, summary.torsion), name
    poset_pres = tietze_simplify(poset_edge_path_group(DOUBLE_CIRCLE))
    summary = h1(DOUBLE_CIRCLE.order_complex())
    assert summary.min_generators <= len(poset_pres.generators)
    assert poset_pres.abelianization() == (summary.betti1, summary.torsion)
    report(
        "PASS criterion 7: m_lower <= m_upper and final-presentation "
        "abelianizations match H1 on every corpus instance"
    )


def test_criterion_8_structural_lemmas():
    for name, complex in CORPUS.items():
        assert complex.check_properties().all_hold, name
        # links of small faces inherit the properties
        for size in range(0, complex.d - 1):
            for face in complex.faces(size - 1):
                assert complex.link(face).check_properties().all_hold, (name, face)
        # strong connectivity
        assert complex.is_strongly_connected(), name
        # two-color selections are connected
        for pair in combinations(complex.colors, 2):
            assert complex.rank_select(pair).is_connected(), (name, pair)

    posets = [("double_circle", DOUBLE_CIRCLE)]
    posets += [(f"face_poset({name})", face_poset(c)) for name, c in CORPUS.items()]
    for name, poset in posets:
        assert poset.check_properties().all_hold, name
        d = poset.d
        for x in poset.ids:
            if poset.rank(x) < d - 1:
                assert poset.link(x).check_properties().all_hold, (name, x)
        assert poset.is_strongly_connected(), name
        for pair in combinations(poset.colors, 2):
            assert poset.rank_select(pair).is_connected(), (name, pair)
    report(
        "PASS criterion 8: link inheritance, strong connectivity, and selected "
        "connectivity hold on every corpus complex and poset instance"
    )
