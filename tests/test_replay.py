"""The in-place certificate replay against the tuple-rebuilding oracle of
``oracles.py``: on rewriting certificates, hand-built poset certificates and
mutated copies of both, the two land on the same path or both refuse."""

import random
from itertools import combinations, permutations

import pytest
from conftest import corpus_complexes, random_closed_path
from oracles import oracle_apply_certificate

from topokit import (
    Certificate,
    FaceNotFoundError,
    PosetEdge,
    SimplicialComplex,
    ValidationError,
    apply_certificate,
    default_basepoint,
    face_poset,
    rewrite_path_to_colors,
    shapes,
)

E = PosetEdge


def replay(apply, space, source, cert):
    """The replayed path, or the class of the refusal."""
    try:
        return apply(space, source, cert)
    except (ValidationError, FaceNotFoundError) as exc:
        return type(exc)


def same_replay(space, source, cert):
    """Both replays of ``cert``, asserted equal; True iff they accepted it."""
    ours = replay(apply_certificate, space, source, cert)
    assert ours == replay(oracle_apply_certificate, space, source, cert), cert
    return isinstance(ours, tuple)


def mutants(cert, rng, picks=3):
    """Copies of ``cert`` with one move dropped, a position moved by one, the
    witness vertices permuted, or an expand and a contract swapped."""
    moves = list(cert.moves)
    for i in rng.sample(range(len(moves)), min(picks, len(moves))):
        kind, pos, *rest = moves[i]
        changed = [moves[:i] + moves[i + 1 :]]
        changed += [moves[:i] + [(kind, pos + step, *rest)] + moves[i + 1 :] for step in (-1, 1)]
        if kind in ("expand", "contract"):
            swapped = "contract" if kind == "expand" else "expand"
            changed.append(moves[:i] + [(swapped, pos, *rest)] + moves[i + 1 :])
            if cert.setting == "complex":
                changed += [
                    moves[:i] + [(kind, pos, order)] + moves[i + 1 :]
                    for order in permutations(rest[0])
                    if order != rest[0]
                ]
        for m in changed:
            yield Certificate(cert.setting, tuple(m))


def complex_edge_from(complex, v):
    return (v, complex.adjacency()[v][0])


def check_loops(complex, pair, loops, rng):
    """Replay each loop's certificate, its mutants and inserts at and past the end."""
    accepted = refused = 0
    for path in loops:
        rewritten, cert = rewrite_path_to_colors(complex, pair, path)
        assert same_replay(complex, path, cert)
        assert apply_certificate(complex, path, cert) == rewritten
        end = rewritten[-1][1]
        extra = [
            Certificate("complex", cert.moves + (("insert", len(rewritten) + k, complex_edge_from(complex, end)),))
            for k in (0, 1)
        ]
        for mutant in [*mutants(cert, rng), *extra]:
            if same_replay(complex, path, mutant):
                accepted += 1
            else:
                refused += 1
    return accepted, refused


def test_in_place_replay_matches_oracle_on_sd2_torus():
    torus = shapes.sd_torus().barycentric_subdivision()
    rng = random.Random(19)
    accepted = refused = 0
    for pair in combinations(torus.colors, 2):
        root = default_basepoint(torus, pair)
        loops = [random_closed_path(torus, root, rng, 60) for _ in range(3)]
        if pair == (1, 2):
            loops.append(random_closed_path(torus, root, rng, 4000, 4000))
            assert len(loops[-1]) >= 4000
        a, r = check_loops(torus, pair, loops, rng)
        accepted, refused = accepted + a, refused + r
    assert accepted and refused


@pytest.mark.parametrize("name", sorted(corpus_complexes()))
def test_in_place_replay_matches_oracle_on_corpus(name):
    complex = corpus_complexes()[name]
    rng = random.Random(name)
    accepted = refused = 0
    for pair in combinations(complex.colors, 2):
        root = default_basepoint(complex, pair)
        a, r = check_loops(complex, pair, [random_closed_path(complex, root, rng, 20) for _ in range(2)], rng)
        accepted, refused = accepted + a, refused + r
    assert accepted and refused


def poset_cases():
    """(poset, source, certificate): the triangle moves and the double circle's cancel and insert."""
    triangle = face_poset(SimplicialComplex([(0, 1, 2)]))
    one_step, two_step = (E(5, 1, 2),), (E(3, 1, 0), E(4, 0, 2))
    circle = shapes.double_edge_circle()
    there_and_back = (E(2, 0, 1), E(2, 1, 0))
    return [
        (triangle, one_step, Certificate("poset", (("expand", 0, 6),))),
        (triangle, two_step, Certificate("poset", (("contract", 0, 6),))),
        (triangle, one_step, Certificate("poset", (("expand", 0, 6), ("contract", 0, 6)))),
        (circle, there_and_back, Certificate("poset", (("cancel", 0),))),
        (circle, there_and_back, Certificate("poset", (("insert", 0, E(3, 0, 1)),))),
        (circle, there_and_back, Certificate("poset", (("insert", 2, E(3, 0, 1)), ("cancel", 0)))),
        (circle, (E(2, 0, 1), E(3, 1, 0)), Certificate("poset", (("cancel", 0),))),
    ]


def test_in_place_replay_matches_oracle_on_posets():
    rng = random.Random(3)
    accepted = refused = 0
    for poset, source, cert in poset_cases():
        final = apply_certificate(poset, source, cert) if same_replay(poset, source, cert) else source
        extra = [
            Certificate("poset", cert.moves + (("insert", len(final) + k, E(None, final[-1].term, final[-1].term)),))
            for k in (0, 1)
        ]
        for mutant in [*mutants(cert, rng, picks=2), *extra]:
            if same_replay(poset, source, mutant):
                accepted += 1
            else:
                refused += 1
    assert accepted and refused
