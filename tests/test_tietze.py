"""Indexed Tietze simplification against the rebuild-everything version it replaced.

``quadratic_tietze`` is the earlier production algorithm, kept as the oracle:
each elimination rebuilds every other relator and restarts the scan.  The
indexed version must give the same generators and relators on every corpus
presentation and on random ones, at every round limit, and report the rounds
and the fixpoint the oracle reaches.
"""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_pi1 import ORACLE_COMPLEXES

from topokit import (
    Generator,
    GroupPresentation,
    ValidationError,
    build_nested_tree,
    full_presentation,
    restrict_presentation,
    tietze_simplify,
)
from topokit.pi1 import cyclic_reduce, free_reduce, invert_word

ROUND_LIMITS = (0, 1, 2, 50)


def slicing_cyclic_reduce(word):
    """Oracle: slice one cancelling pair off the ends at a time."""
    word = list(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return word


def cyclic_canonical(word):
    words = (tuple(word), tuple(invert_word(word)))
    return min((w[s:] + w[:s] for w in words for s in range(len(w))), default=())


def quadratic_tietze(presentation, max_rounds=50):
    """Oracle: (generators, relators, rounds run, fixpoint reached)."""
    gens = list(presentation.generators)
    alive = [True] * len(gens)
    rels = [list(r) for r in presentation.relators]
    rounds, converged = 0, False
    for rounds in range(1, max_rounds + 1):
        snapshot = (alive[:], [tuple(r) for r in rels])
        rels = [slicing_cyclic_reduce(free_reduce(r)) for r in rels]
        rels = [r for r in rels if r]
        progress = True
        while progress:
            progress = False
            order = sorted(range(len(rels)), key=lambda k: (len(rels[k]), k))
            for ri in order:
                rel = rels[ri]
                counts = Counter(map(abs, rel))
                pos = next((p for p, x in enumerate(rel) if counts[abs(x)] == 1), None)
                if pos is None:
                    continue
                x = rel[pos]
                g = abs(x)
                tau = rel[pos + 1 :] + rel[:pos]
                replacement = invert_word(tau) if x > 0 else list(tau)
                trial = []
                for rj, other in enumerate(rels):
                    if rj == ri:
                        continue
                    word = []
                    for y in other:
                        if abs(y) == g:
                            word.extend(replacement if y > 0 else invert_word(replacement))
                        else:
                            word.append(y)
                    word = slicing_cyclic_reduce(free_reduce(word))
                    if word:
                        trial.append(word)
                if sum(len(r) for r in trial) <= sum(len(r) for r in rels):
                    rels = trial
                    alive[g - 1] = False
                    progress = True
                    break
        seen, deduped = set(), []
        for r in rels:
            key = cyclic_canonical(r)
            if key not in seen:
                seen.add(key)
                deduped.append(r)
        rels = deduped
        if (alive, [tuple(r) for r in rels]) == snapshot:
            converged = True
            break
    mapping, new_gens = {}, []
    for i, g in enumerate(gens):
        if alive[i]:
            mapping[i + 1] = len(new_gens) + 1
            new_gens.append(g)
    new_rels = [tuple(mapping[x] if x > 0 else -mapping[-x] for x in r) for r in rels]
    return tuple(new_gens), tuple(new_rels), rounds, converged


def assert_matches_oracle(presentation, max_rounds):
    fast = tietze_simplify(presentation, max_rounds)
    gens, rels, rounds, converged = quadratic_tietze(presentation, max_rounds)
    assert fast.generators == gens
    assert fast.relators == rels
    assert (fast.rounds, fast.converged) == (rounds, converged)


def corpus_presentations(name):
    """The full presentation of the first pair's tree and every pair's restriction."""
    complex = ORACLE_COMPLEXES[name]()
    out = []
    for pair in combinations(complex.colors, 2):
        tree = build_nested_tree(complex, pair)
        full = full_presentation(complex, tree)
        if not out:
            out.append(full)
        out.append(restrict_presentation(full, complex, pair, tree))
    return out


@pytest.mark.parametrize("name", ORACLE_COMPLEXES)
def test_indexed_tietze_matches_the_quadratic_oracle_on_the_corpus(name):
    for presentation in corpus_presentations(name):
        for max_rounds in ROUND_LIMITS:
            assert_matches_oracle(presentation, max_rounds)


def presentations(max_generators=8, max_length=7):
    def build(n, raw):
        """Letters folded onto the n generators; no relators without generators."""
        gens = [Generator(edge=(i, i + 1)) for i in range(n)]
        rels = [[(abs(x) - 1) % n + 1 if x > 0 else -((abs(x) - 1) % n + 1) for x in r] for r in raw] if n else []
        return GroupPresentation(gens, rels)

    letters = st.integers(-max_generators, max_generators).filter(bool)
    words = st.lists(letters, max_size=max_length)
    return st.builds(build, st.integers(0, max_generators), st.lists(words, max_size=12))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(presentations(), st.sampled_from(ROUND_LIMITS))
def test_indexed_tietze_matches_the_quadratic_oracle_on_random_presentations(presentation, max_rounds):
    assert_matches_oracle(presentation, max_rounds)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(presentations(max_generators=3, max_length=3), st.sampled_from(ROUND_LIMITS))
def test_indexed_tietze_matches_the_oracle_on_short_relators(presentation, max_rounds):
    # few generators and short words: many duplicates, and many failed candidates re-opened
    assert_matches_oracle(presentation, max_rounds)


def test_zero_rounds_report_no_fixpoint_and_change_nothing():
    pres = GroupPresentation([Generator(edge=(0, 1))], [(1, -1), ()])
    simplified = tietze_simplify(pres, 0)
    assert (simplified.rounds, simplified.converged) == (0, False)
    assert simplified.relators == pres.relators


def test_a_cut_off_run_reports_no_fixpoint():
    pres = GroupPresentation([Generator(edge=(i, i + 1)) for i in range(3)], [(1, 2, 3), (1, 2, 3), (1, 1, 2)])
    full = tietze_simplify(pres)
    assert full.converged and full.rounds >= 2
    cut = tietze_simplify(pres, full.rounds - 1)
    assert (cut.rounds, cut.converged) == (full.rounds - 1, False)


# -- cyclic reduction --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-4, 4).filter(bool), max_size=12))
def test_cyclic_reduce_matches_slicing(word):
    assert cyclic_reduce(word) == slicing_cyclic_reduce(word)
    assert cyclic_reduce(tuple(word)) == slicing_cyclic_reduce(word)
    assert cyclic_reduce(iter(word)) == slicing_cyclic_reduce(word)


def test_cyclic_reduce_on_a_long_word():
    n = 20_000
    word = list(range(1, n + 1)) + [-x for x in range(n, 0, -1)]
    assert cyclic_reduce(word) == []
    assert cyclic_reduce([5] + word + [7]) == [5] + word + [7]


# -- relator letters --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "relator,bad",
    [((1, 3, 0), 3), ((1, 0, 3), 0), ((-3,), -3), ((2, -1, 0), 0), ((1, 2, -2, 9), 9)],
)
def test_relator_check_names_the_first_bad_letter(relator, bad):
    gens = [Generator(edge=(0, 1)), Generator(edge=(1, 2))]
    with pytest.raises(ValidationError, match=rf"^relator letter {bad} references no generator$"):
        GroupPresentation(gens, [(1, -2), relator])


def test_relator_letters_must_be_integers():
    gens = [Generator(edge=(0, 1))]
    assert GroupPresentation(gens, [[1, -1], (), iter([1])]).relators == ((1, -1), (), (1,))
    for relator, bad in ([1.7, -2], "1.7"), (("1",), "'1'"), ((True, 2), "True"), (1, "1"):
        with pytest.raises(ValidationError, match=bad):
            GroupPresentation(gens, [relator])
