"""Markings, word realization, Lyndon length, equivariance, isomorphism.

The realization and isomorphism checks are the reference code of
oracles.py; Lyndon length is defined here.
"""

import random

import pytest

from gwhitehead import freegroup as fg
from gwhitehead.fixtures import all_fixtures, fix_r2, fix_r2w, fix_theta
from gwhitehead.ggraph import maximal_invariant_forest
from gwhitehead.marking import (MarkedGGraph, collapse_marked, cyclic_canonical,
                                cyclic_loop, cyclic_reduction, join_reduced,
                                loop_of_class, path_of_word, reduce_path)
from gwhitehead.norms import NormCalculator

from conftest import FIXTURE_NAMES
from oracles import CLAIMS, marked_isomorphic, rotations, verify_realization


def lyndon_length(m, word):
    """Distance the word moves the basepoint in the universal cover."""
    return len(path_of_word(m, word))


def _random_words(n, count, max_len, seed=7):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randrange(0, max_len + 1)
        letters = []
        for _ in range(k):
            l = rng.choice([i for i in range(-n, n + 1) if i != 0])
            letters.append(l)
        out.append(fg.reduce_word(letters))
    return out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_validate(name):
    m = all_fixtures()[name]
    assert m.validate() == []
    if name in CLAIMS:
        assert verify_realization(m, CLAIMS[name]) == []


def test_wrong_rank_marking_is_rejected():
    g = fix_r2().graph
    bad = MarkedGGraph(g, ((0,),))
    assert bad.validate()


def test_non_generating_marking_is_rejected():
    g = fix_r2().graph
    bad = MarkedGGraph(g, ((0,), (0,)))
    assert bad.validate()


def test_unreduced_marking_path_is_rejected():
    g = fix_r2().graph
    bad = MarkedGGraph(g, ((0, 1, 0), (2,)))
    assert bad.validate()


def test_path_of_word_is_a_homomorphism(named_instance):
    m = named_instance
    for u in _random_words(m.n, 15, 4, seed=1):
        for v in _random_words(m.n, 3, 3, seed=2):
            lhs = path_of_word(m, fg.word_mul(u, v))
            rhs = reduce_path(path_of_word(m, u) + path_of_word(m, v))
            assert lhs == rhs


def test_lyndon_length_axioms(named_instance):
    m = named_instance
    words = _random_words(m.n, 25, 5)
    for w in words:
        assert lyndon_length(m, w) == lyndon_length(m, fg.word_inv(w))
        assert lyndon_length(m, w) >= 0
    for u, v in zip(words[:12], words[12:24]):
        assert lyndon_length(m, fg.word_mul(u, v)) <= (
            lyndon_length(m, u) + lyndon_length(m, v))


def test_loop_length_is_min_over_conjugates(named_instance):
    m = named_instance
    conjugators = [w for w in fg.enumerate_words(m.n, 3)] + [()]
    for w in _random_words(m.n, 10, 4, seed=3):
        loop = loop_of_class(m, w)
        best = min(lyndon_length(m, fg.word_mul(c, w, fg.word_inv(c)))
                   for c in conjugators)
        assert len(loop) == best


def test_loop_of_class_is_the_out_item(named_instance):
    # the norm build makes its out items from the word tree, not through
    # loop_of_class; both must give the same loop of each class, the out
    # item in the rotation its path gives, loop_of_class in the least one
    calc = NormCalculator(named_instance, 3)
    assert len(calc.classes) == len(calc.items["out"])
    for c, item in zip(calc.classes, calc.items["out"]):
        assert bytes(loop_of_class(named_instance, c)) == cyclic_canonical(item)


def test_collapse_marked_revalidates():
    m = fix_theta()
    forest = maximal_invariant_forest(m.graph)
    m2, vmap, emap = collapse_marked(m, forest)
    assert m2.validate() == []
    assert verify_realization(m2, CLAIMS["FIX-THETA"]) == []
    # loop lengths computed in the collapsed graph never exceed the originals
    for w in _random_words(m.n, 10, 4, seed=4):
        assert lyndon_length(m2, w) <= lyndon_length(m, w)


def test_marked_isomorphic_reflexive(named_instance):
    assert marked_isomorphic(named_instance, named_instance)


def test_marked_isomorphic_distinguishes_markings():
    assert not marked_isomorphic(fix_r2(), fix_r2w())


def test_marked_isomorphic_accepts_pair_relabeling():
    m = fix_r2()
    g = m.graph
    # swap the two petals: same point of the complex under renaming
    from gwhitehead.ggraph import GGraph
    g2 = GGraph(1, 0, (0, 0, 0, 0), g.group, ((0, 1, 2, 3),), ("*",), ("b", "a"))
    m2 = MarkedGGraph(g2, ((2,), (0,)))
    assert marked_isomorphic(m, m2)


def test_verify_realization_detects_wrong_claim():
    wrong = (CLAIMS["FIX-THETA"][0], fg.FreeAutomorphism.identity(2))
    assert verify_realization(fix_theta(), wrong)


def test_cyclic_canonical_is_the_least_of_all_rotations():
    # ties and periodic loops: several rotations start at the least step
    for steps in [(), (5,), (0, 1, 0, 2), (0, 0, 1), (0, 1, 0, 1), (2, 1, 1, 2, 1)]:
        assert cyclic_canonical(steps) == min(rotations(steps))
    rng = random.Random(29)
    for _ in range(10 ** 5):
        steps = tuple(rng.choices(range(rng.randrange(1, 5)), k=rng.randrange(14)))
        assert cyclic_canonical(steps) == min(rotations(steps))


def _random_reduced_path(rng, n_edges, length):
    steps = []
    while len(steps) < length:
        e = rng.randrange(n_edges)
        if not steps or steps[-1] != e ^ 1:
            steps.append(e)
    return tuple(steps)


def test_path_helpers_agree_on_tuples_and_bytes():
    # few edges, so that junctions and loop ends cancel often
    rng = random.Random(37)
    pairs = [((0, 2), (3, 1, 4)),  # x1 x2 then x3 -> ~b ~a c: the junction leaves c
             ((), (0,)), ((1,), ()), ((0, 2), (3, 1))]
    loops = [(0, 2, 0, 2, 0, 4), (0, 4, 0, 2, 0, 2), (2, 0, 2, 0), (0, 2, 5, 1), (), (3,)]
    for _ in range(3000):
        pairs.append(tuple(_random_reduced_path(rng, 6, rng.randrange(7))
                           for _ in range(2)))
        loops.append(_random_reduced_path(rng, 6, rng.randrange(10)))
    for head, tail in pairs:
        want = join_reduced(head, tail)
        assert want == reduce_path(head + tail)
        got = join_reduced(bytes(head), bytes(tail))
        assert (type(want), type(got), tuple(got)) == (tuple, bytes, want)
    for loop in loops:
        for helper in (cyclic_reduction, cyclic_loop, cyclic_canonical):
            want = helper(loop)
            got = helper(bytes(loop))
            assert (type(want), type(got), tuple(got)) == (tuple, bytes, want)
        assert cyclic_canonical(loop) == min(rotations(loop))
