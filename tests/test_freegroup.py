"""Word arithmetic: reduction, conjugacy, automorphisms, enumerations.

Conjugacy is read through marking.loop_of_class on the identity-marked
rank-3 rose, whose loops spell the class representatives.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwhitehead import freegroup as fg
from gwhitehead.errors import ValidationError
from gwhitehead.ggraph import GGraph, Group
from gwhitehead.marking import MarkedGGraph, loop_of_class

import oracles

letters = st.integers(min_value=-3, max_value=3).filter(lambda l: l != 0)
raw = st.lists(letters, max_size=12)
small_word = st.lists(letters, max_size=6).map(lambda ls: fg.reduce_word(ls))


@given(raw)
def test_reduce_idempotent(ls):
    once = fg.reduce_word(ls)
    assert fg.reduce_word(once) == once


@given(raw)
def test_reduce_matches_naive_oracle(ls):
    assert fg.reduce_word(ls) == oracles.naive_reduce(ls)


@given(small_word, small_word)
def test_product_length_bound_and_parity(u, v):
    w = fg.word_mul(u, v)
    assert len(w) <= len(u) + len(v)
    assert (len(w) - len(u) - len(v)) % 2 == 0


@given(small_word)
def test_inverse_involution_and_cancellation(w):
    assert fg.word_inv(fg.word_inv(w)) == w
    assert fg.word_mul(w, fg.word_inv(w)) == ()


def _auts(n=3):
    ids = fg.FreeAutomorphism.identity(n).images
    swaps = fg.FreeAutomorphism((ids[1], ids[0], ids[2]))
    inv = fg.FreeAutomorphism(((-1,), ids[1], ids[2]))
    mult = fg.FreeAutomorphism(((1, 2), ids[1], ids[2]))
    return [fg.FreeAutomorphism.identity(n), swaps, inv, mult,
            swaps.compose(mult), mult.compose(inv)]


@given(st.sampled_from(_auts()), st.sampled_from(_auts()), small_word)
def test_apply_aut_composition(phi, psi, w):
    assert phi.compose(psi).apply(w) == phi.apply(psi.apply(w))


def word_key(word):
    """Shortlex sort key."""
    return (len(word), tuple(fg.letter_key(l) for l in word))


@pytest.mark.parametrize("n,h", [(1, 4), (2, 3), (3, 2)])
def test_enumerate_words_order_and_count(n, h):
    words = fg.enumerate_words(n, h)
    keys = [word_key(w) for w in words]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    assert all(1 <= len(w) <= h and fg.is_reduced(w) for w in words)
    assert sorted(words) == sorted(oracles.brute_reduced_words(n, h))


def test_enumerate_words_rejects_bad_bounds():
    with pytest.raises(ValidationError):
        fg.enumerate_words(0, 3)
    with pytest.raises(ValidationError):
        fg.enumerate_words(2, 0)


@pytest.mark.parametrize("n,h", [(2, 3), (3, 2)])
def test_enumerate_classes_are_canonical(n, h):
    classes = fg.enumerate_classes(n, h)
    assert len(classes) == len(set(classes))
    for c in classes:
        assert fg.is_cyclically_reduced(c)
        assert oracles.naive_is_class_rep(c)


def test_is_class_rep_matches_rotation_oracle():
    for w in oracles.brute_reduced_words(3, 5):
        assert fg.is_class_rep(w) == oracles.naive_is_class_rep(w)


# On the identity-marked rose, edge ids follow the letter order
# x1 < x1^-1 < x2 < ..., so the loop of a class spells the letter keys of
# its canonical representative.
ROSE3 = MarkedGGraph(GGraph(1, 0, (0,) * 6, Group.trivial(), (tuple(range(6)),)),
                     ((0,), (2,), (4,)))


def test_conj_class_matches_rotation_oracle():
    words = [()] + oracles.brute_reduced_words(3, 3)
    loops = [loop_of_class(ROSE3, w) for w in words]
    for u, lu in zip(words, loops):
        if fg.is_class_rep(u):
            assert lu == tuple(map(fg.letter_key, u))
        for v, lv in zip(words, loops):
            assert (lu == lv) == oracles.conjugate_by_rotation(u, v), (u, v)


@given(small_word, st.lists(letters, min_size=1, max_size=3))
def test_conjugates_share_class(w, c):
    conj = fg.word_mul(tuple(c), w, fg.word_inv(tuple(c)))
    assert loop_of_class(ROSE3, conj) == loop_of_class(ROSE3, w)


def test_generates_free_group():
    assert fg.generates_free_group([(1,), (2,)], 2)
    assert fg.generates_free_group([(1,), (2, 1)], 2)
    assert not fg.generates_free_group([(1,), (2, 2)], 2)
    assert not fg.generates_free_group([(1,)], 2)


def _nielsen_basis(rng, k, moves):
    """The basis x1..xk pushed through random Nielsen moves: inversions,
    swaps and transvections x_i -> x_i x_j^+-1 or x_j^+-1 x_i."""
    basis = [(i,) for i in range(1, k + 1)]
    for _ in range(moves):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        kind = rng.randrange(3)
        if kind == 0:
            basis[i] = fg.word_inv(basis[i])
        elif kind == 1:
            basis[i], basis[j] = basis[j], basis[i]
        elif i != j:
            other = basis[j] if rng.random() < 0.5 else fg.word_inv(basis[j])
            pair = (basis[i], other) if rng.random() < 0.5 else (other, basis[i])
            basis[i] = fg.reduce_word(pair[0] + pair[1])
    return basis


def test_worklist_folding_matches_the_rescanning_fold():
    rng = random.Random(5)
    for _ in range(400):
        k = rng.randrange(1, 5)
        basis = _nielsen_basis(rng, k, rng.randrange(12))
        assert fg.generates_free_group(basis, k)
        assert oracles.scan_generates_free_group(basis, k)
        # a basis word squared, or a word dropped, spans a proper subgroup
        i = rng.randrange(k)
        for words in (basis[:i] + [fg.reduce_word(basis[i] * 2)] + basis[i + 1:],
                      basis[:i] + basis[i + 1:]):
            assert not fg.generates_free_group(words, k)
            assert not oracles.scan_generates_free_group(words, k)
        # random words: the two folds agree either way
        words = [fg.reduce_word(rng.choice([l for l in range(-k, k + 1) if l])
                                for _ in range(rng.randrange(6)))
                 for _ in range(rng.randrange(k + 2))]
        assert (fg.generates_free_group(words, k)
                == oracles.scan_generates_free_group(words, k)), words


def is_inverse_pair(phi, psi):
    identity = fg.FreeAutomorphism.identity(len(phi.images))
    return phi.compose(psi) == identity == psi.compose(phi)


def test_is_inverse_pair():
    phi = fg.FreeAutomorphism(((1, 2), (2,)))
    psi = fg.FreeAutomorphism(((1, -2), (2,)))
    assert is_inverse_pair(phi, psi)
    assert not is_inverse_pair(phi, phi)
