"""Exact word arithmetic in a free group of finite rank.

Letters are nonzero ints: ``i`` is the i-th basis generator, ``-i`` its
inverse.  A word is a tuple of letters with no adjacent cancelling pair.
The global ordering used for all enumerations is shortlex with the letter
order x1 < x1^-1 < x2 < x2^-1 < ... so every norm vector in this package
is reproducible bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ValidationError

Word = tuple  # tuple of nonzero ints


def letter_key(letter: int) -> int:
    """Position of a letter in the order x1 < x1^-1 < x2 < x2^-1 < ..."""
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def reduce_word(letters) -> Word:
    """Freely reduce a raw letter sequence (stack scan)."""
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def is_reduced(word) -> bool:
    return all(word[i] != -word[i + 1] for i in range(len(word) - 1))


def word_inv(word) -> Word:
    return tuple(-l for l in reversed(word))


def word_mul(*words) -> Word:
    return reduce_word([l for w in words for l in w])


def is_cyclically_reduced(word) -> bool:
    return is_reduced(word) and (len(word) < 2 or word[0] != -word[-1])


@dataclass(frozen=True)
class FreeAutomorphism:
    """Endomorphism of F_n given by the images of the basis generators."""

    images: tuple  # tuple of n Words

    @classmethod
    def identity(cls, n) -> "FreeAutomorphism":
        return cls(tuple((i + 1,) for i in range(n)))

    def apply(self, word) -> Word:
        out = []
        for l in word:
            img = self.images[abs(l) - 1]
            out.extend(img if l > 0 else word_inv(img))
        return reduce_word(out)

    def compose(self, other: "FreeAutomorphism") -> "FreeAutomorphism":
        """self after other: (self.compose(other))(w) == self(other(w))."""
        return FreeAutomorphism(tuple(self.apply(im) for im in other.images))


class WordTree(NamedTuple):
    """The reduced words of length <= horizon as a tree rooted at the empty word.

    ``words`` is the empty word followed by the nonempty words in shortlex
    order; ``parents[i]`` is the index of ``words[i]`` minus its last letter
    (-1 for the root), always smaller than i; ``classes`` holds the indices
    of the canonical class representatives, in order.
    """

    words: tuple
    parents: tuple
    classes: tuple


@functools.lru_cache(maxsize=32)
def word_tree(n, horizon) -> WordTree:
    """The word tree of rank n up to the horizon, built layer by layer."""
    if n < 1 or horizon < 1:
        raise ValidationError("need basis size >= 1 and horizon >= 1")
    letters = sorted((l for i in range(1, n + 1) for l in (i, -i)), key=letter_key)
    words, parents = [()], [-1]
    start = 0
    for _ in range(horizon):
        end = len(words)
        for i in range(start, end):
            w = words[i]
            for l in letters:
                if not w or w[-1] != -l:
                    words.append(w + (l,))
                    parents.append(i)
        start = end
    classes = tuple(i for i, w in enumerate(words) if w and is_class_rep(w))
    return WordTree(tuple(words), tuple(parents), classes)


def enumerate_words(n, horizon):
    """All nonempty reduced words of length <= horizon, in shortlex order."""
    return list(word_tree(n, horizon).words[1:])


def is_class_rep(word) -> bool:
    """Whether a word is the canonical representative of its conjugacy class.

    That is a cyclically reduced word that sorts no later than any of its
    rotations; the test stops at the first rotation that sorts before it.
    """
    if not is_cyclically_reduced(word):
        return False
    keys = [letter_key(l) for l in word]
    doubled = keys + keys
    return all(keys <= doubled[i:i + len(keys)] for i in range(1, len(keys)))


def enumerate_classes(n, horizon):
    """Canonical representatives of nontrivial conjugacy classes.

    All classes whose cyclically reduced length is <= horizon, shortlex
    ordered on the canonical representative.
    """
    tree = word_tree(n, horizon)
    return [tree.words[i] for i in tree.classes]


def generates_free_group(words, k) -> bool:
    """Whether the given words generate the free group on k letters.

    Stallings folding: build the wedge of word-loops, fold, and test that
    every basis letter traces a loop at the base state.  Each state keeps
    one transition per signed letter (an edge u -l-> v is l out of u and
    -l out of v); a second transition for a letter it already has queues
    the two targets to be identified.  Identifying two states moves the
    smaller table into the larger, which may queue more pairs, so the
    folding ends when the queue is empty, with no rescan of the edges.
    """
    parent, table = [], []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_state():
        parent.append(len(parent))
        table.append({})
        return len(parent) - 1

    queue = []

    def link(u, letter, v):
        w = table[u].setdefault(letter, v)
        if w != v:
            queue.append((w, v))

    base = new_state()
    for w in words:
        prev = base
        for i, l in enumerate(w):
            nxt = base if i == len(w) - 1 else new_state()
            link(prev, l, nxt)
            link(nxt, -l, prev)
            prev = nxt

    while queue:
        x, y = map(find, queue.pop())
        if x == y:
            continue
        if len(table[x]) < len(table[y]):
            x, y = y, x
        parent[y] = x
        for letter, v in table[y].items():
            link(x, letter, v)
        table[y] = None

    base = find(base)
    loops = table[base]
    return all(l in loops and find(loops[l]) == base for l in range(1, k + 1))
