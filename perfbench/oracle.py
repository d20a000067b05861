"""Checks computed apart from the package, from the instance text alone.

The norm oracle reads the `[marking]` section of an instance file and
recomputes every norm coordinate by brute force: all reduced words (and
cyclic classes) up to the horizon in the shortlex order
x1 < x1^-1 < x2 < x2^-1 < ..., each basis path concatenated and freely (or
cyclically) reduced on edge tokens, and the length multiplied by |G|.
The chain count of a poset gives the Euler characteristic of its order
complex without building the complex.
"""

from __future__ import annotations

import itertools


def read_instance(text):
    """Vertex count, edge count, group order and marking token lists."""
    section = None
    vertices, edges, marking, order = set(), 0, {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line
        elif section == "[graph]" and line.startswith("vertex "):
            vertices.add(line.split()[1])
        elif section == "[graph]" and line.startswith("edge "):
            edges += 1
            ends = line.split(":", 1)[1].split("->")
            vertices.update(e.strip() for e in ends)
        elif section == "[group]" and line.startswith("order"):
            order = int(line.split("=", 1)[1])
        elif section == "[marking]":
            lhs, rhs = line.split("=", 1)
            marking[int(lhs.strip()[1:])] = rhs.split()
    basis = [marking[i] for i in range(1, len(marking) + 1)]
    return {"vertices": len(vertices), "edges": edges, "order": order,
            "basis": basis, "rank": edges - len(vertices) + 1}


def _flip(token):
    return token[1:] if token.startswith("~") else "~" + token


def _letters(n):
    return [l for i in range(1, n + 1) for l in (i, -i)]


def reduced_words(n, horizon):
    """Nonempty reduced words of length <= horizon, shortlex, by brute force."""
    out = []
    for k in range(1, horizon + 1):
        for w in itertools.product(_letters(n), repeat=k):
            if all(w[i] != -w[i + 1] for i in range(k - 1)):
                out.append(w)
    return out


def class_reps(n, horizon):
    """Cyclically reduced words that are the least of their rotations."""
    pos = {l: i for i, l in enumerate(_letters(n))}
    out = []
    for w in reduced_words(n, horizon):
        if len(w) > 1 and w[0] == -w[-1]:
            continue
        key = [pos[l] for l in w]
        if all(key <= key[i:] + key[:i] for i in range(1, len(w))):
            out.append(w)
    return out


def _path(word, basis):
    steps = []
    for l in word:
        p = basis[abs(l) - 1]
        steps.extend(p if l > 0 else [_flip(t) for t in reversed(p)])
    out = []
    for t in steps:
        if out and out[-1] == _flip(t):
            out.pop()
        else:
            out.append(t)
    return out


def _cyclic(path):
    while len(path) >= 2 and path[0] == _flip(path[-1]):
        path = path[1:-1]
    return path


def naive_norms(text, horizon):
    """(out, aut) norm coordinates of an instance text."""
    inst = read_instance(text)
    n, basis, order = len(inst["basis"]), inst["basis"], inst["order"]
    aut = tuple(order * len(_path(w, basis)) for w in reduced_words(n, horizon))
    out = tuple(order * len(_cyclic(_path(w, basis))) for w in class_reps(n, horizon))
    return out, aut


def chain_counts(sets):
    """counts[k] = number of chains S_0 < ... < S_k under strict inclusion."""
    sets = sorted(set(sets), key=len)
    ending = [1] * len(sets)  # chains of the current length ending at i
    counts = []
    while any(ending):
        counts.append(sum(ending))
        ending = [sum(ending[j] for j in range(i) if sets[j] < sets[i])
                  for i in range(len(sets))]
    return counts


def euler_characteristic(sets):
    return sum((-1) ** k * c for k, c in enumerate(chain_counts(sets)))
