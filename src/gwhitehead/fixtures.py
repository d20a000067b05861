"""Reference instances and the seeded random instance generator.

The four named fixtures cover the trivial rose, a rose with a petal swap,
the theta graph with a parallel-edge swap, and a rose with a non-minimal
marking that greedy descent must fix.
"""

from __future__ import annotations

import random

from . import freegroup as fg
from .freegroup import FreeAutomorphism
from .ggraph import GGraph, Group
from .marking import MarkedGGraph, path_of_word, reduce_path, spanning_tree


def fix_r2() -> MarkedGGraph:
    """Rose with two petals, trivial group, identity marking."""
    g = GGraph(1, 0, (0, 0, 0, 0), Group.trivial(), ((0, 1, 2, 3),),
               ("*",), ("a", "b"))
    return MarkedGGraph(g, ((0,), (2,)))


def fix_r2_swap() -> MarkedGGraph:
    """Rose with two petals swapped by Z/2; realizes the generator swap."""
    g = GGraph(1, 0, (0, 0, 0, 0), Group.cyclic(2),
               ((0, 1, 2, 3), (2, 3, 0, 1)), ("*",), ("a", "b"))
    return MarkedGGraph(g, ((0,), (2,)))


def fix_theta() -> MarkedGGraph:
    """Theta graph: three parallel edges * -> v, Z/2 swapping two of them.

    Marking: x1 -> e1 ~e2, x2 -> e1 ~e3.
    """
    # pairs: e1 (0: *->v), e2 (1), e3 (2); directed 2p: * -> v
    term = (1, 0, 1, 0, 1, 0)
    action_t = (0, 1, 4, 5, 2, 3)  # swap e2 <-> e3
    g = GGraph(2, 0, term, Group.cyclic(2),
               ((0, 1, 2, 3, 4, 5), action_t), ("*", "v"), ("e1", "e2", "e3"))
    return MarkedGGraph(g, ((0, 3), (0, 5)))


def fix_r2w() -> MarkedGGraph:
    """Rose with two petals, trivial group, marking x1 -> a, x2 -> b a."""
    g = GGraph(1, 0, (0, 0, 0, 0), Group.trivial(), ((0, 1, 2, 3),),
               ("*",), ("a", "b"))
    return MarkedGGraph(g, ((0,), (2, 0)))


def all_fixtures():
    return {
        "FIX-R2": fix_r2(),
        "FIX-R2-SWAP": fix_r2_swap(),
        "FIX-THETA": fix_theta(),
        "FIX-R2W": fix_r2w(),
    }


def _cyclic_edge_action(pair_orbit_sizes):
    """Edge action of a cyclic generator on pairs grouped into orbits."""
    # pair p in an orbit block of size s: generator sends block index i to i+1 mod s
    perm = []
    base = 0
    for s in pair_orbit_sizes:
        for i in range(s):
            j = (i + 1) % s
            perm.extend([2 * (base + j), 2 * (base + j) + 1])
        base += s
    return tuple(perm)


def _random_aut(rng, n, nielsen_moves):
    """Product of random Nielsen transformations."""
    phi = FreeAutomorphism.identity(n)
    for _ in range(nielsen_moves):
        kind = rng.choice(["swap", "invert", "mult"] if n > 1 else ["invert"])
        images = list(FreeAutomorphism.identity(n).images)
        if kind == "swap":
            i, j = rng.sample(range(n), 2)
            images[i], images[j] = images[j], images[i]
        elif kind == "invert":
            i = rng.randrange(n)
            images[i] = fg.word_inv(images[i])
        else:
            i, j = rng.sample(range(n), 2)
            e = rng.choice([1, -1])
            left = rng.random() < 0.5
            gen_j = (j + 1,) if e == 1 else (-(j + 1),)
            images[i] = fg.word_mul(gen_j, images[i]) if left \
                else fg.word_mul(images[i], gen_j)
        phi = FreeAutomorphism(tuple(images)).compose(phi)
    return phi


def _scramble_marking(m: MarkedGGraph, rng, nielsen_moves) -> MarkedGGraph:
    phi = _random_aut(rng, m.n, nielsen_moves)
    paths = tuple(path_of_word(m, im) for im in phi.images)
    out = MarkedGGraph(m.graph, paths)
    return out


def _shape_rose(rng, group_order):
    """Rose at the basepoint; the cyclic generator permutes petal blocks."""
    divisors = [d for d in (1, 2, 3, group_order) if group_order % d == 0]
    sizes = []
    while sum(sizes) < 1 or (rng.random() < 0.5 and sum(sizes) < 3):
        d = rng.choice([d for d in divisors if sum(sizes) + d <= 3] or [1])
        sizes.append(d)
    n_pairs = sum(sizes)
    term = tuple(0 for _ in range(2 * n_pairs))
    gen = _cyclic_edge_action(sizes)
    return 1, 0, term, sizes, gen, n_pairs


def _shape_theta(rng, group_order):
    """Basepoint plus one fixed vertex joined by parallel edge blocks."""
    divisors = [d for d in (1, 2, 3, group_order) if group_order % d == 0]
    sizes = []
    while sum(sizes) < 3:
        d = rng.choice([d for d in divisors if d <= 4 - sum(sizes)] or [1])
        sizes.append(d)
    n_pairs = sum(sizes)
    term = tuple(v for _ in range(n_pairs) for v in (1, 0))
    gen = _cyclic_edge_action(sizes)
    return 2, 0, term, sizes, gen, n_pairs


def random_instance(seed, max_rank=3) -> MarkedGGraph:
    """Seeded admissible marked G-graph with a scrambled basis.

    Shapes are roses and theta-like graphs with a cyclic group permuting
    edge blocks; the marking is a spanning-tree basis pushed through a
    random product of Nielsen moves.  Deterministic per seed.
    """
    rng = random.Random(seed)
    while True:
        order = rng.choice((1, 1, 2, 2, 3, 4, 6))
        shape = rng.choice([_shape_rose, _shape_theta])
        n_vertices, base, term, sizes, gen, n_pairs = shape(rng, order)
        rank = n_pairs - n_vertices + 1
        if rank < 1 or rank > max_rank:
            continue
        group = Group.trivial() if order == 1 else Group.cyclic(order)
        action = [tuple(range(2 * n_pairs))]
        for _ in range(order - 1):
            prev = action[-1]
            action.append(tuple(gen[prev[e]] for e in range(2 * n_pairs)))
        g = GGraph(n_vertices, base, term, group, tuple(action))
        if g.validate():
            continue
        tree_path = spanning_tree(g)
        tree = {path[-1] // 2 for path in tree_path.values() if path}
        nontree = sorted(p for p in range(n_pairs) if p not in tree)
        paths = []
        for p in nontree:
            e = 2 * p
            loop = tree_path[g.init(e)] + (e,) + tuple(
                x ^ 1 for x in reversed(tree_path[g.term[e]]))
            paths.append(reduce_path(loop))
        m = MarkedGGraph(g, tuple(paths))
        if m.validate():
            continue
        m = _scramble_marking(m, rng, rng.randrange(0, 5))
        if m.validate():
            continue
        return m
