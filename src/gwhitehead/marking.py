"""Markings of G-graphs by a free group basis.

A marking stores one reduced edge loop at the basepoint per basis
generator.  Applying a group element to all basis loops realizes that
element as a free group automorphism, so a marked G-graph is a point of
the fixed set of the realized subgroup of Aut(F_n).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import freegroup as fg
from .errors import ValidationError
from .ggraph import GGraph, collapse, rev


def reduce_path(steps):
    """Cancel adjacent (e, ~e) backtracks."""
    out = []
    for e in steps:
        if out and out[-1] == rev(e):
            out.pop()
        else:
            out.append(e)
    return tuple(out)


def join_reduced(head, tail):
    """Reduced product of two reduced paths: cancel at the junction only.

    Both halves are reduced, so the only backtracks are head[-1-i] against
    tail[i] for the longest such run; what is left is reduced.  The paths
    are tuples or bytes of edge ids, and the product has their type.
    """
    if not (head and tail and head[-1] == tail[0] ^ 1):
        return head + tail
    k, limit = 1, min(len(head), len(tail))
    while k < limit and head[-1 - k] == tail[k] ^ 1:
        k += 1
    return head[:len(head) - k] + tail[k:]


def is_consecutive(g: GGraph, steps, start):
    at = start
    for e in steps:
        if g.init(e) != at:
            return False
        at = g.term[e]
    return True


def path_inv(steps):
    return tuple(rev(e) for e in reversed(steps))


def cyclic_canonical(steps):
    """Lex-least rotation; canonical form of a cyclically reduced loop.

    The least rotation starts at a least step, so only the occurrences of
    that step are tried.  steps is a tuple or bytes, and so is the result.
    """
    if not steps:
        return steps
    low = min(steps)
    i = steps.index(low)
    best = steps[i:] + steps[:i]
    for _ in range(steps.count(low) - 1):
        i = steps.index(low, i + 1)
        rotation = steps[i:] + steps[:i]
        if rotation < best:
            best = rotation
    return best


@dataclass(frozen=True)
class MarkedGGraph:
    """G-graph plus basis loops; the realized subgroup is read off the action."""

    graph: GGraph
    basis_paths: tuple  # one reduced loop at the basepoint per generator

    def __post_init__(self):
        # moves.reductive_scan's (R, best) per (horizon, kind),
        # starcomplex._forest_masks's forests per (sorted pool, cap), and
        # moves.blow_up's (blown-up graph, BlowUpInfo) per ideal edge.  Plain
        # attributes, not fields, so equality, hashing and repr ignore them.
        object.__setattr__(self, "_scans", {})
        object.__setattr__(self, "_forests", {})
        object.__setattr__(self, "_blowups", {})

    @property
    def n(self):
        return len(self.basis_paths)

    def validate(self):
        g = self.graph
        bad = list(g.validate())
        for j, p in enumerate(self.basis_paths):
            if not is_consecutive(g, p, g.basepoint) or (p and g.term[p[-1]] != g.basepoint):
                bad.append(f"marking path for x{j + 1} is not a loop at the basepoint")
            if reduce_path(p) != tuple(p):
                bad.append(f"marking path for x{j + 1} is not reduced")
        if bad:
            return bad
        # rank of pi_1 must match the basis size
        rank = g.n_pairs - g.n_vertices + 1
        if rank != self.n:
            bad.append(f"graph has rank {rank} but marking has {self.n} generators")
            return bad
        tree = {path[-1] // 2 for path in spanning_tree(g).values() if path}
        words = [path_to_subgroup_word(g, tree, p) for p in self.basis_paths]
        if not fg.generates_free_group(words, g.n_pairs - len(tree)):
            bad.append("marking loops do not generate the fundamental group")
        return bad

    def require_valid(self):
        bad = self.validate()
        if bad:
            raise ValidationError("; ".join(bad))


def spanning_tree(g: GGraph):
    """BFS spanning tree from the basepoint, as {vertex: tree path from *}.

    Vertices come in breadth-first order; each is reached by the first edge
    (in increasing id) that leaves an earlier vertex, so the last step of
    each path is a tree edge.  Every path is reduced and unique.
    """
    paths = {g.basepoint: ()}
    queue = [g.basepoint]
    for v in queue:
        for e in range(g.n_edges):
            if g.init(e) == v and g.term[e] not in paths:
                paths[g.term[e]] = paths[v] + (e,)
                queue.append(g.term[e])
    if len(paths) != g.n_vertices:
        raise ValidationError("graph is not connected")
    return paths


def canonicalize(m: MarkedGGraph) -> MarkedGGraph:
    """Renumber vertices in breadth-first order from the basepoint."""
    g = m.graph
    vmap = {old: new for new, old in enumerate(spanning_tree(g))}
    term = tuple(vmap[t] for t in g.term)
    vnames = [None] * g.n_vertices
    for old, new in vmap.items():
        vnames[new] = "*" if old == g.basepoint else f"v{new}"
    g2 = GGraph(g.n_vertices, 0, term, g.group, g.edge_action,
                tuple(vnames), g.pair_names)
    return MarkedGGraph(g2, m.basis_paths)


def path_to_subgroup_word(g: GGraph, tree, steps):
    """Read a loop as a word in the non-tree pair generators."""
    nontree = sorted(p for p in range(g.n_pairs) if p not in tree)
    gen = {p: i + 1 for i, p in enumerate(nontree)}
    out = []
    for e in steps:
        p = e // 2
        if p in tree:
            continue
        out.append(gen[p] if e % 2 == 0 else -gen[p])
    return fg.reduce_word(out)


def path_of_word(m: MarkedGGraph, word):
    """The unique reduced basepoint loop representing a word."""
    steps = []
    for l in word:
        p = m.basis_paths[abs(l) - 1]
        steps.extend(p if l > 0 else path_inv(p))
    return reduce_path(steps)


def cyclic_reduction(steps):
    """Cyclic reduction of a reduced basepoint loop: its matching ends
    (first step the reverse of the last, and so on inward) stripped, the
    rest left in the rotation the path gives.  steps is a tuple or bytes,
    and so is the result; steps itself when nothing is stripped."""
    k, end = 0, len(steps) - 1
    while k < end - k and steps[k] == steps[end - k] ^ 1:
        k += 1
    return steps[k:end + 1 - k] if k else steps


def cyclic_loop(steps):
    """Rotation-canonical cyclic reduction of a reduced basepoint loop: the
    lex-least rotation of its cyclic_reduction, in the type given."""
    return cyclic_canonical(cyclic_reduction(steps))


def loop_of_class(m: MarkedGGraph, word):
    """Cyclically reduced loop of the conjugacy class of a word, rotation-
    canonical, so a class invariant: the loops of conjugate words reduce to
    rotations of one loop, and cyclic_loop takes the least of them.  The
    norm build's out item of a class is the same loop in the rotation its
    representative's path gives (norms, "Items.")."""
    return cyclic_loop(path_of_word(m, word))


def collapse_marked(m: MarkedGGraph, forest):
    """Collapse an invariant forest and push the marking forward."""
    g2, vmap, emap = collapse(m.graph, forest)
    directed = {2 * p for p in forest} | {2 * p + 1 for p in forest}
    paths = tuple(
        reduce_path([emap[e] for e in p if e not in directed])
        for p in m.basis_paths
    )
    return MarkedGGraph(g2, paths), vmap, emap
