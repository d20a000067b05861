"""Blow-ups, Whitehead moves, reductivity, and greedy norm descent.

A Whitehead move (G alpha, G a) blows up the orbit of an ideal edge alpha
and then collapses the orbit of a collapse target a in D(alpha).  The
norm changes by [G:stab(alpha)] * (|alpha| - |a|) per coordinate, which is
what the reductivity value measures (with the opposite sign).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisNotMet, PropertyViolation, ValidationError
from .ggraph import GGraph, rev
from .idealedges import (IdealEdge, IdealPair, canonical_rep, d_set,
                         is_ideal_edge, orbit_targets, translates)
from .marking import MarkedGGraph, collapse_marked, reduce_path
from .norms import NormVector, calculator
from . import ggraph


@dataclass(frozen=True)
class BlowUpInfo:
    """Bookkeeping for one blow-up: the new edge created per translate."""

    new_edges: tuple        # directed edge id e(g alpha) per translate, new -> old
    translate_sets: tuple   # matching frozensets g alpha (before re-termination)

    def edge_for(self, tset):
        return self.new_edges[self.translate_sets.index(tset)]


# The verdict word of the sign of the first nonzero reductivity coordinate.
VERDICTS = {1: "reductive", 0: "null-at-horizon", -1: "not-reductive"}


def blow_up(m: MarkedGGraph, alpha: IdealEdge):
    """Pull the edges of each translate of alpha away along a new edge.

    Returns (marked graph, BlowUpInfo).  Collapsing the orbit of the new
    pairs recovers the input exactly.  The pair is kept on m per alpha
    (m._blowups), so a repeat call returns the same objects: whitehead
    blows alpha up once for every a in D(alpha), and the blown-up graph is
    built and validated only once.
    """
    found = m._blowups.get(alpha)
    if found is not None:
        return found
    g = m.graph
    trans = translates(g, alpha)  # ValidationError unless alpha is ideal
    sets = [t.edges for t in trans]
    moved = {}
    for i, s in enumerate(sets):
        for a in s:
            if a in moved:
                raise ValidationError("orbit translates overlap")
            moved[a] = i

    n_old_pairs = g.n_pairs
    term = list(g.term)
    for a, i in moved.items():
        term[a] = g.n_vertices + i
    # new pair i: directed 2*(n_old_pairs+i) runs new vertex -> old vertex
    for i, t in enumerate(trans):
        term.extend([t.vertex, g.n_vertices + i])

    set_index = {frozenset(s): i for i, s in enumerate(sets)}
    action = []
    for x in g.group.elements:
        perm = list(g.edge_action[x])
        for s in sets:
            j = set_index[g.act_edge_set(x, s)]
            perm.extend([2 * (n_old_pairs + j), 2 * (n_old_pairs + j) + 1])
        action.append(tuple(perm))

    used = set(g.pair_names)
    new_names = []
    k = 0
    for i in range(len(trans)):
        while f"w{k}" in used:
            k += 1
        new_names.append(f"w{k}")
        used.add(f"w{k}")
        k += 1
    vnames = g.vertex_names + tuple(f"u{i}" for i in range(len(trans)))
    g2 = GGraph(g.n_vertices + len(trans), g.basepoint, tuple(term), g.group,
                tuple(action), vnames, g.pair_names + tuple(new_names))

    new_edge = [2 * (n_old_pairs + i) for i in range(len(trans))]
    paths = []
    for p in m.basis_paths:
        steps = []
        for d in p:
            if rev(d) in moved:
                steps.append(rev(new_edge[moved[rev(d)]]))
            steps.append(d)
            if d in moved:
                steps.append(new_edge[moved[d]])
        paths.append(reduce_path(steps))
    m2 = MarkedGGraph(g2, tuple(paths))
    m2.require_valid()
    found = m._blowups[alpha] = (
        m2, BlowUpInfo(tuple(new_edge), tuple(frozenset(s) for s in sets)))
    return found


def whitehead(m: MarkedGGraph, alpha: IdealEdge, a: int):
    """Blow up the orbit of alpha, then collapse the orbit of a.

    Requires a in D(alpha); the collapsed orbit is a forest in the blown-up
    graph by construction.
    """
    if a not in d_set(m, alpha):  # ValidationError unless alpha is ideal
        raise HypothesisNotMet(
            f"collapse edge {m.graph.edge_name(a)} is not in D(alpha)")
    m2, _ = blow_up(m, alpha)
    pairs = frozenset(e // 2 for e in m2.graph.orbit_edge(a))
    for p in pairs:
        if m2.graph.is_loop(2 * p):
            raise HypothesisNotMet("collapse target became a loop after blow-up")
    m3, _, _ = collapse_marked(m2, pairs)
    m3.require_valid()
    return m3


def reductivity(m: MarkedGGraph, alpha: IdealEdge, a: int, kind, horizon) -> NormVector:
    """[G:stab(alpha)] * (|a| - |alpha|), truncated at the horizon."""
    if a not in d_set(m, alpha):  # ValidationError unless alpha is ideal
        raise HypothesisNotMet("collapse edge is not in D(alpha)")
    index = len(translates(m.graph, alpha))  # [G:stab alpha], by orbit-stabilizer
    return next(_reductivities(calculator(m, horizon), alpha, (a,), kind, index))


def _reductivities(calc, alpha, targets, kind, index):
    """The reductivity of each target in turn, for callers that took the
    targets from D(alpha) and index = [G:stab alpha] from its orbit.
    |alpha| is computed once, on the first target."""
    alpha_abs = calc.set_abs(alpha.edges, kind)
    for a in targets:
        yield (calc.edge_abs(a, kind) - alpha_abs).scale(index)


def is_reductive_edge(m, edges, vertex, kind, horizon):
    """Is (vertex, edges) an ideal edge with some reductive collapse target?

    That holds exactly when the canonical rep of its orbit is in R, the
    first part of reductive_scan: the targets of a translate x alpha are
    the translates x a of the targets a of alpha, with equal values, as
    |x a| = |a| and |x alpha| = |alpha| (the norms count G-orbit sums).
    The scan is kept on m, so each edge set after the first is a read of R.
    """
    if not is_ideal_edge(m.graph, vertex, edges):
        return False
    alpha = canonical_rep(m.graph, IdealEdge(vertex, frozenset(edges)))
    return alpha in reductive_scan(m, horizon, kind)[0]


def reductive_scan(m: MarkedGGraph, horizon, kind="tot"):
    """(R, best) from one packed comparison per candidate pair, a NormVector
    only for reductive pairs.

    R is the frozenset of orbit reps with some reductive collapse target.
    A pair (alpha, a) is reductive when the first nonzero coordinate of
    |a| - |alpha| is positive ([G:stab(alpha)] > 0 keeps the sign), which
    NormCalculator.abs_sign decides on the packed ints.
    best is None when nothing reduces, else (IdealPair, NormVector) for
    the reductivity-maximizing pair: lexicographic comparison at the
    horizon, equal values resolved by the least (vertex, sorted edges,
    collapse target) key so runs are reproducible.  The pairs come in
    increasing (vertex, sorted edges, a) key order, so the first of equal
    values is kept.  The reps, their D(alpha) and [G:stab alpha] are read
    off the graph's orbit table on masks (idealedges.orbit_targets), and an
    IdealEdge is made only for the reps in R.  abs_sign reads |alpha| once
    per rep with D(alpha) nonempty, from the calculator's subset tables,
    and |alpha| is unpacked once per rep in R.  The answer is kept on m,
    so a second scan of the same marked graph at the same horizon and kind
    reads it back.
    """
    scan = m._scans.get((horizon, kind))
    if scan is not None:
        return scan
    R, best, calc = set(), None, None
    for vertex, edges, targets, index in orbit_targets(m.graph):
        calc = calc or calculator(m, horizon)
        edges = frozenset(edges)
        sign = calc.abs_sign(edges, kind)
        reductive = [a for a in targets if sign(a) > 0]
        if not reductive:
            continue
        alpha = IdealEdge(vertex, edges)
        R.add(alpha)
        for a, r in zip(reductive, _reductivities(calc, alpha, reductive, kind, index)):
            if best is None or r.coords > best[1].coords:
                best = (IdealPair(alpha, a), r)
    scan = m._scans[horizon, kind] = (frozenset(R), best)
    return scan


def max_reductive_pair(m: MarkedGGraph, horizon, kind="tot"):
    """The reductivity-maximizing ideal pair of reductive_scan, or None."""
    best = reductive_scan(m, horizon, kind)[1]
    return None if best is None else best[0]


@dataclass(frozen=True)
class MoveRecord:
    step: int
    kind: str        # "collapse" or "whitehead"
    description: str
    norm_out: tuple
    norm_aut: tuple


def greedy_reduce(m: MarkedGGraph, horizon, max_steps=500):
    """Collapse invariant forests, then apply maximal reductive moves.

    Every step must strictly decrease the tot-norm at the horizon; the
    move log records each step together with both norms after it.  At
    most max_steps moves are made; HypothesisNotMet is raised only when
    one more is needed.
    """
    log = []
    step = 0

    def norms_of(mm):
        return calculator(mm, horizon).all_norms()

    _, _, tot_before = norms_of(m)
    while True:
        forest = ggraph.maximal_invariant_forest(m.graph)
        best = None if forest else reductive_scan(m, horizon)[1]
        if not forest and best is None:
            break
        if step >= max_steps:
            raise HypothesisNotMet(f"step budget {max_steps} exhausted")
        if forest:
            names = ",".join(sorted(m.graph.pair_names[p] for p in forest))
            m, _, _ = collapse_marked(m, forest)
            desc = f"collapse forest {{{names}}}"
        else:
            pair = best[0]
            names = ",".join(sorted(m.graph.edge_name(e) for e in pair.edge.edges))
            desc = (f"whitehead ({m.graph.vertex_names[pair.edge.vertex]}:"
                    f"{{{names}}}, {m.graph.edge_name(pair.collapse_target)})")
            m = whitehead(m, pair.edge, pair.collapse_target)
        step += 1
        out_v, aut_v, tot_after = norms_of(m)
        if not tot_after.coords < tot_before.coords:
            raise PropertyViolation(f"step {step} ({desc}) did not decrease the tot-norm")
        log.append(MoveRecord(step, "collapse" if forest else "whitehead",
                              desc, out_v.coords, aut_v.coords))
        tot_before = tot_after
    return m, log
