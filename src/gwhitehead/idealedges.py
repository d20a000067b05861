"""Ideal edges: enumeration, D(alpha), invertibility, compatibility, crossing.

An ideal edge is a subset of the directed edges ending at one vertex,
subject to cardinality bounds (relaxed at the basepoint, where all but
one edge may be pulled away) and coherence under the vertex stabilizer.
Orbits of ideal edges are the vertices of the blow-up poset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ggraph import GGraph, rev
from .marking import MarkedGGraph


@dataclass(frozen=True)
class IdealEdge:
    vertex: int
    edges: frozenset

    def key(self):
        return (self.vertex, tuple(sorted(self.edges)))


@dataclass(frozen=True)
class IdealPair:
    """An ideal edge together with a legal collapse target in D(alpha)."""

    edge: IdealEdge
    collapse_target: int


def _card_ok(g: GGraph, v, edges):
    comp = len(g.edges_at(v)) - len(edges)
    if v == g.basepoint:
        return len(edges) >= 2 and comp >= 1
    return len(edges) >= 2 and comp >= 2


def is_ideal_edge(g: GGraph, v, edges) -> bool:
    """Cardinality bounds plus orbit coherence under the vertex stabilizer."""
    edges = frozenset(edges)
    ev = g.edge_set_at(v)
    if not edges <= ev:
        return False
    if not _card_ok(g, v, edges):
        return False
    trans = set()
    for x in g.group.elements:
        if g.act_vertex(x, v) == v:
            img = g.act_edge_set(x, edges)
            if img != edges and img & edges:
                return False
            trans.add(img)
    # the blown-up vertex must stay admissible: it keeps the edges not
    # covered by any translate plus one new edge per translate
    covered = frozenset().union(*trans)
    residual = len(ev - covered)
    need = 2 if v == g.basepoint else 3
    return residual + len(trans) >= need


def stab_set(g: GGraph, edges):
    edges = frozenset(edges)
    return tuple(x for x in g.group.elements if g.act_edge_set(x, edges) == edges)


def _orbit(g: GGraph, alpha: IdealEdge):
    """(translates, orbit union) of alpha, filling the graph's memo.

    Every translate of alpha has the same pair, so one miss fills the
    entries of the whole orbit.
    """
    seen = {}
    for x in g.group.elements:
        s = g.act_edge_set(x, alpha.edges)
        seen[(g.act_vertex(x, alpha.vertex), tuple(sorted(s)))] = s
    trans = tuple(IdealEdge(v, s) for (v, _), s in sorted(seen.items()))
    out = (trans, frozenset().union(*seen.values()))
    g._translates.update(dict.fromkeys(trans, out))
    return out


def translates(g: GGraph, alpha: IdealEdge):
    """Distinct translates g*alpha, as a tuple of IdealEdges sorted by key.
    Memoised on the graph."""
    return (g._translates.get(alpha) or _orbit(g, alpha))[0]


def orbit_union(g: GGraph, alpha: IdealEdge):
    """All directed edges covered by some translate of alpha.  Memoised on
    the graph with the translates."""
    return (g._translates.get(alpha) or _orbit(g, alpha))[1]


def canonical_rep(g: GGraph, alpha: IdealEdge) -> IdealEdge:
    """The translate of alpha with the least key."""
    return translates(g, alpha)[0]


def translate_at(g: GGraph, alpha: IdealEdge, v):
    """The translate of alpha at vertex v with the least key, or None."""
    return next((t for t in translates(g, alpha) if t.vertex == v), None)


def translate_through(g: GGraph, alpha: IdealEdge, e):
    """The translate of alpha containing directed edge e, or None."""
    return next((t for t in translates(g, alpha) if e in t.edges), None)


def enumerate_ideal_edges(m: MarkedGGraph):
    """All ideal edge orbits, one canonical representative each."""
    g = m.graph
    reps = {}
    for v in range(g.n_vertices):
        ev = g.edges_at(v)
        for r in range(2, len(ev) + 1):
            for combo in itertools.combinations(ev, r):
                if is_ideal_edge(g, v, combo):
                    rep = canonical_rep(g, IdealEdge(v, frozenset(combo)))
                    reps[rep.key()] = rep
    return [reps[k] for k in sorted(reps)]


def d_set(m: MarkedGGraph, alpha: IdealEdge):
    """D(alpha): collapse candidates with full stabilizer and reverse outside the orbit.

    alpha must be an ideal edge.  Its translates are then equal or
    disjoint, so stab(a) lies inside stab(alpha) for a in alpha, and the
    two are equal exactly when |stab a| [G:stab alpha] = |G|.
    """
    g = m.graph
    trans, union = g._translates.get(alpha) or _orbit(g, alpha)
    stab_order = g.group.order // len(trans)
    return frozenset(
        a for a in alpha.edges
        if len(g.stab_edge(a)) == stab_order and rev(a) not in union
    )


def is_invertible(g: GGraph, alpha: IdealEdge):
    """Whether E_v - alpha is an ideal edge not inside the orbit of alpha.

    Returns (flag, inverse IdealEdge or None).
    """
    comp = g.edge_set_at(alpha.vertex) - alpha.edges
    if not is_ideal_edge(g, alpha.vertex, comp):
        return False, None
    if comp <= orbit_union(g, alpha):
        return False, None
    return True, IdealEdge(alpha.vertex, comp)


def inverse_orbit(g: GGraph, alpha: IdealEdge):
    """The canonical rep of the inverse orbit of alpha, or None when alpha
    is not invertible."""
    inv, ainv = is_invertible(g, alpha)
    return canonical_rep(g, ainv) if inv else None


def _orbit_contained(g, A, B):
    """Every translate of A is contained in some translate of B."""
    tb = translates(g, B)
    for ta in translates(g, A):
        if not any(ta.vertex == b.vertex and ta.edges <= b.edges for b in tb):
            return False
    return True


def _is_inverse_orbit(g, alpha, beta):
    """Whether one orbit is the inverse of the other (symmetric)."""
    return (inverse_orbit(g, alpha) == canonical_rep(g, beta)
            or inverse_orbit(g, beta) == canonical_rep(g, alpha))


def compatible(g: GGraph, alpha: IdealEdge, beta: IdealEdge) -> bool:
    """Orbit compatibility: nesting, or disjointness away from the inverse pair.

    Disjoint inverse pairs are still compatible when both live at the
    basepoint.
    """
    if _orbit_contained(g, alpha, beta) or _orbit_contained(g, beta, alpha):
        return True
    if orbit_union(g, alpha) & orbit_union(g, beta):
        return False
    if alpha.vertex == g.basepoint and beta.vertex == g.basepoint:
        return True
    return not _is_inverse_orbit(g, alpha, beta)


def pre_compatible(g: GGraph, alpha: IdealEdge, beta: IdealEdge) -> bool:
    """Compatible, or one is invertible with its inverse inside the other."""
    if compatible(g, alpha, beta):
        return True
    ainv = inverse_orbit(g, alpha)
    if ainv is not None and _orbit_contained(g, ainv, beta):
        return True
    binv = inverse_orbit(g, beta)
    return binv is not None and _orbit_contained(g, binv, alpha)


@dataclass(frozen=True)
class Crossing:
    """Double-coset decomposition of the intersection of two ideal edge orbits."""

    number: int              # N(G alpha, G beta)
    components: tuple        # nonempty gamma_i, as frozensets
    dual_components: tuple   # matching gamma_i'


def crossing(g: GGraph, alpha: IdealEdge, beta: IdealEdge) -> Crossing:
    """Intersection components of alpha with the orbit of beta.

    beta is first translated to the vertex of alpha; if no translate lives
    there the edges never cross (N = 0).
    """
    beta_t = translate_at(g, beta, alpha.vertex)
    if beta_t is None:
        return Crossing(0, (), ())
    P = stab_set(g, alpha.edges)
    Q = stab_set(g, beta_t.edges)
    comps = []
    duals = []
    for x in g.group.double_coset_reps(P, Q):
        xb = g.act_edge_set(x, beta_t.edges)
        gamma = alpha.edges & frozenset().union(
            *(g.act_edge_set(p, xb) for p in P))
        xi_inv_a = g.act_edge_set(g.group.inv(x), alpha.edges)
        gamma_d = beta_t.edges & frozenset().union(
            *(g.act_edge_set(q, xi_inv_a) for q in Q))
        if gamma:
            comps.append(gamma)
            duals.append(gamma_d)
    comps_duals = sorted(zip(comps, duals), key=lambda cd: sorted(cd[0]))
    comps = tuple(c for c, _ in comps_duals)
    duals = tuple(d for _, d in comps_duals)
    return Crossing(len(comps), comps, duals)
