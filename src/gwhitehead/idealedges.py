"""Ideal edges: enumeration, D(alpha), invertibility, compatibility, crossing.

An ideal edge is a subset of the directed edges ending at one vertex,
subject to cardinality bounds (relaxed at the basepoint, where all but
one edge may be pulled away) and coherence under the vertex stabilizer.
Orbits of ideal edges are the vertices of the blow-up poset.

Orbit table.  Each graph keeps one table of its ideal edges on int masks
over E_v (bit i stands for ``edges_at(v)[i]``), built on the first read.
The group acts on masks through per-element bit maps.  The table tests
every mask at every vertex once, in key order (sorted by its _bits as a
byte string), and files each ideal one with all its translates under one
orbit, which holds the translates (their number is [G:stab alpha], the
one source of orbit sizes) and the orbit union per vertex; the first
mask of an orbit met is its canonical rep, so the reps come out in key
order.  enumerate_ideal_edges, is_ideal_edge and d_set are reads of it,
and moves.reductive_scan takes each rep with D(rep) and [G:stab rep]
from it (orbit_targets) without making an IdealEdge.

One gate.  Every read of an ideal edge's orbit (translates, orbit_union,
canonical_rep, translate_at, translate_through, d_set, and through them
moves.blow_up, whitehead and reductivity) goes through the table's entry
(_orbit_of), and an edge set that is not an ideal edge has none: it
raises ValidationError("not an ideal edge").
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
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


class _Orbit:
    """One orbit of ideal edges: its distinct translates as (vertex, mask)
    pairs, and its union as the mask, per vertex, of the edges some
    translate covers."""

    __slots__ = ("translates", "union")

    def __init__(self, translates, union):
        self.translates = translates
        self.union = union


def _image(bits, mask):
    """The image of a mask under a bit map (None: the identity on E_v)."""
    if bits is None:
        return mask
    out = 0
    for i, b in enumerate(bits):
        if mask >> i & 1:
            out |= b
    return out


def _bits(mask):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _OrbitTable:
    """The ideal edges of one graph on masks; see the module docstring.

    ``at[v]`` holds (e, the bit of e, the vertex of rev e, the bit of rev e
    there) for each e in E_v, increasing.  ``maps[v]`` holds,
    per group element x, (x v, bit map of x on E_v): the bit of x e at x v
    for each e in E_v, or None where x fixes v and every edge at it.
    ``stab[v]`` holds the other bit maps of the elements fixing v, and
    ``by_stab[v]`` maps each edge-stabilizer order to the mask of the edges
    at v with it.  ``ideal[v]`` maps each ideal mask at v to its _Orbit,
    and ``reps`` lists the canonical rep (vertex, mask) of each orbit in
    key order.

    The masks are tested vertex by vertex, each vertex's in key order, and
    the translates of an ideal one are filed with it.  An orbit is thus
    first met at its canonical rep: at the least vertex it reaches, and
    there at the least edge set of its translates.
    """

    def __init__(self, g: GGraph):
        # no reference back to g, which holds the table
        self.basepoint, self.order = g.basepoint, g.group.order
        bit = g._edge_bit
        self.at, self.maps, self.stab, self.by_stab = [], [], [], []
        for v in range(g.n_vertices):
            ev = g.edges_at(v)
            self.at.append(tuple((e, bit[e], g.term[rev(e)], bit[rev(e)]) for e in ev))
            ident = tuple(bit[e] for e in ev)
            maps = []
            for x, act in enumerate(g.edge_action):
                w = g.act_vertex(x, v)
                bits = tuple(bit[act[e]] for e in ev)
                maps.append((w, None if w == v and bits == ident else bits))
            self.maps.append(tuple(maps))
            self.stab.append(tuple(bits for w, bits in maps if w == v and bits))
            by_stab = {}
            for e in ev:
                k = len(g.stab_edge(e))
                by_stab[k] = by_stab.get(k, 0) | bit[e]
            self.by_stab.append(by_stab)
        self.ideal = [{} for _ in range(g.n_vertices)]
        self.reps = []
        for v, found in enumerate(self.ideal):
            # bytes keys sort as tuples would but fill no tuple free list
            for mask in sorted(range(1, 1 << len(self.at[v])),
                               key=lambda x: bytes(_bits(x))):
                if mask in found or not self.is_ideal(v, mask):
                    continue
                trans = tuple({(w, _image(bits, mask)) for w, bits in self.maps[v]})
                union = [0] * len(self.at)
                for w, m in trans:
                    union[w] |= m
                orbit = _Orbit(trans, tuple(union))
                for w, m in trans:
                    self.ideal[w][m] = orbit
                self.reps.append((v, mask))
        self.rep_edges = None  # the IdealEdge reps, made by enumerate_ideal_edges

    def edges(self, v, mask):
        """The edges of a mask at v, increasing."""
        return tuple([e for e, b, _, _ in self.at[v] if mask & b])

    def is_ideal(self, v, mask):
        """Cardinality bounds, coherence under the stabilizer of v (each
        image equal to mask or disjoint from it) and the residual bound."""
        d = len(self.at[v])
        k = mask.bit_count()
        base = v == self.basepoint
        if k < 2 or d - k < (1 if base else 2):
            return False
        images = {mask}
        for bits in self.stab[v]:
            img = _image(bits, mask)
            if img != mask and img & mask:
                return False
            images.add(img)
        covered = 0
        for img in images:
            covered |= img
        # the blown-up vertex must stay admissible: it keeps the edges not
        # covered by any translate plus one new edge per translate
        return d - covered.bit_count() + len(images) >= (2 if base else 3)

    def d(self, v, mask, orbit):
        """D of the ideal edge (v, mask) in orbit, as increasing edges."""
        todo = mask & self.by_stab[v].get(self.order // len(orbit.translates), 0)
        return tuple([a for a, b, w, rb in self.at[v]
                      if todo & b and not orbit.union[w] & rb])


def _mask(g: GGraph, v, edges):
    """The mask of edges over E_v, or None when one of them is not in E_v."""
    if not g.edge_set_at(v).issuperset(edges):
        return None
    return g.edge_masks(edges).get(v, 0)


def _table(g: GGraph) -> _OrbitTable:
    if not g._orbit_table:
        g._orbit_table.append(_OrbitTable(g))
    return g._orbit_table[0]


def is_ideal_edge(g: GGraph, v, edges) -> bool:
    """Cardinality bounds plus orbit coherence under the vertex stabilizer,
    read off the orbit table (_OrbitTable.is_ideal)."""
    return _mask(g, v, edges) in _table(g).ideal[v]


def stab_set(g: GGraph, edges):
    """The stabilizer of an edge set: the group elements, increasing, that
    map it onto itself.  Made once per edge set, then kept on the graph."""
    edges = frozenset(edges)
    S = g._stab_sets.get(edges)
    if S is None:
        S = g._stab_sets[edges] = tuple(
            x for x in g.group.elements if g.act_edge_set(x, edges) == edges)
    return S


def _orbit_of(g: GGraph, alpha: IdealEdge):
    """(mask, _Orbit) of alpha, the table's entry: the one gate of every
    orbit read, which raises ValidationError when alpha is not an ideal
    edge (an edge outside E_v included)."""
    mask = _mask(g, alpha.vertex, alpha.edges)
    orbit = _table(g).ideal[alpha.vertex].get(mask)
    if orbit is None:
        raise ValidationError("not an ideal edge")
    return mask, orbit


def _memo(g: GGraph, orbit: _Orbit):
    """(translates, orbit union) of an orbit as IdealEdges sorted by key and
    a frozenset, kept in the graph's memo under every translate."""
    t = _table(g)
    trans = tuple(IdealEdge(v, frozenset(edges))
                  for v, edges in sorted((w, t.edges(w, m)) for w, m in orbit.translates))
    out = (trans, frozenset().union(*(a.edges for a in trans)))
    g._translates.update(dict.fromkeys(trans, out))
    return out


def _orbit(g: GGraph, alpha: IdealEdge):
    """(translates, orbit union) of alpha, filling the graph's memo.

    Every translate of alpha has the same pair, so one miss fills the
    entries of the whole orbit.
    """
    return _memo(g, _orbit_of(g, alpha)[1])


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
    """All ideal edge orbits, one canonical representative each, in key
    order: a read of the orbit table.  The first call makes the reps, which
    fills the graph's translates memo for every translate."""
    t = _table(m.graph)
    if t.rep_edges is None:
        t.rep_edges = tuple(_memo(m.graph, t.ideal[v][mask])[0][0] for v, mask in t.reps)
    return list(t.rep_edges)


def orbit_targets(g: GGraph):
    """(vertex, edges, D, [G:stab alpha]) of the canonical rep alpha of each
    ideal edge orbit with D nonempty, in key order, edges and D increasing:
    read off the orbit table, making no IdealEdge.  The index is the number
    of translates the orbit holds."""
    t = _table(g)
    for v, mask in t.reps:
        orbit = t.ideal[v][mask]
        targets = t.d(v, mask, orbit)
        if targets:
            yield v, t.edges(v, mask), targets, len(orbit.translates)


def d_set(m: MarkedGGraph, alpha: IdealEdge):
    """D(alpha): collapse candidates with full stabilizer and reverse outside the orbit.

    alpha must be an ideal edge (ValidationError otherwise, from the orbit
    table).  Its translates are then equal or disjoint, so stab(a) lies
    inside stab(alpha) for a in alpha, and the two are equal exactly when
    |stab a| [G:stab alpha] = |G|.
    """
    mask, orbit = _orbit_of(m.graph, alpha)
    return frozenset(_table(m.graph).d(alpha.vertex, mask, orbit))


def is_invertible(g: GGraph, alpha: IdealEdge):
    """The inverse of alpha, E_v - alpha as an IdealEdge, when that is an
    ideal edge not inside the orbit of alpha; else None."""
    comp = g.edge_set_at(alpha.vertex) - alpha.edges
    if not is_ideal_edge(g, alpha.vertex, comp) or comp <= orbit_union(g, alpha):
        return None
    return IdealEdge(alpha.vertex, comp)


def inverse_orbit(g: GGraph, alpha: IdealEdge):
    """The canonical rep of the inverse orbit of alpha, or None when alpha
    is not invertible: two reads of the orbit table."""
    inv = is_invertible(g, alpha)
    return None if inv is None else canonical_rep(g, inv)


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
    pairs = []  # (gamma, gamma') per double coset with gamma nonempty
    for x in g.group.double_coset_reps(P, Q):
        xb = g.act_edge_set(x, beta_t.edges)
        gamma = alpha.edges & frozenset().union(
            *(g.act_edge_set(p, xb) for p in P))
        xi_inv_a = g.act_edge_set(g.group.inv(x), alpha.edges)
        gamma_d = beta_t.edges & frozenset().union(
            *(g.act_edge_set(q, xi_inv_a) for q in Q))
        if gamma:
            pairs.append((gamma, gamma_d))
    pairs.sort(key=lambda cd: sorted(cd[0]))
    return Crossing(len(pairs), tuple(c for c, _ in pairs), tuple(d for _, d in pairs))
