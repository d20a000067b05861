"""Pointed graphs with an edge-pair involution and a finite group action.

Directed edges are ints 0..2m-1; edge e and its reverse e^1 form a pair
(pair index e//2).  ``term[e]`` is the terminal vertex of e, so the
initial vertex of e is ``term[e^1]`` and E_v is the set of directed edges
ending at v.  The group acts by basepoint-preserving graph automorphisms
without inversions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ValidationError


def rev(e: int) -> int:
    return e ^ 1


@dataclass(frozen=True)
class Group:
    """Finite group given by a multiplication table; element 0 is the identity."""

    mult: tuple  # mult[g][h] = g*h
    names: tuple = None

    def __post_init__(self):
        k = len(self.mult)
        if self.names is None:
            object.__setattr__(self, "names", tuple(f"g{i}" for i in range(k)))
        for g in range(k):
            if self.mult[0][g] != g or self.mult[g][0] != g:
                raise ValidationError("element 0 is not a two-sided identity")
        for g in range(k):
            if 0 not in self.mult[g]:
                raise ValidationError(f"element {g} has no inverse")
        for g in range(k):
            for h in range(k):
                for x in range(k):
                    if self.mult[self.mult[g][h]][x] != self.mult[g][self.mult[h][x]]:
                        raise ValidationError("multiplication table is not associative")

    @property
    def order(self):
        return len(self.mult)

    @property
    def elements(self):
        return range(len(self.mult))

    def mul(self, g, h):
        return self.mult[g][h]

    def inv(self, g):
        return self.mult[g].index(0)

    @classmethod
    def trivial(cls):
        return cls(((0,),), ("1",))

    @classmethod
    def cyclic(cls, k):
        mult = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
        names = ("1",) + tuple("t" if i == 1 else f"t^{i}" for i in range(1, k))
        return cls(mult, names)

    def subgroups(self):
        """All subgroups, as sorted tuples of elements (brute force)."""
        k = self.order
        out = []
        rest = [g for g in range(1, k)]
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                cand = frozenset((0,) + extra)
                if all(self.mult[g][h] in cand for g in cand for h in cand):
                    out.append(tuple(sorted(cand)))
        return out

    def double_coset_reps(self, P, Q):
        """Representatives of P\\G/Q for subgroups P, Q (element subsets)."""
        seen = set()
        reps = []
        for x in self.elements:
            if x in seen:
                continue
            reps.append(x)
            for p in P:
                for q in Q:
                    seen.add(self.mult[self.mult[p][x]][q])
        return reps


@dataclass(frozen=True)
class GGraph:
    """Pointed graph with involution and a finite group acting on it."""

    n_vertices: int
    basepoint: int
    term: tuple  # terminal vertex per directed edge; len = 2 * n_pairs
    group: Group
    edge_action: tuple  # edge_action[g][e], one permutation per group element
    vertex_names: tuple = None
    pair_names: tuple = None

    def __post_init__(self):
        if self.vertex_names is None:
            names = tuple("*" if v == self.basepoint else f"v{v}"
                          for v in range(self.n_vertices))
            object.__setattr__(self, "vertex_names", names)
        if self.pair_names is None:
            object.__setattr__(
                self, "pair_names", tuple(f"e{p}" for p in range(self.n_pairs)))
        # Orbit tables, built once per graph: E_v per vertex as (tuple,
        # frozenset), the bit _edge_bit[e] of each directed edge in the
        # masks over its E_v, the vertex action _vertex_action[g][v], the
        # stabilizer _stab_edge[e] of each directed edge, the memos of
        # idealedges.translates and orbit_union and of idealedges.stab_set,
        # and a one-slot holder for the idealedges orbit table, filled on
        # its first read.  They are plain attributes, not fields, so
        # equality, hashing, repr and dataclasses.fields/asdict ignore them.
        # They take the input as it is: validate() reports what is wrong
        # with it, so building them must not raise.
        at = [[] for _ in range(self.n_vertices)]
        bit = [0] * len(self.term)
        for e, v in enumerate(self.term):
            if 0 <= v < self.n_vertices:
                bit[e] = 1 << len(at[v])
                at[v].append(e)
        object.__setattr__(self, "_incidence",
                           tuple((tuple(es), frozenset(es)) for es in at))
        object.__setattr__(self, "_edge_bit", tuple(bit))
        # g moves v where it moves the terminal vertex of the first edge at v
        object.__setattr__(self, "_vertex_action", tuple(
            tuple(self._image_of_end(perm, es[0]) if es else v
                  for v, es in enumerate(at))
            for perm in self.edge_action))
        fixers = [[] for _ in self.term]
        for g, perm in enumerate(self.edge_action):
            for e, image in zip(range(len(fixers)), perm):
                if image == e:
                    fixers[e].append(g)
        object.__setattr__(self, "_stab_edge", tuple(map(tuple, fixers)))
        object.__setattr__(self, "_translates", {})
        object.__setattr__(self, "_stab_sets", {})
        object.__setattr__(self, "_orbit_table", [])

    def _image_of_end(self, perm, e):
        """term[perm[e]], or None where an index is out of range."""
        try:
            return self.term[perm[e]]
        except (IndexError, TypeError):
            return None

    @property
    def n_pairs(self):
        return len(self.term) // 2

    @property
    def n_edges(self):
        return len(self.term)

    def init(self, e):
        return self.term[rev(e)]

    def is_loop(self, e):
        return self.term[e] == self.term[rev(e)]

    def edges_at(self, v):
        """E_v: directed edges ending at v, in increasing order."""
        return self._incidence[v][0]

    def edge_set_at(self, v):
        """E_v as a frozenset."""
        return self._incidence[v][1]

    def edge_masks(self, edges):
        """{v: mask over E_v} of the given directed edges, for each vertex
        they end at; bit i of the mask at v stands for edges_at(v)[i]."""
        masks = {}
        for e in edges:
            v = self.term[e]
            masks[v] = masks.get(v, 0) | self._edge_bit[e]
        return masks

    def valence(self, v):
        return len(self.edges_at(v))

    def act_vertex(self, g, v):
        return self._vertex_action[g][v]

    def act_edge_set(self, g, edges):
        return frozenset(self.edge_action[g][e] for e in edges)

    def stab_edge(self, e):
        return self._stab_edge[e]

    def orbit_edge(self, e):
        return frozenset(self.edge_action[g][e] for g in self.group.elements)

    def edge_name(self, e):
        base = self.pair_names[e // 2]
        return base if e % 2 == 0 else "~" + base

    def validate(self):
        """Report all violated invariants (empty list means valid)."""
        bad = []
        G = self.group
        n, nv = self.n_edges, self.n_vertices
        for e in range(n):
            if not (0 <= self.term[e] < nv):
                bad.append(f"edge {self.edge_name(e)} has an unknown terminal vertex")
        rows = self.edge_action[:G.order]
        # the rows that map every edge to an edge: the only ones read below
        edges = set(range(n))
        maps = {g: perm for g, perm in enumerate(rows)
                if len(perm) == n and edges.issuperset(perm)}
        for g, perm in enumerate(rows):
            if sorted(perm) != list(range(n)):
                bad.append(f"action of {G.names[g]} is not an edge permutation")
                continue
            for e in range(n):
                if perm[rev(e)] != rev(perm[e]):
                    bad.append(f"action of {G.names[g]} breaks the involution at "
                               f"{self.edge_name(e)}")
                if perm[e] == rev(e):
                    bad.append(f"inversion: {G.names[g]} maps {self.edge_name(e)} "
                               "to its reverse")
        for name in G.names[len(rows):]:
            bad.append(f"action of {name} is missing")
        for r in range(G.order, len(self.edge_action)):
            bad.append(f"action row {r} names no element of a group of order {G.order}")
        # action respects incidence: known terminal vertices move consistently
        for g, perm in maps.items():
            vmap = {}
            for e in range(n):
                v, w = self.term[e], self.term[perm[e]]
                if 0 <= v < nv and vmap.setdefault(v, w) != w:
                    bad.append(f"action of {G.names[g]} is inconsistent on vertices "
                               f"(witness vertex {self.vertex_names[v]})")
                    break
            else:
                if vmap.get(self.basepoint, self.basepoint) != self.basepoint:
                    bad.append(f"action of {G.names[g]} moves the basepoint")
        # homomorphism property, one witness per g
        for g, perm in maps.items():
            for h, other in maps.items():
                gh = maps.get(G.mul(g, h))
                if gh is not None and [perm[x] for x in other] != list(gh):
                    bad.append(f"action is not a homomorphism at "
                               f"({G.names[g]}, {G.names[h]})")
                    break
        # admissibility
        for v in range(nv):
            val = self.valence(v)
            if v == self.basepoint:
                if val < 2:
                    bad.append(f"basepoint has valence {val} < 2")
            elif val < 3:
                which = "free edge" if val == 1 else f"valence {val}"
                bad.append(f"vertex {self.vertex_names[v]}: {which} "
                           "(non-basepoint valence must be >= 3)")
        return bad


def _components(g: GGraph, pairs):
    """Each vertex's union-find root over the given edge pairs, or None
    when the undirected subgraph on them holds a cycle."""
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in pairs:
        u, v = g.term[2 * p], g.term[2 * p + 1]
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        parent[ru] = rv
    return [find(v) for v in range(g.n_vertices)]


def _acyclic(g: GGraph, pairs) -> bool:
    """Whether the undirected subgraph on the given edge pairs is a forest."""
    return _components(g, pairs) is not None


def pair_orbits(g: GGraph):
    """Orbits of undirected edge pairs under the group action."""
    seen = set()
    orbits = []
    for p in range(g.n_pairs):
        if p in seen:
            continue
        orb = {e // 2 for e in g.orbit_edge(2 * p)}
        seen |= orb
        orbits.append(frozenset(orb))
    return orbits


def maximal_invariant_forest(g: GGraph):
    """Greedy maximal invariant forest (possibly empty), deterministic."""
    usable = sorted((o for o in pair_orbits(g)), key=lambda o: sorted(o))
    acc = set()
    for o in usable:
        cand = acc | o
        if _acyclic(g, cand):
            acc = cand
    return frozenset(acc)


def is_reduced(g: GGraph) -> bool:
    """No nonempty invariant forest exists (nothing collapsible).

    The greedy maximal forest takes the first orbit that is a forest on its
    own, so it is empty exactly when no invariant forest exists.
    """
    return not maximal_invariant_forest(g)


def collapse(g: GGraph, forest):
    """Collapse an invariant forest.  Returns (graph, vertex_map, edge_map).

    vertex_map[v] is the image vertex; edge_map maps each surviving old
    directed edge to its new id.
    """
    forest = frozenset(forest)
    if not all(
        frozenset(g.edge_action[x][2 * p] // 2 for p in forest) == forest
        for x in g.group.elements
    ):
        raise ValidationError("forest is not invariant under the group action")
    roots = _components(g, forest)
    if roots is None:
        raise ValidationError("forest contains a cycle")
    reps = sorted(set(roots))
    vidx = {r: i for i, r in enumerate(reps)}
    vmap = tuple(vidx[r] for r in roots)

    survivors = [p for p in range(g.n_pairs) if p not in forest]
    emap = {}
    for i, p in enumerate(survivors):
        emap[2 * p] = 2 * i
        emap[2 * p + 1] = 2 * i + 1

    term = tuple(vmap[g.term[2 * p + d]] for p in survivors for d in (0, 1))
    action = tuple(
        tuple(emap[g.edge_action[x][2 * p + d]] for p in survivors for d in (0, 1))
        for x in g.group.elements
    )
    vnames = tuple(g.vertex_names[reps[i]] for i in range(len(reps)))
    pnames = tuple(g.pair_names[p] for p in survivors)
    out = GGraph(len(reps), vmap[g.basepoint], term, g.group, action, vnames, pnames)
    return out, vmap, emap
