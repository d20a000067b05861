"""Groups, graph actions, orbits/stabilizers, forests and collapses."""

import dataclasses
import itertools
import pathlib
import random

import pytest

from gwhitehead.cli import parse
from gwhitehead.errors import ValidationError
from gwhitehead.fixtures import (all_fixtures, fix_r2_swap, fix_theta,
                                 random_instance)
from gwhitehead.ggraph import (GGraph, Group, _acyclic, collapse, is_reduced,
                               maximal_invariant_forest, pair_orbits, rev)
from gwhitehead.idealedges import (IdealEdge, canonical_rep,
                                   enumerate_ideal_edges, inverse_orbit,
                                   is_invertible, orbit_union, translate_at,
                                   translate_through, translates)
from gwhitehead.marking import (MarkedGGraph, canonicalize, is_consecutive,
                                reduce_path, spanning_tree)
from gwhitehead.moves import blow_up
from gwhitehead.selftest import reduce_to_forest_free

import oracles

# the elements of symmetric3(), in order, as permutations of {0, 1, 2}
S3_PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]


def symmetric3():
    """S_3 as the permutations S3_PERMS of {0, 1, 2}."""
    idx = {p: i for i, p in enumerate(S3_PERMS)}
    mult = tuple(tuple(idx[tuple(p[q[i]] for i in range(3))] for q in S3_PERMS)
                 for p in S3_PERMS)
    return Group(mult, ("1", "r", "r^2", "s", "sr", "sr^2"))


def invariant_forests(g: GGraph):
    """All nonempty G-invariant forests, as frozensets of pair indices.

    Deterministic order: by (number of orbits used, sorted pair ids).
    """
    usable = [o for o in pair_orbits(g) if _acyclic(g, o)]
    usable.sort(key=lambda o: sorted(o))
    out = []
    for r in range(1, len(usable) + 1):
        for combo in itertools.combinations(usable, r):
            pairs = frozenset().union(*combo)
            if _acyclic(g, pairs):
                out.append(pairs)
    out.sort(key=lambda f: (len(f), sorted(f)))
    return out


def _s3_graph(n_vertices, term, blocks):
    """S_3 permuting the edge pairs of each block as it permutes {0, 1, 2}."""
    action = []
    for p in S3_PERMS:
        perm = list(range(len(term)))
        for block in blocks:
            for i, pair in enumerate(block):
                for d in (0, 1):
                    perm[2 * pair + d] = 2 * block[p[i]] + d
        action.append(tuple(perm))
    return GGraph(n_vertices, 0, term, symmetric3(), tuple(action))


def s3_theta():
    """Three edges * -> v, permuted by S_3; the vertices are fixed."""
    return MarkedGGraph(_s3_graph(2, (1, 0) * 3, [(0, 1, 2)]), ((0, 3), (0, 5)))


def s3_tripod():
    """* joined to v_i by a_i, with a loop l_i at v_i; S_3 permutes the v_i."""
    term = (1, 0, 2, 0, 3, 0, 1, 1, 2, 2, 3, 3)
    g = _s3_graph(4, term, [(0, 1, 2), (3, 4, 5)])
    return MarkedGGraph(g, tuple((2 * i, 2 * (3 + i), 2 * i + 1) for i in range(3)))


def test_rev_is_an_involution_pairing():
    for e in range(10):
        assert rev(rev(e)) == e
        assert rev(e) != e
        assert rev(e) // 2 == e // 2


@pytest.mark.parametrize("group", [Group.trivial(), Group.cyclic(2),
                                   Group.cyclic(4), symmetric3()])
def test_group_axioms(group):
    els = group.elements
    for a in els:
        assert group.mul(0, a) == a == group.mul(a, 0)
        assert group.mul(a, group.inv(a)) == 0
        for b in els:
            for c in els:
                assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


@pytest.mark.parametrize("group", [Group.cyclic(4), symmetric3()])
def test_subgroups_match_brute_force(group):
    got = {frozenset(H) for H in group.subgroups()}
    assert got == oracles.all_subgroups(group)


def test_double_cosets_partition():
    group = symmetric3()
    for P in group.subgroups():
        for Q in group.subgroups():
            reps = group.double_coset_reps(P, Q)
            assert oracles.coset_partition_ok(group, P, reps, Q)


def test_validate_rejects_non_homomorphic_action():
    # "generator" permutation of order 4 claimed to generate Z/2
    g = GGraph(1, 0, (0, 0, 0, 0), Group.cyclic(2),
               ((0, 1, 2, 3), (2, 1, 0, 3)))
    assert g.validate()


def test_validate_rejects_edge_inversion():
    # the nontrivial element maps a to its own reverse
    g = GGraph(1, 0, (0, 0, 0, 0), Group.cyclic(2),
               ((0, 1, 2, 3), (1, 0, 3, 2)))
    assert g.validate()


def test_validate_rejects_low_valence():
    # single non-loop pair: both endpoints have valence 1
    g = GGraph(2, 0, (1, 0), Group.trivial(), ((0, 1),))
    assert g.validate()


def test_orbit_stabilizer_theorem():
    for m in (fix_r2_swap(), fix_theta()):
        g = m.graph
        for e in range(g.n_edges):
            assert len(g.orbit_edge(e)) * len(g.stab_edge(e)) == g.group.order


def test_pair_orbits_cover_pairs():
    g = fix_theta().graph
    orbits = pair_orbits(g)
    assert sorted(p for o in orbits for p in o) == list(range(g.n_pairs))


def test_theta_has_invariant_forest_and_collapse_preserves_rank():
    m = fix_theta()
    g = m.graph
    assert not is_reduced(g)
    forest = maximal_invariant_forest(g)
    assert forest
    g2, vmap, emap = collapse(g, forest)
    assert not g2.validate()
    # Euler characteristic and fundamental-group rank are unchanged
    assert (g.n_vertices - g.n_pairs) == (g2.n_vertices - g2.n_pairs)
    assert (g.n_pairs - g.n_vertices + 1) == (g2.n_pairs - g2.n_vertices + 1)
    assert is_reduced(g2)


def test_collapse_is_equivariant():
    m = fix_theta()
    g = m.graph
    forest = maximal_invariant_forest(g)
    g2, vmap, emap = collapse(g, forest)
    directed = {2 * p for p in forest} | {2 * p + 1 for p in forest}
    for x in g.group.elements:
        for v in range(g.n_vertices):
            assert vmap[g.act_vertex(x, v)] == g2.act_vertex(x, vmap[v])
        for e in range(g.n_edges):
            if e in directed:
                continue
            assert emap[g.edge_action[x][e]] == g2.edge_action[x][emap[e]]


def test_invariant_forests_are_acyclic_orbit_unions():
    g = fix_theta().graph
    forests = invariant_forests(g)
    assert forests  # theta has collapsible orbits
    for f in forests:
        for x in g.group.elements:
            assert {g.edge_action[x][2 * p] // 2 for p in f} == set(f)
        # collapsing must merge vertices without creating loops from the forest
        for p in f:
            assert not g.is_loop(2 * p)


def test_rose_is_reduced():
    assert is_reduced(fix_r2_swap().graph)


def caterpillar(k):
    """Trivial group on the path * = 0 - 1 - ... - k, with a loop at every
    vertex: the k path pairs give 2^k - 1 invariant forests."""
    term = tuple(t for i in range(k) for t in (i + 1, i))
    term += tuple(t for v in range(k + 1) for t in (v, v))
    return GGraph(k + 1, 0, term, Group.trivial(), (tuple(range(len(term))),))


def test_is_reduced_answers_without_listing_the_forests():
    g = caterpillar(30)
    assert not g.validate()
    assert not is_reduced(g)
    assert maximal_invariant_forest(g) == frozenset(range(30))


INSTANCES = pathlib.Path(__file__).parent / "instances"


def test_is_reduced_iff_no_invariant_forest():
    # s3_tripod among the table graphs has a forest orbit of three pairs
    # and no forest orbit of one pair
    marked = (list(all_fixtures().values())
              + [parse(p.read_text()) for p in sorted(INSTANCES.glob("*.txt"))]
              + [random_instance(s) for s in range(20000, 20400)])
    graphs = [g for m in marked
              for g in (m.graph, reduce_to_forest_free(m).graph)]
    graphs += _table_graphs() + [caterpillar(6)]
    assert {is_reduced(g) for g in graphs} == {True, False}
    for g in graphs:
        assert is_reduced(g) == (not invariant_forests(g))


def test_s3_graphs_are_valid():
    for m in (s3_theta(), s3_tripod()):
        assert not m.validate()
    g = s3_tripod().graph
    # the 3-cycle r moves v_0 to v_1, the transposition s fixes v_2
    assert g.act_vertex(1, 1) == 2 and g.act_vertex(3, 3) == 3


def _table_graphs():
    """The fixtures, random_instance(7000..7049) and the S_3 graphs, the
    blow-up of each of their ideal edge orbits, and the collapse of every
    invariant forest of all of these."""
    marked = (list(all_fixtures().values())
              + [random_instance(s) for s in range(7000, 7050)]
              + [s3_theta(), s3_tripod()])
    graphs = []
    for m in marked:
        graphs.append(m.graph)
        graphs.extend(blow_up(m, alpha)[0].graph for alpha in enumerate_ideal_edges(m))
    return graphs + [collapse(g, f)[0] for g in graphs for f in invariant_forests(g)]


def test_orbit_tables_match_scans():
    for g in _table_graphs():
        for v in range(g.n_vertices):
            ev = oracles.scan_edges_at(g, v)
            assert g.edges_at(v) == ev
            assert g.edge_set_at(v) == frozenset(ev)
            assert g.valence(v) == len(ev)
            for x in g.group.elements:
                assert g.act_vertex(x, v) == oracles.scan_act_vertex(g, x, v)
            for r in range(1, len(ev) + 1):
                for edges in itertools.combinations(ev, r):
                    want = oracles.scan_translates(g, v, edges)
                    alpha = IdealEdge(v, frozenset(edges))
                    if not oracles.scan_is_ideal_edge(g, v, edges):
                        # no orbit outside the table: every read raises
                        for read in (translates, canonical_rep, orbit_union,
                                     lambda g, a: translate_at(g, a, v),
                                     lambda g, a: translate_through(g, a, edges[0])):
                            with pytest.raises(ValidationError,
                                               match="^not an ideal edge$"):
                                read(g, alpha)
                        continue
                    # the first call fills the memo (or finds it filled by an
                    # earlier translate); the second reads it
                    for _ in range(2):
                        got = translates(g, alpha)
                        assert type(got) is tuple
                        assert [(t.vertex, t.edges) for t in got] == want
                    least = IdealEdge(*want[0])
                    assert canonical_rep(g, alpha) == least
                    # the first translate by key at each vertex / through
                    # each edge
                    at, through = {}, {}
                    for u, s in reversed(want):
                        at[u] = IdealEdge(u, s)
                        through.update(dict.fromkeys(s, at[u]))
                    assert [translate_at(g, alpha, u)
                            for u in range(g.n_vertices)] == [
                        at.get(u) for u in range(g.n_vertices)]
                    assert [translate_through(g, alpha, e)
                            for e in range(g.n_edges)] == [
                        through.get(e) for e in range(g.n_edges)]
                    inv = is_invertible(g, alpha)
                    assert inverse_orbit(g, alpha) == (None if inv is None else IdealEdge(
                        *oracles.scan_translates(g, v, inv.edges)[0]))
                    assert orbit_union(g, alpha) == frozenset().union(
                        *(s for _, s in want))


def test_spanning_tree_is_the_breadth_first_tree():
    for g in _table_graphs():
        paths = spanning_tree(g)
        order = list(paths)
        index = {v: i for i, v in enumerate(order)}
        assert order[0] == g.basepoint and paths[g.basepoint] == ()
        assert sorted(order) == list(range(g.n_vertices))
        for v, path in paths.items():
            assert is_consecutive(g, path, g.basepoint)
            assert reduce_path(path) == path
            assert g.term[path[-1]] == v if path else v == g.basepoint
        tree = {paths[v][-1] // 2 for v in order[1:]}
        assert len(tree) == g.n_vertices - 1 and _acyclic(g, tree)
        # each vertex hangs off its first neighbour in the order, by the
        # least edge from it, and vertices come in order of that edge
        hooks = []
        for w in order[1:]:
            e = paths[w][-1]
            assert paths[w] == paths[g.init(e)] + (e,)
            hook = (index[g.init(e)], e)
            assert hook == min((index[g.init(a)], a)
                               for a in range(g.n_edges) if g.term[a] == w)
            hooks.append(hook)
        assert hooks == sorted(hooks)


def test_a_disconnected_graph_has_no_spanning_tree():
    # a loop at * and a loop at v, with nothing between them
    g = GGraph(2, 0, (0, 0, 1, 1), Group.trivial(), ((0, 1, 2, 3),))
    with pytest.raises(ValidationError, match="not connected"):
        spanning_tree(g)
    with pytest.raises(ValidationError, match="not connected"):
        canonicalize(MarkedGGraph(g, ((0,),)))


def test_collapse_merges_exactly_the_forest_components():
    for g in _table_graphs():
        for forest in invariant_forests(g):
            _, vmap, _ = collapse(g, forest)
            assert sorted(set(vmap)) == list(range(g.n_vertices - len(forest)))
            neighbours = {v: set() for v in range(g.n_vertices)}
            for p in forest:
                u, w = g.term[2 * p], g.term[2 * p + 1]
                neighbours[u].add(w)
                neighbours[w].add(u)
            for v in range(g.n_vertices):
                component, stack = {v}, [v]
                while stack:
                    for w in neighbours[stack.pop()] - component:
                        component.add(w)
                        stack.append(w)
                assert component == {u for u in range(g.n_vertices)
                                     if vmap[u] == vmap[v]}


THETA_REPR = (
    "GGraph(n_vertices=2, basepoint=0, term=(1, 0, 1, 0, 1, 0), "
    "group=Group(mult=((0, 1), (1, 0)), names=('1', 't')), "
    "edge_action=((0, 1, 2, 3, 4, 5), (0, 1, 4, 5, 2, 3)), "
    "vertex_names=('*', 'v'), pair_names=('e1', 'e2', 'e3'))")


def test_orbit_tables_leave_equality_hash_and_repr_alone():
    m = fix_theta()
    g1 = m.graph
    g2 = GGraph(g1.n_vertices, g1.basepoint, g1.term, g1.group,
                g1.edge_action, g1.vertex_names, g1.pair_names)
    enumerate_ideal_edges(m)
    assert g1._translates and not g2._translates
    assert g1 == g2 and hash(g1) == hash(g2) and g2 in {g1}
    assert repr(g1) == repr(g2) == THETA_REPR
    assert dataclasses.asdict(g1) == dataclasses.asdict(g2)
    fields = dataclasses.fields(GGraph)
    assert [f.name for f in fields] == [
        "n_vertices", "basepoint", "term", "group", "edge_action",
        "vertex_names", "pair_names"]
    assert all(f.init and f.repr and f.compare for f in fields)
    assert [f.default for f in fields[5:]] == [None, None]


def test_validate_reports_bad_incidence_after_building_the_tables():
    # edges e2 and e3 end at vertices 7 and -1, which do not exist
    g = GGraph(2, 0, (1, 0, 1, 0, 7, 0, -1, 0), Group.trivial(), (tuple(range(8)),))
    assert g.validate() == [
        "edge e2 has an unknown terminal vertex",
        "edge e3 has an unknown terminal vertex",
        "vertex v1: valence 2 (non-basepoint valence must be >= 3)"]
    # t swaps e0 (* -> v) with the loop e2 at *, so it cannot move v anywhere
    g = GGraph(2, 0, (1, 0, 1, 0, 0, 0), Group.cyclic(2),
               ((0, 1, 2, 3, 4, 5), (4, 5, 2, 3, 0, 1)))
    assert g.validate() == [
        "action of t is inconsistent on vertices (witness vertex v1)",
        "vertex v1: valence 2 (non-basepoint valence must be >= 3)"]
    # an action row that is too short or leaves the edges still builds
    for action in (((0, 1),), ((0, 1, 2, 9),)):
        GGraph(1, 0, (0, 0, 0, 0), Group.trivial(), action)


@pytest.mark.parametrize("group, action, fault", [
    (Group.trivial(), ((0, 5),), "action of 1 is not an edge permutation"),
    (Group.trivial(), ((0,),), "action of 1 is not an edge permutation"),
    (Group.cyclic(2), ((0, 1),), "action of t is missing"),
], ids=["leaves-the-edges", "too-short", "missing"])
def test_validate_reports_a_malformed_action(group, action, fault):
    # a one-petal rose; validate reads only the well-formed action rows
    g = GGraph(1, 0, (0, 0), group, action)
    assert g.validate() == [fault]
    with pytest.raises(ValidationError, match=fault):
        MarkedGGraph(g, ((0,),)).require_valid()


def test_validate_reports_each_extra_action_row():
    # two rows for the trivial group: the second would enter the orbit
    # tables (stab_edge(0) would be (0, 1)) if it validated
    g = GGraph(1, 0, (0, 0, 0, 0), Group.trivial(), ((0, 1, 2, 3), (0, 1, 2, 3)))
    fault = "action row 1 names no element of a group of order 1"
    assert g.validate() == [fault]
    with pytest.raises(ValidationError, match=fault):
        MarkedGGraph(g, ((0,), (2,))).require_valid()
    g = GGraph(1, 0, (0, 0), Group.cyclic(2), ((0, 1), (1, 0), (0, 1), (0,)))
    assert g.validate() == [
        "inversion: t maps e0 to its reverse",
        "inversion: t maps ~e0 to its reverse",
        "action row 2 names no element of a group of order 2",
        "action row 3 names no element of a group of order 2"]


def _fuzzed_graph(rng):
    """A small input to validate: 1-3 vertices, 1-3 edge pairs, Z/1-Z/3, one
    action row per element, each a permutation or an arbitrary map."""
    nv = rng.randint(1, 3)
    n = 2 * rng.randint(1, 3)
    term = tuple(rng.randrange(nv) for _ in range(n))
    group = Group.cyclic(rng.randint(1, 3))
    rows = []
    for _ in group.elements:
        if rng.random() < 0.7:
            rows.append(tuple(rng.sample(range(n), n)))
        else:
            rows.append(tuple(rng.randrange(n) for _ in range(n)))
    return GGraph(nv, 0, term, group, tuple(rows))


def test_extra_rows_only_append_their_own_messages():
    # an input with one row per element gets no extra-row message, and
    # extra rows leave every other message of its list as it was
    rng = random.Random(0)
    inputs = [m.graph for m in all_fixtures().values()] + [
        _fuzzed_graph(rng) for _ in range(400)]
    for g in inputs:
        bad = g.validate()
        assert not any(msg.startswith("action row") for msg in bad), g
        extra = tuple(rng.choice(g.edge_action) for _ in range(rng.randint(1, 2)))
        g2 = GGraph(g.n_vertices, g.basepoint, g.term, g.group, g.edge_action + extra)
        k = g.group.order
        rows = [f"action row {r} names no element of a group of order {k}"
                for r in range(k, k + len(extra))]
        bad2 = g2.validate()
        assert [msg for msg in bad2 if msg not in rows] == bad, g
        assert [msg for msg in bad2 if msg in rows] == rows, g
