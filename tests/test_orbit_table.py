"""The orbit table on masks against the combination scan it replaced.

enumerate_ideal_edges, is_ideal_edge and d_set read one table per graph,
and moves.reductive_scan takes its candidates from the same table and its
|alpha| from the calculator's subset tables.  Each is compared here with
the frozenset computation in `oracles` (scan_ideal_edges,
scan_is_ideal_edge, scan_d_set and scan_reductive) on the fixtures, the
S_3 graphs, random_instance(7000..7299) raw and forest-free, the saved
instances, scrambled trivial-group roses of rank 4 and 5, and a Z/2 that
swaps two vertices.  The index
[G:stab alpha] that orbit_targets gives with each rep is compared with the
number of translates, and the orbit-stabilizer facts the package reads
off the translates with the scans of the group they replace.
"""

import functools
import itertools
import pathlib

import pytest

from gwhitehead import cli, idealedges
from gwhitehead.fixtures import all_fixtures, random_instance
from gwhitehead.idealedges import (d_set, enumerate_ideal_edges, is_ideal_edge,
                                   orbit_targets, stab_set, translates)
from gwhitehead.moves import reductive_scan
from gwhitehead.norms import KINDS
from gwhitehead.selftest import reduce_to_forest_free

from oracles import (key_order, scan_act_vertex, scan_d_set, scan_ideal_edges,
                     scan_is_ideal_edge, scan_reductive)
from test_forest_poset import rose4
from test_ggraph import s3_theta, s3_tripod

INSTANCES = pathlib.Path(__file__).parent / "instances"

# perfbench/instances.scrambled_rose(random.Random(seed), rank, 6): the
# markings x1..xn as words in the petals p1..pn.
ROSES = {
    (4, 0): ["p2 p1 p2 p3", "p1 p2 p3 p1 p4", "p1 p2 p3", "~p3 ~p2 ~p1 ~p1"],
    (4, 1): ["~p4 p3 p1", "p3 p1 ~p2 p3 p1 ~p2 ~p3 p4", "p3", "p2 ~p1 ~p3"],
    (4, 2): ["p4 p1 ~p4 p2", "~p4 p2 ~p4 ~p2 p3", "~p4 ~p2 p3", "p4"],
    (4, 3): ["p4", "~p3 p2 ~p4 ~p4", "~p1 p3", "~p1 ~p3 p2 ~p4 ~p4"],
    (4, 4): ["p2 p3 p3 ~p4", "p2 p3 p2 p3 p3 ~p4", "p1 p2 p3 p4 ~p3 ~p3 ~p2",
             "p4"],
    (4, 5): ["~p2", "~p2 ~p4 ~p4 p3 p2 ~p1", "p1 ~p2 ~p3 p4 p4 p2 ~p4 p3",
             "~p2 ~p4 ~p4 p3"],
    (5, 0): ["~p4 ~p1 ~p1", "p1 p4 p1 p4 p3", "p1 p4 p3 p2 ~p4 ~p1", "p1 p4",
             "~p5"],
    (5, 1): ["~p2 ~p1", "p2", "~p1 p3", "~p1 ~p2 ~p5", "p2 ~p1 ~p4"],
    (5, 2): ["p5 ~p3 p5", "p4 ~p5 p3", "~p4 p2", "p4", "p5 p1 ~p3 p5 ~p4"],
}


def rose(rank, seed):
    return cli.parse("\n".join(
        ["[graph]", "basepoint = *", "vertex *"]
        + [f"edge p{i} : * -> *" for i in range(1, rank + 1)]
        + ["[group]", "order = 1", "[marking]"]
        + [f"x{i} = {w}" for i, w in enumerate(ROSES[rank, seed], 1)]) + "\n")


# Z/2 swapping v1 and v2, each with two edges from * and a loop: its ideal
# edges at v1 have their one other translate at v2, so their stabilizer is
# that of v1 though the orbit has two translates
SWAP_TEXT = """\
[graph]
basepoint = *
vertex *
vertex v1
vertex v2
edge a1 : * -> v1
edge b1 : * -> v1
edge l1 : v1 -> v1
edge a2 : * -> v2
edge b2 : * -> v2
edge l2 : v2 -> v2
[group]
order = 2
gen t : a1->a2, a2->a1, b1->b2, b2->b1, l1->l2, l2->l1
[marking]
x1 = a1 ~b1
x2 = a1 l1 ~a1
x3 = a2 ~b2
x4 = a2 l2 ~a2
"""


def _random(seeds):
    return [random_instance(s) for s in seeds]


PARTS = {
    "fixtures": lambda: list(all_fixtures().values()) + [s3_theta(), s3_tripod()],
    "random-raw": lambda: _random(range(7000, 7300)),
    "random-forest-free": lambda: [reduce_to_forest_free(m)
                                   for m in _random(range(7000, 7300))],
    "saved": lambda: [cli.parse(p.read_text()) for p in sorted(INSTANCES.glob("*.txt"))],
    "rank4": lambda: [rose(4, s) for s in range(6)],
    "rank5": lambda: [rose(5, s) for s in range(3)],
    "swap": lambda: [cli.parse(SWAP_TEXT)],
}


@functools.lru_cache(maxsize=None)
def corpus(part):
    return PARTS[part]()


@pytest.mark.parametrize("part", sorted(PARTS))
def test_orbit_table_matches_the_combination_scan(part):
    for m in corpus(part):
        g = m.graph
        reps = enumerate_ideal_edges(m)
        assert reps == scan_ideal_edges(m), m
        for alpha in reps:
            assert d_set(m, alpha) == scan_d_set(g, alpha), (m, alpha)
        for v in range(g.n_vertices):
            ev = g.edges_at(v)
            for r in range(len(ev) + 1):
                for edges in itertools.combinations(ev, r):
                    assert is_ideal_edge(g, v, edges) == scan_is_ideal_edge(
                        g, v, edges), (m, v, edges)


@pytest.mark.parametrize("part", sorted(PARTS))
def test_reductive_scan_matches_the_per_orbit_scan(part):
    for m in corpus(part):
        for horizon in (2, 3):
            for kind in KINDS:
                assert reductive_scan(m, horizon, kind) == scan_reductive(
                    m, horizon, kind), (m, horizon, kind)


def test_orbit_targets_give_d_and_the_index_of_every_rep():
    # [G:stab alpha] read off the orbit table is the number of translates
    # made as IdealEdges, and D is d_set's, for every rep with D nonempty
    instances = (list(all_fixtures().values()) + _random(range(7000, 7050))
                 + [rose4(s) for s in range(10)])
    indices = set()
    for m in instances:
        g = m.graph
        want = [(alpha.vertex, tuple(sorted(alpha.edges)),
                 tuple(sorted(d_set(m, alpha))), len(translates(g, alpha)))
                for alpha in enumerate_ideal_edges(m) if d_set(m, alpha)]
        assert list(orbit_targets(g)) == want, m
        indices.update(index for *_, index in want)
    assert indices > {1}


@pytest.mark.parametrize("part", sorted(PARTS))
def test_orbit_sizes_from_the_translates_match_the_group_scan(part):
    """On every translate alpha of every ideal edge at v: |G alpha| |stab
    alpha| = |G|; stab alpha (a scan of G) is the stabilizer of v (a scan
    of G) exactly when no two translates share a vertex; and at * the
    stabilizer is G exactly when alpha is its only translate."""
    seen = set()
    for m in corpus(part):
        g = m.graph
        order = g.group.order
        for rep in enumerate_ideal_edges(m):
            ts = translates(g, rep)
            distinct = len({t.vertex for t in ts}) == len(ts)
            for alpha in ts:
                v = alpha.vertex
                stab = stab_set(g, alpha.edges)
                stab_v = tuple(x for x in g.group.elements
                               if scan_act_vertex(g, x, v) == v)
                assert len(ts) * len(stab) == order, (m, alpha)
                assert (stab == stab_v) == distinct, (m, alpha)
                if v == g.basepoint:
                    assert (len(stab) == order) == (len(ts) == 1), (m, alpha)
                seen.add((stab == stab_v, len(ts) == 1))
    # the parts with a group reach both sides of each equivalence; only
    # the swap has an orbit with one translate at each of several vertices
    if part in ("fixtures", "random-raw", "random-forest-free"):
        assert seen == {(True, True), (False, False)}
    if part == "swap":
        assert seen == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("part", sorted(PARTS))
def test_orbit_table_tests_masks_in_key_order(part, monkeypatch):
    """The table tests the masks at each vertex in the order of the
    recursive walk, vertex by vertex, skipping only those it has filed as
    translates already."""
    tested = []
    is_ideal = idealedges._OrbitTable.is_ideal

    def spy(self, v, mask):
        tested.append((v, mask))
        return is_ideal(self, v, mask)

    monkeypatch.setattr(idealedges._OrbitTable, "is_ideal", spy)
    for m in corpus(part):
        tested.clear()
        t = idealedges._OrbitTable(m.graph)
        assert [v for v, _ in tested] == sorted(v for v, _ in tested)
        for v in range(m.graph.n_vertices):
            order = key_order(len(t.at[v]))
            here = [mask for w, mask in tested if w == v]
            assert here == [mask for mask in order if mask in set(here)], m
            assert set(here) | set(t.ideal[v]) == set(order), m
