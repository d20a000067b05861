"""Ideal edges: enumeration, D(alpha), invertibility, compatibility, crossing.

The frozen orbit lists were derived by hand.  For the theta graph with the
parallel-pair swap, only {~e2, ~e3} at the basepoint survives: any other
pair of incoming edges meets its own swap-translate without equaling it.
"""

import itertools
import pathlib
import sys
from array import array

import pytest

from gwhitehead import selftest
from gwhitehead.errors import PropertyViolation, ValidationError
from gwhitehead.fixtures import (all_fixtures, fix_r2, fix_r2_swap, fix_theta,
                                 random_instance)
from gwhitehead.ggraph import GGraph, rev
from gwhitehead.idealedges import (Crossing, IdealEdge, canonical_rep,
                                  compatible, crossing, d_set,
                                  enumerate_ideal_edges, is_ideal_edge,
                                  is_invertible, orbit_union, pre_compatible,
                                  stab_set, translate_at, translate_through,
                                  translates)
from gwhitehead.moves import blow_up, reductivity, whitehead
from gwhitehead.cli import parse
from gwhitehead.norms import NormCalculator, _pack, calculator

from oracles import scan_crossing_inequalities, scan_d_set
from test_ggraph import s3_theta, s3_tripod

INSTANCES = pathlib.Path(__file__).parent / "instances"

FROZEN_ORBITS = {
    "FIX-R2": [(0, (0, 1)), (0, (0, 1, 2)), (0, (0, 1, 3)), (0, (0, 2)),
               (0, (0, 2, 3)), (0, (0, 3)), (0, (1, 2)), (0, (1, 2, 3)),
               (0, (1, 3)), (0, (2, 3))],
    "FIX-R2-SWAP": [(0, (0, 1)), (0, (0, 2)), (0, (0, 3)), (0, (1, 3))],
    "FIX-R2W": [(0, (0, 1)), (0, (0, 1, 2)), (0, (0, 1, 3)), (0, (0, 2)),
                (0, (0, 2, 3)), (0, (0, 3)), (0, (1, 2)), (0, (1, 2, 3)),
                (0, (1, 3)), (0, (2, 3))],
    "FIX-THETA": [(0, (3, 5))],
}


@pytest.mark.parametrize("name", sorted(FROZEN_ORBITS))
def test_frozen_orbit_enumeration(name):
    m = all_fixtures()[name]
    got = [(r.vertex, tuple(sorted(r.edges))) for r in enumerate_ideal_edges(m)]
    assert got == FROZEN_ORBITS[name]


def test_orbit_stabilizer_on_edge_sets(named_instance):
    m = named_instance
    g = m.graph
    for alpha in enumerate_ideal_edges(m):
        idx = g.group.order // len(stab_set(g, alpha.edges))
        assert idx * len(stab_set(g, alpha.edges)) == g.group.order
        assert len(translates(g, alpha)) == idx


def test_index_is_the_translate_count_over_the_corpus():
    # [G:stab alpha] is read as len(translates), and D(alpha) reads the
    # edge-stabilizer table; both against scans of the group
    corpus = (list(all_fixtures().values())
              + [random_instance(s) for s in range(7000, 7050)]
              + [random_instance(s) for s in range(20000, 20100)])
    alphas = nontrivial = 0
    for m in corpus:
        g = m.graph
        for e in range(g.n_edges):
            assert g.stab_edge(e) == tuple(
                x for x in g.group.elements if g.edge_action[x][e] == e)
        for alpha in enumerate_ideal_edges(m):
            idx = len(translates(g, alpha))
            assert idx * len(stab_set(g, alpha.edges)) == g.group.order
            alphas += 1
            nontrivial += idx > 1
    assert (alphas, nontrivial) == (1011, 123)


def test_compatible_implies_pre_compatible(named_instance):
    m = named_instance
    reps = enumerate_ideal_edges(m)
    for a, b in itertools.combinations(reps, 2):
        if compatible(m.graph, a, b):
            assert pre_compatible(m.graph, a, b)


def test_crossing_components_partition(named_instance):
    m = named_instance
    g = m.graph
    reps = enumerate_ideal_edges(m)
    for alpha, beta in itertools.permutations(reps, 2):
        cr = crossing(g, alpha, beta)
        if cr.number == 0:
            continue
        inter = alpha.edges & orbit_union(g, beta)
        assert sum(len(c) for c in cr.components) == len(inter)
        assert frozenset().union(*cr.components) == inter
        for c1, c2 in itertools.combinations(cr.components, 2):
            assert not (c1 & c2)


def test_no_translate_at_the_vertex_means_no_crossing():
    # random_instance(7009) has ideal edges at * and at v1, and G fixes
    # both vertices, so an edge at v1 has no translate at *
    m = random_instance(7009)
    g = m.graph
    reps = enumerate_ideal_edges(m)
    pairs = [(a, b) for a in reps for b in reps
             if a.vertex == g.basepoint != b.vertex]
    assert pairs
    for alpha, beta in pairs:
        assert translate_at(g, beta, alpha.vertex) is None
        assert crossing(g, alpha, beta) == Crossing(0, (), ())


def test_crossing_check_catches_a_raised_left_hand_side(monkeypatch):
    # The first crossing pair of FIX-R2-SWAP, alpha = {0, 1} and beta = {0, 2}
    # at vertex 0, cross simply with P = 1 <= Q = G, so p = 2 and q = 1.  The
    # one component is gamma = {0} = alpha n beta, and alpha - gamma = {1}.
    # Neither left-hand set is alpha or beta, so raising it cannot raise the
    # right-hand side too.  The raise sets every lane of the packed |target|
    # in one part to the lane bound 2 |G| L, the most a packed |C| can hold,
    # so the sums stay inside their lanes and only the verdict changes.
    m = fix_r2_swap()
    g = m.graph
    alpha, beta = IdealEdge(0, frozenset({0, 1})), IdealEdge(0, frozenset({0, 2}))
    cr = crossing(g, alpha, beta)
    assert cr.number == 1 and cr.components == (frozenset({0}),)
    assert len(stab_set(g, alpha.edges)) == 1 and len(stab_set(g, beta.edges)) == 2
    pair = "alpha=(0, (0, 1)) beta=(0, (0, 2))"
    for part, target, failure in [
            ("out", {0}, f"simple-crossing inequality fails (out): {pair}"),
            ("out", {1}, f"component-removal inequality fails (out): {pair} gamma=[0]"),
            ("aut", {0}, f"simple-crossing inequality fails (aut): {pair}"),
            ("aut", {1}, f"component-removal inequality fails (aut): {pair} gamma=[0]")]:
        calc = NormCalculator(m, 2)
        lanes = calc._lanes[part]
        top = _pack(array(lanes.code, [lanes.bound] * len(calc.items[part])))
        packed_abs = calc._packed_abs
        masks = g.edge_masks(target)

        def raised(p, C_masks, part=part, top=top, masks=masks, packed_abs=packed_abs):
            if p == part and dict(C_masks) == masks:
                return top
            return packed_abs(p, C_masks)

        monkeypatch.setattr(calc, "_packed_abs", raised)
        monkeypatch.setattr(selftest, "calculator", lambda m, horizon, calc=calc: calc)
        with pytest.raises(PropertyViolation) as exc:
            selftest.check_crossing_inequalities(m, 2)
        assert str(exc.value) == failure


def _crossing_corpus():
    return ([(name, m) for name, m in sorted(all_fixtures().items())]
            + [(p.name, parse(p.read_text())) for p in sorted(INSTANCES.glob("*.txt"))]
            + [(f"random-{s}", random_instance(s)) for s in range(7000, 7060)])


@pytest.mark.parametrize("horizon", [2, 3])
def test_crossing_check_counts_match_the_vector_reference(horizon):
    # the packed lane-wise check against the coordinate-by-coordinate loop
    total = 0
    for name, m in _crossing_corpus():
        want = scan_crossing_inequalities(m, horizon)
        assert selftest.check_crossing_inequalities(m, horizon) == want, name
        total += want
    assert total == 51900  # the count does not depend on the horizon


def test_crossing_check_reads_no_unpacked_set_abs(monkeypatch):
    calls = []
    set_abs = NormCalculator.set_abs

    def counted(self, C, kind):
        calls.append(C)
        return set_abs(self, C, kind)

    monkeypatch.setattr(NormCalculator, "set_abs", counted)
    calculator.cache_clear()
    checked = sum(selftest.check_crossing_inequalities(m, 2) for _, m in _crossing_corpus())
    calculator.cache_clear()
    assert checked > 0 and calls == []


class _SetOnce(dict):
    def __setitem__(self, key, value):
        assert key not in self, key
        super().__setitem__(key, value)


def test_crossing_check_sums_each_side_once(monkeypatch):
    # every inequality of a pair has the right-hand side p|alpha| + q|beta|;
    # abs_le sums each side once per part
    calls = []
    abs_le = NormCalculator.abs_le

    def counted(self, kind, lhs, rhs):
        if not isinstance(self._side_abs, _SetOnce):
            self._side_abs = _SetOnce(self._side_abs)
        calls.append((id(self), kind, rhs))
        return abs_le(self, kind, lhs, rhs)

    monkeypatch.setattr(NormCalculator, "abs_le", counted)
    calculator.cache_clear()
    for _, m in _crossing_corpus():
        selftest.check_crossing_inequalities(m, 2)
    calculator.cache_clear()
    assert len(set(calls)) < len(calls)  # right-hand sides do repeat


def test_stab_set_computes_each_edge_set_once(monkeypatch):
    # crossing, the crossing check and the Pushing-Lemma check all read the
    # graph's stabilizer memo: each (graph, edge set) is scanned over the
    # group once, and a repeat call returns the kept tuple
    scans = []
    act_edge_set = GGraph.act_edge_set

    def counted(self, x, edges):
        # called from stab_set or from a generator expression inside it
        if "stab_set" in (sys._getframe(1).f_code.co_name,
                          sys._getframe(2).f_code.co_name):
            scans.append((id(self), edges, x))
        return act_edge_set(self, x, edges)

    monkeypatch.setattr(GGraph, "act_edge_set", counted)
    calculator.cache_clear()
    order = {}  # id(graph) -> |G|, the graphs kept alive so no id is reused
    graphs = []
    for _, m in _crossing_corpus():
        g = m.graph
        graphs.append(g)
        order[id(g)] = g.group.order
        reps = enumerate_ideal_edges(m)
        for alpha, beta in itertools.product(reps, repeat=2):
            crossing(g, alpha, beta)
        selftest.check_crossing_inequalities(m, 2)
        selftest.check_pushing_lemma(m, 2)
        for alpha in reps:
            for t in translates(g, alpha):
                assert stab_set(g, t.edges) is stab_set(g, set(t.edges))
    calculator.cache_clear()
    scanned = {(i, edges) for i, edges, _ in scans}
    assert len(scans) == len(set(scans)) == sum(order[i] for i, _ in scanned)
    assert any(order[i] > 1 for i, _ in scanned)


def test_non_basepoint_edges_keep_two_complement_edges(named_instance):
    m = named_instance
    g = m.graph
    for alpha in enumerate_ideal_edges(m):
        comp = len(g.edges_at(alpha.vertex)) - len(alpha.edges)
        if alpha.vertex == g.basepoint:
            assert comp >= 1
        else:
            assert comp >= 2


def test_d_set_matches_definition(named_instance):
    m = named_instance
    g = m.graph
    for alpha in enumerate_ideal_edges(m):
        want = frozenset(
            a for a in alpha.edges
            if g.stab_edge(a) == stab_set(g, alpha.edges)
            and rev(a) not in orbit_union(g, alpha))
        assert d_set(m, alpha) == want


def test_d_set_matches_scan_d_set():
    # d_set compares stabilizer orders; the oracle compares the stabilizers
    corpus = (list(all_fixtures().values())
              + [random_instance(s) for s in range(7000, 7050)]
              + [random_instance(s) for s in range(20000, 20100)]
              + [s3_theta(), s3_tripod()])
    alphas = targets = 0
    for m in corpus:
        for alpha in enumerate_ideal_edges(m):
            want = scan_d_set(m.graph, alpha)
            assert d_set(m, alpha) == want, (m, alpha)
            alphas += 1
            targets += len(want)
    assert (alphas, targets) == (1011, 996)


def test_invertibility_on_the_rose():
    m = fix_r2()
    half = IdealEdge(0, frozenset({0, 1}))
    assert is_invertible(m.graph, half) == IdealEdge(0, frozenset({2, 3}))
    big = IdealEdge(0, frozenset({0, 1, 2}))
    assert is_invertible(m.graph, big) is None


def test_every_orbit_read_rejects_a_non_ideal_set():
    """The orbit table is the one gate: a set that is not an ideal edge
    has no orbit, and each read, move and D(alpha) raises."""
    s3 = s3_theta()
    cases = [
        (fix_r2(), IdealEdge(0, frozenset({0}))),           # too small
        (fix_r2(), IdealEdge(0, frozenset({0, 1, 2, 3}))),  # all of E_*
        (fix_r2_swap(), IdealEdge(0, frozenset({0, 1, 2}))),  # meets its translate
        (fix_r2(), IdealEdge(0, frozenset({0, 9}))),        # 9 is not in E_*
        # in the S_3 theta, {e0, e1} at v meets its translates
        (s3, IdealEdge(1, frozenset({0, 2}))),
    ]
    for m, alpha in cases:
        g = m.graph
        assert not is_ideal_edge(g, alpha.vertex, alpha.edges)
        for read in (lambda: translates(g, alpha),
                     lambda: orbit_union(g, alpha),
                     lambda: canonical_rep(g, alpha),
                     lambda: translate_at(g, alpha, alpha.vertex),
                     lambda: translate_through(g, alpha, min(alpha.edges)),
                     lambda: d_set(m, alpha),
                     lambda: blow_up(m, alpha),
                     lambda: whitehead(m, alpha, min(alpha.edges)),
                     lambda: reductivity(m, alpha, min(alpha.edges), "tot", 2)):
            # twice: a raise leaves no memo entry behind
            for _ in range(2):
                with pytest.raises(ValidationError, match="^not an ideal edge$"):
                    read()


def test_inverse_pairs_are_compatible_at_basepoint():
    m = fix_r2()
    a = IdealEdge(0, frozenset({0, 1}))
    b = IdealEdge(0, frozenset({2, 3}))
    assert compatible(m.graph, a, b)


def test_nested_edges_are_compatible():
    m = fix_r2()
    small = IdealEdge(0, frozenset({0, 2}))
    large = IdealEdge(0, frozenset({0, 2, 3}))
    assert compatible(m.graph, small, large)
    assert compatible(m.graph, large, small)


def test_overlapping_edges_are_incompatible():
    m = fix_r2()
    a = IdealEdge(0, frozenset({0, 2}))
    b = IdealEdge(0, frozenset({0, 3}))
    assert not compatible(m.graph, a, b)


def test_canonical_rep_is_orbit_invariant():
    m = fix_r2_swap()
    g = m.graph
    for alpha in enumerate_ideal_edges(m):
        for t in translates(g, alpha):
            assert canonical_rep(g, t).key() == alpha.key()


def test_translate_coherence_rules_out_partial_overlap():
    # {~e1, ~e2} in the theta graph meets its swap image without equaling it
    m = fix_theta()
    assert not is_ideal_edge(m.graph, 0, frozenset({1, 3}))
    assert is_ideal_edge(m.graph, 0, frozenset({3, 5}))


def test_blow_up_admissibility_bound():
    # all of E_v covered by two translates at a trivalent non-basepoint
    # vertex would leave valence 2 after the blow-up; such subsets are
    # rejected during enumeration
    m = fix_theta()
    for alpha in enumerate_ideal_edges(m):
        g = m.graph
        trans = {t.edges for t in translates(g, alpha)
                 if t.vertex == alpha.vertex}
        covered = frozenset().union(*trans)
        residual = len(frozenset(g.edges_at(alpha.vertex)) - covered)
        need = 2 if alpha.vertex == g.basepoint else 3
        assert residual + len(trans) >= need
