"""Norm vectors: frozen reference values, identities, and comparisons.

Frozen coordinate tuples below were derived by hand from the shortlex
enumeration.  Example (rose, trivial group, identity marking, horizon 2):
the classes are x1, x1^-1, x2, x2^-1 followed by eight length-2 classes,
and each coordinate is just the cyclic loop length, giving
(1,1,1,1,2,2,2,2,2,2,2,2).
"""

import functools
import itertools
import pathlib
import random
import re
import sys
from array import array

import pytest

from gwhitehead import marking, norms
from gwhitehead.cli import parse
from gwhitehead.errors import InternalInconsistency, ValidationError
from gwhitehead.fixtures import all_fixtures, fix_r2, fix_r2_swap, fix_theta, random_instance
from gwhitehead.ggraph import GGraph, Group
from gwhitehead.idealedges import enumerate_ideal_edges
from gwhitehead.marking import MarkedGGraph, cyclic_canonical, cyclic_reduction
from gwhitehead.norms import (KINDS, MAX_EDGES, NormCalculator, NormVector, Order,
                              _Lanes, calculator, compare)
from gwhitehead.moves import greedy_reduce
from gwhitehead.selftest import (check_coset_identity, check_crossing_inequalities,
                                 check_inclusion_exclusion,
                                 check_norm_consistency, coset_cases,
                                 dot_identity_holds)

from conftest import HORIZON
from oracles import (packed_set_abs, rotations, scan_dot, scan_edge_abs, scan_items,
                     scan_lanes, scan_set_abs)

FROZEN_NORMS = {
    # (fixture, kind, horizon) -> expected coordinates
    ("FIX-R2", "out", 2): (1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2),
    ("FIX-R2", "aut", 1): (1, 1, 1, 1),
    ("FIX-R2W", "out", 1): (1, 1, 2, 2),
    ("FIX-THETA", "out", 1): (4, 4, 4, 4),
    ("FIX-R2-SWAP", "out", 2): (2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4),
}


@pytest.mark.parametrize("name,kind,h", sorted(k for k in FROZEN_NORMS))
def test_frozen_norm_values(name, kind, h):
    m = all_fixtures()[name]
    assert calculator(m, h).norm(kind).coords == FROZEN_NORMS[(name, kind, h)]


def test_two_way_norm_agreement(named_instance):
    # norm() recomputes via the half edge_abs sum and raises on mismatch
    check_norm_consistency(named_instance, HORIZON)


def test_edge_abs_is_g_invariant(named_instance):
    m = named_instance
    g = m.graph
    calc = calculator(m, HORIZON)
    for x in g.group.elements:
        for e in range(g.n_edges):
            assert (calc.edge_abs(e, "out").coords
                    == calc.edge_abs(g.edge_action[x][e], "out").coords)
            assert (calc.edge_abs(e, "aut").coords
                    == calc.edge_abs(g.edge_action[x][e], "aut").coords)


def test_self_dot_is_zero(named_instance):
    calc = calculator(named_instance, HORIZON)
    for e in range(named_instance.graph.n_edges):
        for kind in ("out", "aut"):
            assert not any(calc.dot({e}, {e}, kind).coords)


def test_dot_is_symmetric(named_instance):
    m = named_instance
    rng = random.Random(5)
    edges = list(range(m.graph.n_edges))
    calc = calculator(m, HORIZON)
    for _ in range(10):
        A = frozenset(rng.sample(edges, rng.randrange(1, len(edges))))
        B = frozenset(rng.sample(edges, rng.randrange(1, len(edges))))
        for kind in ("out", "aut"):
            assert calc.dot(A, B, kind).coords == calc.dot(B, A, kind).coords


def test_inclusion_exclusion_random_draws(named_instance):
    m = named_instance
    rng = random.Random(11)
    edges = list(range(m.graph.n_edges))
    for _ in range(25):
        A = frozenset(rng.sample(edges, rng.randrange(1, len(edges))))
        rest = [e for e in edges if e not in A]
        B = frozenset(rng.sample(rest, rng.randrange(1, len(rest) + 1)))
        for kind in ("out", "aut"):
            check_inclusion_exclusion(m, A, B, kind, HORIZON)


def test_out_identity_all_subsets(named_instance):
    m = named_instance
    rng = random.Random(13)
    edges = list(range(m.graph.n_edges))
    for _ in range(25):
        A = frozenset(rng.sample(edges, rng.randrange(1, len(edges))))
        assert dot_identity_holds(m, A, "out", HORIZON)


def test_aut_identity_has_recorded_counterexamples():
    # frozen witnesses: |A|_aut != (A.(E-A))_aut on each fixture
    witnesses = {
        "FIX-R2": frozenset({0}),
        "FIX-R2-SWAP": frozenset({0}),
        "FIX-THETA": frozenset({1}),
        "FIX-R2W": frozenset({0}),
    }
    for name, A in witnesses.items():
        assert not dot_identity_holds(all_fixtures()[name], A, "aut", 3)


def test_coset_identity_exhaustive(named_instance):
    m = named_instance
    cases = 0
    for K, e, A in coset_cases(m):
        for kind in ("out", "aut"):
            check_coset_identity(m, K, e, A, kind, HORIZON)
        cases += 1
    assert cases > 0


def test_compare_semantics():
    u = NormVector("out", 2, 2, (1, 2, 3))
    v = NormVector("out", 2, 2, (1, 2, 4))
    assert compare(u, v) == Order.LESS
    assert compare(v, u) == Order.GREATER
    assert compare(u, u) == Order.EQUAL_AT_HORIZON


def test_vector_arithmetic_and_mismatch():
    u = NormVector("out", 2, 2, (1, 2))
    v = NormVector("out", 2, 2, (3, 4))
    assert (u + v).coords == (4, 6)
    assert (v - u).coords == (2, 2)
    assert u.scale(3).coords == (3, 6)
    assert u.scale(1) is u  # frozen, so the vector itself is returned
    w = NormVector("aut", 2, 2, (1, 2))
    with pytest.raises(ValidationError):
        compare(u, w)
    with pytest.raises(ValidationError):
        NormVector("bogus", 2, 2, (1,))


def test_tot_is_out_then_aut(named_instance):
    calc = calculator(named_instance, 2)
    tot = calc.set_abs({0}, "tot")
    assert tot.coords == (calc.set_abs({0}, "out").coords
                          + calc.set_abs({0}, "aut").coords)


def _assert_matches_scan_oracle(m, horizon, draws):
    calc = NormCalculator(m, horizon)
    edges = list(range(m.graph.n_edges))
    for kind in KINDS:
        for e in edges:
            assert calc.edge_abs(e, kind).coords == scan_edge_abs(m, e, kind, horizon)
        rng = random.Random(17)
        for _ in range(draws):
            A = frozenset(rng.sample(edges, rng.randrange(1, len(edges) + 1)))
            B = frozenset(rng.sample(edges, rng.randrange(1, len(edges) + 1)))
            assert calc.set_abs(A, kind).coords == scan_set_abs(m, A, kind, horizon)
            assert calc.dot(A, B, kind).coords == scan_dot(m, A, B, kind, horizon)
    return calc


def test_packed_kernel_matches_scan_oracle():
    instances = (list(all_fixtures().values())
                 + [random_instance(s) for s in range(7000, 7050)])
    for m in instances:
        for horizon in (2, 3):
            _assert_matches_scan_oracle(m, horizon, draws=30)


def _wide_lane_rose(k=150):
    """x2 -> b a^k on the Z/2 rose."""
    return MarkedGGraph(fix_r2_swap().graph, ((0,), (2,) + (0,) * k))


def test_wide_lanes_match_scan_oracle():
    # the aut item x2 x2 crosses a 300 times, so lanes need 16 bits
    calc = _assert_matches_scan_oracle(_wide_lane_rose(), 2, draws=10)
    assert calc._lanes["aut"].code == "H"
    assert max(calc.edge_abs(0, "aut").coords) > 255


def _packed_in(code, values):
    return int.from_bytes(array(code, values), sys.byteorder)


def test_lane_order_decides_each_lane():
    # 12 lanes of 8 bits on the rose at horizon 2; le reads every lane
    lanes = NormCalculator(fix_r2(), 2)._lanes["out"]
    assert lanes.le_code == "B"
    n = len(lanes.unpack(lanes.edge[0]))
    base = [3 * i % 7 for i in range(n)]
    y = _packed_in("B", base)
    assert lanes.le(y, y)
    for i in (0, n // 2, n - 1):  # the lowest, a middle and the top lane
        above, below = list(base), list(base)
        above[i] += 1
        below[i] -= 1 if base[i] else 0
        assert not lanes.le(_packed_in("B", above), y), i
        assert lanes.le(y, _packed_in("B", above)), i
        assert lanes.le(_packed_in("B", below), y), i


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_lane_order_is_exact_at_the_bound(k):
    # x2 -> b a^k on the Z/2 rose: a longer tail, wider lanes (le_code B, B,
    # H widened from B, H); a side of abs_le reaches at most B = k_max bound
    # per lane, k_max = 2 |G| = 4
    lanes = NormCalculator(_wide_lane_rose(k), 2)._lanes["aut"]
    n = len(lanes.unpack(lanes.edge[0]))
    code = lanes.le_code
    width = 8 * array(code).itemsize
    B = lanes.k_max * lanes.bound
    assert lanes.k_max == 4
    assert 2 * B + 1 < 1 << width and (code == "B" or 2 * B + 1 >= 1 << width // 2)
    top = _packed_in(code, [B] * n)
    assert lanes.le(top, top) and lanes.le(0, top)
    assert not lanes.le(top, 0)
    for i in (0, n // 2, n - 1):
        short = [B] * n
        short[i] = B - 1
        assert not lanes.le(top, _packed_in(code, short)), i
        assert lanes.le(_packed_in(code, short), top), i


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_a_guard_bit_on_either_side_raises(side):
    lanes = NormCalculator(fix_r2(), 2)._lanes["out"]
    assert lanes.le_code == "B"
    n = len(lanes.unpack(lanes.edge[0]))
    for i in (0, n - 1):
        values = [0] * n
        values[i] = 128  # the top bit of an 8-bit lane
        bad = _packed_in("B", values)
        x, y = (bad, 0) if side == "lhs" else (0, bad)
        with pytest.raises(InternalInconsistency):
            lanes.le(x, y)


def _vector_le(calc, kind, lhs, rhs):
    """The reference: both sides as scaled and added set_abs vectors."""
    def side(terms):
        total = [0] * len(calc.set_abs(frozenset(), kind).coords)
        for k, C in terms:
            total = [t + k * c for t, c in zip(total, calc.set_abs(C, kind).coords)]
        return total
    return all(a <= b for a, b in zip(side(lhs), side(rhs)))


def test_abs_le_widens_narrow_lanes_and_matches_the_vectors():
    # theta at horizon 4: 8-bit lanes of bound 2 |G| L = 32, so sides whose
    # coefficients add up to k_max = 2 |G| = 4 are compared in 16-bit lanes
    calc = NormCalculator(fix_theta(), 4)
    for part in ("out", "aut"):
        lanes = calc._lanes[part]
        assert (lanes.code, lanes.le_code, lanes.k_max) == ("B", "H", 4)
    sets = [frozenset(C) for r in (1, 2, 3) for C in itertools.combinations(range(6), r)]
    rng = random.Random(5)
    verdicts = set()
    for _ in range(150):
        a, b, c, d = rng.sample(sets, 4)
        for coefs in ((1, 1), (2, 1), (1, 3), (2, 2), (3, 1), (4, 0)):
            lhs, rhs = tuple(zip(coefs, (a, b))), tuple(zip(coefs, (c, d)))
            for kind in KINDS:
                want = _vector_le(calc, kind, lhs, rhs)
                assert calc.abs_le(kind, lhs, rhs) == want, (lhs, rhs, kind)
                verdicts.add(want)
            assert calc.abs_le("out", lhs, lhs)  # equal sides
    assert verdicts == {True, False}
    # each packed |C| is kept once per part, in le_code lanes
    assert {part for part, _ in calc._lane_abs} == {"out", "aut"}
    for (part, C), x in calc._lane_abs.items():
        assert x == _packed_in("H", calc.set_abs(C, part).coords)


def test_abs_le_rejects_coefficients_above_twice_the_group_order():
    # |G| = 2: orbit sizes p and q add up to at most 4 on a side
    calc = NormCalculator(fix_r2_swap(), 2)
    A, B = frozenset({0}), frozenset({2})
    assert calc.abs_le("tot", ((2, A), (2, B)), ((4, A), (0, B)))
    for lhs, rhs in ((((3, A), (2, B)), ((1, A),)), (((1, A),), ((5, B),))):
        for kind in KINDS:
            with pytest.raises(InternalInconsistency,
                               match=re.escape("add up to 5 > 2|G| = 4")):
                calc.abs_le(kind, lhs, rhs)


def test_compare_lanes_are_made_once_and_never_by_descent(monkeypatch):
    made = []
    make = _Lanes.le_code.func

    def counted(self):
        made.append(self)
        return make(self)

    le_code = functools.cached_property(counted)
    le_code.__set_name__(_Lanes, "le_code")
    monkeypatch.setattr(_Lanes, "le_code", le_code)
    instances = list(all_fixtures().values()) + [random_instance(s) for s in range(7000, 7010)]
    calculator.cache_clear()
    for m in instances:
        greedy_reduce(m, 2)
    assert made == []
    for m in instances:
        check_crossing_inequalities(m, 2)
    calculator.cache_clear()
    assert made and len({id(lanes) for lanes in made}) == len(made)
    assert all("_guard" in vars(lanes) for lanes in made)


def _first_nonzero_sign(coords):
    return next((1 if c > 0 else -1 for c in coords if c), 0)


def test_abs_sign_matches_unpacked_verdict():
    # C ranges over the edge sets of the ideal edges and the singletons; a
    # singleton {c} against c (or a translate of c) is equal at the
    # horizon, sign 0
    instances = (list(all_fixtures().values())
                 + [random_instance(s) for s in range(7000, 7050)]
                 + [_wide_lane_rose()])
    zeros = aut_decided = 0
    for m in instances:
        edges = range(m.graph.n_edges)
        sets = ([alpha.edges for alpha in enumerate_ideal_edges(m)]
                + [frozenset({c}) for c in edges])
        for horizon in (2, 3):
            calc = NormCalculator(m, horizon)
            for C in sets:
                for kind in KINDS:
                    sign = calc.abs_sign(C, kind)
                    C_abs = calc.set_abs(C, kind)
                    for a in edges:
                        diff = (calc.edge_abs(a, kind) - C_abs).coords
                        want = _first_nonzero_sign(diff)
                        assert sign(a) == want, (m, horizon, C, kind, a)
                        zeros += want == 0
                        n_out = len(calc.items["out"])
                        aut_decided += (kind == "tot" and want != 0
                                        and not any(diff[:n_out]))
    assert calc._lanes["aut"].code == "H"  # the wide-lane rose came last
    # tot cases with equal out parts are decided in the aut lanes
    assert (zeros, aut_decided) == (6112, 328)


def test_subset_tables_match_set_abs_on_every_mask():
    # every subset of every E_v in both parts; the wide-lane rose comes last
    instances = (list(all_fixtures().values())
                 + [random_instance(s) for s in range(7000, 7050)]
                 + [_wide_lane_rose()])
    for m in instances:
        g = m.graph
        for horizon in (2, 3):
            calc = NormCalculator(m, horizon)
            for v in range(g.n_vertices):
                ev = g.edges_at(v)
                for part in ("out", "aut"):
                    table = calc._subset_table(part, v)
                    assert len(table) == 1 << len(ev)
                    for mask, packed in enumerate(table):
                        C = frozenset(e for i, e in enumerate(ev) if mask >> i & 1)
                        assert packed == packed_set_abs(calc._lanes[part], C), (
                            m, horizon, v, part, C)
    assert calc._lanes["aut"].code == "H"


def test_subset_recurrence_is_the_set_abs_formula_on_any_turn_table():
    # a reduced item never turns back (c then rev c), so the tables of a
    # calculator have no diagonal; random tables with one check each term
    rng = random.Random(19)
    lanes = _Lanes([bytes((0,))], False, fix_r2().graph.edge_action)
    for _ in range(40):
        E = sorted(rng.sample(range(12), rng.randrange(1, 7)))
        lanes.edge = [rng.randrange(1000) for _ in range(12)]
        lanes.__dict__["turns"] = {u: {w: rng.randrange(1, 50) for w in E
                                       if rng.random() < 0.6} for u in E}
        table = lanes.subset_abs(E)
        for mask in range(1 << len(E)):
            C = frozenset(e for i, e in enumerate(E) if mask >> i & 1)
            assert table[mask] == packed_set_abs(lanes, C), (E, mask)


def test_only_a_verdict_builds_subset_tables():
    for m in list(all_fixtures().values()) + [random_instance(s) for s in range(7000, 7010)]:
        calc = NormCalculator(m, 3)
        calc.all_norms()
        for e in range(m.graph.n_edges):
            for kind in KINDS:
                calc.edge_abs(e, kind)
        assert calc._subset_abs == {}
        # a verdict builds the tables of the parts and vertices it reads
        C = frozenset(m.graph.edges_at(m.graph.basepoint)[:2])
        calc.abs_sign(C, "out")
        assert list(calc._subset_abs) == [("out", m.graph.basepoint)]


def test_cache_clear_starts_the_subset_tables_cold():
    m = all_fixtures()["FIX-THETA"]
    calculator.cache_clear()
    calc = calculator(m, 2)
    for alpha in enumerate_ideal_edges(m):
        calc.abs_sign(alpha.edges, "tot")
    # every rep of the theta lies at the basepoint
    assert set(calc._subset_abs) == {("out", 0), ("aut", 0)}
    assert calculator(m, 2) is calc
    calculator.cache_clear()
    fresh = calculator(m, 2)
    assert fresh is not calc and fresh._subset_abs == {}


def _rose3_deep_junction():
    """Rank-3 rose with x3 -> ~b ~a c: the path of x1 x2 x3 is just c, so the
    junction that appends x3 cancels the whole paths of x1 and x2."""
    g = GGraph(1, 0, (0,) * 6, Group.trivial(), (tuple(range(6)),),
               ("*",), ("a", "b", "c"))
    return MarkedGGraph(g, ((0,), (2,), (3, 1, 4)))


def _assert_items_match_scan_oracle(m, horizon):
    calc = NormCalculator(m, horizon)
    assert list(map(tuple, calc.items["aut"])) == [
        steps for steps, _ in scan_items(m, "aut", horizon)]
    oracle_loops = [steps for steps, _ in scan_items(m, "out", horizon)]
    assert len(calc.items["out"]) == len(oracle_loops)
    for c, loop, want in zip(calc.classes, calc.items["out"], oracle_loops):
        assert tuple(loop) in rotations(want)
        assert loop == cyclic_reduction(calc.items["aut"][calc.words.index(c)])


def test_word_tree_items_match_scan_oracle():
    instances = (list(all_fixtures().values())
                 + [random_instance(s) for s in range(7000, 7050)]
                 + [_wide_lane_rose(), _rose3_deep_junction()])
    for m in instances:
        for horizon in (1, 2, 3, 4):
            _assert_items_match_scan_oracle(m, horizon)


def test_junction_cancels_whole_letter_paths():
    calc = NormCalculator(_rose3_deep_junction(), 3)
    assert calc.items["aut"][calc.words.index((1, 2, 3))] == bytes((4,))
    assert calc.items["aut"][calc.words.index((-2, -1, 3))] == bytes((3, 1, 3, 1, 4))


def _assert_lanes_match_scan(items, cyclic, actions):
    lanes = _Lanes(items, cyclic, actions)
    assert (lanes.edge, lanes.turns) == scan_lanes(items, cyclic, actions, lanes.code)
    assert "_X" not in vars(lanes)  # counting the turns drops the indicators
    return lanes


def _random_reduced_items(rng, n_edges, longest, cyclic):
    """Up to 40 reduced items, cyclically reduced when cyclic, of at most
    longest steps and at least one of exactly that many."""
    items = []
    for i in range(rng.randrange(1, 40)):
        k = longest if i == 0 else rng.randrange(longest + 1)
        steps = []
        while len(steps) < k:
            e = rng.randrange(n_edges)
            if steps and e == steps[-1] ^ 1:
                continue
            if cyclic and 1 < k == len(steps) + 1 and e == steps[0] ^ 1:
                continue
            steps.append(e)
        items.append(bytes(steps))
    rng.shuffle(items)
    return items


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("longest", range(1, 10))
def test_fold_matches_scan_lanes_at_every_column_count(longest, cyclic):
    # odd and even column counts and powers of two: an odd count of blocks
    # leaves the fold's upper half one block short
    rng = random.Random(2 * longest + cyclic)
    for m in (fix_r2(), fix_r2_swap(), _rose(3)):
        for _ in range(5):
            items = _random_reduced_items(rng, m.graph.n_edges, longest, cyclic)
            _assert_lanes_match_scan(items, cyclic, m.graph.edge_action)


@pytest.mark.parametrize("cyclic", [False, True])
def test_fold_of_the_longest_narrow_item(cyclic):
    # the trivial-group item a^k counts a k times: 127 is the longest item
    # whose bound 2k fits 8-bit lanes, and 128 switches to 16 bits
    actions = fix_r2().graph.edge_action
    for k, code in ((127, "B"), (128, "H")):
        lanes = _assert_lanes_match_scan([bytes(k)], cyclic, actions)
        assert (lanes.code, lanes.bound) == (code, 2 * k)
        assert lanes.unpack(lanes.edge[0]) == (k,)


@pytest.mark.parametrize("cyclic", [False, True])
def test_lanes_of_items_without_steps(cyclic):
    # no items, or items of no steps: no columns, so nothing to fold
    actions = fix_r2_swap().graph.edge_action
    for items in ([], [b""], [b""] * 3):
        lanes = _assert_lanes_match_scan(items, cyclic, actions)
        assert lanes.edge == [0] * 4 and lanes.turns == {}
        assert lanes.unpack(lanes.edge[0]) == (0,) * len(items)


def test_column_build_matches_scan_lanes():
    # the wide-lane rose has H lanes at every horizon here
    instances = (list(all_fixtures().values())
                 + [random_instance(s) for s in range(7000, 7050)]
                 + [_wide_lane_rose()])
    for m in instances:
        for horizon in (1, 2, 3, 4):
            calc = NormCalculator(m, horizon)
            for kind in ("out", "aut"):
                lanes = calc._lanes[kind]
                assert (lanes.edge, lanes.turns) == scan_lanes(
                    calc.items[kind], kind == "out", m.graph.edge_action, lanes.code)


@pytest.mark.parametrize("cyclic", [False, True])
def test_column_build_pads_unequal_items(cyclic):
    # past its end an item reads the sentinel, which counts nowhere
    items = list(map(bytes, [(0,), (0, 2, 0, 2), (), (3, 1), (2, 0, 2)]))
    lanes = _assert_lanes_match_scan(items, cyclic, fix_r2_swap().graph.edge_action)
    assert [lanes.unpack(x)[2] for x in lanes.edge] == [0, 0, 0, 0]
    # the swap sends a to b, so edge[a] counts every step: the item lengths
    assert lanes.unpack(lanes.edge[0]) == (1, 4, 0, 2, 3)


def test_cyclic_loop_of_one_step_turns_onto_itself():
    # the wrap turn of the loop a is (a, ~a): a crosses a then ~~a = a
    items = [bytes((0,)), bytes((2,))]
    lanes = _assert_lanes_match_scan(items, True, fix_r2().graph.edge_action)
    assert {u: {w: lanes.unpack(t) for w, t in row.items()}
            for u, row in lanes.turns.items()} == {0: {1: (1, 0)}, 2: {3: (0, 1)}}
    assert _Lanes(items, False, fix_r2().graph.edge_action).turns == {}


class _CountedReads(list):
    """A list that records the index of every item read."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


@pytest.mark.parametrize("cyclic", [False, True])
def test_lanes_make_each_indicator_once(monkeypatch, cyclic):
    # the build translates the buffer once per present edge, and the turns
    # read the indicators it kept, making none again
    one_hot = _CountedReads(norms._ONE_HOT)
    monkeypatch.setattr(norms, "_ONE_HOT", one_hot)
    rng = random.Random(5 + cyclic)
    for m in (fix_r2(), fix_r2_swap(), _rose(3)):
        for longest in (1, 2, 5, 8):
            items = _random_reduced_items(rng, m.graph.n_edges, longest, cyclic)
            one_hot.reads.clear()
            lanes = _Lanes(items, cyclic, m.graph.edge_action)
            assert one_hot.reads == sorted(set(b"".join(items)))
            one_hot.reads.clear()
            assert lanes.turns == scan_lanes(items, cyclic, m.graph.edge_action,
                                             lanes.code)[1]
            assert one_hot.reads == [] and "_X" not in vars(lanes)


def test_norms_and_edge_abs_leave_the_turns_uncounted():
    for m in list(all_fixtures().values()) + [random_instance(s) for s in range(7000, 7010)]:
        calc = NormCalculator(m, 3)
        calc.all_norms()
        for e in range(m.graph.n_edges):
            for kind in KINDS:
                calc.edge_abs(e, kind)
        for kind in ("out", "aut"):
            assert "turns" not in calc._lanes[kind].__dict__


_TURN_QUERIES = {
    "set_abs": lambda calc, C, kind: calc.set_abs(C, kind),
    "dot": lambda calc, C, kind: calc.dot(C, {0}, kind),
    "abs_sign": lambda calc, C, kind: calc.abs_sign(C, kind)(0),
}


@pytest.mark.parametrize("order", list(itertools.permutations(_TURN_QUERIES)))
def test_turns_counted_on_first_query_match_scan_lanes(order):
    for m in list(all_fixtures().values()) + [random_instance(s) for s in range(7000, 7010)]:
        calc = NormCalculator(m, 3)
        C = frozenset(range(0, m.graph.n_edges, 2))
        for query in order:
            for kind in KINDS:
                _TURN_QUERIES[query](calc, C, kind)
            for kind in ("out", "aut"):
                lanes = calc._lanes[kind]
                assert "turns" in lanes.__dict__
                assert (lanes.edge, lanes.turns) == scan_lanes(
                    calc.items[kind], kind == "out", m.graph.edge_action, lanes.code)


def test_lanes_reject_unreduced_item():
    actions = fix_r2_swap().graph.edge_action
    for items, cyclic in [
        ([(0, 1)], False),                   # interior backtrack a ~a
        ([(2,), (0, 2, 3), (2, 0)], False),  # interior, not in the first item
        ([(2, 0, 3)], True),                 # wrap: the loop ends ~b, starts b
        ([(0, 2), (2, 0, 3)], True),         # wrap of the longest item only
    ]:
        with pytest.raises(InternalInconsistency, match="unreduced path"):
            _Lanes(list(map(bytes, items)), cyclic, actions)


def test_wrap_is_checked_only_for_cyclic_items():
    items = [bytes((0, 2)), bytes((2, 0, 3))]
    _assert_lanes_match_scan(items, False, fix_r2_swap().graph.edge_action)


INSTANCES = pathlib.Path(__file__).parent / "instances"


def _rotate(steps, r):
    r %= len(steps) or 1
    return steps[r:] + steps[:r]


def test_cyclic_lanes_ignore_rotation(monkeypatch):
    # every out count is a count over a cyclic word, so the lanes of out
    # items do not depend on where each loop starts: the items as built (in
    # the rotation their paths give), their lex-least rotations and random
    # rotations of them give one code, edge and turns, the scan oracle's
    rng = random.Random(11)
    instances = (list(all_fixtures().values())
                 + [parse(p.read_text()) for p in sorted(INSTANCES.glob("*.txt"))]
                 + [random_instance(s) for s in range(7000, 7020)])
    cases = []
    for m in instances:
        for horizon in (2, 3, 4):
            items = NormCalculator(m, horizon).items["out"]
            cases.append((items, m.graph.edge_action, [
                [cyclic_canonical(steps) for steps in items],
                [_rotate(steps, rng.randrange(64)) for steps in items]]))
    # periodic loops, in every rotation
    periodic = list(map(bytes, [(0, 2, 0, 2), (2, 0, 2, 0, 2, 0), (0, 0, 0), (0,), (3, 1)]))
    cases.append((periodic, fix_r2_swap().graph.edge_action,
                  [[_rotate(steps, r) for steps in periodic] for r in range(1, 6)]))
    noncanonical = 0
    for items, actions, others in cases:
        lanes = _Lanes(items, True, actions)
        want = (lanes.code,) + scan_lanes(items, True, actions, lanes.code)
        assert (lanes.code, lanes.edge, lanes.turns) == want
        for rotated in others:
            lanes = _Lanes(rotated, True, actions)
            assert (lanes.code, lanes.edge, lanes.turns) == want
        noncanonical += sum(steps != cyclic_canonical(steps) for steps in items)
    # the comparison is not vacuous: some items are built in another rotation
    assert noncanonical > 0
    # a cyclically unreduced item (first step b, last ~b) in every rotation
    for r in range(3):
        with pytest.raises(InternalInconsistency, match="unreduced path"):
            _Lanes([bytes((0, 2)), _rotate(bytes((2, 0, 3)), r)], True,
                   fix_r2_swap().graph.edge_action)
    # the norm build takes no rotation
    calls = []
    canonical = marking.cyclic_canonical
    monkeypatch.setattr(marking, "cyclic_canonical",
                        lambda steps: calls.append(steps) or canonical(steps))
    calculator.cache_clear()
    for m in instances:
        calculator(m, 3)
    assert calls == []
    marking.loop_of_class(instances[0], (1,))  # the count does see a call
    assert len(calls) == 1


def _rose(petals):
    """The rose with the given number of petals, trivial group, identity marking."""
    n_edges = 2 * petals
    g = GGraph(1, 0, (0,) * n_edges, Group.trivial(), (tuple(range(n_edges)),))
    return MarkedGGraph(g, tuple((2 * i,) for i in range(petals)))


def test_norm_build_takes_at_most_255_edges():
    # edge ids and the column sentinel must be bytes
    assert MAX_EDGES == 255
    assert NormCalculator(_rose(127), 1).norm("out").coords == (1,) * 254
    with pytest.raises(ValidationError, match="at most 255 directed edges, not 256"):
        NormCalculator(_rose(128), 1)


@pytest.mark.parametrize("kind", ["out", "aut"])
def test_norm_cross_check_catches_a_wrong_item(kind):
    calc = NormCalculator(all_fixtures()["FIX-R2W"], 2)
    calc.norm(kind)
    calc.items[kind][0] += b"\x00"
    with pytest.raises(InternalInconsistency,
                       match=rf"direct norm .* != half edge_abs sum .*\({kind}\)"):
        calc.norm(kind)


def test_set_abs_memo_matches_scan_oracle_on_every_call():
    instances = (list(all_fixtures().values())
                 + [random_instance(s) for s in range(7100, 7104)])
    for m in instances:
        calc = NormCalculator(m, 2)
        edges = list(range(m.graph.n_edges))
        rng = random.Random(23)
        for _ in range(10):
            C = rng.sample(edges, rng.randrange(1, len(edges) + 1))
            want = {kind: scan_set_abs(m, C, kind, 2) for kind in KINDS}
            assert want["tot"] == want["out"] + want["aut"]
            for kind in KINDS:
                first = calc.set_abs(set(C), kind)
                assert (first.kind, first.coords) == (kind, want[kind])
                # a frozenset or a list of the same edges is the same entry
                assert calc.set_abs(frozenset(C), kind) is first
                assert calc.set_abs(C, kind) is first
                assert calc.set_abs(C[::-1], kind).coords == want[kind]


@pytest.mark.parametrize("kind", ["out", "aut"])
def test_all_norms_memo_keeps_its_cross_check(kind):
    calc = NormCalculator(all_fixtures()["FIX-R2W"], 2)
    calc.items[kind][0] += b"\x00"
    for _ in range(2):  # a failed check stores nothing
        with pytest.raises(InternalInconsistency,
                           match=rf"direct norm .* != half edge_abs sum .*\({kind}\)"):
            calc.all_norms()


def test_all_norms_runs_the_cross_checks_once(monkeypatch):
    calc = NormCalculator(all_fixtures()["FIX-R2W"], 2)
    calls = []
    norm = NormCalculator.norm

    def counted(self, kind):
        calls.append(kind)
        return norm(self, kind)

    monkeypatch.setattr(NormCalculator, "norm", counted)
    out, aut, tot = calc.all_norms()
    assert calls == ["out", "aut"]
    assert calc.all_norms() == (out, aut, tot)
    assert calls == ["out", "aut"]
    assert tot.coords == out.coords + aut.coords


@pytest.mark.parametrize("kind", ["out", "aut"])
def test_norm_cross_check_catches_an_odd_edge_sum(kind):
    calc = NormCalculator(all_fixtures()["FIX-R2W"], 2)
    calc._lanes[kind].edge[0] += 1  # lane 0 of the sum is now odd
    with pytest.raises(InternalInconsistency, match="edge_abs sum is odd"):
        calc.norm(kind)


@pytest.mark.parametrize("kind", ["out", "aut"])
def test_norm_cross_check_in_wide_lanes(kind):
    # the packed comparison in lanes wider than a byte: a wrong item, one
    # too long for its lane, and an odd sum each reach their message
    direct_message = rf"direct norm .* != half edge_abs sum .*\({kind}\)"
    for extra in (b"\x00", b"\x00" * 20000):
        calc = NormCalculator(_wide_lane_rose(), 2)
        assert calc._lanes[kind].code == "H"
        calc.norm(kind)
        calc.items[kind][0] += extra
        with pytest.raises(InternalInconsistency, match=direct_message):
            calc.norm(kind)
    calc = NormCalculator(_wide_lane_rose(), 2)
    calc._lanes[kind].edge[0] += 1
    with pytest.raises(InternalInconsistency, match="edge_abs sum is odd"):
        calc.norm(kind)


def test_norm_sum_matches_the_edge_abs_sum(named_instance):
    calc = NormCalculator(named_instance, 3)
    for kind in KINDS:
        total = [0] * len(calc.norm(kind).coords)
        for e in range(named_instance.graph.n_edges):
            total = [t + c for t, c in zip(total, calc.edge_abs(e, kind).coords)]
        assert calc.norm(kind).coords == tuple(t // 2 for t in total)


def test_norm_consistency_check_is_the_all_norms_check(monkeypatch):
    m = all_fixtures()["FIX-R2W"]
    calculator.cache_clear()
    calls = []
    norm = NormCalculator.norm

    def counted(self, kind):
        calls.append(kind)
        return norm(self, kind)

    monkeypatch.setattr(NormCalculator, "norm", counted)
    check_norm_consistency(m, 2)
    calculator(m, 2).all_norms()
    check_norm_consistency(m, 2)
    assert calls == ["out", "aut"]
