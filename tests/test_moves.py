"""Blow-ups, Whitehead moves, reductivity, and greedy descent.

Frozen facts derived by hand: in the rose marked x1 -> a, x2 -> ba, the
move that pulls {b, ~a} off the basepoint and collapses along ~a rewrites
ba to b, shortening the second loop; it is the unique maximally reductive
pair, and one step reaches the identity-marked rose.
"""

import pytest

from gwhitehead.errors import HypothesisNotMet
from gwhitehead.fixtures import (all_fixtures, fix_r2, fix_r2_swap, fix_r2w,
                                 random_instance)
from gwhitehead.idealedges import (IdealEdge, IdealPair, d_set,
                                   enumerate_ideal_edges)
from gwhitehead.marking import MarkedGGraph
from gwhitehead.moves import (blow_up, greedy_reduce, is_reductive_edge,
                              max_reductive_pair, reductive_scan, reductivity,
                              whitehead)
from gwhitehead.norms import Order, calculator, compare
from gwhitehead.selftest import (check_blowup_correspondence,
                                 check_blowup_roundtrip, check_norm_change)

from conftest import HORIZON
from oracles import (CLAIMS, candidate_pairs, marked_isomorphic, verdict,
                     verify_realization)
from test_ggraph import s3_theta


def test_blow_up_structure_on_swapped_rose():
    m = fix_r2_swap()
    m2, info = blow_up(m, IdealEdge(0, frozenset({0, 2})))
    # {a, b} is swap-invariant: one new vertex, one new pair, and both
    # marking loops now travel out along the new edge
    assert m2.graph.n_vertices == 2
    assert m2.graph.n_pairs == 3
    assert info.new_edges == (4,)
    assert m2.basis_paths == ((0, 4), (2, 4))
    assert m2.validate() == []


def test_blow_up_creates_one_vertex_per_translate():
    m = fix_r2_swap()
    # {a, ~b} has two translates under the swap
    m2, info = blow_up(m, IdealEdge(0, frozenset({0, 3})))
    assert m2.graph.n_vertices == 3
    assert len(info.new_edges) == 2
    assert m2.validate() == []


def test_blow_up_rejects_non_ideal_edge():
    from gwhitehead.errors import ValidationError
    with pytest.raises(ValidationError):
        blow_up(fix_r2(), IdealEdge(0, frozenset({0})))
    # whitehead and reductivity reject it before reading D(alpha), which
    # is defined for ideal edges only.  In the S_3 theta, {e0, e1} at v
    # meets its translates, and stab e0 differs from stab {e0, e1}
    # although both have order 2.
    m = s3_theta()
    alpha = IdealEdge(1, frozenset({0, 2}))
    for move in (lambda: whitehead(m, alpha, 0),
                 lambda: reductivity(m, alpha, 0, "tot", 2)):
        with pytest.raises(ValidationError, match="not an ideal edge"):
            move()


def test_blow_up_roundtrip(named_instance):
    for alpha in enumerate_ideal_edges(named_instance):
        check_blowup_roundtrip(named_instance, alpha)


def test_blow_up_correspondence(named_instance):
    for alpha in enumerate_ideal_edges(named_instance):
        check_blowup_correspondence(named_instance, alpha, HORIZON)


def test_blow_up_is_kept_per_ideal_edge(monkeypatch):
    # whitehead over all of D(alpha) blows alpha up and validates the
    # blown-up graph once; a repeat blow_up returns the same objects
    validated = []
    require_valid = MarkedGGraph.require_valid
    monkeypatch.setattr(MarkedGGraph, "require_valid",
                        lambda self: validated.append(self) or require_valid(self))
    cases = 0
    for name in sorted(all_fixtures()):
        m = all_fixtures()[name]
        for alpha in enumerate_ideal_edges(m):
            targets = sorted(d_set(m, alpha))
            if not targets:
                continue
            validated.clear()
            moved = [whitehead(m, alpha, a) for a in targets]
            blown = blow_up(m, alpha)
            assert blow_up(m, alpha) is blown
            assert sum(x is blown[0] for x in validated) == 1
            assert len(validated) == 1 + len(moved)
            cases += 1
    assert cases > 0


def test_whitehead_requires_collapse_target():
    m = fix_r2()
    alpha = IdealEdge(0, frozenset({0, 2}))
    bad = next(e for e in range(4) if e not in d_set(m, alpha))
    with pytest.raises(HypothesisNotMet):
        whitehead(m, alpha, bad)


def test_norm_change_law(named_instance):
    for alpha, a in candidate_pairs(named_instance):
        check_norm_change(named_instance, alpha, a, HORIZON)


def test_max_reductive_pair_frozen():
    m = fix_r2w()
    pair = max_reductive_pair(m, HORIZON)
    assert pair.edge.key() == (0, (1, 2))  # {~a, b}
    assert pair.collapse_target == 1       # collapse along ~a
    red = reductivity(m, pair.edge, pair.collapse_target, "tot", HORIZON)
    assert verdict(red) == "reductive"
    assert red.coords[:6] == (0, 0, 1, 1, 0, 1)


def _max_pair_by_key(m, kind, horizon):
    """The maximal reductive pair, equal values resolved by the least
    (vertex, sorted edges, target) key, from the public reductivity and
    compare; also how many reductive values tied with the best so far."""
    best, ties = None, 0
    for alpha, a in candidate_pairs(m):
        r = reductivity(m, alpha, a, kind, horizon)
        if verdict(r) != "reductive":
            continue
        key = (alpha.vertex, tuple(sorted(alpha.edges)), a)
        c = Order.GREATER if best is None else compare(r, best[0])
        ties += c == Order.EQUAL_AT_HORIZON
        if c == Order.GREATER or (c == Order.EQUAL_AT_HORIZON and key < best[1]):
            best = (r, key, IdealPair(alpha, a))
    return (None if best is None else best[2]), ties


def test_reductive_scan_matches_two_pass_definition():
    instances = list(all_fixtures().values()) + [
        random_instance(s) for s in range(7000, 7050)]
    ties = 0
    # (out, 1) holds the tie-break cases: FIX-R2W, 7020, 7031, 7039, 7043
    for kind, horizon in (("tot", 4), ("aut", 4), ("out", 1)):
        for m in instances:
            R, best = reductive_scan(m, horizon, kind)
            assert R == {alpha for alpha in enumerate_ideal_edges(m)
                         if is_reductive_edge(m, alpha.edges, alpha.vertex,
                                              kind, horizon)}
            pair, n = _max_pair_by_key(m, kind, horizon)
            ties += n
            if pair is None:
                assert best is None
                continue
            assert best[0] == pair
            assert best[1] == reductivity(m, pair.edge, pair.collapse_target,
                                          kind, horizon)
    assert ties > 0


def test_minimal_instances_have_no_reductive_pair():
    assert max_reductive_pair(fix_r2(), HORIZON) is None
    assert max_reductive_pair(fix_r2_swap(), HORIZON) is None


def test_greedy_reduce_fixes_the_marking():
    m = fix_r2w()
    final, log = greedy_reduce(m, HORIZON)
    assert len(log) == 1
    assert log[0].kind == "whitehead"
    assert final.graph.n_vertices == 1 and final.graph.n_pairs == 2
    assert calculator(final, 1).norm("out").coords == (1, 1, 1, 1)
    assert marked_isomorphic(final, fix_r2())


def test_greedy_reduce_is_idempotent_on_minima(named_instance):
    if named_instance.graph.n_vertices > 1:
        pytest.skip("starts with a collapsible forest; covered elsewhere")
    final, log = greedy_reduce(named_instance, HORIZON)
    final2, log2 = greedy_reduce(final, HORIZON)
    assert not log2
    assert marked_isomorphic(final, final2)


def test_step_budget_counts_the_moves_made():
    # a budget of N allows N moves and fails only when one more is needed
    for m in all_fixtures().values():
        final, log = greedy_reduce(m, HORIZON)
        assert greedy_reduce(m, HORIZON, len(log)) == (final, log)
        if log:
            with pytest.raises(HypothesisNotMet,
                               match=f"step budget {len(log) - 1} exhausted"):
                greedy_reduce(m, HORIZON, len(log) - 1)
    assert len(greedy_reduce(fix_r2w(), HORIZON, 1)[1]) == 1
    assert greedy_reduce(fix_r2(), HORIZON, 0)[1] == []
    with pytest.raises(HypothesisNotMet, match="step budget 0 exhausted"):
        greedy_reduce(fix_r2w(), HORIZON, 0)


def test_moves_stay_in_the_fixed_set():
    # the group still realizes the claimed automorphisms after every
    # Whitehead move, blow-up and descent
    for name, claim in CLAIMS.items():
        m = all_fixtures()[name]
        moved = ([whitehead(m, alpha, a) for alpha, a in candidate_pairs(m)]
                 + [blow_up(m, alpha)[0] for alpha in enumerate_ideal_edges(m)]
                 + [greedy_reduce(m, HORIZON)[0]])
        for m2 in moved:
            assert verify_realization(m2, claim) == [], (name, m2)


def test_greedy_reduce_collapses_forests_first():
    m = all_fixtures()["FIX-THETA"]
    final, log = greedy_reduce(m, HORIZON)
    assert log and log[0].kind == "collapse"
    assert final.graph.n_vertices == 1


def test_reductivity_requires_valid_target():
    m = fix_r2w()
    alpha = IdealEdge(0, frozenset({1, 2}))
    bad = next(e for e in range(4) if e not in d_set(m, alpha))
    with pytest.raises(HypothesisNotMet):
        reductivity(m, alpha, bad, "tot", HORIZON)
