"""The bitmask forest poset against the former searches.

enumerate_ideal_forests is compared with oracles.walk_ideal_forests, the
depth-first walk that tests every pairwise-allowed set of orbits whole,
and _Engine.verify, which reads a step's maps f and g off its masks T and
A and checks only what their form leaves open, with
oracles.all_pairs_verify, which takes f and g as maps and checks them on
every forest and monotonicity on every comparable pair.  The engine works
on int masks; the oracle gets them back as IdealForests.  The corpus is
the fixtures, the saved instances, random_instance(20000..20399) made
forest-free and rank-4 roses.
"""

import functools
import itertools
import pathlib
import re

import pytest

from gwhitehead import cli, starcomplex
from gwhitehead.errors import GWError, HypothesisNotMet, PropertyViolation
from gwhitehead.fixtures import all_fixtures, fix_r2, random_instance
from gwhitehead.idealedges import (IdealEdge, enumerate_ideal_edges,
                                   inverse_orbit)
from gwhitehead.selftest import reduce_to_forest_free
from gwhitehead.starcomplex import (IdealForest, closure_pm,
                                    enumerate_ideal_forests, reductive_orbits,
                                    run_retractions)

from oracles import all_pairs_verify, walk_ideal_forests

INSTANCES = pathlib.Path(__file__).parent / "instances"

# Trivial-group roses of rank 4, each scrambled by 6 Nielsen moves; the
# markings x1..x4 as words in the petals p1..p4.
RANK4 = {
    0: ["p2 p1 p2 p3", "p1 p2 p3 p1 p4", "p1 p2 p3", "~p3 ~p2 ~p1 ~p1"],
    1: ["~p4 p3 p1", "p3 p1 ~p2 p3 p1 ~p2 ~p3 p4", "p3", "p2 ~p1 ~p3"],
    2: ["p4 p1 ~p4 p2", "~p4 p2 ~p4 ~p2 p3", "~p4 ~p2 p3", "p4"],
    3: ["p4", "~p3 p2 ~p4 ~p4", "~p1 p3", "~p1 ~p3 p2 ~p4 ~p4"],
    4: ["p2 p3 p3 ~p4", "p2 p3 p2 p3 p3 ~p4", "p1 p2 p3 p4 ~p3 ~p3 ~p2",
        "p4"],
    5: ["~p2", "~p2 ~p4 ~p4 p3 p2 ~p1", "p1 ~p2 ~p3 p4 p4 p2 ~p4 p3",
        "~p2 ~p4 ~p4 p3"],
    6: ["~p4 p2 ~p3", "p2", "p3 ~p2 p4 p3 ~p2 p4 p3 ~p2 p1 ~p2", "p1 ~p2"],
    7: ["p1", "~p3 ~p4 p2 ~p4 ~p1", "p2 ~p4 ~p1", "~p4 ~p1"],
    8: ["p2 ~p1 p3", "~p2", "~p3", "p1 ~p2 p4 p2 p1 ~p2 p3"],
    9: ["p4 ~p2 p1 p4 ~p3 ~p2", "~p4", "p2", "p2 p3 ~p4"],
}


def rose4(seed):
    return cli.parse("\n".join(
        ["[graph]", "basepoint = *", "vertex *"]
        + [f"edge p{i} : * -> *" for i in range(1, 5)]
        + ["[group]", "order = 1", "[marking]"]
        + [f"x{i} = {w}" for i, w in enumerate(RANK4[seed], 1)]) + "\n")


@functools.lru_cache(maxsize=None)
def corpus():
    """(label, forest-free marked graph) for every instance but rank 4."""
    out = [(name, reduce_to_forest_free(m))
           for name, m in sorted(all_fixtures().items())]
    out += [(p.name, cli.parse(p.read_text()))
            for p in sorted(INSTANCES.glob("*.txt"))]
    out += [(f"random-{s}", reduce_to_forest_free(random_instance(s)))
            for s in range(20000, 20400)]
    return out


def pools(m):
    """All ideal edges, and all of them but the inverse of the first
    invertible orbit away from *, which that orbit then misses."""
    g = m.graph
    edges = enumerate_ideal_edges(m)
    yield edges
    away = [a for a in edges if a.vertex != g.basepoint
            and inverse_orbit(g, a) is not None]
    if away:
        yield [a for a in edges if a != inverse_orbit(g, away[0])]


def test_forest_lists_match_the_walk():
    missing_inverse = 0
    for label, m in corpus():
        g = m.graph
        for pool in pools(m):
            want = walk_ideal_forests(m, pool, starcomplex.MAX_FORESTS)
            assert enumerate_ideal_forests(m, pool) == want, label
            missing_inverse += len(pool) < len(enumerate_ideal_edges(m))
        for a in enumerate_ideal_edges(m):
            ainv = inverse_orbit(g, a)
            # the inverse of a canonical rep is at its vertex, so an orbit
            # away from * never has its inverse at *
            assert ainv is None or ainv.vertex == a.vertex
    assert missing_inverse
    for seed in (1, 8):
        m = rose4(seed)
        C = closure_pm(m, reductive_orbits(m, "tot", 3))
        assert enumerate_ideal_forests(m, C) == walk_ideal_forests(
            m, C, starcomplex.MAX_FORESTS)


def test_search_cap_raises_where_the_walk_raised(monkeypatch):
    """With the cap at n - 2 .. n + 1 for n forests, the search raises
    exactly where the walk did; at n - 1 the walk let n forests through
    when the last orbit alone is a forest, its last set searched."""
    cases = [(label, m, pool, len(enumerate_ideal_forests(m, pool)))
             for label, m in corpus()[:100] for pool in pools(m)]
    at_cap_plus_one = set()
    for label, m, pool, n in cases:
        if n > 60:
            continue
        for cap in range(max(n - 2, 0), n + 2):
            monkeypatch.setattr(starcomplex, "MAX_FORESTS", cap)
            try:
                want = walk_ideal_forests(m, pool, cap)
            except HypothesisNotMet:
                want = None
            try:
                got = enumerate_ideal_forests(m, pool)
            except HypothesisNotMet:
                got = None
            assert got == want, (label, cap)
            if cap == n - 1:
                at_cap_plus_one.add(want is None)
    assert at_cap_plus_one == {True, False}


def _as_forests(eng, stage, before, f, g, after):
    """The arguments of a double step on masks over the engine's numbering,
    as all_pairs_verify takes them: IdealForests, with f and g wrapped to
    map forests to forests."""
    def forest(x):
        return IdealForest(tuple(eng.orbits(x)))

    def wrap(h):
        return lambda phi: forest(h(eng.mask(phi.orbits)))

    return (eng.m, stage, [forest(x) for x in before], wrap(f), wrap(g),
            [forest(x) for x in after])


def _all_pairs(eng, stage, S, T, A):
    """all_pairs_verify on the step that _Engine.verify(stage, S, T, A)
    checks: f adds A to the forests meeting T, g takes T away, and S(C')
    is the forests of S that miss T."""
    return all_pairs_verify(*_as_forests(
        eng, stage, S, lambda x: x | A if x & T else x, lambda x: x & ~T,
        [x for x in S if not x & T]))


def _checks(eng):
    """The engine's verifier and the all-pairs oracle, both on (stage, S,
    T, A)."""
    return (eng.verify, lambda *args: _all_pairs(eng, *args))


def _both_verifiers(monkeypatch):
    """Make _Engine.verify run the all-pairs oracle too and compare their
    verdicts: None, or the message of the PropertyViolation."""
    verify = starcomplex._Engine.verify
    checked = []

    def both(self, stage, S, T, A):
        verdicts, after = [], None
        try:
            after = verify(self, stage, S, T, A)
            verdicts.append(None)
        except PropertyViolation as exc:
            verdicts.append(str(exc))
        try:
            _all_pairs(self, stage, S, T, A)
            verdicts.append(None)
        except PropertyViolation as exc:
            verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1], verdicts
        checked.append(verdicts[0])
        if verdicts[0] is not None:
            raise PropertyViolation(verdicts[0])
        return after

    monkeypatch.setattr(starcomplex._Engine, "verify", both)
    return checked


def test_retraction_verdicts_match_all_pairs(monkeypatch):
    checked = _both_verifiers(monkeypatch)
    statuses = set()
    for label, m in corpus():
        try:
            statuses.add(run_retractions(m, 3).status)
        except GWError as exc:
            statuses.add(type(exc).__name__)
    assert statuses == {"done", "degenerate"}
    assert len(checked) > 100 and set(checked) == {None}


@pytest.mark.parametrize("seed", [1, 8])
def test_rank4_verdicts_match_all_pairs(seed, monkeypatch):
    """The all-pairs oracle takes seconds here: 2 x 17.7M pairs at seed 1."""
    checked = _both_verifiers(monkeypatch)
    assert run_retractions(rose4(seed), 3).status == "done"
    assert checked == [None]


def _same(x):
    return x


def _probe(m):
    """An engine numbering all ideal edges of m, and its forests as
    masks."""
    edges = enumerate_ideal_edges(m)
    eng = starcomplex._Engine(m, frozenset(edges), False)
    return eng, [eng.mask(f.orbits) for f in enumerate_ideal_forests(m, edges)]


def test_a_non_monotone_g_is_caught_by_both_checks():
    """A step given by masks has a monotone g by its form, so the engine
    cannot be handed one that is not; the all-pairs oracle still catches
    it."""
    eng, S = _probe(fix_r2())
    psi = next(p for p in S if p.bit_count() == 2)
    smaller = psi & -psi

    def g_map(x):
        return smaller if x == psi else x

    after = [x for x in S if x != psi]
    with pytest.raises(PropertyViolation, match=r"^\[probe\] g is not monotone"):
        all_pairs_verify(*_as_forests(eng, "probe", S, _same, g_map, after))


def test_a_non_monotone_f_is_caught_by_both_checks():
    """As for g: only the all-pairs oracle can be handed a non-monotone f."""
    eng, S = _probe(fix_r2())
    p1, q = next((p1, q) for p1, p2, q in itertools.product(S, repeat=3)
                 if not p1 & ~p2 and p1 != p2 and not p1 & ~q and q & ~p2)
    with pytest.raises(PropertyViolation, match=r"^\[probe\] f is not monotone"):
        all_pairs_verify(*_as_forests(
            eng, "probe", S, lambda phi: q if phi == p1 else phi, _same, S))


def test_failure_verdicts_match_all_pairs():
    """Each pointwise failure a step (T, A) can have gives the same first
    message either way; the failures its form rules out are the oracle's
    alone."""
    eng, S = _probe(fix_r2())
    a, b = IdealEdge(0, frozenset({0, 2})), IdealEdge(0, frozenset({0, 3}))
    # an invertible orbit away from * whose inverse T takes away alone
    away, S_away = _probe(reduce_to_forest_free(random_instance(20000)))
    g = away.g
    c = next(c for c in away.pool if c.vertex != g.basepoint
             and inverse_orbit(g, c) not in (None, c))
    cases = {
        "f(Phi) is not an ideal forest": (eng, S, eng.mask([a]), eng.mask([b])),
        "g empties": (eng, S, eng.mask([a]), 0),
        "g(Psi) is not an ideal forest": (
            away, S_away, away.bit[inverse_orbit(g, c)], 0),
    }
    for start, (engine, S_C, T, A) in cases.items():
        messages = []
        for check in _checks(engine):
            with pytest.raises(PropertyViolation) as exc:
                check("probe", S_C, T, A)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"[probe] {start}")
    oracle_only = {
        "f does not satisfy": (S, lambda x: S[0], _same, S),
        "g does not satisfy": (S, _same, lambda x: S[-1], S),
        "g(f(S(C))) != S": (S, _same, _same, S[1:]),
    }
    for start, (before, f, g_map, after) in oracle_only.items():
        with pytest.raises(PropertyViolation, match=rf"^\[probe\] {re.escape(start)}"):
            all_pairs_verify(*_as_forests(eng, "probe", before, f, g_map, after))


def test_eliminate_reads_the_new_forests_off_the_old(monkeypatch):
    """Each elimination reads S(C') off S(C), as the forests without the
    eliminated orbits; that is the list a forest search over C' gives."""
    eliminate = starcomplex._Engine.eliminate
    checked = []

    def searched(self, *args, **kwargs):
        C, S = eliminate(self, *args, **kwargs)
        assert [IdealForest(tuple(self.orbits(x))) for x in S] == (
            enumerate_ideal_forests(self.m, C))
        checked.append(len(S))
        return C, S

    monkeypatch.setattr(starcomplex._Engine, "eliminate", searched)
    for label, m in corpus() + [(seed, rose4(seed)) for seed in (1, 3, 7, 8)]:
        run_retractions(m, 3)
    # 16 steps in the corpus, 12 at seed 3 and 8 at seed 7
    assert len(checked) == 36 and max(checked) == 2095


# (stage, alpha, alpha0, forests before, forests after) of each step of
# the rank-4 roses that retract, and the key of the final forest.
FROZEN_RANK4 = {
    1: [("C0->point", ((0, (1, 4)),), ((0, (1, 4)),), 4203, 1)],
    3: [("C0p->C0", ((0, (1, 4, 7)),), ((0, (4, 7)),), 2051, 1875),
        ("C0p->C0", ((0, (0, 2, 3, 5, 6)),), ((0, (0, 1, 2, 3, 5, 6)),), 1875, 1811),
        ("C0p->C0", ((0, (1, 2, 6)),), ((0, (2, 6)),), 1811, 1587),
        ("C0p->C0", ((0, (0, 3, 4, 5, 7)),), ((0, (0, 1, 3, 4, 5, 7)),), 1587, 1507),
        ("C0p->C0", ((0, (0, 1, 4, 7)),), ((0, (0, 4, 7)),), 1507, 1411),
        ("C0p->C0", ((0, (2, 3, 5, 6)),), ((0, (1, 2, 3, 5, 6)),), 1411, 1331),
        ("C0p->C0", ((0, (0, 1, 2, 6)),), ((0, (0, 2, 6)),), 1331, 1267),
        ("C0p->C0", ((0, (3, 4, 5, 7)),), ((0, (1, 3, 4, 5, 7)),), 1267, 1219),
        ("C0p->C0", ((0, (1, 2, 4, 6, 7)),), ((0, (2, 4, 6, 7)),), 1219, 1171),
        ("C0p->C0", ((0, (0, 3, 5)),), ((0, (0, 1, 3, 5)),), 1171, 1107),
        ("C0p->C0", ((0, (0, 1, 2, 4, 6, 7)),), ((0, (3, 5)),), 1107, 1003),
        ("C0p->C0", ((0, (0, 2, 3, 4, 6, 7)),), ((0, (1, 5)),), 1003, 899),
        ("C0->point", ((0, (1, 3, 5)),), ((0, (1, 3, 5)),), 899, 1)],
    4: [("C0->point", ((0, (2, 5)),), ((0, (2, 5)),), 5967, 1)],
    6: [("C0p->C0", ((0, (0, 5, 6)),), ((0, (5, 6)),), 5111, 4735),
        ("C0p->C0", ((0, (1, 2, 3, 4, 7)),), ((0, (0, 1, 2, 3, 4, 7)),), 4735, 4607),
        ("C0p->C0", ((0, (0, 3, 7)),), ((0, (3, 7)),), 4607, 4335),
        ("C0p->C0", ((0, (1, 2, 4, 5, 6)),), ((0, (0, 1, 2, 4, 5, 6)),), 4335, 4239),
        ("C0p->C0", ((0, (1, 3, 4, 7)),), ((0, (1, 3, 7)),), 4239, 4143),
        ("C0p->C0", ((0, (0, 2, 5, 6)),), ((0, (0, 2, 4, 5, 6)),), 4143, 4063),
        ("C0p->C0", ((0, (0, 1, 5, 6)),), ((0, (1, 5, 6)),), 4063, 3959),
        ("C0p->C0", ((0, (2, 3, 4, 7)),), ((0, (0, 2, 3, 4, 7)),), 3959, 3887),
        ("C0p->C0", ((0, (0, 1, 3, 7)),), ((0, (1, 3, 7)),), 3887, 3671),
        ("C0p->C0", ((0, (2, 4, 5, 6)),), ((0, (0, 2, 4, 5, 6)),), 3671, 3511),
        ("C0p->C0", ((0, (0, 3, 5, 6, 7)),), ((0, (3, 5, 6, 7)),), 3511, 3391),
        ("C0p->C0", ((0, (1, 2, 4)),), ((0, (0, 1, 2, 4)),), 3391, 3207),
        ("C0p->C0", ((0, (0, 1, 3, 6, 7)),), ((0, (1, 3, 6, 7)),), 3207, 3111),
        ("C0p->C0", ((0, (2, 4, 5)),), ((0, (0, 2, 4, 5)),), 3111, 2967),
        ("C0p->C0", ((0, (0, 1, 3, 5, 7)),), ((0, (1, 3, 5, 7)),), 2967, 2871),
        ("C0p->C0", ((0, (2, 4, 6)),), ((0, (0, 2, 4, 6)),), 2871, 2727),
        ("C0p->C0", ((0, (0, 1, 3, 5, 6)),), ((0, (1, 3, 5, 6)),), 2727, 2631),
        ("C0p->C0", ((0, (2, 4, 7)),), ((0, (0, 2, 4, 7)),), 2631, 2487),
        ("C0p->C0", ((0, (0, 1, 3, 5, 6, 7)),), ((0, (2, 4)),), 2487, 2263),
        ("C0p->C0", ((0, (1, 3, 4, 5, 6, 7)),), ((0, (0, 2)),), 2263, 2039),
        ("C0->point", ((0, (0, 2, 4)),), ((0, (0, 2, 4)),), 2039, 1)],
    7: [("C0p->C0", ((0, (0, 3, 5, 7)),), ((0, (0, 3, 7)),), 2287, 2095),
        ("C0p->C0", ((0, (1, 2, 4, 6)),), ((0, (1, 2, 4, 5, 6)),), 2095, 1975),
        ("C0p->C0", ((0, (0, 1, 3, 5, 7)),), ((0, (0, 1, 3, 7)),), 1975, 1903),
        ("C0p->C0", ((0, (2, 4, 6)),), ((0, (2, 4, 5, 6)),), 1903, 1775),
        ("C0p->C0", ((0, (0, 1, 2, 3, 7)),), ((0, (0, 1, 3, 7)),), 1775, 1703),
        ("C0p->C0", ((0, (4, 5, 6)),), ((0, (2, 4, 5, 6)),), 1703, 1575),
        ("C0p->C0", ((0, (0, 1, 2, 3, 4, 7)),), ((0, (5, 6)),), 1575, 1447),
        ("C0p->C0", ((0, (0, 1, 3, 4, 5, 7)),), ((0, (2, 6)),), 1447, 1319),
        ("C0->point", ((0, (2, 5, 6)),), ((0, (2, 5, 6)),), 1319, 1)],
    8: [("C0->point", ((0, (0, 2)),), ((0, (0, 2)),), 2843, 1)],
}


@pytest.mark.parametrize("seed", sorted(FROZEN_RANK4))
def test_rank4_trace_frozen(seed):
    trace = run_retractions(rose4(seed), 3)
    assert (trace.status, trace.detail) == ("done", "retracted to a single forest")
    assert [(s.stage, s.alpha, s.alpha0, s.n_before, s.n_after)
            for s in trace.steps] == FROZEN_RANK4[seed]
    assert [f.key() for f in trace.final_forests] == [FROZEN_RANK4[seed][-1][2]]


@pytest.mark.parametrize("seed", [0, 2, 5, 9])
@pytest.mark.xfail(strict=True, raises=PropertyViolation,
                   reason="C0p->C0 finds a leftover edge that misses the "
                          "maximal collapse edge on a valid rank-4 rose")
def test_rank4_retracts(seed):
    m = rose4(seed)
    assert m.validate() == [] and m.graph.group.order == 1
    assert run_retractions(m, 3).status == "done"
