"""Ideal forests, star complexes, homology, and the retraction engine.

Frozen facts derived by hand: the rose marked x1 -> a, x2 -> ba has
exactly two reductive orbits ({a, ~b} and {~a, b}), both compatible with
the maximal edge, so the star of the reductive family is three forests
(two vertices and their union edge) and contracts in one step.
"""

import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from gwhitehead import cli, moves, selftest, starcomplex
from gwhitehead.errors import (HypothesisNotMet, PropertyViolation,
                               ValidationError)
from gwhitehead.fixtures import all_fixtures, fix_r2, fix_r2w, random_instance
from gwhitehead.idealedges import (IdealEdge, canonical_rep, d_set,
                                   enumerate_ideal_edges, inverse_orbit,
                                   is_ideal_edge, orbit_union, translates)
from gwhitehead.marking import collapse_marked
from gwhitehead.moves import (blow_up, is_reductive_edge, max_reductive_pair,
                              reductivity)
from gwhitehead.norms import NormCalculator
from gwhitehead.selftest import check_star_retraction, reduce_to_forest_free
from gwhitehead.starcomplex import (IdealForest, SimplicialComplex,
                                    closure_pm, enumerate_ideal_forests,
                                    family, forest_violations, gamma_edge,
                                    order_complex, reduced_homology,
                                    reductive_orbits, run_retractions,
                                    star_complex)

from conftest import HORIZON
from oracles import (all_pairs_verify, candidate_pairs, dense_reduced_homology,
                     marked_isomorphic, verdict)


# ---------------------------------------------------------------------------
# homology oracles on complexes with known answers


def _complex(faces):
    """The closure of the given faces, as int masks over the sorted
    vertex labels."""
    verts = tuple(sorted({v for f in faces for v in f}))
    idx = {v: i for i, v in enumerate(verts)}
    closed = set()
    for f in faces:
        f = tuple(f)
        for r in range(1, len(f) + 1):
            for sub in itertools.combinations(f, r):
                closed.add(sum(1 << idx[v] for v in sub))
    return SimplicialComplex(verts, frozenset(closed))


def _sets(K):
    """The faces of K as frozensets of vertex indices, as the dense oracle
    takes them."""
    return frozenset(frozenset(i for i in range(len(K.vertices)) if x >> i & 1)
                     for x in K.faces)


def test_homology_point():
    assert reduced_homology(_complex([("a",)])) == (0,)


def test_homology_two_points():
    assert reduced_homology(_complex([("a",), ("b",)])) == (1,)


def test_homology_circle():
    K = _complex([("a", "b"), ("b", "c"), ("a", "c")])
    assert reduced_homology(K) == (0, 1)


def test_homology_disk():
    K = _complex([("a", "b", "c")])
    assert reduced_homology(K) == (0, 0, 0)


def test_homology_sphere():
    K = _complex([f for f in itertools.combinations("abcd", 3)])
    assert reduced_homology(K) == (0, 0, 1)


def _rose3(images):
    """Trivial-group rose with petals p1, p2, p3 and x_i -> images[i]."""
    return cli.parse("\n".join(
        ["[graph]", "basepoint = *", "vertex *"]
        + [f"edge p{i} : * -> *" for i in (1, 2, 3)]
        + ["[group]", "order = 1", "[marking]"]
        + [f"x{i} = {w}" for i, w in enumerate(images, 1)]) + "\n")


# 6-vertex RP^2: H_1 over Z is Z/2, so some pivot of d_2 is 2 in any
# elimination order; over Q the complex is acyclic, mod 2 it is (0, 1, 1)
RP2_TRIANGLES = [(0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
                 (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)]


def test_homology_rp2_over_q_divides_out_a_non_unit_pivot(monkeypatch):
    made = []

    class CountedFraction(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction.__new__(cls, *args)

    monkeypatch.setattr(starcomplex, "Fraction", CountedFraction)
    K = _complex(RP2_TRIANGLES)
    assert len(K.faces) == 6 + 15 + 10
    assert reduced_homology(K) == (0, 0, 0)
    assert made


def test_homology_seven_vertex_torus():
    K = _complex([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
                 + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])
    assert len(K.faces) == 7 + 21 + 14
    assert reduced_homology(K) == (0, 2, 1)


def test_reduced_homology_matches_dense_oracle():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 8)
        faces = [rng.sample(range(n), rng.randint(1, min(n, 5)))
                 for _ in range(rng.randint(1, 10))]
        K = _complex(faces)
        assert reduced_homology(K) == dense_reduced_homology(_sets(K)), faces
    instances = list(all_fixtures().values())
    instances += [random_instance(s) for s in range(7000, 7020)]
    for m in instances:
        m = reduce_to_forest_free(m)
        K = star_complex(m, reductive_orbits(m, "tot", HORIZON))
        assert reduced_homology(K) == dense_reduced_homology(_sets(K))
    # the corpus above is mostly reduced (empty R); these three-petal roses
    # have S(R) of 11, 19 and 31 forests at horizon 2
    for images, forests in ((["p1", "p2 p3", "p3"], 11),
                            (["p1", "p2", "p2 p1 p3"], 19),
                            (["p2 p1 p3", "p2", "p3"], 31)):
        m = _rose3(images)
        K = star_complex(m, reductive_orbits(m, "tot", 2))
        assert len(K.vertices) == forests
        assert reduced_homology(K) == dense_reduced_homology(_sets(K))


def test_complex_rejects_non_closed_face_sets():
    with pytest.raises(ValidationError):
        SimplicialComplex(("a", "b"), frozenset({0b11}))


def test_order_complex_of_a_chain_is_contractible():
    K = order_complex(["a", "ab", "abc"], [0b1, 0b11, 0b111])
    assert K.dim == 2
    assert reduced_homology(K) == (0, 0, 0)


def test_order_complex_of_an_antichain_is_discrete():
    K = order_complex(["a", "b", "c"], [0b1, 0b10, 0b100])
    assert K.dim == 0
    assert reduced_homology(K) == (2,)


@pytest.mark.parametrize("face, message", [
    (frozenset({0}), "is not an int mask"),
    (-1, "is negative"),
    (0, "empty face is excluded"),
    (0b100, "has a vertex beyond the 2 vertices"),
])
def test_complex_rejects_a_face_that_is_not_a_mask_over_its_vertices(
        face, message):
    with pytest.raises(ValidationError, match=message):
        SimplicialComplex(("a", "b"), frozenset({0b1, 0b10, face}))


def test_complex_rejects_a_triangle_missing_an_edge():
    triangle = {0b1, 0b10, 0b100, 0b11, 0b101, 0b110, 0b111}
    SimplicialComplex(("a", "b", "c"), frozenset(triangle))
    with pytest.raises(ValidationError, match="not downward closed"):
        SimplicialComplex(("a", "b", "c"), frozenset(triangle - {0b110}))


def _random_order(rng, n, p):
    """A random partial order on range(n): the transitive closure of pairs
    i < j drawn with probability p, read through a shuffle of the labels."""
    less = [[i < j and rng.random() < p for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        less[i][j] = less[i][j] or (less[i][k] and less[k][j])
    labels = list(range(n))
    rng.shuffle(labels)
    return labels, lambda a, b: a == b or less[a][b]


def _down_sets(elements, leq):
    """Each element's principal down-set, the mask of {j : elements[j] <=
    elements[i]}: ordered by inclusion exactly as the poset is."""
    return [sum(1 << j for j, y in enumerate(elements) if leq(y, x)) for x in elements]


def test_order_complex_faces_are_the_totally_ordered_subsets():
    rng = random.Random(1)
    posets = [(list(range(8)), lambda a, b: a <= b),
              (list(range(8)), lambda a, b: a == b)]
    posets += [_random_order(rng, rng.randint(1, 8), rng.random())
               for _ in range(60)]
    for elements, leq in posets:
        n = len(elements)
        brute = {x for x in range(1, 1 << n)
                 if all(leq(elements[i], elements[j]) or leq(elements[j], elements[i])
                        for i, j in itertools.combinations(range(n), 2)
                        if x >> i & 1 and x >> j & 1)}
        K = order_complex(elements, _down_sets(elements, leq))
        assert K.vertices == tuple(elements) and K.faces == brute
    assert [len(order_complex(elements, _down_sets(elements, leq)).faces)
            for elements, leq in posets[:2]] == [255, 8]


TORUS7 = ([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
          + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])

# (maximal faces, unreduced Betti numbers over Q)
PIECES = [
    ([(0,)], (1,)),
    ([(0, 1), (1, 2), (0, 2)], (1, 1)),
    ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], (1, 1)),
    (list(itertools.combinations(range(4), 3)), (1, 0, 1)),
    (TORUS7, (1, 2, 1)),
    (RP2_TRIANGLES, (1, 0, 0)),
    ([(0, 1, 2)], (1, 0, 0)),
    (list(itertools.combinations(range(5), 4)), (1, 0, 0, 1)),
    ([(0, 1, 2, 3)], (1, 0, 0, 0)),
]


def test_homology_in_several_degrees_matches_the_dense_oracle():
    """Disjoint unions of points, circles, 2- and 3-spheres, tori, RP^2 and
    balls, on shuffled vertex labels: Betti numbers add up over the
    pieces."""
    rng = random.Random(2)
    several = 0
    for _ in range(60):
        faces, total = [], [0, 0, 0, 0]
        for piece, betti in rng.choices(PIECES, k=rng.randint(2, 4)):
            base = 1 + max((v for f in faces for v in f), default=0)
            faces += [tuple(base + v for v in f) for f in piece]
            total = [t + b for t, b in itertools.zip_longest(total, betti, fillvalue=0)]
        labels = list(range(1 + max(v for f in faces for v in f)))
        rng.shuffle(labels)
        K = _complex([tuple(labels[v] for v in f) for f in faces])
        want = tuple([total[0] - 1] + total[1:K.dim + 1])
        assert reduced_homology(K) == dense_reduced_homology(_sets(K)) == want
        several += sum(b != 0 for b in want) > 1
    assert several > 30


# ---------------------------------------------------------------------------
# ideal forests


FROZEN_FOREST_COUNTS = {
    "FIX-R2": 25, "FIX-R2-SWAP": 5, "FIX-R2W": 25, "FIX-THETA": 5,
}


@pytest.mark.parametrize("name", sorted(FROZEN_FOREST_COUNTS))
def test_frozen_forest_counts(name):
    m = reduce_to_forest_free(all_fixtures()[name])
    forests = enumerate_ideal_forests(m, enumerate_ideal_edges(m))
    assert len(forests) == FROZEN_FOREST_COUNTS[name]
    for f in forests:
        assert not forest_violations(m, f.orbits)


def test_forest_violations_flag_incompatible_pairs():
    m = fix_r2()
    a = IdealEdge(0, frozenset({0, 2}))
    b = IdealEdge(0, frozenset({0, 3}))
    assert forest_violations(m, (a, b))
    assert forest_violations(m, ())  # empty forest excluded


def test_forest_poset_order():
    f1 = IdealForest((IdealEdge(0, frozenset({0, 2})),))
    f2 = IdealForest((IdealEdge(0, frozenset({0, 2})),
                      IdealEdge(0, frozenset({1, 3}))))
    assert f1 <= f2
    assert not f2 <= f1


# ---------------------------------------------------------------------------
# blow-up realization of forests: the poset-isomorphism sanity check


def blow_up_forest(m, forest):
    """Blow up every orbit of a forest, outermost orbits first.

    Returns (marked graph, {orbit key: new pair ids}).  Edge ids are stable
    across successive blow-ups, so nested orbits stay well-defined; only
    their vertex has to be re-read from the current graph.
    """
    orbits = sorted(forest.orbits,
                    key=lambda a: (-len(orbit_union(m.graph, a)), a.key()))
    new_pairs = {}
    cur = m
    for a in orbits:
        v = cur.graph.term[sorted(a.edges)[0]]
        cur, info = blow_up(cur, IdealEdge(v, a.edges))
        new_pairs[a.key()] = frozenset(e // 2 for e in info.new_edges)
    return cur, new_pairs


def _fixture_forests(name):
    m = reduce_to_forest_free(all_fixtures()[name])
    return m, enumerate_ideal_forests(m, enumerate_ideal_edges(m))


@pytest.mark.parametrize("name", sorted(FROZEN_FOREST_COUNTS))
def test_distinct_forests_give_distinct_blowups(name):
    m, forests = _fixture_forests(name)
    blown = [blow_up_forest(m, f)[0] for f in forests]
    for i, j in itertools.combinations(range(len(blown)), 2):
        assert not marked_isomorphic(blown[i], blown[j]), (
            f"forests {forests[i].key()} and {forests[j].key()} "
            "blow up to the same marked graph")


@pytest.mark.parametrize("name", sorted(FROZEN_FOREST_COUNTS))
def test_subforest_blowup_is_collapse_ancestor(name):
    m, forests = _fixture_forests(name)
    for f in forests:
        big, pairs = blow_up_forest(m, f)
        for r in range(1, len(f.orbits)):
            for sub in itertools.combinations(f.orbits, r):
                if forest_violations(m, sub):
                    continue
                small = IdealForest(tuple(sub))
                drop = frozenset().union(
                    *(pairs[a.key()] for a in f.orbits if a not in sub))
                collapsed, _, _ = collapse_marked(big, drop)
                expect, _ = blow_up_forest(m, small)
                assert marked_isomorphic(collapsed, expect)


# ---------------------------------------------------------------------------
# families and retractions


def test_r2w_reductive_family_frozen():
    m = fix_r2w()
    R = reductive_orbits(m, "tot", HORIZON)
    assert sorted(a.key() for a in R) == [(0, (0, 3)), (0, (1, 2))]
    assert gamma_edge(m, R) is None
    for which in ("C0", "C0p", "C1"):
        assert family(m, which, HORIZON) == R
    assert closure_pm(m, R) == R


def test_family_nesting(named_instance):
    m = reduce_to_forest_free(named_instance)
    R = reductive_orbits(m, "tot", HORIZON)
    if not R:
        pytest.skip("no reductive orbits")
    C0 = family(m, "C0", HORIZON)
    C0p = family(m, "C0p", HORIZON)
    C1 = family(m, "C1", HORIZON)
    assert C0 <= C0p <= C1 <= R


def test_family_rejects_unknown_name():
    with pytest.raises(ValidationError):
        family(fix_r2w(), "C2", HORIZON)


def test_star_complex_of_reductive_family_is_acyclic(named_instance):
    m = reduce_to_forest_free(named_instance)
    R = reductive_orbits(m, "tot", HORIZON)
    if not R:
        pytest.skip("no reductive orbits")
    betti = reduced_homology(star_complex(m, R))
    assert all(b == 0 for b in betti)


def test_one_forest_search_per_marked_graph_and_pool(monkeypatch):
    searched = []
    search = starcomplex._search_forests

    def counted(m, pool):
        searched.append(tuple(pool))
        return search(m, pool)

    monkeypatch.setattr(starcomplex, "_search_forests", counted)
    images = ["p2 p1 p3", "p2", "p3"]
    m = _rose3(images)
    R = reductive_orbits(m, "tot", 2)
    assert closure_pm(m, R) == R  # every orbit is at *
    assert len(star_complex(m, R).vertices) == 31
    assert run_retractions(m, 2, homology=True).status == "done"
    assert searched == [tuple(sorted(R, key=lambda a: a.key()))]
    # an equal but fresh marked graph, or another pool, searches again
    fresh = _rose3(images)
    assert fresh == m
    assert enumerate_ideal_forests(fresh, R) == enumerate_ideal_forests(m, R)
    assert len(searched) == 2
    enumerate_ideal_forests(m, sorted(R, key=lambda a: a.key())[1:])
    assert len(searched) == 3
    # a search that raises keeps nothing, so it raises again
    monkeypatch.setattr(starcomplex, "MAX_FORESTS", 5)
    for count in (4, 5):
        with pytest.raises(HypothesisNotMet):
            enumerate_ideal_forests(fresh, R)
        assert len(searched) == count
    monkeypatch.setattr(starcomplex, "MAX_FORESTS", 20000)
    assert len(enumerate_ideal_forests(fresh, R)) == 31 and len(searched) == 5


def test_run_retractions_requires_reduced_input():
    with pytest.raises(HypothesisNotMet):
        run_retractions(all_fixtures()["FIX-THETA"], HORIZON)


FROZEN_STATUS = {
    "FIX-R2": "degenerate", "FIX-R2-SWAP": "degenerate",
    "FIX-THETA": "degenerate", "FIX-R2W": "done",
}


@pytest.mark.parametrize("name", sorted(FROZEN_STATUS))
def test_retraction_status_frozen(name):
    m = reduce_to_forest_free(all_fixtures()[name])
    trace = run_retractions(m, HORIZON, homology=True)
    assert trace.status == FROZEN_STATUS[name]
    for step in trace.steps:
        assert step.n_after <= step.n_before
        assert all(b == 0 for b in step.betti)
    if trace.status == "done":
        assert len(trace.final_forests) == 1


def test_r2w_retraction_trace_frozen():
    trace = run_retractions(fix_r2w(), HORIZON)
    assert trace.status == "done"
    assert [(s.stage, s.n_before, s.n_after) for s in trace.steps] == [
        ("C0->point", 3, 1)]
    assert trace.final_forests[0].key() == (((0, (1, 2))),)


# The only saved instances whose retraction runs eliminate: four C0p->C0
# steps each, then the contraction to a point.  Steps are (stage, alpha,
# alpha0, forests before, forests after, reduced Betti numbers after).
INSTANCES = pathlib.Path(__file__).parent / "instances"
FROZEN_TRACES = {
    20026: [
        ("C0p->C0", ((0, (0, 2, 5)),), ((0, (0, 2)),), 103, 91, (0, 0, 0, 0)),
        ("C0p->C0", ((0, (1, 3, 4)),), ((0, (1, 3, 4, 5)),), 91, 83, (0, 0, 0, 0)),
        ("C0p->C0", ((0, (0, 2, 3, 4)),), ((0, (1, 5)),), 83, 71, (0, 0, 0, 0)),
        ("C0p->C0", ((0, (0, 2, 4, 5)),), ((0, (1, 3)),), 71, 59, (0, 0, 0, 0)),
        ("C0->point", ((0, (1, 3, 5)),), ((0, (1, 3, 5)),), 59, 1, (0,))],
    20045: [
        ("C0p->C0", ((0, (0, 2, 4)),), ((0, (0, 2)),), 125, 113, (0, 0, 0, 0)),
        ("C0p->C0", ((0, (1, 3, 5)),), ((0, (1, 3, 4, 5)),), 113, 101, (0, 0, 0, 0)),
        ("C0p->C0", ((0, (0, 1, 2, 5)),), ((0, (3, 4)),), 101, 89, (0, 0, 0, 0)),
        ("C0p->C0", ((0, (0, 2, 4, 5)),), ((0, (1, 3)),), 89, 77, (0, 0, 0, 0)),
        ("C0->point", ((0, (1, 3, 4)),), ((0, (1, 3, 4)),), 77, 1, (0,))],
}


@pytest.mark.parametrize("seed", sorted(FROZEN_TRACES))
def test_eliminate_trace_frozen(seed, monkeypatch):
    m = cli.parse((INSTANCES / f"random-{seed}.txt").read_text())
    drawn = random_instance(seed)
    assert m.basis_paths == drawn.basis_paths
    assert len(set(drawn.graph.edge_action)) == 1  # the drawn group acts trivially
    verified = []
    verify = starcomplex._Engine.verify

    def counted(self, stage, *args):
        verified.append(stage)
        return verify(self, stage, *args)

    monkeypatch.setattr(starcomplex._Engine, "verify", counted)
    trace = run_retractions(m, 3, homology=True)
    assert (trace.status, trace.detail) == ("done", "retracted to a single forest")
    assert [(s.stage, s.alpha, s.alpha0, s.n_before, s.n_after, s.betti)
            for s in trace.steps] == FROZEN_TRACES[seed]
    assert verified == [s.stage for s in trace.steps]
    assert [f.key() for f in trace.final_forests] == [FROZEN_TRACES[seed][-1][2]]


# Each side condition the engine's verifier checks, made to fail by a step
# (T, A) on the forests of a graph over all of its ideal edges, as masks
# over the engine's numbering of those edges.


def _probe(m):
    edges = enumerate_ideal_edges(m)
    eng = starcomplex._Engine(m, frozenset(edges), False)
    return eng, [eng.mask(f.orbits) for f in enumerate_ideal_forests(m, edges)]


# two incompatible orbits at the basepoint of the two-petal rose
_A, _B = IdealEdge(0, frozenset({0, 2})), IdealEdge(0, frozenset({0, 3}))


def test_verifier_rejects_a_non_monotone_f():
    """A step (T, A) has a monotone f by its form, so the engine cannot be
    handed one that is not; the all-pairs reference still catches it."""
    m = fix_r2()
    S = enumerate_ideal_forests(m, enumerate_ideal_edges(m))
    p1, q = next((p1, q) for p1, p2, q in itertools.product(S, repeat=3)
                 if p1 <= p2 and p1 != p2 and p1 <= q and not q <= p2)
    with pytest.raises(PropertyViolation, match=r"^\[probe\] f is not monotone"):
        all_pairs_verify(m, "probe", S, lambda phi: q if phi == p1 else phi,
                         lambda psi: psi, S)


def test_verifier_rejects_an_f_image_outside_the_complex():
    eng, S = _probe(fix_r2())
    with pytest.raises(PropertyViolation,
                       match=r"^\[probe\] f\(Phi\) is not an ideal forest.*incompatible"):
        eng.verify("probe", S, eng.mask([_A]), eng.mask([_B]))


def test_verifier_rejects_a_contraction_to_an_incompatible_point():
    """The contraction to {mu} is the step T = all orbits but mu, A = {mu};
    a forest incompatible with mu has no image."""
    eng, S = _probe(fix_r2())
    point = eng.bit[_B]
    match = r"^\[probe\] f\(Phi\) is not an ideal forest.*incompatible"
    with pytest.raises(PropertyViolation, match=match):
        eng.verify("probe", S, (1 << len(eng.pool)) - 1 & ~point, point)
    with pytest.raises(PropertyViolation, match=match):
        eng.contract_to_point(S, _B, "probe")


def test_verifier_rejects_a_g_that_empties_a_forest():
    eng, S = _probe(fix_r2())
    with pytest.raises(PropertyViolation, match=r"^\[probe\] g empties the forest"):
        eng.verify("probe", S, eng.mask([_A]), 0)


def test_verifier_rejects_a_g_image_other_than_the_new_complex():
    """Taking away the inverse of an invertible orbit away from * alone
    leaves the orbit without its inverse."""
    eng, S = _probe(reduce_to_forest_free(random_instance(20000)))
    g = eng.g
    a = next(a for a in eng.pool if a.vertex != g.basepoint
             and inverse_orbit(g, a) not in (None, a))
    T = eng.bit[inverse_orbit(g, a)]
    with pytest.raises(PropertyViolation,
                       match=r"^\[probe\] g\(Psi\) is not an ideal forest.*inverse"):
        eng.verify("probe", S, T, 0)


def _count_scans(monkeypatch):
    """Count calls of reductive_scan and of its two readers through every
    module binding, and the norm-kernel calls made inside scans: the edge
    sets given to abs_sign and to set_abs, the number of calls of the signs
    abs_sign returns, and the number of edge_abs calls."""
    calls = dict.fromkeys(("reductive_scan", "reductive_orbits",
                           "max_reductive_pair", "signs", "edge_abs"), 0)
    calls["abs_sign"], calls["set_abs"] = [], []
    active = []
    scan = moves.reductive_scan
    for fn in (scan, starcomplex.reductive_orbits, moves.max_reductive_pair):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            active.append(_fn)
            try:
                return _fn(*args, **kwargs)
            finally:
                active.pop()

        for mod in (moves, starcomplex, selftest):
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)

    abs_sign = NormCalculator.abs_sign
    set_abs, edge_abs = NormCalculator.set_abs, NormCalculator.edge_abs

    def counted_abs_sign(self, C, kind):
        sign = abs_sign(self, C, kind)
        if scan not in active:
            return sign
        calls["abs_sign"].append(C)

        def counted_sign(a):
            calls["signs"] += 1
            return sign(a)

        return counted_sign

    def counted_set_abs(self, C, kind):
        if scan in active:
            calls["set_abs"].append(C)
        return set_abs(self, C, kind)

    def counted_edge_abs(self, e, kind):
        calls["edge_abs"] += scan in active
        return edge_abs(self, e, kind)

    monkeypatch.setattr(NormCalculator, "abs_sign", counted_abs_sign)
    monkeypatch.setattr(NormCalculator, "set_abs", counted_set_abs)
    monkeypatch.setattr(NormCalculator, "edge_abs", counted_edge_abs)
    return calls


def test_run_retractions_computes_reductive_data_once(monkeypatch):
    m = fix_r2w()
    pairs = candidate_pairs(m)
    alphas = list(dict.fromkeys(alpha.edges for alpha, _ in pairs))
    reductive = [(alpha, a) for alpha, a in pairs
                 if verdict(reductivity(m, alpha, a, "tot", HORIZON)) == "reductive"]
    R = list(dict.fromkeys(alpha.edges for alpha, _ in reductive))
    assert (len(alphas), len(pairs), len(R), len(reductive)) == (8, 12, 2, 2)
    calls = _count_scans(monkeypatch)
    trace = run_retractions(m, HORIZON)
    assert trace.status == "done"
    # one packed |alpha| per alpha with D(alpha) nonempty and one packed
    # comparison per pair; unpacked |alpha| only for the alphas in R, and
    # unpacked |a| only for the reductive pairs
    assert calls == {"reductive_scan": 1, "reductive_orbits": 0,
                     "max_reductive_pair": 0, "abs_sign": alphas,
                     "signs": len(pairs), "set_abs": R,
                     "edge_abs": len(reductive)}
    # the trace records the R and the pair the retraction used
    assert trace.R == reductive_orbits(m, "tot", HORIZON)
    assert trace.pair == max_reductive_pair(m, HORIZON)
    degenerate = run_retractions(fix_r2(), HORIZON)
    assert (degenerate.status, degenerate.R, degenerate.pair) == (
        "degenerate", frozenset(), None)


def test_family_and_check_star_retraction_scan_once(monkeypatch):
    m = fix_r2w()
    calls = _count_scans(monkeypatch)
    for which in ("R", "C0", "C0p", "C1"):
        family(m, which, HORIZON)
    assert calls["reductive_scan"] == 4
    assert check_star_retraction(m, HORIZON).status == "done"
    assert calls["reductive_scan"] == 5


def test_a_repeat_scan_reads_the_marked_graph(monkeypatch):
    m = fix_r2w()
    calls = _count_scans(monkeypatch)
    first = moves.reductive_scan(m, HORIZON)
    full = len(calls["abs_sign"])
    assert full == 8
    # the same marked graph: the scan is read back, no kernel call is made
    assert moves.reductive_scan(m, HORIZON) is first
    assert reductive_orbits(m, "tot", HORIZON) is first[0]
    assert run_retractions(m, HORIZON).R is first[0]
    assert len(calls["abs_sign"]) == full and calls["reductive_scan"] == 4
    # an equal but fresh marked graph, another horizon or another kind
    # scans in full
    fresh = fix_r2w()
    assert fresh == m and hash(fresh) == hash(m) and repr(fresh) == repr(m)
    assert moves.reductive_scan(fresh, HORIZON) == first
    assert len(calls["abs_sign"]) == 2 * full
    moves.reductive_scan(m, HORIZON - 1)
    assert len(calls["abs_sign"]) == 3 * full
    moves.reductive_scan(m, HORIZON, "aut")
    assert len(calls["abs_sign"]) == 4 * full


def test_suite_lemmas_scans_aut_pairs_once_per_instance(monkeypatch):
    # the pushing and shrinking checks and every aut is_reductive_edge
    # read one memoised scan per instance; count the scans that compute
    kinds = []
    scan = moves.reductive_scan

    def counted(m, horizon, kind="tot"):
        if (horizon, kind) not in m._scans:
            kinds.append(kind)
        return scan(m, horizon, kind)

    for mod in (moves, starcomplex):
        monkeypatch.setattr(mod, "reductive_scan", counted)
    results = selftest.run_suites("lemmas", 1, 3, random_count=5)
    assert len(results) == 9 and all(r.ok for r in results)
    assert kinds.count("aut") == 9


def test_is_reductive_edge_matches_edge_reductivity():
    # the reference: some reductivity over D(alpha) is reductive, for every
    # translate alpha of every orbit, raw and forest-free, not only for the
    # rep R holds
    instances = list(all_fixtures().values()) + [
        random_instance(s) for s in range(7000, 7050)]
    for m in instances + [reduce_to_forest_free(m) for m in instances]:
        for rep in enumerate_ideal_edges(m):
            for alpha, kind in itertools.product(translates(m.graph, rep),
                                                 ("tot", "aut")):
                want = any(verdict(reductivity(m, alpha, a, kind, HORIZON))
                           == "reductive" for a in d_set(m, alpha))
                assert is_reductive_edge(m, alpha.edges, alpha.vertex, kind,
                                         HORIZON) == want
    m = fix_r2w()
    edges = frozenset(m.graph.edges_at(m.graph.basepoint))
    assert not is_ideal_edge(m.graph, m.graph.basepoint, edges)
    assert not is_reductive_edge(m, edges, m.graph.basepoint, "tot", HORIZON)


def test_reductivity_is_read_from_R():
    """The retraction engine counts an edge set as reductive when the
    canonical rep of its orbit is in R; that agrees with is_reductive_edge
    on every nonempty subset of every E_v, raw and forest-free."""
    raw = list(all_fixtures().values()) + [
        random_instance(s) for s in range(7000, 7050)]
    reductive_with_group = 0
    for m in raw + [reduce_to_forest_free(m) for m in raw]:
        g = m.graph
        R = reductive_orbits(m, "tot", 3)
        for v in range(g.n_vertices):
            ev = g.edges_at(v)
            for r in range(1, len(ev) + 1):
                for S in itertools.combinations(ev, r):
                    alpha = IdealEdge(v, frozenset(S))
                    got = is_reductive_edge(m, S, v, "tot", 3)
                    # a set that is not an ideal edge has no orbit, so no
                    # canonical rep, and is never reductive
                    if not is_ideal_edge(g, v, S):
                        assert not got, (m, alpha)
                        continue
                    assert got == (canonical_rep(g, alpha) in R), (m, alpha)
                    reductive_with_group += got and g.group.order > 1
    assert reductive_with_group
