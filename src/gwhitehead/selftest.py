"""Property suites shared by the CLI selftest command and the test suite.

Each check either returns quietly or raises PropertyViolation with a
minimal witness description.  Suites aggregate checks over the named
fixtures plus seeded random instances and report one line per check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import PropertyViolation
from .fixtures import all_fixtures, random_instance
from .ggraph import is_reduced, maximal_invariant_forest
from .idealedges import (crossing, d_set, enumerate_ideal_edges, is_invertible,
                         orbit_union, stab_set, translate_at, translate_through,
                         translates)
from .marking import collapse_marked
from .moves import blow_up, is_reductive_edge, max_reductive_pair, whitehead
from .norms import KINDS, calculator
from .starcomplex import (gamma_edge, nested_families, reduced_homology,
                          reductive_orbits, run_retractions, star_complex)


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def reduce_to_forest_free(m):
    while True:
        forest = maximal_invariant_forest(m.graph)
        if not forest:
            return m
        m, _, _ = collapse_marked(m, forest)


# ---------------------------------------------------------------------------
# norm checks


def check_norm_consistency(m, horizon):
    """all_norms() computes out and aut two ways each, through norm(), and
    hard-errors on mismatch; later all_norms() calls on the same calculator
    reuse that result."""
    calculator(m, horizon).all_norms()


def check_inclusion_exclusion(m, A, B, kind, horizon):
    """|A u B| = |A| + |B| - 2(A.B) for disjoint A and B."""
    calc = calculator(m, horizon)
    lhs = calc.set_abs(A | B, kind)
    rhs = calc.set_abs(A, kind) + calc.set_abs(B, kind) - calc.dot(A, B, kind).scale(2)
    if lhs.coords != rhs.coords:
        raise PropertyViolation(
            f"inclusion-exclusion fails ({kind}): A={sorted(A)} B={sorted(B)} "
            f"|AuB|={lhs.coords} rhs={rhs.coords}")


def dot_identity_holds(m, A, kind, horizon):
    """Whether |A| equals (A . (E - A)); it always holds for out, and some
    A on each fixture breaks it for aut."""
    calc = calculator(m, horizon)
    comp = frozenset(range(m.graph.n_edges)) - frozenset(A)
    return calc.set_abs(A, kind).coords == calc.dot(A, comp, kind).coords


def check_coset_identity(m, K, e, A, kind, horizon):
    """((Ke).A) = [K:stab_K(e)] (e.A) for K-invariant A, stab(e) <= K."""
    g = m.graph
    calc = calculator(m, horizon)
    Ke = frozenset(g.edge_action[k][e] for k in K)
    lhs = calc.dot(Ke, A, kind)
    rhs = calc.dot(frozenset({e}), A, kind).scale(len(Ke))
    if lhs.coords != rhs.coords:
        raise PropertyViolation(
            f"coset identity fails ({kind}): K={K} e={e} A={sorted(A)} "
            f"lhs={lhs.coords} rhs={rhs.coords}")


def coset_cases(m):
    """All (K, e, A) triples satisfying the hypotheses, for small graphs."""
    g = m.graph
    edges = list(range(g.n_edges))
    for K in g.group.subgroups():
        Kset = frozenset(K)
        invariant = [A for A in _small_subsets(edges)
                     if all(frozenset(g.edge_action[k][a] for a in A) == A
                            for k in K)]
        for e in edges:
            if not set(g.stab_edge(e)) <= Kset:
                continue
            for A in invariant:
                yield K, e, A


def _small_subsets(edges):
    for r in range(1, min(3, len(edges)) + 1):
        for combo in itertools.combinations(edges, r):
            yield frozenset(combo)


# ---------------------------------------------------------------------------
# move checks


def check_norm_change(m, alpha, a, horizon):
    """The Whitehead move changes each norm by [G:stab(alpha)](|alpha|-|a|)."""
    calc = calculator(m, horizon)
    m2 = whitehead(m, alpha, a)
    calc2 = calculator(m2, horizon)
    idx = len(translates(m.graph, alpha))  # [G:stab alpha], by orbit-stabilizer
    for kind, before, after in zip(KINDS, calc.all_norms(), calc2.all_norms()):
        delta = (calc.set_abs(alpha.edges, kind)
                 - calc.edge_abs(a, kind)).scale(idx)
        if after.coords != (before + delta).coords:
            raise PropertyViolation(
                f"norm-change law fails ({kind}) for alpha={alpha.key()} "
                f"a={a}: after={after.coords} expected={(before + delta).coords}")


def check_blowup_correspondence(m, alpha, horizon):
    """|alpha| in the graph equals |e(alpha)| in the blow-up, both kinds."""
    calc = calculator(m, horizon)
    m2, info = blow_up(m, alpha)
    calc2 = calculator(m2, horizon)
    e_new = info.edge_for(frozenset(alpha.edges))
    for kind in ("out", "aut"):
        want = calc.set_abs(alpha.edges, kind)
        got = calc2.edge_abs(e_new, kind)
        if want.coords != got.coords:
            raise PropertyViolation(
                f"blow-up correspondence fails ({kind}) for {alpha.key()}: "
                f"|alpha|={want.coords} |e(alpha)|={got.coords}")


def check_blowup_roundtrip(m, alpha):
    """Collapsing the new orbit after a blow-up restores the instance."""
    from .cli import canonical_text
    m2, info = blow_up(m, alpha)
    new_pairs = frozenset(e // 2 for e in info.new_edges)
    m3, _, _ = collapse_marked(m2, new_pairs)
    if canonical_text(m3) != canonical_text(m):
        raise PropertyViolation(
            f"blow-up/collapse round trip altered the instance for "
            f"{alpha.key()}")


# ---------------------------------------------------------------------------
# lemma checks


def _cohabiting_pairs(m):
    """(alpha, beta translate) pairs at a shared vertex, distinct orbits."""
    g = m.graph
    reps = enumerate_ideal_edges(m)
    for alpha, beta in itertools.permutations(reps, 2):
        t = translate_at(g, beta, alpha.vertex)
        if t is not None:
            yield alpha, t


def check_crossing_inequalities(m, horizon):
    """Lemmas on simple crossings and component removal, per coordinate.

    For each cohabiting pair (alpha, beta) that crosses, with p and q the
    orbit sizes of alpha and beta, each inequality p |X| + q |Y| <=
    p |alpha| + q |beta| is decided per kind (out, then aut) by
    NormCalculator.abs_le on packed ints, one comparison per part; abs_le
    sums each side once per part, so the right-hand side
    that all inequalities of a pair share is summed once.  P, Q and
    Q alpha are found once per pair; each stabilizer is read from the
    graph's memo (stab_set), shared with crossing.  Returns the number of
    inequalities checked.
    """
    g = m.graph
    calc = calculator(m, horizon)
    checked = 0
    for alpha, beta in _cohabiting_pairs(m):
        cr = crossing(g, alpha, beta)
        if cr.number == 0:
            continue
        p = len(translates(g, alpha))
        q = len(translates(g, beta))
        rhs = ((p, alpha.edges), (q, beta.edges))
        simple = None
        if cr.number == 1:
            Q = stab_set(g, beta.edges)
            if set(stab_set(g, alpha.edges)).issubset(Q):
                Qalpha = frozenset().union(*(g.act_edge_set(x, alpha.edges) for x in Q))
                simple = ((p, alpha.edges & beta.edges), (q, beta.edges | Qalpha))
        removals = [((p, alpha.edges - gamma), (q, beta.edges - gamma_d))
                    for gamma, gamma_d in zip(cr.components, cr.dual_components)]
        for kind in ("out", "aut"):
            if simple is not None:
                if not calc.abs_le(kind, simple, rhs):
                    raise PropertyViolation(
                        f"simple-crossing inequality fails ({kind}): "
                        f"alpha={alpha.key()} beta={beta.key()}")
                checked += 1
            for gamma, lhs in zip(cr.components, removals):
                if not calc.abs_le(kind, lhs, rhs):
                    raise PropertyViolation(
                        f"component-removal inequality fails ({kind}): "
                        f"alpha={alpha.key()} beta={beta.key()} "
                        f"gamma={sorted(gamma)}")
                checked += 1
    return checked


def check_pushing_lemma(m, horizon):
    """Either both mu-alpha and alpha-mu, or both alpha u Pmu and
    alpha n mu, are aut-reductive (for aut-reductive alpha containing m
    crossing mu simply), where (mu, m) is the aut maximal reductive pair."""
    g = m.graph
    kind = "aut"
    pair = max_reductive_pair(m, horizon, kind)
    if pair is None:
        return 0
    mu, mhat = pair.edge, pair.collapse_target
    checked = 0
    for alpha in enumerate_ideal_edges(m):
        t = translate_through(g, alpha, mhat)
        if t is None or t.vertex != mu.vertex:
            continue
        if orbit_union(g, alpha) == orbit_union(g, mu):
            continue
        if crossing(g, alpha, mu).number != 1:
            continue
        if not is_reductive_edge(m, t.edges, t.vertex, kind, horizon):
            continue
        P = stab_set(g, t.edges)
        Pmu = frozenset().union(*(g.act_edge_set(x, mu.edges) for x in P))
        first = (is_reductive_edge(m, mu.edges - t.edges, mu.vertex, kind, horizon)
                 and is_reductive_edge(m, t.edges - mu.edges, mu.vertex, kind,
                                       horizon))
        second = (is_reductive_edge(m, t.edges | Pmu, mu.vertex, kind, horizon)
                  and is_reductive_edge(m, t.edges & mu.edges, mu.vertex, kind,
                                        horizon))
        if not (first or second):
            raise PropertyViolation(
                f"pushing lemma fails ({kind}): mu={mu.key()} m={mhat} "
                f"alpha={t.key()}")
        checked += 1
    return checked


def check_shrinking_lemma(m, horizon):
    """beta or one of the m-free intersection components is aut-reductive,
    where (mu, m) is the aut maximal reductive pair."""
    g = m.graph
    kind = "aut"
    pair = max_reductive_pair(m, horizon, kind)
    if pair is None:
        return 0
    mu, mhat = pair.edge, pair.collapse_target
    m_orbit = g.orbit_edge(mhat)
    checked = 0
    for alpha in enumerate_ideal_edges(m):
        if translate_at(g, alpha, mu.vertex) is None:
            continue
        if orbit_union(g, alpha) == orbit_union(g, mu):
            continue
        cr = crossing(g, alpha, mu)
        if cr.number == 0:
            continue
        # the source proof assumes alpha itself is reductive
        if not is_reductive_edge(m, alpha.edges, alpha.vertex, kind, horizon):
            continue
        no_m = [c for c in cr.components if not (c & m_orbit)]
        beta = alpha.edges - frozenset().union(*no_m)
        candidates = list(no_m) + [beta]
        if not any(is_reductive_edge(m, c, alpha.vertex, kind, horizon)
                   for c in candidates if c):
            raise PropertyViolation(
                f"shrinking lemma fails ({kind}): mu={mu.key()} "
                f"alpha={alpha.key()}")
        checked += 1
    return checked


def check_invertible_reductive(m, horizon):
    """Inverses of invertible tot-reductive edges are tot-reductive."""
    g = m.graph
    if not is_reduced(g):
        return 0
    checked = 0
    for alpha in enumerate_ideal_edges(m):
        if alpha.vertex != g.basepoint:
            continue
        inv, ainv = is_invertible(g, alpha)
        if not inv:
            continue
        if not is_reductive_edge(m, alpha.edges, alpha.vertex, "tot", horizon):
            continue
        if not is_reductive_edge(m, ainv.edges, ainv.vertex, "tot", horizon):
            raise PropertyViolation(
                f"invertible reductive edge {alpha.key()} has "
                "non-reductive inverse")
        checked += 1
    return checked


def check_conjugation_edge(m, horizon):
    """At most one non-invertible full-stabilizer reductive edge at *;
    the corresponding move is out-norm neutral."""
    if not is_reduced(m.graph):
        return 0
    R = reductive_orbits(m, "tot", horizon)
    gamma = gamma_edge(m, R)  # raises when two exist
    if gamma is None:
        return 0
    calc = calculator(m, horizon)
    for c in sorted(d_set(m, gamma)):
        m2 = whitehead(m, gamma, c)
        calc2 = calculator(m2, horizon)
        if calc.norm("out").coords != calc2.norm("out").coords:
            raise PropertyViolation(
                f"conjugation move ({gamma.key()},{c}) changed the out-norm")
    return 1


def check_star_retraction(m, horizon):
    """On a reduced instance: C0 <= C0' <= C1 <= R, S(R) is acyclic, and a
    finished retraction ends at a single forest.  R and the maximal pair are
    the ones the retraction recorded.  Returns the trace."""
    trace = run_retractions(m, horizon)
    if trace.R:
        C0, C0p, C1 = nested_families(m.graph, trace.R, trace.pair.edge,
                                      trace.pair.collapse_target)
        if not (C0 <= C0p <= C1 <= trace.R):
            raise PropertyViolation(
                "family nesting C0 <= C0' <= C1 <= R fails")
        betti = reduced_homology(star_complex(m, trace.R))
        if any(b != 0 for b in betti):
            raise PropertyViolation(
                f"S(R) has nonzero reduced homology {betti}")
    if trace.status == "done" and len(trace.final_forests) != 1:
        raise PropertyViolation(
            "retraction finished without a single final forest")
    return trace


# ---------------------------------------------------------------------------
# suites


def _corpus(seed, count):
    items = list(all_fixtures().items())
    for i in range(count):
        items.append((f"random-{seed}-{i}", random_instance(seed * 1000 + i)))
    return items


def _norm_identities(m, horizon, rng):
    check_norm_consistency(m, horizon)
    edges = list(range(m.graph.n_edges))
    for _ in range(20):
        k = rng.randrange(1, len(edges))
        A = frozenset(rng.sample(edges, k))
        rest = [e for e in edges if e not in A]
        B = frozenset(rng.sample(rest, rng.randrange(1, len(rest) + 1)))
        for kind in ("out", "aut"):
            check_inclusion_exclusion(m, A, B, kind, horizon)
        if not dot_identity_holds(m, A, "out", horizon):
            raise PropertyViolation(
                f"out identity |A|=(A.E-A) fails for A={sorted(A)}")
    for K, e, A in coset_cases(m):
        for kind in ("out", "aut"):
            check_coset_identity(m, K, e, A, kind, horizon)
    return ""


def _lemma_checks(m, horizon, rng):
    for alpha in enumerate_ideal_edges(m):
        check_blowup_correspondence(m, alpha, horizon)
        check_blowup_roundtrip(m, alpha)
        for a in sorted(d_set(m, alpha)):
            check_norm_change(m, alpha, a, horizon)
    check_crossing_inequalities(m, horizon)
    check_pushing_lemma(m, horizon)
    check_shrinking_lemma(m, horizon)
    red = reduce_to_forest_free(m)
    check_invertible_reductive(red, horizon)
    check_conjugation_edge(red, horizon)
    return ""


def _star_retraction(m, horizon, rng):
    return check_star_retraction(reduce_to_forest_free(m), horizon).status


SUITES = {"norms": _norm_identities, "lemmas": _lemma_checks,
          "star": _star_retraction}


def run_suites(which, seed, horizon, random_count=10):
    """Each suite's check of each corpus instance; a check draws from its
    suite's own random.Random(seed) and returns its passing line's detail."""
    names = list(SUITES) if which == "all" else [which]
    results = []
    for suite in names:
        rng = random.Random(seed)
        for name, m in _corpus(seed, random_count):
            try:
                detail = SUITES[suite](m, horizon, rng)
                results.append(CheckResult(suite, name, True, detail))
            except PropertyViolation as exc:
                results.append(CheckResult(suite, name, False, str(exc)))
    return results
