"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <n> <label>: PASS` on success; a failure
raises with a witness (criterion 7 additionally writes a minimal witness
file next to this module).  Tolerances: all identities are exact integer
equalities per coordinate; the only pinned non-exact bounds are the
runtime budgets stated in the criteria (60 s for criterion 1, 120 s per
instance for criterion 10) and the 500-step descent budget.
"""

import functools
import pathlib
import random
import time

from gwhitehead.fixtures import all_fixtures, random_instance
from gwhitehead.idealedges import enumerate_ideal_edges
from gwhitehead.moves import greedy_reduce
from gwhitehead.norms import calculator
from gwhitehead.selftest import (check_blowup_correspondence,
                                 check_blowup_roundtrip, check_coset_identity,
                                 check_crossing_inequalities,
                                 check_inclusion_exclusion,
                                 check_invertible_reductive,
                                 check_conjugation_edge, check_norm_change,
                                 check_norm_consistency, check_pushing_lemma,
                                 check_shrinking_lemma,
                                 check_star_retraction, coset_cases,
                                 dot_identity_holds, reduce_to_forest_free)

from oracles import candidate_pairs

H = 4
WITNESS_DIR = pathlib.Path(__file__).parent / "_witnesses"


@functools.lru_cache(maxsize=None)
def corpus(count, seed=7000):
    return tuple(random_instance(seed + i) for i in range(count))


def _ok(n, label):
    print(f"ACCEPTANCE {n} {label}: PASS")


def test_criterion_01_norm_consistency():
    start = time.monotonic()
    for m in list(all_fixtures().values()) + list(corpus(100)):
        check_norm_consistency(m, H)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"norm consistency took {elapsed:.1f}s"
    _ok(1, "two-way norm agreement on 4 fixtures + 100 random")


def test_criterion_02_inclusion_exclusion():
    fixtures = list(all_fixtures().items())
    rng = random.Random(2024)
    draws = 0
    while draws < 1000:
        name, m = fixtures[draws % len(fixtures)]
        edges = list(range(m.graph.n_edges))
        A = frozenset(rng.sample(edges, rng.randrange(1, len(edges))))
        rest = [e for e in edges if e not in A]
        B = frozenset(rng.sample(rest, rng.randrange(1, len(rest) + 1)))
        for kind in ("out", "aut"):
            check_inclusion_exclusion(m, A, B, kind, H)
        assert dot_identity_holds(m, A, "out", H)
        draws += 1
    # recorded aut counterexamples (hand-verified: a one-step basis path
    # contributes to |A|_aut but has no interior turn to count)
    recorded = {"FIX-R2": {0}, "FIX-R2-SWAP": {0},
                "FIX-THETA": {1}, "FIX-R2W": {0}}
    assert any(not dot_identity_holds(all_fixtures()[n], frozenset(A), "aut", 3)
               for n, A in recorded.items())
    _ok(2, "inclusion-exclusion exact on 1000 draws; out identity; "
           "aut counterexample recorded")


def test_criterion_03_coset_identity():
    cases = 0
    for m in all_fixtures().values():
        for K, e, A in coset_cases(m):
            for kind in ("out", "aut"):
                check_coset_identity(m, K, e, A, kind, H)
            cases += 1
    assert cases > 0
    _ok(3, f"coset identity exact on {cases} (K, e, A) cases, both kinds")


def test_criterion_04_norm_change_law():
    moves = 0
    for m in list(all_fixtures().values()):
        for alpha, a in candidate_pairs(m):
            check_norm_change(m, alpha, a, H)
            moves += 1
    for m in corpus(50):
        for alpha, a in candidate_pairs(m):
            check_norm_change(m, alpha, a, 3)
            moves += 1
    assert moves > 0
    _ok(4, f"norm-change law exact (out/aut/tot) on {moves} moves")


def test_criterion_05_blowup_correspondence():
    orbits = 0
    for m in all_fixtures().values():
        for alpha in enumerate_ideal_edges(m):
            check_blowup_correspondence(m, alpha, H)
            check_blowup_roundtrip(m, alpha)
            orbits += 1
    assert orbits > 0
    _ok(5, f"blow-up correspondence + byte-identical round trip on "
           f"{orbits} orbits")


def test_criterion_06_crossing_inequalities():
    # frozen work counts: one per (pair, kind, inequality) checked
    fixtures = sum(check_crossing_inequalities(m, H) for m in all_fixtures().values())
    assert fixtures == 704
    randoms = sum(check_crossing_inequalities(m, 3) for m in corpus(50))
    assert randoms == 28456
    _ok(6, f"crossing inequalities hold on {fixtures + randoms} coordinate checks")


def test_criterion_07_pushing_and_shrinking():
    checked = 0
    for i, m in enumerate(list(all_fixtures().values()) + list(corpus(50))):
        try:
            checked += check_pushing_lemma(m, H)
            checked += check_shrinking_lemma(m, H)
        except Exception as exc:
            from gwhitehead.cli import canonical_text
            WITNESS_DIR.mkdir(exist_ok=True)
            witness = WITNESS_DIR / f"lemma-violation-{i}.txt"
            witness.write_text(f"# {exc}\n" + canonical_text(m))
            raise AssertionError(f"{exc}; witness written to {witness}")
    _ok(7, f"pushing/shrinking disjunctions hold on {checked} applicable "
           "instances, zero violations")


def test_criterion_08_invertible_and_conjugation_edges():
    checked = 0
    for m in list(all_fixtures().values()) + list(corpus(50)):
        red = reduce_to_forest_free(m)
        checked += check_invertible_reductive(red, H)
        checked += check_conjugation_edge(red, H)
    _ok(8, f"invertible-reductive inverses + unique neutral conjugation "
           f"edge on {checked} cases")


def test_criterion_09_descent_and_termination():
    for m in list(all_fixtures().values()) + list(corpus(50)):
        final, log = greedy_reduce(m, H, max_steps=500)
        assert len(log) <= 500
    final, _ = greedy_reduce(all_fixtures()["FIX-R2W"], H)
    assert final.graph.n_vertices == 1 and final.graph.n_pairs == 2
    assert calculator(final, 1).norm("out").coords == (1, 1, 1, 1)
    _ok(9, "greedy descent strictly decreasing, terminates; FIX-R2W "
           "reaches the rose with out-norm (1,1,1,1)")


def test_criterion_10_contractibility_evidence():
    instances = [reduce_to_forest_free(m)
                 for m in list(all_fixtures().values()) + list(corpus(30, 9000))]
    done = 0
    for red in instances:
        start = time.monotonic()
        if check_star_retraction(red, H).status == "done":
            done += 1
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"instance took {elapsed:.1f}s"
    assert done > 0
    _ok(10, f"S(R) acyclic and retraction verified to a single forest "
            f"({done} non-degenerate instances)")
