"""One operation per instance for each workload, and the check of its output.

An operation drives the package through its public functions the way
the command line does (`reduce`, `star --homology --retract`, `selftest`)
and returns what the check needs.  A check raises CheckFailed when an
output disagrees with the independent computation in `oracle`.
"""

from __future__ import annotations

import random

import oracle


class CheckFailed(Exception):
    pass


def _require(cond, label, what):
    if not cond:
        raise CheckFailed(f"{label}: {what}")


# -- descent -----------------------------------------------------------------


def op_descent(lib, item):
    _, _, horizon, text = item
    m = lib.cli.parse(text)
    m.require_valid()
    m2, log = lib.moves.greedy_reduce(m, horizon)
    return m2, log, lib.cli.canonical_text(m2)


def check_descent(lib, item, result):
    label, family, horizon, text = item
    m2, log, out_text = result
    before, after = oracle.read_instance(text), oracle.read_instance(out_text)
    out0, aut0 = oracle.naive_norms(text, horizon)
    out1, aut1 = oracle.naive_norms(out_text, horizon)
    _require(out1 == lib.norms.norm(m2, "out", horizon).coords, label,
             "out-norm differs from the naive oracle")
    _require(aut1 == lib.norms.norm(m2, "aut", horizon).coords, label,
             "aut-norm differs from the naive oracle")
    if log:
        _require(out1 + aut1 < out0 + aut0, label, "tot-norm did not decrease")
    _require(after["rank"] == before["rank"], label, "rank changed")
    _require(after["order"] == before["order"], label, "group order changed")
    if family in ("rose", "scrambled"):
        _require(after["vertices"] == 1 and all(len(p) == 1 for p in after["basis"]),
                 label, "scrambled trivial-group instance did not reach the minimal rose")
    if label == "FIX-R2W":
        _require(out1[:4] == (1, 1, 1, 1), label, "out-norm is not (1,1,1,1)")
    _require(lib.cli.canonical_text(lib.cli.parse(out_text)) == out_text, label,
             "canonical text does not round-trip")


# -- star --------------------------------------------------------------------


def op_star(lib, item):
    _, _, horizon, text = item
    m = lib.cli.parse(text)
    m.require_valid()
    red = lib.selftest.reduce_to_forest_free(m)
    R = lib.starcomplex.reductive_orbits(red, "tot", horizon)
    K = lib.starcomplex.star_complex(red, R)
    betti = lib.starcomplex.reduced_homology(K)
    trace = lib.starcomplex.run_retractions(red, horizon)
    return R, K, betti, trace


def check_star(lib, item, result):
    label = item[0]
    R, K, betti, trace = result
    if not R:
        _require(not K.faces and betti == () and trace.status == "degenerate",
                 label, "empty R did not give an empty, degenerate S(R)")
        return
    sets = [frozenset(f.key()) for f in K.vertices]
    counts = oracle.chain_counts(sets)
    _require(sum(counts) == len(K.faces), label,
             "order complex face count differs from the chain count")
    _require(oracle.euler_characteristic(sets) == 1, label,
             "Euler characteristic of S(R) is not 1")
    _require(betti and all(b == 0 for b in betti), label,
             f"S(R) has reduced Betti numbers {betti}")
    _require(trace.status == "done" and len(trace.final_forests) == 1, label,
             f"retraction ended {trace.status} with "
             f"{len(trace.final_forests)} forests")


# -- verify ------------------------------------------------------------------

INCLUSION_EXCLUSION_DRAWS = 10


def op_verify(lib, item):
    """The per-instance selftest property checks; returns their counts."""
    _, _, horizon, text = item
    st = lib.selftest
    m = lib.cli.parse(text)
    m.require_valid()
    counts = {"norm": 0, "inclusion_exclusion": 0, "blowup": 0,
              "norm_change": 0, "crossing": 0}
    st.check_norm_consistency(m, horizon)
    counts["norm"] += 1
    rng = random.Random(text)
    edges = list(range(m.graph.n_edges))
    for _ in range(INCLUSION_EXCLUSION_DRAWS):
        A = frozenset(rng.sample(edges, rng.randrange(1, len(edges))))
        rest = [e for e in edges if e not in A]
        B = frozenset(rng.sample(rest, rng.randrange(1, len(rest) + 1)))
        for kind in ("out", "aut"):
            st.check_inclusion_exclusion(m, A, B, kind, horizon)
            counts["inclusion_exclusion"] += 1
    for alpha in lib.idealedges.enumerate_ideal_edges(m):
        st.check_blowup_correspondence(m, alpha, horizon)
        counts["blowup"] += 1
        for a in sorted(lib.idealedges.d_set(m, alpha)):
            st.check_norm_change(m, alpha, a, horizon)
            counts["norm_change"] += 1
    counts["crossing"] = st.check_crossing_inequalities(m, horizon)
    return counts


def check_verify(lib, item, counts):
    label = item[0]
    _require(counts["norm"] > 0 and counts["inclusion_exclusion"] > 0, label,
             f"no checks ran: {counts}")
