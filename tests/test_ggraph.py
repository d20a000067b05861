"""Groups, graph actions, orbits/stabilizers, forests and collapses."""

import pytest

from gwhitehead.fixtures import fix_r2_swap, fix_theta
from gwhitehead.ggraph import (GGraph, Group, collapse, invariant_forests,
                               is_reduced, maximal_invariant_forest,
                               pair_orbits, rev)

import oracles


def test_rev_is_an_involution_pairing():
    for e in range(10):
        assert rev(rev(e)) == e
        assert rev(e) != e
        assert rev(e) // 2 == e // 2


@pytest.mark.parametrize("group", [Group.trivial(), Group.cyclic(2),
                                   Group.cyclic(4), Group.symmetric3()])
def test_group_axioms(group):
    els = group.elements
    for a in els:
        assert group.mul(0, a) == a == group.mul(a, 0)
        assert group.mul(a, group.inv(a)) == 0
        for b in els:
            for c in els:
                assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


@pytest.mark.parametrize("group", [Group.cyclic(4), Group.symmetric3()])
def test_subgroups_match_brute_force(group):
    got = {frozenset(H) for H in group.subgroups()}
    assert got == oracles.all_subgroups(group)


def test_double_cosets_partition():
    group = Group.symmetric3()
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
            assert emap[g.act_edge(x, e)] == g2.act_edge(x, emap[e])


def test_invariant_forests_are_acyclic_orbit_unions():
    g = fix_theta().graph
    forests = invariant_forests(g)
    assert forests  # theta has collapsible orbits
    for f in forests:
        for x in g.group.elements:
            assert {g.act_edge(x, 2 * p) // 2 for p in f} == set(f)
        # collapsing must merge vertices without creating loops from the forest
        for p in f:
            assert not g.is_loop(2 * p)


def test_rose_is_reduced():
    assert is_reduced(fix_r2_swap().graph)
