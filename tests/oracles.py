"""Independent brute-force oracles the tests compare the package against.

Everything here is deliberately naive and written from the definitions,
not by calling back into the package's optimized code paths.  It also
holds the reference code that only the tests use: the fixtures' claimed
realizations and their check, marked isomorphism, the verdict word of a
reductivity value and the list of candidate pairs.
"""

import functools
import itertools
import sys
from array import array
from collections import defaultdict
from fractions import Fraction

from gwhitehead.errors import HypothesisNotMet, PropertyViolation
from gwhitehead.freegroup import FreeAutomorphism
from gwhitehead.idealedges import (IdealEdge, IdealPair, compatible, crossing, d_set,
                                   enumerate_ideal_edges, pre_compatible, stab_set,
                                   translate_at, translates)
from gwhitehead.marking import path_of_word, reduce_path
from gwhitehead.moves import VERDICTS
from gwhitehead.norms import NormCalculator, Order, compare
from gwhitehead.starcomplex import IdealForest, forest_violations


def naive_reduce(letters):
    """Repeatedly delete the first adjacent cancelling pair (quadratic scan)."""
    out = list(letters)
    while True:
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i:i + 2]
                break
        else:
            return tuple(out)


def brute_reduced_words(n, horizon):
    """All nonempty reduced words of length <= horizon by raw product filtering."""
    letters = [l for i in range(1, n + 1) for l in (i, -i)]
    out = []
    for k in range(1, horizon + 1):
        for w in itertools.product(letters, repeat=k):
            if all(w[i] != -w[i + 1] for i in range(k - 1)):
                out.append(w)
    return out


def rotations(word):
    return {word[i:] + word[:i] for i in range(max(len(word), 1))}


def conjugate_by_rotation(u, v):
    """Whether the cyclic reductions of u and v are rotations of each other."""
    return rotations(naive_cyclic_reduce(u)) == rotations(naive_cyclic_reduce(v))


def naive_cyclic_reduce(word):
    w = naive_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def coset_partition_ok(group, P, reps, Q):
    """The double cosets P x Q for the given reps partition the group."""
    seen = []
    for x in reps:
        coset = {group.mul(group.mul(p, x), q) for p in P for q in Q}
        seen.append(coset)
    union = set().union(*seen) if seen else set()
    pairwise_disjoint = all(
        not (a & b) for a, b in itertools.combinations(seen, 2))
    return union == set(group.elements) and pairwise_disjoint


def is_subgroup(group, H):
    Hs = set(H)
    if 0 not in Hs:  # the identity is always element 0
        return False
    return all(group.mul(a, b) in Hs for a in Hs for b in Hs)


def all_subgroups(group):
    """Brute force over subsets (only for very small groups)."""
    els = list(group.elements)
    out = []
    for r in range(1, len(els) + 1):
        for combo in itertools.combinations(els, r):
            if 0 in combo and is_subgroup(group, combo):
                out.append(frozenset(combo))
    return set(out)


def scan_edges_at(g, v):
    """E_v by a scan of every directed edge."""
    return tuple(e for e in range(g.n_edges) if g.term[e] == v)


def scan_act_vertex(g, x, v):
    """x.v: the image of the terminal vertex of the first edge ending at v."""
    for e in range(g.n_edges):
        if g.term[e] == v:
            return g.term[g.edge_action[x][e]]
    return v


def scan_translates(g, vertex, edges):
    """(vertex, edge frozenset) of each distinct translate of (vertex, edges),
    sorted by (vertex, sorted edges), from a loop over the group."""
    seen = {}
    for x in g.group.elements:
        s = frozenset(g.edge_action[x][e] for e in edges)
        v = scan_act_vertex(g, x, vertex)
        seen[(v, tuple(sorted(s)))] = (v, s)
    return [seen[k] for k in sorted(seen)]


def scan_d_set(g, alpha):
    """D(alpha) in the stabilizer-equality form: the edges a of alpha whose
    stabilizer equals that of alpha, with rev(a) in no translate of alpha."""
    def stab(edges):
        return tuple(x for x in g.group.elements
                     if frozenset(g.edge_action[x][e] for e in edges) == edges)

    union = frozenset().union(
        *(s for _, s in scan_translates(g, alpha.vertex, alpha.edges)))
    return frozenset(a for a in alpha.edges
                     if stab(frozenset({a})) == stab(alpha.edges) and a ^ 1 not in union)


def scan_is_ideal_edge(g, v, edges):
    """Cardinality bounds, coherence of the translates under the stabilizer
    of v (equal or disjoint) and the residual bound, on frozensets."""
    edges = frozenset(edges)
    ev = frozenset(scan_edges_at(g, v))
    if not edges <= ev:
        return False
    comp = len(ev) - len(edges)
    if len(edges) < 2 or comp < (1 if v == g.basepoint else 2):
        return False
    trans = set()
    for x in g.group.elements:
        if scan_act_vertex(g, x, v) == v:
            img = frozenset(g.edge_action[x][e] for e in edges)
            if img != edges and img & edges:
                return False
            trans.add(img)
    # the blown-up vertex keeps the edges no translate covers plus one new
    # edge per translate
    residual = len(ev - frozenset().union(*trans))
    return residual + len(trans) >= (2 if v == g.basepoint else 3)


def key_order(d):
    """The nonempty masks over d bits in the order of their sorted bit
    positions, a prefix first, by a recursive walk: the key order of the
    edge sets at a vertex of valence d."""
    out = []

    def walk(mask, start):
        for i in range(start, d):
            out.append(mask | 1 << i)
            walk(mask | 1 << i, i + 1)

    walk(0, 0)
    return out


def scan_ideal_edges(m):
    """The canonical rep of every ideal edge orbit, sorted by key: every
    combination of at least two edges at every vertex is tested, and each
    ideal one is replaced by its least translate."""
    g = m.graph
    reps = {}
    for v in range(g.n_vertices):
        ev = scan_edges_at(g, v)
        for r in range(2, len(ev) + 1):
            for combo in itertools.combinations(ev, r):
                if scan_is_ideal_edge(g, v, combo):
                    u, s = scan_translates(g, v, combo)[0]
                    reps[u, tuple(sorted(s))] = IdealEdge(u, s)
    return [reps[k] for k in sorted(reps)]


def verdict(value):
    """The verdict word of a reductivity value: the sign of its first
    nonzero coordinate, or null-at-horizon when every coordinate is 0."""
    return VERDICTS[next((1 if c > 0 else -1 for c in value.coords if c), 0)]


def candidate_pairs(m):
    """All (alpha, a) with alpha an enumerated orbit rep and a in D(alpha),
    in increasing (vertex, sorted edges, a) order."""
    return [(alpha, a) for alpha in enumerate_ideal_edges(m)
            for a in sorted(d_set(m, alpha))]


def scan_reductive(m, horizon, kind):
    """(R, best) of moves.reductive_scan, one orbit rep at a time.

    For each rep alpha of scan_ideal_edges and each a in scan_d_set, in
    key order, the reductivity [G:stab alpha] (|a| - |alpha|) comes from
    the unpacked edge_abs and set_abs of a fresh NormCalculator (which
    test_norms compares with scan_edge_abs and scan_set_abs).  R holds the
    reps with a reductive target; best is the first pair of the greatest
    reductivity, or None.
    """
    g = m.graph
    calc = NormCalculator(m, horizon)
    R, best = set(), None
    for alpha in scan_ideal_edges(m):
        idx = len(scan_translates(g, alpha.vertex, alpha.edges))
        for a in sorted(scan_d_set(g, alpha)):
            value = (calc.edge_abs(a, kind) - calc.set_abs(alpha.edges, kind)).scale(idx)
            if verdict(value) != "reductive":
                continue
            R.add(alpha)
            if best is None or compare(value, best[1]) == Order.GREATER:
                best = (IdealPair(alpha, a), value)
    return frozenset(R), best


def scan_crossing_inequalities(m, horizon):
    """check_crossing_inequalities on unpacked NormVectors, the reference.

    Per cohabiting pair (alpha, beta) that crosses and per kind: each
    inequality p |X| + q |Y| <= p |alpha| + q |beta| is checked
    coordinate by coordinate on the scaled and added set_abs vectors of a
    fresh NormCalculator (which test_norms compares with scan_set_abs).
    Raises PropertyViolation with the check's message on the first
    failure; returns the number of inequalities checked.
    """
    def le(u, v):
        return all(a <= b for a, b in zip(u.coords, v.coords))

    g = m.graph
    calc = NormCalculator(m, horizon)
    checked = 0
    for alpha, beta0 in itertools.permutations(enumerate_ideal_edges(m), 2):
        beta = translate_at(g, beta0, alpha.vertex)
        if beta is None:
            continue
        cr = crossing(g, alpha, beta)
        if cr.number == 0:
            continue
        P = stab_set(g, alpha.edges)
        Q = stab_set(g, beta.edges)
        p = len(translates(g, alpha))
        q = len(translates(g, beta))
        for kind in ("out", "aut"):
            rhs = (calc.set_abs(alpha.edges, kind).scale(p)
                   + calc.set_abs(beta.edges, kind).scale(q))
            if cr.number == 1 and set(P) <= set(Q):
                Qalpha = frozenset().union(
                    *(g.act_edge_set(x, alpha.edges) for x in Q))
                lhs = (calc.set_abs(alpha.edges & beta.edges, kind).scale(p)
                       + calc.set_abs(beta.edges | Qalpha, kind).scale(q))
                if not le(lhs, rhs):
                    raise PropertyViolation(
                        f"simple-crossing inequality fails ({kind}): "
                        f"alpha={alpha.key()} beta={beta.key()}")
                checked += 1
            for gamma, gamma_d in zip(cr.components, cr.dual_components):
                lhs = (calc.set_abs(alpha.edges - gamma, kind).scale(p)
                       + calc.set_abs(beta.edges - gamma_d, kind).scale(q))
                if not le(lhs, rhs):
                    raise PropertyViolation(
                        f"component-removal inequality fails ({kind}): "
                        f"alpha={alpha.key()} beta={beta.key()} "
                        f"gamma={sorted(gamma)}")
                checked += 1
    return checked


def scan_generates_free_group(words, k):
    """Stallings folding that rescans every edge after each fold: build the
    wedge of word loops, fold until no two edges with one label leave or
    enter a state for different states, and test that every basis letter
    is a loop at the base state."""
    parent = [0]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        x, y = find(x), find(y)
        if x != y:
            parent[y] = x
        return x

    def new_state():
        parent.append(len(parent))
        return len(parent) - 1

    # positive-letter transitions as a list of [src, letter, dst]
    edges = []
    for w in words:
        prev = 0
        for i, l in enumerate(w):
            nxt = 0 if i == len(w) - 1 else new_state()
            if l > 0:
                edges.append([prev, l, nxt])
            else:
                edges.append([nxt, -l, prev])
            prev = nxt

    changed = True
    while changed:
        changed = False
        out = {}
        into = {}
        for idx, (u, l, v) in enumerate(edges):
            u, v = find(u), find(v)
            edges[idx] = [u, l, v]
            if (u, l) in out and out[(u, l)] != v:
                union(out[(u, l)], v)
                changed = True
                break
            out[(u, l)] = v
            if (v, l) in into and into[(v, l)] != u:
                union(into[(v, l)], u)
                changed = True
                break
            into[(v, l)] = u
        if changed:
            continue
        # drop duplicate edges
        seen = set()
        dedup = []
        for u, l, v in edges:
            if (u, l, v) not in seen:
                seen.add((u, l, v))
                dedup.append([u, l, v])
        edges = dedup

    base = find(0)
    loops = {(find(u), l, find(v)) for u, l, v in edges}
    return all((base, l, base) in loops for l in range(1, k + 1))


def _letter_key(letter):
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def naive_is_class_rep(word):
    """Cyclically reduced and the least of its rotations in letter order."""
    if len(word) >= 2 and word[0] == -word[-1]:
        return False
    return min(rotations(word), key=lambda r: [_letter_key(l) for l in r]) == word


@functools.lru_cache(maxsize=None)
def scan_items(m, kind, horizon):
    """(steps, turns) of each path (aut) or cyclically reduced loop (out).

    Paths are built from the basis paths by concatenation and naive
    cancellation of (e, ~e) backtracks, in coordinate order: shortlex words
    for aut, shortlex class representatives for out.  A turn (u, ~w) is
    recorded for each pair of consecutive steps u, w; loops wrap around.
    """
    words = brute_reduced_words(m.n, horizon)
    if kind == "out":
        words = [w for w in words if naive_is_class_rep(w)]
    items = []
    for w in words:
        steps = []
        for l in w:
            p = m.basis_paths[abs(l) - 1]
            steps.extend(p if l > 0 else [e ^ 1 for e in reversed(p)])
        while True:
            for i in range(len(steps) - 1):
                if steps[i] == steps[i + 1] ^ 1:
                    del steps[i:i + 2]
                    break
            else:
                break
        if kind == "out":
            while len(steps) >= 2 and steps[0] == steps[-1] ^ 1:
                steps = steps[1:-1]
        k = len(steps)
        ends = range(k) if kind == "out" else range(k - 1)
        items.append((tuple(steps), [(steps[i], steps[(i + 1) % k] ^ 1) for i in ends]))
    return tuple(items)


def scan_lanes(items, cyclic, actions, code):
    """(edge, turns) of norms._Lanes from a loop over every step of every item.

    Each item's occurrence and turn counts go into its slot of one array of
    the given lane code per edge and per turn (u, ~w); each array is read as
    one int and the ints are summed over the group: edge[e] is the orbit sum
    of e plus that of ~e, turns[a][b] the orbit sum of the turn (a, b).
    """
    zeros = [0] * len(items)
    occ = defaultdict(lambda: array(code, zeros))
    turn = defaultdict(lambda: array(code, zeros))
    for i, steps in enumerate(items):
        for e in steps:
            occ[e][i] += 1
        following = steps[1:] + steps[:1] if cyclic else steps[1:]
        for u, w in zip(steps, following):
            turn[u, w ^ 1][i] += 1
    O = {e: int.from_bytes(c.tobytes(), sys.byteorder) for e, c in occ.items()}
    osym = [sum(O.get(act[e], 0) for act in actions) for e in range(len(actions[0]))]
    edge = [osym[e] + osym[e ^ 1] for e in range(len(osym))]
    turns = {}
    for (u, w), counts in turn.items():
        t = int.from_bytes(counts.tobytes(), sys.byteorder)
        for act in actions:
            row = turns.setdefault(act[u], {})
            row[act[w]] = row.get(act[w], 0) + t
    return edge, turns


def packed_set_abs(lanes, C):
    """Packed |C| over a norms._Lanes, from the definition: the edge sum
    over C minus twice the turns inside C, with no subset table."""
    return sum(lanes.edge[c] for c in C) - 2 * lanes.turns_between(C, C)


def _scan(m, kind, horizon, count, translate):
    """Per item, the sum over g in G of count(steps, turns, translate(g))."""
    if kind == "tot":
        return (_scan(m, "out", horizon, count, translate)
                + _scan(m, "aut", horizon, count, translate))
    moved = [translate(act) for act in m.graph.edge_action]
    return tuple(sum(count(steps, turns, t) for t in moved)
                 for steps, turns in scan_items(m, kind, horizon))


def scan_edge_abs(m, e, kind, horizon):
    """Per g and item: the occurrences of ge and of ~ge."""
    return _scan(m, kind, horizon,
                 lambda steps, turns, ge: sum((s == ge) + (s == ge ^ 1) for s in steps),
                 lambda act: act[e])


def scan_set_abs(m, C, kind, horizon):
    """Per g and item: occurrences of edges of gC either way, minus twice the turns inside gC."""
    def count(steps, turns, gC):
        return (sum((s in gC) + (s ^ 1 in gC) for s in steps)
                - 2 * sum(1 for u, w in turns if u in gC and w in gC))
    return _scan(m, kind, horizon, count, lambda act: {act[c] for c in C})


def scan_dot(m, A, B, kind, horizon):
    """Per g and item: the turns from gA into gB plus those from gB into gA."""
    def count(steps, turns, gAB):
        gA, gB = gAB
        return sum((u in gA and w in gB) + (u in gB and w in gA) for u, w in turns)
    return _scan(m, kind, horizon, count,
                 lambda act: ({act[a] for a in A}, {act[b] for b in B}))


def dense_rank(rows):
    """Rank over Q by dense Gauss-Jordan elimination on Fraction rows."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / pr[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def dense_reduced_homology(faces):
    """Reduced Betti numbers over Q of a downward-closed set of faces.

    b_k = (number of k-faces) - rank d_k - rank d_(k+1), where d_0 is the
    augmentation onto the empty simplex (rank 1) and d_k, k >= 1, is the
    dense matrix with entry (-1)^i from each k-face to its i-th facet.
    """
    if not faces:
        return ()
    dim = max(len(f) for f in faces) - 1
    layers = [sorted(tuple(sorted(f)) for f in faces if len(f) == k + 1)
              for k in range(dim + 1)]
    ranks = [1]
    for k in range(1, dim + 1):
        rows = [[0] * len(layers[k]) for _ in layers[k - 1]]
        row_of = {f: i for i, f in enumerate(layers[k - 1])}
        for j, f in enumerate(layers[k]):
            for i in range(len(f)):
                rows[row_of[f[:i] + f[i + 1:]]][j] = (-1) ** i
        ranks.append(dense_rank(rows))
    ranks.append(0)
    return tuple(len(layers[k]) - ranks[k] - ranks[k + 1] for k in range(dim + 1))


def walk_ideal_forests(m, restrict_to, cap):
    """Ideal forests over the orbit reps, sorted by (size, key), from a
    depth-first walk over every pairwise-allowed set of orbits in key order:
    each set is tested whole with forest_violations.  Raises
    HypothesisNotMet on entering a set once more than cap forests are
    found."""
    g = m.graph
    pool = sorted(restrict_to, key=lambda a: a.key())
    out = []

    def walk(i, chosen):
        if len(out) > cap:
            raise HypothesisNotMet("ideal forest count exceeds the search cap")
        if chosen and not forest_violations(m, chosen):
            out.append(IdealForest(tuple(chosen)))
        for j in range(i, len(pool)):
            a = pool[j]
            ok = True
            for b in chosen:
                if a.vertex == g.basepoint and b.vertex == g.basepoint:
                    ok = compatible(g, a, b)
                elif a.vertex != g.basepoint and b.vertex != g.basepoint:
                    ok = pre_compatible(g, a, b)
                if not ok:
                    break
            if ok:
                chosen.append(a)
                walk(j + 1, chosen)
                chosen.pop()

    walk(0, [])
    out.sort(key=lambda f: (len(f.orbits), f.key()))
    return out


def triple_poset_dot(forests):
    """The DOT Hasse diagram of a forest poset, from the definition: f1 <
    f2 is drawn unless some third forest lies between them."""
    lines = ["digraph P {", "  rankdir=BT;"]
    idx = {f: i for i, f in enumerate(forests)}

    def label(f):
        return "{" + "; ".join(str(k) for k in f.key()) + "}"

    for f in forests:
        lines.append(f'  n{idx[f]} [shape=box label="{label(f)}"];')
    for f1 in forests:
        for f2 in forests:
            if f1 == f2 or not (f1 <= f2):
                continue
            if any(f1 <= h and h <= f2 and h not in (f1, f2) for h in forests):
                continue
            lines.append(f"  n{idx[f1]} -> n{idx[f2]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def all_pairs_verify(m, stage, before, f, g, after):
    """The Poset-Lemma double step S(C) -f-> S(C) -g-> S(C') checked with
    monotonicity on every comparable pair: f on S(C), g on f(S(C)).  The
    pointwise checks and messages are those of the package's verifier."""
    members = set(before)
    image = [f(phi) for phi in before]
    for phi, fi in zip(before, image):
        if not phi <= fi:
            raise PropertyViolation(f"[{stage}] f does not satisfy Phi <= f(Phi)")
        if fi not in members:
            bad = forest_violations(m, fi.orbits)
            raise PropertyViolation(
                f"[{stage}] f(Phi) is not an ideal forest over the family "
                f"for Phi={phi.key()}: {'; '.join(bad) or 'not enumerated'}")

    def monotone(name, xs, ys):
        for (x1, y1), (x2, y2) in itertools.product(zip(xs, ys), repeat=2):
            if x1 <= x2 and not y1 <= y2:
                raise PropertyViolation(f"[{stage}] {name} is not monotone")

    monotone("f", before, image)
    back = [g(psi) for psi in image]
    for psi, gi in zip(image, back):
        if not gi.orbits:
            raise PropertyViolation(
                f"[{stage}] g empties the forest {psi.key()}")
        if not gi <= psi:
            raise PropertyViolation(f"[{stage}] g does not satisfy g(Psi) <= Psi")
        bad = forest_violations(m, gi.orbits)
        if bad:
            raise PropertyViolation(
                f"[{stage}] g(Psi) is not an ideal forest for "
                f"Psi={psi.key()}: {'; '.join(bad)}")
    monotone("g", image, back)
    got, want = set(back), set(after)
    if got != want:
        raise PropertyViolation(
            f"[{stage}] g(f(S(C))) != S(C - eliminated): "
            f"{sorted(x.key() for x in got ^ want)[:3]} ...")


# A realization each fixture claims: one automorphism of F_2 per group
# element, in the order of the group's elements.
_SWAP = FreeAutomorphism(((2,), (1,)))
CLAIMS = {
    "FIX-R2": (FreeAutomorphism.identity(2),),
    "FIX-R2-SWAP": (FreeAutomorphism.identity(2), _SWAP),
    "FIX-THETA": (FreeAutomorphism.identity(2), _SWAP),
}


def verify_realization(m, claim):
    """Check a claimed realization against the graph action.

    For every group element x and generator j the path of phi_x(x_j) must
    be the x-image of the path of x_j, where phi_x = claim[x].  Returns a
    list of witnesses (empty means OK).
    """
    g = m.graph
    bad = []
    for x in g.group.elements:
        phi = claim[x]
        for j in range(m.n):
            want = reduce_path(g.edge_action[x][e] for e in m.basis_paths[j])
            got = path_of_word(m, phi.apply((j + 1,)))
            if want != got:
                bad.append(
                    f"realization of {g.group.names[x]} fails at x{j + 1}: "
                    f"path {got} != action image {want}")
    return bad


def marked_isomorphic(m1, m2):
    """Equality as points: an equivariant basepoint-preserving isomorphism
    carrying the basis loops of m1 to those of m2."""
    g1, g2 = m1.graph, m2.graph
    if (g1.n_vertices != g2.n_vertices or g1.n_pairs != g2.n_pairs
            or g1.group.mult != g2.group.mult or m1.n != m2.n):
        return False

    pairs1 = list(range(g1.n_pairs))

    def extend(vmap, emap, i):
        # emap maps directed edges of g1 to directed edges of g2
        if i == len(pairs1):
            for x in g1.group.elements:
                for e, im in emap.items():
                    if emap.get(g1.edge_action[x][e]) != g2.edge_action[x][im]:
                        return False
                for v, iv in vmap.items():
                    if vmap.get(g1.act_vertex(x, v)) != g2.act_vertex(x, iv):
                        return False
            for p1, p2 in zip(m1.basis_paths, m2.basis_paths):
                if tuple(emap[e] for e in p1) != tuple(p2):
                    return False
            return True
        p = pairs1[i]
        used = set(emap.values())
        for e2 in range(g2.n_edges):
            if e2 in used:
                continue
            for d1, d2 in ((2 * p, e2), (2 * p + 1, e2)):
                vm = dict(vmap)
                em = dict(emap)
                ok = True
                for a, b in ((d1, d2), (d1 ^ 1, d2 ^ 1)):
                    em[a] = b
                    tv = g1.term[a]
                    if tv in vm:
                        if vm[tv] != g2.term[b]:
                            ok = False
                            break
                    elif g2.term[b] in vm.values():
                        ok = False
                        break
                    else:
                        vm[tv] = g2.term[b]
                if ok and extend(vm, em, i + 1):
                    return True
        return False

    return extend({g1.basepoint: g2.basepoint}, {}, 0)
