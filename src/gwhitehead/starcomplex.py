"""Ideal forests, the star complex, reductive families, and retractions.

The poset of ideal forests of a reduced marked G-graph is isomorphic to
the star of that graph in the complex of reduced marked graphs; its order
complex is the star complex S(C) for a family C of ideal edge orbits.
run_retractions collapses S(R) step by step to a single forest, verifying
the poset-map side conditions exhaustively at every step and raising a
hard error with a witness whenever a claimed property fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (HypothesisNotMet, InternalInconsistency,
                     PropertyViolation, ValidationError)
from .ggraph import is_reduced
from .idealedges import (IdealEdge, canonical_rep, compatible, crossing,
                         enumerate_ideal_edges, is_invertible, orbit_key,
                         orbit_union, pre_compatible, stab_set, translates)
from .marking import MarkedGGraph
from .moves import is_reductive_edge, max_reductive_pair

MAX_FORESTS = 20000


# ---------------------------------------------------------------------------
# ideal forests


@dataclass(frozen=True)
class IdealForest:
    """A set of ideal edge orbits: compatible at *, pre-compatible and
    inverse-closed elsewhere."""

    orbits: tuple  # canonical IdealEdge reps, sorted by key

    def __post_init__(self):
        object.__setattr__(self, "orbits",
                           tuple(sorted(self.orbits, key=lambda a: a.key())))

    def key(self):
        return tuple(a.key() for a in self.orbits)

    def orbit_set(self):
        return frozenset(self.orbits)

    def phi1(self, g):
        return tuple(a for a in self.orbits if a.vertex == g.basepoint)

    def phi2(self, g):
        return tuple(a for a in self.orbits if a.vertex != g.basepoint)

    def __le__(self, other):
        return set(self.orbits) <= set(other.orbits)

    def __len__(self):
        return len(self.orbits)


def forest_violations(m, orbits):
    """Why a set of orbit reps fails to be an ideal forest (empty = OK)."""
    g = m.graph if isinstance(m, MarkedGGraph) else m
    orbits = list(orbits)
    if not orbits:
        return ["the empty forest is excluded"]
    bad = []
    for a in orbits:
        if orbit_key(g, a) != a.key():
            bad.append(f"{a.key()} is not a canonical orbit representative")
    phi1 = [a for a in orbits if a.vertex == g.basepoint]
    phi2 = [a for a in orbits if a.vertex != g.basepoint]
    for a, b in itertools.combinations(phi1, 2):
        if not compatible(g, a, b):
            bad.append(f"basepoint orbits {a.key()} and {b.key()} incompatible")
    for a, b in itertools.combinations(phi2, 2):
        if not pre_compatible(g, a, b):
            bad.append(f"orbits {a.key()} and {b.key()} not pre-compatible")
    keys2 = {a.key() for a in phi2}
    for a in phi2:
        inv, ainv = is_invertible(g, a)
        if inv and orbit_key(g, ainv) not in keys2:
            bad.append(f"inverse of invertible orbit {a.key()} missing")
    return bad


def is_ideal_forest(m, orbits) -> bool:
    return not forest_violations(m, orbits)


def enumerate_ideal_forests(m, restrict_to):
    """All nonempty ideal forests over the given orbit reps, sorted."""
    g = m.graph if isinstance(m, MarkedGGraph) else m
    pool = sorted(restrict_to, key=lambda a: a.key())
    out = []

    def walk(i, chosen):
        if len(out) > MAX_FORESTS:
            raise HypothesisNotMet("ideal forest count exceeds the search cap")
        if chosen and not forest_violations(g, chosen):
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


# ---------------------------------------------------------------------------
# simplicial complexes and reduced homology


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex labels plus a downward-closed set of nonempty faces."""

    vertices: tuple
    faces: frozenset  # frozensets of vertex indices

    def __post_init__(self):
        for f in self.faces:
            if not f:
                raise ValidationError("empty face is excluded")
            if len(f) > 1 and any(f - {v} not in self.faces for v in f):
                raise ValidationError("faces are not downward closed")

    @property
    def dim(self):
        return max((len(f) - 1 for f in self.faces), default=-1)


def order_complex(elements, leq) -> SimplicialComplex:
    """Chains of a finite poset, as a simplicial complex."""
    n = len(elements)
    below = [[j for j in range(n) if j != i
              and leq(elements[j], elements[i])] for i in range(n)]
    faces = set()

    def chains(top, chain):
        faces.add(frozenset(chain))
        for j in below[top]:
            chains(j, chain + [j])

    for i in range(n):
        chains(i, [i])
    return SimplicialComplex(tuple(elements), frozenset(faces))


def reduced_homology(K: SimplicialComplex):
    """Reduced Betti numbers over the rationals, degrees 0..dim.

    Exact sparse elimination over Q: each boundary map is a list of sparse
    columns {row: +-1}, one per face, and each column is reduced against
    the pivot columns kept by their highest row.  A new pivot column is
    scaled so that its pivot entry is 1, through Fraction only when that
    entry is not +-1, so an integer pivot such as the 2 of RP^2 is divided
    out exactly rather than treated as zero the way mod-2 arithmetic would.
    """
    if not K.faces:
        return ()
    by_dim = {}
    for f in K.faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    layers = [sorted(by_dim[k]) for k in range(max(by_dim) + 1)]
    # the augmentation maps every vertex to the formal empty simplex
    ranks = [1]
    for lower, layer in zip(layers, layers[1:]):
        index = {f: i for i, f in enumerate(lower)}
        pivots = {}
        for f in layer:
            col = {index[f[:i] + f[i + 1:]]: (-1) ** i for i in range(len(f))}
            while col and (p := max(col)) in pivots:
                c = col[p]
                for r, x in pivots[p].items():
                    y = col.get(r, 0) - c * x
                    if y:
                        col[r] = y
                    else:
                        del col[r]
            if col:
                c = col[p]
                if c == -1:
                    col = {r: -x for r, x in col.items()}
                elif c != 1:
                    col = {r: x / Fraction(c) for r, x in col.items()}
                pivots[p] = col
        ranks.append(len(pivots))
    ranks.append(0)
    return tuple(len(layer) - ranks[k] - ranks[k + 1]
                 for k, layer in enumerate(layers))


# ---------------------------------------------------------------------------
# reductive families


def reductive_orbits(m, kind, horizon):
    return frozenset(a for a in enumerate_ideal_edges(m)
                     if is_reductive_edge(m, a.edges, a.vertex, kind, horizon))


def closure_pm(m, C):
    """Adjoin the inverses of the invertible elements away from the basepoint."""
    g = m.graph
    out = set(C)
    for a in C:
        if a.vertex == g.basepoint:
            continue
        inv, ainv = is_invertible(g, a)
        if inv:
            out.add(canonical_rep(g, ainv))
    return frozenset(out)


def gamma_edge(m, R):
    """The unique non-invertible full-stabilizer reductive edge at *, if any.

    More than one such edge contradicts uniqueness and is a hard error.
    """
    g = m.graph
    found = []
    for a in R:
        if a.vertex != g.basepoint:
            continue
        if len(stab_set(g, a.edges)) != g.group.order:
            continue
        if not is_invertible(g, a)[0]:
            found.append(a)
    if len(found) > 1:
        raise PropertyViolation(
            "two non-invertible full-stabilizer reductive edges at the "
            f"basepoint: {found[0].key()} and {found[1].key()}")
    return found[0] if found else None


def nested_families(g, R, mu, mhat):
    """(C0, C0p, C1) cut out of R by the maximal pair (mu, mhat)."""
    C0 = frozenset(a for a in R if compatible(g, a, mu))
    C0p = C0 | frozenset(
        a for a in R
        if stab_set(g, a.edges) == tuple(
            x for x in g.group.elements if g.act_vertex(x, a.vertex) == a.vertex))
    C1 = C0p | frozenset(
        a for a in R
        if mhat in orbit_union(g, a) and crossing(g, a, mu).number == 1)
    return C0, C0p, C1


def family(m, which, horizon, kind="tot"):
    """R, C0, C0p (C0'), or C1, as a frozenset of canonical orbit reps."""
    R = reductive_orbits(m, kind, horizon)
    if which == "R":
        return R
    pair = max_reductive_pair(m, horizon, kind)
    if pair is None:
        raise HypothesisNotMet("no maximally reductive pair exists")
    families = dict(zip(("C0", "C0p", "C1"), nested_families(
        m.graph, R, pair.edge, pair.collapse_target)))
    if which not in families:
        raise ValidationError(f"unknown family {which!r}")
    return families[which]


def star_complex(m, C) -> SimplicialComplex:
    """Order complex of the poset of ideal forests with orbits in C."""
    forests = enumerate_ideal_forests(m, C)
    return order_complex(forests, lambda f1, f2: f1 <= f2)


# ---------------------------------------------------------------------------
# the retraction engine


@dataclass(frozen=True)
class RetractionStep:
    stage: str
    alpha: tuple
    alpha0: tuple
    n_before: int
    n_after: int
    betti: tuple = None


@dataclass
class RetractionTrace:
    status: str          # "done" | "degenerate" | "out-of-scope"
    detail: str
    steps: list = field(default_factory=list)
    final_forests: tuple = ()


def _orbit_of_edge(g, e):
    return frozenset(g.edge_action[x][e] for x in g.group.elements)


class _Engine:
    def __init__(self, m, horizon, kind, homology):
        self.m = m
        self.g = m.graph
        self.horizon = horizon
        self.kind = kind
        self.homology = homology
        self.steps = []

    # -- helpers ---------------------------------------------------------

    def forests(self, C):
        return enumerate_ideal_forests(self.m, C)

    def betti_of(self, forests):
        if not self.homology:
            return None
        K = order_complex(forests, lambda a, b: a <= b)
        return reduced_homology(K)

    def rep_with(self, alpha, e):
        """The translate of alpha containing directed edge e (or None)."""
        for t in translates(self.g, alpha):
            if e in t.edges:
                return t
        return None

    def check_claim(self, C, alphas, alpha0s, pre=False, stage=""):
        """Compatibility transfer: beta ~ alpha implies beta ~ alpha0."""
        g = self.g
        rel = pre_compatible if pre else compatible
        for beta in sorted(C, key=lambda b: b.key()):
            if all(beta.key() != a.key() for a in alphas):
                if any(rel(g, beta, a) for a in alphas):
                    for a0 in alpha0s:
                        if beta.key() != a0.key() and not compatible(g, beta, a0):
                            raise PropertyViolation(
                                f"[{stage}] {beta.key()} is compatible with the "
                                f"eliminated edge but not with {a0.key()}")

    def eliminate(self, C, targets, alpha0s, stage):
        """One Poset-Lemma double step: f adds alpha0s to forests meeting
        targets, g strips targets; every side condition is checked on every
        forest.  Returns the new family."""
        g = self.g
        tset = {a.key() for a in targets}
        aset = {a.key() for a in alpha0s}
        before = self.forests(C)
        keys_before = {f.key() for f in before}

        def f_map(phi):
            if any(a.key() in tset for a in phi.orbits):
                extra = [a for a in alpha0s
                         if a.key() not in {b.key() for b in phi.orbits}]
                return IdealForest(phi.orbits + tuple(extra))
            return phi

        def g_map(psi):
            kept = tuple(a for a in psi.orbits if a.key() not in tset)
            return IdealForest(kept)

        image = []
        for phi in before:
            fi = f_map(phi)
            if not (set(phi.orbits) <= set(fi.orbits)):
                raise PropertyViolation(f"[{stage}] f does not satisfy Phi <= f(Phi)")
            if fi.key() not in keys_before:
                bad = forest_violations(self.m, fi.orbits)
                raise PropertyViolation(
                    f"[{stage}] f(Phi) is not an ideal forest over the family "
                    f"for Phi={phi.key()}: {'; '.join(bad) or 'not enumerated'}")
            image.append(fi)
        # monotonicity of f and g on every comparable pair
        for p1 in before:
            for p2 in before:
                if p1 <= p2 and not (f_map(p1) <= f_map(p2)):
                    raise PropertyViolation(f"[{stage}] f is not monotone")
        image_keys = {fi.key() for fi in image}
        for psi in image:
            gi = g_map(psi)
            if not gi.orbits:
                raise PropertyViolation(
                    f"[{stage}] g empties the forest {psi.key()}")
            if not (set(gi.orbits) <= set(psi.orbits)):
                raise PropertyViolation(f"[{stage}] g does not satisfy g(Psi) <= Psi")
            bad = forest_violations(self.m, gi.orbits)
            if bad:
                raise PropertyViolation(
                    f"[{stage}] g(Psi) is not an ideal forest for "
                    f"Psi={psi.key()}: {'; '.join(bad)}")
        for p1 in image:
            for p2 in image:
                if p1 <= p2 and not (g_map(p1) <= g_map(p2)):
                    raise PropertyViolation(f"[{stage}] g is not monotone")

        newC = frozenset(a for a in C if a.key() not in tset)
        after = self.forests(newC)
        got = {g_map(fi).key() for fi in image}
        want = {f.key() for f in after}
        if got != want:
            raise PropertyViolation(
                f"[{stage}] g(f(S(C))) != S(C - eliminated): "
                f"{sorted(got ^ want)[:3]} ...")
        self.steps.append(RetractionStep(
            stage,
            tuple(sorted(tset)),
            tuple(sorted(aset)),
            len(before), len(after),
            self.betti_of(after)))
        return newC

    def elimination_targets(self, C, alpha):
        """alpha plus its inverse when the forest closure rule ties them."""
        g = self.g
        targets = [alpha]
        if alpha.vertex != g.basepoint:
            inv, ainv = is_invertible(g, alpha)
            if inv:
                ak = orbit_key(g, ainv)
                for b in C:
                    if b.key() == ak:
                        targets.append(b)
                        break
        return targets

    # -- stage A: S(R) -> S(C1) -----------------------------------------

    def select_min(self, pool, Gmu):
        def key(a):
            return (len(a.edges & Gmu), len(a.edges), a.key())
        return min(pool, key=key)

    def select_max(self, pool, Gmu):
        def key(a):
            return (-len(a.edges & Gmu), -len(a.edges), a.key())
        return min(pool, key=key)

    def stage_shrink(self, C, target, mu, mhat, stage):
        g = self.g
        Gmu = orbit_union(g, mu)
        m_orbit = _orbit_of_edge(g, mhat)
        while True:
            pool = [a for a in C if a.key() not in {b.key() for b in target}]
            if not pool:
                break
            alpha = self.select_min(pool, Gmu)
            cr = crossing(g, alpha, mu)
            if cr.number == 0:
                raise PropertyViolation(
                    f"[{stage}] {alpha.key()} does not meet the orbit of the "
                    "maximal edge yet is not compatible with it")
            no_m = [c for c in cr.components if not (c & m_orbit)]
            beta = alpha.edges - frozenset().union(*no_m) if no_m else alpha.edges
            candidates = [(c, "component") for c in no_m] + [(beta, "complement")]
            alpha0 = None
            for cand, _ in candidates:
                if len(cand) < 2 or cand == alpha.edges:
                    continue
                if not is_reductive_edge(self.m, cand, alpha.vertex,
                                         self.kind, self.horizon):
                    continue
                a0 = canonical_rep(g, IdealEdge(alpha.vertex, frozenset(cand)))
                if compatible(g, a0, mu):
                    alpha0 = a0
                    break
            if alpha0 is None:
                raise PropertyViolation(
                    f"[{stage}] no reductive sub-edge of {alpha.key()} from the "
                    "Shrinking Lemma is compatible with the maximal edge")
            targets = self.elimination_targets(C, alpha)
            alpha0s = [alpha0] + (
                [canonical_rep(g, is_invertible(g, alpha0)[1])]
                if alpha0.vertex != g.basepoint and is_invertible(g, alpha0)[0]
                else [])
            self.check_claim(C, targets, alpha0s, stage=stage)
            C = self.eliminate(C, targets, alpha0s, stage)
        return C

    # -- stage B: S(C1) -> S(C0') ----------------------------------------

    def stage_push(self, C, target, mu, mhat, stage):
        g = self.g
        Gmu = orbit_union(g, mu)
        while True:
            tkeys = {b.key() for b in target}
            pool = []
            for a in C:
                if a.key() in tkeys:
                    continue
                t = self.rep_with(a, mhat)
                if t is None:
                    raise PropertyViolation(
                        f"[{stage}] {a.key()} does not contain the maximal "
                        "collapse edge in any translate")
                pool.append(t)
            if not pool:
                break
            alpha = self.select_min(pool, Gmu)
            mu_t = next((t for t in translates(g, mu)
                         if t.vertex == alpha.vertex), None)
            candidates = []
            if mu_t is not None:
                candidates = [alpha.edges & mu_t.edges, alpha.edges - mu_t.edges]
            alpha0 = None
            for cand in candidates:
                if len(cand) < 2 or cand == alpha.edges:
                    continue
                if not is_reductive_edge(self.m, cand, alpha.vertex,
                                         self.kind, self.horizon):
                    continue
                a0 = canonical_rep(g, IdealEdge(alpha.vertex, frozenset(cand)))
                if compatible(g, a0, mu):
                    alpha0 = a0
                    break
            if alpha0 is None:
                raise PropertyViolation(
                    f"[{stage}] the Pushing Lemma produced no reductive "
                    f"ideal edge inside {alpha.key()} compatible with the "
                    "maximal edge")
            acan = canonical_rep(g, alpha)
            targets = self.elimination_targets(C, acan)
            self.check_claim(C, targets, [alpha0], stage=stage)
            C = self.eliminate(C, targets, [alpha0], stage)
        return C

    # -- stage C: S(C0') -> S(C0) -> point --------------------------------

    def stage_final(self, C, C0pm, mu, mhat, gamma, stage):
        g = self.g
        Gmu = orbit_union(g, mu)
        mu_inv_flag, mu_inv = is_invertible(g, mu)
        gamma_ok = gamma is None or compatible(g, gamma, mu)
        target = set(C0pm)
        if not gamma_ok:
            # the incompatible non-invertible edge must be E_* - {mhat}
            comp = frozenset(g.edges_at(g.basepoint)) - gamma.edges
            if comp != frozenset({mhat}):
                raise PropertyViolation(
                    "the non-invertible full-stabilizer edge is incompatible "
                    "with the maximal edge but its complement is not the "
                    "maximal collapse edge")
            if not mu_inv_flag:
                raise PropertyViolation(
                    "incompatible full-stabilizer edge with a non-invertible "
                    "maximal edge")
            target.add(gamma)
        while True:
            tkeys = {b.key() for b in target}
            pool = []
            for a in C:
                if a.key() in tkeys:
                    continue
                t = self.rep_with(a, mhat)
                pool.append(t if t is not None else a)
            if not pool:
                break
            alpha = self.select_max(pool, Gmu)
            acan = canonical_rep(g, alpha)
            inv_a, a_inv = is_invertible(g, alpha)
            if not inv_a:
                raise PropertyViolation(
                    f"[{stage}] leftover edge {alpha.key()} is not invertible")
            a_inv_can = canonical_rep(g, a_inv)

            if compatible(g, a_inv_can, mu):
                # replace alpha by its inverse, which lies in C0
                if not is_reductive_edge(self.m, a_inv.edges, a_inv.vertex,
                                         self.kind, self.horizon):
                    raise PropertyViolation(
                        f"[{stage}] the inverse of {alpha.key()} is compatible "
                        "with the maximal edge but not reductive")
                self.check_claim(C, [acan], [a_inv_can], stage=stage)
                C = self.eliminate(C, [acan], [a_inv_can], stage)
                continue
            if mhat not in alpha.edges:
                raise PropertyViolation(
                    f"[{stage}] leftover edge {alpha.key()} misses the "
                    "maximal collapse edge and its inverse is incompatible "
                    "with the maximal edge")

            # Pushing Lemma alternatives
            sub_candidates = []
            for mu_t in translates(g, mu):
                if mu_t.vertex == alpha.vertex:
                    sub_candidates.append(mu_t.edges - alpha.edges)
            union_candidates = [alpha.edges | (Gmu & frozenset(
                g.edges_at(alpha.vertex)))]
            for mu_t in translates(g, mu):
                if mu_t.vertex == alpha.vertex:
                    union_candidates.append(alpha.edges | mu_t.edges)

            alpha0 = None
            subcase = None
            for cand in sub_candidates:
                if len(cand) >= 2 and is_reductive_edge(
                        self.m, cand, alpha.vertex, self.kind, self.horizon):
                    a0 = canonical_rep(g, IdealEdge(alpha.vertex, frozenset(cand)))
                    if compatible(g, a0, mu):
                        alpha0, subcase = a0, "difference"
                        break
            if alpha0 is None:
                for cand in union_candidates:
                    if cand != alpha.edges and is_reductive_edge(
                            self.m, cand, alpha.vertex, self.kind,
                            self.horizon):
                        a0 = canonical_rep(
                            g, IdealEdge(alpha.vertex, frozenset(cand)))
                        if compatible(g, a0, mu):
                            alpha0, subcase = a0, "union"
                            break
            if alpha0 is None:
                raise PropertyViolation(
                    f"[{stage}] the Pushing Lemma produced no usable reductive "
                    f"ideal edge for {alpha.key()}")

            if subcase == "difference":
                # both orientations of alpha are replaced by alpha0 at once
                targets = [acan]
                if a_inv_can.key() in {b.key() for b in C}:
                    targets.append(a_inv_can)
                self.check_claim(C, targets, [alpha0], pre=True, stage=stage)
                C = self.eliminate(C, targets, [alpha0], stage)
            else:
                inv0, alpha0_inv = is_invertible(g, alpha0)
                if not inv0:
                    raise PropertyViolation(
                        f"[{stage}] the union edge {alpha0.key()} is not "
                        "invertible")
                alpha0_inv_can = canonical_rep(g, alpha0_inv)
                if not is_reductive_edge(self.m, alpha0_inv.edges,
                                         alpha0_inv.vertex, self.kind,
                                         self.horizon):
                    raise PropertyViolation(
                        f"[{stage}] the inverse of the union edge "
                        f"{alpha0.key()} is not reductive")
                if a_inv_can.key() in {b.key() for b in C}:
                    self.check_claim(C, [a_inv_can], [alpha0_inv_can],
                                     stage=stage)
                    C = self.eliminate(C, [a_inv_can], [alpha0_inv_can], stage)
                self.check_claim(C, [acan], [alpha0], stage=stage)
                C = self.eliminate(C, [acan], [alpha0], stage)

        if not gamma_ok:
            # replace the leftover full-stabilizer edge with the inverse of mu
            mu_inv_can = canonical_rep(g, mu_inv)
            if not is_reductive_edge(self.m, mu_inv.edges, mu_inv.vertex,
                                     self.kind, self.horizon):
                raise PropertyViolation(
                    "the inverse of the maximal edge is not reductive")
            self.check_claim(C, [gamma], [mu_inv_can], stage=stage + "/gamma")
            C = self.eliminate(C, [gamma], [mu_inv_can], stage + "/gamma")
        return C

    def contract_to_point(self, C, mu, stage):
        """Add mu to every forest, then send everything to {mu}."""
        before = self.forests(C)
        mu_forest = IdealForest((mu,))

        def f_map(phi):
            if mu in phi.orbits:
                return phi
            return IdealForest(phi.orbits + (mu,))

        keys = {f.key() for f in before}
        for phi in before:
            fi = f_map(phi)
            if fi.key() not in keys:
                bad = forest_violations(self.m, fi.orbits)
                raise PropertyViolation(
                    f"[{stage}] adding the maximal edge to {phi.key()} does "
                    f"not give a forest: {'; '.join(bad) or 'not enumerated'}")
        for p1 in before:
            for p2 in before:
                if p1 <= p2 and not (f_map(p1) <= f_map(p2)):
                    raise PropertyViolation(f"[{stage}] f is not monotone")
        image = [f_map(p) for p in before]
        for psi in image:
            if mu not in psi.orbits:
                raise PropertyViolation(
                    f"[{stage}] image forest misses the maximal edge")
            # g is the constant map to {mu}; g(Psi) <= Psi needs mu in Psi
        self.steps.append(RetractionStep(
            stage, (mu.key(),), (mu.key(),), len(before), 1,
            self.betti_of([mu_forest])))
        return [mu_forest]


def run_retractions(m: MarkedGGraph, horizon, kind="tot",
                    homology=False) -> RetractionTrace:
    """Collapse S(R) to a single forest through S(C1), S(C0'), S(C0).

    Every poset map used is verified exhaustively (monotone, pointwise
    comparable, image inside the complex); any failed lemma claim raises
    PropertyViolation with a witness.  When the maximal pair is away from
    the basepoint the case is reported as out of scope.
    """
    if not is_reduced(m.graph):
        raise HypothesisNotMet("the marked graph is not reduced")
    g = m.graph
    eng = _Engine(m, horizon, kind, homology)
    R = reductive_orbits(m, kind, horizon)
    if not R:
        return RetractionTrace("degenerate", "no reductive ideal edges",
                               [], ())
    pair = max_reductive_pair(m, horizon, kind)
    if pair is None:
        raise InternalInconsistency(
            "reductive ideal edges exist but no reductive pair was found")
    mu, mhat = pair.edge, pair.collapse_target
    if mu.vertex != g.basepoint:
        return RetractionTrace(
            "out-of-scope",
            "the maximally reductive pair is not at the basepoint", [], ())
    gamma = gamma_edge(m, R)
    if gamma is not None and mu.key() == gamma.key():
        forests = eng.forests(R)
        if [f.key() for f in forests] != [IdealForest((mu,)).key()]:
            raise PropertyViolation(
                "the maximal edge is the lone non-invertible full-stabilizer "
                "edge yet other reductive forests exist")
        return RetractionTrace("done",
                               "degenerate case: R = C0 = {mu}",
                               [], (forests[0],))

    C0, C0p, C1 = nested_families(g, R, mu, mhat)
    C = closure_pm(m, R)
    C = eng.stage_shrink(C, closure_pm(m, C1), mu, mhat, "R->C1")
    C = eng.stage_push(C, closure_pm(m, C0p), mu, mhat, "C1->C0p")
    C = eng.stage_final(C, closure_pm(m, C0), mu, mhat, gamma, "C0p->C0")
    final = eng.contract_to_point(C, mu, "C0->point")
    return RetractionTrace("done", "retracted to a single forest",
                           eng.steps, tuple(final))
