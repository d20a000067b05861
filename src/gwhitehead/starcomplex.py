"""Ideal forests, the star complex, reductive families, and retractions.

The poset of ideal forests of a reduced marked G-graph is isomorphic to
the star of that graph in the complex of reduced marked graphs; its order
complex is the star complex S(C) for a family C of ideal edge orbits.
R, and the maximal pair (mu, mhat) that cuts C0, C0' and C1 out of it,
come from one moves.reductive_scan.  run_retractions makes that scan
once, records R and the pair in its trace, and collapses S(R) step by
step to a single forest.  Each step is a Poset-Lemma double step
S(C) -f-> S(C) -g-> S(C'), and every step, an elimination or the final
contraction to {mu}, is checked by the one verifier _Engine.verify from
its masks T (the orbits taken away) and A (the orbits added): f is x | A
on forests meeting T and g is x & ~T, so both are monotone, x <= f(x)
and g(x) <= x by their form, and what is left, f(x) in S(C) and g(f(x))
a nonempty forest of S(C'), is checked on every forest that meets T (see
verify).  A failed claim raises a hard error with a witness.  The
engine's forests are int masks over one numbering, bit i for orbit i of
closure_pm(R) sorted by key; being an ideal forest does not depend on
the family, so the one forest search gives S(closure_pm(R)) and each
S(C') is S(C) filtered.  The search is kept on the marked graph, so
star_complex and run_retractions share it.  IdealForest is only at the
API boundary.  Simplicial complexes hold their faces as int masks over
their vertex indices too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import HypothesisNotMet, PropertyViolation, ValidationError
from .ggraph import is_reduced
from .idealedges import (IdealEdge, IdealPair, _bits, canonical_rep,
                         compatible, crossing, inverse_orbit, is_invertible,
                         orbit_union, pre_compatible, translate_at,
                         translate_through, translates)
from .marking import MarkedGGraph
from .moves import reductive_scan

MAX_FORESTS = 20000


# ---------------------------------------------------------------------------
# ideal forests


@dataclass(frozen=True)
class IdealForest:
    """A set of ideal edge orbits: compatible at *, pre-compatible and
    inverse-closed elsewhere.  Forests compare and hash by their orbits."""

    orbits: tuple  # canonical IdealEdge reps, sorted by key
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "orbits",
                           tuple(sorted(self.orbits, key=lambda a: a.key())))
        object.__setattr__(self, "_members", frozenset(self.orbits))

    def key(self):
        return tuple(a.key() for a in self.orbits)

    def __le__(self, other):
        return self._members <= other._members


def forest_violations(m, orbits):
    """Why a set of orbit reps fails to be an ideal forest (empty = OK)."""
    g = m.graph
    orbits = list(orbits)
    if not orbits:
        return ["the empty forest is excluded"]
    bad = []
    for a in orbits:
        if canonical_rep(g, a) != a:
            bad.append(f"{a.key()} is not a canonical orbit representative")
    phi1 = [a for a in orbits if a.vertex == g.basepoint]
    phi2 = [a for a in orbits if a.vertex != g.basepoint]
    for a, b in itertools.combinations(phi1, 2):
        if not compatible(g, a, b):
            bad.append(f"basepoint orbits {a.key()} and {b.key()} incompatible")
    for a, b in itertools.combinations(phi2, 2):
        if not pre_compatible(g, a, b):
            bad.append(f"orbits {a.key()} and {b.key()} not pre-compatible")
    for a in phi2:
        ainv = inverse_orbit(g, a)
        if ainv is not None and ainv not in phi2:
            bad.append(f"inverse of invertible orbit {a.key()} missing")
    return bad


def enumerate_ideal_forests(m, restrict_to):
    """All nonempty ideal forests over the given orbit reps, sorted by
    (size, key); see _forest_masks."""
    pool = sorted(set(restrict_to), key=lambda a: a.key())
    return [IdealForest(tuple(pool[i] for i in _bits(x)))
            for x in _forest_masks(m, pool)]


def _forest_masks(m, pool):
    """The ideal forests over pool, a list of orbit reps sorted by key, as
    int masks: orbit i of the pool is bit i.  Sorted by (bit count, bit
    indices), which is (size, key) order.

    The tuple is kept on m per (pool, MAX_FORESTS), so star_complex and
    run_retractions on one marked graph search once; a search that raises
    keeps nothing.
    """
    key = (tuple(pool), MAX_FORESTS)
    found = m._forests.get(key)
    if found is None:
        found = m._forests[key] = _search_forests(m, pool)
    return found


def _search_forests(m, pool):
    """The forest search behind _forest_masks.

    Each pair of orbits is tested once: compatible when both are at *,
    pre-compatible when both are away from it, and always allowed when one
    is at * and one is not.  That gives one adjacency mask per orbit.
    Orbits that no forest can hold are dropped first: a rep that is not
    canonical, and an orbit away from * whose inverse is outside the pool
    (the inverse of a canonical rep is at its vertex, so never at *).
    need[i] is the inverse that inverse closure asks of orbit i.
    The search grows a set only by its candidates, the later orbits
    adjacent to all of it (as Bron-Kerbosch clique enumeration does), and
    drops a branch whose missing inverse is not among them.

    More than MAX_FORESTS forests raise HypothesisNotMet, except that one
    more is let through when it is the singleton of the last orbit: that
    is where a depth-first search over all pairwise-allowed sets in key
    order, which checks the count on entering each set, puts the cap.
    """
    g = m.graph
    bit = {a: 1 << i for i, a in enumerate(pool)}
    need = [0] * len(pool)
    usable = 0
    for i, a in enumerate(pool):
        if canonical_rep(g, a) != a:
            continue
        if a.vertex != g.basepoint:
            ainv = inverse_orbit(g, a)
            if ainv is not None:
                if ainv not in bit:
                    continue
                need[i] = bit[ainv]
        usable |= 1 << i
    adj = [0] * len(pool)
    for i, j in itertools.combinations(_bits(usable), 2):
        a, b = pool[i], pool[j]
        at_a, at_b = a.vertex == g.basepoint, b.vertex == g.basepoint
        if at_a != at_b or (compatible if at_a else pre_compatible)(g, a, b):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    last = 1 << len(pool) >> 1
    cap = MAX_FORESTS + bool(usable & last and not need[-1] & ~last)
    found = []

    def grow(chosen, needed, candidates):
        for i in _bits(candidates):
            here, want = chosen | 1 << i, needed | need[i]
            rest = candidates & adj[i] & -(2 << i)
            missing = want & ~here
            if missing & ~rest:
                continue
            if not missing:
                if len(found) == cap:
                    raise HypothesisNotMet(
                        "ideal forest count exceeds the search cap")
                found.append(here)
            grow(here, want, rest)

    grow(0, 0, usable)
    found.sort(key=lambda x: (x.bit_count(), tuple(_bits(x))))
    return tuple(found)


# ---------------------------------------------------------------------------
# simplicial complexes and reduced homology


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex labels plus a downward-closed set of nonempty faces.

    A face is an int mask over the vertex indices: bit v stands for
    vertices[v].  Every face is a positive int with no bit at or beyond
    len(vertices), and dropping any one vertex of a face, x ^ low for a
    set bit low of x, gives a face again unless it empties it; by
    induction every nonempty subset of a face is a face.
    """

    vertices: tuple
    faces: frozenset  # int masks over vertex indices

    def __post_init__(self):
        faces, top = self.faces, 1 << len(self.vertices)
        for x in faces:
            if not (isinstance(x, int) and 0 < x < top):
                raise ValidationError(self._bad_face(x))
            if x & (x - 1):
                y = x
                while y:
                    low = y & -y
                    if x ^ low not in faces:
                        raise ValidationError("faces are not downward closed")
                    y ^= low

    def _bad_face(self, x):
        if not isinstance(x, int):
            return f"face {x!r} is not an int mask"
        if x < 0:
            return f"face {x} is negative"
        if not x:
            return "empty face is excluded"
        return f"face {x:#b} has a vertex beyond the {len(self.vertices)} vertices"

    @property
    def dim(self):
        return max((x.bit_count() for x in self.faces), default=0) - 1


def order_complex(vertices, sets) -> SimplicialComplex:
    """Chains of distinct int-mask sets under inclusion (x <= y when not
    x & ~y), as a simplicial complex on int masks; vertex i is vertices[i].

    below[i] is the mask of the vertices strictly below vertex i.  A chain
    is grown from its top element down: a chain whose lowest element is j
    becomes chain | 1 << i for each i below j, so each chain is made once.
    """
    below = [sum(1 << j for j, y in enumerate(sets) if j != i and not y & ~x)
             for i, x in enumerate(sets)]
    faces = []

    def chains(chain, under):
        faces.append(chain)
        while under:
            low = under & -under
            chains(chain | low, below[low.bit_length() - 1])
            under ^= low

    for i, under in enumerate(below):
        chains(1 << i, under)
    return SimplicialComplex(tuple(vertices), frozenset(faces))


def reduced_homology(K: SimplicialComplex):
    """Reduced Betti numbers over the rationals, degrees 0..dim.

    Exact sparse elimination over Q: each boundary map d_k is a list of
    sparse columns {row: +-1}, one per k-face x in increasing mask order,
    whose rows are the facets x ^ low, indexed by their own place in that
    order, with sign (-1)^i for the i-th set bit low of x.  Each column is
    reduced against the pivot columns kept by their highest row.  A new
    pivot column is scaled so that its pivot entry is 1, through Fraction
    only when that entry is not +-1, so an integer pivot such as the 2 of
    RP^2 is divided out exactly rather than treated as zero the way mod-2
    arithmetic would.

    The maps are reduced from the top dimension down, with clearing: a
    column of d_k whose face is a pivot row p of d_(k+1) is skipped.  The
    reduced column of d_(k+1) with pivot p is a boundary, so a cycle z,
    whose highest row is p with a nonzero entry.  d_k z = 0 then puts the
    column d_k e_p in the span of the columns d_k e_r with r < p.  By
    induction on p, skipping these columns leaves the span of the columns
    met so far unchanged, so each skipped column would have reduced to
    zero, and the rank of d_k is unchanged.
    """
    if not K.faces:
        return ()
    layers = [[] for _ in range(K.dim + 1)]
    for x in K.faces:
        layers[x.bit_count() - 1].append(x)
    for layer in layers:
        layer.sort()
    # the augmentation maps every vertex to the formal empty simplex
    ranks = [1] + [0] * len(layers)
    cleared = set()
    for k in range(len(layers) - 1, 0, -1):
        index = {x: i for i, x in enumerate(layers[k - 1])}
        pivots = {}
        for i, x in enumerate(layers[k]):
            if i in cleared:
                continue
            col, sign, y = {}, 1, x
            while y:
                low = y & -y
                col[index[x ^ low]] = sign
                sign = -sign
                y ^= low
            while col and (p := max(col)) in pivots:
                c = col[p]
                for r, v in pivots[p].items():
                    w = col.get(r, 0) - c * v
                    if w:
                        col[r] = w
                    else:
                        del col[r]
            if col:
                c = col[p]
                if c == -1:
                    col = {r: -v for r, v in col.items()}
                elif c != 1:
                    col = {r: v / Fraction(c) for r, v in col.items()}
                pivots[p] = col
        ranks[k] = len(pivots)
        cleared = pivots.keys()
    return tuple(len(layer) - ranks[k] - ranks[k + 1]
                 for k, layer in enumerate(layers))


# ---------------------------------------------------------------------------
# reductive families


def reductive_orbits(m, kind, horizon):
    return reductive_scan(m, horizon, kind)[0]


def closure_pm(m, C):
    """Adjoin the inverses of the invertible elements away from the basepoint."""
    g = m.graph
    invs = {inverse_orbit(g, a) for a in C if a.vertex != g.basepoint}
    return frozenset(C) | (invs - {None})


def gamma_edge(m, R):
    """The unique non-invertible full-stabilizer reductive edge at *, if any.

    G fixes *, so every translate of an edge alpha at * lies at *, and by
    orbit-stabilizer stab alpha = G exactly when alpha is its only
    translate.  More than one such edge contradicts uniqueness and is a
    hard error.
    """
    g = m.graph
    found = []
    for a in R:
        if a.vertex != g.basepoint:
            continue
        if len(translates(g, a)) != 1:
            continue
        if not is_invertible(g, a)[0]:
            found.append(a)
    if len(found) > 1:
        raise PropertyViolation(
            "two non-invertible full-stabilizer reductive edges at the "
            f"basepoint: {found[0].key()} and {found[1].key()}")
    return found[0] if found else None


def nested_families(g, R, mu, mhat):
    """(C0, C0p, C1) cut out of R by the maximal pair (mu, mhat).

    C0p adds the edges alpha at v with stab alpha = stab v.  An element
    fixing alpha fixes its end v, and t -> t.vertex maps the translates
    G alpha onto G v with fibres of size [stab v : stab alpha], so the two
    are equal exactly when no two translates of alpha share a vertex.
    """
    C0 = frozenset(a for a in R if compatible(g, a, mu))
    C0p = C0 | frozenset(
        a for a in R
        if len({t.vertex for t in translates(g, a)}) == len(translates(g, a)))
    C1 = C0p | frozenset(
        a for a in R
        if mhat in orbit_union(g, a) and crossing(g, a, mu).number == 1)
    return C0, C0p, C1


def family(m, which, horizon):
    """R, C0, C0p (C0'), or C1, as a frozenset of canonical orbit reps."""
    R, best = reductive_scan(m, horizon)
    if which == "R":
        return R
    if best is None:
        raise HypothesisNotMet("no maximally reductive pair exists")
    families = dict(zip(("C0", "C0p", "C1"), nested_families(
        m.graph, R, best[0].edge, best[0].collapse_target)))
    if which not in families:
        raise ValidationError(f"unknown family {which!r}")
    return families[which]


def star_complex(m, C) -> SimplicialComplex:
    """Order complex of the ideal forests with orbits in C, by mask inclusion."""
    pool = sorted(set(C), key=lambda a: a.key())
    return order_complex(enumerate_ideal_forests(m, pool), _forest_masks(m, pool))


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
    R: frozenset         # the reductive family the retraction started from
    pair: IdealPair | None  # the maximal pair (mu, mhat), if R is nonempty
    steps: list = field(default_factory=list)
    final_forests: tuple = ()


class _Engine:
    """The retraction of S(R); an orbit is reductive when its canonical rep
    is in R.  Forests are masks over pool, the orbits of closure_pm(R), and
    every step is checked by verify from its masks T and A alone."""

    def __init__(self, m, R, homology):
        self.m = m
        self.g = m.graph
        self.R = R
        self.homology = homology
        self.steps = []
        self.pool = sorted(closure_pm(m, R), key=lambda a: a.key())
        self.bit = {a: 1 << i for i, a in enumerate(self.pool)}

    def start(self):
        """The family closure_pm(R) and its forests, from the one forest
        search."""
        return frozenset(self.pool), _forest_masks(self.m, self.pool)

    # -- helpers ---------------------------------------------------------

    def mask(self, orbits):
        return sum(self.bit[a] for a in orbits)

    def orbits(self, x):
        return [self.pool[i] for i in _bits(x)]

    def key(self, x):
        return tuple(a.key() for a in self.orbits(x))

    def betti_of(self, forests):
        if not self.homology:
            return None
        return reduced_homology(order_complex(forests, forests))

    def choose(self, alpha, candidates, mu):
        """The canonical rep of the first candidate edge set at alpha's vertex
        that differs from alpha, is reductive and is compatible with mu."""
        for cand in candidates:
            if cand == alpha.edges:
                continue
            a0 = canonical_rep(self.g, IdealEdge(alpha.vertex, frozenset(cand)))
            if a0 in self.R and compatible(self.g, a0, mu):
                return a0
        return None

    def check_claim(self, C, alphas, alpha0s, stage, pre):
        """Compatibility transfer: beta ~ alpha implies beta ~ alpha0."""
        g = self.g
        rel = pre_compatible if pre else compatible
        for beta in sorted(C.difference(alphas), key=lambda b: b.key()):
            if any(rel(g, beta, a) for a in alphas):
                for a0 in alpha0s:
                    if beta != a0 and not compatible(g, beta, a0):
                        raise PropertyViolation(
                            f"[{stage}] {beta.key()} is compatible with the "
                            f"eliminated edge but not with {a0.key()}")

    def verify(self, stage, S, T, A):
        """Check one Poset-Lemma double step S(C) -f-> S(C) -g-> S(C') and
        return S(C'), the forests of S that miss T.

        S is all of S(C), as masks; T masks the orbits the step takes away
        and A those it adds.  f is x | A on forests meeting T and fixes the
        rest, and g is x & ~T.  Maps of this form meet the order conditions
        of the Poset Lemma by their form alone.  x <= f(x) and g(x) <= x.
        g is monotone, and so is f: for x <= y, either x meets T and then
        so does y, or f(x) = x <= y <= f(y).  Forests that miss T are fixed
        by f and g, so S(C') lies in g(f(S(C))).  What is left is checked
        on each forest x that meets T: f(x) is in S(C), and g(f(x)) is
        nonempty and in S(C'), that is in S(C), as it misses T.  The
        contraction to {mu} is the step with T all orbits but mu and
        A = {mu}.
        """
        members = set(S)
        moved = [x for x in S if x & T]
        for x in moved:
            if x | A not in members:
                bad = forest_violations(self.m, self.orbits(x | A))
                raise PropertyViolation(
                    f"[{stage}] f(Phi) is not an ideal forest over the family "
                    f"for Phi={self.key(x)}: {'; '.join(bad) or 'not enumerated'}")
        for x in moved:
            psi = x | A
            y = psi & ~T
            if not y:
                raise PropertyViolation(
                    f"[{stage}] g empties the forest {self.key(psi)}")
            if y not in members:
                bad = forest_violations(self.m, self.orbits(y))
                raise PropertyViolation(
                    f"[{stage}] g(Psi) is not an ideal forest for "
                    f"Psi={self.key(psi)}: {'; '.join(bad) or 'not enumerated'}")
        return [x for x in S if not x & T]

    def eliminate(self, C, S, targets, alpha0s, stage, pre=False):
        """One Poset-Lemma double step on the family C with forests S: f
        adds alpha0s to forests meeting targets, g strips targets.  Checks
        compatibility transfer first (pre-compatibility when pre).  Returns
        the new family and its forests, those of S without targets."""
        self.check_claim(C, targets, alpha0s, stage, pre)
        targets, alpha0s = frozenset(targets), frozenset(alpha0s)
        after = self.verify(stage, S, self.mask(targets), self.mask(alpha0s))
        self.steps.append(RetractionStep(
            stage,
            tuple(sorted(a.key() for a in targets)),
            tuple(sorted(a.key() for a in alpha0s)),
            len(S), len(after),
            self.betti_of(after)))
        return C - targets, after

    # -- stage A: S(R) -> S(C1) -----------------------------------------

    def select_min(self, pool, Gmu):
        def key(a):
            return (len(a.edges & Gmu), len(a.edges), a.key())
        return min(pool, key=key)

    def select_max(self, pool, Gmu):
        def key(a):
            return (-len(a.edges & Gmu), -len(a.edges), a.key())
        return min(pool, key=key)

    def stage_shrink(self, C, S, target, mu, mhat, stage):
        g = self.g
        Gmu = orbit_union(g, mu)
        m_orbit = g.orbit_edge(mhat)
        while pool := C - target:
            alpha = self.select_min(pool, Gmu)
            cr = crossing(g, alpha, mu)
            if cr.number == 0:
                raise PropertyViolation(
                    f"[{stage}] {alpha.key()} does not meet the orbit of the "
                    "maximal edge yet is not compatible with it")
            no_m = [c for c in cr.components if not (c & m_orbit)]
            beta = alpha.edges - frozenset().union(*no_m)
            alpha0 = self.choose(alpha, no_m + [beta], mu)
            if alpha0 is None:
                raise PropertyViolation(
                    f"[{stage}] no reductive sub-edge of {alpha.key()} from the "
                    "Shrinking Lemma is compatible with the maximal edge")
            targets = closure_pm(self.m, {alpha}) & C
            alpha0s = closure_pm(self.m, {alpha0})
            C, S = self.eliminate(C, S, targets, alpha0s, stage)
        return C, S

    # -- stage B: S(C1) -> S(C0') ----------------------------------------

    def stage_push(self, C, S, target, mu, mhat, stage):
        g = self.g
        Gmu = orbit_union(g, mu)
        while rest := C - target:
            pool = []
            for a in rest:
                t = translate_through(g, a, mhat)
                if t is None:
                    raise PropertyViolation(
                        f"[{stage}] {a.key()} does not contain the maximal "
                        "collapse edge in any translate")
                pool.append(t)
            alpha = self.select_min(pool, Gmu)
            mu_t = translate_at(g, mu, alpha.vertex)
            candidates = []
            if mu_t is not None:
                candidates = [alpha.edges & mu_t.edges, alpha.edges - mu_t.edges]
            alpha0 = self.choose(alpha, candidates, mu)
            if alpha0 is None:
                raise PropertyViolation(
                    f"[{stage}] the Pushing Lemma produced no reductive "
                    f"ideal edge inside {alpha.key()} compatible with the "
                    "maximal edge")
            targets = closure_pm(self.m, {canonical_rep(g, alpha)}) & C
            C, S = self.eliminate(C, S, targets, [alpha0], stage)
        return C, S

    # -- stage C: S(C0') -> S(C0) -> point --------------------------------

    def stage_final(self, C, S, C0pm, mu, mhat, gamma, stage):
        g = self.g
        Gmu = orbit_union(g, mu)
        mu_inv = inverse_orbit(g, mu)
        gamma_ok = gamma is None or compatible(g, gamma, mu)
        target = C0pm
        if not gamma_ok:
            # the incompatible non-invertible edge must be E_* - {mhat}
            comp = g.edge_set_at(g.basepoint) - gamma.edges
            if comp != frozenset({mhat}):
                raise PropertyViolation(
                    "the non-invertible full-stabilizer edge is incompatible "
                    "with the maximal edge but its complement is not the "
                    "maximal collapse edge")
            if mu_inv is None:
                raise PropertyViolation(
                    "incompatible full-stabilizer edge with a non-invertible "
                    "maximal edge")
            target = C0pm | {gamma}
        while rest := C - target:
            pool = [translate_through(g, a, mhat) or a for a in rest]
            alpha = self.select_max(pool, Gmu)
            acan = canonical_rep(g, alpha)
            a_inv_can = inverse_orbit(g, alpha)
            if a_inv_can is None:
                raise PropertyViolation(
                    f"[{stage}] leftover edge {alpha.key()} is not invertible")

            if compatible(g, a_inv_can, mu):
                # replace alpha by its inverse, which lies in C0
                if a_inv_can not in self.R:
                    raise PropertyViolation(
                        f"[{stage}] the inverse of {alpha.key()} is compatible "
                        "with the maximal edge but not reductive")
                C, S = self.eliminate(C, S, [acan], [a_inv_can], stage)
                continue
            if mhat not in alpha.edges:
                raise PropertyViolation(
                    f"[{stage}] leftover edge {alpha.key()} misses the "
                    "maximal collapse edge and its inverse is incompatible "
                    "with the maximal edge")

            # Pushing Lemma alternatives: a difference, else a union
            mu_ts = [t.edges for t in translates(g, mu)
                     if t.vertex == alpha.vertex]
            alpha0 = self.choose(alpha, [e - alpha.edges for e in mu_ts], mu)
            if alpha0 is not None:
                # both orientations of alpha are replaced by alpha0 at once
                targets = [acan] + ([a_inv_can] if a_inv_can in C else [])
                C, S = self.eliminate(C, S, targets, [alpha0], stage, pre=True)
                continue
            local = Gmu & g.edge_set_at(alpha.vertex)
            alpha0 = self.choose(
                alpha, [alpha.edges | e for e in [local] + mu_ts], mu)
            if alpha0 is None:
                raise PropertyViolation(
                    f"[{stage}] the Pushing Lemma produced no usable reductive "
                    f"ideal edge for {alpha.key()}")
            alpha0_inv_can = inverse_orbit(g, alpha0)
            if alpha0_inv_can is None:
                raise PropertyViolation(
                    f"[{stage}] the union edge {alpha0.key()} is not "
                    "invertible")
            if alpha0_inv_can not in self.R:
                raise PropertyViolation(
                    f"[{stage}] the inverse of the union edge "
                    f"{alpha0.key()} is not reductive")
            if a_inv_can in C:
                C, S = self.eliminate(C, S, [a_inv_can], [alpha0_inv_can], stage)
            C, S = self.eliminate(C, S, [acan], [alpha0], stage)

        if not gamma_ok:
            # replace the leftover full-stabilizer edge with the inverse of mu
            if mu_inv not in self.R:
                raise PropertyViolation(
                    "the inverse of the maximal edge is not reductive")
            C, S = self.eliminate(C, S, [gamma], [mu_inv], stage + "/gamma")
        return C, S

    def contract_to_point(self, S, mu, stage):
        """Add mu to every forest of S, then send everything to {mu}."""
        point = self.bit[mu]
        after = self.verify(stage, S, (1 << len(self.pool)) - 1 & ~point, point)
        self.steps.append(RetractionStep(
            stage, (mu.key(),), (mu.key(),), len(S), len(after),
            self.betti_of(after)))
        return IdealForest((mu,))


def run_retractions(m: MarkedGGraph, horizon, homology=False) -> RetractionTrace:
    """Collapse S(R) to a single forest through S(C1), S(C0'), S(C0).

    R and the maximal pair come from one reductive_scan and are recorded
    in the trace, whatever its status.  Every double step is given by the
    orbits it takes away and adds, which makes its maps monotone and
    comparable with the identity, and its images are checked on every
    forest that it moves; any failed lemma claim raises PropertyViolation
    with a witness.  When the maximal pair is away from the basepoint the
    case is reported as out of scope.
    """
    if not is_reduced(m.graph):
        raise HypothesisNotMet("the marked graph is not reduced")
    g = m.graph
    R, best = reductive_scan(m, horizon)
    if best is None:
        return RetractionTrace("degenerate", "no reductive ideal edges", R, None)
    pair = best[0]
    mu, mhat = pair.edge, pair.collapse_target
    if mu.vertex != g.basepoint:
        return RetractionTrace(
            "out-of-scope",
            "the maximally reductive pair is not at the basepoint", R, pair)
    gamma = gamma_edge(m, R)
    if mu == gamma:
        forests = enumerate_ideal_forests(m, R)
        if forests != [IdealForest((mu,))]:
            raise PropertyViolation(
                "the maximal edge is the lone non-invertible full-stabilizer "
                "edge yet other reductive forests exist")
        return RetractionTrace("done", "degenerate case: R = C0 = {mu}",
                               R, pair, [], (forests[0],))

    C0, C0p, C1 = nested_families(g, R, mu, mhat)
    eng = _Engine(m, R, homology)
    C, S = eng.start()
    C, S = eng.stage_shrink(C, S, closure_pm(m, C1), mu, mhat, "R->C1")
    C, S = eng.stage_push(C, S, closure_pm(m, C0p), mu, mhat, "C1->C0p")
    C, S = eng.stage_final(C, S, closure_pm(m, C0), mu, mhat, gamma, "C0p->C0")
    final = eng.contract_to_point(S, mu, "C0->point")
    return RetractionTrace("done", "retracted to a single forest",
                           R, pair, eng.steps, (final,))
