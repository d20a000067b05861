"""The out/aut/tot norms, edge absolute values, dot products, comparison.

All vectors are finite prefixes of the infinite lexicographic products:
coordinates are indexed by the shortlex enumeration of conjugacy classes
(out) or words (aut), truncated at a horizon.  Identities are exact per
coordinate; only order comparisons can be indeterminate at the horizon.

Items.  Coordinate i of aut is the reduced basepoint path of word i, and
coordinate j of out the cyclically reduced loop of class representative
j, in the rotation its path gives.  Every item is a ``bytes`` string of
edge ids, one byte per step.  Both kinds come from the word tree of
``fg.word_tree``, which depends only on (n, horizon) and is memoised: the
words in shortlex order, each with the index of its parent (the word
minus its last letter) and the indices of the class representatives.
The path of w l is the parent's path joined to the basis path of l (or
its inverse), and since both halves are reduced only the junction can
cancel (``marking.join_reduced``).  A class representative is one of the
words, so its loop is its own path with the matching ends stripped
(``marking.cyclic_reduction``); no word is realized twice.  Both helpers
are generic over tuples and bytes, and keep the type they are given.  A
junction that cancelled too little would leave an unreduced item, which
_Lanes rejects.

No rotation is taken.  Every out quantity is a count over a cyclic word:
its length, the occurrences of each edge, and its turns, the wrap turn
from the last step back to the first included.  Rotating a cyclic item
only relabels its positions cyclically, so three things are unchanged:
each edge's occurrences, the multiset of (step p, step p + 1 mod k)
turns, and the unreduced-item test over the adjacent and wrap pairs.
``edge``, ``turns``, the subset tables, set_abs, dot, abs_sign and norm
are therefore the same in any rotation; only the bytes of
``items["out"][j]`` depend on it.  ``marking.loop_of_class`` gives the
lex-least rotation of the same loop, a class invariant.

Packed layout.  A NormCalculator builds, once per kind (out and aut), the
G-orbit sums of the occurrence vector of each directed edge and of the
turn vector of each occurring turn, each packed into one Python int with
one fixed-width lane per coordinate: lane i holds item i of
``items[kind]``, the lowest lane first, in the width of the narrowest
``array`` code that holds every value a kernel can produce.  The counts
are made over one column-major buffer, with no Python loop per step or
per column.  The items, each padded with the sentinel ``n_edges`` to the
longest length L, are joined into one string, and its extended slice
``rows[p::L]`` is the ``bytes`` column of path position p (byte i is step
p of item i, or the sentinel past its end).  The buffer is the L columns
in order, one block each, preceded for cyclic items by a wrap block
holding each item's last step.  For each edge e present in the buffer,
one ``bytes.translate`` with a one-hot table gives the indicator X_e, the
packed 0/1 int of e at every position of every item.  Shifted down one
block, X_w lines each position up with the next (and the wrap block with
the first), so one AND per edge u, X_u & (X_{rev u} >> block), finds
every backtrack, the wrap ones included, and one AND per pair of present
edges, X_u & (X_w >> block), marks every crossing of the turn
(u, rev w).  The count over positions is the sum of the blocks, folded
by halving: x = (x & mask) + (x >> s) adds the upper half of the blocks
onto the lower, ceil(log2 L) steps with (s, mask) made once per build.
An edge's occurrences are folded once, after their orbit sum, for e and
rev e together (for cyclic items that sum is first shifted down one
block, past the wrap block).  No fold carries from one lane into the
next: every partial sum of a lane is at most that lane's final value,
and no final value exceeds the lane bound 2 |G| L (see _pack).  (A
remainder modulo 2^block - 1 would also sum the blocks, but CPython's
long division is quadratic, and it measured slower.)  The occurrences
and the check that every item is reduced are made at build time, which
keeps the indicators but not the buffer; the turns are counted from
those indicators on the first query that reads them (set_abs, dot,
abs_sign), which then drops them.  So a calculator read only through
norm, all_norms or edge_abs never counts them.  Edge ids and the
sentinel must each fit in one byte, so a graph may have at most
MAX_EDGES directed edges.  edge_abs and dot are then a few big-int sums
over those ints, and one ``int.to_bytes`` plus ``memoryview.cast``
unpacks the result into the coordinate tuple.  norm needs no unpacking:
its cross-check compares packed ints (see NormCalculator.norm).  tot is
the out coordinates followed by the aut ones.

Packed |C|.  A turn joins two edges that end at one vertex, so |C| is the
sum of |C & E_v| over the vertices v that C's edges end at.  Each term is
read from one table per (part, vertex) that holds the packed |C| of every
subset C of E_v, made by one subset recurrence on the first read
(_Lanes.subset_abs).  set_abs and abs_sign both take their packed |C|
this way (_packed_abs), and nothing else computes it.  A table holds
2^|E_v| entries, one per mask over E_v: the masks the graph's orbit table
tests at v (idealedges).  Every benchmark workload and every command but
``selftest --suite norms`` builds that orbit table as well.

Lexicographic sign.  No lane of an edge or packed |C| int ever carries or
borrows (see _pack), so lane i of such an int is coordinate i exactly.
For two of them x != y, the lowest set bit of x ^ y therefore lies in the
first lane, in coordinate order, where they differ; the lanes below it
are equal, so x and y masked up to the top of that lane compare as that
lane does.  That one comparison is the sign of the first nonzero
coordinate of x - y, with no unpacking (``_Lanes.sign``).  abs_sign uses
it for the sign of |a| - |C|: per part of the kind, one packed |C| and one
comparison with ``edge[a]``, the aut part only when the out part is equal.

Lane-wise order.  abs_le decides whether sum k |C| over one list of
(k, C) terms is <= the same sum over another in every coordinate, per
part, on packed ints.  A side's coefficients are orbit sizes, adding up
to at most k_max = 2 |G| (more raises InternalInconsistency), and a
packed |C| lane is at most 2 |G| L, so a side has lanes of at most B =
k_max 2 |G| L.  The terms are summed in the lane set's ``le_code`` (made
on first use), the narrowest lane code holding 2 B + 1 (the part's own
code when it does, its lanes widened once per |C| otherwise), so every
lane value is below half the lane range and each lane's top bit is free.
With GUARD the int with each lane's top bit set, lane i of y + GUARD - x
is y_i - x_i plus half the range: it lies in the lane's range, so no lane
borrows from the next (nor carries into it), and its top bit is set
exactly when x_i <= y_i.  So x <= y in every lane exactly when (y + GUARD
- x) & GUARD == GUARD, one big-int sum and one mask for the whole part.
Neither side may have a guard bit set (_Lanes.le raises
InternalInconsistency if one does), which keeps the compare exact even if
a lane ever exceeded its bound.

Memo.  A calculator unpacks each distinct |C| (per frozenset C and kind)
and computes its cross-checked pair of norms once: set_abs and all_norms
keep their answers, which are frozen NormVectors and safe to share, for
the life of the calculator.  The subset tables, and abs_le's packed |C|
per (part, C) and side sums per (part, side), are kept on it as well, so
``calculator.cache_clear()`` drops them all with it, as it drops each
kind's turn table, or the indicators its build kept until the turns are
counted.  norm(kind) is deliberately unmemoised: each call
repeats the direct count and the half edge_abs sum and compares them.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
import sys
from array import array
from dataclasses import dataclass

from . import freegroup as fg
from .errors import InternalInconsistency, ValidationError
from .marking import MarkedGGraph, cyclic_reduction, join_reduced, path_inv

KINDS = ("out", "aut", "tot")

# Edge ids 0..n_edges-1 and the column sentinel n_edges are bytes.
MAX_EDGES = 255
# _ONE_HOT[e] is the bytes.translate table sending byte e to 1, all others to 0.
_ONE_HOT = [bytes(e) + b"\x01" + bytes(255 - e) for e in range(256)]


@dataclass(frozen=True)
class NormVector:
    """Integer coordinate prefix; tot is the out prefix followed by the aut one."""

    kind: str
    n: int
    horizon: int
    coords: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown norm kind {self.kind!r}")

    def __add__(self, other):
        self._check_match(other)
        return NormVector(self.kind, self.n, self.horizon,
                          tuple(map(operator.add, self.coords, other.coords)))

    def __sub__(self, other):
        self._check_match(other)
        return NormVector(self.kind, self.n, self.horizon,
                          tuple(map(operator.sub, self.coords, other.coords)))

    def scale(self, k):
        if k == 1:  # frozen, so sharing is safe
            return self
        return NormVector(self.kind, self.n, self.horizon,
                          tuple(map(operator.mul, itertools.repeat(k), self.coords)))

    def _check_match(self, other):
        if (self.kind, self.n, self.horizon) != (other.kind, other.n, other.horizon):
            raise ValidationError("norm vectors with mismatched kind/rank/horizon")


class Order(enum.Enum):
    LESS = -1
    EQUAL_AT_HORIZON = 0
    GREATER = 1


def compare(u: NormVector, v: NormVector) -> Order:
    """Lexicographic verdict on the truncated coordinates."""
    u._check_match(v)
    for a, b in zip(u.coords, v.coords):
        if a < b:
            return Order.LESS
        if a > b:
            return Order.GREATER
    return Order.EQUAL_AT_HORIZON


class NormCalculator:
    """Packed orbit-summed occurrence and turn vectors for one marked graph."""

    def __init__(self, m: MarkedGGraph, horizon: int):
        if m.graph.n_edges > MAX_EDGES:
            raise ValidationError(
                f"the norm build takes at most {MAX_EDGES} directed edges, "
                f"not {m.graph.n_edges}")
        self.m = m
        self.horizon = horizon
        tree = fg.word_tree(m.n, horizon)
        self.words = tree.words[1:]
        self.classes = tuple(tree.words[i] for i in tree.classes)
        letter_path = {}
        for j, p in enumerate(m.basis_paths):
            letter_path[j + 1] = bytes(p)
            letter_path[-j - 1] = bytes(path_inv(p))
        paths = [b""]
        for parent, w in zip(tree.parents[1:], self.words):
            paths.append(join_reduced(paths[parent], letter_path[w[-1]]))
        self.items = {
            "aut": paths[1:],
            "out": [cyclic_reduction(paths[i]) for i in tree.classes],
        }
        self._lanes = {kind: _Lanes(self.items[kind], kind == "out", m.graph.edge_action)
                       for kind in ("out", "aut")}
        self._set_abs = {}  # (frozenset C, kind) -> |C|
        self._subset_abs = {}  # (part, vertex v) -> packed |C| per mask C over E_v
        self._lane_abs = {}  # (part, frozenset C) -> packed |C| in the part's le_code
        self._side_abs = {}  # (part, terms) -> packed sum of k |C| over terms, in le_code
        self._all_norms = None

    def _vec(self, kind, packed_fn):
        """Apply packed_fn to each part of kind and unpack in its lanes."""
        coords = ()
        for part in _parts(kind):
            coords += self._lanes[part].unpack(packed_fn(part))
        return NormVector(kind, self.m.n, self.horizon, coords)

    def edge_abs(self, e, kind) -> NormVector:
        return self._vec(kind, lambda part: self._lanes[part].edge[e])

    def dot(self, A, B, kind) -> NormVector:
        A, B = frozenset(A), frozenset(B)
        return self._vec(kind, lambda part: self._lanes[part].turns_between(A, B)
                         + self._lanes[part].turns_between(B, A))

    def set_abs(self, C, kind) -> NormVector:
        """|C|: edge occurrences of the translates of C minus twice their
        turns, unpacked from _packed_abs."""
        C = frozenset(C)
        v = self._set_abs.get((C, kind))
        if v is None:
            masks = self.m.graph.edge_masks(C).items()
            v = self._set_abs[C, kind] = self._vec(
                kind, lambda part: self._packed_abs(part, masks))
        return v

    def abs_sign(self, C, kind):
        """a -> the sign (1, 0 or -1) of the first nonzero coordinate of
        edge_abs(a, kind) - set_abs(C, kind), decided on the packed ints.

        Per part of kind, the packed |C| comes from _packed_abs; each call
        then looks up ``edge[a]`` and makes at most one comparison per part.
        """
        masks = self.m.graph.edge_masks(C).items()
        parts = []
        for part in _parts(kind):
            lanes = self._lanes[part]
            parts.append((lanes.edge, self._packed_abs(part, masks), lanes.sign))

        def sign(a):
            for edge, packed_c, lane_sign in parts:
                s = lane_sign(edge[a], packed_c)
                if s:
                    return s
            return 0

        return sign

    def abs_le(self, kind, lhs, rhs):
        """Whether the sum of k |C| over the (k, C) terms of lhs is <= the
        same sum over rhs in every coordinate of kind, for k >= 0, each C a
        frozenset and each side a tuple of terms whose coefficients add up
        to at most 2 |G| (InternalInconsistency otherwise).

        Decided per part on packed ints, in the part's ``le_code`` lanes
        (see "Lane-wise order" in the module docstring).  Each side is
        summed once per part by _sum_in, for the life of the calculator.
        """
        for part in _parts(kind):
            if not self._lanes[part].le(self._sum_in(part, lhs), self._sum_in(part, rhs)):
                return False
        return True

    def _sum_in(self, part, terms):
        """Packed sum of k |C| over the (k, C) terms in one part, in the
        lanes of its ``le_code``; made on the first read, then kept.  Each
        packed |C| is _packed_abs, widened once when ``le_code`` is wider
        than the part's own code, and kept per (part, C)."""
        total = self._side_abs.get((part, terms))
        if total is None:
            lanes = self._lanes[part]
            k_sum = sum([k for k, _ in terms])
            if k_sum > lanes.k_max:
                raise InternalInconsistency(
                    f"abs_le coefficients add up to {k_sum} > 2|G| = {lanes.k_max}")
            total = 0
            for k, C in terms:
                x = self._lane_abs.get((part, C))
                if x is None:
                    x = self._packed_abs(part, self.m.graph.edge_masks(C).items())
                    if lanes.le_code != lanes.code:
                        x = lanes.widen(x)
                    self._lane_abs[part, C] = x
                total += k * x
            self._side_abs[part, terms] = total
        return total

    def _packed_abs(self, part, masks):
        """Packed |C| in one part, for C given by its (vertex, mask) items
        of ``edge_masks``: the sum of the subset-table entries of C & E_v
        (see "Packed |C|" in the module docstring)."""
        return sum(self._subset_table(part, v)[mask] for v, mask in masks)

    def _subset_table(self, part, v):
        """Packed |C| for every mask C over E_v in one part, made on the
        first read and then kept (see _Lanes.subset_abs)."""
        table = self._subset_abs.get((part, v))
        if table is None:
            table = self._subset_abs[part, v] = self._lanes[part].subset_abs(
                self.m.graph.edges_at(v))
        return table

    def norm(self, kind) -> NormVector:
        """Norm, computed both directly and as half the edge_abs sum.

        The edge_abs sum is one sum of the packed edge ints per part: lane
        i of it is 2 |G| times the length of item i, which its lane holds
        (see _pack), so it never carries.  Each part is checked by one
        comparison of that sum with 2 |G| times each item's length, packed
        into the same lanes (_Lanes.pack); neither side carries, so equal
        packed ints mean equal coordinates.  Only on a mismatch is the sum
        unpacked and halved coordinate by coordinate, which raises with
        the message that names the fault.
        """
        order = self.m.graph.group.order
        direct = ()
        agree = True
        for part in _parts(kind):
            lanes = self._lanes[part]
            part_direct = tuple([order * len(steps) for steps in self.items[part]])
            direct += part_direct
            agree = agree and sum(lanes.edge) == lanes.pack(
                tuple(map(operator.add, part_direct, part_direct)))
        if not agree:
            total = self._vec(kind, lambda part: sum(self._lanes[part].edge))
            halved = []
            for c in total.coords:
                if c % 2:
                    raise InternalInconsistency("edge_abs sum is odd")
                halved.append(c // 2)
            if tuple(halved) != direct:
                raise InternalInconsistency(
                    f"direct norm {direct} != half edge_abs sum {tuple(halved)} ({kind})")
        return NormVector(kind, self.m.n, self.horizon, direct)

    def all_norms(self):
        """The out and aut norms, each cross-checked by norm(), and tot.

        tot is the out coordinates followed by the aut ones, so it needs no
        third cross-check.  Computed on the first call, then stored.
        """
        if self._all_norms is None:
            out = self.norm("out")
            aut = self.norm("aut")
            self._all_norms = (out, aut, NormVector("tot", out.n, out.horizon,
                                                    out.coords + aut.coords))
        return self._all_norms


def _parts(kind):
    """The kinds whose lanes make up kind: tot is out followed by aut."""
    return ("out", "aut") if kind == "tot" else (kind,)


def _pack(counts):
    """One Python int with a fixed-width lane per item, lane i holding counts[i].

    counts is a bytes or array object whose items are the lanes.  Lanes are
    as wide as the array code, which _Lanes chooses to hold 2 |G| L, L the
    longest item.  A raw count of one item (its occurrences of an edge, or
    its crossings of a turn) is at most L, so it fits every lane code and
    the sums over positions never carry.  No lane of an Osym or Tsym
    vector, nor of a packed |C| or dot result, exceeds 2 |G| L either: per
    g and item, each step is counted at most twice (as an edge of gC and
    as the reverse of one) and each turn at most twice.  So sums of packed
    ints never carry from one lane into the next.  A packed |C| is the
    occurrence sum minus twice the turn sum, and that never borrows: every
    coordinate of |C| is a count, so it is >= 0 lane by lane (each turn
    inside gC uses up two distinct occurrences counted in the sum).
    """
    return int.from_bytes(counts, sys.byteorder)


def _lane_code(bound):
    """The narrowest array code whose unsigned range holds bound."""
    for code in "BHIQ":
        if bound < 1 << (8 * array(code).itemsize):
            return code
    raise InternalInconsistency(f"norm coordinates up to {bound} exceed 64 bits")


def _fold_steps(n_blocks, block):
    """The (shift, mask) steps of _fold for n_blocks blocks of block bits."""
    steps = []
    while n_blocks > 1:
        n_blocks = (n_blocks + 1) // 2
        shift = n_blocks * block
        steps.append((shift, (1 << shift) - 1))
    return steps


def _fold(x, steps):
    """The lane-wise sum of the blocks of x, by halving: each step adds the
    upper half of the blocks onto the lower (see "Packed layout" in the
    module docstring for why no lane carries)."""
    for shift, mask in steps:
        x = (x & mask) + (x >> shift)
    return x


class _Lanes:
    """One kind's orbit-summed vectors, each packed into an int by _pack.

    ``edge[e]`` is Osym[e] + Osym[rev e], where Osym[e] = sum over x in G of
    O[x e] and O[e] counts the occurrences of e in each item.
    ``turns[a][b]`` is Tsym[a][b] = sum over x of T[(x a, x b)], where
    T[(u, w)] counts the positions of each item at which the path crosses
    u then rev w (a cyclic item also wraps around).  Only occurring turns
    are stored.

    O and T are counted on the column-major buffer of the items (see
    "Packed layout" in the module docstring): its blocks, each ``_n_bytes``
    wide, are the columns of the padded items in order, after a wrap block
    (block 0) when the items are cyclic.  X_e, the indicator of edge e over
    the buffer, gives O[e] as the sum of its column blocks, folded once per
    pair e, rev e after the orbit sum, and T[(u, rev w)] as the fold of
    X_u & (X_w >> block), one AND per pair of edges present, since block p
    of X_w >> block is the position after block p of X_u.  Items are
    bytes; cyclic items may come in any
    rotation, since none of these counts depends on where a loop starts
    (see "Items." in the module docstring).

    ``__init__`` makes each present edge's X_e once, makes ``edge`` and
    rejects an unreduced item, one AND per edge present.  It keeps the
    indicators and the fold steps, not the buffer; ``turns`` counts from
    the kept indicators on its first read, then drops them.
    """

    def __init__(self, items, cyclic, actions):
        n_edges = len(actions[0])
        longest = max(map(len, items), default=0)
        self.bound = 2 * len(actions) * longest  # the largest lane value
        self.k_max = 2 * len(actions)  # the largest coefficient sum of an abs_le side
        self.code = _lane_code(self.bound)
        self.width = 8 * array(self.code).itemsize  # bits per lane
        self._n_lanes = len(items)
        self._n_bytes = len(items) * self.width // 8
        self._actions = actions
        cols = []
        if longest:
            pad = bytes((n_edges,))
            rows = b"".join(map(bytes.ljust, items, itertools.repeat(longest),
                                itertools.repeat(pad)))
            if cyclic:  # block 0, the wrap: each item's last step
                cols.append(b"".join([steps[-1:] or pad for steps in items]))
            cols += [rows[p::longest] for p in range(longest)]
        buffer = b"".join(cols)
        narrow = self.code == "B"
        X = self._X = {}  # edge e -> X_e, kept until turns reads it
        for e in range(n_edges):
            if e in buffer:
                hot = buffer.translate(_ONE_HOT[e])
                X[e] = int.from_bytes(  # _pack, inlined
                    hot if narrow else array(self.code, memoryview(hot)), sys.byteorder)
        block = 8 * self._n_bytes
        for u, x in X.items():  # X_{rev u} >> block: each position on the next
            if x & (X.get(u ^ 1, 0) >> block):
                raise InternalInconsistency("unreduced path reached the norm layer")
        # the occurrences are in the column blocks: each orbit sum is shifted
        # past the wrap block, whose lanes (each at most |G|) carry into none
        wrap = block if cyclic else 0
        steps = self._steps = _fold_steps(longest, block)
        self.edge = [0] * n_edges
        for e in range(0, n_edges, 2):  # edge[e] is edge[rev e]: Osym[e] + Osym[rev e]
            self.edge[e] = self.edge[e + 1] = _fold(
                sum([X.get(act[e], 0) + X.get(act[e + 1], 0) for act in actions]) >> wrap,
                steps)

    @functools.cached_property
    def turns(self):
        """Tsym, counted from the kept indicators on the first read, which
        then drops them: T[(u, rev w)] is the fold of X_u & (X_w >> block)."""
        X = vars(self).pop("_X")
        block = 8 * self._n_bytes
        steps = self._steps
        turns = {}
        for w, y in X.items():
            y >>= block  # each position on the next
            rw = w ^ 1
            for u, x in X.items():
                t = x & y
                if t:
                    t = _fold(t, steps)
                    for act in self._actions:
                        row = turns.setdefault(act[u], {})
                        row[act[rw]] = row.get(act[rw], 0) + t
        return turns

    def pack(self, values):
        """values, one per item, packed into these lanes; None when one does
        not fit its lane, so that the result equals no packed vector."""
        try:
            return _pack(bytes(values) if self.code == "B" else array(self.code, values))
        except (ValueError, OverflowError):
            return None

    def subset_abs(self, E):
        """Packed |C| for every subset C of the edges E, as a list indexed by
        mask (bit i stands for E[i]), for E inside one E_v.

        A turn joins two edges that end at the same vertex, so the turn
        table is block-diagonal by vertex and |C| needs only the turns
        inside E.  With c the lowest edge of C,

            |C| = |C - c| + (edge[c] - 2 T[c][c])
                  - 2 sum over b in C - c of (T[c][b] + T[b][c]).

        Taking the same step for C - r, r the second-lowest edge, and
        subtracting leaves one term of the sum:

            |C| = |C - c| + |C - r| - |C - c - r| - 2 (T[c][r] + T[r][c]),

        so each entry is three big-int sums over entries before it, and
        a one-edge entry is edge[c] - 2 T[c][c].  (T[c][c] counts the
        backtracks c, rev c, so it is 0 on the reduced items of a
        calculator; with it the entries equal the occurrence sum minus
        twice the turn sum on any turn table.)
        Every entry is itself a packed |C'|, a count in every lane, so no
        entry's lane borrows (see _pack).
        """
        rows = [self.turns.get(c, {}) for c in E]
        pair = [[2 * (rows[i].get(b, 0) + rows[j].get(c, 0)) for j, b in enumerate(E)]
                for i, c in enumerate(E)]
        table = [0] * (1 << len(E))
        for i, c in enumerate(E):
            table[1 << i] = self.edge[c] - 2 * rows[i].get(c, 0)
        for C in range(3, len(table)):
            low = C & -C
            rest = C ^ low
            if rest:
                r = rest & -rest
                table[C] = (table[rest] + table[C ^ r] - table[rest ^ r]
                            - pair[low.bit_length() - 1][r.bit_length() - 1])
        return table

    def sign(self, x, y):
        """The sign of the first nonzero lane of x - y (0 when x == y), for
        packed x and y whose lanes never carried or borrowed."""
        if x == y:
            return 0
        diff = x ^ y
        lane = ((diff & -diff).bit_length() - 1) // self.width
        low = (1 << (lane + 1) * self.width) - 1  # lanes 0..lane
        return 1 if x & low > y & low else -1

    @functools.cached_property
    def le_code(self):
        """The narrowest array code holding 2 B + 1, B = k_max bound: that
        of sums of packed |C| ints whose coefficients add up to at most
        k_max = 2 |G|, with every lane's top bit free (see "Lane-wise
        order" in the module docstring).  Made on the first read."""
        return _lane_code(2 * self.k_max * self.bound + 1)

    @functools.cached_property
    def _guard(self):
        """GUARD, the int with each ``le_code`` lane's top bit set."""
        top = 1 << (8 * array(self.le_code).itemsize - 1)
        return _pack(array(self.le_code, [top]) * self._n_lanes)

    def le(self, x, y):
        """Whether every lane of x is <= that of y, for x and y packed in
        ``le_code`` lanes with every lane's top bit free (see "Lane-wise
        order" in the module docstring)."""
        guard = self._guard
        if (x | y) & guard:
            raise InternalInconsistency("a packed sum reached the top bit of its lane")
        return (y + guard - x) & guard == guard

    def widen(self, packed):
        """A packed int of these lanes, repacked in ``le_code`` lanes."""
        return _pack(array(self.le_code, self.unpack(packed)))

    def turns_between(self, A, B):
        """Packed sum of Tsym[a][b] over a in A and b in B."""
        total = 0
        for a in A:
            row = self.turns.get(a)
            if row:
                total += sum(row[b] for b in B & row.keys())
        return total

    def unpack(self, packed):
        return tuple(memoryview(packed.to_bytes(self._n_bytes, sys.byteorder))
                     .cast(self.code))


@functools.lru_cache(maxsize=128)
def calculator(m: MarkedGGraph, horizon: int) -> NormCalculator:
    return NormCalculator(m, horizon)


def norm(m, kind, horizon) -> NormVector:
    return calculator(m, horizon).norm(kind)
