"""Instance file format and command line interface.

Format (comments start with #):

    [graph]
    basepoint = *
    vertex *
    vertex v
    edge e1 : * -> v
    [group]
    order = 2
    gen t : e2->e3, e3->e2
    [marking]
    x1 = e1 ~e2

A `gen` line permutes the edge pairs (unlisted pairs are fixed, `~e`
reverses orientation); the group is the closure of the generators and the
vertex permutation is inferred from the edge action.  Exit codes:
0 ok, 1 validation/parse, a malformed command line or an
unreadable/unwritable file, 2 indeterminate at horizon, 3 hypothesis not
met, 4 property violation, 5 internal inconsistency.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (HypothesisNotMet, IndeterminateAtHorizon,
                     InternalInconsistency, ParseError, PropertyViolation,
                     ValidationError)
from .ggraph import GGraph, Group, rev
from .idealedges import (IdealEdge, d_set, enumerate_ideal_edges,
                         is_invertible, translates)
from .marking import MarkedGGraph, reduce_path, spanning_tree
from .moves import VERDICTS, greedy_reduce, whitehead
from .norms import calculator
from .selftest import run_suites
from .starcomplex import (family, reduced_homology, run_retractions,
                          star_complex)


# ---------------------------------------------------------------------------
# parsing


def _perm_compose(p, q):
    return tuple(p[x] for x in q)


def _directed(pair_id, token, error):
    """Directed edge id of the token `e` or `~e`; raises error(message)
    for an unknown edge name."""
    name, odd = (token[1:], 1) if token.startswith("~") else (token, 0)
    if name not in pair_id:
        raise error(f"unknown edge {name!r}")
    return 2 * pair_id[name] + odd


def parse(text: str) -> MarkedGGraph:
    """Parse an instance file; raises ParseError with a position."""
    return _parse(text)[0]


def _parse(text):
    """(marked graph, warnings) for an instance file."""
    section = None
    basepoint = None
    vertices = []
    edges = []  # (name, from, to)
    order = None
    gens = []   # (line, name, {pair token: target token})
    marking = {}
    warnings = []

    def err(lineno, col, msg):
        raise ParseError(lineno, col, msg)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[graph]", "[group]", "[marking]"):
                err(lineno, 1, f"unknown section {line}")
            section = line[1:-1]
            continue
        if section is None:
            err(lineno, 1, "content before any section header")
        word = line.split(None, 1)[0].split("=", 1)[0]  # ends at a space or `=`
        if section == "graph":
            if word == "basepoint":
                if basepoint is not None:
                    err(lineno, 1, "duplicate basepoint line")
                parts = line.split("=", 1)
                if len(parts) != 2 or not parts[1].strip():
                    err(lineno, len("basepoint") + 1, "expected `basepoint = <id>`")
                basepoint = parts[1].strip()
            elif word == "vertex":
                name = line[len("vertex"):].strip()
                if not name:
                    err(lineno, len("vertex") + 1, "expected `vertex <id>`")
                if name in vertices:
                    err(lineno, 1, f"duplicate vertex {name}")
                vertices.append(name)
            elif word == "edge":
                rest = line[len("edge"):].strip()
                if ":" not in rest:
                    err(lineno, line.index("edge") + 5, "expected `edge <id> : <from> -> <to>`")
                name, ends = (s.strip() for s in rest.split(":", 1))
                if "->" not in ends:
                    err(lineno, line.index(":") + 2, "expected `<from> -> <to>`")
                u, v = (s.strip() for s in ends.split("->", 1))
                if not name or not u or not v:
                    err(lineno, 1, "incomplete edge declaration")
                if any(e[0] == name for e in edges):
                    err(lineno, 1, f"duplicate edge {name}")
                edges.append((name, u, v))
            else:
                err(lineno, 1, f"unrecognized line in [graph]: {line!r}")
        elif section == "group":
            if word == "order":
                if order is not None:
                    err(lineno, 1, "duplicate order line")
                parts = line.split("=", 1)
                try:
                    order = int(parts[1])
                except (IndexError, ValueError):
                    err(lineno, len("order") + 1, "expected `order = <k>`")
            elif word == "gen":
                rest = line[len("gen"):].strip()
                if ":" not in rest:
                    err(lineno, 1, "expected `gen <id> : <maps>`")
                name, maps = (s.strip() for s in rest.split(":", 1))
                if any(gname == name for _, gname, _ in gens):
                    err(lineno, 1, f"duplicate generator {name}")
                mapping = {}
                for item in filter(None, (s.strip() for s in maps.split(","))):
                    if "->" not in item:
                        err(lineno, line.index(item) + 1,
                            f"expected `src->dst` in {item!r}")
                    src, dst = (s.strip() for s in item.split("->", 1))
                    if src in mapping:
                        err(lineno, 1, f"duplicate map source {src}")
                    mapping[src] = dst
                gens.append((lineno, name, mapping))
            else:
                err(lineno, 1, f"unrecognized line in [group]: {line!r}")
        elif section == "marking":
            if "=" not in line:
                err(lineno, 1, "expected `x<i> = <edge tokens>`")
            lhs, rhs = (s.strip() for s in line.split("=", 1))
            # isdecimal, not isdigit: int() rejects digits such as '²'
            if not (lhs.startswith("x") and lhs[1:].isdecimal()):
                err(lineno, 1, f"marking generator must be x<i>, got {lhs!r}")
            i = int(lhs[1:])
            if i < 1:
                err(lineno, 1, f"marking generator must be x<i> with i >= 1, got {lhs!r}")
            if i in marking:
                err(lineno, 1, f"duplicate marking line for {lhs}")
            marking[i] = (lineno, rhs.split())

    if basepoint is None:
        err(0, 0, "section [graph] is missing a basepoint line")
    if not edges:
        err(0, 0, "section [graph] declares no edges")
    for name, u, v in edges:
        for w in (u, v):
            if w not in vertices:
                vertices.append(w)
    if basepoint not in vertices:
        vertices.append(basepoint)

    vid = {v: i for i, v in enumerate(vertices)}
    pair_id = {name: i for i, (name, _, _) in enumerate(edges)}
    n_pairs = len(edges)
    term = []
    for name, u, v in edges:
        term.extend([vid[v], vid[u]])

    def directed(token, lineno):
        return _directed(pair_id, token, lambda msg: ParseError(lineno, 1, msg))

    # generator permutations on directed edges
    gen_perms = []
    for lineno, gname, mapping in gens:
        perm = list(range(2 * n_pairs))
        for src, dst in mapping.items():
            s = directed(src, lineno)
            d = directed(dst, lineno)
            perm[s] = d
            perm[rev(s)] = rev(d)
        gen_perms.append((gname, tuple(perm)))

    # close under composition
    ident = tuple(range(2 * n_pairs))
    elements = [ident]
    names = ["1"]
    frontier = [("1", ident)]
    while frontier:
        nm, p = frontier.pop(0)
        for gname, gp in gen_perms:
            q = _perm_compose(gp, p)
            if q not in elements:
                qname = gname if nm == "1" else gname + "*" + nm
                if qname in names:
                    raise ValidationError(f"two group elements are named {qname}")
                elements.append(q)
                names.append(qname)
                frontier.append((qname, q))
                if len(elements) > 64:
                    raise ValidationError("group closure exceeds 64 elements")
    if order is not None and order != len(elements):
        raise ValidationError(
            f"declared order {order} but generators produce a group of "
            f"order {len(elements)}")
    index = {p: i for i, p in enumerate(elements)}
    mult = tuple(
        tuple(index[_perm_compose(elements[a], elements[b])]
              for b in range(len(elements)))
        for a in range(len(elements)))
    group = Group(mult, tuple(names))

    paths = []
    for i in range(1, len(marking) + 1):
        if i not in marking:
            raise ValidationError(f"marking generators must be x1..xn; x{i} missing")
        lineno, tokens = marking[i]
        steps = tuple(directed(t, lineno) for t in tokens)
        reduced = reduce_path(steps)
        if reduced != steps:
            warnings.append(f"marking path for x{i} was not reduced; reduced it")
        paths.append(reduced)

    g = GGraph(len(vertices), vid[basepoint], tuple(term), group,
               tuple(elements), tuple(vertices),
               tuple(name for name, _, _ in edges))
    return MarkedGGraph(g, tuple(paths)), warnings


# ---------------------------------------------------------------------------
# serialization


def serialize(m: MarkedGGraph) -> str:
    g = m.graph
    lines = ["[graph]", f"basepoint = {g.vertex_names[g.basepoint]}"]
    for v in g.vertex_names:
        lines.append(f"vertex {v}")
    for p in range(g.n_pairs):
        lines.append(f"edge {g.pair_names[p]} : "
                     f"{g.vertex_names[g.init(2 * p)]} -> "
                     f"{g.vertex_names[g.term[2 * p]]}")
    lines.append("[group]")
    lines.append(f"order = {g.group.order}")
    for x in range(1, g.group.order):
        maps = []
        for p in range(g.n_pairs):
            img = g.edge_action[x][2 * p]
            if img != 2 * p:
                maps.append(f"{g.pair_names[p]}->{g.edge_name(img)}")
        lines.append(f"gen {g.group.names[x]} : {', '.join(maps)}")
    lines.append("[marking]")
    for i, p in enumerate(m.basis_paths, 1):
        lines.append(f"x{i} = {' '.join(g.edge_name(e) for e in p)}")
    return "\n".join(lines) + "\n"


def canonicalize(m: MarkedGGraph) -> MarkedGGraph:
    """Renumber vertices in breadth-first order from the basepoint."""
    g = m.graph
    vmap = {old: new for new, old in enumerate(spanning_tree(g))}
    term = tuple(vmap[t] for t in g.term)
    vnames = [None] * g.n_vertices
    for old, new in vmap.items():
        vnames[new] = "*" if old == g.basepoint else f"v{new}"
    g2 = GGraph(g.n_vertices, 0, term, g.group, g.edge_action,
                tuple(vnames), g.pair_names)
    return MarkedGGraph(g2, m.basis_paths)


def canonical_text(m: MarkedGGraph) -> str:
    return serialize(canonicalize(m))


def graph_dot(m: MarkedGGraph) -> str:
    g = m.graph
    lines = ["digraph G {", '  node [shape=circle];']
    for v in range(g.n_vertices):
        shape = ' shape=doublecircle' if v == g.basepoint else ''
        lines.append(f'  v{v} [label="{g.vertex_names[v]}"{shape}];')
    for p in range(g.n_pairs):
        lines.append(f'  v{g.init(2 * p)} -> v{g.term[2 * p]} '
                     f'[label="{g.pair_names[p]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_dot(K) -> str:
    """Hasse diagram of a forest poset from its order complex K: the 2-faces
    that are not the outer pair (lowest and highest bit) of any 3-face.  The
    forests are sorted by (size, key), so a chain's middle has the middle bit."""
    lines = ["digraph P {", "  rankdir=BT;"]
    for i, f in enumerate(K.vertices):
        label = "{" + "; ".join(str(k) for k in f.key()) + "}"
        lines.append(f'  n{i} [shape=box label="{label}"];')
    spanned = {(x & -x) | (1 << x.bit_length() >> 1)
               for x in K.faces if x.bit_count() == 3}
    covers = sorted(((x & -x).bit_length() - 1, x.bit_length() - 1)
                    for x in K.faces if x.bit_count() == 2 and x not in spanned)
    lines += [f"  n{low} -> n{high};" for low, high in covers]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _load(path):
    with open(path, encoding="utf-8") as fh:
        m, warnings = _parse(fh.read())
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return m


def _word_str(word):
    return "".join(("" if l > 0 else "~") + f"x{abs(l)}" for l in word) or "1"


def cmd_validate(args):
    m = _load(args.file)
    bad = m.validate()
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph_dot(m))
    if bad:
        for b in bad:
            print(f"invalid: {b}")
        return 1
    print(f"valid: {m.graph.n_vertices} vertices, {m.graph.n_pairs} edge "
          f"pairs, rank {m.n}, |G| = {m.graph.group.order}")
    return 0


def cmd_norm(args):
    m = _load(args.file)
    m.require_valid()
    calc = calculator(m, args.horizon)
    kinds = ["out", "aut"] if args.kind == "tot" else [args.kind]
    for kind in kinds:
        v = calc.norm(kind)
        labels = ([f"[{_word_str(c)}]" for c in calc.classes]
                  if kind == "out" else [_word_str(w) for w in calc.words])
        print(f"{kind} norm (horizon {args.horizon}):")
        print(f"  {list(v.coords)}")
        print(f"  legend: {' '.join(labels)}")
    return 0


def cmd_ideal_edges(args):
    m = _load(args.file)
    m.require_valid()
    g = m.graph
    for alpha in enumerate_ideal_edges(m):
        names = ",".join(sorted(g.edge_name(e) for e in alpha.edges))
        stab = g.group.order // len(translates(g, alpha))
        targets = d_set(m, alpha)
        D = ",".join(sorted(g.edge_name(e) for e in targets))
        inv = "yes" if is_invertible(g, alpha)[0] else "no"
        # [G:stab alpha] > 0 keeps each sign, so the greatest sign is the
        # sign of the lexicographically greatest reductivity
        verdict = "no-collapse-edge"
        if targets:
            sign = calculator(m, args.horizon).abs_sign(alpha.edges, "tot")
            verdict = VERDICTS[max(map(sign, targets))]
        print(f"{g.vertex_names[alpha.vertex]} : {{{names}}} stab={stab} "
              f"D={{{D}}} inv={inv} {verdict}")
    return 0


def cmd_move(args):
    m = _load(args.file)
    m.require_valid()
    g = m.graph
    pname = {n: i for i, n in enumerate(g.pair_names)}
    vname = {n: i for i, n in enumerate(g.vertex_names)}
    if args.vertex not in vname:
        raise ValidationError(f"unknown vertex {args.vertex!r}")
    alpha = IdealEdge(vname[args.vertex], frozenset(
        _directed(pname, t, ValidationError) for t in args.alpha.split(",")))
    m2 = whitehead(m, alpha, _directed(pname, args.collapse, ValidationError))
    text = canonical_text(m2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_reduce(args):
    m = _load(args.file)
    m.require_valid()
    m2, log = greedy_reduce(m, args.horizon, args.max_steps)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            for rec in log:
                fh.write(f"{rec.step} {rec.kind} {rec.description} "
                         f"out={list(rec.norm_out)} aut={list(rec.norm_aut)}\n")
    text = canonical_text(m2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} after {len(log)} moves")
    else:
        print(f"# reduced in {len(log)} moves")
        sys.stdout.write(text)
    return 0


def _edge_label(g, alpha):
    names = ",".join(sorted(g.edge_name(e) for e in alpha.edges))
    return f"{g.vertex_names[alpha.vertex]}:{{{names}}}"


def cmd_star(args):
    m = _load(args.file)
    m.require_valid()
    g = m.graph
    C = family(m, args.family, args.horizon)
    print(f"family {args.family}: "
          f"{[_edge_label(g, a) for a in sorted(C, key=lambda a: a.key())]}")
    K = star_complex(m, C)
    forests = K.vertices
    print(f"forests ({len(forests)}):")
    for f in forests:
        print("  [" + "; ".join(_edge_label(g, a) for a in f.orbits) + "]")
    # a face is not maximal iff it is a facet x ^ low of some face x
    facets = set()
    for x in K.faces:
        y = x
        while y:
            low = y & -y
            facets.add(x ^ low)
            y ^= low
    facets.discard(0)
    print(f"maximal faces: {len(K.faces) - len(facets)}, dimension {K.dim}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(poset_dot(K))
    if args.homology:
        print(f"reduced Betti numbers: {list(reduced_homology(K))}")
    if args.retract:
        trace = run_retractions(m, args.horizon, homology=args.homology)
        print(f"retraction: {trace.status} ({trace.detail})")
        for s in trace.steps:
            extra = f" betti={list(s.betti)}" if s.betti is not None else ""
            print(f"  [{s.stage}] remove {s.alpha} add {s.alpha0} "
                  f"{s.n_before}->{s.n_after} forests{extra}")
        for f in trace.final_forests:
            print(f"  final forest: {f.key()}")
    return 0


def cmd_selftest(args):
    results = run_suites(args.suite, args.seed, args.horizon,
                         args.random_count)
    failed = 0
    for r in sorted(results, key=lambda r: (r.suite, r.name)):
        status = "PASS" if r.ok else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        print(f"{status} {r.suite}/{r.name}{detail}")
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    if failed:
        raise PropertyViolation(f"{failed} selftest checks failed")
    return 0


def _int_at_least(low):
    """An argparse type: an int no less than low, else a usage error."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as an "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, the code of malformed
    input, so that exit code 2 means only an indeterminate verdict.  Its
    subcommand parsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="gwhitehead",
        description="Equivariant Whitehead moves and star complexes for "
                    "pointed marked G-graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("file")
    p.add_argument("--dot", help="write a DOT rendering of the graph")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("norm", help="print a norm vector")
    p.add_argument("file")
    p.add_argument("--horizon", type=_int_at_least(1), default=4)
    p.add_argument("--kind", choices=["out", "aut", "tot"], default="out")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("ideal-edges", help="list ideal edge orbits")
    p.add_argument("file")
    p.add_argument("--horizon", type=_int_at_least(1), default=4)
    p.set_defaults(fn=cmd_ideal_edges)

    p = sub.add_parser("move", help="apply a Whitehead move")
    p.add_argument("file")
    p.add_argument("--vertex", required=True)
    p.add_argument("--alpha", required=True,
                   help="comma-separated directed edges, ~e reverses")
    p.add_argument("--collapse", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_move)

    p = sub.add_parser("reduce", help="greedy norm reduction")
    p.add_argument("file")
    p.add_argument("--horizon", type=_int_at_least(1), default=4)
    p.add_argument("--max-steps", type=_int_at_least(0), default=500)
    p.add_argument("--log")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("star", help="star complex, homology, retractions")
    p.add_argument("file")
    p.add_argument("--family", choices=["R", "C0", "C0p", "C1"], default="R")
    p.add_argument("--horizon", type=_int_at_least(1), default=4)
    p.add_argument("--homology", action="store_true")
    p.add_argument("--retract", action="store_true")
    p.add_argument("--dot", help="write a DOT Hasse diagram of the poset")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("selftest", help="run the property suites")
    p.add_argument("--suite", choices=["norms", "lemmas", "star", "all"],
                   default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--horizon", type=_int_at_least(1), default=4)
    p.add_argument("--random-count", type=_int_at_least(0), default=10)
    p.set_defaults(fn=cmd_selftest)
    return ap


# (error class, stderr label, exit code); the first class that matches wins
EXIT_CODES = (
    (ParseError, "parse error", 1),
    (ValidationError, "validation error", 1),
    (IndeterminateAtHorizon, "indeterminate at horizon", 2),
    (HypothesisNotMet, "hypothesis not met", 3),
    (PropertyViolation, "property violation", 4),
    (InternalInconsistency, "internal inconsistency", 5),
    (OSError, "file error", 1),
    (UnicodeDecodeError, "file error", 1),
)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(cls for cls, _, _ in EXIT_CODES) as exc:
        label, code = next((label, code) for cls, label, code in EXIT_CODES
                           if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
