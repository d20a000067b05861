"""File format round trips, command behavior, exit codes, determinism."""

import os
import pathlib
import subprocess
import sys

import pytest

import gwhitehead
from gwhitehead import cli
from gwhitehead.errors import GWError, InternalInconsistency, ParseError, ValidationError
from gwhitehead.fixtures import all_fixtures, fix_r2w, fix_theta, random_instance
from gwhitehead.idealedges import d_set, enumerate_ideal_edges
from gwhitehead.moves import reductivity
from gwhitehead.starcomplex import family, star_complex

from conftest import FIXTURE_NAMES, HORIZON
from oracles import triple_poset_dot, verdict
from test_forest_poset import corpus, rose4

THETA_TEXT = """\
[graph]
basepoint = *
vertex *
vertex v
edge e1 : * -> v
edge e2 : * -> v
edge e3 : * -> v
[group]
order = 2
gen t : e2->e3, e3->e2
[marking]
x1 = e1 ~e2
x2 = e1 ~e3
"""

# a trivial-group rose with three petals, marked x1 -> p2 p1 p3: S(R) at
# horizon 2 has 31 forests and a few hundred faces
HEAVY_ROSE_TEXT = """\
[graph]
basepoint = *
vertex *
edge p1 : * -> *
edge p2 : * -> *
edge p3 : * -> *
[group]
order = 1
[marking]
x1 = p2 p1 p3
x2 = p2
x3 = p3
"""


def _structurally_equal(m1, m2):
    g1, g2 = m1.graph, m2.graph
    return (g1.n_vertices == g2.n_vertices and g1.basepoint == g2.basepoint
            and g1.term == g2.term and g1.group.mult == g2.group.mult
            and g1.edge_action == g2.edge_action
            and m1.basis_paths == m2.basis_paths)


def test_parse_theta_text():
    m = cli.parse(THETA_TEXT)
    assert m.validate() == []
    assert _structurally_equal(m, fix_theta())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_serialize_parse_roundtrip(name):
    m = all_fixtures()[name]
    m2 = cli.parse(cli.serialize(m))
    assert _structurally_equal(m, m2)
    # and byte-identical at the text level
    assert cli.serialize(m2) == cli.serialize(m)


def test_canonical_text_deterministic(named_instance):
    assert (cli.canonical_text(named_instance)
            == cli.canonical_text(cli.parse(cli.canonical_text(named_instance))))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        cli.parse("[graph]\nbasepoint = *\nvertex *\nedge e1 * -> *\n")
    assert e.value.line == 4
    with pytest.raises(ParseError) as e:
        cli.parse("vertex w\n")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        cli.parse(THETA_TEXT + "x3 = nosuch\n")
    # a marking generator is x<i> for a decimal index i >= 1
    rose = cli.serialize(fix_r2w())
    for lhs, message in (
            ("x0", "marking generator must be x<i> with i >= 1, got 'x0'"),
            ("x\u00b2", "marking generator must be x<i>, got 'x\u00b2'")):
        with pytest.raises(ParseError) as e:
            cli.parse(rose + f"{lhs} = a\n")
        assert (e.value.line, e.value.message) == (rose.count("\n") + 1, message)
    # a second basepoint or order line is an error at that line, not a
    # silent replacement of the first
    for first, repeat, line, message in (
            ("basepoint = *\n", "basepoint = v\n", 3, "duplicate basepoint line"),
            ("order = 2\n", "order = 1\n", 10, "duplicate order line")):
        with pytest.raises(ParseError) as e:
            cli.parse(THETA_TEXT.replace(first, first + repeat))
        assert (e.value.line, e.value.message) == (line, message)
    # a keyword is the line's whole leading word, not a prefix of it
    for old, new, line in (
            ("vertex v\n", "vertex v\nvertexes w\n", 5),
            ("basepoint = *\n", "basepointer = *\n", 2),
            ("order = 2\n", "order = 2\norders = 1\n", 10)):
        with pytest.raises(ParseError) as e:
            cli.parse(THETA_TEXT.replace(old, new))
        section = "graph" if line < 8 else "group"
        assert (e.value.line, e.value.message) == (
            line, f"unrecognized line in [{section}]: {new.splitlines()[-1]!r}")
    # ... and it ends at `=`
    tight = THETA_TEXT.replace("basepoint = *", "basepoint=*").replace("order = 2", "order=2")
    assert _structurally_equal(cli.parse(tight), fix_theta())
    # a vertex, edge or generator name does not start with `=`
    for old, new, line, col, message in (
            ("vertex v", "vertex=w", 4, 7, "expected `vertex <id>`"),
            ("edge e3 :", "edge=e3 :", 7, 5, "expected `edge <id> : <from> -> <to>`"),
            ("gen t :", "gen=t :", 10, 1, "expected `gen <id> : <maps>`"),
            ("gen t :", "gen =t :", 10, 1, "expected `gen <id> : <maps>`"),
            # a marking token cannot name an edge that starts with `~`
            # (the reverse mark) or holds whitespace (the token separator)
            ("edge e3 :", "edge ~e3 :", 7, 6,
             "edge name must not start with `~` or hold whitespace, got '~e3'"),
            ("edge e3 :", "edge e3 c :", 7, 6,
             "edge name must not start with `~` or hold whitespace, got 'e3 c'")):
        with pytest.raises(ParseError) as e:
            cli.parse(THETA_TEXT.replace(old, new))
        assert (e.value.line, e.value.column, e.value.message) == (line, col, message)


def test_generator_names_are_distinct():
    # line 11 repeats the gen line 10
    gen = "gen t : e2->e3, e3->e2\n"
    with pytest.raises(ParseError) as e:
        cli.parse(THETA_TEXT.replace(gen, gen + gen.replace("e2->e3, ", "")))
    assert (e.value.line, e.value.message) == (11, "duplicate generator t")
    # the closure names the products of a 3-cycle t as t*t and t*t*t, so a
    # declared swap `t*t` makes two elements of S_3 share a name
    s3 = THETA_TEXT.replace("order = 2\n", "").replace(
        gen, "gen t : e1->e2, e2->e3, e3->e1\ngen t*t : e1->e2, e2->e1\n")
    with pytest.raises(ValidationError, match=r"^two group elements are named t\*t$"):
        cli.parse(s3)
    # the canonical files name their gen lines by the closure, and still
    # parse (the format holds only faithful actions)
    faithful = [m for m in map(random_instance, range(20000, 20040))
                if len(set(m.graph.edge_action)) == m.graph.group.order]
    texts = [cli.canonical_text(m) for m in faithful]
    texts += [cli.canonical_text(cli.parse(p.read_text()))
              for p in sorted(INSTANCES.glob("*.txt"))]
    assert any(text.count("\ngen ") > 1 for text in texts)
    for text in texts:
        assert cli.canonical_text(cli.parse(text)) == text


def test_an_unknown_edge_in_a_gen_line_reports_that_line():
    # line 10 is the gen line
    for bad in ("e2->e3, e3->e9", "~e9->e2"):
        with pytest.raises(ParseError) as e:
            cli.parse(THETA_TEXT.replace("e2->e3, e3->e2", bad))
        assert (e.value.line, e.value.message) == (10, "unknown edge 'e9'")


def test_move_with_an_unknown_edge_is_a_validation_error(tmp_path, capsys):
    path = _write(tmp_path, cli.serialize(fix_r2w()))
    assert cli.main(["move", path, "--vertex", "*",
                     "--alpha", "~a,zz", "--collapse", "~a"]) == 1
    assert capsys.readouterr().err == "validation error: unknown edge 'zz'\n"


def test_move_with_a_non_ideal_alpha_is_a_validation_error(tmp_path, capsys):
    path = _write(tmp_path, cli.serialize(fix_r2w()))
    # one edge, and all four edges at *: neither is an ideal edge
    for alpha in ("~a", "a,~a,b,~b"):
        assert cli.main(["move", path, "--vertex", "*",
                         "--alpha", alpha, "--collapse", "~a"]) == 1
        assert capsys.readouterr().err == "validation error: not an ideal edge\n"


def _file_error(capsys, argv):
    """Run the CLI; it must exit 1 with one `file error` line on stderr."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("file error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err
    return captured.err


def test_a_missing_file_is_a_file_error(tmp_path, capsys):
    missing = str(tmp_path / "nosuch.txt")
    assert missing in _file_error(capsys, ["validate", missing])
    # and the console entry point prints no traceback either
    src = str(pathlib.Path(gwhitehead.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-m", "gwhitehead.cli", "norm", missing],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.startswith("file error: ") and run.stderr.count("\n") == 1


def test_a_directory_is_a_file_error(tmp_path, capsys):
    _file_error(capsys, ["star", str(tmp_path)])


def test_a_non_utf8_file_is_a_file_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(THETA_TEXT.replace("e1", "\xe91").encode("latin-1"))
    assert "utf-8" in _file_error(capsys, ["validate", str(path)])


def test_an_unwritable_out_path_is_a_file_error(tmp_path, capsys):
    path = _write(tmp_path, cli.serialize(fix_r2w()))
    out = str(tmp_path / "nodir" / "out.txt")
    assert out in _file_error(capsys, ["reduce", path, "--out", out])


@pytest.mark.parametrize("argv", [["norm"], ["norm", "x", "--horizon", "z"]])
def test_a_malformed_command_line_exits_1(argv, capsys):
    # exit code 2 is left to an indeterminate verdict
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: gwhitehead norm") and "error: " in err


@pytest.mark.parametrize("argv", [
    ["norm", "FILE", "--horizon", "0"],
    ["ideal-edges", "FILE", "--horizon", "0"],
    ["reduce", "FILE", "--horizon", "0"],
    ["star", "FILE", "--horizon", "-1"],
    ["selftest", "--horizon", "0"],
    ["selftest", "--random-count", "-1"],
    ["reduce", "FILE", "--max-steps", "-1"],
])
def test_an_out_of_range_count_is_a_malformed_command_line(argv, tmp_path, capsys):
    # rejected as the command line is parsed, before any command prints
    path = _write(tmp_path, THETA_TEXT)
    with pytest.raises(SystemExit) as exc:
        cli.main([path if a == "FILE" else a for a in argv])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: gwhitehead {argv[0]}")
    assert f"error: argument {argv[-2]}: must be at least" in err
    # the least values are accepted
    args = cli.build_parser().parse_args(["selftest", "--horizon", "1",
                                          "--random-count", "0"])
    assert (args.horizon, args.random_count) == (1, 0)
    args = cli.build_parser().parse_args(["reduce", "FILE", "--max-steps", "0"])
    assert args.max_steps == 0


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["norm", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gwhitehead norm")


def test_unreduced_marking_warns_but_parses(tmp_path, capsys):
    text = THETA_TEXT.replace("x1 = e1 ~e2", "x1 = e1 ~e1 e1 ~e2")
    assert cli.parse(text).basis_paths[0] == (0, 3)
    assert cli.main(["validate", _write(tmp_path, text)]) == 0
    assert capsys.readouterr().err == (
        "warning: marking path for x1 was not reduced; reduced it\n")


def _write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_validate_command_ok(tmp_path, capsys):
    path = _write(tmp_path, THETA_TEXT)
    assert cli.main(["validate", path]) == 0
    assert "valid:" in capsys.readouterr().out


def test_validate_command_rejects_garbage(tmp_path):
    path = _write(tmp_path, "[graph]\nedge e1 : * ->\n")
    assert cli.main(["validate", path]) == 1


def test_wrong_declared_order_is_a_validation_error(tmp_path):
    path = _write(tmp_path, THETA_TEXT.replace("order = 2", "order = 3"))
    assert cli.main(["validate", path]) == 1


def test_norm_command_deterministic(tmp_path, capsys):
    path = _write(tmp_path, THETA_TEXT)
    assert cli.main(["norm", path, "--horizon", "2", "--kind", "tot"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["norm", path, "--horizon", "2", "--kind", "tot"]) == 0
    assert capsys.readouterr().out == first
    assert "out norm" in first and "aut norm" in first and "legend" in first


def test_ideal_edges_command(tmp_path, capsys):
    path = _write(tmp_path, THETA_TEXT)
    assert cli.main(["ideal-edges", path]) == 0
    out = capsys.readouterr().out
    assert "{~e2,~e3}" in out and "stab=2" in out


def _ideal_edge_verdicts(monkeypatch, capsys, m, horizon):
    """{line of ideal-edges: (printed verdict word, reference verdict)}.

    The reference is the verdict of the lexicographic maximum of the
    reductivities over D(alpha), or no-collapse-edge when D is empty.  The
    command reads m itself: a random instance whose group acts with a
    kernel has no text form."""
    monkeypatch.setattr(cli, "_load", lambda path: m)
    assert cli.main(["ideal-edges", "-", "--horizon", str(horizon)]) == 0
    lines = capsys.readouterr().out.splitlines()
    alphas = enumerate_ideal_edges(m)
    assert len(lines) == len(alphas)
    out = {}
    for line, alpha in zip(lines, alphas):
        values = [reductivity(m, alpha, a, "tot", horizon) for a in d_set(m, alpha)]
        want = (verdict(max(values, key=lambda r: r.coords)) if values
                else "no-collapse-edge")
        out[line] = (line.rsplit(" ", 1)[1], want)
    return out


def test_ideal_edges_verdicts_are_those_of_the_greatest_reductivity(monkeypatch, capsys):
    cases = ([(m, HORIZON) for m in all_fixtures().values()]
             + [(random_instance(s), HORIZON) for s in range(7000, 7020)]
             + [(rose4(0), 2), (rose4(5), 3)])
    seen = set()
    for m, horizon in cases:
        for line, (printed, want) in _ideal_edge_verdicts(
                monkeypatch, capsys, m, horizon).items():
            assert printed == want, (m, horizon, line)
            seen.add(printed)
    assert seen == {"reductive", "not-reductive", "null-at-horizon",
                    "no-collapse-edge"}
    # two edge sets of rose4(0) equal their one collapse target at horizon 2
    null = {line.split(" ")[2] for line, (printed, _) in _ideal_edge_verdicts(
        monkeypatch, capsys, rose4(0), 2).items() if printed == "null-at-horizon"}
    assert null == {"{p1,p4,~p4}", "{p2,p3,~p3}"}


def test_move_command_and_bad_collapse_exit_code(tmp_path, capsys):
    path = _write(tmp_path, cli.serialize(fix_r2w()))
    assert cli.main(["move", path, "--vertex", "*",
                     "--alpha", "~a,b", "--collapse", "~a"]) == 0
    out = capsys.readouterr().out
    assert "[marking]" in out
    # collapse target outside D(alpha): hypothesis failure, exit 3
    assert cli.main(["move", path, "--vertex", "*",
                     "--alpha", "~a,b", "--collapse", "a"]) == 3


def test_reduce_command_writes_log(tmp_path, capsys):
    path = _write(tmp_path, cli.serialize(fix_r2w()))
    log = str(tmp_path / "log.txt")
    out = str(tmp_path / "out.txt")
    assert cli.main(["reduce", path, "--log", log, "--out", out]) == 0
    capsys.readouterr()
    assert "whitehead" in open(log).read()
    m2 = cli.parse(open(out).read())
    assert m2.validate() == []
    # both loops are single distinct petals: the minimal marked rose
    assert sorted(len(p) for p in m2.basis_paths) == [1, 1]
    assert len({p[0] // 2 for p in m2.basis_paths}) == 2


def test_internal_inconsistency_exit_code(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalInconsistency("two computations disagree")

    monkeypatch.setattr(cli, "greedy_reduce", broken)
    path = _write(tmp_path, cli.serialize(fix_r2w()))
    assert cli.main(["reduce", path]) == 5
    assert "internal inconsistency: two computations disagree" in (
        capsys.readouterr().err)


def test_star_command_with_retraction(tmp_path, capsys):
    path = _write(tmp_path, cli.serialize(fix_r2w()))
    dot = str(tmp_path / "poset.dot")
    assert cli.main(["star", path, "--family", "R", "--homology",
                     "--retract", "--dot", dot]) == 0
    out = capsys.readouterr().out
    assert "reduced Betti numbers: [0, 0]" in out
    assert "retraction: done" in out
    assert "digraph P" in open(dot).read()


def test_poset_dot_matches_the_triple_loop():
    # covers read off the order complex against the all-triples reference,
    # on every family at H = 2 and 3 of the fixtures, the saved instances
    # and random_instance(20000..20029), made forest-free
    cases = 0
    for _, m in corpus()[:-370]:
        for h in (2, 3):
            for which in ("R", "C0", "C0p", "C1"):
                try:
                    K = star_complex(m, family(m, which, h))
                except GWError:
                    continue
                assert cli.poset_dot(K) == triple_poset_dot(list(K.vertices))
                cases += 1
    assert cases > 100


def test_star_command_on_a_heavy_rose(tmp_path, capsys):
    path = _write(tmp_path, HEAVY_ROSE_TEXT)
    assert cli.main(["star", path, "--family", "R", "--homology",
                     "--retract", "--horizon", "2"]) == 0
    out = capsys.readouterr().out
    m = cli.parse(HEAVY_ROSE_TEXT)
    K = star_complex(m, family(m, "R", 2))
    assert len(K.vertices) == 31
    brute = sum(1 for f in K.faces
                if not any(f != h and not f & ~h for h in K.faces))
    assert f"maximal faces: {brute}, dimension {K.dim}" in out
    betti = out.split("reduced Betti numbers: [")[1].split("]")[0].split(", ")
    assert len(betti) == K.dim + 1 and set(betti) == {"0"}
    assert "retraction: done" in out


# stdout of `star FILE --family R --homology --retract --horizon 2` on the
# fixtures, the saved instances and the heavy rose, frozen: it pins the
# maximal-face count, the dimension, the Betti line and the retraction
# steps
INSTANCES = pathlib.Path(__file__).parent / "instances"
STAR_CASES = {name: cli.serialize(m) for name, m in all_fixtures().items()}
STAR_CASES.update((p.stem, p.read_text()) for p in INSTANCES.glob("*.txt"))
STAR_CASES["HEAVY-ROSE"] = HEAVY_ROSE_TEXT


def test_every_star_case_has_a_frozen_output():
    assert {p.stem for p in (INSTANCES / "star-out").glob("*.out")} == set(STAR_CASES)


@pytest.mark.parametrize("name", sorted(STAR_CASES))
def test_star_stdout_frozen(name, tmp_path, capsys):
    path = _write(tmp_path, STAR_CASES[name])
    code = cli.main(["star", path, "--family", "R", "--homology", "--retract",
                     "--horizon", "2"])
    # FIX-THETA is not reduced, so its retraction stops with exit code 3
    assert code == (3 if name == "FIX-THETA" else 0)
    want = (INSTANCES / "star-out" / f"{name}.out").read_text()
    assert capsys.readouterr().out == want


def test_star_command_without_reductive_edges(tmp_path):
    path = _write(tmp_path, cli.serialize(all_fixtures()["FIX-R2"]))
    # no maximally reductive pair: family construction cannot proceed
    assert cli.main(["star", path, "--family", "C0"]) == 3


def test_selftest_command_smoke(tmp_path, capsys):
    assert cli.main(["selftest", "--suite", "norms", "--seed", "3",
                     "--random-count", "1", "--horizon", "3"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "FAIL" not in out


# frozen selftest runs: every suite, and the lemma suite on more instances
SELFTEST_RUNS = {
    "all-seed1": ["--seed", "1", "--horizon", "3", "--random-count", "2"],
    "lemmas-seed3": ["--suite", "lemmas", "--seed", "3", "--horizon", "2",
                     "--random-count", "6"],
}


@pytest.mark.parametrize("name", sorted(SELFTEST_RUNS))
def test_selftest_stdout_frozen(name, capsys):
    assert cli.main(["selftest", *SELFTEST_RUNS[name]]) == 0
    want = (INSTANCES / "selftest-out" / f"{name}.out").read_text()
    assert capsys.readouterr().out == want


def test_graph_dot_output():
    text = cli.graph_dot(fix_theta())
    assert text.startswith("digraph G") and "e2" in text
