"""The exact outputs, locked by digest.

Two sets are frozen here, each taken from the commit before the first
change they guard:

- Retraction traces.  One sha256 over ``run_retractions(m, 3)`` on
  ``reduce_to_forest_free(random_instance(s))`` for s = 20000..20399 and
  then on ``rose4(0..9)``, one line per instance in that order.  A line
  is the repr of (status, detail, the sorted keys of R, (mu key, m-hat)
  or None, the steps as (stage, alpha, alpha0, n_before, n_after,
  betti), the final forest keys), or ``ExcType: message`` where the run
  raises a GWError.  Sets enter only as sorted keys.
- CLI manifest.  One sha256 per (file, command) over the exit code,
  stdout, stderr and, for ``reduce``, the ``--log`` file.  The files are
  the fixtures' canonical_text and ``tests/instances/*.txt``, run from a
  scratch directory under their own names.
- Poset diagrams.  One sha256 per manifest file over the ``--dot`` file
  of ``star FILE --family R --horizon 3 --dot``.

A deliberate change to any covered output must update its digest here
and say so in CHANGES.md.  The mutation tests show that one changed step
count, trace field or printed byte fails the comparison.
"""

import dataclasses
import functools
import hashlib
import pathlib

import pytest

from gwhitehead import cli
from gwhitehead.errors import GWError
from gwhitehead.fixtures import all_fixtures, random_instance
from gwhitehead.selftest import reduce_to_forest_free
from gwhitehead.starcomplex import run_retractions

from test_forest_poset import rose4

INSTANCES = pathlib.Path(__file__).parent / "instances"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# retraction traces

TRACE_DIGEST = "4827aa97d13d1a4bcd2fe577f7c01dc2eacb65a212898019281ba69551349e75"


@functools.lru_cache(maxsize=None)
def _traces():
    """The trace, or the GWError it raised, of each instance in order."""
    ms = [reduce_to_forest_free(random_instance(s)) for s in range(20000, 20400)]
    ms += [rose4(seed) for seed in range(10)]
    out = []
    for m in ms:
        try:
            out.append(run_retractions(m, 3))
        except GWError as exc:
            out.append(exc)
    return tuple(out)


def _trace_line(t):
    if isinstance(t, GWError):
        return f"{type(t).__name__}: {t}"
    pair = None if t.pair is None else (t.pair.edge.key(), t.pair.collapse_target)
    steps = tuple((s.stage, s.alpha, s.alpha0, s.n_before, s.n_after, s.betti)
                  for s in t.steps)
    return repr((t.status, t.detail, tuple(sorted(a.key() for a in t.R)), pair,
                 steps, tuple(f.key() for f in t.final_forests)))


def _trace_digest(traces):
    return _sha("".join(_trace_line(t) + "\n" for t in traces))


def test_retraction_traces_frozen():
    assert _trace_digest(_traces()) == TRACE_DIGEST


def _mutations():
    """{field: (index, trace)}: the first retracted trace with one value of
    that field changed, and the first raised error with one more byte."""
    traces = _traces()
    i = next(i for i, t in enumerate(traces)
             if not isinstance(t, GWError) and t.final_forests)
    j = next(j for j, t in enumerate(traces) if isinstance(t, GWError))
    t = traces[i]
    s, rest = t.steps[0], t.steps[1:]

    def step(**kw):
        return (i, dataclasses.replace(t, steps=[dataclasses.replace(s, **kw)] + rest))

    def trace(**kw):
        return (i, dataclasses.replace(t, **kw))

    return {
        "n_after": step(n_after=s.n_after + 1),
        "n_before": step(n_before=s.n_before - 1),
        "stage": step(stage=s.stage + " "),
        "alpha0": step(alpha0=s.alpha0[1:]),
        "betti": step(betti=(0,)),
        "steps": trace(steps=rest),
        "status": trace(status="degenerate"),
        "detail": trace(detail=t.detail + "."),
        "R": trace(R=t.R - {min(t.R, key=lambda a: a.key())}),
        "pair": trace(pair=dataclasses.replace(
            t.pair, collapse_target=t.pair.collapse_target + 1)),
        "final": trace(final_forests=()),
        "error": (j, type(traces[j])(f"{traces[j]}.")),
    }


@pytest.mark.parametrize("field", ["n_after", "n_before", "stage", "alpha0",
                                   "betti", "steps", "status", "detail", "R",
                                   "pair", "final", "error"])
def test_a_changed_trace_value_fails_the_digest(field):
    i, mutated = _mutations()[field]
    traces = list(_traces())
    assert _trace_line(mutated) != _trace_line(traces[i])
    traces[i] = mutated
    assert _trace_digest(traces) != TRACE_DIGEST


# ---------------------------------------------------------------------------
# CLI manifest

COMMANDS = {f"norm-{kind}-{h}": ["norm", "--kind", kind, "--horizon", str(h)]
            for kind in ("out", "aut", "tot") for h in (2, 3, 4)}
COMMANDS.update({
    "ideal-edges": ["ideal-edges"],
    "reduce-log": ["reduce", "--log", "reduce.log"],
    "star-retract": ["star", "--horizon", "3", "--homology", "--retract"],
    "star-C0": ["star", "--family", "C0", "--horizon", "2"],
    "star-C1": ["star", "--family", "C1", "--horizon", "2"],
})


def _files():
    """{file name: instance text}: the fixtures and the saved instances."""
    out = {f"{name}.txt": cli.canonical_text(m) for name, m in all_fixtures().items()}
    out.update({p.name: p.read_text() for p in INSTANCES.glob("*.txt")})
    return out


FILES = sorted(_files())

CLI_DIGESTS = {
    "FIX-R2-SWAP.txt": {
        "norm-out-2": "b55211dcd0a6c5418d68fd269f3134b35b2296dedbd3228200314ec5acf2129d",
        "norm-out-3": "e08960a22a6e540a46bd8fb4ca8a752d21fc524ec41754e6226134feba29cffe",
        "norm-out-4": "59e7f044fd5d6b037ea101d3a3c95399fb5c785215b70b6ccc381c0638bed91e",
        "norm-aut-2": "6c74534b0d17037be26b4de52709f3c1e0a14375363059b1af4cdd560867c169",
        "norm-aut-3": "2ec79f7e76edd6d584a0c23c5ea639b8925b6783c8e7181a0cf302ab6b1b260e",
        "norm-aut-4": "53fa612e1be1bbc5292756dbea85de02ce6d0aa7e83815f149209228d442b813",
        "norm-tot-2": "c8b2a2b7220f545fe085800473e9026cce7d5a77ae408dc99f39ed9bbd0f1e25",
        "norm-tot-3": "0734e5a0fea045b5d5421da3de23065952f14f2c1d7162d05609d1730032818f",
        "norm-tot-4": "9b0711a6fa2240f4e9d4260a4145fe1214e24b865a32c56dc946068b8abc78bc",
        "ideal-edges": "baaacb4c77b3ed22c37daf35752dee27744d47ec63e1599de19ffca5b04d0cb8",
        "reduce-log": "2350e282aa984a8b3f80b708a3b4bee3cfac6b12ee540fc87b80aa09107b0734",
        "star-retract": "972440876fe3f09f3e954b569b36a984a8161cf82d2239d38d81f407110fe2b4",
        "star-C0": "825cdfd1c9326db6094eb5e97d51a795cee4a404e8145542babe5bb2585da3a6",
        "star-C1": "825cdfd1c9326db6094eb5e97d51a795cee4a404e8145542babe5bb2585da3a6",
    },
    "FIX-R2.txt": {
        "norm-out-2": "808674b9155d3b32f879df19a2372fafff060c3a255f2cf04d23bd4ab175e461",
        "norm-out-3": "bddf99889fbf85e05a87f2100d8e1f9ff95086a35bdf101cd6679fd848d878f7",
        "norm-out-4": "a9d09ecebd7445d1a3ed5eed43ab08c05acdaa8d6fa87891a576af9066da0e8a",
        "norm-aut-2": "bcf3ddc1a12c2cd926087e9ca0192857872886716e3e9c98f58d63b825877fab",
        "norm-aut-3": "d8273b8faf720d78c3a7a4435149614b3faaad5072f7e99a406929ef34459fc9",
        "norm-aut-4": "2c7c30ba05eca0abfecb0b2c53a41e3989c575579c3ac4576472a11e6627ff23",
        "norm-tot-2": "ae6d2862c0a16676f05e7258a5562fe52b7e6258b12d215d1bdb8610d8d502da",
        "norm-tot-3": "00c056a1ebc39265597ac9a11f376e01b1dbf713fec083d2711f96ca7e3d9e53",
        "norm-tot-4": "cac2d08c427680aba9ca976a0fd4e3ceb3d58a903f1762dc0df171859b494b32",
        "ideal-edges": "0a1ae7605f10e4ff866245c48cf2add31187396e2d2911f057c5aada798321ae",
        "reduce-log": "c0f69aaf7c5df41dfb9e25f114ea9cc35e49bea0e210a6f47e348831768c8c8f",
        "star-retract": "972440876fe3f09f3e954b569b36a984a8161cf82d2239d38d81f407110fe2b4",
        "star-C0": "825cdfd1c9326db6094eb5e97d51a795cee4a404e8145542babe5bb2585da3a6",
        "star-C1": "825cdfd1c9326db6094eb5e97d51a795cee4a404e8145542babe5bb2585da3a6",
    },
    "FIX-R2W.txt": {
        "norm-out-2": "76ee89b36e28522bfb422e6e0374108caf5414a8d7ed63f2a0d778d00a88c8cc",
        "norm-out-3": "caf97afe16becc30b602709bbf4976cefdeb9722887219ac49f0c16c5f101310",
        "norm-out-4": "a30e6a5fb582d62fa4f602cc119e70cce0a842728c81bfa2bba3cdaabce8a7ad",
        "norm-aut-2": "58bdd50f25fee13054ff90ddf96a700360207697e1d4f8f5279d1fd2f88818a6",
        "norm-aut-3": "3a944aa346f64b6e89c82a2a4933794d11c38927082a23a9336d5ed2c553e1cf",
        "norm-aut-4": "0809521064d011d04ceee69895e20d2c8473dcbeec07467cf0e6db83c15eaaa7",
        "norm-tot-2": "c927fef033022cd2af5ebb572b4a426524f071e832420afb47674fe07876f5a2",
        "norm-tot-3": "dd98ccfbef516a86bb7627f41bf9cfc89431a3c35b8819e0e942e4b353ee4484",
        "norm-tot-4": "56764d6cd97e0cb4a40db3da2f3a8c5e1eb08044d2a89f33831b6734930dd4ab",
        "ideal-edges": "dcdab1206a357e2310fedd10b78da609855d9e0419961e3293d1a182ba0bc5d8",
        "reduce-log": "e6e5b1e4b69e0a2f06248746a4971de6a6e3a586d08cfa8a6146494a11ac7beb",
        "star-retract": "871a394b16a40b39cea439f5205a3dc2bfa4dbbb6749b0f761f9e14ae33d2608",
        "star-C0": "99fef29114ff51597a996412e48d0b1d88a925981a373ad37528f955ee40bd9b",
        "star-C1": "e501511b69b674f896d0e43fee7cf2e3b4b6b57fa2b73981bb21114ea3f76ab8",
    },
    "FIX-THETA.txt": {
        "norm-out-2": "287759cea1253fa02f7626faccdd679f2e8c1195500ee5e33af2b759c6416519",
        "norm-out-3": "63881744d4e5368c9c20ca4adcd02a93e5b8f5d76fd1759423cda17e5ac0bc27",
        "norm-out-4": "9244f7ff69d2ac35592d594f88a50bfad6f2b6717c43c8d3a6b1fc4d8d835b4e",
        "norm-aut-2": "500e7690ff73a9e612b3c7d335120ae27036d21342e953b4ec67d92a378cf647",
        "norm-aut-3": "03daf4971dafe691f1c1cc312fff1484f5933dc2f0faf8abf2f2f2bbdb4f992f",
        "norm-aut-4": "6c60ada589be203d107a08740f141f9484017dc642e5f3250e28d3de068f179d",
        "norm-tot-2": "574c99c208a41e1a9c5e7f333f962e722f386005e4859c4a82b8a91c0c5fb7e8",
        "norm-tot-3": "ba2e64b77b1725e8d5b5aa6881a20c6586e756982fafec1b2bfdcd9581edd229",
        "norm-tot-4": "0fee53e6007913c2872afc4e5fca5b1ed2d447834fb55a3487ec2aca7700884f",
        "ideal-edges": "b33f4f8635b4927157584060d9920959d3d7e9a5b40edf8865b9cb75e77a966a",
        "reduce-log": "0a585d8ea607a099b57253093b21682a1f4b96e65e8c110360e7c3a3d7459bba",
        "star-retract": "e783daff51f04723f73566e133758cf6f490447dee44651ac929f42d76afbbe8",
        "star-C0": "825cdfd1c9326db6094eb5e97d51a795cee4a404e8145542babe5bb2585da3a6",
        "star-C1": "825cdfd1c9326db6094eb5e97d51a795cee4a404e8145542babe5bb2585da3a6",
    },
    "random-20026.txt": {
        "norm-out-2": "29d553a243d8f82d881e8732f0f9bf3c246774a692c961ca70bc7138b4043c06",
        "norm-out-3": "87a3273c6ffe86d9f13ea43bb0c9d34536f9104e7add1bb7e637f827fefd1b2b",
        "norm-out-4": "a7fdf747593dad095d12de23f417e1814427d1e1899c1968d1eca7dc29eafc21",
        "norm-aut-2": "c9020a2f2c5c9b227dd8b62d7d1909612c55eae0d8596bba919aae87fa104810",
        "norm-aut-3": "5200392ac988a82db9c0ecf99815bc3dac2950a47aa0274cb94428a36ccb3b2a",
        "norm-aut-4": "7de9c5148a743215345be30e7bad0f1af4193c55544c2bf7ad3774363d374ff6",
        "norm-tot-2": "034012a398387f5abc0a78e886ebc784c1154fcee906bdcffcf4a9d3468fab9c",
        "norm-tot-3": "428c682bf922a32f48bac02d39727a38359ec7e858409febf4e260f343ad7831",
        "norm-tot-4": "fc367a1c9ca7f2b82b01469eda366de7cd52683c22273f4bf1c6c66222f91b6a",
        "ideal-edges": "2caf8ec2d5632270d08da4b87737847941fc90c36c5b10352d99e22c579a1123",
        "reduce-log": "b27b47fa70c621d94fdd83645382670ad1f4840e62528c8f1ed1f8c1f58ba883",
        "star-retract": "783c89f0001b8766c653e5a0446a41a5b71f4a6d7155934b380f8b3cc60e2918",
        "star-C0": "ce66320e606ea65515b40f6bab2c5641d5f05adf794368cacd9742236f9ef87e",
        "star-C1": "406266ce188741f7b475f913f85890ec5e02cf1a3a035f470283eda1379ae60e",
    },
    "random-20045.txt": {
        "norm-out-2": "1f8d8112a695789eb5db2b1e1947f5117196dd7c285ab0cac031c8fbb872a507",
        "norm-out-3": "954802ec294573b5a94e4f7047b71fc1fc31179e6809d1281431314b0f15645c",
        "norm-out-4": "42fc6f9139cc798c609db441d984081548db46da51605e9648f0557ad6a89983",
        "norm-aut-2": "1e37d9ed6e39e6dcad4075af70f778b401304c146e710b64f15649fd3ef65fe1",
        "norm-aut-3": "02a8f06fb708ef1b23cbdc5ae63e765ce0f9466747a6872a8b7b793eef7050f4",
        "norm-aut-4": "990ce35a1000bc8826de8783aa94aecc7b500427f033a43b93f166b3cec26be1",
        "norm-tot-2": "e6c1aabc563cdb3b5e8a906274dc758b2e433bf3d1d00b205968ecde451cf6d4",
        "norm-tot-3": "54a644ac2655d9b333a226d8f4c17e202812bdce3919b7dacd19a8032e2f00ca",
        "norm-tot-4": "33e592a6dd6d7c03764f98d95148bf9d5f336806f5933abdcc4b7b6b25700659",
        "ideal-edges": "57f080cea3fbef7eee977d4c6b5af5789601bd0759b4c1adf26f32b885f2dae2",
        "reduce-log": "ef1c4dd15e9ab47a717daa120aaaa7386ea534186bc897b1576318f5dbb867be",
        "star-retract": "7ecefa326fe48bc88806183a0e75b6c250f94ff0fea2de461abd474a6f28486e",
        "star-C0": "1cd8b78d5c10fd086da9e906f075eab847e2213452ec357be3913806b10f9f95",
        "star-C1": "c3ca0a43f2ae606f71c271ea4909a432676004b296aa2bdc820b80c03e7c2bed",
    },
}


def _run(capsys, argv):
    """The digest of one command's exit code, stdout, stderr and log file,
    run in the current directory."""
    log = pathlib.Path("reduce.log")
    code = cli.main(argv)
    out, err = capsys.readouterr()
    text = log.read_text() if log.exists() else ""
    log.unlink(missing_ok=True)
    return _sha(f"exit {code}\n--- stdout\n{out}--- stderr\n{err}--- log\n{text}")


def _manifest(name, capsys):
    pathlib.Path(name).write_text(_files()[name])
    return {label: _run(capsys, [argv[0], name] + argv[1:])
            for label, argv in COMMANDS.items()}


@pytest.mark.parametrize("name", FILES)
def test_cli_outputs_frozen(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _manifest(name, capsys) == CLI_DIGESTS[name]


def test_a_changed_printed_byte_fails_the_manifest(tmp_path, monkeypatch, capsys):
    """One byte more on the first line that ideal-edges prints changes its
    digest."""
    monkeypatch.chdir(tmp_path)
    name = FILES[0]
    pathlib.Path(name).write_text(_files()[name])
    argv = ["ideal-edges", name]
    assert _run(capsys, argv) == CLI_DIGESTS[name]["ideal-edges"]
    printed = []

    def print_once_changed(*args, **kwargs):
        if not printed:
            args = args[:-1] + (args[-1] + "x",)
        printed.append(args)
        print(*args, **kwargs)

    monkeypatch.setattr(cli, "print", print_once_changed, raising=False)
    assert _run(capsys, argv) != CLI_DIGESTS[name]["ideal-edges"]
    assert printed


# ---------------------------------------------------------------------------
# poset diagrams

DOT_ARGV = ["--family", "R", "--horizon", "3", "--dot", "poset.dot"]
DOT_DIGESTS = {
    "FIX-R2-SWAP.txt": "76efbec2b821c0a7a254dad88466ce88c4079c8ed16835e917226853aa08f3bb",
    "FIX-R2.txt": "76efbec2b821c0a7a254dad88466ce88c4079c8ed16835e917226853aa08f3bb",
    "FIX-R2W.txt": "32705eb0965643f3954e7e7ee24b7671c3cd3d8802b42f8e44009f6a7f143b83",
    "FIX-THETA.txt": "76efbec2b821c0a7a254dad88466ce88c4079c8ed16835e917226853aa08f3bb",
    "random-20026.txt": "6e81ef009b651aab3d87d8795de1ab3ed00552927f8961420c8d8b68de4386e4",
    "random-20045.txt": "9c425b8830e903a3e1551eb6310437a42e7c4a9e757286129975fc8d213c5ef0",
}


@pytest.mark.parametrize("name", FILES)
def test_star_dot_frozen(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    pathlib.Path(name).write_text(_files()[name])
    assert cli.main(["star", name] + DOT_ARGV) == 0
    assert _sha(pathlib.Path("poset.dot").read_text()) == DOT_DIGESTS[name]
