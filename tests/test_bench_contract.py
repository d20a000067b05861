"""The benchmark still runs against the package.

perfbench/trace.py names, per layer, the module and the public functions
(or `Class.method` entries) whose calls it counts.  Removing or renaming
one of them would break the traced benchmark run, so it fails here first.
The benchmark's own smoke test runs every workload on a few instances,
so a changed signature of anything the workloads call fails here too.
"""

import hashlib
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from gwhitehead import cli, fixtures

ROOT = Path(__file__).resolve().parent.parent
TRACE_PY = ROOT / "perfbench" / "trace.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_names_resolve(layer):
    modname, names = LAYERS[layer]
    mod = importlib.import_module(f"gwhitehead.{modname}")
    if names is None:
        assert any(n.startswith("check_") for n in vars(mod))
        return
    for name in names:
        if "." in name:
            cls_name, meth = name.split(".")
            assert callable(vars(getattr(mod, cls_name)).get(meth)), name
        else:
            assert callable(getattr(mod, name, None)), name


def test_benchmark_smoke_test_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke_test.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


# (item count, sha256 of the repr of the item list) of each workload's
# seed-1 instances, taken before the first change they guard
WORKLOAD_DIGESTS = {
    "descent": (100, "6cff2038b90f297c3c8744f80becb32742ea4bd8e59b5d7e25c3979379743a69"),
    "star": (30, "b5df473e8ea360be84edca8a1b63e055a30857990c95fe2548c0ff64c1ae8ff0"),
    "verify": (108, "76eecb08f22222555cf69706df22ff0d75c1f494e90be875624fdfd708c687af"),
}


def _perfbench_instances():
    """perfbench/instances.py, loaded with perfbench/ on sys.path only for
    its own import of oracle."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_instances", ROOT / "perfbench" / "instances.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return mod


@pytest.mark.parametrize("workload", sorted(WORKLOAD_DIGESTS))
def test_workload_instances_frozen(workload):
    """The benchmark builds its instance texts through the package
    (random_instance, canonical_text, parse), so a change there would
    silently change what a parent/change comparison runs.  A deliberate
    change to the generator, such as drawing only faithful actions in
    random_instance, must update these digests and record the update in
    CHANGES.md."""
    lib = SimpleNamespace(cli=cli, fixtures=fixtures)
    items = _perfbench_instances().workload_instances(lib, workload, 1)
    digest = hashlib.sha256(repr(items).encode()).hexdigest()
    assert (len(items), digest) == WORKLOAD_DIGESTS[workload]
