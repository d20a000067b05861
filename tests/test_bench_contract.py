"""The benchmark still runs against the package.

perfbench/trace.py names, per layer, the module and the public functions
(or `Class.method` entries) whose calls it counts.  Removing or renaming
one of them would break the traced benchmark run, so it fails here first.
The benchmark's own smoke test runs every workload on a few instances,
so a changed signature of anything the workloads call fails here too.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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
