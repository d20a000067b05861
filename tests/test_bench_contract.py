"""Every function the benchmark's tracer wraps still exists in the package.

perfbench/trace.py names, per layer, the module and the public functions
(or `Class.method` entries) whose calls it counts.  Removing or renaming
one of them would break the traced benchmark run, so it fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_PY = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


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
