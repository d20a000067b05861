"""Spans around the calls into each module's public functions.

`Tracer.install` wraps the functions named in LAYERS and replaces every
binding of each one: the attribute of its defining module, every
`from .x import name` copy in the other package modules, and the method
on its class.  Nothing inside the package changes on disk.  A span holds
its layer, start, end, parent and the operation (root span) it belongs
to; spans are kept in columnar arrays and written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# layer -> (module, public functions); "Class.method" names a method.
LAYERS = {
    "freegroup.enumerate": ("freegroup", ["enumerate_words", "enumerate_classes"]),
    "marking.realize": ("marking", ["path_of_word", "loop_of_class"]),
    "marking.collapse": ("marking", ["collapse_marked"]),
    "ggraph.validate": ("ggraph", ["GGraph.validate"]),
    "norms.build": ("norms", ["NormCalculator.__init__"]),
    "norms.kernel": ("norms", ["NormCalculator.set_abs", "NormCalculator.edge_abs",
                               "NormCalculator.dot"]),
    "norms.norm": ("norms", ["NormCalculator.norm"]),
    "idealedges.enumerate": ("idealedges", ["enumerate_ideal_edges", "d_set"]),
    "idealedges.relations": ("idealedges", ["compatible", "pre_compatible",
                                            "crossing", "is_invertible"]),
    "moves.reductivity": ("moves", ["reductivity", "max_reductive_pair"]),
    "moves.whitehead": ("moves", ["whitehead", "blow_up"]),
    "starcomplex.reductive_orbits": ("starcomplex", ["reductive_orbits", "family"]),
    "starcomplex.forests": ("starcomplex", ["enumerate_ideal_forests"]),
    "starcomplex.order_complex": ("starcomplex", ["order_complex"]),
    "starcomplex.homology": ("starcomplex", ["reduced_homology"]),
    "starcomplex.retract": ("starcomplex", ["run_retractions"]),
    "selftest.check": ("selftest", None),  # every check_* function
    "cli.parse": ("cli", ["parse"]),
    "cli.serialize": ("cli", ["canonical_text"]),
}

# layers whose returned NormVector lengths are summed into `.coords`
COORD_LAYERS = {"norms.kernel"}

# per-layer metrics reported, in BENCHMARK.json order
METRICS = []
for _layer in LAYERS:
    if _layer in ("starcomplex.forests", "starcomplex.order_complex",
                  "starcomplex.homology", "starcomplex.retract",
                  "selftest.check", "cli.parse", "cli.serialize"):
        METRICS.append((f"{_layer}.self_s", "s"))
        continue
    METRICS.append((f"{_layer}.calls", "count"))
    if _layer in COORD_LAYERS:
        METRICS.append((f"{_layer}.coords", "count"))
    METRICS.append((f"{_layer}.self_s", "s"))


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gwhitehead" or name.startswith("gwhitehead."))]


class Tracer:
    def __init__(self):
        self.names = ["op"] + list(LAYERS)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []          # [span index, child time]
        self.active = False
        self.calls = dict.fromkeys(LAYERS, 0)
        self.coords = dict.fromkeys(COORD_LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._patched = []       # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def begin(self, layer):
        i = len(self.start)
        self.name.append(self.ids[layer])
        if self.stack:
            self.parent.append(self.stack[-1][0])
            self.root.append(self.stack[0][0])
        else:
            self.parent.append(-1)
            self.root.append(i)
        self.end.append(0.0)
        self.stack.append([i, 0.0])
        self.start.append(time.perf_counter())

    def finish(self, layer):
        t = time.perf_counter()
        i, child = self.stack.pop()
        self.end[i] = t
        dur = t - self.start[i]
        if self.stack:
            self.stack[-1][1] += dur
        if layer != "op":
            self.self_s[layer] += dur - child
            self.calls[layer] += 1

    def _wrap(self, layer, fn):
        tracer = self
        coords = layer in COORD_LAYERS

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.begin(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(layer)
            if coords:
                tracer.coords[layer] += len(out.coords)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, lib):
        """Wrap every LAYERS function and rebind every reference to it."""
        modules = _package_modules()
        originals = {}
        for layer, (modname, names) in LAYERS.items():
            mod = getattr(lib, modname)
            if names is None:
                names = [n for n in vars(mod) if n.startswith("check_")]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    fn = vars(cls)[meth]
                    self._patched.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(layer, fn))
                else:
                    originals[id(getattr(mod, name))] = (
                        getattr(mod, name), self._wrap(layer, getattr(mod, name)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        out = {}
        for name, unit in METRICS:
            layer, kind = name.rsplit(".", 1)
            value = {"calls": self.calls, "coords": self.coords,
                     "self_s": self.self_s}[kind][layer]
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """All spans, columnar, as gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"names": self.names,
               "columns": ["name", "parent", "root", "start", "end"],
               "name": self.name.tolist(), "parent": self.parent.tolist(),
               "root": self.root.tolist(), "start": self.start.tolist(),
               "end": self.end.tolist()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
