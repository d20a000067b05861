"""Benchmark of the gwhitehead library: descent, star and verify workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With --workload, one workload runs in this process and the last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Without it, every workload runs in turn, each in a fresh
process of its own.  --trace 0 measures the end-to-end metrics with no
instrumentation; --trace 1 runs one traced pass and reports the per-layer
metrics instead (see README.md).  The package is imported from `src/` of
the checkout that holds this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "descent": (workloads.op_descent, workloads.check_descent),
    "star": (workloads.op_star, workloads.check_star),
    "verify": (workloads.op_verify, workloads.check_verify),
}
MODULES = ("cli", "errors", "fixtures", "freegroup", "ggraph", "idealedges",
           "marking", "moves", "norms", "selftest", "starcomplex")
# set-up is repeated and its median reported, since one import is short
SETUP_REPS = 25
# The machine's speed drifts by a quarter within and between processes, so
# every time is rescaled by a fixed calibration unit, repeated after each
# operation (and each set-up) for CAL_SHARE of its time: seconds at the
# speed at which one unit takes CAL_REF_S, using the mean unit time over
# the CAL_WINDOW operations on either side.
CAL_REF_S = 0.002
CAL_SHARE = 0.05
CAL_WINDOW = 5
_CAL_COUNTS = {i: i % 5 for i in range(64)}
_CAL_SET = frozenset(range(0, 64, 3))


def calibration_unit():
    """Time one fixed unit of pure-Python work shaped like the norm kernel.

    Generator sums over dict lookups and frozenset membership, as in
    `NormCalculator.set_abs`, but written here and calling nothing of the
    package.  The collector is off while it runs, so that how much the
    package keeps alive does not change it.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for j in range(150):
            pairs = [(i, (i * 7 + j) % 64) for i in range(32)]
            total += sum(_CAL_COUNTS.get(u, 0) + _CAL_COUNTS.get(w, 0)
                         for u, w in pairs)
            total -= 2 * sum(1 for u, w in pairs
                             if u in _CAL_SET and w in _CAL_SET)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def calibrate(after_s):
    """(seconds, units): units for CAL_SHARE of `after_s`, at least one."""
    total, units = 0.0, 0
    while units == 0 or total < CAL_SHARE * after_s:
        total += calibration_unit()
        units += 1
    return total, units


def at_reference_speed(times, cals):
    """Each time rescaled by the mean calibration unit of its neighbours."""
    out = []
    for i, t in enumerate(times):
        near = cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
        unit = sum(s for s, _ in near) / sum(n for _, n in near)
        out.append(t * CAL_REF_S / unit)
    return out


def run_seconds():
    """The run length, `run_seconds` of BENCHMARK.json at the checkout root."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return spec["run_seconds"]


def load_library():
    """Import the package afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules
                 if n == "gwhitehead" or n.startswith("gwhitehead.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{
        name: importlib.import_module(f"gwhitehead.{name}") for name in MODULES})
    if Path(lib.cli.__file__).resolve().parent != SRC / "gwhitehead":
        raise SystemExit(f"perfbench: imported {lib.cli.__file__}, not {SRC}")
    return lib


def setup(workload, seed, sizes=None):
    gc.collect()  # garbage of an earlier set-up is not collected in this one
    t0 = time.perf_counter()
    lib = load_library()
    items = instances.workload_instances(lib, workload, seed, sizes)
    return time.perf_counter() - t0, lib, items


def run_pass(lib, workload, items, tracer=None):
    """One operation per item, each followed by a calibration unit.

    Returns per-item times (raw and at reference speed), failures, builds.
    """
    op, check = WORKLOADS[workload]
    times, cals, failed, problems, misses = [], [], 0, [], 0
    for item in items:
        lib.norms.calculator.cache_clear()
        if tracer:
            tracer.active = True
            tracer.begin("op")
        t0 = time.perf_counter()
        try:
            result = op(lib, item)
        except lib.errors.GWError as exc:
            result = exc
        finally:
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.finish("op")
                tracer.active = False
        cals.append(calibrate(times[-1]))
        misses += lib.norms.calculator.cache_info().misses
        if isinstance(result, lib.errors.GWError):
            failed += 1
            print(f"failed {item[0]}: {type(result).__name__}: {result}",
                  file=sys.stderr)
            continue
        try:
            check(lib, item, result)
        except workloads.CheckFailed as exc:
            problems.append(str(exc))
    return SimpleNamespace(times=times, cals=cals,
                           ref_times=at_reference_speed(times, cals),
                           failed=failed, problems=problems, misses=misses)


def measure(workload, seed, seconds):
    """Untraced run: whole passes until the next one would overrun."""
    setup_times, setup_cals = [], []
    for _ in range(SETUP_REPS):
        dt, lib, items = setup(workload, seed)
        setup_times.append(dt)
        setup_cals.append(calibrate(dt))
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(lib, workload, items))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    per_item = [statistics.median(p.ref_times[i] for p in passes)
                for i in range(len(items))]
    print(f"{workload} raw setup_s {statistics.median(setup_times):.6g} s, "
          f"raw wall_s {statistics.median(sum(p.times) for p in passes):.6g} s, "
          f"calibration unit {statistics.median(c / n for p in passes for c, n in p.cals):.6g} s, "
          f"{len(passes)} passes", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(
            at_reference_speed(setup_times, setup_cals)), "s"),
        "wall_s": (statistics.median(sum(p.ref_times) for p in passes), "s"),
        "instance_p50_s": (statistics.median(per_item), "s"),
        "instance_p90_s": (statistics.quantiles(per_item, n=10)[-1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return passes, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def measure_traced(workload, seed):
    """One traced pass; the spans go to perfbench/out/."""
    _, lib, items = setup(workload, seed)
    tracer = trace.Tracer()
    tracer.install(lib)
    p = run_pass(lib, workload, items, tracer)
    tracer.uninstall()
    builds = tracer.calls["norms.build"]
    if builds != p.misses:
        raise SystemExit(f"perfbench: {builds} NormCalculator builds but "
                         f"{p.misses} calculator cache misses")
    path = HERE / "out" / f"trace-{workload}-seed{seed}.json.gz"
    tracer.write(path)
    print(f"traced wall_s {sum(p.times):.4f} s raw, {sum(p.ref_times):.4f} s "
          f"at reference speed, {len(tracer.start)} spans "
          f"written to {path.relative_to(HERE.parent)}", file=sys.stderr)
    return [p], tracer.metrics()


def run_workload(workload, seed, seconds, traced):
    if traced:
        passes, metrics = measure_traced(workload, seed)
    else:
        passes, metrics = measure(workload, seed, seconds)
    problems = [msg for p in passes for msg in p.problems]
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} operations attempted {attempted} failed {failed}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="pass budget; by default run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gwhitehead" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
