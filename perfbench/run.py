"""comove benchmark: seeded workloads, end-to-end metrics and a traced run.

Run from the repository root (it imports the package from ``./src``)::

    python3 perfbench/run.py --workload coherence-4096x6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (inputs generated in-process from ``--seed``; see workloads.py):

- ``pipeline-1461x4``: ``comove pipeline`` as a child process, target s0,
  on a CSV of 4 price-like random walks (two share a 64-day cycle) with the
  last 30 days held back by ``--end``.
- ``coherence-4096x6``: ``cwt_morlet`` x6, ``coherence_matrix_field`` and
  ``coherence_result(target=0)`` in memory on 6 random walks, a cycle
  planted in three.
- ``forecast-rolling-2922x8``: at 48 origins (1461-day windows every 30
  days), packet split, de-noising sweep, ARMA fits per series and a joint
  VARMA fit, all forecasting 30 days and scored on the realized data.

With ``--trace 0`` the run repeats the workload's operation until
``--seconds`` have passed (at least once) with tracing off and prints, one
``metric NAME VALUE UNIT`` line each: ``setup_s`` (median of several
set-ups: fresh-interpreter import plus input generation), ``wall_s``
(one successful run: the median operation, or on the rolling forecast the
sum of each origin's median pass; null if none succeeded), ``ref_s`` (typical
time of the fixed reference computation of :mod:`pace`, sampled between units
of work), ``wall_per_ref`` (``wall_s / ref_s``: wall time with the host's
drift in pace divided out), ``peak_rss_mb``,
``fail_frac``, and per workload ``origin_p50_s``/``origin_p90_s``,
``factor_contrast`` or ``mse_ratio``. With ``--trace 1`` it runs the
operation once untraced and once traced and prints the per-layer metrics
of :mod:`spans`, the time no layer span covers and the tracing overhead;
the spans go to ``.perfbench_out/``. The last stdout line is always one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
metrics named in BENCHMARK.json). Output checks run on every operation; a
wrong result counts as failed. ``python3 perfbench/selfcheck.py`` checks
the checks.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

SETUP_REPEATS = 3
WORK_ROOT = ".perfbench_work"
TRACE_ROOT = ".perfbench_out"
END_TO_END = (("setup_s", "s"), ("wall_per_ref", "ratio"), ("peak_rss_mb", "MB"))
PACE_SAMPLES_PER_OP = 4


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "comove", "__init__.py")):
        print(f"perfbench: no comove package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # Pin to one CPU before numpy loads (so OpenBLAS sizes itself to it). On a
    # shared 2-vCPU host, unpinned passes of one run differed by up to 40% as
    # the scheduler migrated them; pinned passes agreed to about 2%.
    available = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {available[-1]})

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(WORKLOADS[args.workload], args, src, os.path.abspath(workdir), available)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def measure(wl, args, src: str, workdir: str, available: list[int]) -> int:
    child_env = dict(os.environ, PYTHONPATH=src)
    setups, digests = [], set()
    for _ in range(1 if args.trace else SETUP_REPEATS):  # set-up is not reported when tracing
        start = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {wl.import_module}"], env=child_env,
                       check=True)
        inputs = wl.generate(args.seed, workdir)
        setups.append(perf_counter() - start)
        digests.add(inputs["sha256"])
    if len(digests) != 1:
        print("perfbench: the generator gave different bytes for one seed", file=sys.stderr)
        return 2

    sys.path.insert(0, src)
    import comove

    if not os.path.abspath(comove.__file__).startswith(src + os.sep):
        print(f"perfbench: comove imported from {comove.__file__}, not {src}", file=sys.stderr)
        return 2
    from pace import Pace

    start = perf_counter()
    wl.warm_up(inputs)
    pace = Pace()
    warm_up = perf_counter() - start
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    env = environment(available)
    print("env " + json.dumps(env))
    print("input " + json.dumps(input_record(wl, inputs, env)))
    if args.trace:
        return traced_run(wl, inputs, workdir, args)

    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < args.seconds:
        ops.append(wl.op(inputs, workdir, pace=pace))
        for _ in range(PACE_SAMPLES_PER_OP):
            pace.sample()
    units = [u for op in ops for u in op.units]
    failed = report_failures(units)
    wall, wall_note = run_wall(wl, ops)
    child_rss = [op.peak_rss_mb for op in ops if op.peak_rss_mb is not None]
    peak = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = pace.typical()
    metrics = {
        "setup_s": statistics.median(setups) + warm_up,
        "wall_s": wall,
        "ref_s": ref,
        "wall_per_ref": wall / ref if wall is not None else None,
        "peak_rss_mb": peak,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups (fresh-interpreter import and inputs) "
        f"plus a {warm_up:.3f} s in-process warm-up",
        "wall_s": wall_note,
        "ref_s": f"interquartile mean of {len(pace.samples)} samples of the reference computation",
        "wall_per_ref": "wall_s / ref_s",
        "peak_rss_mb": "child process" if child_rss else "this process",
    }
    print_metric("setup_s", metrics["setup_s"], "s", notes["setup_s"])
    for name, unit in (("wall_s", "s"), ("ref_s", "s"), ("wall_per_ref", "ratio")):
        print_metric(name, metrics[name], unit, notes[name])
    print_metric("peak_rss_mb", metrics["peak_rss_mb"], "MB", notes["peak_rss_mb"])
    print_metric("fail_frac", failed / len(units), "ratio", f"{failed} of {len(units)} {wl.unit}s")
    workload_metrics(wl, ops, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }))
    return 0


def run_wall(wl, ops) -> tuple[float | None, str]:
    """Wall time of one successful run, and how it was formed.

    On the rolling forecast it is the sum over origins of each origin's
    median time over the successful passes, so that one pass slowed by the
    host does not count. Elsewhere an operation is too long to repeat within
    a run and the median operation is reported.
    """
    good = [op for op in ops if op.wall_s is not None]
    if not good:
        return None, f"none of {len(ops)} operations succeeded; time-to-crash is not reported"
    if wl.unit == "origin":
        typical = [statistics.median(op.units[k][0] for op in good) for k in range(len(good[0].units))]
        return sum(typical), (f"sum over {len(typical)} origins of each one's median of "
                              f"{len(good)} successful of {len(ops)} passes")
    median = statistics.median(op.wall_s for op in good)
    return median, f"median of {len(good)} successful of {len(ops)} operations"


def workload_metrics(wl, ops, units) -> None:
    """Print the end-to-end metrics that only some workloads have."""
    if wl.unit == "origin":
        times = sorted(t for t, err in units if err is None)
        if times:
            p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
            beyond = sum(1 for t in times if t > p90)
            print_metric("origin_p50_s", statistics.median(times), "s",
                         f"{len(times)} origins pooled over {len(ops)} passes")
            print_metric("origin_p90_s", p90, "s", f"{beyond} origins beyond it")
        arma = sum(op.quality["arma_mse_sum"] for op in ops)
        varma = sum(op.quality["varma_mse_sum"] for op in ops)
        print_metric("mse_ratio", varma / arma if arma else None, "ratio",
                     "mean VARMA / mean ARMA cumulative MSE over successful origins")
    solved = [op.quality for op in ops if "factor_contrast" in op.quality]
    if solved:
        flagged = statistics.median(q["flagged_frac"] for q in solved)
        print_metric("factor_contrast", statistics.median(q["factor_contrast"] for q in solved),
                     "coherence", f"band minus elsewhere, unflagged cells inside the COI; "
                     f"flagged {flagged:.4f} of {int(solved[0]['cells'])} cells")


def traced_run(wl, inputs: dict, workdir: str, args) -> int:
    import spans

    untraced = wl.op(inputs, workdir)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced = wl.op(inputs, workdir, tracer)
    finally:
        restore()
    traced_s = sum(t for t, _ in traced.units)
    untraced_s = sum(t for t, _ in untraced.units)
    layer = spans.layer_metrics(tracer.spans)
    layer["cli.bytes_written"] = traced.bytes_written
    layer["cli.files_written"] = traced.files_written
    layer["uncovered_s"] = traced_s - spans.root_time(tracer.spans)
    layer["trace_overhead_s"] = traced_s - untraced_s
    units = untraced.units + traced.units
    failed = report_failures(units)
    if any(err for _, err in traced.units):
        print("trace partial: the traced run failed; layers report the stages that ran before it")
    os.makedirs(TRACE_ROOT, exist_ok=True)
    path = os.path.join(TRACE_ROOT, f"spans-{wl.name}-seed{args.seed}.json")
    tracer.dump(path)
    print(f"trace spans={len(tracer.spans)} file={path}")
    notes = {
        "coherence.flagged_frac": f"of {layer['coherence.cells']} solved cells",
        "trace_overhead_s": f"traced {traced_s:.3f} s minus untraced {untraced_s:.3f} s",
    }
    for name, unit in spans.PER_LAYER:
        print_metric(name, layer[name], unit, notes.get(name, ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": layer[name], "unit": unit} for name, unit in spans.PER_LAYER},
    }))
    return 0


def report_failures(units) -> int:
    """Print each failed unit with its time and first error line; return the count."""
    failed = 0
    for i, (seconds, err) in enumerate(units):
        if err is not None:
            failed += 1
            print(f"failure unit={i} after_s={seconds:.3f} {err}")
    return failed


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = "null" if value is None else repr(value)
    print(f"metric {name} {shown} {unit}" + (f"  # {note}" if note else ""))


def input_record(wl, inputs: dict, env: dict) -> dict:
    """Input sizes and hash; computed (not measured) bytes of the cell array."""
    from comove import cwt

    n, p = inputs["shape"]
    record = {"shape": inputs["shape"], "sha256": inputs["sha256"]}
    if wl.runs_cwt:
        scales = cwt.make_scale_grid(n, 1.0).num_scales
        record["cells"] = scales * n
        record["computed_cell_array_bytes"] = scales * n * p * p * 16
        record["llc_bytes"] = env["llc_bytes"]
    return record


def environment(available: list[int]) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(available),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "llc_bytes": _last_level_cache(),
    }


def _last_level_cache() -> int | None:
    """Size in bytes of the largest CPU cache level getconf knows, or None."""
    for level in ("LEVEL4", "LEVEL3", "LEVEL2"):
        try:
            out = subprocess.run(["getconf", f"{level}_CACHE_SIZE"], capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None
        if out.isdigit() and int(out) > 0:
            return int(out)
    return None


def _blas_threads(np) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_all(args) -> int:
    """Run every workload in its own process, so peaks never mix."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
