"""roma benchmark: closed-loop workloads over the library's public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload detect-large --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``detect-large``,
``mc-trials`` and ``cli-csv``.  The program under test is the ``roma``
package in the checkout's ``src/``; the run fails without printing a result
when it is missing.

``--trace 0`` measures the end-to-end metrics with tracing off, in
reference seconds (see ``HostClock``).
``--trace 1`` is the separate traced run that reports the per-layer
metrics: the same operations run once untraced and once traced (which gives
the tracing overhead), then once more under tracemalloc for the detector's
allocation peak.  The spans are written to ``perfbench/_out/``.

Standard output ends with two JSON lines: the run's context (machine block,
sample counts, digests of the generated data and of the partitions, which
must not change across runs of one seed), then the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback

import numpy as np

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

LAYERS = ("data", "synth", "angles", "threshold", "detector", "subspace",
          "experiments", "cli", "statcore", "theory")

END_TO_END = ("setup_s", "ops_per_s", "op_p50_s", "op_p90_s",
              "detect_over_gram", "peak_rss_mb")
PER_LAYER = tuple(f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")) + (
    "angles.gram_passes_equiv", "detector.peak_alloc_mb", "synth.columns_per_s",
    "data.csv_mb_per_s", "experiments.overhead_frac", "tracing.overhead_frac",
    "gram_floor_s")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
         "detect_over_gram": "ratio", "peak_rss_mb": "MB",
         "angles.gram_passes_equiv": "ratio", "detector.peak_alloc_mb": "MB",
         "synth.columns_per_s": "1/s", "data.csv_mb_per_s": "MB/s",
         "experiments.overhead_frac": "ratio", "tracing.overhead_frac": "ratio",
         "gram_floor_s": "s"}

SETUP_REPEATS = 5
MIN_OPS = 10

# Iterations of the host-speed probe (see HostClock), and roughly its median
# time on the machine the benchmark was written on (2 vCPUs of an Intel Xeon
# VM, Python 3.11).
PROBE_LOOP = 40_000
PROBE_REF_S = 3.0e-3


def load_roma():
    """Import ``roma`` from the checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "roma", "__init__.py")):
        raise SystemExit(f"error: no roma package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import roma
    if os.path.dirname(os.path.dirname(os.path.abspath(roma.__file__))) != SRC:
        raise SystemExit(f"error: roma imported from {roma.__file__}, not {SRC}")
    return roma


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s/op" if name.endswith(".self_s") else "count/op"


def machine_block() -> dict:
    """What makes two runs comparable: hardware, toolchain, BLAS and source."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*blas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "roma", "*.py"))):
        with open(path, "rb") as fh:
            source.update(fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "git_commit": commit,
            "src_sha256": source.hexdigest()[:16]}


class HostClock:
    """Times samples in reference seconds.

    The shared host this benchmark was written on changes speed by up to
    1.6x within seconds.  So the clock runs a fixed pure-Python probe before
    and after every sample (an op, a set-up, a bare Gram), and scales the
    sample's wall time by ``PROBE_REF_S`` over the mean of those two probes.
    A reference second is a wall second when the probe takes
    ``PROBE_REF_S``.  The scaling removes the host's drift but not a change
    in the code under test, which the probe never runs.  Of the probes
    tried (interpreter loop, in-cache and out-of-cache element-wise numpy,
    a small Gram), the interpreter loop made run medians steadiest across
    the three workloads taken together.
    """

    def __init__(self):
        self._probes: list = []
        self._walls: list = []

    @staticmethod
    def probe() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        return time.perf_counter() - start

    def time(self, fn):
        """Probe, then run ``fn()`` and add its wall time to the current series."""
        self._probes.append(self.probe())
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._walls.append(time.perf_counter() - start)

    def series(self) -> tuple[list, list]:
        """Wall and reference seconds of the samples timed since the last call."""
        probes = self._probes + [self.probe()]
        ref = [wall * 2.0 * PROBE_REF_S / (probes[k] + probes[k + 1])
               for k, wall in enumerate(self._walls)]
        walls = self._walls
        self._probes, self._walls = [], []
        return walls, ref


def bare_gram(shape: tuple, seed: int):
    """A callable computing ``V.T @ V`` on random unit columns of ``shape``."""
    v = np.random.default_rng(seed).standard_normal(shape)
    v /= np.linalg.norm(v, axis=0)
    return lambda: v.T @ v


def closed_loop(workload, clock: HostClock, seconds: float, count: int | None = None,
                span=None, gram=None) -> dict:
    """Run ops back to back for ``seconds`` (at least MIN_OPS), or exactly ``count``.

    With ``gram``, a bare Gram is timed after every op, so the calibration
    samples the same stretch of host time as the ops.  Returns the outputs
    (None for an op that raised) and the wall and reference seconds of the
    ops that returned and of the Grams.
    """
    outputs = []
    start = time.perf_counter()
    k = 0
    while True:
        op = functools.partial(workload.op, k)
        if span is not None:
            op = functools.partial(_in_span, span, op)
        try:
            outputs.append(clock.time(op))
        except Exception:  # a raising op is a failed op; the loop goes on
            if None not in outputs:
                traceback.print_exc()
            outputs.append(None)
        if gram is not None:
            clock.time(gram)
        k += 1
        if count is not None and k >= count:
            break
        if count is None and time.perf_counter() - start >= seconds and k >= MIN_OPS:
            break
    walls, ref = clock.series()
    step = 1 if gram is None else 2
    done = [out is not None for out in outputs]
    return {"outputs": outputs,
            "wall": [w for w, ok in zip(walls[::step], done) if ok],
            "ref": [r for r, ok in zip(ref[::step], done) if ok],
            "gram_wall": walls[1::step] if gram else [],
            "gram_ref": ref[1::step] if gram else []}


def _in_span(span, op):
    with span("op"):
        return op()


def _p90(values: list) -> float:
    # Inclusive: interpolate between observed samples, never beyond the largest.
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_untraced(workload, seconds: float, seed: int) -> dict:
    clock = HostClock()
    for _ in range(SETUP_REPEATS):
        clock.time(workload.setup)
    setup_wall, setup_ref = clock.series()
    loop = closed_loop(workload, clock, seconds, gram=bare_gram(workload.gram_shape, seed))
    _require_some_ops(loop)
    failed, digest = workload.check(loop["outputs"])
    ref = loop["ref"]
    p50 = statistics.median(ref)
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "ops_per_s": len(ref) / sum(ref),
        "op_p50_s": p50,
        "op_p90_s": _p90(ref),
        "detect_over_gram": p50 / statistics.median(loop["gram_ref"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = loop["wall"]
    return {"attempted": len(loop["outputs"]), "failed": failed, "digest": digest,
            "metrics": metrics,
            "samples": {"ops": len(loop["outputs"]), "setups": SETUP_REPEATS},
            "wall": {"setup_s": statistics.median(setup_wall),
                     "op_p50_s": statistics.median(wall), "op_p90_s": _p90(wall),
                     "gram_s": statistics.median(loop["gram_wall"])}}


def _work_counters() -> dict:
    return {"synth.make_dataset": lambda spec, *a, **k: spec.num_points,
            "data.load_csv_matrix": lambda path, *a, **k: os.path.getsize(path)}


def _require_some_ops(loop: dict) -> None:
    if not loop["ref"]:
        raise SystemExit("error: every operation raised; no timings to report")


def run_traced(workload, seconds: float, seed: int, trace_path: str) -> dict:
    tr = tracing.Tracer(work=_work_counters(), memory_layer="detector")
    tr.install()
    try:
        with tr.bench_span("setup"):
            workload.setup()
    finally:
        tr.uninstall()
    setup_spans = tr.take()

    clock = HostClock()
    untraced = closed_loop(workload, clock, seconds / 2.0,
                           gram=bare_gram(workload.gram_shape, seed))
    _require_some_ops(untraced)
    failed, digest = workload.check(untraced["outputs"])
    count = len(untraced["outputs"])

    tr.install()
    try:
        traced = closed_loop(workload, clock, 0.0, count=count, span=tr.bench_span)
        op_spans = tr.take()
        tracemalloc.start()
        try:
            closed_loop(workload, clock, 0.0, count=1)
        finally:
            tracemalloc.stop()
        tr.take()
    finally:
        tr.uninstall()
    more_failed, _ = workload.check(traced["outputs"])
    failed += more_failed
    gram = statistics.median(untraced["gram_wall"])

    self_s, calls = tracing.self_times(op_spans)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0) / count
        metrics[f"{layer}.calls"] = calls.get(layer, 0) / count

    def work(spans, name):
        return sum(r[tracing.WORK] for r in spans if r[tracing.NAME] == name)

    def inclusive(spans, name):
        return sum(r[tracing.END] - r[tracing.START] for r in spans
                   if r[tracing.NAME] == name)

    spans = setup_spans + op_spans
    columns, synth_s = work(spans, "make_dataset"), inclusive(spans, "make_dataset")
    csv_bytes, csv_s = work(spans, "load_csv_matrix"), inclusive(spans, "load_csv_matrix")
    run_s = inclusive(op_spans, "run_experiment")
    metrics.update({
        "angles.gram_passes_equiv": metrics["angles.self_s"] / gram,
        "detector.peak_alloc_mb": tr.peak_bytes / 1e6,
        "synth.columns_per_s": columns / synth_s if synth_s else 0.0,
        "data.csv_mb_per_s": csv_bytes / 1e6 / csv_s if csv_s else 0.0,
        "experiments.overhead_frac": self_s.get("experiments", 0.0) / run_s if run_s else 0.0,
        "tracing.overhead_frac": sum(traced["ref"]) / sum(untraced["ref"]) - 1.0,
        "gram_floor_s": gram,
    })
    with open(trace_path, "w") as fh:
        for phase, phase_spans in (("setup", setup_spans), ("ops", op_spans)):
            for rec in phase_spans:
                fh.write(json.dumps({"phase": phase, "id": rec[0], "parent": rec[1],
                                     "layer": rec[2], "name": rec[3], "start": rec[4],
                                     "end": rec[5], "work": rec[6]}) + "\n")
    return {"attempted": 2 * count, "failed": failed, "digest": digest,
            "metrics": metrics, "trace_file": os.path.relpath(trace_path, ROOT),
            "samples": {"ops": count, "traced_ops": count},
            "accounting": {"traced_wall_s": sum(traced["wall"]),
                           "self_total_s": sum(self_s.values())}}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> dict:
    """Run one workload in this process; returns the result and its context."""
    load_roma()
    import workloads

    workdir = os.path.join(HERE, "_work", f"{workload_name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[workload_name](seed, workdir, **(sizes or {}))
        if trace:
            out_dir = os.path.join(HERE, "_out")
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"trace-{workload_name}-seed{seed}.jsonl")
            result = run_traced(wl, seconds, seed, path)
        else:
            result = run_untraced(wl, seconds, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(workload=workload_name, seed=seed, seconds=seconds,
                  trace=int(trace), machine=machine_block())
    return result


def main(argv=None) -> int:
    load_roma()
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    names = PER_LAYER if args.trace else END_TO_END
    context = {k: v for k, v in result.items() if k not in ("metrics", "attempted", "failed")}
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit(name)}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
