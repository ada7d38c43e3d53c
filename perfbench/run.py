"""wideca benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload dense-1m --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. The run sets up the workload's inputs ``SETUP_REPS`` times, runs
one untimed warm-up op, then runs ops back to back until ``--seconds`` have
passed, checks every op's output, and prints every metric by name with its
unit. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
traced run alternates untraced and traced ops, so it also reports the
overhead of tracing. Details, the machine and (traced runs) every span go
to ``.bench_results/`` in the checkout. ``--smoke`` runs tiny inputs, for
the benchmark's own tests.

BLAS runs one thread, here and in every command the run starts: on a
shared 2-vCPU host its default of one thread per CPU made ``dense-1m``
about 1.5 times as noisy from run to run (see ``README.md``).
"""

from __future__ import annotations

import os

# Before numpy loads OpenBLAS; child processes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from spans import NullTracer, Tracer, per_op_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
WORKLOAD_NAMES = ("dense-1m", "sparse-105k", "cli-text", "sweep-small")

END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MiB"))

# Per-layer metric -> the spans whose self time, summed per op, it reports.
SPAN_METRICS = {
    "generators.gen_s": ("generators.gen",),
    "store.validate_s": ("store.validate",),
    "store.column_sums_s": ("store.column_sums",),
    "store.save_s.dense-csv": ("store.save.dense-csv",),
    "store.save_s.triplet": ("store.save.triplet",),
    "store.load_s.dense-csv": ("store.load.dense-csv",),
    "store.load_s.triplet": ("store.load.triplet",),
    "engine.model_s": ("engine.model",),
    "engine.decompose_s": ("engine.decompose",),
    "contributions.report_s": ("contributions.report",),
    "engine.decompose_s.w2": ("engine.decompose.w2",),
    "contributions.report_s.w2": ("contributions.report.w2",),
    "powerlaw.fit_s": ("powerlaw.fit",),
    "cli.startup_s": ("cli.startup",),
    "cli.gen_s": ("cli.gen.dense-csv", "cli.gen.triplet"),
    "cli.analyze_s": ("cli.analyze.dense-csv", "cli.analyze.triplet"),
    "cli.reproduce_s": tuple(f"cli.reproduce.{t}"
                             for t in ("1", "2-synthetic", "3", "4")),
}
# Per-layer metric -> unit, for values counted per op rather than timed.
COUNT_METRICS = {
    "store.file_mb.dense-csv": "MB",
    "store.file_mb.triplet": "MB",
    "engine.w_gflop": "GFLOP",
    "cli.analyze_reported_s": "s",
    "tables.self_s": "s",
}
DERIVED_METRICS = {
    "store.load_mb_per_s.dense-csv": "MB/s",
    "store.load_mb_per_s.triplet": "MB/s",
    "engine.decompose_gflop_per_s": "GFLOP/s",
    "trace.overhead_pct": "%",
    "trace.spans_per_op": "count",
}
W2_METRICS = ("engine.decompose_s.w2", "contributions.report_s.w2")


def median_by_op(by_op: dict[str, float]) -> float:
    return statistics.median(by_op.values()) if by_op else 0.0


def layer_metrics(tracer: Tracer, op_s: list[float],
                  traced_op_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer values: medians over the ops that ran the layer; 0.0 where
    no op of this workload runs it (for ``.w2``, also where the package no
    longer takes ``workers``)."""
    totals = per_op_totals(tracer.spans)
    out: dict[str, tuple[float, str]] = {}
    for metric, names in SPAN_METRICS.items():
        by_op: dict[str, float] = {}
        for name in names:
            for op, s in totals.get(name, {}).items():
                by_op[op] = by_op.get(op, 0.0) + s
        out[metric] = (median_by_op(by_op), "s")
    for metric, unit in COUNT_METRICS.items():
        out[metric] = (median_by_op(tracer.counts.get(metric, {})), unit)

    def ratio(num: str, den: str) -> float:
        return out[num][0] / out[den][0] if out[den][0] > 0 else 0.0
    traced_ops = {s.op for s in tracer.spans if s.op.startswith("op-")}
    derived = {
        "store.load_mb_per_s.dense-csv": ratio("store.file_mb.dense-csv",
                                               "store.load_s.dense-csv"),
        "store.load_mb_per_s.triplet": ratio("store.file_mb.triplet",
                                             "store.load_s.triplet"),
        "engine.decompose_gflop_per_s": ratio("engine.w_gflop",
                                              "engine.decompose_s"),
        "trace.overhead_pct": 100.0 * (statistics.median(traced_op_s)
                                       / statistics.median(op_s) - 1.0),
        "trace.spans_per_op": sum(s.op in traced_ops for s in tracer.spans)
                              / len(traced_ops),
    }
    for metric, unit in DERIVED_METRICS.items():
        out[metric] = (derived[metric], unit)
    return out


def machine(w) -> dict:
    """Where and on what the numbers were taken."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "wideca": w.__version__,
        "blas": "unknown",
        "blas_threads": "unknown",
        "git_commit": git_commit(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    info["blas_threads"] = blas_threads()
    return info


def blas_threads() -> int | str:
    """Thread count in effect in the loaded OpenBLAS."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_package():
    """Import wideca from this checkout's src/, and nowhere else."""
    if not (SRC / "wideca" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'wideca'}; "
                         f"run from a wideca source checkout")
    sys.path.insert(0, str(SRC))
    import wideca
    if Path(wideca.__file__).resolve().parent != (SRC / "wideca").resolve():
        raise SystemExit(f"error: imported wideca from {wideca.__file__}, "
                         f"not from {SRC}")
    return wideca


def run(workload, seconds: float, trace: bool) -> dict:
    null = NullTracer()
    tracer = Tracer() if trace else null
    setup_s = []
    for k in range(SETUP_REPS):
        tracer.op = f"setup-{k}"
        t0 = time.perf_counter()
        workload.setup(tracer)
        setup_s.append(time.perf_counter() - t0)
    workload.prepare()

    op_s, traced_op_s, errors = [], [], []
    # One warm-up op, checked but not timed: a run's first op is its slowest.
    try:
        workload.op(null)
    except Exception:
        errors.append(f"warm-up: {traceback.format_exc(limit=3)}")
    # Peak memory of one op: later ops of the sparse workload raise the
    # process's high-water mark in steps of up to 12 %, so a reading taken
    # at the end would depend on how many ops ran.
    peak_rss_mb = workload.peak_rss_mb()
    parts: dict[str, list[float]] = {}
    start = time.perf_counter()
    i = 0
    # A traced run alternates untraced and traced ops, at least one of each.
    while i < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and i % 2 == 1
        t = tracer if traced else null
        t.op = f"op-{i}"
        t0 = time.perf_counter()
        try:
            with t.span("op"):
                sub = workload.op(t)
            dt = time.perf_counter() - t0
            if traced:
                with t.span("extras"):
                    workload.traced_extras(t)
        except Exception:  # an op that raises is a failed op; keep measuring
            dt = time.perf_counter() - t0
            errors.append(f"op-{i}: {traceback.format_exc(limit=3)}")
        else:
            for k, v in sub.items():
                parts.setdefault(k, []).append(v)
        (traced_op_s if traced else op_s).append(dt)
        i += 1
    return {"setup_s": setup_s, "op_s": op_s, "traced_op_s": traced_op_s,
            "parts": parts, "errors": errors, "attempted": i + 1,
            "peak_rss_mb": peak_rss_mb,
            "tracer": tracer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    w = import_package()
    from workloads import WORKLOADS
    size = "smoke" if args.smoke else "full"
    tag = f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](w, args.seed, size, workdir, SRC)
        res = run(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(res["errors"])
    op_s = statistics.median(res["op_s"])
    end_to_end = {"setup_s": (statistics.median(res["setup_s"]), "s"),
                  "op_s": (op_s, "s"),
                  "peak_rss_mb": (res["peak_rss_mb"], "MiB")}
    extra = {"fail_ratio": (failed / res["attempted"], "ratio"),
             "ops": (len(res["op_s"]), "count")}
    if wl.name in ("dense-1m", "sparse-105k"):
        extra["analyze_s"] = (op_s, "s")
    elif wl.name == "sweep-small":
        extra["sweep_s"] = (op_s, "s")
    for k, v in res["parts"].items():
        extra[k] = (statistics.median(v), "s")
    if args.trace:
        shown = layer_metrics(res["tracer"], res["op_s"], res["traced_op_s"])
    else:
        shown = end_to_end

    info = machine(w)
    printed = {**end_to_end, **extra, **shown}
    doc = {"workload": wl.name, "size": size, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "machine": info,
           "setup_s_samples": res["setup_s"], "op_s_samples": res["op_s"],
           "traced_op_s_samples": res["traced_op_s"],
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in printed.items()},
           "errors": res["errors"]}
    if args.trace:
        doc["spans"] = res["tracer"].to_json()
        doc["counts"] = res["tracer"].counts
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)

    for err in res["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    print("machine: " + json.dumps(info))
    for name, (value, unit) in printed.items():
        note = ""
        if name in W2_METRICS and not wl.w2_applicable:
            note = "  (n/a: the package no longer takes workers)"
        print(f"{name:34s} {value:14.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
