"""The four workloads. Each is a closed loop with one client: an op starts
only after the previous one has finished.

Every layer is timed from outside, by spans around calls into its public
entry points: ``python -m wideca.cli`` for whole commands and top-level
``wideca`` names for the library. Table drivers and block iterators inside
the package are never called, so the benchmark survives their refactoring.

A workload provides:

* ``setup(tracer)``: builds the inputs; timed, repeated by the runner;
* ``prepare()``: untimed; computes what each op's output is checked against;
* ``op(tracer)``: one timed operation; returns named sub-times in seconds
  and raises on any failed check;
* ``traced_extras(tracer)``: traced runs only; layer calls that attribute
  the op's time (subprocess workloads) and the worker-contract check;
* ``peak_rss_mb()``.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checks import (REF_RTOL, CheckError, check_report, compare,
                    direct_abs_stats, read_csv_rows, stored_reference)
from spans import NullTracer

CLI_TIMEOUT_S = 150.0

# Sizes per mode. "smoke" is a tiny version of every workload for the
# benchmark's own tests.
SIZES = {
    "full": {
        "dense": (86, 1_000_000),
        "sparse": (425, 105_200),
        "cli_uniform": (86, 20_000),
        "cli_powerlaw": (425, 10_520),
        # table id -> (dims, seeds); dims are the package defaults, passed
        # explicitly so the in-process replica and the CLI always agree.
        "sweep": {"1": ((100, 1000, 10_000), 10),
                  "2-synthetic": ((100, 1000, 10_000), 3),
                  "3": ((1052, 10_520), 3),
                  "4": ((1052, 10_520), 3)},
    },
    "smoke": {
        "dense": (86, 3000),
        "sparse": (425, 2104),
        "cli_uniform": (86, 300),
        "cli_powerlaw": (425, 1052),
        "sweep": {"1": ((100,), 2), "2-synthetic": ((100,), 1),
                  "3": ((1052,), 1), "4": ((1052,), 1)},
    },
}

# Evaluation settings of the reproduce tables, as documented in the README.
UNIFORM_ROWS = 86
EMBED_WINDOWS, EMBED_STRIDE = 86, 1000
SIGNAL_LEN, SIGNAL_START, SIGNAL_P_REPEAT = 95_011, 6800.0, 0.9
POWERLAW_ROWS = 425
STAT_COLS = ("abs_mean", "abs_sd", "abs_median", "rel_mean", "rel_sd",
             "rel_median", "max_proj_cols", "max_proj_rows")


def w_gflop(matrix) -> float:
    """Nominal flops of accumulating W, 2 * sum_j nnz_j^2, in units of 1e9."""
    if hasattr(matrix, "indptr"):
        nnz = np.diff(matrix.indptr).astype(np.float64)
        return 2.0 * float(nnz @ nnz) / 1e9
    nnz = np.count_nonzero(matrix, axis=0).astype(np.float64)
    return 2.0 * float(nnz @ nnz) / 1e9


def pipeline(w, tracer, m, workers: int = 1):
    """build_frequency_model -> decompose -> concentration_report."""
    with tracer.span("engine.model"):
        fm = w.build_frequency_model(m)
    fd, rep = analyze_model(w, tracer, fm, workers)
    return fm, fd, rep


def analyze_model(w, tracer, fm, workers: int = 1, suffix: str = ""):
    kw = {"workers": workers} if workers != 1 else {}
    with tracer.span("engine.decompose" + suffix):
        fd = w.decompose(fm, **kw)
    with tracer.span("contributions.report" + suffix):
        rep = w.concentration_report(fm, fd, **kw)
    return fd, rep


def takes_workers(w) -> bool:
    return all("workers" in inspect.signature(f).parameters
               for f in (w.decompose, w.concentration_report))


class Workload:
    def __init__(self, w, seed: int, size: str, workdir: Path, src: Path):
        self.w = w
        self.seed = seed
        self.dims = SIZES[size]
        self.workdir = workdir
        self.src = src
        self.stored = stored_reference(size, self.name, seed)
        self.null = NullTracer()
        # Set by traced_extras when the package no longer takes ``workers``.
        self.w2_applicable = True

    def check_stored(self, out) -> None:
        if self.stored is not None:
            compare(out, self.stored, REF_RTOL, f"stored reference seed {self.seed}")


# -- in-memory workloads -------------------------------------------------------

class InMemory(Workload):
    """One matrix held in memory; each op analyzes it from a fresh, validated
    CountMatrix so no cached row or column sums carry over between ops."""

    sparse = False

    def setup(self, tracer) -> None:
        self.raw = None
        with tracer.span("generators.gen"):
            m = self.generate()
        raw = m.sparse if self.sparse else m.dense
        fingerprint = (raw.shape, float(raw.sum()))
        if getattr(self, "fingerprint", fingerprint) != fingerprint:
            raise CheckError("generator is not deterministic for one seed")
        self.fingerprint = fingerprint
        self.raw = raw

    def prepare(self) -> None:
        self.oracle = direct_abs_stats(self.raw)
        self.gflop = w_gflop(self.raw)
        self.first = None

    def op(self, tracer) -> dict:
        w = self.w
        with tracer.span("store.validate"):
            m = (w.CountMatrix(sparse=self.raw) if self.sparse
                 else w.CountMatrix(dense=self.raw))
        with tracer.span("store.column_sums"):
            sums = w.column_sums(m)
        fm, fd, rep = pipeline(w, tracer, m)
        out = {"report": rep.to_dict()}
        if self.sparse:
            with tracer.span("powerlaw.fit"):
                out["fit"] = w.fit_exponent(sums).to_dict()
        tracer.count("engine.w_gflop", self.gflop)
        check_report(out["report"], self.oracle,
                     abs_sum=float(rep.per_column_absolute.sum()))
        if self.first is None:
            self.check_stored(out)
            self.first = out
        else:
            compare(out, self.first, 0.0, "repeat of op 1")
        self.last = (fm, rep)
        return {}

    def traced_extras(self, tracer) -> None:
        """Worker contract: workers=2 must match workers=1 bit for bit."""
        if not takes_workers(self.w):
            self.w2_applicable = False
            return
        fm, rep1 = self.last
        _, rep2 = analyze_model(self.w, tracer, fm, workers=2, suffix=".w2")
        for name in ("per_column_absolute", "per_column_relative",
                     "per_row_absolute", "per_row_relative",
                     "axis_column_inertia"):
            if not np.array_equal(getattr(rep1, name), getattr(rep2, name)):
                raise CheckError(f"workers=2 changed {name}")
        if rep1.to_dict() != rep2.to_dict():
            raise CheckError("workers=2 changed the report fields")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Dense1M(InMemory):
    name = "dense-1m"

    def generate(self):
        return self.w.gen_uniform(*self.dims["dense"], self.seed)


class Sparse105K(InMemory):
    name = "sparse-105k"
    sparse = True

    def generate(self):
        return self.w.gen_powerlaw_boolean(*self.dims["sparse"], self.seed)


# -- subprocess workloads --------------------------------------------------------

class Subprocess(Workload):
    """Whole commands, each run as ``python -m wideca.cli`` in a child process."""

    def __init__(self, *args):
        super().__init__(*args)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.max_rss_mb = 0.0

    def cli(self, tracer, span: str, *argv) -> tuple[float, str]:
        """Run one command; returns (wall seconds, its output)."""
        log = self.workdir / "cli.log"
        with tracer.span(span), open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "wideca.cli", *map(str, argv)],
                cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = log.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0:
            raise CheckError(f"{' '.join(map(str, argv))} exited "
                             f"{proc.returncode}: {text.strip()[-300:]}")
        if span != "cli.startup":
            self.max_rss_mb = max(self.max_rss_mb, usage.ru_maxrss / 1024.0)
        return seconds, text

    def setup(self, tracer) -> None:
        """Fills the bytecode cache; measures one interpreter start-up."""
        _, text = self.cli(tracer, "cli.startup", "--version")
        if text.strip() != self.w.__version__:
            raise CheckError(f"--version printed {text.strip()!r}")

    def peak_rss_mb(self) -> float:
        return self.max_rss_mb


class CliText(Subprocess):
    """gen and analyze round trips through both text formats."""

    name = "cli-text"

    def inputs(self):
        w = self.w
        return (("dense-csv", "u.csv", lambda: w.gen_uniform(
                    *self.dims["cli_uniform"], self.seed)),
                ("triplet", "p.tpl", lambda: w.gen_powerlaw_boolean(
                    *self.dims["cli_powerlaw"], self.seed)))

    def prepare(self) -> None:
        self.expected = {}
        self.oracle = {}
        for fmt, _, make in self.inputs():
            m = make()
            _, _, rep = pipeline(self.w, self.null, m)
            self.expected[fmt] = rep.to_dict()
            self.oracle[fmt] = direct_abs_stats(m.sparse if m.is_sparse
                                                else m.dense)

    def op(self, tracer) -> dict:
        r, c = self.dims["cli_uniform"]
        pr, pc = self.dims["cli_powerlaw"]
        gen_args = {"dense-csv": ("uniform", "--rows", r, "--cols", c),
                    "triplet": ("powerlaw", "--rows", pr, "--cols", pc)}
        gen_s = analyze_s = 0.0
        out = {}
        for fmt, path, _ in self.inputs():
            s, _ = self.cli(tracer, f"cli.gen.{fmt}", "gen", *gen_args[fmt],
                            "--seed", self.seed, "--format", fmt, "-o", path)
            gen_s += s
            base = f"report-{fmt}"
            s, _ = self.cli(tracer, f"cli.analyze.{fmt}", "analyze", path,
                            "--format", fmt, "-o", base)
            analyze_s += s
            with open(self.workdir / f"{base}.json", encoding="utf-8") as fh:
                tracer.count("cli.analyze_reported_s",
                             json.load(fh)["elapsed_seconds"])
            (row,) = read_csv_rows(self.workdir / f"{base}.csv")
            check_report(row, self.oracle[fmt], where=f"analyze {fmt}")
            compare(row, self.expected[fmt], REF_RTOL, f"analyze {fmt} vs in-process")
            out[fmt] = row
        self.check_stored(out)
        return {"gen_s": gen_s, "analyze_s": analyze_s}

    def traced_extras(self, tracer) -> None:
        """The same work as the op's commands, as in-process layer calls."""
        w = self.w
        self.cli(tracer, "cli.startup", "--version")
        for fmt, path, make in self.inputs():
            target = self.workdir / f"inproc-{path}"
            with tracer.span("generators.gen"):
                m = make()
            with tracer.span(f"store.save.{fmt}"):
                w.save_matrix(m, str(target), fmt)
            tracer.count(f"store.file_mb.{fmt}", target.stat().st_size / 1e6)
            with tracer.span(f"store.load.{fmt}"):
                m = w.load_matrix(str(target), fmt)
            with tracer.span("store.column_sums"):
                w.column_sums(m)
            _, _, rep = pipeline(w, tracer, m)
            tracer.count("engine.w_gflop",
                         w_gflop(m.sparse if m.is_sparse else m.dense))
            compare(rep.to_dict(), self.expected[fmt], REF_RTOL,
                    f"in-process {fmt} after save/load")


class SweepSmall(Subprocess):
    """One round of the four ``reproduce`` tables at their default dims."""

    name = "sweep-small"

    def argv(self, table: str, out: str) -> list:
        dims, seeds = self.dims["sweep"][table]
        return ["reproduce", "--table", table,
                "--dims", ",".join(map(str, dims)), "--seeds", seeds,
                "--seed", self.seed, "-o", out]

    def prepare(self) -> None:
        self.expected = self.replica(self.null)

    def op(self, tracer) -> dict:
        out = {}
        for table in self.dims["sweep"]:
            path = f"table-{table}.csv"
            self.cli(tracer, f"cli.reproduce.{table}", *self.argv(table, path))
            out[table] = read_csv_rows(self.workdir / path)
        compare(out, self.expected, REF_RTOL, "reproduce vs layer calls")
        self.check_stored(out)
        return {}

    def traced_extras(self, tracer) -> None:
        """In-process ``reproduce`` against the same layer calls made
        directly; the difference is the table drivers' own time."""
        from wideca import cli
        self.cli(tracer, "cli.startup", "--version")
        inproc = 0.0
        for table in self.dims["sweep"]:
            path = self.workdir / f"inproc-table-{table}.csv"
            with tracer.span("tables.reproduce") as span, \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([str(a) for a in self.argv(table, str(path))])
            inproc += span.seconds
            if code != 0:
                raise CheckError(f"in-process reproduce --table {table} "
                                 f"returned {code}")
            compare(read_csv_rows(path), self.expected[table], REF_RTOL,
                    f"in-process table {table}")
        with tracer.span("tables.replica") as span:
            self.replica(tracer)
        tracer.count("tables.self_s", inproc - span.seconds)

    def replica(self, tracer) -> dict:
        """The sweep's (dim, seed) layer calls made directly, aggregated the
        way ``reproduce`` documents: seed mean, then per-seed min and max."""
        w = self.w
        spec = self.dims["sweep"]
        seeds = {t: [self.seed + i for i in range(n)]
                 for t, (_, n) in spec.items()}

        def concentration(m, inertia_identity: bool = True) -> dict:
            _, _, rep = pipeline(w, tracer, m)
            d = rep.to_dict()
            check_report(d, abs_sum=float(rep.per_column_absolute.sum()),
                         where="sweep report",
                         inertia_identity=inertia_identity)
            tracer.count("engine.w_gflop",
                         w_gflop(m.sparse if m.is_sparse else m.dense))
            return {c: d[c] for c in STAT_COLS}

        def gen(fn, *args, **kw):
            with tracer.span("generators.gen"):
                return fn(*args, **kw)

        out = {}
        rows = []
        for dim in spec["1"][0]:
            rows.append(aggregate(dim, [concentration(
                gen(w.gen_uniform, UNIFORM_ROWS, dim, s)) for s in seeds["1"]]))
        out["1"] = rows

        signals = [gen(w.gen_randomwalk_signal, SIGNAL_LEN, SIGNAL_START, s,
                       p_repeat=SIGNAL_P_REPEAT) for s in seeds["2-synthetic"]]
        out["2-synthetic"] = [aggregate(dim, [concentration(
            gen(w.embed_signal, sig, EMBED_WINDOWS, EMBED_STRIDE, dim),
            inertia_identity=False) for sig in signals]) for dim in spec["2-synthetic"][0]]

        marg = w.ParametricMarginals()
        rows = []
        for dim in spec["3"][0]:
            per = []
            for s in seeds["3"]:
                m = gen(w.gen_powerlaw_boolean, POWERLAW_ROWS, dim, s,
                        marginals=marg)
                with tracer.span("store.column_sums"):
                    sums = w.column_sums(m)
                with tracer.span("powerlaw.fit"):
                    fit = w.fit_exponent(sums, x_min=float(marg.body_start),
                                         x_max=float(np.percentile(sums, 90.0)))
                per.append({"exponent": -fit.alpha, "r_squared": fit.r_squared})
            rows.append(aggregate(dim, per))
        out["3"] = rows

        rows = []
        for dim in spec["4"][0]:
            per = []
            for s in seeds["4"]:
                m = gen(w.gen_powerlaw_boolean, POWERLAW_ROWS, dim, s,
                        marginals=marg)
                stats = concentration(m)
                stats["density"] = m.nnz / (m.n_rows * m.n_cols)
                per.append(stats)
            rows.append(aggregate(dim, per))
        out["4"] = rows
        return out


def aggregate(dim: int, per_seed: list[dict]) -> dict:
    row = {"dim": dim, "seeds": len(per_seed)}
    cols = list(per_seed[0])
    for c in cols:
        row[c] = float(np.array([s[c] for s in per_seed]).mean())
    for c in cols:
        vals = np.array([s[c] for s in per_seed])
        row[f"{c}_min"] = float(vals.min())
        row[f"{c}_max"] = float(vals.max())
    return row


WORKLOADS = {cls.name: cls for cls in (Dense1M, Sparse105K, CliText, SweepSmall)}
