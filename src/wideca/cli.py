"""Command-line front end: generation, analysis, fitting, and table sweeps.

Commands: ``gen uniform|powerlaw|signal``, ``embed``, ``analyze``, ``fit``,
``reproduce``. Every output file is accompanied by the full run
configuration: JSON reports embed it under "config", CSV outputs get a
``<name>.meta.json`` sidecar. Re-running the same configuration reproduces
identical numeric payloads; the CSV files are the canonical payload (JSON
reports additionally carry wall-clock timings, which naturally vary).
``analyze`` loads the matrix and runs ``wideca.analyze`` once; its
``elapsed_seconds`` times that call, the model, decomposition and report.

Exit codes: 0 success, 1 validation error (including bad flags) or not
enough memory, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .contributions import analyze
from .errors import NumericalError, ValidationError
from .generators import (DEFAULT_BODY_START, DEFAULT_EXPONENT,
                         DEFAULT_HEAD_MASS, EmpiricalMarginals,
                         ParametricMarginals, embed_signal,
                         gen_powerlaw_boolean, gen_randomwalk_signal,
                         gen_uniform)
from .powerlaw import ccdf, fit_exponent
from .store import (DENSE_CSV, FORMATS, TRIPLET, column_blocks, column_sums,
                    load_marginals, load_matrix, load_signal, resolve_workers,
                    save_matrix, save_signal)
from . import tables


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as validation errors,
    keeping the exit-code contract (argparse itself would exit 2)."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _bool_flag(value: str) -> bool:
    if value not in ("true", "false"):
        raise argparse.ArgumentTypeError("expected 'true' or 'false'")
    return value == "true"


def _dims(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")


def _config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()}


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_meta(out_path: str, config: dict) -> None:
    _write_json(out_path + ".meta.json", {"version": __version__,
                                          "config": config})


def _check_outputs(source: str, *outputs: str | None) -> None:
    """Refuse a command whose output would overwrite the file it reads."""
    same = [o for o in outputs if o and os.path.realpath(o) == os.path.realpath(source)]
    if same:
        raise ValidationError(f"output {same[0]} would overwrite the input {source}")


def _base(path: str) -> str:
    for ext in (".json", ".csv"):
        if path.endswith(ext):
            return path[: -len(ext)]
    return path


# -- commands -----------------------------------------------------------------

def _cmd_gen_uniform(args) -> int:
    m = gen_uniform(args.rows, args.cols, args.seed)
    save_matrix(m, args.output, args.format)
    _write_meta(args.output, _config(args))
    print(f"wrote {args.rows}x{args.cols} uniform matrix to {args.output}")
    return 0


def _cmd_gen_powerlaw(args) -> int:
    if args.marginals is not None:
        _check_outputs(args.marginals, args.output)
        source: EmpiricalMarginals | ParametricMarginals = \
            EmpiricalMarginals(load_marginals(args.marginals))
    else:
        source = ParametricMarginals(exponent=args.exponent,
                                     body_start=args.body_start,
                                     head_mass=args.head_mass)
    m = gen_powerlaw_boolean(args.rows, args.cols, args.seed, marginals=source)
    save_matrix(m, args.output, args.format)
    _write_meta(args.output, _config(args))
    density = m.nnz / (m.n_rows * m.n_cols)
    print(f"wrote {args.rows}x{args.cols} boolean matrix to {args.output} "
          f"({m.nnz} ones, density {100 * density:.2f}%)")
    return 0


def _cmd_gen_signal(args) -> int:
    sig = gen_randomwalk_signal(args.len, args.start, args.seed,
                                p_repeat=args.p_repeat, tick=args.tick)
    save_signal(sig, args.output)
    _write_meta(args.output, _config(args))
    print(f"wrote signal of length {sig.length} to {args.output} "
          f"(range {sig.values.min():g}..{sig.values.max():g})")
    return 0


def _cmd_embed(args) -> int:
    _check_outputs(args.signal, args.output)
    sig = load_signal(args.signal)
    m = embed_signal(sig, args.windows, args.stride, args.length)
    save_matrix(m, args.output, args.format)
    _write_meta(args.output, _config(args))
    print(f"wrote {m.n_rows}x{m.n_cols} embedding to {args.output}")
    return 0


def _cmd_analyze(args) -> int:
    args.workers = resolve_workers(args.workers)
    base = _base(args.output)
    _check_outputs(args.input, base + ".json", base + ".csv")
    m = load_matrix(args.input, args.format)
    t0 = time.perf_counter()
    report = analyze(m, args.include_trivial, args.workers).report
    elapsed = time.perf_counter() - t0
    doc = {
        "version": __version__,
        "config": _config(args),
        "elapsed_seconds": elapsed,
        "excluded_cols": [int(j) for j in report.excluded_cols],
        "report": report.to_dict(),
        # a non-finite gap serializes as null (strict JSON has no inf/nan)
        "diagnostics": {
            "relative_denominator": report.relative_denominator,
            "inertia_gap": report.inertia_gap
            if math.isfinite(report.inertia_gap) else None,
            "blocks": sum(1 for _ in column_blocks(m.n_rows, m.n_cols)),
        },
    }
    _write_json(base + ".json", doc)
    header, row = report.to_csv_row()
    with open(base + ".csv", "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + row + "\n")
    print(f"analyzed {m.n_rows}x{m.n_cols} in {elapsed:.2f}s: "
          f"abs_mean={report.abs_mean:.6g} rel_mean={report.rel_mean:.6g} "
          f"nu={report.nu}")
    return 0


def _cmd_fit(args) -> int:
    _check_outputs(args.input, args.output, args.points_out)
    m = load_matrix(args.input, args.format)
    sums = column_sums(m)
    fit = fit_exponent(sums, x_min=args.x_min, x_max=args.x_max)
    doc = {"version": __version__, "config": _config(args),
           "fit": fit.to_dict()}
    _write_json(args.output, doc)
    if args.points_out:
        xs, fr = ccdf(sums)
        with open(args.points_out, "w", encoding="utf-8") as fh:
            fh.write("x,ccdf\n" + "".join(f"{x!r},{f!r}\n" for x, f
                                            in zip(xs.tolist(), fr.tolist())))
    print(f"alpha={fit.alpha:.4f} r2={fit.r_squared:.4f} "
          f"window=[{fit.x_min:g}, {fit.x_max:g}] points={fit.n_points}")
    return 0


def _cmd_reproduce(args) -> int:
    args.workers = resolve_workers(args.workers)
    rows = tables.sweep(args.table, args.dims, seeds=args.seeds,
                        base_seed=args.seed, exponent=args.exponent,
                        include_trivial=args.include_trivial,
                        workers=args.workers)
    cols = list(rows[0].keys())
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) for c in cols) + "\n")
    _write_meta(args.output, _config(args))
    for row in rows:
        print(" ".join(f"{c}={row[c]:.6g}" if isinstance(row[c], float)
                       else f"{c}={row[c]}" for c in cols[:6]))
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="wideca",
                     description="Correspondence analysis and concentration "
                                 "statistics for very wide matrices")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, seed=True, out=True, fmt=None, workers=False, trivial=False):
        if seed:
            p.add_argument("--seed", type=int, default=1, help="RNG seed")
        if out:
            p.add_argument("-o", "--output", required=True, help="output path")
        if fmt is not None:
            p.add_argument("--format", choices=FORMATS, default=fmt,
                           help="matrix file format")
        if workers:
            p.add_argument("--workers", type=int, default=None,
                           help="threads for the column-block passes, the "
                                "calling one included, each running BLAS on "
                                "one thread (default: usable CPUs, at most "
                                "2; outputs do not depend on this)")
        if trivial:
            p.add_argument("--include-trivial", type=_bool_flag,
                           default=True, metavar="true|false",
                           help="count the trivial axis (default true)")

    gen = sub.add_parser("gen", help="generate synthetic data")
    gen_sub = gen.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    g_uni = gen_sub.add_parser("uniform", help="dense uniform [0,1) matrix")
    g_uni.add_argument("--rows", type=int, required=True)
    g_uni.add_argument("--cols", type=int, required=True)
    common(g_uni, fmt=DENSE_CSV)
    g_uni.set_defaults(func=_cmd_gen_uniform)

    g_pl = gen_sub.add_parser("powerlaw", help="sparse boolean matrix with "
                                               "power-law column sums")
    g_pl.add_argument("--rows", type=int, required=True)
    g_pl.add_argument("--cols", type=int, required=True)
    g_pl.add_argument("--exponent", type=float, default=DEFAULT_EXPONENT,
                      help="density exponent of the marginal law (finite, "
                           "above 1)")
    g_pl.add_argument("--body-start", type=int, default=DEFAULT_BODY_START,
                      help="smallest column sum of the power-law body")
    g_pl.add_argument("--head-mass", type=float, default=DEFAULT_HEAD_MASS,
                      help="probability mass of sums below the body")
    g_pl.add_argument("--marginals", default=None,
                      help="file of empirical column sums (one whole number "
                           "per line); overrides the parametric law")
    common(g_pl, fmt=TRIPLET)
    g_pl.set_defaults(func=_cmd_gen_powerlaw)

    g_sig = gen_sub.add_parser("signal", help="quantized random-walk signal")
    g_sig.add_argument("--len", type=int, required=True)
    g_sig.add_argument("--start", type=float, default=6800.0)
    g_sig.add_argument("--p-repeat", type=float, default=0.9)
    g_sig.add_argument("--tick", type=float, default=0.5)
    common(g_sig)
    g_sig.set_defaults(func=_cmd_gen_signal)

    emb = sub.add_parser("embed", help="sliding-window embedding of a signal")
    emb.add_argument("--signal", required=True, help="signal file, one value "
                                                     "per line")
    emb.add_argument("--windows", type=int, required=True)
    emb.add_argument("--stride", type=int, required=True)
    emb.add_argument("--length", type=int, required=True)
    common(emb, seed=False, fmt=DENSE_CSV)
    emb.set_defaults(func=_cmd_embed)

    ana = sub.add_parser("analyze", help="factor the matrix and report "
                                         "contribution statistics")
    ana.add_argument("input", help="matrix file")
    common(ana, seed=False, fmt=DENSE_CSV, workers=True, trivial=True)
    ana.set_defaults(func=_cmd_analyze)

    fit = sub.add_parser("fit", help="fit a power-law exponent to column sums")
    fit.add_argument("input", help="matrix file")
    fit.add_argument("--x-min", type=float, default=1.0)
    fit.add_argument("--x-max", type=float, default=None,
                     help="upper cutoff (default: 99th percentile; "
                          "'inf' disables)")
    fit.add_argument("--points-out", default=None,
                     help="optional CSV dump of the CCDF points")
    common(fit, seed=False, fmt=DENSE_CSV)
    fit.set_defaults(func=_cmd_fit)

    rep = sub.add_parser("reproduce", help="run an evaluation sweep")
    rep.add_argument("--table", required=True, choices=sorted(tables.TABLE_DIMS),
                     help="1: uniform clouds; 2-synthetic: random-walk "
                          "embeddings; 3: power-law exponents; 4: power-law "
                          "concentration")
    rep.add_argument("--dims", type=_dims, default=None,
                     help="comma-separated dimensionalities")
    rep.add_argument("--seeds", type=int, default=3, help="seeds per setting")
    rep.add_argument("--exponent", type=float, default=DEFAULT_EXPONENT)
    rep.add_argument("--allow-large", action="store_true",
                     help="accepted and has no effect: a dimension runs "
                          "when its arrays fit in physical memory")
    common(rep, workers=True, trivial=True)
    rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
