"""Command-line interface.

Five subcommands: fit, sample, eval, diagnose, gof.  Structured results go
out as JSON documents (validated by schemas/output.schema.json); curves
and samples go out as CSV with a commented manifest header.  All floats
are emitted with 17 significant digits so round-tripping loses nothing:
every CSV value is exactly Python's '%.17g' % v, and a JSON number
format(v, '.17g') for a finite v.

Exit codes: 0 success, 2 unusable input (parse or domain errors, or a
SOURCE_DATE_EPOCH that is not a Unix time),
3 fit did not converge (the result document is still written),
4 degenerate data (constant sample, too few observations).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import shlex
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from ._g17 import line_values, table_text
from .burr3 import RNG_ALGORITHM
from .distribution import Params, cdf, pdf, quantile, sample
from .errors import DegenerateDataError, EsbError, NonConvergenceError, ParseError
from .fit import FitConfig, fit_ml, loglik
from .gof import KS_PVALUE_CAVEAT, Dataset, ModelFit, compare_models, ecdf
from .robustness import PSI_NAMES, build_score_report

__all__ = ["main"]

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DEGENERATE = 4

DECISIONS = (
    "skewness/kurtosis: raw moments about the location, skew=m3/m2^1.5, kurt=m4/m2^2",
    "aic = 2*free_params - 2*loglik",
    "ks p-value: asymptotic Kolmogorov law with the sqrt(n)+0.12+0.11/sqrt(n) factor; "
    "optimistic when parameters were estimated from the same data",
    "entropy assembly: both half-line contributions to integral(f^alpha) enter positively",
    "mode boundary: c*k == 1 is classified skew-unimodal",
    "density at y == mu: one-sided limit (0 if c*k>1, c*k/(2*sigma) if c*k==1, "
    "saturated sentinel if c*k<1)",
    "sampling: inverse-transform Burr III times a two-point sign-scale mixture",
)


# -- serialization ----------------------------------------------------------


def _float_repr(x):
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _render_json(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {_render_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        rows = [f"{pad}  {_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_repr(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_document(doc):
    return _render_json(doc) + "\n"


def _csv_bytes(manifest, columns, *values):
    """A CSV file's UTF-8 bytes: the manifest comments, a column header, then a row per element.

    Every value reads exactly as "%.17g" % v, nan and inf included.
    """
    lines = _manifest_comment_lines(manifest)
    lines.append(f"# columns: {columns}")
    return ("\n".join(lines) + "\n").encode("utf-8") + table_text(values)


def _timestamp():
    """The documents' UTC timestamp: SOURCE_DATE_EPOCH when it is set, else now.

    Raises ParseError when SOURCE_DATE_EPOCH is not a whole number of
    seconds that datetime can represent.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        t = datetime.datetime.now(tz=datetime.timezone.utc)
    else:
        try:
            t = datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc)
        except (ValueError, OverflowError, OSError) as exc:
            msg = f"SOURCE_DATE_EPOCH={epoch!r} is not a usable Unix time: {exc}"
            raise ParseError(msg) from None
    return t.isoformat(timespec="seconds")


def build_manifest(args, config, seed=None, timestamp=True):
    """Provenance block attached to every output document or file."""
    m = {
        "schema_version": "1",
        "tool": "esbiii",
        "tool_version": __version__,
        "command": "esbiii " + shlex.join(args._raw_argv),
        "seed": None if seed is None else int(seed),
        "rng_algorithm": None if seed is None else RNG_ALGORITHM,
        "config": config,
        "decisions": list(DECISIONS),
    }
    if timestamp:
        m["timestamp_utc"] = args._timestamp
    return m


def _manifest_comment_lines(manifest):
    # embedded CSV manifests skip the timestamp so that reruns with the
    # same seed produce byte-identical files
    lines = []
    for key, val in manifest.items():
        if key in ("timestamp_utc", "config"):
            continue
        if key == "decisions":
            for d in val:
                lines.append(f"# decision: {d}")
            continue
        lines.append(f"# {key}: {val}")
    return lines


def _write_bytes(path, data):
    """Write a document's or a CSV file's bytes to path, or to stdout's byte stream."""
    if path is None:
        sys.stdout.flush()  # text written to stdout before must come first
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _emit_json(args, doc):
    _write_bytes(getattr(args, "out", None), render_document(doc).encode("utf-8"))


# -- input parsing ----------------------------------------------------------


def _parsed_values(data):
    """The file's values when _g17 parses every line that is not empty or a '#' comment, else None.

    Stops at the first block of lines that holds any other line, so that a
    file outside _g17's grammar costs one block of its pass.
    """
    if not data or not data.isascii():
        return None
    b = np.frombuffer(data, np.uint8)
    out = [np.empty(0)]
    for starts, stops, values, parsed in line_values(data):
        skip = (stops == starts) | (b.take(starts, mode="clip") == ord("#"))
        if not (parsed | skip).all():
            return None
        out.append(values[parsed])
    values = np.concatenate(out)
    return values if values.size else None


def _text_lines(data):
    """The file's lines as text without their ends, split as universal newlines split them.

    Raises ParseError naming the line of the first byte that is not UTF-8.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"not UTF-8 text: {exc.reason}", line=line) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def read_values(path, column=None):
    """Read one float per line, or one delimited column (1-based index).

    Blank lines and lines starting with '#' are skipped.  Comma or
    whitespace delimiters are both accepted.  Lines end as universal
    newlines end them.  One UTF-8 byte-order mark at the start of the file
    is dropped; anywhere else it is part of its line.  Raises ParseError
    with the offending line number, for a file that is not UTF-8 too.

    Two whole-file passes come first when column is None or 1: _g17's,
    which takes a file of numbers in its strict decimal grammar (the CLI's
    own "%.17g" text among them), then one cast of every data line.  A line
    neither can take (a delimiter, a bad token, a non-finite value) sends
    the file to the per-line loop below, the only source of errors.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    data = data.removeprefix(b"\xef\xbb\xbf")
    if column in (None, 1):
        values = _parsed_values(data)
        if values is not None:
            return values
    lines = _text_lines(data)
    if column in (None, 1):
        # one cast of the data lines, which numpy parses by float(); float()
        # refuses a delimited line, so a delimiter, a bad token or a
        # non-finite value takes the loop below
        tokens = [s for s in map(str.strip, lines) if s and not s.startswith("#")]
        try:
            values = np.array(tokens, dtype=float)
        except ValueError:
            values = None
        if values is not None and values.size and np.isfinite(values).all():
            return values
    values = []
    for lineno, raw in enumerate(lines, 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        parts = [t.strip() for t in (s.split(",") if "," in s else s.split())]
        if column is None:
            if len(parts) != 1:
                raise ParseError(
                    f"{len(parts)} columns found; select one with --column",
                    line=lineno,
                )
            tok = parts[0]
        else:
            if column < 1 or column > len(parts):
                raise ParseError(
                    f"column {column} out of range (line has {len(parts)})",
                    line=lineno,
                )
            tok = parts[column - 1]
        try:
            v = float(tok)
        except ValueError:
            raise ParseError(f"not a number: {tok!r}", line=lineno) from None
        if not math.isfinite(v):
            raise ParseError(f"non-finite value: {tok!r}", line=lineno)
        values.append(v)
    if not values:
        raise ParseError(f"no data rows in {path}")
    return np.asarray(values, dtype=float)


def _parse_param_tuple(text):
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 5:
        raise ParseError("expected five comma-separated values: mu,sigma,c,k,eps")
    try:
        mu, sigma, c, k, eps = (float(t) for t in parts)
    except ValueError as exc:
        raise ParseError(f"bad parameter tuple {text!r}: {exc}") from None
    return Params(mu=mu, sigma=sigma, c=c, k=k, eps=eps)


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError("grid must be lo:hi:steps")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ParseError(f"bad grid {text!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParseError("grid needs finite lo < hi")
    if steps < 2:
        raise ParseError("grid needs at least 2 steps")
    return lo, hi, steps


def _params_from_flags(args, mu=None, sigma=None):
    return Params(
        mu=args.mu if mu is None else mu,
        sigma=args.sigma if sigma is None else sigma,
        c=args.c,
        k=args.k,
        eps=args.eps,
    )


def _gof_block(data, p, ll, free_params, label):
    model = ModelFit(
        label=label,
        cdf=lambda y: cdf(p, y),
        loglik=ll,
        free_params=free_params,
    )
    rep = compare_models(data, [model])[0]
    print(f"note: {KS_PVALUE_CAVEAT}", file=sys.stderr)
    return asdict(rep)


# -- subcommands ------------------------------------------------------------


def cmd_fit(args):
    values = read_values(args.input, args.column)
    data = Dataset(values, label=args.label or os.path.basename(args.input), source=args.input)
    cfg = FitConfig(
        max_cycles=args.max_cycles,
        param_tol=args.tol,
        init=_parse_param_tuple(args.init) if args.init else None,
        fixed_c=args.fixed_c,
    )
    result = fit_ml(data, cfg)
    config = {
        "input": args.input,
        "column": args.column,
        "label": data.label,
        "fixed_c": args.fixed_c,
        "init": args.init,
        "param_tol": args.tol,
        "max_cycles": args.max_cycles,
    }
    doc = {
        "kind": "fit_result",
        "params": asdict(result.params),
        "loglik": result.loglik,
        "aic": result.aic,
        "free_params": result.free_params,
        "converged": result.converged,
        "cycles": result.cycles,
        "score_norm": result.score_norm,
        "trace": [[i, ll] for i, ll in result.trace],
        "gof": _gof_block(data, result.params, result.loglik, result.free_params, data.label),
        "manifest": build_manifest(args, config),
    }
    _emit_json(args, doc)
    if not result.converged:
        print("esbiii: fit did not converge; result written anyway", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_sample(args):
    p = _params_from_flags(args)
    draws = sample(p, args.n, args.seed)
    config = {"n": args.n, "seed": args.seed, **asdict(p)}
    manifest = build_manifest(args, config, seed=args.seed, timestamp=False)
    _write_bytes(args.out, _csv_bytes(manifest, "value", draws))
    return EXIT_OK


def cmd_eval(args):
    p = _params_from_flags(args)
    lo, hi, steps = _parse_grid(args.grid)
    xs = np.linspace(lo, hi, steps)
    if args.mode == "pdf":
        ys = pdf(p, xs)
    elif args.mode == "cdf":
        ys = cdf(p, xs)
    else:
        if not (0.0 < lo and hi < 1.0):
            raise ParseError("quantile grid must lie inside (0, 1)")
        ys = quantile(p, xs)
    config = {"mode": args.mode, "grid": args.grid, **asdict(p)}
    manifest = build_manifest(args, config, timestamp=False)
    _write_bytes(args.out, _csv_bytes(manifest, "x,value", xs, ys))
    return EXIT_OK


def cmd_diagnose(args):
    p = Params(mu=0.0, sigma=1.0, c=args.c, k=args.k, eps=args.eps)
    report = build_score_report(p, lam=args.lam)
    config = {"c": args.c, "k": args.k, "eps": args.eps, "lambda": args.lam}
    doc = {
        "kind": "score_report",
        "params": asdict(p),
        "limits": {name: asdict(report.limits[name]) for name in PSI_NAMES},
        "bounded": dict(report.bounded),
        "x0": report.x0,
        "x0_reason": report.x0_reason,
        "rho_conditions": asdict(report.rho),
        "tail": {
            "lam": report.tail_lam,
            "heavy": report.tail_heavy,
            "probes": [[x, v] for x, v in report.tail_probes],
            "tail_index_estimate": report.tail_index_estimate,
        },
        "manifest": build_manifest(args, config),
    }
    _emit_json(args, doc)
    return EXIT_OK


def cmd_gof(args):
    values = read_values(args.input, args.column)
    data = Dataset(values, label=args.label or os.path.basename(args.input), source=args.input)
    if args.params:
        p = _parse_param_tuple(args.params)
        free = 5
    else:
        try:
            with open(args.fit_result, "r", encoding="utf-8") as fh:
                fitdoc = json.load(fh)
            pd = fitdoc["params"]
            vals = {name: pd[name] for name in ("mu", "sigma", "c", "k", "eps")}
            free = fitdoc.get("free_params", 5)
        except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read fit result {args.fit_result}: {exc}") from exc
        for name, v in vals.items():
            if type(v) not in (int, float):  # bool is a subclass of int
                raise ParseError(f"params.{name} must be a JSON number, got {v!r}")
        p = Params(**vals)
        if type(free) is not int or free < 1:
            raise ParseError(f"free_params must be a positive integer, got {free!r}")
    ll = loglik(p, data)
    config = {
        "input": args.input,
        "column": args.column,
        "label": data.label,
        "params": asdict(p),
        "free_params": free,
    }
    doc = {
        "kind": "gof_report",
        "params": asdict(p),
        "free_params": free,
        "gof": _gof_block(data, p, ll, free, data.label),
        "manifest": build_manifest(args, config),
    }
    _emit_json(args, doc)

    overlay = args.overlay_out
    if overlay is None and args.out is not None:
        overlay = args.out + ".overlay.csv"
    if overlay is not None:
        xs = data.sorted_values
        emp = ecdf(data, xs)
        mod = cdf(p, xs)
        manifest = build_manifest(args, config, timestamp=False)
        _write_bytes(overlay, _csv_bytes(manifest, "x,ecdf,model_cdf", xs, emp, mod))
    return EXIT_OK


# -- wiring -----------------------------------------------------------------


def _add_param_flags(sp, with_loc=True):
    if with_loc:
        sp.add_argument("--mu", type=float, required=True, help="location")
        sp.add_argument("--sigma", type=float, required=True, help="scale (> 0)")
    sp.add_argument("--c", type=float, required=True, help="first shape (> 0)")
    sp.add_argument("--k", type=float, required=True, help="second shape (> 0)")
    sp.add_argument("--eps", type=float, required=True, help="skewness in (-1, 1)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esbiii",
        description="Epsilon-skew Burr III distributions: fit, sample, evaluate, diagnose.",
    )
    parser.add_argument("--version", action="version", version=f"esbiii {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("fit", help="maximum-likelihood fit of a data file")
    sp.add_argument("--input", required=True, help="data file, one value per line")
    sp.add_argument("--column", type=int, default=None, help="1-based column selector")
    sp.add_argument("--label", default=None, help="dataset label for reports")
    sp.add_argument("--fixed-c", dest="fixed_c", type=float, default=None,
                    help="pin the first shape and fit the remaining four")
    sp.add_argument("--init", default=None, metavar="MU,SIGMA,C,K,EPS",
                    help="starting point (default: quantile-based)")
    sp.add_argument("--tol", type=float, default=1e-6, help="relative parameter tolerance")
    sp.add_argument("--max-cycles", dest="max_cycles", type=int, default=500)
    sp.add_argument("--out", default=None, help="write JSON here (default stdout)")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("sample", help="draw a reproducible sample")
    _add_param_flags(sp)
    sp.add_argument("--n", type=int, required=True, help="number of draws")
    sp.add_argument("--seed", type=int, required=True, help="RNG seed")
    sp.add_argument("--out", default=None, help="write CSV here (default stdout)")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("eval", help="tabulate pdf, cdf or quantile on a grid")
    sp.add_argument("--mode", choices=("pdf", "cdf", "quantile"), required=True)
    sp.add_argument("--grid", required=True, metavar="LO:HI:STEPS")
    _add_param_flags(sp)
    sp.add_argument("--out", default=None, help="write CSV here (default stdout)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("diagnose", help="robustness diagnostics of the score functions")
    _add_param_flags(sp, with_loc=False)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0,
                    help="exponential rate for the heavy-tail probe")
    sp.add_argument("--out", default=None, help="write JSON here (default stdout)")
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("gof", help="goodness of fit of fixed parameters to a data file")
    sp.add_argument("--input", required=True, help="data file, one value per line")
    sp.add_argument("--column", type=int, default=None, help="1-based column selector")
    sp.add_argument("--label", default=None, help="dataset label for reports")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--params", default=None, metavar="MU,SIGMA,C,K,EPS")
    group.add_argument("--fit-result", dest="fit_result", default=None,
                       help="JSON document produced by `esbiii fit`")
    sp.add_argument("--out", default=None, help="write JSON here (default stdout)")
    sp.add_argument("--overlay-out", dest="overlay_out", default=None,
                    help="ECDF/model-CDF overlay CSV (default: <out>.overlay.csv)")
    sp.set_defaults(func=cmd_gof)
    return parser


# parse_args leaves a parser as it found it, so one serves every call
_parser = functools.cache(build_parser)


def main(argv=None):
    raw = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(raw)
    args._raw_argv = raw
    try:
        # the JSON documents' stamp, taken before the command runs so that
        # a malformed SOURCE_DATE_EPOCH costs no work
        args._timestamp = _timestamp() if args.cmd in ("fit", "gof", "diagnose") else None
        return args.func(args)
    except EsbError as exc:
        print(f"esbiii: error: {exc}", file=sys.stderr)
        if isinstance(exc, DegenerateDataError):
            return EXIT_DEGENERATE
        if isinstance(exc, NonConvergenceError):
            return EXIT_NO_CONVERGENCE
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
