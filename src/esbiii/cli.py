"""Command-line interface.

Five subcommands: fit, sample, eval, diagnose, gof.  Structured results go
out as JSON documents (validated by schemas/output.schema.json); curves
and samples go out as CSV with a commented manifest header.  All floats
are emitted with 17 significant digits so round-tripping loses nothing.

Exit codes: 0 success, 2 unusable input (parse or domain errors),
3 fit did not converge (the result document is still written),
4 degenerate data (constant sample, too few observations).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import shlex
import sys

import numpy as np

from . import __version__
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


def _g17(x):
    return format(float(x), ".17g")


def _timestamp():
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        t = datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc)
    else:
        t = datetime.datetime.now(tz=datetime.timezone.utc)
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
        m["timestamp_utc"] = _timestamp()
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


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(args, doc):
    _write_text(getattr(args, "out", None), render_document(doc))


# -- input parsing ----------------------------------------------------------


def read_values(path, column=None):
    """Read one float per line, or one delimited column (1-based index).

    Blank lines and lines starting with '#' are skipped.  Comma or
    whitespace delimiters are both accepted.  Raises ParseError with the
    offending line number.
    """
    values = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, 1):
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


def _params_dict(p):
    return {"mu": p.mu, "sigma": p.sigma, "c": p.c, "k": p.k, "eps": p.eps}


def _gof_block(data, p, ll, free_params, label):
    model = ModelFit(
        label=label,
        cdf=lambda y: cdf(p, y),
        loglik=ll,
        free_params=free_params,
    )
    rep = compare_models(data, [model])[0]
    print(f"note: {KS_PVALUE_CAVEAT}", file=sys.stderr)
    return {
        "model_label": rep.model_label,
        "n": rep.n,
        "ks_stat": rep.ks_stat,
        "ks_pvalue": rep.ks_pvalue,
        "loglik": rep.loglik,
        "aic": rep.aic,
        "caveat": rep.caveat,
    }


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
        "params": _params_dict(result.params),
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
    config = {"n": args.n, "seed": args.seed, **_params_dict(p)}
    manifest = build_manifest(args, config, seed=args.seed, timestamp=False)
    lines = _manifest_comment_lines(manifest)
    lines.append("# columns: value")
    lines.extend(_g17(v) for v in draws)
    _write_text(args.out, "\n".join(lines) + "\n")
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
    config = {"mode": args.mode, "grid": args.grid, **_params_dict(p)}
    manifest = build_manifest(args, config, timestamp=False)
    lines = _manifest_comment_lines(manifest)
    lines.append("# columns: x,value")
    lines.extend(f"{_g17(x)},{_g17(y)}" for x, y in zip(xs, ys))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _limit_dict(lim):
    return {
        "finite": lim.finite,
        "value_pos": lim.value_pos,
        "value_neg": lim.value_neg,
        "probes_pos": list(lim.probes_pos),
        "probes_neg": list(lim.probes_neg),
        "confirmed": lim.confirmed,
    }


def cmd_diagnose(args):
    p = Params(mu=0.0, sigma=1.0, c=args.c, k=args.k, eps=args.eps)
    report = build_score_report(p, lam=args.lam)
    config = {"c": args.c, "k": args.k, "eps": args.eps, "lambda": args.lam}
    doc = {
        "kind": "score_report",
        "params": _params_dict(p),
        "limits": {name: _limit_dict(report.limits[name]) for name in PSI_NAMES},
        "bounded": dict(report.bounded),
        "x0": report.x0,
        "x0_reason": report.x0_reason,
        "rho_conditions": {
            "zero_at_origin": report.rho.zero_at_origin,
            "unbounded": report.rho.unbounded,
            "sublinear": report.rho.sublinear,
            "mu_redescending": report.rho.mu_redescending,
        },
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
        "params": _params_dict(p),
        "free_params": free,
    }
    doc = {
        "kind": "gof_report",
        "params": _params_dict(p),
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
        lines = _manifest_comment_lines(manifest)
        lines.append("# columns: x,ecdf,model_cdf")
        lines.extend(
            f"{_g17(x)},{_g17(e)},{_g17(m)}" for x, e, m in zip(xs, emp, mod)
        )
        _write_text(overlay, "\n".join(lines) + "\n")
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


def main(argv=None):
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(raw)
    args._raw_argv = raw
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"esbiii: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except DegenerateDataError as exc:
        print(f"esbiii: error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NonConvergenceError as exc:
        print(f"esbiii: error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except EsbError as exc:
        print(f"esbiii: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
