"""In-memory span tracing of esbiii's layers, from outside the program.

The tracer replaces public functions at the module attributes where their
callers look them up (for example ``esbiii.fit.solve_coordinate``, which
``_ascend`` reads from the fit module's globals) with wrappers that record a
span per call.  A span is ``[name, start, end, parent, job, attrs]``; spans
of one benchmark job share the job's index.  The per-layer metrics are
derived from the spans after the run.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

def _size(value):
    return int(np.size(value))


def _elems_arg1(args, kwargs):
    return {"elems": _size(args[1])}


def _elems_data(args, kwargs):
    return {"elems": int(args[1].n)}


# (module, attribute, span name, attrs taken from the arguments, attrs taken
# from the result).  Each site is where a caller looks the function up.
SITES = (
    # fit and special_math
    ("esbiii.fit", "fit_ml", "fit.fit_ml", None, lambda r: {"cycles": r.cycles}),
    ("esbiii.cli", "fit_ml", "fit.fit_ml", None, lambda r: {"cycles": r.cycles}),
    ("esbiii.fit", "solve_coordinate", "fit.solve_coordinate",
     lambda a, k: {"which": a[1]}, None),
    ("esbiii.fit", "moment_init", "fit.moment_init", None, None),
    ("esbiii.fit", "find_root", "special_math.find_root", None,
     lambda r: {"iterations": r.iterations}),
    ("esbiii.fit", "loglik", "fit.loglik", _elems_data, None),
    ("esbiii.cli", "loglik", "fit.loglik", _elems_data, None),
    ("esbiii.fit", "score", "fit.score", _elems_data, None),
    # distribution and burr3
    *(("esbiii.distribution", name, f"distribution.{name}", _elems_arg1, None)
      for name in ("pdf", "logpdf", "cdf", "quantile")),
    ("esbiii.distribution", "sample", "distribution.sample",
     lambda a, k: {"elems": int(a[1])}, None),
    *(("esbiii.cli", name, f"distribution.{name}", _elems_arg1, None)
      for name in ("pdf", "cdf", "quantile")),
    ("esbiii.cli", "sample", "distribution.sample", lambda a, k: {"elems": int(a[1])}, None),
    ("esbiii.distribution", "burr3_quantile", "burr3.burr3_quantile", _elems_arg1, None),
    # gof, robustness and cli
    ("esbiii.cli", "compare_models", "gof.compare_models", None, None),
    ("esbiii.gof", "ks_statistic", "gof.ks_statistic", lambda a, k: {"elems": int(a[0].n)}, None),
    ("esbiii.cli", "ecdf", "gof.ecdf", None, None),
    ("esbiii.cli", "build_score_report", "robustness.build_score_report", None, None),
    ("esbiii.cli", "read_values", "cli.read_values", None, lambda r: {"elems": _size(r)}),
    ("esbiii.cli", "render_document", "cli.render_document", None, None),
    *(("esbiii.cli", f"cmd_{name}", f"cli.cmd_{name}", None, None)
      for name in ("sample", "fit", "gof", "eval", "diagnose")),
)


class Tracer:
    """Collects spans while installed; restore() puts the originals back."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._saved = []
        self._modules = None

    def install(self, modules):
        self._modules = modules
        for modname, attr, name, from_args, from_result in SITES:
            module = modules[modname]
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, from_args, from_result))

    def restore(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Puts the originals back for the duration of a with block."""
        self.restore()
        try:
            yield
        finally:
            self.install(self._modules)

    def set_job(self, job):
        self._job = job

    def _wrap(self, orig, name, from_args, from_result):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            attrs = from_args(args, kwargs) if from_args else {}
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._job, attrs]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                attrs["raised"] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter()
            if from_result:
                attrs.update(from_result(result))
            return result

        return traced


ACTIVE_COORDS = 5  # no benchmark fit pins c, so every cycle solves five coordinates
COORDS = ("mu", "sigma", "c", "k", "eps")
CMDS = ("sample", "fit", "gof", "eval", "diagnose")


def per_layer(spans, rounds, bytes_written):
    """Per-layer metrics per round, from the spans of `rounds` identical rounds."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_s[span[3]] += span[2] - span[1]

    def select(name, top_level_only=False):
        """Spans called `name`; top_level_only drops calls made inside distribution."""
        return [
            i for i, s in enumerate(spans)
            if s[0] == name and not (
                top_level_only and s[3] is not None
                and spans[s[3]][0].startswith("distribution."))
        ]

    def total(name, top_level_only=False):
        return sum(spans[i][2] - spans[i][1] for i in select(name, top_level_only))

    def ns_per_elem(name, top_level_only=False):
        elems = sum(spans[i][5].get("elems", 0) for i in select(name, top_level_only))
        return 1e9 * total(name, top_level_only) / elems if elems else 0.0

    def self_s(indices):
        return sum(spans[i][2] - spans[i][1] - child_s[i] for i in indices)

    m = {}
    solves = select("fit.solve_coordinate")
    for coord in COORDS:
        m[f"fit.solve_coordinate.{coord}.s"] = self_s(
            [i for i in solves if spans[i][5]["which"] == coord]
        )
    m["fit.solve_coordinate.calls"] = len(solves)
    m["fit.solve_coordinate.raised"] = sum("raised" in spans[i][5] for i in solves)
    m["fit.moment_init.s"] = total("fit.moment_init")
    fits = select("fit.fit_ml")
    m["fit.search_other_s"] = self_s(fits)
    cycles = sum(spans[i][5].get("cycles", 0) for i in fits)
    m["fit.cycles_reported"] = cycles
    m["fit.useful_cycle_share"] = cycles / (len(solves) / ACTIVE_COORDS) if solves else 0.0
    roots = select("special_math.find_root")
    m["special_math.find_root.calls"] = len(roots)
    m["special_math.find_root.iterations"] = sum(spans[i][5].get("iterations", 0) for i in roots)
    m["special_math.find_root.s"] = total("special_math.find_root")
    for name in ("pdf", "logpdf", "cdf", "quantile", "sample"):
        m[f"distribution.{name}.ns_per_elem"] = ns_per_elem(f"distribution.{name}", True)
    m["burr3.burr3_quantile.ns_per_elem"] = ns_per_elem("burr3.burr3_quantile")
    m["fit.loglik.ns_per_elem"] = ns_per_elem("fit.loglik")
    m["fit.score.ns_per_elem"] = ns_per_elem("fit.score")
    m["gof.compare_models.s"] = total("gof.compare_models")
    m["gof.ks_statistic.ns_per_elem"] = ns_per_elem("gof.ks_statistic")
    m["gof.ecdf.s"] = total("gof.ecdf")
    m["robustness.build_score_report.s"] = total("robustness.build_score_report")
    m["cli.read_values.ns_per_line"] = ns_per_elem("cli.read_values")
    m["cli.render_document.s"] = total("cli.render_document")
    cmds = []
    for name in CMDS:
        cmds += select(f"cli.cmd_{name}")
        m[f"cli.cmd_{name}.s"] = total(f"cli.cmd_{name}")
    m["cli.format_self_s"] = self_s(cmds)
    m["cli.bytes_written"] = bytes_written

    # sums cover every round; ratios and the per-chain byte count do not
    for k, v in m.items():
        if unit(k) in ("s", "count"):
            v /= rounds
        m[k] = int(v) if unit(k) in ("count", "bytes") else v
    return m


def unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ns_per_elem", "ns_per_line")):
        return "ns"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"
