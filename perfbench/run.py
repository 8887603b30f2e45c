"""Benchmark of esbiii, one epsilon-skew Burr III shape regime per workload.

    python3 perfbench/run.py --workload spiked --seed 1 --seconds 30 --trace 0

Each workload is one of the paper's three shape regimes: bimodal (c*k > 1),
boundary (c*k = 1) and spiked (c*k < 1).  A round runs, for that regime:

* kernels: pdf, logpdf, cdf, quantile and sample, then fit.loglik and
  fit.score, at n = 1e6 on the regime's truth with mu = 0.3, sigma = 1.7;
* fits: default fit_ml on sample(Params(0, 1, c, k, eps), 2000, seed) for
  seeds 1-3;
* the CLI chain: esbiii.cli.main in-process in a work directory (sample,
  gof, eval, fit, gof, diagnose; see chain_commands).

The jobs run as: chain, fit 1, fit 2, fit 3, chain, with two kernel passes
and a repeated set-up before each.  A run does at least one round, and another
only while the rounds so far suggest it ends within --seconds.  Times are
scaled to a reference CPU speed by the probe in speed.py; the wall times,
and the ratio of wall to scaled time per kind of job, are kept in the
result file.  After the rounds every output is checked against the scipy
oracles in oracle.py.

The last line of stdout is one JSON object: correct, attempted, failed and
the end-to-end metrics (--trace 0) or the per-layer metrics from spans.py
(--trace 1).  The full result, with machine info, goes to perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SOURCE_DATE_EPOCH"] = "1500000000"

import argparse
import contextlib
import functools
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

REGIMES = {
    "bimodal": (2.0, 1.0, -0.3),
    "boundary": (5.0, 0.2, 0.4),
    "spiked": (5.0, 0.1, 0.2),
}
FIT_N = 2000
FIT_SEEDS = (1, 2, 3)
KERNEL_N = 1_000_000
KERNEL_MU, KERNEL_SIGMA = 0.3, 1.7
PROB_LO = 1e-6  # quantile probabilities stay in [PROB_LO, 1 - PROB_LO]
# The draws of the `sample` kernel come from a fixed seed, so the KS check at
# the 0.1% level passes or fails the same way on every run.
SAMPLE_SEED = 2017
CHAIN_N = 100_000
CHAIN_SEED = 7
CHAIN_FIT = (0.0, 1.0, 3.0, 0.5, 0.3)
CHAIN_FIT_N = 200
PDF_GRID = f"-8:8.5:{CHAIN_N}"  # does not hit mu = 0.3 exactly
PROB_GRID = f"1e-06:0.999999:{CHAIN_N}"
KERNELS = ("pdf", "logpdf", "cdf", "quantile", "sample")
KERNEL_PASSES = 2  # before each job: one scaled 1e6-element call varies by about 10%
LOGLIK = ("loglik", "score")

E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "eval_ns_per_elem": "ns",
    "loglik_ns_per_elem": "ns",
    "cli_chain_s": "s",
}

# Times `import esbiii` in a fresh interpreter and scales it by a burst of
# the speed probe's loop, timed in the same process right after.
IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import esbiii\n"
    "wall = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "loop = statistics.median(speed.loop_time() for _ in range(speed.BURST))\n"
    "print(wall * speed.REF_LOOP_S / loop, wall, esbiii.__file__)\n"
)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def import_program():
    """Import esbiii from this checkout's src/, never from elsewhere."""
    if not (SRC / "esbiii" / "__init__.py").is_file():
        log(f"no esbiii package under {SRC}")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import esbiii
    import esbiii.cli
    import esbiii.distribution
    import esbiii.fit
    import esbiii.gof

    if Path(esbiii.__file__).resolve().parent != (SRC / "esbiii").resolve():
        log(f"esbiii imported from {esbiii.__file__}, not from {SRC}")
        sys.exit(2)
    return sys.modules


class Inputs:
    """Everything a round reads, built from the regime and the seed."""

    def __init__(self, mods, regime, seed):
        dist, gof = mods["esbiii.distribution"], mods["esbiii.gof"]
        c, k, eps = REGIMES[regime]
        self.fit_truth = dist.Params(0.0, 1.0, c, k, eps)
        self.fit_data = [
            gof.Dataset(dist.sample(self.fit_truth, FIT_N, s), label=f"{regime}-{s}")
            for s in FIT_SEEDS
        ]
        self.truth = dist.Params(KERNEL_MU, KERNEL_SIGMA, c, k, eps)
        rng = np.random.default_rng(seed)
        u = rng.random(KERNEL_N)
        v = rng.random(KERNEL_N)
        u[u == 0.0] = 0.5
        # Burr III inverse transform times the two-point sign-scale, written
        # here from the definition rather than taken from esbiii
        z = np.expm1(-np.log(u) / k) ** (-1.0 / c)
        x = KERNEL_MU + KERNEL_SIGMA * z * np.where(v < 0.5 * (1.0 + eps), 1.0 + eps, -(1.0 - eps))
        # score is undefined at y == mu, which tiny z can round onto
        x[x == KERNEL_MU] = np.nextafter(KERNEL_MU, np.inf)
        self.x = x
        self.data = gof.Dataset(x, label=f"{regime}-kernel")
        self.prob = rng.uniform(PROB_LO, 1.0 - PROB_LO, KERNEL_N)


def _flags(mu, sigma, c, k, eps):
    return ["--mu", repr(mu), "--sigma", repr(sigma), "--c", repr(c), "--k", repr(k),
            "--eps", repr(eps)]


def chain_commands(regime):
    c, k, eps = REGIMES[regime]
    flags = _flags(KERNEL_MU, KERNEL_SIGMA, c, k, eps)
    truth = ",".join(repr(v) for v in (KERNEL_MU, KERNEL_SIGMA, c, k, eps))
    cmds = [
        ["sample", *flags, "--n", str(CHAIN_N), "--seed", str(CHAIN_SEED), "--out", "draws.csv"],
        ["gof", "--input", "draws.csv", "--params", truth, "--out", "gof_truth.json"],
        ["eval", "--mode", "pdf", f"--grid={PDF_GRID}", *flags, "--out", "pdf.csv"],
        ["eval", "--mode", "cdf", f"--grid={PDF_GRID}", *flags, "--out", "cdf.csv"],
        ["eval", "--mode", "quantile", f"--grid={PROB_GRID}", *flags, "--out", "quantile.csv"],
    ]
    for s in FIT_SEEDS:
        cmds += [
            ["sample", *_flags(*CHAIN_FIT), "--n", str(CHAIN_FIT_N), "--seed", str(s),
             "--out", f"small{s}.csv"],
            ["fit", "--input", f"small{s}.csv", "--out", f"fit{s}.json"],
            ["gof", "--input", f"small{s}.csv", "--fit-result", f"fit{s}.json",
             "--out", f"gof{s}.json"],
        ]
    cmds.append(["diagnose", "--c", repr(c), "--k", repr(k), "--eps", repr(eps),
                 "--out", "diagnose.json"])
    return cmds


def run_chain(regime, workdir, command):
    """Runs the chain's commands in a new workdir; returns their results.

    command(argv) runs one command and returns what the caller keeps of it.
    """
    workdir.mkdir(parents=True)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        return [command(argv) for argv in chain_commands(regime)]
    finally:
        os.chdir(here)


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


class Run:
    """Rounds of one workload, with their timings, outputs and failures.

    Every timing is kept as a (scaled, wall) pair: seconds at the speed
    probe's reference speed, and plain wall seconds.  by_kind sums them over
    each kind of job (set-up, kernel, fit, cli), so that the result file
    shows whether the probe scales every kind alike.
    """

    def __init__(self, mods, regime, seed, probe, tracer):
        self.mods = mods
        self.regime = regime
        self.seed = seed
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.setup = []
        self.fit_s = [[] for _ in FIT_SEEDS]
        self.fit_out = [None] * len(FIT_SEEDS)
        self.passes = []
        self.kernel_out = {}
        self.chain_s = []
        self.chain_dirs = []
        self.chain_rc = []
        self.jobs = []
        self.ops = []  # (label, times) of every operation that returned
        self.by_kind = {}
        self.inputs = self.set_up()

    def set_up(self):
        """One set-up: esbiii's import in a fresh interpreter, then the inputs."""
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        import_s, import_wall, origin = child.stdout.split()
        if Path(origin).resolve().parent != (SRC / "esbiii").resolve():
            raise RuntimeError(f"import probe loaded esbiii from {origin}")
        build, inputs = self._timed("set-up", Inputs, self.mods, self.regime, self.seed)
        child = (float(import_s), float(import_wall))
        self._count("set-up", child)
        self.setup.append(add(child, build))
        return inputs

    def _count(self, kind, times):
        self.by_kind[kind] = add(self.by_kind.get(kind, (0.0, 0.0)), times)

    def _timed(self, kind, fn, *args):
        """Times fn(*args) between two bursts of the speed probe."""
        self.probe.burst()
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        self.probe.burst()
        times = (self.probe.scaled(t0, t1), t1 - t0)
        self._count(kind, times)
        return times, result

    def _op(self, label, kind, fn, *args):
        """Run one operation; returns (times, result), or None if it raised."""
        self.attempted += 1
        if self.tracer:
            self.tracer.set_job(len(self.jobs))
            self.jobs.append(label)
        try:
            done = self._timed(kind, fn, *args)
            self.ops.append((label, done[0]))
            return done
        except Exception:
            self.failed += 1
            log(f"{label} raised:\n{traceback.format_exc()}")
            return None

    def kernel_pass(self):
        dist, fit = self.mods["esbiii.distribution"], self.mods["esbiii.fit"]
        inp = self.inputs
        p = inp.truth
        calls = (
            ("pdf", lambda: dist.pdf(p, inp.x)),
            ("logpdf", lambda: dist.logpdf(p, inp.x)),
            ("cdf", lambda: dist.cdf(p, inp.x)),
            ("quantile", lambda: dist.quantile(p, inp.prob)),
            ("sample", lambda: dist.sample(p, KERNEL_N, SAMPLE_SEED)),
            ("loglik", lambda: fit.loglik(p, inp.data)),
            ("score", lambda: fit.score(p, inp.data)),
        )
        times = {}
        for name, call in calls:
            done = self._op(f"kernel {name}", "kernel", call)
            if done:
                times[name], self.kernel_out[name] = done
        self.passes.append(times)

    def fit_job(self, i):
        fit = self.mods["esbiii.fit"]
        data = self.inputs.fit_data[i]
        done = self._op(f"fit {data.label}", "fit", fit.fit_ml, data)
        if done:
            self.fit_s[i].append(done[0])
            self.fit_out[i] = done[1]

    def chain(self, workdir):
        """One chain; its time is the sum of its commands' times."""
        main = self.mods["esbiii.cli"].main

        def command(argv):
            done = self._op("esbiii " + " ".join(argv), "cli", main, argv)
            if done and done[1] != 0:
                self.failed += 1
                log(f"esbiii {' '.join(argv)} exited {done[1]}")
            return done

        done = run_chain(self.regime, workdir, command)
        codes = [None if d is None else d[1] for d in done]
        if all(rc == 0 for rc in codes):
            self.chain_s.append(functools.reduce(add, (d[0] for d in done)))
        self.chain_dirs.append(workdir)
        self.chain_rc.append(codes)

    def one_round(self, workdir):
        """One round: a chain, the three fits, a chain.

        KERNEL_PASSES kernel passes and a set-up come before each of those
        five jobs, so that their medians sample the whole round rather than
        one stretch.  The set-ups run untraced: their sample() calls are not
        the kernels'.
        """
        jobs = [("chain", None)] + [("fit", i) for i in range(len(FIT_SEEDS))] + [("chain", None)]
        for kind, i in jobs:
            for _ in range(KERNEL_PASSES):
                self.kernel_pass()
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                self.set_up()
            if kind == "fit":
                self.fit_job(i)
            else:
                self.chain(workdir / f"chain{len(self.chain_dirs)}")

    def end_to_end(self, which):
        """Medians over the repeats; which = 0 for scaled times, 1 for wall times."""
        def per_elem(names, p):
            return 1e9 * sum(p[n][which] for n in names) / (len(names) * KERNEL_N)

        e2e = {"setup_s": statistics.median(s[which] for s in self.setup)}
        if all(self.fit_s):
            e2e["fit_s"] = sum(statistics.median(t[which] for t in ts) for ts in self.fit_s)
        for metric, names in (("eval_ns_per_elem", KERNELS), ("loglik_ns_per_elem", LOGLIK)):
            done = [per_elem(names, p) for p in self.passes if all(n in p for n in names)]
            if done:
                e2e[metric] = statistics.median(done)
        if self.chain_s:
            e2e["cli_chain_s"] = statistics.median(t[which] for t in self.chain_s)
        return e2e

    # -- checks against the oracles --------------------------------------

    def check(self):
        import oracle  # scipy loads only now, after the timed rounds

        bad = []
        inp = self.inputs
        for i, res in enumerate(self.fit_out):
            if res is not None:
                bad += oracle.check_fit(
                    f"fit {inp.fit_data[i].label}", inp.fit_data[i].values, inp.fit_truth,
                    res.params, res.loglik, res.converged, res.trace)
        out = self.kernel_out
        p = inp.truth
        if all(name in out for name in ("pdf", "logpdf", "cdf")):
            bad += oracle.check_density(p, inp.x, out["pdf"], out["logpdf"], out["cdf"])
        if "quantile" in out:
            bad += oracle.check_quantile(p, inp.prob, out["quantile"])
        if "sample" in out:
            bad += oracle.check_draws(p, out["sample"])
        if "loglik" in out and "score" in out:
            bad += oracle.check_loglik_score(p, inp.x, out["loglik"], np.asarray(out["score"]))
        # the other chains are checked by being byte-identical to the first
        if all(rc == 0 for rc in self.chain_rc[0]):
            bad += check_chain(self.regime, self.chain_dirs[0])
        bad += check_identical(self.chain_dirs)
        return bad


def check_chain(regime, workdir):
    import jsonschema
    import oracle

    schema = json.loads((SRC / "esbiii" / "schemas" / "output.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    c, k, eps = REGIMES[regime]
    truth = oracle.params_of(dict(mu=KERNEL_MU, sigma=KERNEL_SIGMA, c=c, k=k, eps=eps))
    fit_truth = oracle.params_of(dict(zip(("mu", "sigma", "c", "k", "eps"), CHAIN_FIT)))
    tag = workdir.name
    bad = []
    docs = {}
    for path in sorted(workdir.glob("*.json")):
        docs[path.name] = json.loads(path.read_text())
        for err in validator.iter_errors(docs[path.name]):
            where = "/".join(str(part) for part in err.absolute_path) or "document"
            bad.append(f"{tag}/{path.name}: schema: {err.validator} fails at {where}")
    if bad:
        return bad  # the content checks below rely on the schema
    draws = oracle.read_csv(workdir / "draws.csv")[:, 0]
    bad += oracle.check_ks_doc(f"{tag}/gof_truth.json", docs["gof_truth.json"], draws, truth)
    bad += oracle.check_overlay(f"{tag}/gof_truth overlay", workdir / "gof_truth.json.overlay.csv",
                                draws, truth)
    for mode in ("pdf", "cdf", "quantile"):
        bad += oracle.check_eval_csv(f"{tag}/{mode}.csv", mode, workdir / f"{mode}.csv", truth)
    for s in FIT_SEEDS:
        values = oracle.read_csv(workdir / f"small{s}.csv")[:, 0]
        doc = docs[f"fit{s}.json"]
        fitted = oracle.params_of(doc["params"])
        bad += oracle.check_fit(f"{tag}/fit{s}.json", values, fit_truth, fitted, doc["loglik"],
                                doc["converged"], doc["trace"])
        bad += oracle.check_ks_doc(f"{tag}/gof{s}.json", docs[f"gof{s}.json"], values, fitted)
        bad += oracle.check_overlay(f"{tag}/gof{s} overlay", workdir / f"gof{s}.json.overlay.csv",
                                    values, fitted)
    return bad


def check_identical(dirs):
    """The same commands, run again in another directory, write the same bytes."""
    bad = []
    first = dirs[0]
    names = sorted(p.name for p in first.iterdir())
    for other in dirs[1:]:
        if sorted(p.name for p in other.iterdir()) != names:
            bad.append(f"{other.name}: file set differs from {first.name}")
            continue
        for name in names:
            if (first / name).read_bytes() != (other / name).read_bytes():
                bad.append(f"{other.name}/{name}: bytes differ from {first.name}")
    return bad


def machine_info():
    return {
        "nproc": os.cpu_count(),
        "kernel": f"{os.uname().sysname} {os.uname().release}",
        "machine": os.uname().machine,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def chain_bytes(workdir):
    return sum(p.stat().st_size for p in workdir.iterdir())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(REGIMES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    mods = import_program()
    tracer = spans.Tracer() if args.trace else None
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{name}-{os.getpid()}"
    probe = speed.SpeedProbe()
    probe.start()
    try:
        run = Run(mods, args.workload, args.seed, probe, tracer)
        if tracer:
            tracer.install(mods)
        rounds = 0
        start = time.perf_counter()
        try:
            while True:
                run.one_round(workdir / f"round{rounds}")
                rounds += 1
                spent = time.perf_counter() - start
                if spent + spent / rounds > args.seconds:
                    break
        finally:
            if tracer:
                tracer.restore()
        elapsed = time.perf_counter() - start
        probe.stop()
        e2e, wall = run.end_to_end(0), run.end_to_end(1)
        bad = run.check()
        bytes_written = chain_bytes(run.chain_dirs[-1])
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(E2E_UNITS) - set(e2e))
    if missing:
        log(f"no successful operation for {', '.join(missing)}")
        return 1
    for msg in bad:
        log(f"check failed: {msg}")
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "machine": machine_info(),
        "end_to_end": metrics,
        "end_to_end_wall": wall,
        "operations": [[label, wall_s, scaled_s] for label, (scaled_s, wall_s) in run.ops],
        "wall_over_scaled": {kind: w / s for kind, (s, w) in run.by_kind.items()},
        "check_failures": bad,
    }
    if tracer:
        layer = spans.per_layer(tracer.spans, rounds, bytes_written)
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in layer.items()}
        result["per_layer"] = metrics
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"jobs": run.jobs,
             "spans": [dict(zip(("name", "start", "end", "parent", "job", "attrs"), s))
                       for s in tracer.spans]}))
    log(f"{name}: {rounds} round(s) in {elapsed:.1f} s; end to end "
        + ", ".join(f"{k}={v:.6g} (wall {wall[k]:.6g})" for k, v in e2e.items()))
    line = {"correct": not bad, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}
    result.update(line)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
