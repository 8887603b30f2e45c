"""Negative controls: every benchmark check passes on esbiii's real output and
fails on a deliberately wrong copy of it.

    python3 perfbench/controls.py

Prints one line per control and exits 1 if any check accepts a wrong
output or rejects a right one.  Uses small inputs; takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

import numpy as np

import oracle
import run

REGIME = "spiked"


def main():
    mods = run.import_program()
    dist, fit, gof, cli = (mods[f"esbiii.{m}"] for m in ("distribution", "fit", "gof", "cli"))
    c, k, eps = run.REGIMES[REGIME]
    p = dist.Params(run.KERNEL_MU, run.KERNEL_SIGMA, c, k, eps)
    rng = np.random.default_rng(5)
    x = dist.sample(p, 20_000, 3)
    prob = rng.uniform(run.PROB_LO, 1.0 - run.PROB_LO, 20_000)
    draws = dist.sample(p, 100_000, run.SAMPLE_SEED)
    data = gof.Dataset(x)
    fit_truth = dist.Params(*run.CHAIN_FIT)
    small = gof.Dataset(dist.sample(fit_truth, run.CHAIN_FIT_N, 1))
    res = fit.fit_ml(small)
    nudged = replace(res.params, sigma=res.params.sigma * (1.0 + 1e-3))
    pdf_, logpdf_, cdf_ = dist.pdf(p, x), dist.logpdf(p, x), dist.cdf(p, x)
    q = dist.quantile(p, prob)
    ll, g = fit.loglik(p, data), fit.score(p, data)
    g_bad = fit.score(replace(p, c=c * (1.0 + 1e-4)), data)

    def fit_check(params=res.params, loglik=res.loglik, converged=res.converged, trace=res.trace):
        return oracle.check_fit("fit", small.values, fit_truth, params, loglik, converged, trace)

    workdir = run.OUT / "controls"
    shutil.rmtree(workdir, ignore_errors=True)
    a, b = workdir / "a", workdir / "b"
    write_chain(cli.main, a)
    write_chain(cli.main, b)
    truth = oracle.params_of(vars(p))
    gof_doc = json.loads((a / "gof_truth.json").read_text())
    chain_draws = oracle.read_csv(a / "draws.csv")[:, 0]

    def corrupt(name, edit):
        """Copy chain a to c with one file edited; returns the checks' verdict on c."""
        c_dir = workdir / "c"
        shutil.rmtree(c_dir, ignore_errors=True)
        shutil.copytree(a, c_dir)
        path = c_dir / name
        path.write_bytes(edit(path.read_bytes()))
        return run.check_chain(REGIME, c_dir) + run.check_identical([a, c_dir])

    def flip_digit(blob, at):
        """Flip one byte of the first digit found at or after offset `at`."""
        i = at + next(j for j, ch in enumerate(blob[at:]) if chr(ch).isdigit())
        return blob[:i] + bytes([blob[i] ^ 1]) + blob[i + 1:]

    def missing_key(blob):
        doc = json.loads(blob)
        del doc["gof"]["ks_stat"]
        return json.dumps(doc).encode()

    controls = [
        ("fit: real result", fit_check(), False),
        ("fit: converged false", fit_check(converged=False), True),
        ("fit: trace decreases", fit_check(trace=((0, res.loglik + 1.0),) + res.trace), True),
        ("fit: loglik off the trace", fit_check(loglik=res.loglik + 1e-6), True),
        ("fit: nudged off its optimum", fit_check(params=nudged), True),
        ("fit: truth better than fit", oracle.check_fit(
            "fit", small.values, res.params, fit_truth, *oracle_fit(small, fit_truth)), True),
        ("density: real output", oracle.check_density(p, x, pdf_, logpdf_, cdf_), False),
        ("density: pdf * (1 + 1e-6)", oracle.check_density(p, x, pdf_ * (1 + 1e-6), logpdf_, cdf_), True),
        ("density: logpdf + 1e-6", oracle.check_density(p, x, pdf_, logpdf_ + 1e-6, cdf_), True),
        ("density: cdf + 1e-6", oracle.check_density(p, x, pdf_, logpdf_, cdf_ + 1e-6), True),
        ("quantile: real output", oracle.check_quantile(p, prob, q), False),
        ("quantile: shifted by 1e-6 sigma", oracle.check_quantile(p, prob, q + 1e-6 * p.sigma), True),
        ("sample: real draws", oracle.check_draws(p, draws), False),
        ("sample: draws with eps + 0.05", oracle.check_draws(
            p, dist.sample(replace(p, eps=eps + 0.05), 100_000, run.SAMPLE_SEED)), True),
        ("loglik/score: real output", oracle.check_loglik_score(p, x, ll, g), False),
        ("loglik/score: loglik + 1e-6 |l|", oracle.check_loglik_score(p, x, ll + 1e-6 * abs(ll), g), True),
        ("loglik/score: score at c * (1 + 1e-4)", oracle.check_loglik_score(p, x, ll, g_bad), True),
        ("cli: real chain", run.check_chain(REGIME, a) + run.check_identical([a, b]), False),
        ("cli: ks_stat + 1e-9", oracle.check_ks_doc(
            "gof", {"gof": {"ks_stat": gof_doc["gof"]["ks_stat"] + 1e-9}}, chain_draws, truth), True),
        ("cli: flipped byte in gof_truth.json",
         corrupt("gof_truth.json", lambda blob: flip_digit(blob, blob.index(b'"ks_stat"'))), True),
        ("cli: gof_truth.json without ks_stat", corrupt("gof_truth.json", missing_key), True),
        ("cli: flipped byte in pdf.csv",
         corrupt("pdf.csv", lambda blob: flip_digit(blob, blob.index(b"\n-8,") + 5)), True),
        ("cli: flipped byte in quantile.csv",
         corrupt("quantile.csv", lambda blob: flip_digit(blob, len(blob) // 2)), True),
        ("cli: flipped byte in an overlay",
         corrupt("gof1.json.overlay.csv", lambda blob: flip_digit(blob, len(blob) // 2)), True),
    ]
    shutil.rmtree(workdir, ignore_errors=True)
    ok = True
    for name, bad, expect_fail in controls:
        good = bool(bad) == expect_fail
        ok &= good
        verdict = "rejected" if bad else "accepted"
        print(f"{'ok ' if good else 'BAD'} {name}: {verdict}" + (f" ({bad[0]})" if bad else ""))
    return 0 if ok else 1


def write_chain(main, workdir):
    if any(rc != 0 for rc in run.run_chain(REGIME, workdir, main)):
        raise RuntimeError(f"a command of the chain in {workdir} failed")


def oracle_fit(data, params):
    """(loglik, converged, trace) that claim `params` is the optimum."""
    ll = oracle.working_loglik(params, data.values, oracle.resolution(data.values))
    return ll, True, ((0, ll),)


if __name__ == "__main__":
    sys.exit(main())
