"""Independent oracles and correctness checks for the benchmark.

Nothing here calls esbiii's own algebra.  The density is built from
scipy.stats.burr (the Burr type III law, G(w) = (1 + w**-c)**-k) folded
onto the real line with the epsilon-skew split:

    f(y) = burr.pdf(w, c, k) / (2 sigma),  w = |y - mu| / (sigma (1 + s eps))

with s = sign(y - mu) and sign(0) = +1.  Every check returns a list of
failure messages; an empty list means the output passed.  Parameters are
any object with mu, sigma, c, k and eps attributes.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy import stats

KS_CRIT = 1.95  # two-sided KS critical value at the 0.1% level, times sqrt(n)


def params_of(d):
    """Parameter record from a {"mu": ..., ...} mapping (CLI documents)."""
    return SimpleNamespace(**{k: float(d[k]) for k in ("mu", "sigma", "c", "k", "eps")})


def _fold(p, y, floor=0.0):
    d = np.asarray(y, dtype=float) - p.mu
    s = np.where(d >= 0.0, 1.0, -1.0)
    w = np.maximum(np.abs(d), floor) / (p.sigma * (1.0 + s * p.eps))
    return d, w


def logpdf(p, y):
    _, w = _fold(p, y)
    return stats.burr.logpdf(w, p.c, p.k) - math.log(2.0 * p.sigma)


def pdf(p, y):
    _, w = _fold(p, y)
    return stats.burr.pdf(w, p.c, p.k) / (2.0 * p.sigma)


def cdf(p, y):
    d, w = _fold(p, y)
    half_lo = 0.5 * (1.0 - p.eps)
    return np.where(
        d < 0.0,
        half_lo * stats.burr.sf(w, p.c, p.k),
        half_lo + 0.5 * (1.0 + p.eps) * stats.burr.cdf(w, p.c, p.k),
    )


def sf(p, y):
    d, w = _fold(p, y)
    half_hi = 0.5 * (1.0 + p.eps)
    return np.where(
        d < 0.0,
        half_hi + 0.5 * (1.0 - p.eps) * stats.burr.cdf(w, p.c, p.k),
        half_hi * stats.burr.sf(w, p.c, p.k),
    )


def resolution(x):
    """Half the median positive gap of the sorted data."""
    gaps = np.diff(np.sort(np.asarray(x, dtype=float)))
    return 0.5 * float(np.median(gaps[gaps > 0.0]))


def working_loglik(p, x, floor):
    """The fitter's objective: the log-likelihood with |x - mu| floored."""
    _, w = _fold(p, x, floor)
    n = np.size(x)
    return math.fsum(stats.burr.logpdf(w, p.c, p.k)) - n * math.log(2.0 * p.sigma)


def _moved(p, coord, step):
    """p with one coordinate stepped: mu by step*sigma, eps by step, others by a factor 1+step."""
    q = SimpleNamespace(mu=p.mu, sigma=p.sigma, c=p.c, k=p.k, eps=p.eps)
    if coord == "mu":
        q.mu = p.mu + step * p.sigma
    elif coord == "eps":
        q.eps = p.eps + step
    else:
        setattr(q, coord, getattr(p, coord) * (1.0 + step))
    return q


# -- fits -------------------------------------------------------------------

PERTURB = 1e-4  # relative coordinate step of the local-optimality probe


def check_fit(label, x, truth, params, loglik, converged, trace):
    """ML-fit contract, checked against the independent working objective.

    The perturbation tolerance follows from fit_ml's default convergence
    test: the scaled score (sigma*g_mu, sigma*g_sigma, c*g_c, k*g_k, g_eps)
    is at most 1e-5 * n in max-norm, so a relative step of PERTURB can gain
    at most 1e-5 * n * PERTURB to first order; 1e-10 * |l| covers rounding.
    """
    bad = []
    x = np.asarray(x, dtype=float)
    floor = resolution(x)
    if not converged:
        bad.append(f"{label}: converged is false")
    lls = [float(v) for _, v in trace]
    if any(b < a for a, b in zip(lls, lls[1:])):
        bad.append(f"{label}: trace decreases")
    if lls[-1] != loglik:
        bad.append(f"{label}: loglik {loglik!r} != last trace entry {lls[-1]!r}")
    ref = working_loglik(params, x, floor)
    if not abs(loglik - ref) <= 1e-9 * abs(ref):
        bad.append(f"{label}: loglik {loglik!r} != oracle working objective {ref!r}")
    at_truth = working_loglik(truth, x, floor)
    if not ref >= at_truth:
        bad.append(f"{label}: objective {ref!r} below its value at the truth {at_truth!r}")
    tol = 1e-5 * x.size * PERTURB + 1e-10 * abs(ref)
    for coord in ("mu", "sigma", "c", "k", "eps"):
        for step in (-PERTURB, PERTURB):
            gain = working_loglik(_moved(params, coord, step), x, floor) - ref
            if gain > tol:
                bad.append(f"{label}: {coord} step {step:+g} raises the objective by {gain:.3g}")
    return bad


# -- vectorized kernels -----------------------------------------------------

FD_STEP = 1e-5  # relative step of the per-element central differences


def _close(label, got, want, rtol, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want)
    lim = rtol * np.abs(want) + atol
    ok = (err <= lim) | (got == want)
    if ok.all():
        return []
    i = int(np.argmax(np.where(ok, -np.inf, err - lim)))
    return [f"{label}: {int((~ok).sum())} values off, worst got {got[i]!r} want {want[i]!r}"]


def _cdf_atol(want):
    # relative to the smaller tail mass; 1e-15 absorbs rounding of 1 - G
    return 1e-9 * np.minimum(want, 1.0 - want) + 1e-15


def check_density(p, y, pdf_out, logpdf_out, cdf_out):
    want_log = logpdf(p, y)
    want_cdf = cdf(p, y)
    return (
        _close("pdf", pdf_out, pdf(p, y), 1e-9, 1e-300)
        + _close("logpdf", logpdf_out, want_log, 0.0, 1e-9 * np.maximum(1.0, np.abs(want_log)))
        + _close("cdf", cdf_out, want_cdf, 0.0, _cdf_atol(want_cdf))
    )


def check_quantile(p, prob, q):
    """cdf(quantile(prob)) == prob, relative to the smaller tail mass."""
    prob = np.asarray(prob, dtype=float)
    lower = prob <= 0.5
    got = np.where(lower, cdf(p, q), sf(p, q))
    want = np.where(lower, prob, 1.0 - prob)
    return _close("cdf(quantile(p))", got, want, 1e-8)


def check_draws(p, draws):
    n = np.size(draws)
    d = stats.kstest(draws, lambda v: cdf(p, v)).statistic
    if not d < KS_CRIT / math.sqrt(n):
        return [f"sample: KS distance {d:.3g} >= {KS_CRIT}/sqrt({n})"]
    return []


def _fd_score(p, x):
    """Per-element central differences of the oracle log density, summed.

    The mu component differentiates in d = x - mu with a step that is a
    fraction of each |d|: points near the c*k < 1 spike sit within rounding
    of mu itself, where a step in mu would vanish.
    """
    x = np.asarray(x, dtype=float)
    d = x - p.mu
    h = FD_STEP * np.abs(d)
    at0 = SimpleNamespace(mu=0.0, sigma=p.sigma, c=p.c, k=p.k, eps=p.eps)
    terms = -(logpdf(at0, d + h) - logpdf(at0, d - h)) / (2.0 * h)
    out = [(math.fsum(terms), math.fsum(np.abs(terms)))]
    for coord in ("sigma", "c", "k", "eps"):
        h = FD_STEP * (1.0 if coord == "eps" else getattr(p, coord))
        up, dn = _moved(p, coord, FD_STEP), _moved(p, coord, -FD_STEP)
        terms = (logpdf(up, x) - logpdf(dn, x)) / (2.0 * h)
        out.append((math.fsum(terms), math.fsum(np.abs(terms))))
    return out


def check_loglik_score(p, x, ll, g):
    """loglik equals the oracle sum; score matches its central differences.

    Score components are compared relative to the sum of the absolute
    per-element terms, since at the truth the signed sums nearly cancel.
    """
    bad = []
    ref = math.fsum(logpdf(p, x))
    if not abs(ll - ref) <= 1e-9 * abs(ref):
        bad.append(f"loglik {ll!r} != oracle {ref!r}")
    for name, gi, (fd, scale) in zip(("mu", "sigma", "c", "k", "eps"), g, _fd_score(p, x)):
        if not abs(gi - fd) <= 1e-7 * scale:
            bad.append(f"score[{name}] {gi!r} != central difference {fd!r} (scale {scale:.3g})")
    return bad


# -- CLI files --------------------------------------------------------------


def read_csv(path):
    """Numeric rows of a CLI CSV, skipping the '#' manifest header."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def check_ks_doc(label, doc, values, p):
    want = stats.kstest(values, lambda v: cdf(p, v)).statistic
    got = doc["gof"]["ks_stat"]
    if not abs(got - want) <= 1e-12:
        return [f"{label}: ks_stat {got!r} != scipy kstest {want!r}"]
    return []


def check_eval_csv(label, mode, path, p):
    rows = read_csv(path)
    xs, ys = rows[:, 0], rows[:, 1]
    if mode == "pdf":
        return _close(label, ys, pdf(p, xs), 1e-9, 1e-300)
    if mode == "cdf":
        want = cdf(p, xs)
        return _close(label, ys, want, 0.0, _cdf_atol(want))
    return [f"{label}: {m}" for m in check_quantile(p, xs, ys)]


def check_overlay(label, path, values, p):
    rows = read_csv(path)
    xs = np.sort(values)
    emp = np.searchsorted(xs, xs, side="right") / xs.size
    bad = _close(f"{label} x", rows[:, 0], xs, 0.0)
    bad += _close(f"{label} ecdf", rows[:, 1], emp, 0.0)
    want = cdf(p, xs)
    bad += _close(f"{label} model_cdf", rows[:, 2], want, 0.0, _cdf_atol(want))
    return bad
