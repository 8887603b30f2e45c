"""Influence diagnostics for the standardized family (mu = 0, sigma = 1).

The psi functions below are the per-observation sensitivity curves of the
log density in each parameter, written with s = sign(x) and
w = s*x / (1 + s*eps):

    psi_mu(x)    = [(c+1) - c(k+1)/(1 + w**c)] / x
    psi_sigma(x) = c - c(k+1)/(1 + w**c)
    psi_c(x)     = 1/c - log w + (k+1) log(w) / (1 + w**c)
    psi_k(x)     = 1/k - log(1 + w**-c)
    psi_eps(x)   = s(c+1)/(1 + s*eps) - s*c(k+1)/[(1 + s*eps)(1 + w**c)]

All but psi_c stay bounded as |x| grows, which is what makes the location,
scale, k and skewness scores resistant to gross outliers; the c score
drifts logarithmically.  psi_mu additionally redescends: it has a finite
peak x0 beyond which the influence of a point decays back to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fit import _tmix
from .special_math import log1p_exp

__all__ = [
    "HeavyTailReport",
    "PsiLimit",
    "RedescendResult",
    "RhoConditions",
    "ScoreReport",
    "build_score_report",
    "heavy_tail_check",
    "log_sf_standard",
    "psi",
    "psi_limits",
    "redescend_point",
    "rho_conditions",
]

PSI_NAMES = ("mu", "sigma", "c", "k", "eps")

_PROBE_NEAR = 1.0e6
_PROBE_FAR = 1.0e8


def psi(p, which, x):
    """Influence curve of one parameter at standardized points x != 0.

    Accepts a scalar or an array; uses only (c, k, eps) of p.
    """
    if which not in PSI_NAMES:
        raise DomainError(f"unknown psi component {which!r}")
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(arr == 0.0) or not np.all(np.isfinite(arr))):
        raise DomainError("psi requires finite x != 0")
    c, k, eps = p.c, p.k, p.eps
    s = np.where(arr > 0.0, 1.0, -1.0)
    w = s * arr / (1.0 + s * eps)
    lw = np.log(w)
    t = _tmix(lw, c)  # 1 / (1 + w**c)
    if which == "mu":
        out = ((c + 1.0) - c * (k + 1.0) * t) / arr
    elif which == "sigma":
        out = c - c * (k + 1.0) * t
    elif which == "c":
        out = 1.0 / c - lw + (k + 1.0) * lw * t
    elif which == "k":
        out = 1.0 / k - log1p_exp(-c * lw)
    else:
        out = s * ((c + 1.0) - c * (k + 1.0) * t) / (1.0 + s * eps)
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PsiLimit:
    """Tail behavior of one psi component.

    value_pos/value_neg are the limits as x -> +inf / -inf (None when the
    component is unbounded).  probes_pos/probes_neg record psi at
    |x| = 1e6 and 1e8, and confirmed states that the probes agree with the
    analytic limit (or, for an unbounded component, that |psi| keeps
    growing between the two probes).
    """

    finite: bool
    value_pos: float | None
    value_neg: float | None
    probes_pos: tuple[float, float]
    probes_neg: tuple[float, float]
    confirmed: bool


def _limit_values(p, which):
    c, k, eps = p.c, p.k, p.eps
    if which == "mu":
        return 0.0, 0.0
    if which == "sigma":
        return c, c
    if which == "k":
        return 1.0 / k, 1.0 / k
    if which == "eps":
        return (c + 1.0) / (1.0 + eps), -(c + 1.0) / (1.0 - eps)
    return None, None


def psi_limits(p):
    """Analytic tail limits of every psi component plus numeric confirmation.

    Returns a dict name -> PsiLimit.  mu, sigma, k and eps have finite
    limits (0, c, 1/k and +-(c+1)/(1 +- eps) respectively); c does not.
    """
    out = {}
    for name in PSI_NAMES:
        pp = (psi(p, name, _PROBE_NEAR), psi(p, name, _PROBE_FAR))
        pn = (psi(p, name, -_PROBE_NEAR), psi(p, name, -_PROBE_FAR))
        vp, vn = _limit_values(p, name)
        if vp is None:
            # unbounded: the far probe must keep growing in magnitude
            confirmed = bool(
                abs(pp[1]) > abs(pp[0]) + 1.0 and abs(pn[1]) > abs(pn[0]) + 1.0
            )
            out[name] = PsiLimit(False, None, None, pp, pn, confirmed)
        else:
            err_far = max(abs(pp[1] - vp), abs(pn[1] - vn))
            err_near = max(abs(pp[0] - vp), abs(pn[0] - vn))
            confirmed = bool(err_far <= 1e-6 and err_far <= err_near)
            out[name] = PsiLimit(True, vp, vn, pp, pn, confirmed)
    return out


@dataclass(frozen=True)
class RedescendResult:
    """Location x0 > 0 of the psi_mu peak, or the reason it is absent."""

    x0: float | None
    reason: str | None


def redescend_point(p):
    """Critical point of psi_mu on the positive half line.

    Stationarity of psi_mu reduces to the quadratic
    (1 - ck) u**2 + B u + (c+1) = 0 in u = w**-c with
    B = -c**2 k - c**2 - ck + c + 2.  The relevant root is written as
    2(c+1) / (sqrt(D) - B), which stays finite and correct as ck crosses 1
    (where the quadratic degenerates to a linear equation) as long as
    sqrt(D) - B > 0.  The peak sits at x0 = (1 + eps) * u**(-1/c) and
    scales linearly with 1 + eps.
    """
    c, k, eps = p.c, p.k, p.eps
    big_a = c + 1.0
    big_b = -(c * c * k) - c * c - c * k + c + 2.0
    disc = big_b * big_b - 4.0 * big_a * (1.0 - c * k)
    if disc < 0.0:
        return RedescendResult(None, "negative discriminant")
    denom = math.sqrt(disc) - big_b
    if denom <= 0.0:
        reason = "ck=1" if c * k == 1.0 else "no positive critical point"
        return RedescendResult(None, reason)
    u0 = 2.0 * big_a / denom
    x0 = (1.0 + eps) * u0 ** (-1.0 / c)
    return RedescendResult(float(x0), None)


@dataclass(frozen=True)
class RhoConditions:
    """Classic objective-function conditions probed for rho = -log f.

    zero_at_origin is always False here: the density limit at the origin
    is never 1, whatever the regime of c*k.
    """

    zero_at_origin: bool
    unbounded: bool
    sublinear: bool
    mu_redescending: bool


def _rho(p, x):
    # -log f for the standardized family, valid at x != 0
    s = 1.0 if x > 0.0 else -1.0
    w = s * x / (1.0 + s * p.eps)
    lw = math.log(w)
    return -(
        math.log(0.5 * p.c * p.k)
        - (p.c + 1.0) * lw
        - (p.k + 1.0) * log1p_exp(-p.c * lw)
    )


def rho_conditions(p):
    """Probe rho = -log f at |x| in {10, 1e3, 1e6} on both sides."""
    xs = (10.0, 1.0e3, 1.0e6)
    up = [_rho(p, v) for v in xs]
    dn = [_rho(p, -v) for v in xs]
    unbounded = up[0] < up[1] < up[2] and dn[0] < dn[1] < dn[2]
    sublinear = (
        up[2] / xs[2] < up[1] / xs[1]
        and dn[2] / xs[2] < dn[1] / xs[1]
        and up[2] / xs[2] < 0.01
        and dn[2] / xs[2] < 0.01
    )
    return RhoConditions(
        zero_at_origin=False,
        unbounded=bool(unbounded),
        sublinear=bool(sublinear),
        mu_redescending=redescend_point(p).x0 is not None,
    )


def log_sf_standard(p, x):
    """log of the survival function P(X > x) for x > 0, standard form.

    Evaluated entirely in log space; for very large x it switches to the
    expansion log(k) - c*log(x/(1+eps)) of the tail factor so that the
    power-law decay survives well past where (x/(1+eps))**-c underflows.
    """
    if not x > 0.0:
        raise DomainError(f"log_sf_standard requires x > 0, got {x}")
    lead = math.log(0.5 * (1.0 + p.eps))
    lv = -p.c * math.log(x / (1.0 + p.eps))
    if lv < -34.0:
        return lead + math.log(p.k) + lv
    u = -p.k * log1p_exp(lv)
    return lead + math.log(-math.expm1(u))


@dataclass(frozen=True)
class HeavyTailReport:
    """exp(lam*x) * survival probes and a log-log tail slope estimate."""

    heavy: bool
    lam: float
    probes: tuple[tuple[float, float], ...]
    tail_index_estimate: float


def heavy_tail_check(p, lam):
    """Check the heavier-than-exponential property of the right tail.

    Evaluates lam*x + log P(X > x) at x in {10, 1e2, 1e3, 1e4}; the tail
    is heavy for rate lam when that sequence increases without bound,
    reported as strict growth ending above zero.  Also estimates the tail
    index from the log-log slope of the survival function between 1e3 and
    1e5 (the slope is -c, so the estimate should recover c).
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise DomainError(f"lam must be positive, got {lam}")
    xs = (10.0, 1.0e2, 1.0e3, 1.0e4)
    vals = [lam * v + log_sf_standard(p, v) for v in xs]
    increasing = all(a < b for a, b in zip(vals, vals[1:]))
    heavy = bool(increasing and vals[-1] > 0.0)
    slope = (log_sf_standard(p, 1.0e5) - log_sf_standard(p, 1.0e3)) / (
        math.log(1.0e5) - math.log(1.0e3)
    )
    return HeavyTailReport(
        heavy=heavy,
        lam=lam,
        probes=tuple(zip(xs, (float(v) for v in vals))),
        tail_index_estimate=float(-slope),
    )


@dataclass(frozen=True)
class ScoreReport:
    """Bundled robustness diagnostics for one parameter point."""

    limits: dict
    bounded: dict
    x0: float | None
    x0_reason: str | None
    rho: RhoConditions
    tail_heavy: bool
    tail_lam: float
    tail_probes: tuple[tuple[float, float], ...]
    tail_index_estimate: float


def build_score_report(p, lam=1.0):
    """Assemble psi limits, the redescending point, rho conditions and the
    heavy-tail probe into one report."""
    limits = psi_limits(p)
    red = redescend_point(p)
    tail = heavy_tail_check(p, lam)
    return ScoreReport(
        limits=limits,
        bounded={name: limits[name].finite for name in PSI_NAMES},
        x0=red.x0,
        x0_reason=red.reason,
        rho=rho_conditions(p),
        tail_heavy=tail.heavy,
        tail_lam=tail.lam,
        tail_probes=tail.probes,
        tail_index_estimate=tail.tail_index_estimate,
    )
