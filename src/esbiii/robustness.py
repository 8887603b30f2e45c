"""Influence diagnostics for the standardized family (mu = 0, sigma = 1).

The psi functions below are the per-observation sensitivity curves of the
log density in each parameter, written with s = sign(x) and
w = s*x / (1 + s*eps):

    psi_mu(x)    = [(c+1) - c(k+1)/(1 + w**c)] / x
    psi_sigma(x) = c - c(k+1)/(1 + w**c)
    psi_c(x)     = 1/c - log w + (k+1) log(w) / (1 + w**c)
    psi_k(x)     = 1/k - log(1 + w**-c)
    psi_eps(x)   = s(c+1)/(1 + s*eps) - s*c(k+1)/[(1 + s*eps)(1 + w**c)]

psi evaluates them from the per-point terms of burr3._u_terms at mu = 0,
sigma = 1, the terms the fitter's score is summed from: with u = log w,
t = 1/(1 + w**c), f_u = c(k+1) t - (c+1) and r = 1/x they are -f_u r,
-(1 + f_u), (1 + u (f_u + 1)) / c, 1/k - log(1 + w**-c) and
f_u (eps - s) / ((1 - eps)(1 + eps)).

All but psi_c stay bounded as |x| grows, which is what makes the location,
scale, k and skewness scores resistant to gross outliers; the c score
drifts logarithmically.  psi_mu additionally redescends: it has a finite
peak x0 beyond which the influence of a point decays back to zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .burr3 import _maybe_scalar, _pick, _u_terms
from .distribution import logpdf
from .errors import DomainError
from .fit import COORD_NAMES
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

PSI_NAMES = COORD_NAMES

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
    pos, u, _, f_u, r = _u_terms(arr, 0.0, 1.0, c, k, eps)
    if which == "mu":
        out = -f_u * r
    elif which == "sigma":
        out = -(1.0 + f_u)
    elif which == "c":
        out = (1.0 + u * (f_u + 1.0)) / c
    elif which == "k":
        out = 1.0 / k - log1p_exp(-c * u)
    else:
        out = f_u * _pick(pos, eps - 1.0, eps + 1.0) / ((1.0 - eps) * (1.0 + eps))
    return _maybe_scalar(out, x)


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


_BEYOND_FLOATS = "x0 beyond the float range"


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

    Past |B| of about 1.3e154, B**2 overflows and that form gives u = 0
    (or nan).  There B = -(c+1) m with m = ck + c - 2 > 0, and
    sqrt(D) - B = |B| (1 + sqrt(1 - r)) with r = 4(1 - ck) / ((c+1) m**2),
    so u = 2 / (m (1 + sqrt(1 - r))).  |r| is then below 1e-150, so
    1 + sqrt(1 - r) rounds to 2 and log u = -log m, which is taken as
    log c + log(k + 1 - 2/c) so that no product overflows, and
    x0 = (1 + eps) exp(log m / c).

    A peak past the largest double (c = 0.1, k = 1e100 puts it near
    1e990) has x0 None and the reason _BEYOND_FLOATS: psi_mu still
    redescends, and rho_conditions says so.
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
    try:
        if 0.0 < u0 < math.inf:
            x0 = (1.0 + eps) * u0 ** (-1.0 / c)
        else:
            x0 = (1.0 + eps) * math.exp((math.log(c) + math.log(k + 1.0 - 2.0 / c)) / c)
    except OverflowError:
        x0 = math.inf
    if x0 == math.inf:
        return RedescendResult(None, _BEYOND_FLOATS)
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
    # -log f of the standard form, valid at x != 0
    return -logpdf(replace(p, mu=0.0, sigma=1.0), x)


def rho_conditions(p):
    """Probe rho = -log f at |x| in {10, 1e3, 1e6} on both sides."""
    xs = (10.0, 1.0e3, 1.0e6)
    up = [_rho(p, v) for v in xs]
    dn = [_rho(p, -v) for v in xs]
    unbounded = up[0] < up[1] < up[2] and dn[0] < dn[1] < dn[2]
    red = redescend_point(p)  # a peak past the float range still redescends
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
        mu_redescending=red.x0 is not None or red.reason == _BEYOND_FLOATS,
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
    if not 0.0 < lam <= sys.float_info.max:  # exact: an integer beyond the float range is refused
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
    heavy-tail probe into one report.

    Raises DomainError when a number of the report is not finite: near the
    top of the float range (c = 1.7e308, say) c (k + 1) and c log z
    overflow, and the probes would be nan or -inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        limits = psi_limits(p)
        tail = heavy_tail_check(p, lam)
    red = redescend_point(p)
    numbers = [tail.tail_index_estimate, *(v for _, v in tail.probes)]
    for lim in limits.values():
        numbers += [*lim.probes_pos, *lim.probes_neg, lim.value_pos or 0.0, lim.value_neg or 0.0]
    if not all(math.isfinite(v) for v in numbers):
        raise DomainError(
            f"c={p.c}, k={p.k}, eps={p.eps}: the diagnostics overflow the float range"
        )
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
