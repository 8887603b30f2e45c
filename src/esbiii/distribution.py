"""The epsilon-skew Burr III family.

A standardized variable X follows the family when X = Z * U where
Z is Burr III(c, k) and U is an independent two-point sign-scale,
equal to 1+eps with probability (1+eps)/2 and to -(1-eps) otherwise.
The full family is the location-scale extension Y = mu + sigma * X.

Density, in terms of x = (y - mu)/sigma and w = |x| / (1 + sign(x)*eps),
with sign(0) taken as +1:

    f(y) = c*k / (2*sigma) * w**-(c+1) * (1 + w**-c)**-(k+1)

The same w appears in the distribution function, the score equations and
the influence diagnostics, so the helpers here are shared widely.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .burr3 import Burr3Params, _quantile_from_neg_log, burr3_quantile
from .errors import DensityLimitWarning, DomainError, MomentDoesNotExistError
from .special_math import beta_fn, ln_gamma, log1p_exp

__all__ = [
    "CfSpec",
    "EntropySpec",
    "ModeStructure",
    "MomentSpec",
    "Params",
    "ShapeStats",
    "cdf",
    "cf_partial_sum",
    "logpdf",
    "mean",
    "mode_structure",
    "pdf",
    "quantile",
    "raw_moment",
    "renyi_entropy",
    "sample",
    "shape_stats",
    "variance",
]

_TINY = sys.float_info.min
_HUGE = sys.float_info.max
_LOG_HUGE = math.log(sys.float_info.max)


@dataclass(frozen=True)
class Params:
    """Location mu, scale sigma > 0, shapes c > 0 and k > 0, skewness |eps| < 1."""

    mu: float
    sigma: float
    c: float
    k: float
    eps: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise DomainError(f"c must be positive, got {self.c}")
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise DomainError(f"k must be positive, got {self.k}")
        if not (-1.0 < self.eps < 1.0):
            raise DomainError(f"eps must lie in (-1, 1), got {self.eps}")


@dataclass(frozen=True)
class MomentSpec:
    """Order of a raw moment; must be a positive integer."""

    r: int

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 1:
            raise DomainError(f"moment order must be a positive integer, got {self.r}")


@dataclass(frozen=True)
class EntropySpec:
    """Renyi order alpha > 0, alpha != 1."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)) or self.alpha == 1.0:
            raise DomainError(f"alpha must be positive and != 1, got {self.alpha}")


@dataclass(frozen=True)
class CfSpec:
    """Argument t and series length for the characteristic-function partial sum."""

    t: float
    terms: int

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise DomainError(f"t must be finite, got {self.t}")
        if int(self.terms) != self.terms or self.terms < 1:
            raise DomainError(f"terms must be a positive integer, got {self.terms}")


class ModeStructure(enum.Enum):
    """One-sided peak with the other side decaying, or a peak on each side."""

    SKEW_UNIMODAL = "skew-unimodal"
    SKEW_BIMODAL = "skew-bimodal"


@dataclass(frozen=True)
class ShapeStats:
    mean: float
    variance: float
    skewness: float
    kurtosis: float
    convention: str


def _require_standard_form(p, what):
    if p.mu != 0.0 or p.sigma != 1.0:
        raise DomainError(f"{what} is defined on the standard form (mu=0, sigma=1)")


def _split(y, p):
    """Standardize and fold onto the positive axis.

    Returns (x, w, at_origin) where w = |x| / (1 + sign(x)*eps) >= 0 and
    sign(0) = +1.
    """
    x = (np.asarray(y, dtype=float) - p.mu) / p.sigma
    s = np.where(x >= 0.0, 1.0, -1.0)
    w = s * x / (1.0 + s * p.eps)
    return x, w, w == 0.0


def _maybe_scalar(out, template):
    if np.ndim(template) == 0:
        return float(out)
    return out


def _log_density_core(w, p):
    """log f at points with w > 0 (the caller masks w == 0)."""
    logw = np.log(w)
    return (
        math.log(p.c * p.k / (2.0 * p.sigma))
        - (p.c + 1.0) * logw
        - (p.k + 1.0) * log1p_exp(-p.c * logw)
    )


def _origin_log_density(p):
    """Limit of log f as y -> mu, which depends on the sign of c*k - 1.

    For c*k < 1 the density diverges; a saturated finite stand-in is
    returned and a DensityLimitWarning is emitted so callers can tell the
    value is a flag, not a density.
    """
    ck = p.c * p.k
    if ck > 1.0:
        return -math.inf
    if ck == 1.0:
        return math.log(ck / (2.0 * p.sigma))
    warnings.warn(
        f"density diverges at the location for c*k = {ck} < 1; "
        "returning a saturated value",
        DensityLimitWarning,
        stacklevel=3,
    )
    return _LOG_HUGE


def logpdf(p, y):
    """Natural log of the density; see :func:`pdf` for the y = mu convention."""
    _, w, at0 = _split(y, p)
    if np.any(at0):
        safe = np.where(at0, 1.0, w)
        out = np.where(at0, _origin_log_density(p), _log_density_core(safe, p))
    else:
        out = _log_density_core(w, p)
    return _maybe_scalar(out, y)


def pdf(p, y):
    """Density of the family at y (scalar or array).

    Exactly at y = mu the density is assigned its one-sided limit: 0 when
    c*k > 1, c*k/(2*sigma) when c*k = 1, and for c*k < 1, where the true
    limit is infinite, the largest finite float is returned along with a
    DensityLimitWarning.
    """
    out = logpdf(p, y)
    if np.ndim(y) == 0:
        return math.exp(out) if out != _LOG_HUGE else _HUGE
    res = np.exp(out)
    return np.where(out == _LOG_HUGE, _HUGE, res)


def cdf(p, y):
    """Distribution function; equals (1 - eps)/2 exactly at y = mu."""
    x, w, at0 = _split(y, p)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    # log(1 + w**-c); the at-origin entries become +inf, which feeds the
    # correct limits below (G -> 0, tail factor -> 1)
    t = log1p_exp(-p.c * logw)
    half_lo = 0.5 * (1.0 - p.eps)
    g = np.exp(-p.k * t)
    pos = x >= 0.0
    out = np.where(
        pos,
        half_lo + 0.5 * (1.0 + p.eps) * g,
        half_lo * -np.expm1(-p.k * t),
    )
    return _maybe_scalar(out, y)


def quantile(p, prob):
    """Inverse distribution function on prob in (0, 1).

    Splits at the mass (1 - eps)/2 carried by the negative half line; each
    branch reduces to the Burr III quantile of a rescaled argument u.
    That quantile is taken from -log u = -log1p(-(1 - u)), with 1 - u
    formed from prob directly, so neither tail rounds through u = 1.
    """
    arr = np.asarray(prob, dtype=float)
    if arr.size and not (np.all(arr > 0.0) and np.all(arr < 1.0)):
        raise DomainError("prob must lie strictly inside (0, 1)")
    q = np.atleast_1d(arr)
    half_lo = 0.5 * (1.0 - p.eps)
    half_hi = 0.5 * (1.0 + p.eps)
    pos = q > half_lo
    # r = 1 - u on both branches, formed from prob without rounding through u
    r = np.where(pos, 1.0 - q, q)
    r /= np.where(pos, half_hi, half_lo)
    # right of the split with u <= 1/2, u itself carries more digits than 1 - r
    near_split = pos & (r >= 0.5)
    u = np.subtract(q, half_lo)
    u /= half_hi
    # r = 1 at the split, where -log u = inf yields the quantile mu
    with np.errstate(divide="ignore"):
        neg_log_u = np.log1p(np.negative(r, out=r), out=r)
    np.log(u, out=neg_log_u, where=near_split)
    np.negative(neg_log_u, out=neg_log_u)
    x = _quantile_from_neg_log(Burr3Params(p.c, p.k), neg_log_u)
    x *= np.where(pos, 1.0 + p.eps, p.eps - 1.0)
    x *= p.sigma
    x += p.mu
    return _maybe_scalar(x.reshape(arr.shape), prob)


def sample(p, n, seed):
    """Draw n values from the family using a seeded PCG64 stream.

    Each draw is z * u with z a Burr III(c, k) inverse-transform draw and
    u the independent two-point sign-scale, then shifted by mu and scaled
    by sigma.  Reruns with the same seed reproduce the same array, and no
    draw lands exactly on mu.
    """
    if int(n) != n or n <= 0:
        raise DomainError(f"n must be a positive integer, got {n}")
    rng = np.random.default_rng(int(seed))
    u = rng.random(int(n))
    u = np.where(u == 0.0, 2.0**-53, u)
    z = burr3_quantile(Burr3Params(p.c, p.k), u)
    z = np.where(z == 0.0, _TINY, z)  # guard against quantile underflow
    v = rng.random(int(n))
    u_mix = np.where(v < 0.5 * (1.0 + p.eps), 1.0 + p.eps, -(1.0 - p.eps))
    return p.mu + p.sigma * z * u_mix


def _standard_raw_moment(c, k, eps, r):
    """E(X**r) for the standard-form variable; requires c > r."""
    even = (-1.0) ** r
    return (
        0.5
        * k
        * beta_fn(1.0 - r / c, r / c + k)
        * ((1.0 + eps) ** (r + 1) + even * (1.0 - eps) ** (r + 1))
    )


def raw_moment(p, spec):
    """E(X**spec.r) for a standard-form p (mu = 0, sigma = 1).

    Exists only for c > r; otherwise MomentDoesNotExistError is raised.
    """
    _require_standard_form(p, "raw_moment")
    if p.c <= spec.r:
        raise MomentDoesNotExistError(
            f"moment of order {spec.r} requires c > {spec.r}, got c = {p.c}"
        )
    return _standard_raw_moment(p.c, p.k, p.eps, spec.r)


def mean(p):
    """E(Y) = mu + sigma * E(X); exists for c > 1."""
    if p.c <= 1.0:
        raise MomentDoesNotExistError(f"mean requires c > 1, got c = {p.c}")
    return p.mu + p.sigma * _standard_raw_moment(p.c, p.k, p.eps, 1)


def variance(p):
    """Var(Y) = sigma**2 * (E(X**2) - E(X)**2); exists for c > 2."""
    if p.c <= 2.0:
        raise MomentDoesNotExistError(f"variance requires c > 2, got c = {p.c}")
    b2 = beta_fn(1.0 - 2.0 / p.c, 2.0 / p.c + p.k)
    b1 = beta_fn(1.0 - 1.0 / p.c, 1.0 / p.c + p.k)
    e = p.eps
    core = 0.5 * p.k * b2 * (2.0 + 6.0 * e * e) - p.k * p.k * b1 * b1 * 4.0 * e * e
    return p.sigma * p.sigma * core


def shape_stats(p):
    """Mean, variance, skewness and kurtosis; requires c > 4.

    Skewness and kurtosis are the third and fourth raw moments of the
    standard-form variable scaled by the matching power of its second raw
    moment, i.e. they are taken about the location rather than the mean.
    The convention field records this so downstream reports stay explicit.
    Both are invariant under location and scale changes.
    """
    if p.c <= 4.0:
        raise MomentDoesNotExistError(f"shape statistics require c > 4, got c = {p.c}")
    m = [_standard_raw_moment(p.c, p.k, p.eps, r) for r in (1, 2, 3, 4)]
    return ShapeStats(
        mean=p.mu + p.sigma * m[0],
        variance=p.sigma * p.sigma * (m[1] - m[0] * m[0]),
        skewness=m[2] / m[1] ** 1.5,
        kurtosis=m[3] / (m[1] * m[1]),
        convention="raw moments about the location, skew = m3/m2^1.5, kurt = m4/m2^2",
    )


def cf_partial_sum(p, spec):
    """Partial sum of the characteristic-function series at t = spec.t.

    The series coefficient of order r carries the r-th raw moment, so the
    sum is only meaningful while those moments exist: spec.terms must not
    exceed floor(c) - 1.  The order-zero term is identically 1, so the
    value at t = 0 is exactly 1.
    """
    if spec.terms > math.floor(p.c) - 1:
        raise DomainError(
            f"terms = {spec.terms} exceeds floor(c) - 1 = {math.floor(p.c) - 1}; "
            "higher coefficients need moments that do not exist"
        )
    total = complex(1.0, 0.0)
    its = 1j * spec.t * p.sigma
    for r in range(1, spec.terms + 1):
        coeff = _standard_raw_moment(p.c, p.k, p.eps, r) / math.factorial(r)
        total += coeff * its**r
    return cmath.exp(1j * spec.t * p.mu) * total


def renyi_entropy(p, spec):
    """Renyi entropy of order alpha for a standard-form p.

    The closed form is log(2*T) / (1 - alpha) with

        T = (c*k/2)**alpha * Gamma(a1) * Gamma(a2) / (c * Gamma(alpha*(k+1)))
        a1 = alpha*(1 + 1/c) - 1/c
        a2 = alpha*(k+1) - alpha*(1 + 1/c) + 1/c

    The two half-line contributions to the integral of f**alpha are
    (1-eps)*T and (1+eps)*T; both are positive and their sum is free of
    eps.  The integral converges only when a1 > 0 and a2 > 0.
    """
    _require_standard_form(p, "renyi_entropy")
    alpha = spec.alpha
    a1 = alpha * (1.0 + 1.0 / p.c) - 1.0 / p.c
    a2 = alpha * (p.k + 1.0) - alpha * (1.0 + 1.0 / p.c) + 1.0 / p.c
    if a1 <= 0.0 or a2 <= 0.0:
        raise DomainError(
            f"entropy integral diverges for alpha = {alpha} at c = {p.c}, k = {p.k}"
        )
    log_t = (
        alpha * math.log(0.5 * p.c * p.k)
        + ln_gamma(a1)
        + ln_gamma(a2)
        - math.log(p.c)
        - ln_gamma(alpha * (p.k + 1.0))
    )
    return (math.log(2.0) + log_t) / (1.0 - alpha)


def mode_structure(p):
    """SKEW_BIMODAL when c*k > 1 (a peak on each side of mu), else SKEW_UNIMODAL.

    The boundary c*k = 1 is classified unimodal: there the density is
    finite and continuous at mu with a single flat-topped peak.
    """
    return (
        ModeStructure.SKEW_BIMODAL
        if p.c * p.k > 1.0
        else ModeStructure.SKEW_UNIMODAL
    )
