"""Goodness-of-fit layer: empirical CDF, Kolmogorov-Smirnov, AIC, model ranking."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .burr3 import _maybe_scalar
from .errors import DomainError, whole_number

__all__ = [
    "Dataset",
    "GofReport",
    "ModelFit",
    "aic",
    "compare_models",
    "ecdf",
    "ks_pvalue",
    "ks_statistic",
]

KS_PVALUE_CAVEAT = (
    "KS p-value uses the asymptotic Kolmogorov law with the "
    "(sqrt(n) + 0.12 + 0.11/sqrt(n)) small-sample factor; it is optimistic "
    "when the reference parameters were estimated from the same data."
)


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable 1-d sample with provenance.

    values : array_like
        Finite reals, at least one.  Stored as a read-only float array.
    label : str
        Short name used in reports.
    source : str
        Where the values came from (file path, generator description, ...).
    """

    values: np.ndarray
    label: str = ""
    source: str = ""

    def __post_init__(self):
        try:
            arr = np.atleast_1d(np.asarray(self.values, dtype=float)).copy()
        except OverflowError:  # an integer beyond the float range, refused like an infinity
            raise DomainError("dataset contains non-finite values") from None
        if arr.ndim != 1:
            raise DomainError(f"values must be 1-d, got shape {arr.shape}")
        if arr.size == 0:
            raise DomainError("dataset is empty")
        if not np.all(np.isfinite(arr)):
            raise DomainError("dataset contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self):
        return self.values.size

    @cached_property
    def sorted_values(self):
        out = np.sort(self.values)
        out.flags.writeable = False
        return out


def ecdf(data, y):
    """Empirical distribution function: fraction of the sample <= y.

    Right-continuous step function; accepts a scalar or an array.
    """
    counts = np.searchsorted(data.sorted_values, np.asarray(y, dtype=float), side="right")
    return _maybe_scalar(counts / data.n, y)


def _model_cdf_values(data, model_cdf):
    xs = data.sorted_values
    try:
        vals = np.asarray(model_cdf(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(model_cdf(float(v))) for v in xs])
    if not np.all(np.isfinite(vals)):
        raise DomainError("model cdf returned non-finite values")
    if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
        raise DomainError("model cdf returned values outside [0, 1]")
    return np.clip(vals, 0.0, 1.0)


def ks_statistic(data, model_cdf):
    """Two-sided Kolmogorov-Smirnov distance between the sample and a CDF.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted
    sample, which is the exact supremum over all reals for a step ECDF.
    """
    f = _model_cdf_values(data, model_cdf)
    n = data.n
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1.0) / n)
    return float(max(d_plus, d_minus, 0.0))


def ks_pvalue(d, n):
    """Asymptotic two-sided KS p-value with a small-sample correction.

    The statistic is rescaled by sqrt(n) + 0.12 + 0.11/sqrt(n) and fed to
    the Kolmogorov tail law Q(lam) = 2 * sum_j (-1)**(j-1) exp(-2 j^2 lam^2).
    Below lam = 1.18 the equivalent theta-function form of the same law is
    used because the alternating series loses precision there.  The result
    is clipped to [0, 1].
    """
    if not (0.0 <= d <= 1.0):
        raise DomainError(f"KS statistic must lie in [0, 1], got {d}")
    if not 1 <= n <= sys.float_info.max:  # exact: an integer beyond the float range is refused
        raise DomainError(f"n must be at least 1 and finite, got {n}")
    if d == 0.0:
        return 1.0
    en = math.sqrt(n)
    lam = (en + 0.12 + 0.11 / en) * d
    if lam < 1e-3:
        return 1.0
    if lam < 1.18:
        t = math.exp(-math.pi * math.pi / (8.0 * lam * lam))
        cdf = math.sqrt(2.0 * math.pi) / lam * (t + t**9 + t**25 + t**49)
        return min(max(1.0 - cdf, 0.0), 1.0)
    q = 0.0
    sign = 1.0
    for j in range(1, 1001):
        term = 2.0 * math.exp(-2.0 * j * j * lam * lam)
        q += sign * term
        if term < 1e-12:
            break
        sign = -sign
    return min(max(q, 0.0), 1.0)


def aic(loglik, free_params):
    """Akaike information criterion, 2 * free_params - 2 * loglik."""
    if whole_number(free_params, "free_params") > sys.float_info.max:  # 2 free_params is a float
        raise DomainError(f"free_params must be a positive integer a float holds, got {free_params}")
    return 2.0 * free_params - 2.0 * loglik


@dataclass(frozen=True)
class ModelFit:
    """A fitted candidate to be ranked: its label, CDF callable, and fit summary."""

    label: str
    cdf: object
    loglik: float
    free_params: int


@dataclass(frozen=True)
class GofReport:
    model_label: str
    n: int
    ks_stat: float
    ks_pvalue: float
    loglik: float
    aic: float
    caveat: str = field(default=KS_PVALUE_CAVEAT)


def compare_models(data, fits):
    """Score each candidate against the data and rank them.

    Returns GofReports sorted by descending KS p-value, ties broken by
    ascending AIC, remaining ties by input order (the sort is stable).
    """
    reports = []
    for f in fits:
        d = ks_statistic(data, f.cdf)
        reports.append(
            GofReport(
                model_label=f.label,
                n=data.n,
                ks_stat=d,
                ks_pvalue=ks_pvalue(d, data.n),
                loglik=f.loglik,
                aic=aic(f.loglik, f.free_params),
            )
        )
    return sorted(reports, key=lambda r: (-r.ks_pvalue, r.aic))
