"""Burr III distribution on the positive half line.

Parameterized by two positive shapes c and k, with distribution function
G(z) = (1 + z**-c)**-k for z > 0.  This is the symmetric-kernel ingredient
from which the epsilon-skew family in :mod:`esbiii.distribution` is built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special_math import log1p_exp

__all__ = [
    "Burr3Params",
    "RNG_ALGORITHM",
    "ShapeClass",
    "burr3_cdf",
    "burr3_pdf",
    "burr3_quantile",
    "burr3_sample",
    "burr3_shape_class",
]

# numpy's default irreducible generator; recorded in output manifests so a
# run can be reproduced bit for bit from the seed.
RNG_ALGORITHM = "numpy.random.PCG64"


@dataclass(frozen=True)
class Burr3Params:
    """Shape parameters of a Burr III distribution, both strictly positive."""

    c: float
    k: float

    def __post_init__(self):
        if not (self.c > 0.0 and np.isfinite(self.c)):
            raise DomainError(f"c must be positive and finite, got {self.c}")
        if not (self.k > 0.0 and np.isfinite(self.k)):
            raise DomainError(f"k must be positive and finite, got {self.k}")


class ShapeClass(enum.Enum):
    """Qualitative density shape: decreasing from the origin, or single-peaked."""

    L_SHAPED = "L-shaped"
    UNIMODAL = "unimodal"


def _positive_array(z, name):
    arr = np.asarray(z, dtype=float)
    if arr.size and not np.all(arr > 0.0):
        raise DomainError(f"{name} must be strictly positive")
    return arr


def _maybe_scalar(out, template):
    if np.ndim(template) == 0:
        return float(out)
    return out


def burr3_pdf(p, z):
    """Density g(z) = c*k * z**-(c+1) * (1 + z**-c)**-(k+1) for z > 0.

    Evaluated in log space so that extreme z neither overflow nor lose the
    power-law tail.  Accepts a scalar or an array.
    """
    arr = _positive_array(z, "z")
    logz = np.log(arr)
    logpdf = (
        np.log(p.c * p.k)
        - (p.c + 1.0) * logz
        - (p.k + 1.0) * log1p_exp(-p.c * logz)
    )
    return _maybe_scalar(np.exp(logpdf), z)


def burr3_cdf(p, z):
    """Distribution function G(z) = (1 + z**-c)**-k for z > 0."""
    arr = _positive_array(z, "z")
    out = np.exp(-p.k * log1p_exp(-p.c * np.log(arr)))
    return _maybe_scalar(out, z)


def burr3_quantile(p, u):
    """Inverse of :func:`burr3_cdf` on u in (0, 1).

    The closed form is (u**(-1/k) - 1)**(-1/c); it is evaluated through
    expm1/log1p so that both tails keep full precision.
    """
    arr = np.asarray(u, dtype=float)
    if arr.size and not (np.all(arr > 0.0) and np.all(arr < 1.0)):
        raise DomainError("u must lie strictly inside (0, 1)")
    return _maybe_scalar(_quantile_from_neg_log(p, -np.log(arr)), u)


def _quantile_from_neg_log(p, neg_log_u):
    """Burr III quantile at u = exp(-neg_log_u), for neg_log_u > 0.

    Taking -log u lets a caller that holds 1 - u more exactly than u pass
    -log1p(-(1 - u)), so u near 1 never rounds to 1.  Returns an array of
    the shape of neg_log_u, computed in place to spare temporaries.
    """
    a = np.atleast_1d(neg_log_u / p.k)
    # log(expm1(a)) without overflow: for large a this is a + log1p(-exp(-a))
    log_t = np.minimum(a, 33.0)
    np.expm1(log_t, out=log_t)
    np.log(log_t, out=log_t)
    big = a > 33.0
    if big.any():
        log_t[big] = a[big] + np.log1p(-np.exp(-a[big]))
    out = np.negative(log_t, out=log_t)
    out /= p.c
    return np.exp(out, out=out).reshape(np.shape(neg_log_u))


def burr3_sample(p, n, seed):
    """Draw n values by inverse transform from a seeded PCG64 stream.

    Identical (p, n, seed) triples reproduce the identical array.
    """
    if int(n) != n or n <= 0:
        raise DomainError(f"n must be a positive integer, got {n}")
    rng = np.random.default_rng(int(seed))
    u = rng.random(int(n))
    # rng.random can emit exactly 0.0; push it onto the open interval
    u = np.where(u == 0.0, 2.0**-53, u)
    return burr3_quantile(p, u)


def burr3_shape_class(p):
    """L_SHAPED when c*k <= 1 (density decreasing from 0+), else UNIMODAL."""
    return ShapeClass.L_SHAPED if p.c * p.k <= 1.0 else ShapeClass.UNIMODAL
