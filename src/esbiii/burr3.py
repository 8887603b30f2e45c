"""Burr III distribution on the positive half line.

Parameterized by two positive shapes c and k, with distribution function
G(z) = (1 + z**-c)**-k for z > 0.  This is the symmetric-kernel ingredient
from which the epsilon-skew family in :mod:`esbiii.distribution` is built.
"""

from __future__ import annotations

import enum
import functools
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, whole_number
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
    """Shape parameters of a Burr III distribution, both strictly positive.

    The bounds are compared exactly, so an integer beyond the float range
    is refused like an infinity.
    """

    c: float
    k: float

    def __post_init__(self):
        if not 0.0 < self.c <= sys.float_info.max:
            raise DomainError(f"c must be positive and finite, got {self.c}")
        if not 0.0 < self.k <= sys.float_info.max:
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


# Elements per block of a bulk kernel, set by two limits.  Every float64
# temporary of a block stays below glibc's default 128 KiB mmap threshold,
# so that it comes from the heap's free lists: a larger one is mapped
# afresh and its pages faulted in on every call, until the process frees
# one and so raises the threshold.  And a 1e6-element call holds at most
# 1.5 MB of temporaries beside its output (tests/test_blockwise.py); at
# 1 << 15 score holds 1.61 MB.  16368 is the largest multiple of 16
# elements (128 bytes) under the first limit: 130944 bytes, and malloc's
# 8-byte chunk header.
_BLOCK = 16368


def _blockwise(kernel, *arrays):
    """[kernel(*blocks) for each run of _BLOCK consecutive elements].

    The arrays share one size and are walked in C order.  The blocks of a
    C-contiguous array are views, so a kernel can write its results into
    an output array passed among the inputs.  0-d arrays are one block and
    stay 0-d, so a scalar input takes log1p_exp's scalar branch, as it did
    before blocking.
    """
    if arrays[0].ndim == 0:
        return [kernel(*arrays)]
    flat = [a.reshape(-1) for a in arrays]
    results = []
    for i in range(0, flat[0].size, _BLOCK):
        results.append(kernel(*(f[i : i + _BLOCK] for f in flat)))
    return results


def _pick(mask, a, b):
    """np.where(mask, a, b) for two scalars, without a branch per element.

    np.where branches on every element, and on a mask that mixes values
    the branches mispredict: 41 us per 8192-element block on an x86
    machine, against 18 us for indexing this two-entry table.
    """
    return np.array([b, a]).take(mask.view(np.int8))


def _put(out, a, mask):
    """np.copyto(out, a, where=mask) for float64 a and out, out an array.

    The bits of out become out ^ ((a ^ out) * mask), with no branch per
    element: 1.3 ns per element of a 16368-element block whose mask
    mixes values, on an x86 machine, against 3 for np.where and 6.7 for
    np.copyto.
    """
    bits = out.view(np.uint64)
    diff = np.bitwise_xor(a.view(np.uint64), bits)
    diff *= mask
    bits ^= diff


def _fold(y, mu, sigma, eps, floor=0.0):
    """The epsilon-skew fold of y about mu: (d, pos, z).

    d = y - mu, pos marks d >= 0 (sign(0) = +1) and
    z = max(|d|, floor) / (sigma (1 + s eps)) with s = +-1 the sign, the
    point at which the family evaluates its Burr III kernel.  One division
    by each side's scale, whose bits are those of sigma * (1 + s eps): s *
    eps is exactly +-eps.  d and z are fresh arrays, also for a 0-d y, and
    broadcast like y - mu.  The package's only fold: the density, cdf,
    likelihood, score and influence curves all take their z from here.
    """
    d = np.subtract(y, mu)
    pos = d >= 0.0
    z = np.abs(d)
    if not z.ndim:  # a 0-d y - mu gives numpy scalars; callers write into d and z
        d, z = np.array(d), np.array(z)
    if floor:
        np.maximum(z, floor, out=z)
    z /= _pick(pos, sigma * (1.0 + eps), sigma * (1.0 - eps))
    return d, pos, z


def _tmix(lz, c):
    """1 / (1 + z**c) from lz = log z, for a scalar or an array.

    z**c = exp(c lz) overflowing to inf gives exactly 0, the limit.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(c * lz))


def _u_terms(x, mu, sigma, c, k, eps, floor=0.0):
    """Per-point terms of the log density's derivatives: (pos, u, t, f_u, r).

    pos and u = log z come from _fold, t = 1/(1 + z**c), and f_u = c(k+1) t
    - (c+1) is the derivative of -(c+1) u - (k+1) log(1 + z**-c) in u; its
    second derivative is -(k+1) c**2 t (1 - t).  r = 1/d is -du/dmu, and 0
    for points on the floor, whose z does not move with mu.  The package's
    only per-point derivative kernel: the fitter's score, Hessian and mu
    slope and the influence curves all take their terms from here.  A 0-d
    x gives 0-d terms.
    """
    d, pos, u = _fold(x, mu, sigma, eps, floor)
    np.log(u, out=u)
    t = _tmix(u, c)
    f_u = np.multiply(t, c * (k + 1.0))
    f_u -= c + 1.0
    if floor:
        dead = np.abs(d) <= floor
        if dead.any():
            d[dead] = np.inf  # 1/inf = 0
    return pos, u, t, f_u, np.divide(1.0, d, out=d)


def _log_density(log_const, c, k, log_z, out=None):
    """log_const - (c+1) log z - (k+1) log(1 + z**-c), from log z.

    The one per-point log density of the package: with log_const =
    log(c*k) it is the Burr III log density, and the epsilon-skew family
    evaluates it at its folded variable with its own constant.  An array
    log_z can have the result written into out.  A log_z that is no array
    takes the operators in place of the ufuncs: the same operations in the
    same order, so the same bits, and float arguments give a float with
    no numpy scalar on the way, as log1p_exp does.
    """
    if isinstance(log_z, np.ndarray):
        mul, sub = functools.partial(np.multiply, out=out), functools.partial(np.subtract, out=out)
    else:
        mul, sub = operator.mul, operator.sub
    tail = log1p_exp(-c * log_z)
    tail *= k + 1.0
    return sub(sub(log_const, mul(log_z, c + 1.0)), tail)


def _log1p_exp_neg(a, c, out):
    """log1p(e**(-c a)) written into out, from an array a >= 0, which out may be."""
    np.multiply(a, -c, out=out)
    return np.log1p(np.exp(out, out=out), out=out)


def _log_density_sum(rows, c, k):
    """The sum of _log_density(0, c, k, lz) over an array lz = log z, from rows, which it overwrites.

    The one summed log density of the package: loglik's masked kernel and
    the fitter's objective add it to their constants.  The softplus sum is
    sum log(1 + e**(-c log z)) = sum log1p(e**(-c |log z|)) + c (sum |log
    z| - sum log z) / 2: the positive parts of -c log z come from the two
    sums, not per point.

    rows is lz itself, each sum then taken before the next pass overwrites
    it: loglik's blocks, whose one temporary stays under the mmap
    threshold (_BLOCK).  Or it is a (3, m) array whose first row holds lz:
    |log z| and the log1p terms go into the other two rows, and one
    row-wise reduce takes the three sums, the same pairwise sums as three
    1-d reduces, for the fitter's probes, which keep such a scratch.
    """
    if rows.ndim == 1:
        s_lz = np.add.reduce(rows)
        s_abs = np.add.reduce(np.abs(rows, out=rows))
        s_t = np.add.reduce(_log1p_exp_neg(rows, c, rows))
    else:
        _log1p_exp_neg(np.abs(rows[0], out=rows[1]), c, rows[2])
        s_lz, s_abs, s_t = np.add.reduce(rows, 1).tolist()
    soft = s_t + 0.5 * c * (s_abs - s_lz)
    return -(c + 1.0) * s_lz - (k + 1.0) * soft


def burr3_pdf(p, z):
    """Density g(z) = c*k * z**-(c+1) * (1 + z**-c)**-(k+1) for z > 0.

    Evaluated in log space so that extreme z neither overflow nor lose the
    power-law tail.  Accepts a scalar or an array.
    """
    arr = _positive_array(z, "z")
    logpdf = _log_density(np.log(p.c * p.k), p.c, p.k, np.log(arr))
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
    a = np.log(arr.reshape(-1))
    a /= -p.k
    return _maybe_scalar(_quantile_of(p.c, a).reshape(arr.shape), u)


def _quantile_of(c, a):
    """Burr III quantile at u = exp(-k a), from a 1-d array a = -log(u) / k >= 0.

    Taking -log u lets a caller that holds 1 - u more exactly than u pass
    -log1p(-(1 - u)) / k, so u near 1 never rounds to 1.  Computed in
    place of a, which it returns.
    """
    big = a > 33.0
    a_big = a[big] if big.any() else None
    # log(expm1(a)) without overflow: for large a this is a + log1p(-exp(-a))
    log_t = np.minimum(a, 33.0, out=a)
    np.expm1(log_t, out=log_t)
    np.log(log_t, out=log_t)
    if a_big is not None:
        log_t[big] = a_big + np.log1p(-np.exp(-a_big))
    log_t /= -c
    return np.exp(log_t, out=log_t)


def _draw(rng, c, k, out):
    """Fill the 1-d array out with Burr III(c, k) inverse-transform draws from rng.

    The uniforms are drawn into out and turned into quantiles in place,
    as burr3_quantile would but without its domain check and copy:
    rng.random can emit exactly 0.0, which becomes 2**-53, so every
    uniform lies in (0, 1).  PCG64 streams the same doubles whatever the
    size of out, so draws made block by block equal one rng.random(n)
    call's.
    """
    u = rng.random(out=out)
    zero = u == 0.0
    if zero.any():
        u[zero] = 2.0**-53
    a = np.log(u, out=u)
    a /= -k
    _quantile_of(c, a)


def burr3_sample(p, n, seed):
    """Draw n values by inverse transform from a seeded PCG64 stream.

    Identical (p, n, seed) triples reproduce the identical array.
    """
    n = whole_number(n, "n")
    rng = np.random.default_rng(whole_number(seed, "seed", 0))
    out = np.empty(n)
    _blockwise(functools.partial(_draw, rng, p.c, p.k), out)
    return out


def burr3_shape_class(p):
    """L_SHAPED when c*k <= 1 (density decreasing from 0+), else UNIMODAL."""
    return ShapeClass.L_SHAPED if p.c * p.k <= 1.0 else ShapeClass.UNIMODAL
