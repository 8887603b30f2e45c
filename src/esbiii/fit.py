"""Maximum-likelihood estimation for the epsilon-skew Burr III family.

The log-likelihood for a sample x_1..x_n, written with s_i = sign(x_i - mu)
(sign(0) = +1) and z_i = s_i (x_i - mu) / (sigma (1 + s_i eps)), is

    l = n log(ck / (2 sigma)) - (c+1) sum log z_i - (k+1) sum log(1 + z_i**-c)

The fitter runs cyclic coordinate ascent in the order mu, sigma, c, k, eps.
Each coordinate is updated by solving its score equation (k has a closed
form); an update is kept only if the log-likelihood does not decrease, and
a golden-section line search on the same coordinate takes over whenever
the root step is unavailable or goes downhill.  The mu, sigma, c and eps
updates share one rule: scan the score over a grid outward from the
current value, in windows that widen only until no unscanned cell can
hold a nearer sign change, and refine the nearest one by Brent's method,
whose bracket ends are read from the scan rather than evaluated again.
For mu only sign changes where the score falls through zero count: with
mu increasing, a maximum can sit only there, while a rise marks a minimum
or the upward jump of the floored score at the floor edge of an
observation (see below).  A pattern step after each cycle extrapolates
along the displacement the cycle produced, which cuts through the slow
zigzag coordinate ascent suffers on the curved ridge that couples mu and
eps.  All window and tolerance choices are relative, so fits commute with
affine changes of the data.

When c*k < 1 the density diverges at every observation, so the exact
likelihood has an integrable spike at each data point and its supremum
over mu is infinite.  The fitter therefore maximizes a bounded working
objective in which every |x_i - mu| is floored at the sample resolution
(half the median gap between adjacent order statistics -- below that
distance the sample cannot localize mu anyway).  The floor caps each
spike at the level of an ordinary point's contribution, leaving nothing
for the optimizer to chase, and the working objective equals the exact
log-likelihood whenever mu keeps the floor distance from every
observation.  In the spiked regime the mu score has a pole at every data
point and no root, so the mu update switches to direct search.  Whenever
mu ends up within the floor distance of an observation -- always the
case in the spiked regime, and occasionally just above c*k = 1 where the
repulsion of data points is too weak to push mu out of the dead zone --
the mu component is dropped from the convergence norm, since no score
equation holds at such a pin, and the two objectives differ at the
solution by a bounded amount: below c*k = 1 the floor truncates an
infinite spike (exact above working), just above it the floor slightly
inflates the pinned point's contribution (working above exact).

A cycle is a deterministic function of its starting point, so once a full
cycle leaves every parameter unchanged (compared bit for bit) every later
cycle would too.  The ascent then stops with converged=False even if
max_cycles is not used up: the point is final, but its score norm stays
above the tolerance.  Solve errors swallowed on the way to the golden
fallback, and such fixed-point exits, are logged at DEBUG level.
"""

from __future__ import annotations

import bisect
import logging
import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .burr3 import _BLOCK, _blockwise, _pick
from .distribution import Params
from .errors import (
    BracketError,
    DegenerateDataError,
    DensityLimitWarning,
    DomainError,
    NoBracketError,
    NonConvergenceError,
    SmallSampleError,
)
from .special_math import find_root, log1p_exp

__all__ = [
    "COORD_NAMES",
    "FitConfig",
    "FitResult",
    "StandardizedSample",
    "fit_ml",
    "loglik",
    "moment_init",
    "score",
    "solve_coordinate",
    "standardize",
]

COORD_NAMES = ("mu", "sigma", "c", "k", "eps")

_log = logging.getLogger(__name__)

_MIN_N = 20
_EPS_EDGE = 1e-9  # distance kept between eps and the ends of (-1, 1)


@dataclass(frozen=True)
class StandardizedSample:
    """Signs and folded magnitudes of a sample relative to given parameters."""

    s: np.ndarray
    z: np.ndarray


def _fold(x, mu, floor=0.0):
    """d = x - mu, its signs s (sign(0) = +1) and the floored |d|."""
    d = x - mu
    return d, np.where(d >= 0.0, 1.0, -1.0), np.maximum(np.abs(d), floor)


def _split_sample(x, mu, sigma, eps, floor=0.0):
    d, s, mag = _fold(x, mu, floor)
    # s * eps is exactly +-eps, so the two scales carry the bits of sigma * (1 + s eps)
    return d, s, mag / np.where(d >= 0.0, sigma * (1.0 + eps), sigma * (1.0 - eps))


def standardize(p, data):
    """StandardizedSample of the data under p; z_i = 0 marks a tie with mu."""
    _, s, z = _split_sample(np.asarray(data.values, dtype=float), p.mu, p.sigma, p.eps)
    return StandardizedSample(s=s, z=z)


def _data_resolution(x):
    """Half the median gap between adjacent distinct order statistics."""
    gaps = np.diff(np.sort(x))
    gaps = gaps[gaps > 0.0]
    if gaps.size == 0:
        raise DegenerateDataError("all observations identical")
    return 0.5 * float(np.median(gaps))


@dataclass(frozen=True)
class _FlooredSample:
    """The sample an ascent hands to solve_coordinate, with the fit's floor.

    The floor and the 5-95% quantile spread (which sizes the mu scan)
    depend on the data alone, so a fit computes them once instead of in
    every coordinate solve.
    """

    values: np.ndarray
    floor: float
    spread: float


def _floored(x):
    lo, hi = np.quantile(x, [0.05, 0.95])
    return _FlooredSample(x, _data_resolution(x), float(hi - lo))


def _fsum(parts):
    """Correctly rounded sum of block partials (math.fsum).

    Where fsum cannot round, at inf - inf or a finite sum that overflows,
    the plain sum gives the nan or inf a single pass would.
    """
    try:
        return math.fsum(parts)
    except (ValueError, OverflowError):
        return sum(parts)


def _exact_loglik(x, mu, sigma, c, k, eps):
    # z = 0 (a point at mu, or so close that z underflows) makes the sum nan
    with np.errstate(divide="ignore", invalid="ignore"):
        return _fsum(
            _blockwise(lambda xb: _fit_loglik(xb, mu, sigma, c, k, eps, 0.0), x)
        )


def _loglik_arrays(x, mu, sigma, c, k, eps):
    ll = _exact_loglik(x, mu, sigma, c, k, eps)
    if not math.isnan(ll):
        return ll
    ck = c * k
    if ck > 1.0:
        return -math.inf
    if ck < 1.0:
        return math.inf
    # c*k = 1: tied points contribute exactly the constant term
    rest = x[_split_sample(x, mu, sigma, eps)[2] > 0.0]
    const = math.log(ck / (2.0 * sigma))
    return (x.size - rest.size) * const + _exact_loglik(rest, mu, sigma, c, k, eps)


def loglik(p, data):
    """Log-likelihood of the sample under p.

    A data point exactly at mu is assigned its density limit, so the
    result is -inf when c*k > 1 and +inf (with a DensityLimitWarning)
    when c*k < 1; at c*k = 1 the tied contribution is finite and exact.
    Always equals the sum of pointwise log densities.
    """
    val = _loglik_arrays(
        np.asarray(data.values, dtype=float), p.mu, p.sigma, p.c, p.k, p.eps
    )
    if val == math.inf:
        warnings.warn(
            "a data point coincides with mu and c*k < 1: likelihood unbounded",
            DensityLimitWarning,
            stacklevel=2,
        )
    return float(val)


def _tmix(lz, c):
    """1 / (1 + z**c) from lz = log z, for a scalar or an array.

    z**c = exp(c lz) overflowing to inf gives exactly 0, the limit.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(c * lz))


def score(p, data):
    """Score vector (d l / d mu, d sigma, d c, d k, d eps) at p.

    Undefined, like the tie rule of loglik, when some z is 0: a data point
    at mu, or so close that z underflows; perturb mu first.
    """
    x = np.asarray(data.values, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = _work_score(x, p.mu, p.sigma, p.c, p.k, p.eps, 0.0)
    if np.all(np.isfinite(g)):  # a tie makes g non-finite: only then look at z
        return g
    if np.any(standardize(p, data).z == 0.0):
        raise DomainError("score is undefined with a data point at mu (z = 0)")
    return _work_score(x, p.mu, p.sigma, p.c, p.k, p.eps, 0.0)  # numpy warns why


def _score_sums(x, mu, sigma, c, k, eps, floor):
    """One block's sums of log(1 + z**-c), t, log z, t log z and the eps and mu terms.

    t = 1/(1 + z**c), and the eps and mu terms are coef/(s + eps) and
    coef/d with coef = (c+1) - c(k+1) t, s = sign(d) and d = x - mu.
    """
    d = x - mu
    pos = d >= 0.0
    lz = np.maximum(np.abs(d), floor)
    dead = lz <= floor  # points on the floor add nothing to the mu component
    # s * eps is exactly +-eps, so the two scales carry the bits of sigma * (1 + s eps)
    lz /= _pick(pos, sigma * (1.0 + eps), sigma * (1.0 - eps))
    np.log(lz, out=lz)
    sp = log1p_exp(-c * lz).sum()
    t = _tmix(lz, c)
    t_sum = t.sum()
    lz_sum = lz.sum()
    lzt = np.multiply(lz, t, out=lz).sum()
    coef = np.multiply(t, -c * (k + 1.0), out=t)  # (c+1) - c(k+1) t, in t's buffer
    coef += c + 1.0
    # s + eps is 1 + eps or eps - 1
    g_eps = (coef / _pick(pos, 1.0 + eps, eps - 1.0)).sum()
    if dead.any():
        coef[dead] = 0.0
        d[dead] = 1.0
    return sp, t_sum, lz_sum, lzt, g_eps, np.divide(coef, d, out=coef).sum()


def _work_score(x, mu, sigma, c, k, eps, floor):
    """Score of the working (resolution-floored) objective.

    Points inside the floor contribute a constant to the objective, hence
    nothing to the mu component; the other components use the floored z.
    Identical to the exact score when mu is off-floor for every point, and
    floor = 0 gives the exact score.  The sums are taken per block and
    added by _fsum, so up to one block the result has the bits of a single
    pass.
    """
    n = x.size
    blocks = _blockwise(lambda xb: _score_sums(xb, mu, sigma, c, k, eps, floor), x)
    sp, t, lz, lzt, g_eps, g_mu = (_fsum([b[i] for b in blocks]) for i in range(6))
    g_sigma = (n * c - c * (k + 1.0) * t) / sigma
    g_c = n / c - lz + (k + 1.0) * lzt
    return np.array([g_mu, g_sigma, g_c, n / k - sp, g_eps])


def _mu_pinned(x, mu, floor):
    """True when mu sits at or inside the resolution floor of a data point."""
    return bool(np.min(np.abs(x - mu)) <= floor * (1.0 + 1e-9))


def _scaled_score_norm(g, p, include_mu, include_c=True):
    """Max-norm of the score in relative coordinates (log sigma, log c, ...).

    Only free coordinates count.  include_c is cleared when c is held
    fixed.  The mu component only counts when include_mu is set: the
    fitter drops it whenever mu is pinned at the resolution floor of an
    observation (always the case in the c*k < 1 comb regime), where the
    mu score cannot vanish.
    """
    parts = [p.sigma * abs(g[1]), p.k * abs(g[3]), abs(g[4])]
    if include_c:
        parts.append(p.c * abs(g[2]))
    if include_mu:
        parts.append(p.sigma * abs(g[0]))
    return max(parts)


def _fit_loglik(x, mu, sigma, c, k, eps, floor):
    """Bounded working objective maximized by the optimizer.

    The exact log-likelihood with each |x_i - mu| floored; see the module
    docstring.  Agrees with the exact value to the last bit whenever
    min |x_i - mu| >= floor.  A column of mu nodes gives one value per node.
    """
    n = x.size
    d = np.subtract(x, mu)
    # z = max(|d|, floor) / (sigma (1 + s eps)) in d's buffer, as in _split_sample
    scale = _pick(d >= 0.0, sigma * (1.0 + eps), sigma * (1.0 - eps))
    lz = np.abs(d, out=d)
    np.maximum(lz, floor, out=lz)
    lz /= scale
    np.log(lz, out=lz)
    return (
        n * math.log(c * k / (2.0 * sigma))
        - (c + 1.0) * lz.sum(axis=-1)
        - (k + 1.0) * log1p_exp(np.multiply(lz, -c, out=scale)).sum(axis=-1)
    )


@dataclass(frozen=True)
class FitConfig:
    """Knobs for fit_ml.

    score_tol is the threshold on the scaled score max-norm; None means
    1e-5 * n.  init=None selects the moment-based start.  fixed_c pins c
    and removes it from the update cycle (4 free parameters).
    """

    max_cycles: int = 500
    param_tol: float = 1e-6
    score_tol: float | None = None
    init: Params | None = None
    fixed_c: float | None = None

    def __post_init__(self):
        if not (isinstance(self.max_cycles, numbers.Integral) and self.max_cycles >= 1):
            raise DomainError("max_cycles must be an integer of at least 1")
        if not self.param_tol > 0.0:
            raise DomainError("param_tol must be positive")
        if self.score_tol is not None and not self.score_tol > 0.0:
            raise DomainError("score_tol must be positive")
        if self.fixed_c is not None and not 0.0 < self.fixed_c < math.inf:
            raise DomainError("fixed_c must be positive and finite")


@dataclass(frozen=True)
class FitResult:
    """Outcome of fit_ml.

    loglik is the maximized working objective (equal to the last trace
    entry); it coincides with the exact log-likelihood at params unless
    mu sits within the resolution floor of an observation: always the
    case when the fitted c*k < 1, where the exact value is at least as
    large, and occasionally just above c*k = 1, where the floor inflates
    the value by a bounded amount (see the module docstring).
    score_norm is the scaled norm of the working score, omitting
    the mu component when mu is pinned at the floor of an observation
    (always the case when the fitted c*k < 1), where the mu score cannot
    vanish (see the module docstring).  trace holds (cycle, loglik)
    pairs and never decreases in its second column; cycles equals its
    last cycle number.  An unconverged result may report cycles below
    max_cycles: its ascent stopped at a point that a full cycle leaves
    unchanged, where more cycles could not move it.
    """

    params: Params
    loglik: float
    aic: float
    converged: bool
    cycles: int
    score_norm: float
    free_params: int
    trace: tuple[tuple[int, float], ...]


# -- scan kernels: one score component at a column of nodes, evaluated as --
# -- one (nodes, n) broadcast.  A single node gives the bits a grid gives. --

def _on_grid(kernel, nodes, n):
    """kernel at each node, in chunks of rows of at most burr3._BLOCK elements.

    That is the block size of the bulk kernels, 64 KB of float64, for the
    same reason: until a process frees a large block, glibc returns freed
    memory above 128 KiB to the system, so (8, 2000) chunks faulted in new
    pages on every pass and ran slower than a loop over the nodes.
    """
    col = np.asarray(nodes, dtype=float).reshape(-1, 1)
    rows = max(1, _BLOCK // n)
    return np.concatenate([kernel(col[i : i + rows]) for i in range(0, len(col), rows)])


def _at(kernel, v):
    """kernel at the single node v, as a float."""
    return float(kernel(np.array([[v]]))[0])


def _mu_score(x, mu, sigma, c, k, eps, floor):
    d, s, mag = _fold(x, mu, floor)
    coef = (c + 1.0) - c * (k + 1.0) * _tmix(np.log(mag / (sigma * (1.0 + s * eps))), c)
    live = mag > floor
    return (np.where(live, coef, 0.0) / np.where(live, d, 1.0)).sum(axis=-1)


def _sigma_score_scaled(mag, w, c, k, sigma):
    # sigma * dl/dsigma = c * (n - (k+1) * sum 1/(1+z**c)), z = mag / (sigma w)
    return c * (mag.size - (k + 1.0) * _tmix(np.log(mag / (sigma * w)), c).sum(axis=-1))


def _c_score(lz, lz_sum, k, c):
    return lz.size / c[:, 0] - lz_sum + (k + 1.0) * (lz * _tmix(lz, c)).sum(axis=-1)


def _eps_score(s, mag, sigma, c, k, eps):
    z = mag / (sigma * (1.0 + s * eps))
    coef = (c + 1.0) - c * (k + 1.0) * _tmix(np.log(z), c)
    return (coef / (s + eps)).sum(axis=-1)


def _brent_root(f, a, b, tol, known):
    """Brent's root of f in [a, b].

    known holds values of f that a scan already computed, the bracket ends
    among them; those nodes are read, not evaluated again.
    """
    return find_root(
        lambda v: known[v] if v in known else f(v), a, b, tol=tol, max_iter=200
    ).root


def _scan_brackets(xs, vals, falling=False, ends_grid=True):
    """Adjacent sign-change pairs (a, b) from a scan, plus exact zeros.

    With falling set, a pair is kept only where the values fall through
    zero: vals(a) > 0 >= vals(b).  A zero at the last node counts only if
    ends_grid says that node ends the grid; otherwise its cell is undecided.
    """
    pairs = []
    for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
        if not (math.isfinite(fa) and math.isfinite(fb)):
            continue
        if fa == 0.0:
            pairs.append((float(a), float(a)))
        elif (fa > 0.0) != (fb > 0.0) and (fa > 0.0 or not falling):
            pairs.append((float(a), float(b)))
    if ends_grid and vals and math.isfinite(vals[-1]) and vals[-1] == 0.0:
        pairs.append((float(xs[-1]), float(xs[-1])))
    return pairs


def _nearest_root(kern, grid, v0, n, tol, what, node=lambda v: v, falling=False):
    """Root in v of kern(node(v)), refined from a scan over the ascending grid.

    Brent's method runs on the scan's sign change nearest v0 (the first in
    grid order among equally near ones; with falling set, only changes from
    positive to non-positive count); an exact zero on the grid is
    returned as it is.  The scan evaluates the grid outward from v0: first
    the nodes next to v0, then windows twice as wide on each side, and
    only on the sides that could still hold a nearer sign change.
    A cell left of the window is at least as far as the window's left edge
    and wins ties, one right of it is at least as far as the right edge and
    loses them, so the pair chosen is the full scan's.  Raises
    NoBracketError(what) when the whole grid has no sign change.
    """
    last = len(grid) - 1
    i = min(bisect.bisect_left(grid, v0), last)
    lo, hi = max(i - 1, 0), min(i + 1, last)
    known = {}
    new, step = grid[lo : hi + 1], 2
    while True:
        known.update(zip(new, _on_grid(kern, [node(v) for v in new], n).tolist()))
        window = grid[lo : hi + 1]
        pairs = _scan_brackets(window, [known[v] for v in window], falling, hi == last)
        dists = [min(abs(a - v0), abs(b - v0)) for a, b in pairs]
        best = min(dists, default=math.inf)
        left = lo > 0 and not best < abs(grid[lo] - v0)
        right = hi < last and not best <= abs(grid[hi] - v0)
        if not (left or right):
            break
        new = []
        if left:
            new += grid[max(lo - step, 0) : lo]
            lo = max(lo - step, 0)
        if right:
            new += grid[hi + 1 : hi + 1 + step]
            hi = min(hi + step, last)
        step *= 2
    if not pairs:
        raise NoBracketError(what)
    a, b = pairs[dists.index(best)]
    if a == b:
        return a
    return _brent_root(lambda v: _at(kern, node(v)), a, b, tol, known)


def _eps_grid():
    inner = np.linspace(0.05, 0.8, 16)
    outer = 1.0 - np.geomspace(1e-8, 0.1, 8)[::-1]
    pos = np.concatenate([inner, outer])
    return np.concatenate([-pos[::-1], [0.0], pos])


_EPS_GRID = np.clip(_eps_grid(), -1.0 + _EPS_EDGE, 1.0 - _EPS_EDGE)


def _comb_mu_update(x, p, grid, floor):
    """Best mu in the c*k < 1 regime: a value scan over grid, then golden refinement.

    In that regime the exact mu score has a pole at every data point and
    the likelihood equation no root, so the update maximizes the working
    objective directly.
    """

    def f(m):
        return _fit_loglik(x, m, p.sigma, p.c, p.k, p.eps, floor)

    vals = _on_grid(f, grid, x.size)
    i = int(np.argmax(vals))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, grid.size - 1)])
    m, _ = _golden_max(f, lo, hi)
    return float(m)


def solve_coordinate(p, which, data, cfg=None):
    """Solve the score equation for one coordinate, holding the others at p.

    Returns the new coordinate value.  `which` is one of COORD_NAMES.  The
    score used is that of the resolution-floored working objective, which
    matches the exact score whenever mu keeps the floor distance from all
    observations.  k has a closed form.  mu (when c*k >= 1), sigma, c and
    eps take the scan's sign change nearest their current value, refined by
    Brent's method (the module docstring gives the rule); for mu only
    falling ones, g(a) > 0 >= g(b), count, since a maximum can sit only
    there.  For mu with c*k < 1 the score equation has no root (dl/dmu has
    a pole at every observation), so the update maximizes the working
    objective.

    Raises NoBracketError when the scan finds no such sign change, and
    BracketError or NonConvergenceError if Brent's method fails.  The floor
    and the mu window are computed from the data, unless the data come
    from a running fit that carries them.
    """
    if which not in COORD_NAMES:
        raise DomainError(f"unknown coordinate {which!r}")
    if not isinstance(data, _FlooredSample):
        data = _floored(np.asarray(data.values, dtype=float))
    x, floor = data.values, data.floor
    n = x.size
    res_tol = 1e-9 * n

    if which == "mu":
        # c*k < 1: direct search (no root exists); else a falling sign change
        width = max(4.0 * p.sigma * (1.0 + abs(p.eps)), data.spread)
        grid = p.mu + np.linspace(-width, width, 41)
        if p.c * p.k < 1.0:
            return _comb_mu_update(x, p, grid, floor)

        def kern(m):
            return _mu_score(x, m, p.sigma, p.c, p.k, p.eps, floor)

        msg = "no falling sign change of the mu score in the window"
        tol_mu = res_tol / p.sigma
        return _nearest_root(kern, grid.tolist(), p.mu, n, tol_mu, msg, falling=True)

    _, s, mag = _fold(x, p.mu, floor)
    w = 1.0 + s * p.eps

    if which == "k":
        # dl/dk = n/k - sum log(1 + z**-c) vanishes at exactly one k
        denom = log1p_exp(-p.c * np.log(mag / (p.sigma * w))).sum()
        if not (denom > 0.0 and math.isfinite(denom)):
            raise NoBracketError("k update undefined for this configuration")
        return float(n / denom)

    if which == "sigma":
        # strictly decreasing in log sigma, so one sign change at most
        def kern(sg):
            return _sigma_score_scaled(mag, w, p.c, p.k, sg)

        ls0 = math.log(p.sigma)
        steps = 2.0 ** np.arange(8.0)  # 1, 2, 4, ..., 128
        grid = (ls0 + np.concatenate([-steps[::-1], [0.0], steps])).tolist()
        msg = "sigma score has no sign change in range"
        tol = res_tol * max(1.0, p.c)
        return math.exp(_nearest_root(kern, grid, ls0, n, tol, msg, math.exp))

    if which == "c":
        lz = np.log(mag / (p.sigma * w))
        lz_sum = lz.sum()

        def kern(c):
            return _c_score(lz, lz_sum, p.k, c)

        lc0 = math.log(p.c)
        offsets = (-16.0, -8.0, -4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
        msg = "c score has no sign change in the scan range"
        grid = [lc0 + o for o in offsets]
        return math.exp(_nearest_root(kern, grid, lc0, n, res_tol, msg, math.exp))

    def kern(e):
        return _eps_score(s, mag, p.sigma, p.c, p.k, e)

    grid = np.unique(np.append(_EPS_GRID, p.eps)).tolist()
    msg = "eps score has no sign change in (-1, 1)"
    return _nearest_root(kern, grid, p.eps, n, res_tol, msg)


_INIT_SHAPE_GRID = ((2.0, 1.0), (5.0, 0.2), (1.5, 3.0), (20.0, 0.2))


def moment_init(data, fixed_c=None):
    """Quantile-based starting point.

    mu from the median, sigma from the normalized IQR, eps from the sign
    imbalance around mu, and (c, k) as the best of a small shape grid by
    likelihood.  Raises DegenerateDataError when the IQR vanishes.
    """
    x = np.asarray(data.values, dtype=float)
    mu0 = float(np.median(x))
    q25, q75 = np.quantile(x, [0.25, 0.75])
    sigma0 = float(q75 - q25) / 1.349
    if not (sigma0 > 0.0 and math.isfinite(sigma0)):
        raise DegenerateDataError("interquartile range is zero; scale is unidentified")
    eps0 = float(np.clip(1.0 - 2.0 * np.mean(x < mu0), -0.9, 0.9))
    floor = _data_resolution(x)
    if fixed_c is not None:
        pairs = tuple((float(fixed_c), k) for k in (1.0, 0.2, 3.0, 0.07))
    else:
        pairs = _INIT_SHAPE_GRID
    best_pair, best_ll = pairs[0], -math.inf
    for c0, k0 in pairs:
        ll = _fit_loglik(x, mu0, sigma0, c0, k0, eps0, floor)
        if ll > best_ll:
            best_pair, best_ll = (c0, k0), ll
    return Params(mu=mu0, sigma=sigma0, c=best_pair[0], k=best_pair[1], eps=eps0)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a, b, iters=90):
    """Golden-section maximization; returns the best probed (x, f(x))."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    best = (x1, f1) if f1 >= f2 else (x2, f2)
    for _ in range(iters):
        if b - a <= 1e-12 * (1.0 + abs(a) + abs(b)):
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
            if f1 > best[1]:
                best = (x1, f1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
            if f2 > best[1]:
                best = (x2, f2)
    return best


def _golden_update(x, p, which, floor):
    """Line-search fallback on one coordinate; returns (params, loglik)."""

    def ll_with(**kw):
        q = replace(p, **kw)
        return _fit_loglik(x, q.mu, q.sigma, q.c, q.k, q.eps, floor)

    if which == "mu":
        half = 4.0 * p.sigma * (1.0 + abs(p.eps))
        m, ll = _golden_max(lambda v: ll_with(mu=v), p.mu - half, p.mu + half)
        return replace(p, mu=m), ll
    if which == "eps":
        v, ll = _golden_max(lambda e: ll_with(eps=e), -1.0 + _EPS_EDGE, 1.0 - _EPS_EDGE)
        return replace(p, eps=v), ll
    cur = getattr(p, which)
    lv = math.log(cur)
    v, ll = _golden_max(lambda u: ll_with(**{which: math.exp(u)}), lv - 2.0, lv + 2.0)
    return replace(p, **{which: math.exp(v)}), ll


def _pattern_step(x, p_prev, p, ll, floor):
    """Extrapolate along the last cycle's displacement while it improves.

    Doubles the step in the fit's natural coordinates (log scale for
    sigma, c, k); a ridge accelerator in the usual pattern-search sense.
    """
    dm = p.mu - p_prev.mu
    dls = math.log(p.sigma / p_prev.sigma)
    dlc = math.log(p.c / p_prev.c)
    dlk = math.log(p.k / p_prev.k)
    de = p.eps - p_prev.eps
    if dm == dls == dlc == dlk == de == 0.0:
        return p, ll
    t = 1.0
    while t <= 64.0:
        q = Params(
            mu=p.mu + t * dm,
            sigma=p.sigma * math.exp(t * dls),
            c=p.c * math.exp(t * dlc),
            k=p.k * math.exp(t * dlk),
            eps=float(np.clip(p.eps + t * de, -1.0 + _EPS_EDGE, 1.0 - _EPS_EDGE)),
        )
        q_ll = _fit_loglik(x, q.mu, q.sigma, q.c, q.k, q.eps, floor)
        if not q_ll > ll:
            break
        p, ll = q, q_ll
        t *= 2.0
    return p, ll


def _rel_change(p_new, p_old):
    return max(
        abs(p_new.mu - p_old.mu) / p_new.sigma,
        abs(p_new.sigma - p_old.sigma) / p_new.sigma,
        abs(p_new.c - p_old.c) / p_new.c,
        abs(p_new.k - p_old.k) / p_new.k,
        abs(p_new.eps - p_old.eps),
    )


_START_EPS = (0.0, 0.6, -0.6)  # eps values seeding the multi-start ascents


def _start_points(data, fixed_c):
    """Deterministic initial values spanning the mu-eps ridge.

    The first start is moment_init.  The others re-seed eps directly and
    place mu at the empirical (1 - eps)/2 quantile, where the population
    CDF equals that level at mu; the likelihood couples mu and eps along
    a shallow curved ridge, so a single start sometimes converges to a
    local optimum on the wrong part of it.
    """
    base = moment_init(data, fixed_c)
    x = np.asarray(data.values, dtype=float)
    starts = [base]
    for e0 in _START_EPS[1:]:
        mu0 = float(np.quantile(x, 0.5 * (1.0 - e0)))
        starts.append(replace(base, mu=mu0, eps=e0))
    return starts


def _ascend(data, p, cfg, score_tol):
    """One coordinate-ascent run from p.

    data is the fit's _FlooredSample.  Returns (p, ll, converged, cycles,
    trace, norm), norm being the scaled working-score norm at the final p.
    """
    x, floor = data.values, data.floor
    ll = _fit_loglik(x, p.mu, p.sigma, p.c, p.k, p.eps, floor)
    if math.isnan(ll):
        raise DegenerateDataError("likelihood undefined at the starting point")
    active = tuple(c for c in COORD_NAMES if not (c == "c" and cfg.fixed_c is not None))
    trace = [(0, float(ll))]
    converged = False
    cycle = 0
    for cycle in range(1, cfg.max_cycles + 1):
        p_prev = p
        for name in active:
            cand, cand_ll = None, -math.inf
            try:
                val = solve_coordinate(p, name, data, cfg)
                cand = replace(p, **{name: val})
                cand_ll = _fit_loglik(
                    x, cand.mu, cand.sigma, cand.c, cand.k, cand.eps, floor
                )
            except (
                NoBracketError,
                NonConvergenceError,
                BracketError,
                DomainError,
            ) as exc:
                _log.debug("cycle %d: %s update failed: %r", cycle, name, exc)
            if cand is not None and cand_ll >= ll:
                p, ll = cand, cand_ll
                continue
            alt, alt_ll = _golden_update(x, p, name, floor)
            if alt_ll > ll:
                p, ll = alt, alt_ll
        p, ll = _pattern_step(x, p_prev, p, ll, floor)
        trace.append((cycle, float(ll)))
        g = _work_score(x, p.mu, p.sigma, p.c, p.k, p.eps, floor)
        norm = _scaled_score_norm(
            g,
            p,
            include_mu=not _mu_pinned(x, p.mu, floor),
            include_c=cfg.fixed_c is None,
        )
        if _rel_change(p, p_prev) <= cfg.param_tol and norm <= score_tol:
            converged = True
            break
        if p == p_prev:
            # fixed point of the cycle: every later cycle would repeat this one
            _log.debug("cycle %d: fixed point at loglik %.17g", cycle, ll)
            break
    return p, ll, converged, cycle, trace, norm


def fit_ml(data, cfg=None):
    """Maximum-likelihood fit by cyclic coordinate ascent.

    Requires at least 20 observations.  Unless cfg.init pins the start,
    the ascent is repeated from a small set of initial values spanning
    the mu-eps ridge and the best final likelihood wins; the reported
    trace is the winning run's and never decreases.  Convergence means
    both the relative parameter change over a full cycle and the scaled
    score norm fell below their tolerances; otherwise the best point
    found is returned with converged=False.  An ascent also ends, with
    converged=False, as soon as a full cycle leaves every parameter
    unchanged, since every later cycle would repeat it; cycles can then be
    below cfg.max_cycles.
    """
    cfg = cfg or FitConfig()
    x = np.asarray(data.values, dtype=float)
    n = x.size
    if n < _MIN_N:
        raise SmallSampleError(f"need at least {_MIN_N} observations, got {n}")
    floored = _floored(x)  # raises DegenerateDataError for constant data
    score_tol = cfg.score_tol if cfg.score_tol is not None else 1e-5 * n

    if cfg.init is not None:
        starts = [cfg.init]
    else:
        starts = _start_points(data, cfg.fixed_c)
    if cfg.fixed_c is not None:
        starts = [
            s if s.c == cfg.fixed_c else replace(s, c=float(cfg.fixed_c))
            for s in starts
        ]

    best = None
    for s in starts:
        run = _ascend(floored, s, cfg, score_tol)
        if best is None or run[1] > best[1]:
            best = run
    p, ll, converged, cycle, trace, norm = best
    free = 4 if cfg.fixed_c is not None else 5
    return FitResult(
        params=p,
        loglik=float(ll),
        aic=2.0 * free - 2.0 * float(ll),
        converged=converged,
        cycles=cycle,
        score_norm=float(norm),
        free_params=free,
        trace=tuple(trace),
    )
