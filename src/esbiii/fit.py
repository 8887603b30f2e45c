"""Maximum-likelihood estimation for the epsilon-skew Burr III family.

The log-likelihood for a sample x_1..x_n, written with s_i = sign(x_i - mu)
(sign(0) = +1) and z_i = s_i (x_i - mu) / (sigma (1 + s_i eps)), is

    l = n log(ck / (2 sigma)) - (c+1) sum log z_i - (k+1) sum log(1 + z_i**-c)

with z_i from burr3._fold, the fold logpdf uses too, so the likelihood and
the density see the same z_i for a point.

fit_ml fits y = s (x - median) / scale, scale the power of two just above
the interquartile range and s = -1 when the upper quartile gap is the
smaller one, and maps the estimate back, so shift, scale and reflection
equivariance hold by construction (_map_mu keeps mu on the same side of
each observation).  Each start runs one loop.  An iteration makes three
moves, each kept only if it raises the objective: a mu move (a scan of
five grid nodes, widened to all 41 when the best is an edge node, then
golden section down to one corner or jump of the floored objective or
none, ended on that break or by Newton), one trust-region
Newton step in theta = (mu, log sigma, log c, log k, atanh eps) with the
exact gradient and Hessian from one pass over the data and the exact
subproblem solution (Nocedal & Wright, Numerical Optimization, 2nd ed.,
ch. 4), and a pattern step along the iteration's displacement, which cuts
along the curved ridge coupling mu and eps.  The Newton step holds mu
while c*k < 1 or mu is pinned (below), and c while fixed_c is set.

When c*k < 1 the density diverges at every observation and the likelihood
is unbounded in mu, so the fitter maximizes a working objective in which
every |x_i - mu| is floored at the sample resolution (half the median gap
between adjacent order statistics).  It is the exact log-likelihood while
mu keeps the floor distance from every observation.  When mu is pinned
within the floor of one -- always below c*k = 1, at times just above --
its score component leaves the convergence norm, and the two objectives
differ by a bounded amount.  loglik, the scores and the derivatives run
in blocks of burr3._BLOCK points whose partial sums are added by
math.fsum; the fitter's objective (_mu_line) sums its off-floor slice in
one pass.  Both objectives take the sum of the log density over their
points from burr3._log_density_sum, and add their constant to it.

fit_ml sorts its standardized sample once (_floored), so a fit depends on
the data's values alone, not their order, bit for bit.  On sorted data the
points below mu and those within the floor of it are runs of indices that
bisect finds, so each objective pass of the fitter (_mu_line) is
arithmetic on slices, with none of _fold's per-point selects.  Its z is
_fold's to within 2**-36 relative: while |mu| is within 2**15 floors it
subtracts mu from the sorted values divided by their side's scale once
per line, and farther out it makes _fold's division.  The points within
the floor add their side's plateau value, burr3._log_density at the
floored z, times their count.  Every objective value the fitter compares
comes from _mu_line, the mu scan's nodes and _sorted_loglik's too; the
masked kernel (_block_loglik) serves loglik.  A mu move binds its
objective in mu once.

An iteration depends on its starting point alone (a failed trust-region
step is retried from the initial radius), so once one leaves every
parameter unchanged, bit for bit, every later one would too: the loop
stops unconverged at that fixed point, on a boundary ray (_on_ray,
below) or not.  It stops
unconverged too when the tolerances are met with sigma (1 + |eps|) within
the floor: the data then see only the tails, on the sigma -> 0, k -> inf
ray.  Likewise with sigma (1 + |eps|) / c within the floor for c > 1: the
kernel's shoulder at z = 1 is then narrower than the data resolve, on
the c -> inf, k -> 0 ray to the bounded power-function limit, along
which the objective still creeps up.  A run on the sigma -> 0 ray that
does not meet the tolerances stops, unconverged, once sigma (1 + |eps|) n
is within the floor.

Several starts often climb to one optimum.  A start stops, unconverged,
once it reaches an earlier start's converged end point (mu within the
floor, sigma, c and k within 1e-3 relative, eps within 1e-3) without
beating its objective, so each optimum is refined once (Rinnooy Kan &
Timmer, Stochastic global optimization methods, Part I: clustering
methods, Math. Prog. 39, 1987).  Such a start cannot win.  Each run names
its stop once, converged or one of these exits or max_cycles, in one
DEBUG record on this module's logger.
"""

from __future__ import annotations

import bisect
import logging
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .burr3 import _BLOCK, _blockwise, _fold, _log_density, _log_density_sum, _pick, _u_terms
from .distribution import Params
from .errors import DegenerateDataError, DensityLimitWarning, DomainError, NoBracketError
from .errors import SmallSampleError, whole_number
from .special_math import find_root

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


def standardize(p, data):
    """StandardizedSample of the data under p; z_i = 0 marks a tie with mu."""
    _, pos, z = _fold(np.asarray(data.values, dtype=float), p.mu, p.sigma, p.eps)
    return StandardizedSample(s=_pick(pos, 1.0, -1.0), z=z)


def _data_resolution(x):
    """Half the median gap between adjacent distinct order statistics."""
    gaps = np.diff(np.sort(x))
    gaps = gaps[gaps > 0.0]
    if gaps.size == 0:
        raise DegenerateDataError("all observations identical")
    return 0.5 * float(np.median(gaps))


class _Ledger(SimpleNamespace):
    """A fit's work, counted where it is done: a measure that does not depend on the hardware.

    lines and probes count the objective lines _mu_line binds and the
    probes made on them; the mu scan's probes (nodes) and the pattern
    step's (pattern) are among them.  slopes counts the mu move's slope
    passes, derivs the trust-region step's gradient and Hessian passes,
    subproblems the subproblems it solves and rejected the steps it probed
    and refused, scores the score passes of the convergence test.
    iterations counts every run's iterations, starts holds each run's
    (iterations, stop) in order, and won is the index of the run fit_ml
    reports.  Plain integers: an increment costs under 0.1 us, a probe several us.
    """

    def __init__(self):
        counts = "lines probes nodes slopes derivs subproblems rejected scores pattern iterations won"
        super().__init__(**dict.fromkeys(counts.split(), 0), starts=[])


@dataclass(frozen=True)
class _FlooredSample:
    """A fit's sample, sorted, with its resolution floor and its 5-95% quantile spread.

    The spread sets the mu scan's size.  ys holds the values as a list for
    bisect, and work is a scratch of three rows of their size for
    _mu_line.  below and above are scratch rows too, which hold the values
    divided by the two side scales [sigma (1 - eps), sigma (1 + eps)] that
    scales lists: those of the line _mu_line last filled them for.  ledger
    counts the work done on this sample: one per fit.
    """

    values: np.ndarray
    floor: float
    spread: float
    ys: list = field(repr=False, compare=False)
    work: np.ndarray = field(repr=False, compare=False)
    below: np.ndarray = field(repr=False, compare=False)
    above: np.ndarray = field(repr=False, compare=False)
    scales: list = field(repr=False, compare=False)
    ledger: _Ledger = field(default_factory=_Ledger, repr=False, compare=False)


def _floored(x):
    x = np.sort(x)
    lo, hi = np.quantile(x, [0.05, 0.95])
    work, below, above = np.empty((3, x.size)), np.empty_like(x), np.empty_like(x)
    return _FlooredSample(
        x, _data_resolution(x), float(hi - lo), x.tolist(), work, below, above, [math.nan, math.nan]
    )


def _within(ys, centre, radius):
    """(i, j) such that ys[i:j] are the sorted values with |v - centre| <= radius.

    bisect places both ends, and a step or two settles them where the
    rounded |v - centre| crosses radius, which is monotone on each side of
    centre: the set numpy's np.abs(x - centre) <= radius selects.
    """
    n = len(ys)
    i = bisect.bisect_left(ys, centre - radius)
    while i > 0 and abs(ys[i - 1] - centre) <= radius:
        i -= 1
    while i < n and centre - ys[i] > radius:
        i += 1
    j = bisect.bisect_right(ys, centre + radius, i)
    while j > i and ys[j - 1] - centre > radius:
        j -= 1
    while j < n and ys[j] - centre <= radius:
        j += 1
    return i, j


_SCALED_REACH = 2.0**15  # |mu| / floor up to which a _mu_line probe subtracts scaled values


def _mu_line(data, sigma, c, k, eps):
    """f(mu), _fit_loglik on the fit's sorted sample data with the other parameters bound.

    f works by slices, summed in another order than the masked kernel.
    Below mu the points take z = (mu - y) / s_neg, from mu on (y - mu) /
    s_pos, with the side scales s_neg = sigma (1 - eps) and s_pos = sigma
    (1 + eps).  While |mu| <= _SCALED_REACH floor, f forms them from the
    sorted values divided by their side's scale once per line (data.below
    and data.above), as mu / s_neg - y / s_neg and y / s_pos - mu / s_pos:
    one subtraction per point.  Each term rounds by at most 2**-53 of |mu|
    / s or |y| / s, and an off-floor point has |y - mu| > floor >= |mu| /
    2**15, so z is within 2**-36 relative of _fold's.  Farther out the
    scaled terms would cancel, and f takes _fold's z bit for bit, the
    difference divided by the scale.  A probe refills the buffers when
    they hold another line's scales, so lines may interleave.

    The points off the floor are written into data.work's first row and
    summed by burr3._log_density_sum, which takes the other two rows as
    scratch for one row-wise reduce.  Those within the floor of mu (a
    window around the split) share their side's z = floor / scale, and add
    its log density times their count.  Needs floor > 0.

    The side scales, the constant and the two plateau values are computed
    once, here, as floats, for every call of f.  Returns (f, plateau): plateau holds
    the log density, less its constant, of a point on its floor plateau
    with mu below it and with mu above it (_breakpoints).  data.ledger
    counts the line and each probe.
    """
    y, ys, floor, w = data.values, data.ys, data.floor, data.work
    z = w[0]
    below, above, held, ledger = data.below, data.above, data.scales, data.ledger
    ledger.lines += 1
    n = len(ys)
    scales = [sigma * (1.0 - eps), sigma * (1.0 + eps)]
    s_neg, s_pos = scales
    reach = _SCALED_REACH * floor
    const = n * math.log(c * k / (2.0 * sigma))
    on_neg, on_pos = (_log_density(0.0, c, k, math.log(floor / s)) for s in scales)

    def f(mu):
        ledger.probes += 1
        a, b = _within(ys, mu, floor)  # the floor window
        split = bisect.bisect_left(ys, mu, a, b)
        m = a + n - b  # points off the floor
        if abs(mu) <= reach:
            if held != scales:
                np.divide(y, s_neg, out=below)
                np.divide(y, s_pos, out=above)
                held[:] = scales
            np.subtract(mu / s_neg, below[:a], out=z[:a])
            np.subtract(above[b:], mu / s_pos, out=z[a:m])
        else:
            np.divide(np.subtract(mu, y[:a], out=z[:a]), s_neg, out=z[:a])
            np.divide(np.subtract(y[b:], mu, out=z[a:m]), s_pos, out=z[a:m])
        lz = z[:m]
        np.log(lz, out=lz)
        return const + _log_density_sum(w[:, :m], c, k) + (split - a) * on_neg + (b - split) * on_pos

    return f, (on_pos, on_neg)


def _sorted_loglik(data, mu, sigma, c, k, eps):
    """_fit_loglik on the fit's sorted sample data at one point: a line of _mu_line, called once."""
    return _mu_line(data, sigma, c, k, eps)[0](mu)


def _fsum(parts):
    """math.fsum of block partials, or where it cannot round (inf - inf, overflow) their sum."""
    try:
        return math.fsum(parts)
    except (ValueError, OverflowError):
        return sum(parts)


def _summed(kernel, x):
    """The sums kernel returns for a block, over all of x: block partials added by _fsum.

    Partials are added entry by entry, as numpy floats, so a sum that
    overflows warns.  Up to one block the kernel runs once on x, which
    gives the blocked sums bit for bit: fsum of one partial is that
    partial (bar the sign of a zero).
    """
    if x.size <= _BLOCK:
        return kernel(x)
    blocks = _blockwise(kernel, x)
    cols = np.array(blocks).reshape(len(blocks), -1).T
    return np.array([_fsum(c) for c in cols]).reshape(np.shape(blocks[0]))


def _block_loglik(x, mu, sigma, c, k, eps, floor):
    """One block's working objective, the masked kernel that loglik sums, from _fold's z."""
    lz = _fold(x, mu, sigma, eps, floor)[2]
    return x.size * math.log(c * k / (2.0 * sigma)) + _log_density_sum(np.log(lz, out=lz), c, k)


def _fit_loglik(x, mu, sigma, c, k, eps, floor):
    """The log-likelihood with each |x_i - mu| floored; exact where min |x_i - mu| >= floor."""
    return float(_summed(lambda xb: _block_loglik(xb, mu, sigma, c, k, eps, floor), x))


def loglik(p, data):
    """Log-likelihood of the sample under p.

    A data point exactly at mu is assigned its density limit, so the
    result is -inf when c*k > 1 and +inf (with a DensityLimitWarning)
    when c*k < 1; at c*k = 1 the tied contribution is finite and exact.
    Always equals the sum of pointwise log densities.
    """
    x = np.asarray(data.values, dtype=float)
    # z = 0 (a point at mu, or so close that z underflows) makes the sum nan
    with np.errstate(divide="ignore", invalid="ignore"):
        val = _fit_loglik(x, p.mu, p.sigma, p.c, p.k, p.eps, 0.0)
        ck = p.c * p.k
        if math.isnan(val) and ck != 1.0:
            val = -math.inf if ck > 1.0 else math.inf
        elif math.isnan(val):  # c*k = 1: tied points contribute exactly the constant term
            rest = x[_fold(x, p.mu, p.sigma, p.eps)[2] > 0.0]
            const = math.log(ck / (2.0 * p.sigma))
            val = (x.size - rest.size) * const + _fit_loglik(rest, p.mu, p.sigma, p.c, p.k, p.eps, 0.0)
    if val == math.inf:
        warnings.warn(
            "a data point coincides with mu and c*k < 1: likelihood unbounded",
            DensityLimitWarning,
            stacklevel=2,
        )
    return float(val)


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


def _grad_sums(x, mu, sigma, c, k, eps, floor):
    """One block's sums of f_u, f_u r, f_u v, f_u u, u and log(1 + z**-c).

    The terms are those of _u_terms, and v = eps - s as in _deriv_sums:
    the sums from which _theta_grad forms the score.  The last sum is
    _tail_sum's, from u and t.
    """
    pos, u, t, f_u, r = _u_terms(x, mu, sigma, c, k, eps, floor)
    v = _pick(pos, eps - 1.0, eps + 1.0)
    return np.array([f_u.sum(), f_u @ r, f_u @ v, f_u @ u, u.sum(), _tail_sum(u, t, c)])


def _tail_sum(u, t, c):
    """sum log(1 + z**-c) over a block, from u = log z and t = 1/(1 + z**c).

    A term is -log t - c u where u < 0 and -log1p(-t) where u >= 0: both
    parts are >= 0, so nothing cancels, and a t that underflowed to 0
    gives 0.  Where u < 0, t >= 1/2 and t - 1 is exact, so one log1p pass
    over -min(t, 1 - t) covers both sides.  t is overwritten.
    """
    w = np.subtract(t, 1.0)
    np.maximum(w, np.negative(t, out=t), out=w)  # -min(t, 1 - t)
    return -c * np.minimum(u, 0.0, out=t).sum() - np.log1p(w, out=w).sum()


def _work_score(x, mu, sigma, c, k, eps, floor):
    """Score of the working objective; floor = 0 gives the exact score.

    Points inside the floor add a constant to the objective, hence nothing
    to the mu component; the others use the floored z.  The gradient in
    theta (_theta_grad) divided by d theta / d(mu, sigma, c, k, eps).
    """
    fu, fu_r, fu_v, fu_u, u, phi = _summed(
        lambda xb: _grad_sums(xb, mu, sigma, c, k, eps, floor), x
    ).tolist()
    g = _theta_grad(x.size, k, fu, fu_r, fu_v, fu_u + u, phi)
    # (1 - eps)(1 + eps), not 1 - eps**2, keeps its relative accuracy at the ends of (-1, 1)
    return g / np.array([1.0, sigma, c, k, (1.0 - eps) * (1.0 + eps)])


def _mu_sums(x, mu, sigma, c, k, eps, floor):
    """One block's mu slope and mu curvature of the working objective.

    The slope is -sum f_u r and the curvature sum (f_uu - f_u) r**2, with
    the terms of _u_terms and f_uu = -(k+1) c**2 t (1 - t), f_u's derivative in u.
    """
    _, _, t, f_u, r = _u_terms(x, mu, sigma, c, k, eps, floor)
    f_uu = (1.0 - t) * t * (-(k + 1.0) * c * c)
    f_uu -= f_u
    f_uu *= r
    return np.array([-(f_u @ r), f_uu @ r])


_DERIV_CHUNK = 1 << 12  # points per product in _deriv_sums


def _deriv_sums(x, mu, sigma, c, k, eps, floor):
    """One block's sums over points of products of two terms, and of log(1 + z**-c).

    Row terms (1, f_u, f_uu, t), column terms (1, r, v, r**2, r v, v**2,
    u, u r, u v, u**2): those of _u_terms, f_uu as in _mu_sums, and v =
    eps - s, s the sign of d, which is du/d atanh(eps).  Returns the 4 x
    10 products, flattened row by row, then _tail_sum's sum of log(1 +
    z**-c).  The terms are written row by row into one 4-row and one
    10-row array.  A block of more than _DERIV_CHUNK points is reduced in
    pieces of that many, whose 14 rows of terms (448 KiB) stay in cache;
    the rows of a full 8192-point block cost 2.5 times as much per point.
    """
    if x.size > _DERIV_CHUNK:  # a full block's rows would take 1.75 MiB
        return sum(
            _deriv_sums(x[i : i + _DERIV_CHUNK], mu, sigma, c, k, eps, floor)
            for i in range(0, x.size, _DERIV_CHUNK)
        )
    pos, u, t, f_u, r = _u_terms(x, mu, sigma, c, k, eps, floor)
    left, right = np.empty((4, u.size)), np.empty((10, u.size))
    left[0], left[1], left[3] = 1.0, f_u, t
    f_uu = np.multiply(np.subtract(1.0, t, out=left[2]), t, out=left[2])
    f_uu *= -(k + 1.0) * c * c
    right[0], right[1], right[6] = 1.0, r, u
    right[2] = v = _pick(pos, eps - 1.0, eps + 1.0)
    for row, (a, b) in zip((3, 4, 5, 7, 8, 9), ((r, r), (r, v), (v, v), (u, r), (u, v), (u, u))):
        np.multiply(a, b, out=right[row])
    products = left @ right.T
    return np.append(products, _tail_sum(u, t, c))


def _theta_grad(n, k, fu, fu_r, fu_v, lb, phi):
    """The gradient in theta from sums of f_u, f_u r, f_u v, u (f_u + 1), log(1 + z**-c)."""
    return np.array([-fu_r, -n - fu, n + lb, n - k * phi, fu_v])


def _theta_derivs(x, p, floor):
    """Gradient and Hessian of the working objective in theta, from one pass (_deriv_sums).

    theta = (mu, log sigma, log c, log k, atanh eps).  A point's log
    density is log(ck / (2 sigma)) + f(u), f the function of _u_terms, and
    u moves with mu (by -r, second derivative -r**2), log sigma (by -1) and
    atanh eps (by v, second derivative 1 - eps**2).  f(u) + u depends on c
    only through c u, so on it d/dlog c acts as u d/du: dl/dlog c = 1 +
    u (f_u + 1), d2l/du dlog c = f_u + 1 + u f_uu and d2l/dlog c2 is u
    times that.  log k enters as log k - (k+1) log(1 + z**-c).
    """
    *sums, phi = _summed(
        lambda xb: _deriv_sums(xb, p.mu, p.sigma, p.c, p.k, p.eps, floor), x
    ).tolist()
    one, fu, fuu, t = (sums[i : i + 10] for i in range(0, 40, 10))
    n, k, kc = one[0], p.k, p.k * p.c
    # sums of d2l/du dlog c = f_u + 1 + f_uu u, times 1, r and v
    ub0, ub_r, ub_v = (fu[j] + one[j] + fuu[6 + j] for j in range(3))
    lb = fu[6] + one[6]  # sum of u (f_u + 1); d l / d log c = 1 + u (f_u + 1)
    g = _theta_grad(n, k, fu[0], fu[1], fu[2], lb, phi)
    h = np.array([
        [fuu[3] - fu[3], fuu[1], -ub_r, -kc * t[1], -fuu[4]],
        [fuu[1], fuu[0], -ub0, -kc * t[0], -fuu[2]],
        [-ub_r, -ub0, lb + fuu[9], kc * t[6], ub_v],
        [-kc * t[1], -kc * t[0], kc * t[6], -k * phi, kc * t[2]],
        [-fuu[4], -fuu[2], ub_v, kc * t[2], fuu[5] + (1.0 - p.eps * p.eps) * fu[0]],
    ])
    return g, h


def _mu_pinned(data, mu):
    """True when mu sits at or inside the resolution floor of a point of the sorted sample data."""
    i, j = _within(data.ys, mu, data.floor * (1.0 + 1e-9))
    return i < j


def _scaled_score_norm(g, p, include_mu, include_c=True):
    """Max-norm of the score in relative coordinates (log sigma, log c, ...).

    Only free coordinates count: include_c is cleared when c is held, and
    include_mu when mu is pinned at a floor, where its score cannot vanish.
    """
    parts = [p.sigma * abs(g[1]), p.k * abs(g[3]), abs(g[4])]
    if include_c:
        parts.append(p.c * abs(g[2]))
    if include_mu:
        parts.append(p.sigma * abs(g[0]))
    return max(parts)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for fit_ml.

    score_tol is the threshold on the scaled score max-norm; None means
    1e-5 * n.  init=None selects the built-in starts.  fixed_c pins c
    and removes it from the fit (4 free parameters).
    """

    max_cycles: int = 500
    param_tol: float = 1e-6
    score_tol: float | None = None
    init: Params | None = None
    fixed_c: float | None = None

    def __post_init__(self):
        # exact comparisons: an integer beyond the float range is refused like an infinity
        object.__setattr__(self, "max_cycles", whole_number(self.max_cycles, "max_cycles"))
        if not 0.0 < self.param_tol <= sys.float_info.max:
            raise DomainError("param_tol must be positive and finite")
        if self.score_tol is not None and not 0.0 < self.score_tol <= sys.float_info.max:
            raise DomainError("score_tol must be positive and finite")
        if self.fixed_c is not None and not 0.0 < self.fixed_c <= sys.float_info.max:
            raise DomainError("fixed_c must be positive and finite")


@dataclass(frozen=True)
class FitResult:
    """Outcome of fit_ml.

    loglik is the maximized working objective, the last trace entry; it is
    the exact log-likelihood unless mu is pinned at the floor of an
    observation (see the module docstring).  score_norm is the scaled
    working-score norm, without the mu component when mu is pinned.
    trace holds (iteration, loglik) pairs, never decreasing; cycles is
    its last iteration, and every iteration but the last moved the
    parameters.  An unconverged result with cycles below max_cycles
    stopped at a fixed point or on a boundary ray.
    """

    params: Params
    loglik: float
    aic: float
    converged: bool
    cycles: int
    score_norm: float
    free_params: int
    trace: tuple[tuple[int, float], ...]


# -- the trust-region Newton step in theta = (mu, log sigma, log c, log k, atanh eps) --

_RADIUS0 = 1.0  # initial trust radius in theta, and the radius a failed step retries
_MAX_RADIUS = 8.0
_MIN_RADIUS = 1e-12  # shorter steps are below the fit's resolution
_LOG_EDGE = 700.0  # |log sigma|, |log c|, |log k| stay where exp is finite and nonzero


def _moved(p, free, step):
    """p with its free theta coordinates moved by step; the others keep their bits."""
    v = [p.mu, p.sigma, p.c, p.k, p.eps]
    for i, h in zip(free, map(float, step)):
        if h == 0.0:
            continue
        if i == 0:
            v[0] += h
        elif i == 4:
            e = math.tanh(math.atanh(v[4]) + h)
            v[4] = min(max(e, -1.0 + _EPS_EDGE), 1.0 - _EPS_EDGE)
        else:
            v[i] = math.exp(min(max(math.log(v[i]) + h, -_LOG_EDGE), _LOG_EDGE))
    return Params(*v)


def _tr_subproblem(g, hess, radius):
    """The step s maximizing g.s + s.hess.s / 2 over |s| <= radius.

    With hess = -Q diag(lam) Q' (lam ascending), s = Q u, u = Q'g / (lam +
    shift): the Newton step (shift 0) when it lies inside, else the root
    of the secular equation 1/radius - 1/|u| = 0, bracketed from 1e-9 of
    the bracket above the pole -lam[0] so that Brent's method resolves it,
    and scaled onto the sphere.  When |u| is inside the radius even there
    (the hard case), u's first component is set to reach the radius.
    """
    lam, q = np.linalg.eigh(-hess)
    gt = q.T @ g
    live = gt != 0.0

    def u(shift):
        return np.divide(gt, lam + shift, out=np.zeros_like(gt), where=live)

    if lam[0] > 0.0:
        s = u(0.0)
        if _norm(s) <= radius:
            return q @ s
    pole = max(0.0, -float(lam[0]))
    hi = pole + _norm(gt) / radius  # there |u| <= radius
    lo = pole + 1e-9 * hi
    s = u(lo)
    if _norm(s) <= radius:
        rest = _norm(s[1:])
        s[0] = math.copysign(math.sqrt(radius * radius - rest * rest), gt[0])
        return q @ s
    root = find_root(lambda t: 1.0 / radius - 1.0 / _norm(u(t)), lo, hi, tol=1e-6 / radius).root
    s = u(root)
    return q @ (s * (radius / _norm(s)))


def _norm(v):
    """np.linalg.norm(v) of a 1-d float array, bit for bit: the square root of v.v, without its checks."""
    return math.sqrt(v @ v)


def _tr_move(data, p, ll, free, radius):
    """One trust-region Newton step over the free coordinates of p on data; returns (p, ll, radius).

    The model takes the exact gradient and Hessian of _theta_derivs.  A
    step is kept only if it raises the objective, else the radius shrinks
    to a quarter of the step.  Below _MIN_RADIUS the search starts over
    once from _RADIUS0, so a failed move depends on p alone, and the
    radius is reset to _RADIUS0.  A gradient or Hessian that is not finite
    leaves p, with a DEBUG record.
    """
    data.ledger.derivs += 1
    g, hess = _theta_derivs(data.values, p, data.floor)
    g, hess = g[free], hess[free][:, free]
    if not (np.isfinite(g).all() and np.isfinite(hess).all()):
        _log.debug("trust-region step skipped: score or Hessian not finite at %s", p)
        return p, ll, _RADIUS0
    tries = (radius, _RADIUS0) if radius != _RADIUS0 else (_RADIUS0,)
    for radius in tries:
        while radius >= _MIN_RADIUS:
            data.ledger.subproblems += 1
            s = _tr_subproblem(g, hess, radius)
            gain = float(g @ s + 0.5 * s @ hess @ s)
            q = _moved(p, free, s)
            if not gain > 0.0 or q == p:
                break
            q_ll = _sorted_loglik(data, q.mu, q.sigma, q.c, q.k, q.eps)
            length = _norm(s)
            if q_ll > ll:
                rho = (q_ll - ll) / gain
                if rho < 0.25:
                    radius = 0.25 * length
                elif rho > 0.75 and length > 0.99 * radius:
                    radius = min(2.0 * radius, _MAX_RADIUS)
                return q, q_ll, radius
            data.ledger.rejected += 1
            radius = 0.25 * length
    return p, ll, _RADIUS0


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a, b):
    """Golden-section search for a maximum of f on [a, b], a step per item.

    Yields each bracket and its best probe, (a, b, x, f(x)), from [a, b]
    on, for up to 90 steps.  A step's probe is made only when its item is
    asked for, so the caller's stop tests set how far the search narrows,
    and a later loop over it goes on where one stopped.
    """
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(90):
        yield (a, b, x1, f1) if f1 >= f2 else (a, b, x2, f2)
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    yield (a, b, x1, f1) if f1 >= f2 else (a, b, x2, f2)


_HALF = 2  # the mu move's first window: its centre node and this many on each side


def _comb_mu_update(data, p, ll):
    """The mu move on data: the best of 41 nodes over mu +- max(4 sigma (1 + |eps|), data.spread).

    ll is the objective at p.  Node i is p.mu + i cell, i = -20..20, and
    the centre node, p.mu itself, takes ll; every other node is valued by
    the line _mu_line binds for the move, as is every probe after it, so
    the move compares values of one objective.  Only the nodes within
    _HALF of the centre are valued, and the other 36 only when the best of
    those is on the window's edge: the move gives the 41-node scan's result
    whenever that scan's best node is an inner one.  Ties go to the lowest
    node.  _finish_mu then searches the two cells around the best node, and
    the best node stays when that ends lower.  Returns (mu, objective).  The
    scan and golden section maximize the objective directly because the mu
    score has a pole at every observation when c*k < 1.
    """
    f, plateau = _mu_line(data, p.sigma, p.c, p.k, p.eps)
    cell = max(4.0 * p.sigma * (1.0 + abs(p.eps)), data.spread) / 20.0

    def scan(lo, hi):
        return [f(p.mu + i * cell) if i else ll for i in range(lo, hi)]

    vals = scan(-_HALF, _HALF + 1)
    i = int(np.argmax(vals)) - _HALF
    if abs(i) == _HALF:
        vals = scan(-20, -_HALF) + vals + scan(_HALF + 1, 21)
        i = int(np.argmax(vals)) - 20
    data.ledger.nodes += len(vals) - 1  # the centre takes ll
    best = vals[i + len(vals) // 2]
    lo, hi = p.mu + max(i - 1, -20) * cell, p.mu + min(i + 1, 20) * cell
    m, val = _finish_mu(data, p, f, plateau, lo, hi)
    return (float(m), val) if val >= best else (p.mu + i * cell, best)


def _finish_mu(data, p, f, plateau, a, b):
    """The mu move's search of [a, b] on data; returns its end (mu, f(mu)).

    f and plateau are _mu_line's at p.  The objective is smooth in mu but
    at its breaks (_breakpoints).  Golden section narrows [a, b] until it
    is narrower than the floor and holds at most one; they are listed for
    the first bracket narrower than the floor and counted by bisect.  One
    break ends the search on its landing when that is at least golden
    section's best and the working slopes beside it (_mu_sums with the
    floor) point at it; else golden section goes on until the bracket
    holds none.  There safeguarded Newton on the exact working slope and
    curvature ends it to a millionth of the floor (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4): a step that leaves the
    bracket, or curvature >= 0, bisects on the slope's sign.  The end is
    golden section's best probe where Newton's is lower.
    """
    floor, tol = data.floor, 1e-6 * data.floor

    def slope(mu):
        data.ledger.slopes += 1
        return _summed(lambda xb: _mu_sums(xb, mu, p.sigma, p.c, p.k, p.eps, floor), data.values)

    def held(a, b):
        return bisect.bisect_right(at, b) - bisect.bisect_left(at, a)

    search, breaks, at = _golden_max(f, a, b), None, []
    for a, b, m, fm in search:
        if b - a < floor:
            if breaks is None:
                i, j = _within(data.ys, 0.5 * (a + b), 0.5 * (b - a) + floor)
                breaks = _breakpoints(data.ys[i:j], plateau, floor, tol / 1024.0)
                at = [brk[0] for brk in breaks]
            if held(a, b) <= 1:
                break
    if held(a, b) == 1:
        _, mu, tests = breaks[bisect.bisect_left(at, a)]
        fmu = f(mu)
        if fmu >= fm and all(sign * slope(v)[0] >= 0.0 for v, sign in tests):
            return mu, fmu
        for a, b, m, fm in search:
            if not held(a, b):
                break
    mu = _newton_max(slope, a, b, m, tol)
    fmu = f(mu)
    return (mu, fmu) if fmu >= fm else (m, fm)


def _breakpoints(near, plateau, floor, step):
    """The breaks in mu of the working objective from the sorted observations near, sorted.

    Each is (at, landing, tests): an observation's term is constant on
    either side of it while mu is within its floor, so it has a corner at
    each end of the floor and, unless both sides give the same z, a jump
    at the observation.  A corner's landing is the corner; a jump's lies
    step from the observation on its higher side, never on it: a point at
    mu counts on the positive side, which a reflection of the data swaps.
    Each test (mu, sign) asks sign * slope(mu) >= 0, so that the slopes
    beside the landing point at it.  plateau holds the term's value on the
    plateau with the observation on mu's positive side (mu < x_i) and on
    its negative one, as _mu_line returns them.  Breaks of two
    observations at one place are one, a jump's where there is one.
    """
    up, down = plateau
    breaks = {}
    for xi in near:
        h = max(step, 16.0 * math.ulp(xi))  # some ulps of xi even on the finest floor
        for corner in (xi - floor, xi + floor):
            breaks.setdefault(corner, (corner, ((corner - h, 1.0), (corner + h, -1.0))))
        if up != down:
            s = 1.0 if up > down else -1.0
            breaks[xi] = (xi - s * h, ((xi - s * h, s),))
    return [(at, *brk) for at, brk in sorted(breaks.items())]


def _newton_max(slope_curv, a, b, m, tol):
    """Safeguarded Newton for a maximum in [a, b] from m; slope_curv(m) = (f'(m), f''(m)).

    Each slope's sign moves one end of the bracket to m.  The Newton step
    is taken when the curvature is negative and it lands inside the
    bracket, else the bracket is bisected.  Stops once a step is within
    tol, or rounds to no step at all, or at a zero slope, and returns the
    last iterate.
    """
    for _ in range(64):
        g, h = slope_curv(m)
        if g > 0.0:
            a = m
        elif g < 0.0:
            b = m
        else:
            break
        nxt = m - g / h if h < 0.0 else math.nan  # nan fails the bracket test
        if nxt == m:
            break
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
        if abs(nxt - m) <= tol:
            return nxt
        m = nxt
    return m


def solve_coordinate(p, which, data, cfg=None):
    """Maximize the working objective over one coordinate, holding the others at p.

    Returns the new value of `which`, one of COORD_NAMES.  k has a closed
    form, mu takes the fitter's mu move, and sigma, c and eps repeat the
    fitter's trust-region step on that coordinate alone until it no longer
    gains.  Raises NoBracketError when the k update is undefined.
    """
    if which not in COORD_NAMES:
        raise DomainError(f"unknown coordinate {which!r}")
    x = np.asarray(data.values, dtype=float)
    data = _floored(x)
    if which == "k":
        # dl/dk = n/k - sum log(1 + z**-c) vanishes at exactly one k
        denom = _summed(
            lambda xb: _grad_sums(xb, p.mu, p.sigma, p.c, p.k, p.eps, data.floor), x
        )[5]
        if not (denom > 0.0 and math.isfinite(denom)):
            raise NoBracketError("k update undefined for this configuration")
        return float(x.size / denom)
    ll = _sorted_loglik(data, p.mu, p.sigma, p.c, p.k, p.eps)
    if which == "mu":
        return _comb_mu_update(data, p, ll)[0]
    free, radius = [COORD_NAMES.index(which)], _RADIUS0
    for _ in range((cfg or FitConfig()).max_cycles):
        q, ll, radius = _tr_move(data, p, ll, free, radius)
        if q == p:
            break
        p = q
    return getattr(p, which)


_INIT_SHAPE_GRID = ((2.0, 1.0), (5.0, 0.2), (1.5, 3.0), (20.0, 0.2))


def moment_init(data, fixed_c=None):
    """Quantile-based starting point.

    mu from the median, sigma from the normalized IQR, eps from the sign
    imbalance around mu, and (c, k) as the best of a small shape grid by
    likelihood.  Raises DegenerateDataError when the IQR vanishes.
    """
    return _moment_init(_floored(np.asarray(data.values, dtype=float)), fixed_c)


def _moment_init(data, fixed_c):
    """moment_init on the fit's sorted sample data."""
    x = data.values
    mu0 = float(np.median(x))
    q25, q75 = np.quantile(x, [0.25, 0.75])
    sigma0 = float(q75 - q25) / 1.349
    if not (sigma0 > 0.0 and math.isfinite(sigma0)):
        raise DegenerateDataError("interquartile range is zero; scale is unidentified")
    eps0 = float(np.clip(1.0 - 2.0 * np.mean(x < mu0), -0.9, 0.9))
    if fixed_c is not None:
        pairs = tuple((float(fixed_c), k) for k in (1.0, 0.2, 3.0, 0.07))
    else:
        pairs = _INIT_SHAPE_GRID
    best_pair, best_ll = pairs[0], -math.inf
    for c0, k0 in pairs:
        ll = _sorted_loglik(data, mu0, sigma0, c0, k0, eps0)
        if ll > best_ll:
            best_pair, best_ll = (c0, k0), ll
    return Params(mu=mu0, sigma=sigma0, c=best_pair[0], k=best_pair[1], eps=eps0)


def _pattern_step(data, p_prev, p, ll):
    """Extrapolate along the last iteration's displacement while it improves.

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
            p.mu + t * dm,
            p.sigma * math.exp(t * dls),
            p.c * math.exp(t * dlc),
            p.k * math.exp(t * dlk),
            min(max(p.eps + t * de, -1.0 + _EPS_EDGE), 1.0 - _EPS_EDGE),
        )
        data.ledger.pattern += 1
        q_ll = _sorted_loglik(data, q.mu, q.sigma, q.c, q.k, q.eps)
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


_START_EPS = (0.6, -0.6)  # eps of the two ridge starts besides moment_init's
_START_SHAPES = ((2.0, 1.0), (5.0, 0.1))  # (c, k) tried besides moment_init's


def _start_points(data, fixed_c):
    """Up to nine initial values: three points on the mu-eps ridge times three shapes.

    moment_init's point, and two that re-seed eps and place mu at the
    empirical (1 - eps)/2 quantile, where the population CDF equals that
    level at mu: the likelihood couples mu and eps along a shallow curved
    ridge with local optima.  Each takes moment_init's (c, k) and those of
    _START_SHAPES (with c = fixed_c when c is pinned), without repeats.
    """
    base = _moment_init(data, fixed_c)
    ridge = [base] + [
        replace(base, mu=float(np.quantile(data.values, 0.5 * (1.0 - e0))), eps=e0)
        for e0 in _START_EPS
    ]
    shapes = [(base.c, base.k)]
    for c0, k0 in _START_SHAPES:
        shape = (c0 if fixed_c is None else base.c, k0)
        if shape not in shapes:
            shapes.append(shape)
    return [replace(r, c=c0, k=k0) for r in ridge for c0, k0 in shapes]


_JOIN_TOL = 1e-3  # relative in sigma, c and k, absolute in eps: the start joined an end


def _joined(p, ll, ends, floor):
    """The start whose converged end point p has reached without beating it, or None.

    ends holds (start index, params, working objective) triples.  A match
    has mu within the floor of the end's, sigma, c and k within _JOIN_TOL
    relative, eps within _JOIN_TOL, and an objective no higher.
    """
    for j, q, q_ll in ends:
        if (
            ll <= q_ll
            and abs(p.mu - q.mu) <= floor
            and abs(p.sigma - q.sigma) <= _JOIN_TOL * q.sigma
            and abs(p.c - q.c) <= _JOIN_TOL * q.c
            and abs(p.k - q.k) <= _JOIN_TOL * q.k
            and abs(p.eps - q.eps) <= _JOIN_TOL
        ):
            return j
    return None


def _on_ray(p, floor):
    """Whether p lies on a boundary ray of the working objective, where a stop is not convergence.

    A kernel inside the resolution floor is on the sigma -> 0, k -> inf
    ray; a shoulder, sigma (1 + |eps|) / c wide for c > 1, inside it on
    the c -> inf, k -> 0 one.
    """
    return p.sigma * (1.0 + abs(p.eps)) <= floor * max(1.0, p.c)


def _ascend(data, p, cfg, score_tol, ends=()):
    """One run of the fitter's loop from p.

    data is the fit's _FlooredSample.  ends lists the converged end points
    of earlier starts; the run stops unconverged once it reaches one of
    them (see _joined).  Returns (p, ll, converged, cycles,
    trace, norm), norm being the scaled working-score norm at the final p.
    The score is computed only where it is needed: when an iteration
    meets param_tol, and for the norm at the end.  Each iteration names
    its stop, if any, in stop; the run logs it once and is converged when
    it stopped as "converged".
    """
    x, floor = data.values, data.floor

    def score_norm(p):
        data.ledger.scores += 1
        g = _work_score(x, p.mu, p.sigma, p.c, p.k, p.eps, floor)
        return _scaled_score_norm(g, p, not _mu_pinned(data, p.mu), cfg.fixed_c is None)

    ll = _sorted_loglik(data, p.mu, p.sigma, p.c, p.k, p.eps)
    if math.isnan(ll):
        raise DegenerateDataError("likelihood undefined at the starting point")
    shape = [1, 3, 4] if cfg.fixed_c is not None else [1, 2, 3, 4]
    trace = [(0, float(ll))]
    radius, cycle, stop = _RADIUS0, 0, None
    for cycle in range(1, cfg.max_cycles + 1):
        data.ledger.iterations += 1
        p_prev, norm = p, None
        mu, mu_ll = _comb_mu_update(data, p, ll)
        if mu_ll > ll:
            p, ll = Params(mu, p.sigma, p.c, p.k, p.eps), mu_ll
        hold_mu = p.c * p.k < 1.0 or _mu_pinned(data, p.mu)
        p, ll, radius = _tr_move(data, p, ll, shape if hold_mu else [0, *shape], radius)
        p, ll = _pattern_step(data, p_prev, p, ll)
        trace.append((cycle, float(ll)))
        if _rel_change(p, p_prev) <= cfg.param_tol and (norm := score_norm(p)) <= score_tol:
            stop = "stopped on a boundary ray" if _on_ray(p, floor) else "converged"
        elif p == p_prev:
            # every later iteration would repeat this one
            stop = "fixed point on a boundary ray" if _on_ray(p, floor) else "fixed point"
        elif p.sigma * (1.0 + abs(p.eps)) * x.size <= floor:
            # both side scales far inside the floor: the run drifts along the ray
            stop = "left on the boundary ray"
        elif (j := _joined(p, ll, ends, floor)) is not None:
            stop = f"joined start {j}'s end point"
        if stop is not None:
            break
    else:
        stop = "max_cycles reached"
    _log.debug("cycle %d: %s at loglik %.17g, sigma %.3g, c %.3g", cycle, stop, ll, p.sigma, p.c)
    data.ledger.starts.append((cycle, stop))
    if norm is None:
        norm = score_norm(p)
    return p, ll, stop == "converged", cycle, trace, norm


def _map_mu(x, data, mu, med, sign, scale):
    """mu on the standardized data mapped back to x, on the same side of every observation.

    x is sorted and data is _floored(sign * (x - med) / scale), so data's
    i-th point is x[i] for sign +1 and x[n - 1 - i] for sign -1.  A point
    at mu counts on the positive side, so with eps != 0 the working
    objective jumps there.  Mapping back rounds to the spacing of x, which
    can put mu on an observation it lay beside in data, or past it, and
    the reflection (sign -1) swaps the sides.  So the mapped mu is clamped
    between the observations within the floor that must stay at or above
    it and those that must stay below it.
    """
    out = med + sign * scale * mu
    i, j = _within(data.ys, mu, data.floor)
    if i == j:
        return out
    split = bisect.bisect_left(data.ys, mu, i, j)  # data's [split, j) count positive
    if sign < 0.0:  # in x's order, data's [i, split) are x's [n - split, n - i)
        n = x.size
        i, split, j = n - j, n - split, n - i
    # the same side in x is x - out >= 0 for x's [split, j), < 0 for [i, split)
    if split < j:
        out = min(out, float(x[split]))
    if i < split:
        below = float(x[split - 1])
        if out <= below:
            return math.nextafter(below, math.inf)
    return out


def fit_ml(data, cfg=None):
    """Maximum-likelihood fit by a trust-region Newton loop on standardized data.

    Requires at least 20 observations.  The data are standardized by the
    median, a power-of-two scale near the IQR and a reflection, sorted
    once, fitted, and mapped back, so params, loglik and trace refer to the
    data as given, and any order of the same values gives the same result
    bit for bit.  The fitter's objective passes are arithmetic on slices
    of the sorted sample.  Unless cfg.init pins the start, the loop runs
    from up to nine starts (three points on the mu-eps ridge, three shapes
    each) and the best final objective wins; the reported trace is the
    winning run's.
    A start that reaches an earlier start's converged end point without
    beating it stops there, so each optimum is refined once.
    Convergence means both the relative parameter change over an
    iteration and the scaled score norm fell below their tolerances.
    Otherwise the best point found is returned with converged=False, also
    at a fixed point, and on a boundary ray (at the tolerances sigma, or
    sigma / c when c > 1, within the floor; any time sigma within floor /
    n).  Data with over half the points tied fit
    only from a given cfg.init.
    """
    return _fit_ml(data, cfg)[0]


def _fit_ml(data, cfg=None):
    """fit_ml's (FitResult, _Ledger): the fit and the work it took."""
    cfg = cfg or FitConfig()
    x = np.asarray(data.values, dtype=float)
    n = x.size
    if n < _MIN_N:
        raise SmallSampleError(f"need at least {_MIN_N} observations, got {n}")
    med = float(np.median(x))
    q25, q75 = np.quantile(x, [0.25, 0.75])
    # over half the points tied: the range sets the scale (moment_init refuses such data)
    width = q75 - q25 if q75 > q25 else np.ptp(x)
    if not 0.0 < width < math.inf:
        _data_resolution(x)  # constant data say so
        raise DegenerateDataError("the sample's spread overflows")
    sign = -1.0 if q75 - med < med - q25 else 1.0
    scale = math.ldexp(1.0, math.frexp(width)[1])
    x = np.sort(x)
    floored = _floored(sign * (x - med) / scale)
    score_tol = cfg.score_tol if cfg.score_tol is not None else 1e-5 * n

    if cfg.init is not None:
        p = cfg.init
        c = p.c if cfg.fixed_c is None else float(cfg.fixed_c)
        starts = [Params(sign * (p.mu - med) / scale, p.sigma / scale, c, p.k, sign * p.eps)]
    else:
        starts = _start_points(floored, cfg.fixed_c)

    best, ends, ledger = None, [], floored.ledger
    for i, s in enumerate(starts):
        run = _ascend(floored, s, cfg, score_tol, ends)
        if run[2]:
            ends.append((i, *run[:2]))
        # a run that joined an end scores no higher than it, so never wins
        if best is None or run[1] > best[1]:
            best, ledger.won = run, i
    p, ll, converged, cycle, trace, norm = best
    mu = _map_mu(x, floored, p.mu, med, sign, scale)
    p = replace(p, mu=mu, sigma=scale * p.sigma, eps=sign * p.eps)
    shift = n * math.log(scale)
    ll = float(ll) - shift
    free = 4 if cfg.fixed_c is not None else 5
    trace = tuple((i, v - shift) for i, v in trace)
    return FitResult(p, ll, 2.0 * free - 2.0 * ll, converged, cycle, float(norm), free, trace), ledger
