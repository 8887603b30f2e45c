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
each observation).  Each start runs one loop.  An
iteration makes three moves, each kept only if it raises the objective: a
mu move (a 41-node scan, refined by golden section down to the floor's
width, then by safeguarded Newton on the exact mu slope and curvature
where no observation is within the floor of the bracket, elsewhere by
Brent's method, which ends on a corner or jump of the floored objective
once its bracket holds only that one and it is a maximum; after a
start's first iteration the scan evaluates the five nodes around mu, and
the other 36 only when the best of the five is on their edge), one
trust-region Newton step in theta = (mu, log sigma, log c, log k, atanh
eps) with the exact gradient and Hessian from one pass over the data and
the exact subproblem solution (Nocedal & Wright, Numerical Optimization,
2nd ed., ch. 4), and a pattern step along the iteration's displacement,
which cuts along the curved ridge coupling mu and eps.  The Newton step
holds mu while c*k < 1 or mu is pinned (below), and c while fixed_c is
set.

When c*k < 1 the density diverges at every observation and the likelihood
is unbounded in mu, so the fitter maximizes a working objective in which
every |x_i - mu| is floored at the sample resolution (half the median gap
between adjacent order statistics).  It is the exact log-likelihood while
mu keeps the floor distance from every observation.  When mu is pinned
within the floor of one -- always below c*k = 1, at times just above --
its score component leaves the convergence norm, and the two objectives
differ by a bounded amount.  Objectives and scores run in blocks of
burr3._BLOCK points whose partial sums are added by math.fsum.

An iteration depends on its starting point alone (a failed trust-region
step is retried from the initial radius), so once one leaves every
parameter unchanged, bit for bit, every later one would too: the loop
stops unconverged and logs the fixed point at DEBUG level.  It stops
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
methods, Math. Prog. 39, 1987).  Such a start cannot win.  Each of these
exits is logged at DEBUG level.
"""

from __future__ import annotations

import bisect
import logging
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .burr3 import _BLOCK, _blockwise, _fold, _log_density, _pick, _tmix
from .distribution import Params
from .errors import DegenerateDataError, DensityLimitWarning, DomainError, NoBracketError
from .errors import SmallSampleError, whole_number
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


def standardize(p, data):
    """StandardizedSample of the data under p; z_i = 0 marks a tie with mu."""
    _, pos, z = _fold(np.asarray(data.values, dtype=float), p.mu, p.sigma, p.eps)
    return StandardizedSample(s=np.where(pos, 1.0, -1.0), z=z)


def _data_resolution(x):
    """Half the median gap between adjacent distinct order statistics."""
    gaps = np.diff(np.sort(x))
    gaps = gaps[gaps > 0.0]
    if gaps.size == 0:
        raise DegenerateDataError("all observations identical")
    return 0.5 * float(np.median(gaps))


@dataclass(frozen=True)
class _FlooredSample:
    """A sample with its resolution floor and its 5-95% quantile spread (the mu scan's size)."""

    values: np.ndarray
    floor: float
    spread: float


def _floored(x):
    lo, hi = np.quantile(x, [0.05, 0.95])
    return _FlooredSample(x, _data_resolution(x), float(hi - lo))


def _fsum(parts):
    """math.fsum of block partials, or where it cannot round (inf - inf, overflow) their sum."""
    try:
        return math.fsum(parts)
    except (ValueError, OverflowError):
        return sum(parts)


def _summed(kernel, x):
    """The sums kernel returns for a block, over all of x: block partials added by _fsum.

    Partials are added entry by entry.  Up to one block the kernel runs
    once on x, which gives the blocked sums bit for bit: fsum of one
    partial is that partial (bar the sign of a zero).
    """
    if x.size <= _BLOCK:
        return kernel(x)
    blocks = _blockwise(kernel, x)
    cols = np.array(blocks).reshape(len(blocks), -1).T.tolist()
    return np.array([_fsum(c) for c in cols]).reshape(np.shape(blocks[0]))


def _block_loglik(x, mu, sigma, c, k, eps, floor):
    """One block's working objective; one per node of a mu column."""
    d, _, lz = _fold(x, mu, sigma, eps, floor)
    np.log(lz, out=lz)
    return (
        x.size * math.log(c * k / (2.0 * sigma))
        - (c + 1.0) * lz.sum(axis=-1)
        - (k + 1.0) * log1p_exp(np.multiply(lz, -c, out=d)).sum(axis=-1)
    )


def _fit_loglik(x, mu, sigma, c, k, eps, floor):
    """The log-likelihood with each |x_i - mu| floored; exact where min |x_i - mu| >= floor.

    Up to one block it calls that block's kernel directly, whose value is
    the blocked sum's: fsum of one partial is that partial (bar the sign
    of a zero).
    """
    if x.size <= _BLOCK:
        return float(_block_loglik(x, mu, sigma, c, k, eps, floor))
    return _fsum(_blockwise(lambda xb: _block_loglik(xb, mu, sigma, c, k, eps, floor), x))


def _loglik_arrays(x, mu, sigma, c, k, eps):
    # z = 0 (a point at mu, or so close that z underflows) makes the sum nan
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = _fit_loglik(x, mu, sigma, c, k, eps, 0.0)
        if not math.isnan(ll):
            return ll
        ck = c * k
        if ck > 1.0:
            return -math.inf
        if ck < 1.0:
            return math.inf
        # c*k = 1: tied points contribute exactly the constant term
        rest = x[_fold(x, mu, sigma, eps)[2] > 0.0]
        const = math.log(ck / (2.0 * sigma))
        return (x.size - rest.size) * const + _fit_loglik(rest, mu, sigma, c, k, eps, 0.0)


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
    d, pos, lz = _fold(x, mu, sigma, eps, floor)
    dead = np.abs(d) <= floor  # points on the floor add nothing to the mu component
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
    """Score of the working objective; floor = 0 gives the exact score.

    Points inside the floor add a constant to the objective, hence nothing
    to the mu component; the others use the floored z.  Up to one block
    the sums come from one direct kernel call, the bits of the blocked ones.
    """
    n = x.size
    if n <= _BLOCK:
        sp, t, lz, lzt, g_eps, g_mu = map(float, _score_sums(x, mu, sigma, c, k, eps, floor))
    else:
        blocks = _blockwise(lambda xb: _score_sums(xb, mu, sigma, c, k, eps, floor), x)
        sp, t, lz, lzt, g_eps, g_mu = (_fsum([b[i] for b in blocks]) for i in range(6))
    g_sigma = (n * c - c * (k + 1.0) * t) / sigma
    g_c = n / c - lz + (k + 1.0) * lzt
    return np.array([g_mu, g_sigma, g_c, n / k - sp, g_eps])


def _u_terms(x, mu, sigma, c, k, eps, floor):
    """Per-point terms of the working log density's derivatives: (pos, u, t, f_u, f_uu, r).

    u = log z with z from _fold, and t = 1/(1 + z**c).  f_u = c(k+1) t -
    (c+1) and f_uu = -(k+1) c**2 t (1 - t) are the first two derivatives of
    -(c+1) u - (k+1) log(1 + z**-c) in u.  r = 1/d is -du/dmu, and 0 for
    points on the floor, whose z does not move with mu.
    """
    d, pos, u = _fold(x, mu, sigma, eps, floor)
    np.log(u, out=u)
    t = _tmix(u, c)
    f_u = np.multiply(t, c * (k + 1.0))
    f_u -= c + 1.0
    f_uu = np.subtract(1.0, t)
    f_uu *= t
    f_uu *= -(k + 1.0) * c * c
    if floor:
        dead = np.abs(d) <= floor
        if dead.any():
            d[dead] = math.inf  # 1/inf = 0
    return pos, u, t, f_u, f_uu, np.divide(1.0, d, out=d)


def _mu_sums(x, mu, sigma, c, k, eps, floor):
    """One block's mu slope and mu curvature of the working objective.

    The slope is -sum f_u r and the curvature sum (f_uu - f_u) r**2, with
    the terms of _u_terms.
    """
    _, _, _, f_u, f_uu, r = _u_terms(x, mu, sigma, c, k, eps, floor)
    f_uu -= f_u
    f_uu *= r
    return np.array([-(f_u @ r), f_uu @ r])


def _deriv_sums(x, mu, sigma, c, k, eps, floor):
    """One block's 5 x 10 array of sums over points of products of two terms.

    Row terms (1, f_u, f_uu, t, log(1 + z**-c)), column terms (1, r, v,
    r**2, r v, v**2, u, u r, u v, u**2): those of _u_terms, and v = eps - s,
    s the sign of d, which is du/d atanh(eps).
    """
    pos, u, t, f_u, f_uu, r = _u_terms(x, mu, sigma, c, k, eps, floor)
    v = _pick(pos, eps - 1.0, eps + 1.0)
    one = np.ones_like(u)
    left = np.stack([one, f_u, f_uu, t, log1p_exp(-c * u)])
    right = np.stack([one, r, v, r * r, r * v, v * v, u, u * r, u * v, u * u])
    return left @ right.T


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
    sums = _summed(lambda xb: _deriv_sums(xb, p.mu, p.sigma, p.c, p.k, p.eps, floor), x)
    one, fu, fuu, t, (phi, *_) = sums.tolist()
    n, k, kc = one[0], p.k, p.k * p.c
    # sums of d2l/du dlog c = f_u + 1 + f_uu u, times 1, r and v
    ub0, ub_r, ub_v = (fu[j] + one[j] + fuu[6 + j] for j in range(3))
    lb = fu[6] + one[6]  # sum of u (f_u + 1); d l / d log c = 1 + u (f_u + 1)
    g = np.array([-fu[1], -n - fu[0], n + lb, n - k * phi, fu[2]])
    h = np.array([
        [fuu[3] - fu[3], fuu[1], -ub_r, -kc * t[1], -fuu[4]],
        [fuu[1], fuu[0], -ub0, -kc * t[0], -fuu[2]],
        [-ub_r, -ub0, lb + fuu[9], kc * t[6], ub_v],
        [-kc * t[1], -kc * t[0], kc * t[6], -k * phi, kc * t[2]],
        [-fuu[4], -fuu[2], ub_v, kc * t[2], fuu[5] + (1.0 - p.eps * p.eps) * fu[0]],
    ])
    return g, h


def _mu_pinned(x, mu, floor):
    """True when mu sits at or inside the resolution floor of a data point."""
    return bool(np.min(np.abs(x - mu)) <= floor * (1.0 + 1e-9))


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
        object.__setattr__(self, "max_cycles", whole_number(self.max_cycles, "max_cycles"))
        if not 0.0 < self.param_tol < math.inf:
            raise DomainError("param_tol must be positive and finite")
        if self.score_tol is not None and not 0.0 < self.score_tol < math.inf:
            raise DomainError("score_tol must be positive and finite")
        if self.fixed_c is not None and not 0.0 < self.fixed_c < math.inf:
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
    new = {}
    for i, h in zip(free, step):
        if h == 0.0:
            continue
        name = COORD_NAMES[i]
        v = getattr(p, name)
        if i == 0:
            new[name] = float(v + h)
        elif i == 4:
            e = math.tanh(math.atanh(v) + h)
            new[name] = min(max(e, -1.0 + _EPS_EDGE), 1.0 - _EPS_EDGE)
        else:
            new[name] = math.exp(min(max(math.log(v) + h, -_LOG_EDGE), _LOG_EDGE))
    return replace(p, **new)


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

    def u(shift):
        return np.divide(gt, lam + shift, out=np.zeros_like(gt), where=gt != 0.0)

    if lam[0] > 0.0:
        s = u(0.0)
        if np.linalg.norm(s) <= radius:
            return q @ s
    hi = max(0.0, -lam[0]) + np.linalg.norm(gt) / radius  # there |u| <= radius
    lo = max(0.0, -lam[0]) + 1e-9 * hi
    s = u(lo)
    if np.linalg.norm(s) <= radius:
        rest = float(np.linalg.norm(s[1:]))
        s[0] = math.copysign(math.sqrt(radius * radius - rest * rest), gt[0])
        return q @ s
    root = find_root(
        lambda t: 1.0 / radius - 1.0 / np.linalg.norm(u(t)), lo, hi, tol=1e-6 / radius
    ).root
    s = u(root)
    return q @ (s * (radius / np.linalg.norm(s)))


def _tr_move(x, p, ll, free, radius, floor):
    """One trust-region Newton step over the free coordinates; returns (p, ll, radius).

    The model takes the exact gradient and Hessian of _theta_derivs.  A
    step is kept only if it raises the objective, else the radius shrinks
    to a quarter of the step.  Below _MIN_RADIUS the search starts over
    once from _RADIUS0, so a failed move depends on p alone, and the
    radius is reset to _RADIUS0.  A gradient or Hessian that is not finite
    leaves p, with a DEBUG record.
    """
    g, hess = _theta_derivs(x, p, floor)
    g, hess = g[free], hess[np.ix_(free, free)]
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(hess))):
        _log.debug("trust-region step skipped: score or Hessian not finite at %s", p)
        return p, ll, _RADIUS0
    tries = (radius, _RADIUS0) if radius != _RADIUS0 else (_RADIUS0,)
    for radius in tries:
        while radius >= _MIN_RADIUS:
            s = _tr_subproblem(g, hess, radius)
            gain = float(g @ s + 0.5 * s @ hess @ s)
            q = _moved(p, free, s)
            if not gain > 0.0 or q == p:
                break
            q_ll = _fit_loglik(x, q.mu, q.sigma, q.c, q.k, q.eps, floor)
            length = float(np.linalg.norm(s))
            if q_ll > ll:
                rho = (q_ll - ll) / gain
                if rho < 0.25:
                    radius = 0.25 * length
                elif rho > 0.75 and length > 0.99 * radius:
                    radius = min(2.0 * radius, _MAX_RADIUS)
                return q, q_ll, radius
            radius = 0.25 * length
    return p, ll, _RADIUS0


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a, b, width):
    """Golden-section search to a bracket below width; returns it and its best probe (x, f(x))."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(90):
        if b - a < width:
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return (a, b, x1, f1) if f1 >= f2 else (a, b, x2, f2)


def _line_max(f, a, b, x, fx, tol, land=None):
    """Brent's maximization of f on [a, b] from x inside it, fx = f(x).

    Golden-section steps, or parabolic ones where they fall inside the
    bracket and shrink (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5), until the bracket is within 4 tol.
    Before each step land(a, b, best), when given, sees the bracket and
    the best value so far; a probe it returns ends the search.  Returns
    the best probe (x, f(x)).
    """
    fx = -fx  # minimize -f
    v = w = x
    fv = fw = fx
    d = e = 0.0
    for _ in range(200):
        if abs(x - 0.5 * (a + b)) <= 2.0 * tol - 0.5 * (b - a):
            break
        end = land and land(a, b, -fx)
        if end:
            return end
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d, golden = d, p / q, False
                if min(x + d - a, b - x - d) < 2.0 * tol:
                    d = math.copysign(tol, 0.5 * (a + b) - x)
        if golden:
            e = a - x if x >= 0.5 * (a + b) else b - x
            d = (1.0 - _GOLDEN) * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = -f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return x, -fx


_NEAR = slice(18, 23)  # the centre node of the mu move's 41 and two on each side


def _comb_mu_update(x, p, floor, spread, full=True):
    """The mu move: the best of 41 nodes over mu +- max(4 sigma (1 + |eps|), spread).

    With full false only the centre node and two on each side are
    evaluated, and the other 36 only when the best of those five is on
    the window's edge.  A node's value does not depend on which nodes
    share its block, so the move gives the full scan's result whenever
    the full scan's best node is one of the inner three.  The two cells
    around the best node are searched by golden section down to the
    floor's width, then to a millionth of it by _finish_mu: Newton on the
    exact mu slope where the bracket is smooth (no observation within its
    floor), elsewhere Brent's method, which stops on a break of the
    objective that is a maximum.  The best node stays when that ends
    lower.  Returns (mu, objective).  The scan and golden section
    maximize the objective directly because the mu score has a pole at
    every observation when c*k < 1.
    """

    def f(m):
        return _fit_loglik(x, m, p.sigma, p.c, p.k, p.eps, floor)

    def scan(nodes):
        if x.size > _BLOCK:
            return np.array([f(m) for m in nodes])
        col, rows = nodes.reshape(-1, 1), _BLOCK // x.size  # rows of nodes that fill a block
        return np.concatenate([
            _block_loglik(x, col[i : i + rows], p.sigma, p.c, p.k, p.eps, floor)
            for i in range(0, nodes.size, rows)
        ])

    width = max(4.0 * p.sigma * (1.0 + abs(p.eps)), spread)
    grid = p.mu + np.linspace(-width, width, 41)
    if full:
        vals = scan(grid)
        i = int(np.argmax(vals))
    else:
        vals = np.empty(grid.size)
        vals[_NEAR] = scan(grid[_NEAR])
        i = _NEAR.start + int(np.argmax(vals[_NEAR]))
        if i in (_NEAR.start, _NEAR.stop - 1):
            for rest in (slice(_NEAR.start), slice(_NEAR.stop, None)):
                vals[rest] = scan(grid[rest])
            i = int(np.argmax(vals))
    grid = grid.tolist()
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    lo, hi, m, val = _golden_max(f, lo, hi, floor)
    m, val = _finish_mu(x, p, floor, lo, hi, m, val)
    return (float(m), val) if val >= vals[i] else (grid[i], float(vals[i]))


def _finish_mu(x, p, floor, a, b, m, fm):
    """The mu move's last stage: refine the bracket [a, b] around m, fm = f(m), to 1e-6 floor.

    When no observation lies within the floor of the bracket, the
    objective is the exact log-likelihood there and smooth in mu, and
    safeguarded Newton on its exact slope and curvature (_mu_sums) finishes
    the search (Brent 1973, ch. 4): a step that leaves the bracket, or
    curvature >= 0, bisects on the slope's sign.  Its end is kept when its
    objective is at least fm; otherwise Brent's method (_line_max) runs.

    Near observations the objective is smooth only between its breaks
    (_breakpoints), and Brent's method runs until its bracket holds one.
    The search ends on that break when its value is at least that of
    every probe so far and the working slopes beside it (_mu_sums with the
    floor) point at it; Brent's method would only close in on it at a
    linear rate (Brent 1973, ch. 5).  Otherwise Brent's method goes on.
    Returns the best probe (mu, f(mu)).
    """

    def f(mu):
        return _fit_loglik(x, mu, p.sigma, p.c, p.k, p.eps, floor)

    def slope(mu, floor=floor):
        return _summed(lambda xb: _mu_sums(xb, mu, p.sigma, p.c, p.k, p.eps, floor), x)

    tol = 1e-6 * floor
    near = x[np.abs(x - 0.5 * (a + b)) <= 0.5 * (b - a) + floor]
    if not near.size:
        # no point comes within the floor, so floor 0 gives the working terms
        mu = _newton_max(lambda mu: slope(mu, 0.0), a, b, m, tol)
        fmu = f(mu)
        if fmu >= fm:
            return mu, fmu
    breaks = _breakpoints(near, p, floor, tol / 1024.0)  # none without near points
    at, tried = [brk[0] for brk in breaks], set()

    def land(lo, hi, best):
        i = bisect.bisect_left(at, lo)
        if bisect.bisect_right(at, hi) - i != 1 or i in tried:
            return None
        tried.add(i)  # its value and slopes are fixed and best only rises, so it fails again
        _, mu, tests = breaks[i]
        fmu = f(mu)
        if fmu >= best and all(sign * slope(v)[0] >= 0.0 for v, sign in tests):
            return mu, fmu
        return None

    return _line_max(f, a, b, m, fm, tol, land)


def _breakpoints(near, p, floor, step):
    """The breaks in mu of the working objective from the observations near, sorted.

    Each is (at, landing, tests): an observation's term is constant on
    either side of it while mu is within its floor, so it has a corner at
    each end of the floor and, unless both sides give the same z, a jump
    at the observation.  A corner's landing is the corner; a jump's lies
    step from the observation on its higher side, never on it: a point at
    mu counts on the positive side, which a reflection of the data swaps.
    Each test (mu, sign) asks sign * slope(mu) >= 0, so that the slopes
    beside the landing point at it.
    """
    # the term's value on the plateau, on the positive side (mu < x_i) and the negative one
    up, down = (
        float(_log_density(0.0, p.c, p.k, math.log(floor / (p.sigma * (1.0 + s * p.eps)))))
        for s in (1.0, -1.0)
    )
    breaks = []
    for xi in np.unique(near).tolist():
        h = max(step, 16.0 * math.ulp(xi))  # some ulps of xi even on the finest floor
        for corner in (xi - floor, xi + floor):
            breaks.append((corner, corner, ((corner - h, 1.0), (corner + h, -1.0))))
        if up != down:
            s = 1.0 if up > down else -1.0
            breaks.append((xi, xi - s * h, ((xi - s * h, s),)))
    return sorted(breaks, key=lambda brk: brk[0])


def _newton_max(slope_curv, a, b, m, tol):
    """Safeguarded Newton for a maximum in [a, b] from m; slope_curv(m) = (f'(m), f''(m)).

    Each slope's sign moves one end of the bracket to m.  The Newton step
    is taken when the curvature is negative and it lands inside the
    bracket, else the bracket is bisected.  Stops once a step is within
    tol, or at a zero slope, and returns the last iterate.
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
    data = _floored(np.asarray(data.values, dtype=float))
    x, floor = data.values, data.floor
    if which == "mu":
        return _comb_mu_update(x, p, floor, data.spread)[0]
    if which == "k":
        # dl/dk = n/k - sum log(1 + z**-c) vanishes at exactly one k
        z = _fold(x, p.mu, p.sigma, p.eps, floor)[2]
        denom = log1p_exp(-p.c * np.log(z)).sum()
        if not (denom > 0.0 and math.isfinite(denom)):
            raise NoBracketError("k update undefined for this configuration")
        return float(x.size / denom)
    free = [COORD_NAMES.index(which)]
    ll, radius = _fit_loglik(x, p.mu, p.sigma, p.c, p.k, p.eps, floor), _RADIUS0
    for _ in range((cfg or FitConfig()).max_cycles):
        q, ll, radius = _tr_move(x, p, ll, free, radius, floor)
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


def _pattern_step(x, p_prev, p, ll, floor):
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


_START_EPS = (0.0, 0.6, -0.6)  # eps values seeding the multi-start loops
_START_SHAPES = ((2.0, 1.0), (5.0, 0.1))  # (c, k) tried besides moment_init's


def _start_points(data, fixed_c):
    """Up to nine initial values: three points on the mu-eps ridge times three shapes.

    moment_init's point, and two that re-seed eps and place mu at the
    empirical (1 - eps)/2 quantile, where the population CDF equals that
    level at mu: the likelihood couples mu and eps along a shallow curved
    ridge with local optima.  Each takes moment_init's (c, k) and those of
    _START_SHAPES (with c = fixed_c when c is pinned), without repeats.
    """
    base = moment_init(data, fixed_c)
    ridge = [base] + [
        replace(base, mu=float(np.quantile(data.values, 0.5 * (1.0 - e0))), eps=e0)
        for e0 in _START_EPS[1:]
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


def _ascend(data, p, cfg, score_tol, ends=()):
    """One run of the fitter's loop from p.

    data is the fit's _FlooredSample.  ends lists the converged end points
    of earlier starts; the run stops unconverged once it reaches one of
    them (see _joined).  Returns (p, ll, converged, cycles,
    trace, norm), norm being the scaled working-score norm at the final p.
    """
    x, floor = data.values, data.floor
    ll = _fit_loglik(x, p.mu, p.sigma, p.c, p.k, p.eps, floor)
    if math.isnan(ll):
        raise DegenerateDataError("likelihood undefined at the starting point")
    shape = [1, 3, 4] if cfg.fixed_c is not None else [1, 2, 3, 4]
    trace = [(0, float(ll))]
    converged, radius, cycle = False, _RADIUS0, 0
    for cycle in range(1, cfg.max_cycles + 1):
        p_prev = p
        # a start's first mu move scans all 41 nodes; later ones seldom leave mu's window
        mu, mu_ll = _comb_mu_update(x, p, floor, data.spread, full=cycle == 1)
        if mu_ll > ll:
            p, ll = replace(p, mu=mu), mu_ll
        hold_mu = p.c * p.k < 1.0 or _mu_pinned(x, p.mu, floor)
        p, ll, radius = _tr_move(x, p, ll, shape if hold_mu else [0, *shape], radius, floor)
        p, ll = _pattern_step(x, p_prev, p, ll, floor)
        trace.append((cycle, float(ll)))
        g = _work_score(x, p.mu, p.sigma, p.c, p.k, p.eps, floor)
        norm = _scaled_score_norm(g, p, not _mu_pinned(x, p.mu, floor), cfg.fixed_c is None)
        if _rel_change(p, p_prev) <= cfg.param_tol and norm <= score_tol:
            # a stop inside the resolution floor is on the sigma -> 0, k -> inf ray; a
            # shoulder, sigma (1 + |eps|) / c wide for c > 1, inside it on the c -> inf, k -> 0 one
            converged = p.sigma * (1.0 + abs(p.eps)) > floor * max(1.0, p.c)
            if not converged:
                _log.debug(
                    "cycle %d: stopped on a boundary ray, sigma %.3g, c %.3g", cycle, p.sigma, p.c
                )
            break
        if p == p_prev:
            # fixed point: every later iteration would repeat this one
            _log.debug("cycle %d: fixed point at loglik %.17g", cycle, ll)
            break
        if p.sigma * (1.0 + abs(p.eps)) * x.size <= floor:
            # both side scales far inside the floor: the run drifts along the ray
            _log.debug("cycle %d: left on the boundary ray, sigma %.3g", cycle, p.sigma)
            break
        j = _joined(p, ll, ends, floor)
        if j is not None:
            _log.debug("cycle %d: joined start %d's end point at loglik %.17g", cycle, j, ll)
            break
    return p, ll, converged, cycle, trace, norm


def _map_mu(x, data, mu, med, sign, scale):
    """mu on the standardized data mapped back to x, on the same side of every observation.

    A point at mu counts on the positive side, so with eps != 0 the
    working objective jumps there.  Mapping back rounds to the spacing of
    x, which can put mu on an observation it lay beside in data, or past
    it, and the reflection (sign -1) swaps the sides.  So the mapped mu
    is clamped between the observations within the floor that must stay
    at or above it and those that must stay below it.
    """
    out = med + sign * scale * mu
    d = data.values - mu
    near = np.abs(d) <= data.floor
    if not near.any():
        return out
    # d >= 0 counts positive; the same side in x is x - out >= 0 for sign +1, < 0 for -1
    above = (d[near] >= 0.0) == (sign > 0.0)
    out = min(out, float(x[near][above].min(initial=math.inf)))
    below = float(x[near][~above].max(initial=-math.inf))
    return math.nextafter(below, math.inf) if out <= below else out


def fit_ml(data, cfg=None):
    """Maximum-likelihood fit by a trust-region Newton loop on standardized data.

    Requires at least 20 observations.  The data are standardized by the
    median, a power-of-two scale near the IQR and a reflection, fitted,
    and mapped back, so params, loglik and trace refer to the data as
    given.  Unless cfg.init pins the start, the loop runs from up to nine
    starts (three points on the mu-eps ridge, three shapes each) and the
    best final objective wins; the reported trace is the winning run's.
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
    floored = _floored(sign * (x - med) / scale)
    score_tol = cfg.score_tol if cfg.score_tol is not None else 1e-5 * n

    if cfg.init is not None:
        p = cfg.init
        c = p.c if cfg.fixed_c is None else float(cfg.fixed_c)
        starts = [Params(sign * (p.mu - med) / scale, p.sigma / scale, c, p.k, sign * p.eps)]
    else:
        starts = _start_points(floored, cfg.fixed_c)

    best, ends = None, []
    for i, s in enumerate(starts):
        run = _ascend(floored, s, cfg, score_tol, ends)
        if run[2]:
            ends.append((i, *run[:2]))
        # a run that joined an end scores no higher than it, so never wins
        if best is None or run[1] > best[1]:
            best = run
    p, ll, converged, cycle, trace, norm = best
    mu = _map_mu(x, floored, p.mu, med, sign, scale)
    p = replace(p, mu=mu, sigma=scale * p.sigma, eps=sign * p.eps)
    shift = n * math.log(scale)
    ll = float(ll) - shift
    free = 4 if cfg.fixed_c is not None else 5
    trace = tuple((i, v - shift) for i, v in trace)
    return FitResult(p, ll, 2.0 * free - 2.0 * ll, converged, cycle, float(norm), free, trace)
