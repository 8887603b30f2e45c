"""Self-contained numerical kernel: log-gamma, beta, quadrature, roots, derivatives.

Everything downstream (moments, entropies, oracle integrals, score solving)
runs on the four primitives in this module, so the package carries no
dependency on an external special-function library.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DomainError, NonConvergenceError

__all__ = [
    "QuadratureResult",
    "RootResult",
    "beta_fn",
    "find_root",
    "finite_diff",
    "integrate",
    "ln_gamma",
    "log1p_exp",
]

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

# Lanczos approximation, g = 7, nine terms.  These are the published
# coefficients for the (g=7, n=9) scheme; relative accuracy is a few ulp
# over the positive real axis.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def ln_gamma(x):
    """Natural log of the gamma function for x > 0.

    Uses the Lanczos series directly for x >= 0.5 and the reflection
    formula below that, which keeps the argument of the series away
    from the poles.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection: log Gamma(x) = log(pi / sin(pi x)) - log Gamma(1 - x)
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def beta_fn(a, b):
    """Euler beta function B(a, b) for a > 0, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return math.exp(ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b))


def log1p_exp(t):
    """log(1 + exp(t)) without overflow for large |t|, for a scalar or an array.

    An array of one or more dimensions goes through
    max(t, 0) + log1p(exp(-|t|)) in place, which numpy vectorizes (its
    logaddexp is a scalar loop); anything else returns a Python float.
    """
    if isinstance(t, np.ndarray) and t.ndim:
        out = np.abs(t, dtype=float)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out += np.maximum(t, 0.0)
        return out
    t = float(t)
    if t > 0.0:
        return t + math.log1p(math.exp(-t))
    return math.log1p(math.exp(t))


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15-point rule, QUADPACK abscissae and weights.

_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive integration."""

    value: float
    abs_error_estimate: float
    subdivisions: int


def _eval_checked(f, x):
    y = f(x)
    if not math.isfinite(y):
        raise DomainError(f"integrand returned non-finite value {y} at x={x}")
    return y


def _gk15(f, a, b):
    """Apply the 15-point Kronrod rule on [a, b].

    Returns (integral, error_estimate).  The error estimate follows the
    QUADPACK heuristic: scale the raw Gauss/Kronrod discrepancy by the
    measured variation of the integrand over the panel.
    """
    center = 0.5 * (a + b)
    hlen = 0.5 * (b - a)
    fc = _eval_checked(f, center)
    resg = _WG_CENTER * fc
    resk = _WGK_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    lo_vals = [0.0] * 7
    hi_vals = [0.0] * 7
    for i in range(7):
        dx = hlen * _XGK[i]
        # keep nodes strictly interior: on very narrow panels the scaled
        # abscissa can round onto an endpoint, where integrable-singular
        # integrands blow up
        x1 = center - dx
        x2 = center + dx
        if x1 <= a:
            x1 = math.nextafter(a, b)
        if x2 >= b:
            x2 = math.nextafter(b, a)
        f1 = _eval_checked(f, x1)
        f2 = _eval_checked(f, x2)
        lo_vals[i] = f1
        hi_vals[i] = f2
        resk += _WGK[i] * (f1 + f2)
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK_CENTER * abs(fc - reskh)
    for i in range(7):
        resasc += _WGK[i] * (abs(lo_vals[i] - reskh) + abs(hi_vals[i] - reskh))
    value = resk * hlen
    resabs *= abs(hlen)
    resasc *= abs(hlen)
    err = abs((resk - resg) * hlen)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(err, 50.0 * _EPS * resabs)
    return value, err


def _integrate_finite(f, lo, hi, tol, max_subdivisions):
    import heapq

    mid = 0.5 * (lo + hi)
    panels = []
    for a, b in ((lo, mid), (mid, hi)):
        v, e = _gk15(f, a, b)
        heapq.heappush(panels, (-e, a, b, v, e))
    subdivisions = 2
    while True:
        total_err = sum(p[4] for p in panels)
        if total_err <= tol:
            break
        if subdivisions >= max_subdivisions:
            raise NonConvergenceError(
                f"integration did not reach tol={tol} after "
                f"{subdivisions} subdivisions (error estimate {total_err:.3e})"
            )
        _, a, b, _, _ = heapq.heappop(panels)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # panel is one ulp wide; keep its estimate and move on
            v, e = _gk15(f, a, b)
            heapq.heappush(panels, (0.0, a, b, v, 0.0))
            continue
        for aa, bb in ((a, m), (m, b)):
            v, e = _gk15(f, aa, bb)
            heapq.heappush(panels, (-e, aa, bb, v, e))
        subdivisions += 1
    value = math.fsum(p[3] for p in panels)
    err = sum(p[4] for p in panels)
    return QuadratureResult(value, err, subdivisions)


def integrate(f, lo, hi, tol=1e-9, max_subdivisions=4000):
    """Adaptively integrate f over (lo, hi) to an absolute tolerance.

    Infinite endpoints are mapped onto finite panels with the rational
    substitution x = a + t/(1-t) (and its mirror), and a doubly infinite
    range is split at zero first.  Interior integrable singularities are
    fine as long as f returns finite values at the points actually probed;
    a non-finite sample raises DomainError.

    Parameters
    ----------
    f : callable
        Scalar function of one real argument.
    lo, hi : float
        Endpoints, each possibly infinite.  Must satisfy lo < hi.
    tol : float
        Target for the summed absolute error estimate.
    max_subdivisions : int
        Panel budget before NonConvergenceError is raised.
    """
    if math.isnan(lo) or math.isnan(hi) or not lo < hi:
        raise DomainError(f"invalid integration range ({lo}, {hi})")
    if tol <= 0.0:
        raise DomainError("tol must be positive")

    neg_inf = math.isinf(lo)
    pos_inf = math.isinf(hi)
    if neg_inf and pos_inf:
        left = integrate(f, lo, 0.0, 0.5 * tol, max_subdivisions)
        right = integrate(f, 0.0, hi, 0.5 * tol, max_subdivisions)
        return QuadratureResult(
            left.value + right.value,
            left.abs_error_estimate + right.abs_error_estimate,
            left.subdivisions + right.subdivisions,
        )
    if pos_inf:
        a = lo

        def g(t):
            onemt = 1.0 - t
            return f(a + t / onemt) / (onemt * onemt)

        return _integrate_finite(g, 0.0, 1.0, tol, max_subdivisions)
    if neg_inf:
        b = hi

        def g(t):
            onemt = 1.0 - t
            return f(b - t / onemt) / (onemt * onemt)

        return _integrate_finite(g, 0.0, 1.0, tol, max_subdivisions)
    return _integrate_finite(f, lo, hi, tol, max_subdivisions)


# ---------------------------------------------------------------------------
# Root finding.


@dataclass(frozen=True)
class RootResult:
    """Outcome of a bracketed root search."""

    root: float
    residual: float
    iterations: int


def find_root(g, lo, hi, tol=1e-10, max_iter=200):
    """Find a root of g in [lo, hi] by Brent's method.

    The bracket must straddle a sign change.  Success means the returned
    residual satisfies |g(root)| <= tol; if the bracket collapses to
    machine width or the iteration budget runs out while the residual is
    still above tol, NonConvergenceError is raised.
    """
    if not (lo < hi) or not math.isfinite(lo) or not math.isfinite(hi):
        raise BracketError(f"invalid bracket [{lo}, {hi}]")
    a, b = lo, hi
    fa, fb = g(a), g(b)
    if fa == 0.0:
        return RootResult(a, 0.0, 0)
    if fb == 0.0:
        return RootResult(b, 0.0, 0)
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: g(lo)={fa:.6g}, g(hi)={fb:.6g}"
        )
    c, fc = a, fa
    d = e = b - a
    for it in range(1, max_iter + 1):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if abs(fb) <= tol:
            return RootResult(b, fb, it)
        tol1 = 2.0 * _EPS * abs(b) + _TINY
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            if abs(fb) <= tol:
                return RootResult(b, fb, it)
            raise NonConvergenceError(
                f"bracket collapsed at x={b} with residual {fb:.6g} > tol={tol}"
            )
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0.0 else -tol1
        fb = g(b)
    if abs(fb) <= tol:
        return RootResult(b, fb, max_iter)
    raise NonConvergenceError(
        f"no convergence in {max_iter} iterations; residual {fb:.6g} at x={b}"
    )


def finite_diff(f, x, h):
    """Central difference (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0.0 or not math.isfinite(h):
        raise DomainError(f"step must be positive and finite, got {h}")
    fp = f(x + h)
    fm = f(x - h)
    if not (math.isfinite(fp) and math.isfinite(fm)):
        raise DomainError(
            f"non-finite function value near x={x}: f(x+h)={fp}, f(x-h)={fm}"
        )
    return (fp - fm) / (2.0 * h)
