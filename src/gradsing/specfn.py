"""Bessel functions of the first kind for real order, their first zeros,
the two derived model constants, and numpy's integer power of negative
doubles at less cost (:func:`int_power`).

The model needs J_nu, J_nu' and J_nu'' for non-integer orders nu(n) =
sqrt(36 n^2 - 96 n + 61)/6 together with the first positive roots x0 of
J_nu and x1 of J_nu'.  Everything here is evaluated from scratch, by the
ascending power series, on the served domain 0 <= x <= 20.  Every
argument the package itself passes lies inside it; the largest, 13.55,
comes from the zero search for n = 10.  The alternating series loses
digits through cancellation as x grows (its largest term grows like
e^x / (pi x)), so a call with an argument above 20 issues one
:class:`BesselAccuracyWarning`, in place of its estimate checks, and
still returns its values.

Sums are accumulated in the widest hardware float (``np.longdouble``,
80-bit on x86).  Against mpmath at 40 digits, over the orders nu(n) - 2
.. nu(n) + 2 for n = 2..10 on [0.05, 20], the error relative to
max(1, |J|) reaches 4.2e-11 (n = 7, nu + 1, x = 20).  Each evaluation
carries an internal error estimate; crossing 1e-10 triggers a
:class:`BesselAccuracyWarning` rather than an exception.  A NaN or
infinite argument is a ValueError.

A point's value and error estimate do not depend on the other points
of its call, so one call may serve many points with the bits of one call
per point.  Each point stops at its own first series term that meets the
1e-24 stop, and its estimate takes that term.  A stopped term lies below
half a long-double ulp of the sum, so the terms a point still takes
while a point before it runs change nothing in its sum.
"""

from __future__ import annotations

import math
import operator
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BesselAccuracyWarning",
    "BesselOrder",
    "BesselZeros",
    "ZeroBracketingError",
    "nu_of",
    "alpha_of",
    "bessel_j",
    "bessel_j_prime",
    "bessel_j_second",
    "bisect",
    "first_zeros",
    "int_power",
    "shared_evaluations",
]

_L = np.longdouble
_ACCURACY_TARGET = 1e-10
_X_MAX = 20.0  # the served domain is 0 <= x <= _X_MAX
_SERIES_MAX_TERMS = 300
# a series term stops its point once |term| <= _STOP (|total| + _STOP_FLOOR)
_STOP, _STOP_FLOOR = _L(1e-24), _L(1e-300)
_ZERO_SCAN_STEP = 0.1
_ZERO_SCAN_SPAN = 20.0  # search horizon beyond the scan start
_ZERO_SCAN_CHUNK = 32  # scan cells per vector call
# the k-th derivative of J_nu and the orders nu + s it is assembled from
_NAMES = ("J", "J'", "J''")
_SHIFTS = ((0.0,), (-1.0, 0.0), (-2.0, 0.0, 2.0))
# each order's first zeros and the warnings their search raised
_ZEROS: dict[BesselOrder, tuple[BesselZeros, list]] = {}
# raw evaluations shared inside an open shared_evaluations() block, keyed
# by (order, bytes of the distinct arguments); None outside any block
_SHARED: ContextVar[dict | None] = ContextVar("specfn_shared", default=None)

# int_power reads the x87 80-bit long double (63 fraction bits) through
# its 16-bit words: word 0 ends in the 11 significand bits a double drops,
# word 4 holds the sign and the biased exponent.
_X87 = np.finfo(_L).nmant == 63
_WORDS = _L().itemsize // 2
_NEAR_LO, _NEAR_SPAN = 1024 - 128, 256  # dropped bits within 1/16 ulp of 1/2
_EXP_LO = 16383 - 1022  # |y| >= 2^-1022, the smallest normal double
_EXP_SPAN = 2044  # |y| < 2^1023: no rounding up to inf


class BesselAccuracyWarning(UserWarning):
    """Internal error estimate of an evaluation exceeded 1e-10, or an
    argument lay beyond the served domain x <= 20."""


class ZeroBracketingError(RuntimeError):
    """No sign change found within the documented search horizon."""


@dataclass(frozen=True)
class BesselOrder:
    """Positive real order of a Bessel function of the first kind."""

    nu: float

    def __post_init__(self):
        if not (self.nu > 0.0) or not math.isfinite(self.nu):
            raise ValueError(f"order must be a positive finite real, got {self.nu}")


@dataclass(frozen=True)
class BesselZeros:
    """First positive roots x0 of J_nu and x1 of J_nu' (0 < x1 < x0)."""

    x0: float
    x1: float

    def __post_init__(self):
        if not (0.0 < self.x1 < self.x0):
            raise ValueError(f"need 0 < x1 < x0, got x1={self.x1}, x0={self.x0}")


def _dimension(n) -> int:
    """``n`` as an int, or a ValueError unless it is an integer >= 2."""
    if n < 2 or int(n) != n:
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    return int(n)


def nu_of(n: int) -> float:
    """Bessel order attached to the space dimension, sqrt(36n^2-96n+61)/6."""
    n = _dimension(n)
    return float(np.sqrt(_L(36 * n * n - 96 * n + 61)) / _L(6))


def alpha_of(n: int) -> float:
    """Amplitude of the singular stationary profile, cbrt(9n - 15)."""
    return float(np.cbrt(_L(9 * _dimension(n) - 15)))


def _series(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending series sum_k (-1)^k (x/2)^(2k+mu) / (k! Gamma(mu+k+1)).

    Returns the value and an absolute error estimate (cancellation plus
    truncation).  ``mu`` may be any real that is not a negative integer.

    Each point stops at its own first term with |term| <= 1e-24 (|total| +
    1e-300), or after 300 terms.  The loop runs on the points from the
    first one still running to the last; a point among them that has
    stopped keeps its stopping term for the estimate, and the terms it
    still takes are no-ops on its sum.  So every point's value and
    estimate are those of its one-point call, for x in any order; sorted
    x, as :func:`_derivatives` passes, mostly stop in order.
    """
    gamma = _L(math.gamma(mu + 1.0))
    # leading coefficient 1/Gamma(mu+1); Gamma may legitimately be negative
    # for mu in (-2,-1) etc.  x == 0: (x/2)^mu is 0 for mu > 0, 1 for
    # mu == 0; mu < 0 never reaches here with x == 0 (guarded by the public
    # wrappers).
    z = x.astype(_L) / 2
    lead = np.zeros_like(z)
    pos = x > 0
    lead[pos] = np.exp(_L(mu) * np.log(z[pos])) / gamma
    if mu == 0.0:
        lead[~pos] = 1.0
    term, total, max_term = (np.ones_like(z) for _ in range(3))
    z2 = -(z * z)
    # the loop runs on t, s, m and q, the points from lo on; a run of
    # stopped points at their head is written back and dropped
    t, s, m, q = term, total, max_term, z2
    held = None  # |term| at the stop of points that stopped out of order
    lo = k = 0
    while t.size and k < _SERIES_MAX_TERMS:
        k += 1
        t = t * q / (_L(k) * _L(mu + k))
        s = s + t
        a = abs(t)
        m = np.maximum(m, a)
        stop = a <= _STOP * (abs(s) + _STOP_FLOOR)
        stopped = np.count_nonzero(stop)
        if not stopped:
            continue
        run = stop.size if stopped == stop.size else int(stop.argmin())
        if stopped > run:
            if held is None:
                held = np.full_like(z, np.nan)
            h = held[lo:]
            first = stop & np.isnan(h)
            h[first] = a[first]
        if run:
            hi = lo + run
            term[lo:hi], total[lo:hi], max_term[lo:hi] = t[:run], s[:run], m[:run]
            t, s, m, q, lo = t[run:], s[run:], m[run:], q[run:], hi
    term[lo:], total[lo:], max_term[lo:] = t, s, m
    last = abs(term)
    if held is not None:
        last = np.where(np.isnan(held), last, held)
    value = lead * total
    eps_l = float(np.finfo(_L).eps)
    est = abs(lead) * (max_term * eps_l + last) + 2.3e-16 * abs(value)
    return value.astype(float), est.astype(float)


def _jv_raw(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_mu on x >= 0 for arbitrary real mu (values and error estimates)."""
    if mu < 0.0 and mu == math.floor(mu):
        # negative integer order: J_{-m} = (-1)^m J_m
        val, est = _series(-mu, x)
        sgn = (-1.0) ** int(-mu)
        return sgn * val, est
    return _series(mu, x)


def _check_accuracy(est: np.ndarray, value: np.ndarray, what: str) -> None:
    scale = np.maximum(1.0, np.abs(value))
    worst = float(np.max(est / scale)) if est.size else 0.0
    if not worst <= _ACCURACY_TARGET:  # NaN (an overflowed value) warns too
        warnings.warn(
            f"{what}: internal error estimate {worst:.2e} exceeds "
            f"{_ACCURACY_TARGET:.0e}",
            BesselAccuracyWarning,
            stacklevel=4,  # the caller of bessel_j and its derivatives
        )


@contextmanager
def shared_evaluations():
    """Share raw evaluations between the Bessel calls inside the block (or
    the call of a function it decorates).

    Each order is evaluated once per set of distinct arguments, and later
    calls on the same set read that evaluation; the values are the bits of
    a fresh evaluation, and every call still runs its accuracy check.
    Nested blocks share the outermost one's memo, which is dropped when
    that block exits, so nothing is kept between blocks.
    """
    if _SHARED.get() is not None:
        yield
        return
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _jv_shared(mu: float, xu: np.ndarray, key: bytes):
    """_jv_raw(mu, xu), read from the open shared_evaluations() memo."""
    memo = _SHARED.get()
    if memo is None:
        return _jv_raw(mu, xu)
    hit = memo.get((mu, key))
    if hit is None:
        hit = memo[mu, key] = _jv_raw(mu, xu)
    return hit


def _derivatives(order: BesselOrder, x, wanted: tuple[int, ...]) -> list:
    """J_nu (0), J_nu' (1) and J_nu'' (2) at x, one result per entry of
    ``wanted``: scalars for a scalar x, else arrays of x's shape.

    J' = J_(nu-1) - (nu/x) J_nu; J'' = (J_(nu-2) - 2 J_nu + J_(nu+2)) / 4,
    deliberately from the three-term recurrence rather than the defining
    differential equation, so that residual checks of that equation remain
    meaningful.  J' is unbounded as x -> 0+ when nu < 1 (it behaves like
    nu (x/2)^(nu-1) / (2 Gamma(nu+1))), so the derivatives need x > 0.

    Each order of J is evaluated once, on the distinct arguments only (and
    read from the memo of an open :func:`shared_evaluations` block), passed
    in ascending order, so the series' points mostly stop in order and
    each term is added only to the points still running.  A point's value
    and estimate do not depend on the other points of the call, so the
    results are bitwise those of one call per point, and a call warns of
    its estimate exactly when one of its points would alone.  A call with
    an argument beyond the served domain warns once for the domain and
    runs no estimate check.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("Bessel functions need finite x")
    if np.any(arr < 0.0) or (max(wanted) > 0 and np.any(arr == 0.0)):
        raise ValueError("J_nu needs x >= 0 and its derivatives x > 0")
    nu = order.nu
    xu, inverse = np.unique(arr, return_inverse=True)
    shifts = {s for k in wanted for s in _SHIFTS[k]}
    key = xu.tobytes()
    raw = {s: _jv_shared(nu + s, xu, key) for s in shifts}
    beyond = bool(xu.size) and xu[-1] > _X_MAX  # xu is sorted
    if beyond:
        warnings.warn(
            f"J_{nu:g}: argument {xu[-1]:.6g} is beyond the served domain "
            f"x <= {_X_MAX:g}",
            BesselAccuracyWarning,
            stacklevel=3,  # the caller of bessel_j and its derivatives
        )
    mid, e_mid = raw[0.0]
    out = []
    for k in wanted:
        if k == 0:
            value, est = mid, e_mid
        elif k == 1:
            low, e_low = raw[-1.0]
            value = low - (nu / xu) * mid
            est = e_low + (nu / xu) * e_mid
        else:
            (lo, e_lo), (hi, e_hi) = raw[-2.0], raw[2.0]
            value = (lo - 2.0 * mid + hi) / 4.0
            est = (e_lo + 2.0 * e_mid + e_hi) / 4.0
        if not beyond:
            _check_accuracy(est, value, f"{_NAMES[k]}_{nu:g}")
        out.append(float(value[0]) if arr.ndim == 0
                   else value[inverse].reshape(arr.shape))
    return out


def bessel_j(order: BesselOrder, x):
    """J_nu(x) for finite x >= 0.  Accepts scalars or arrays of arguments."""
    return _derivatives(order, x, (0,))[0]


def bessel_j_prime(order: BesselOrder, x):
    """d/dx J_nu(x) for finite x > 0, via J_nu' = J_(nu-1) - (nu/x) J_nu."""
    return _derivatives(order, x, (1,))[0]


def bessel_j_second(order: BesselOrder, x):
    """d^2/dx^2 J_nu(x) for finite x > 0, via (J_(nu-2) - 2 J_nu + J_(nu+2)) / 4."""
    return _derivatives(order, x, (2,))[0]


def bisect(right, a: float, b: float, rtol: float) -> tuple[float, float]:
    """Halve [a, b] until b - a <= rtol max(1, |b|), at most 200 times: the
    midpoint m replaces b when ``right(m)``, else a.  One call of ``right``
    per midpoint; returns the final (a, b)."""
    for _ in range(200):
        if b - a <= rtol * max(1.0, abs(b)):
            break
        m = 0.5 * (a + b)
        if right(m):
            b = m
        else:
            a = m
    return a, b


def first_zeros(order: BesselOrder) -> BesselZeros:
    """First positive roots of J_nu' (x1) and J_nu (x0), searched once per
    order and process.  A repeated call re-issues the warnings the search
    raised; a search that raised is not kept.
    """
    zeros, caught = _ZEROS.get(order, (None, []))
    try:
        if zeros is None:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                zeros = _search_zeros(order)
            _ZEROS[order] = zeros, caught
        return zeros
    finally:  # a search that raised passes its warnings on too
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def _search_zeros(order: BesselOrder) -> BesselZeros:
    """Scans with step 0.1 from max(nu, 0.1) -- both roots exceed nu -- for a
    sign change in vector calls of 32 cells, bisects the bracket to 1e-12
    and applies one Newton polish.  Raises :class:`ZeroBracketingError` if
    no bracket appears within 20.0 above the scan start (far beyond the
    true roots for any practical order).
    """
    nu = order.nu
    j = lambda t: bessel_j(order, t)
    jp = lambda t: bessel_j_prime(order, t)
    # second derivative from the defining equation, given d = jp(t), for
    # the Newton step on jp
    jpp = lambda t, d: -d / t - (1.0 - nu * nu / (t * t)) * j(t)

    def zero(f, start: float) -> float:
        # the midpoint of the first cell (a, b) of the grid start + i * step,
        # i = 0..200, with f(a) > 0 >= f(b), bisected; one vector call per
        # chunk of cells
        steps = int(_ZERO_SCAN_SPAN / _ZERO_SCAN_STEP)
        for lo in range(0, steps, _ZERO_SCAN_CHUNK):
            x = start + np.arange(lo, min(lo + _ZERO_SCAN_CHUNK, steps) + 1) \
                * _ZERO_SCAN_STEP
            x, fx = x.tolist(), f(x).tolist()
            for a, fa, b, fb in zip(x, fx, x[1:], fx[1:]):
                if fa > 0.0 and fb <= 0.0:
                    a, b = bisect(lambda m: not f(m) > 0.0, a, b, 1e-12)
                    return 0.5 * (a + b)
        raise ZeroBracketingError(
            f"no sign change of order-{nu:g} function in "
            f"[{start:g}, {start + _ZERO_SCAN_SPAN:g}] (search horizon "
            f"{_ZERO_SCAN_SPAN:g} above scan start)"
        )

    x1 = zero(jp, max(nu, 0.1))
    d = jp(x1)
    x1 -= d / jpp(x1, d)

    x0 = zero(j, x1)
    x0 -= j(x0) / jp(x0)

    zeros = BesselZeros(x0=x0, x1=x1)
    if not (abs(j(x0)) <= _ACCURACY_TARGET and abs(jp(x1)) <= _ACCURACY_TARGET):
        raise RuntimeError(
            f"zero residuals out of tolerance: |J({x0})|={abs(j(x0)):.2e}, "
            f"|J'({x1})|={abs(jp(x1)):.2e}"
        )
    return zeros


def int_power(x, p: int):
    """``np.asarray(x, dtype=float) ** p`` bit for bit, for an integer
    p >= 2, at about half its cost where x < 0.

    numpy's SIMD ``pow`` takes a slow per-element path for a negative
    base.  Here x^p is formed by binary powering in the x87 long double,
    whose roundings compound to a relative error below (p - 1) 2^-64, at
    most (p - 1) 2^-11 double ulp, and rounded to a double: the correctly
    rounded power unless the long double lies within 1/16 ulp of a
    rounding midpoint (about 12% of entries).  Outside that window ``pow``
    returns the correctly rounded power too while its error exceeds half
    an ulp by less than 1/16 - (p - 1) 2^-11 ulp: glibc documents 0.52 ulp,
    and numpy 2.4.6's AVX-512 ``pow`` differed from the rounded long double
    only within 0.016 ulp of a midpoint (the tests pin 1/64 ulp).

    numpy's own ``pow`` serves the entries within the window, the
    non-negative ones (its fast path) and those whose power is not a
    normal double below 2^1023.  Where long double is not the x87 format
    (fewer than 63 fraction bits, or a wider format), this is ``x ** p``.
    Takes Python scalars and arrays of any shape and strides; a 0-d input
    gives a numpy scalar, as ``x ** p`` does.
    """
    if operator.index(p) < 2:
        raise ValueError(f"int_power needs an integer p >= 2, got {p}")
    x = np.asarray(x, dtype=float)
    if not _X87:
        return x ** p
    with np.errstate(over="ignore"):  # the fallback's pow warns as x ** p
        power = _long_double_power(x.reshape(-1), p)
        y = power.astype(float).reshape(x.shape)
    words = power.view(np.uint16)
    # word 4 holds the sign too: for x < 0, x^p is negative for odd p only
    slow = (words[4::_WORDS] - (_EXP_LO | 0x8000 * (p & 1))) > _EXP_SPAN
    slow |= ((words[0::_WORDS] - _NEAR_LO) & 0x7FF) <= _NEAR_SPAN
    slow = slow.reshape(x.shape) | (x >= 0.0)
    np.power(x, p, out=y, where=slow)
    return y[()]


def _long_double_power(x: np.ndarray, p: int) -> np.ndarray:
    """x^p in long double by binary powering (square and multiply)."""
    b, power = x.astype(_L), None
    while True:
        if p & 1:
            power = b if power is None else power * b
        p >>= 1
        if not p:
            return power
        b = b * b
