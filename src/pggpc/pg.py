"""Polya-Gamma distribution primitives.

The Polya-Gamma family PG(b, c) lives on the positive reals and is defined
through its Laplace transform

    E[exp(-omega t)] = cosh(c/2)**b / cosh(sqrt(c**2/4 + t/2))**b.

Only the b = 1 member is needed by the variational family, so the exact
sampler below is specialized to it.  All quantities depend on the tilt only
through |c| because PG(b, c) = PG(b, -c).
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc, erfcx

__all__ = [
    "log_cosh",
    "theta",
    "pg_kl_term",
    "pg_sample",
]

# Terms of the alternating series after which a candidate counts as undecidable.
_MAX_SERIES_TERMS = 1000
# Largest tilt pg_sample draws for: (c/2)^2 and the proposal's rate stay finite.
_MAX_TILT = 1e150

# Devroye-style sampler constants: the proposal splits at x = _TRUNC into a
# truncated inverse-Gaussian piece (left) and an exponential tail (right).
_TRUNC = 0.64
_INV_SQRT_2T = 1.0 / np.sqrt(2.0 * _TRUNC)
_SQRT_HALF_T = np.sqrt(0.5 * _TRUNC)


def log_cosh(x):
    """Overflow-free log(cosh(x)) computed as |x| + log1p(exp(-2|x|)) - log 2."""
    ax = np.abs(np.asarray(x, dtype=float))
    return (ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0))[()]


def theta(c):
    """Mean of PG(1, c): theta(c) = tanh(c/2) / (2 c), with theta(0) = 1/4.

    Continuous and strictly decreasing in |c|.  A fourth-order Taylor
    expansion (1/4 - c^2/48 + c^4/480) is used for |c| < 1e-4 to avoid the
    0/0 form while keeping more than 12 significant digits.

    Parameters
    ----------
    c : float or array_like
        Tilt value(s); the sign is ignored.

    Returns
    -------
    float or ndarray
        theta(c) in (0, 1/4].
    """
    c = np.abs(np.asarray(c, dtype=float))
    small = c < 1e-4
    safe = np.where(small, 1.0, c)
    tiny = np.where(small, c, 0.0)  # the series only where it is used, so no power overflows
    out = np.where(
        small,
        0.25 - tiny * tiny / 48.0 + tiny**4 / 480.0,
        np.tanh(0.5 * safe) / (2.0 * safe),
    )
    return out[()]


def pg_kl_term(c):
    """Per-coordinate KL divergence KL(PG(1, c) || PG(1, 0)).

    Equals log cosh(c/2) - (c/4) tanh(c/2); nonnegative, zero only at c = 0,
    and increasing in |c|.  For |c| < 1e-2 the series c^4/192 - c^6/1440
    avoids catastrophic cancellation between the two nearly equal terms.
    """
    c = np.abs(np.asarray(c, dtype=float))
    small = c < 1e-2
    safe = np.where(small, 1.0, c)
    tiny = np.where(small, c, 0.0)  # the series only where it is used, so no power overflows
    direct = log_cosh(0.5 * safe) - 0.25 * safe * np.tanh(0.5 * safe)
    series = tiny**4 / 192.0 - tiny**6 / 1440.0
    return np.where(small, series, direct)[()]


def pg_sample(c, rng):
    """Exact draw(s) from PG(1, c) via alternating-series rejection sampling.

    The sampler follows Devroye's scheme for the Jacobi-type density: a
    candidate is drawn from a two-piece proposal (truncated inverse-Gaussian
    below ``x = 0.64``, exponential above) and accepted by comparing a
    uniform against the partial sums of the alternating series, which bracket
    the density ever more tightly.  Expected cost is a small constant number
    of terms per draw, with no truncation bias.

    Parameters
    ----------
    c : float or array_like
        Tilt value(s); the sign is ignored.  One draw is made per element
        (``np.full(shape, c)`` draws many at one tilt).
    rng : numpy.random.Generator
        Source of randomness.

    Returns
    -------
    float or ndarray
        Positive sample(s) of omega, shaped like ``c``.

    Raises
    ------
    ValueError
        If any tilt is NaN or larger than 1e150 in magnitude.
    """
    c = np.asarray(c, dtype=float)
    bad = ~(np.abs(c) <= _MAX_TILT)  # NaN included
    if bad.any():
        raise ValueError(f"Polya-Gamma tilt c must be finite and at most {_MAX_TILT:g} "
                         f"in magnitude, got {c[bad].flat[0]}")
    z = 0.5 * np.abs(np.ravel(c))
    draws = 0.25 * _sample_jacobi_tilted(z, rng)
    return draws.reshape(np.shape(c))[()]


def _sample_jacobi_tilted(z, rng):
    """Vectorized draws from the tilted Jacobi density J*(1, z), z >= 0.

    PG(1, c) = J*(1, c/2) / 4.  The density is proportional to
    exp(-z^2 x / 2) * sum_n (-1)^n a_n(x) for x > 0.
    """
    n = z.size
    out = np.empty(n)
    if n == 0:
        return out
    rate = np.pi**2 / 8.0 + 0.5 * z * z
    # Proposal-piece masses with the common cosh(z) factor divided out.  The
    # scaled complementary error function keeps the right-hand term finite
    # for large tilts (erfc(a + b) * exp(z) written as erfcx * exp(z - (a+b)^2)).
    mass_left = erfc(_INV_SQRT_2T - _SQRT_HALF_T * z) * np.exp(-z) + erfcx(
        _INV_SQRT_2T + _SQRT_HALF_T * z
    ) * np.exp(-0.5 / _TRUNC - 0.5 * _TRUNC * z * z)
    mass_right = 0.5 * np.pi / rate * np.exp(-rate * _TRUNC)
    total = mass_left + mass_right
    p_left = np.where(total > 0.0, mass_left / np.where(total > 0.0, total, 1.0), 1.0)

    todo = np.arange(n)
    while todo.size:
        zt = z[todo]
        pick_left = rng.random(todo.size) < p_left[todo]
        x = np.empty(todo.size)
        n_left = int(np.count_nonzero(pick_left))
        if n_left:
            x[pick_left] = _trunc_inv_gauss(zt[pick_left], rng)
        if n_left < todo.size:
            tail = ~pick_left
            x[tail] = _TRUNC + rng.standard_exponential(todo.size - n_left) / rate[todo[tail]]
        ok = _series_accept(x, rng)
        out[todo[ok]] = x[ok]
        todo = todo[~ok]
    return out


def _series_accept(x, rng):
    """Accept candidates with probability S(x) / a_0(x) via partial sums.

    Odd partial sums are lower bounds and even ones upper bounds of the
    alternating series S(x) = sum_n (-1)^n a_n(x), so each added term decides
    more candidates.  A candidate still undecided after ``_MAX_SERIES_TERMS``
    terms (the series decides in a handful) raises ``RuntimeError``.
    """
    a0 = _series_term(0, x)
    u = rng.random(x.size) * a0
    s = a0.copy()
    accept = np.zeros(x.size, dtype=bool)
    undecided = np.ones(x.size, dtype=bool)
    n = 0
    while undecided.any():
        n += 1
        w = np.flatnonzero(undecided)
        term = _series_term(n, x[w])
        if n % 2:
            s[w] -= term
            hit = u[w] <= s[w]
            accept[w[hit]] = True
        else:
            s[w] += term
            hit = u[w] > s[w]
        undecided[w[hit]] = False
        if n >= _MAX_SERIES_TERMS and undecided.any():
            bad = x[undecided]
            raise RuntimeError(
                f"Polya-Gamma series undecided after {n} terms for {bad.size} "
                f"candidate(s), e.g. x={float(bad[0])!r}"
            )
    return accept


def _series_term(n, x):
    """Coefficient a_n(x) of the Jacobi-density series, piecewise in x."""
    half = n + 0.5
    out = np.empty_like(x)
    hi = x > _TRUNC
    if hi.any():
        out[hi] = np.pi * half * np.exp(-0.5 * (half * np.pi) ** 2 * x[hi])
    lo = ~hi
    if lo.any():
        xl = x[lo]
        out[lo] = np.exp(
            np.log(np.pi * half)
            + 1.5 * np.log(2.0 / (np.pi * xl))
            - 2.0 * half * half / xl
        )
    return out


def _trunc_inv_gauss(z, rng):
    """Draws from x^{-3/2} exp(-1/(2x) - z^2 x / 2) restricted to (0, 0.64].

    Small tilts use the exponential-pair construction for the untilted
    density followed by a tilt acceptance; large tilts (mean 1/z inside the
    truncation window) draw plain inverse-Gaussians and retry past the cut.
    """
    out = np.empty(z.size)
    big = z * _TRUNC > 1.0

    idx = np.flatnonzero(~big)
    while idx.size:
        k = idx.size
        e1 = rng.standard_exponential(k)
        e2 = rng.standard_exponential(k)
        shape_ok = e1 * e1 <= 2.0 * e2 / _TRUNC
        x = _TRUNC / (1.0 + _TRUNC * e1) ** 2
        keep = shape_ok & (rng.random(k) <= np.exp(-0.5 * x * z[idx] ** 2))
        out[idx[keep]] = x[keep]
        idx = idx[~keep]

    idx = np.flatnonzero(big)
    while idx.size:
        k = idx.size
        mu = 1.0 / z[idx]
        y = rng.standard_normal(k) ** 2
        x = mu + 0.5 * mu * (mu * y - np.sqrt(4.0 * mu * y + (mu * y) ** 2))
        flip = rng.random(k) > mu / (mu + x)
        x = np.where(flip, mu * mu / x, x)
        keep = x <= _TRUNC
        out[idx[keep]] = x[keep]
        idx = idx[~keep]
    return out
