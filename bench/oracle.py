"""Independent computations the benchmark checks the program's outputs against.

Nothing here calls modularflow.  Transforms are direct DFTs (Horner's rule
on the sample grid, not chirp-z), integrals use this module's own composite
Simpson weights, bumps and flow maps are the closed forms, and the scalar
references are evaluated in mpmath at 30 digits.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

TWO_PI = 2.0 * math.pi
mpmath.mp.dps = 30


def bump(x, center, halfwidth, amplitude=1.0):
    """amplitude * exp(-1/(1 - s^2)) on |s| < 1, s = (x - center)/halfwidth."""
    s = (np.asarray(x, dtype=float) - center) / halfwidth
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = amplitude * np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def momentum_nodes(beta):
    """The program's default momentum grid: 8193 nodes on [-200/beta, 200/beta]."""
    return np.linspace(-200.0 / beta, 200.0 / beta, 8193)


def simpson_weights(n, h):
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def thermal_density(beta, p):
    """p / (1 - e^{-beta p}), with its limit 1/beta at p = 0."""
    out = np.full(p.shape, 1.0 / beta)
    nz = p != 0.0
    with np.errstate(over="ignore"):
        out[nz] = p[nz] / -np.expm1(-beta * p[nz])
    return out


def direct_transform(x0, dx, values, p):
    """(dx/2pi) sum_k v_k e^{-i p (x0 + k dx)} on a grid symmetric about 0.

    Evaluated by Horner's rule on the p >= 0 half and mirrored by
    conjugation, which holds for real samples.
    """
    m = len(p) // 2
    half = p[m:]
    z = np.exp(-1j * half * dx)
    acc = np.zeros(len(half), dtype=complex)
    for v in values[::-1]:
        acc = acc * z + v
    acc *= np.exp(-1j * half * x0) * (dx / TWO_PI)
    return np.concatenate([np.conj(acc[:0:-1]), acc])


def pairing(weight, p, ta, tb):
    """int weight(p) ta(-p) tb(p) dp by composite Simpson on the grid p."""
    return complex(np.sum(simpson_weights(len(p), p[1] - p[0]) * weight * ta[::-1] * tb))


def density_mp(beta, p):
    """p / (1 - e^{-beta p}) in mpmath; 1/beta at p = 0."""
    if p == 0.0:
        return 1.0 / beta
    pm = mpmath.mpf(p)
    return float(pm / (1 - mpmath.exp(-mpmath.mpf(beta) * pm)))


def modular_plus_mp(beta, u, x):
    """(beta/2pi) log(1 + e^{-2pi u}(e^{2pi x/beta} - 1)) in mpmath."""
    b = mpmath.mpf(beta) / (2 * mpmath.pi)
    x, u = mpmath.mpf(x), mpmath.mpf(u)
    return float(b * mpmath.log(1 + mpmath.exp(-2 * mpmath.pi * u) * mpmath.expm1(x / b)))


def _modular_plus(beta, u, x):
    b = beta / TWO_PI
    return b * np.log1p(math.exp(-TWO_PI * u) * np.expm1(x / b))


def bound_margin(beta, u, t, n=2049):
    """(lhs, rhs) of the matrix-element bound for the thm22 suite's bump pair.

    f = bump(0.52 beta, 0.5 beta), g = bump(-1.5 beta, 0.5 beta).  lhs is
    |<W(g), W(h1)> - <W(g), W(h2)>| with h1 the modular image of f(. - t),
    h2 = f(. - (t - beta u)) and <W(g), W(h)> = exp(K(g, h)/2 - omega2(h-g, h-g));
    rhs = 2 min(|e^{2pi u} - 1| / (e^{2pi t/beta} - 1), 1).
    """
    p = momentum_nodes(beta)
    dens = thermal_density(beta, p)
    cf, hf, cg, hg = 0.52 * beta, 0.5 * beta, -1.5 * beta, 0.5 * beta

    def transform(x, values):
        return direct_transform(x[0], x[1] - x[0], values, p)

    xg = np.linspace(cg - hg, cg + hg, n)
    tg = transform(xg, bump(xg, cg, hg))
    xf = np.linspace(cf - hf, cf + hf, n)
    th2 = transform(xf, bump(xf, cf, hf)) * np.exp(-1j * p * (t - beta * u))
    y = np.linspace(_modular_plus(beta, u, cf - hf + t), _modular_plus(beta, u, cf + hf + t), n)
    th1 = transform(y, bump(_modular_plus(beta, -u, y) - t, cf, hf))

    def exponent(th):
        return pairing(p, p, tg, th) / 2.0 - pairing(dens, p, th - tg, th - tg)

    lhs = abs(np.exp(exponent(th1)) - np.exp(exponent(th2)))
    rhs = 2.0 * min(abs(math.expm1(TWO_PI * u)) / math.expm1(TWO_PI * t / beta), 1.0)
    return float(lhs), rhs
