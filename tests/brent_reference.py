"""Brent's method, kept as the reference for the Newton polish.

Before `compensation._rtsafe`, each zero-phase crossing was polished on
Im Y alone with Brent's method (Brent 1973), inside the same bracket and
to the same 1e-15 relative width.  `brent_polish` takes the place of
`_rtsafe`, so tests can run the operating-point search both ways and
compare; `_brent` also serves `slope_reference.loaded_q_3db`.
"""

import math

from memsosc.compensation import _XTOL_REL


def _brent(fn, a: float, b: float) -> float:
    """Root of fn in [a, b], where fn(a) and fn(b) differ in sign.

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant steps,
    with a bisection step whenever those would not shrink the bracket fast
    enough.  Returns once the bracket is _XTOL_REL * |root| wide.
    """
    fa, fb = fn(a), fn(b)
    if fa * fb > 0:
        raise ValueError("root is not bracketed")
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * _XTOL_REL * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = fn(b)


def brent_polish(fn, a: float, b: float, fa: float, x: float) -> float:
    """`_rtsafe`'s signature, solved as before: Brent on g alone over [a, b]."""
    return _brent(lambda f: fn(f)[0], a, b)
