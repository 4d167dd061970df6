"""Exact rational arithmetic backend.

Every coordinate, distance-square and adversary fraction in this package is
an exact rational.  Two interchangeable number backends are supported and one
is picked at import time:

* ``gmpy2.mpq`` -- GMP-backed compiled rationals (the fast path),
* ``fractions.Fraction`` -- pure-Python fallback.

Set ``LUMIGATHER_PURE_RATIONAL=1`` in the environment to force the pure
backend.  The benchmark under ``perfbench/`` reports the backend it loaded.
"""

import math
import os
from fractions import Fraction

_FORCE_PURE = os.environ.get("LUMIGATHER_PURE_RATIONAL", "") not in ("", "0")

if _FORCE_PURE:
    Rat = Fraction
    _isqrt = math.isqrt
    BACKEND = "fractions"
else:
    try:
        import gmpy2

        Rat = gmpy2.mpq
        _isqrt = gmpy2.isqrt
        BACKEND = "gmpy2"
    except ImportError:  # pragma: no cover - gmpy2 present in normal installs
        Rat = Fraction
        _isqrt = math.isqrt
        BACKEND = "fractions"

R0 = Rat(0)


def isqrt(n):
    """Floor square root of a non-negative integer."""
    return _isqrt(n)


def parse_rat(text):
    """Parse ``"p/q"`` or ``"p"`` into a rational.

    Raises ValueError on malformed input or a zero denominator.
    """
    if isinstance(text, int):
        return Rat(text)
    s = str(text).strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            d = int(den)
            if d == 0:
                raise ValueError(f"zero denominator in rational {text!r}")
            return Rat(int(num), d)
        return Rat(int(s))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def format_rat(x):
    """Canonical ``"p/q"`` form, denominator always explicit."""
    return f"{x.numerator}/{x.denominator}"


def sqrt_exact(x):
    """Exact rational square root of ``x`` or None when irrational.

    ``x`` must be non-negative and in lowest terms (both backends normalize).
    """
    p, q = x.numerator, x.denominator
    if p < 0:
        raise ValueError("sqrt of negative rational")
    sp = _isqrt(p)
    if sp * sp != p:
        return None
    sq = _isqrt(q)
    if sq * sq != q:
        return None
    return Rat(int(sp), int(sq))


def sqrt_interval(x, bits):
    """Certified enclosure ``(lo, hi)`` with ``lo <= sqrt(x) <= hi``.

    sqrt(p/q) = sqrt(p*q)/q, so one integer isqrt at 2*bits extra precision
    gives dyadic rational bounds of width 2**-bits relative to q.
    """
    p, q = x.numerator, x.denominator
    if p < 0:
        raise ValueError("sqrt of negative rational")
    if p == 0:
        return R0, R0
    n = p * q
    s = _isqrt(n << (2 * bits))
    den = q << bits
    return Rat(int(s), int(den)), Rat(int(s) + 1, int(den))


def min_rat_ge_sqrt(x):
    """A small rational >= sqrt(x), exact when sqrt(x) is rational, x in [0,1].

    The irrational fallback returns the smallest multiple of 1/64 above the
    root.  Used to clamp adversary move fractions up to the minimum-distance
    guarantee while keeping coordinates rational with bounded growth.
    """
    if x < 0 or x > 1:
        raise ValueError("fraction radicand out of [0,1]")
    exact = sqrt_exact(x)
    if exact is not None:
        return exact
    p, q = x.numerator, x.denominator
    # sqrt(p/q)*64 = sqrt(64^2*p*q)/q; floor+1 then ceil-divide by q.
    s = _isqrt(4096 * p * q)
    n = (int(s) + 1 + q - 1) // q
    return Rat(int(n), 64)
