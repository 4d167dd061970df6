"""Exact rational arithmetic.

Every coordinate, distance-square and adversary fraction in this package is
an exact rational: ``Rat`` is ``fractions.Fraction``.  ``BACKEND`` names it
for the benchmark under ``perfbench/``, which records the number type that
ran.
"""

import math
from fractions import Fraction as Rat

BACKEND = "fractions"

R0 = Rat(0)


def parse_rat(text):
    """Parse ``"p/q"`` or ``"p"``, or take an integer, as a rational.

    Raises ValueError on malformed text, a zero denominator, or a value that
    is neither a string nor an integer: a bool or a float is no rational.
    """
    if type(text) is int:
        return Rat(text)
    if type(text) is not str:
        raise ValueError(f"malformed rational {text!r}")
    s = text.strip()
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

    ``x`` must be non-negative; a ``Fraction`` is always in lowest terms.
    """
    p, q = x.numerator, x.denominator
    if p < 0:
        raise ValueError("sqrt of negative rational")
    sp = math.isqrt(p)
    if sp * sp != p:
        return None
    sq = math.isqrt(q)
    if sq * sq != q:
        return None
    return Rat(sp, sq)


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
    # sqrt(p/q)*64 = sqrt(64^2*p*q)/q; floor+1 then ceil-divide by q:
    # ceil((s + 1) / q) == (s + q) // q.
    s = math.isqrt(4096 * p * q)
    return Rat((s + q) // q, 64)
