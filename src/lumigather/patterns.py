"""Station classification of collinear configurations.

A collinear configuration is classified into an ordered list of stations,
each station being an occupied point together with the set of light colors
present there, plus whether three stations sit with the middle one exactly
at the midpoint of the endpoints.  The algorithms and checkers read the
stations, their color sets (``factors``) and the per-color station counts
directly.
"""

from dataclasses import dataclass

from .geometry import dist_sq, midpoint


@dataclass(frozen=True, slots=True)
class ColorConfig:
    """Ordered stations of a collinear configuration.

    stations run from endpoint_left to endpoint_right; the left endpoint is
    the lexicographically smaller one.  ``midpoint`` is the endpoints'
    midpoint, occupied or not.
    """

    stations: tuple  # ((Point, frozenset(colors)), ...)
    endpoint_left: object
    endpoint_right: object
    midpoint: object
    has_exact_midpoint: bool
    counts: dict

    @property
    def factors(self):
        return tuple(f for _, f in self.stations)

    def span_sq(self):
        """Squared distance between the endpoints (dis squared)."""
        return dist_sq(self.endpoint_left, self.endpoint_right)


def classify_line(point_colors):
    """Build the ColorConfig of a collinear configuration.

    ``point_colors`` maps each occupied Point to an iterable of colors.
    Points must be collinear; lexicographic order equals order along the
    line, so sorting by (x, y) yields the station sequence.
    """
    items = sorted(
        ((p, frozenset(cs)) for p, cs in point_colors.items()),
        key=lambda item: item[0].order_key(),
    )
    if not items:
        raise ValueError("classify_line needs at least one occupied point")
    for _, f in items:
        if not f:
            raise ValueError("station with no colors")
    left = items[0][0]
    right = items[-1][0]
    mid = midpoint(left, right)
    mid_ok = len(items) == 3 and items[1][0] == mid
    counts = {}
    for _, f in items:
        for c in f:
            counts[c] = counts.get(c, 0) + 1
    return ColorConfig(tuple(items), left, right, mid, mid_ok, counts)
