import random

import pytest
from hypothesis import HealthCheck, settings

from lumigather.configuration import Configuration, Frame, canonical
from lumigather.geometry import Point, pt
from lumigather.rational import Rat

settings.register_profile(
    "ci", max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def make_snap(entries, own, light):
    """A Look's (configuration, position, light) from ((x, y), color) pairs;
    (num, den) tuples are rationals."""
    return make_config(entries), pt(*own), light


def observe(world, rid):
    """The (configuration, position, light) a Look of robot ``rid`` of the
    AsyncWorld ``world`` would observe now."""
    return (world.visible, *world.shown[rid])


def make_config(entries):
    return Configuration(canonical((pt(*p), c) for p, c in entries))


def edge_lengths_sq(hull):
    """Squared edge lengths of a HullView as rationals, edge i first."""
    d2 = hull.lattice.den * hull.lattice.den
    return tuple(Rat(n, d2) for n in hull.edge_norms)


def identity_frame():
    return Frame(Rat(1), Rat(0), Rat(1), Point(Rat(0), Rat(0)))


_TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29), (7, 24, 25)]


def random_frame(rng):
    a, b, c = _TRIPLES[rng.randrange(len(_TRIPLES))]
    if rng.random() < 0.5:
        a, b = b, a
    if rng.random() < 0.5:
        b = -b
    scale = Rat(rng.randint(1, 12), rng.randint(1, 5))
    tx = Rat(rng.randint(-40, 40), rng.randint(1, 4))
    ty = Rat(rng.randint(-40, 40), rng.randint(1, 4))
    return Frame(Rat(a, c), Rat(b, c), scale, Point(tx, ty))


@pytest.fixture
def rng():
    return random.Random(20240817)
