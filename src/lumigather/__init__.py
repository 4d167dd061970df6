"""Deterministic simulator and trace checker for luminous-robot gathering."""

from .algorithms import ALGORITHMS, Action, get_algorithm
from .configuration import Configuration, Frame
from .engine import (
    BudgetExhausted,
    EmptyActivation,
    IllegalChoice,
    Scenario,
    ScenarioError,
    Trace,
    apply_move,
    enabled_ids,
    run,
    ssync_round,
)
from .geometry import (
    Classification,
    CollinearSignal,
    HullView,
    Point,
    convex_hull,
    hull_center,
    is_contractible,
    is_on_lds,
    is_symmetric,
    min_edge_targets,
    nearest_vertex,
    pt,
)
from .patterns import ColorConfig, classify_line
from .potentials import Cmp, INF, lex_less, potential_f, potential_g
from .rational import BACKEND, Rat, format_rat, parse_rat

__version__ = "0.1.0"
