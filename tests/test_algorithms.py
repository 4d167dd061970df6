import dataclasses
import random
import zlib

import pytest

from lumigather.algorithms import (
    ALGORITHMS,
    Action,
    AlgorithmSpec,
    _inner_view,
    elect_one_lds,
    get_algorithm,
    lu_gather,
    lu_gather_in_async,
    sim_for_unfair,
    then,
)
from lumigather.checker import TraceData, default_checks
from lumigather.configuration import Configuration
from lumigather.engine import POLICIES
from lumigather.fuzz import fuzz
from lumigather.geometry import pt

from conftest import make_config, make_snap


class TestElectOneLds:
    def test_sym_noncontractible_edge_robot_to_center(self):
        pts = [((0, 0), "O"), ((2, 0), "O"), ((2, 2), "O"), ((0, 2), "O"), ((1, 0), "O")]
        act = elect_one_lds(*make_snap(pts, (1, 0), "O"))
        assert act.dest == pt(1, 1)
        assert act.color == "O"

    def test_sym_noncontractible_vertex_stays(self):
        pts = [((0, 0), "O"), ((2, 0), "O"), ((2, 2), "O"), ((0, 2), "O"), ((1, 0), "O")]
        act = elect_one_lds(*make_snap(pts, (0, 0), "O"))
        assert act.dest == pt(0, 0)

    def test_asym_noncontractible_interior_to_nearest_vertex(self):
        pts = [((0, 0), "O"), ((4, 0), "O"), ((4, 2), "O"), ((0, 2), "O"), ((1, 1), "O")]
        act = elect_one_lds(*make_snap(pts, (1, 1), "O"))
        assert act.dest == pt(0, 0)  # tie broken clockwise from the center ray

    def test_sym_contractible_vertex_to_center(self):
        pts = [((0, 0), "O"), ((2, 0), "O"), ((2, 2), "O"), ((0, 2), "O")]
        act = elect_one_lds(*make_snap(pts, (0, 0), "O"))
        assert act.dest == pt(1, 1)

    def test_asym_contractible_min_edge_contraction(self):
        pts = [((0, 0), "O"), ((4, 0), "O"), ((4, 1), "O"), ((0, 1), "O")]
        assert elect_one_lds(*make_snap(pts, (4, 1), "O")).dest == pt(4, 0)
        assert elect_one_lds(*make_snap(pts, (0, 0), "O")).dest == pt(0, 1)
        # right vertices of the two minimum edges stay
        assert elect_one_lds(*make_snap(pts, (4, 0), "O")).dest == pt(4, 0)
        assert elect_one_lds(*make_snap(pts, (0, 1), "O")).dest == pt(0, 1)

    def test_collinear_snapshot_stays(self):
        pts = [((0, 0), "O"), ((3, 0), "O"), ((7, 0), "O")]
        act = elect_one_lds(*make_snap(pts, (3, 0), "O"))
        assert act.dest == pt(3, 0)

    def test_never_changes_color(self):
        pts = [((0, 0), "O"), ((4, 0), "O"), ((4, 1), "O"), ((0, 1), "O"), ((2, 1), "O")]
        for own in [(0, 0), (2, 1)]:
            assert elect_one_lds(*make_snap(pts, own, "O")).color == "O"


class TestLuGather:
    def test_aa_endpoint_to_midpoint_as_b(self):
        act = lu_gather(*make_snap([((0, 0), "A"), ((2, 0), "A")], (0, 0), "A"))
        assert (act.color, act.dest) == ("B", pt(1, 0))

    def test_bbstarb_endpoint_flips_a(self):
        pts = [((0, 0), "B"), ((2, 0), "B"), ((5, 0), "B")]
        act = lu_gather(*make_snap(pts, (0, 0), "B"))
        assert (act.color, act.dest) == ("A", pt(0, 0))
        mid = lu_gather(*make_snap(pts, (2, 0), "B"))
        assert (mid.color, mid.dest) == ("B", pt(2, 0))

    def test_abstarb_b_moves_to_a_point(self):
        pts = [((0, 0), "A"), ((2, 0), "B"), ((4, 0), "B")]
        act = lu_gather(*make_snap(pts, (2, 0), "B"))
        assert (act.color, act.dest) == ("B", pt(0, 0))

    def test_abstarb_a_stays(self):
        pts = [((0, 0), "A"), ((2, 0), "B"), ((4, 0), "B")]
        act = lu_gather(*make_snap(pts, (0, 0), "A"))
        assert (act.color, act.dest) == ("A", pt(0, 0))

    def test_aaplusa_interior_to_nearest_endpoint(self):
        pts = [((0, 0), "A"), ((1, 0), "A"), ((5, 0), "A")]
        act = lu_gather(*make_snap(pts, (1, 0), "A"))
        assert act.dest == pt(0, 0)
        end = lu_gather(*make_snap(pts, (0, 0), "A"))
        assert end.dest == pt(0, 0)

    def test_abma_endpoint_to_midpoint(self):
        pts = [((0, 0), "A"), ((2, 0), "B"), ((4, 0), "A")]
        act = lu_gather(*make_snap(pts, (4, 0), "A"))
        assert (act.color, act.dest) == ("B", pt(2, 0))

    def test_abplusa_interior_b_to_midpoint(self):
        pts = [((0, 0), "A"), ((3, 0), "B"), ((4, 0), "A")]
        act = lu_gather(*make_snap(pts, (3, 0), "B"))
        assert (act.color, act.dest) == ("B", pt(2, 0))
        # endpoint A robots stay in this shape
        a = lu_gather(*make_snap(pts, (0, 0), "A"))
        assert a.dest == pt(0, 0) and a.color == "A"

    def test_mixed_station_at_a_point_keeps_gathering(self):
        # a B robot standing on the A endpoint must not run away
        pts = [((0, 0), "A"), ((0, 0), "B"), ((4, 0), "B")]
        act = lu_gather(*make_snap(pts, (0, 0), "B"))
        assert act.dest == pt(0, 0)
        far = lu_gather(*make_snap(pts, (4, 0), "B"))
        assert far.dest == pt(0, 0)

    def test_gathered_single_point_fixpoint(self):
        for color in ("A", "B"):
            act = lu_gather(*make_snap([((1, 1), "A"), ((1, 1), color)], (1, 1), color))
            assert act.dest == pt(1, 1) and act.color == color


@pytest.mark.parametrize("algorithm, color", [(lu_gather, "A"), (lu_gather_in_async, "S")])
def test_collinear_gatherers_reject_a_non_collinear_snapshot(algorithm, color):
    pts = [((0, 0), color), ((4, 0), color), ((0, 3), color)]
    with pytest.raises(ValueError, match="collinear"):
        algorithm(*make_snap(pts, (0, 0), color))


class TestLuGatherInAsync:
    def test_ss_to_midpoint(self):
        act = lu_gather_in_async(*make_snap([((0, 0), "S"), ((2, 0), "S")], (0, 0), "S"))
        assert (act.color, act.dest) == ("M", pt(1, 0))

    def test_ssplus_interior_contracts(self):
        pts = [((0, 0), "S"), ((1, 0), "S"), ((5, 0), "S")]
        act = lu_gather_in_async(*make_snap(pts, (1, 0), "S"))
        assert (act.color, act.dest) == ("S", pt(0, 0))

    def test_single_s_point_flips_e(self):
        pts = [((0, 0), "S"), ((2, 0), "M"), ((4, 0), "M")]
        act = lu_gather_in_async(*make_snap(pts, (0, 0), "S"))
        assert (act.color, act.dest) == ("E", pt(0, 0))

    def test_sm_endpoints_move(self):
        pts = [((0, 0), "S"), ((2, 0), "M"), ((4, 0), "S")]
        act = lu_gather_in_async(*make_snap(pts, (0, 0), "S"))
        assert (act.color, act.dest) == ("M", pt(2, 0))

    def test_sm_scattered_s_flips_m_in_place(self):
        pts = [((0, 0), "S"), ((2, 0), "S"), ((4, 0), "M"), ((6, 0), "S")]
        act = lu_gather_in_async(*make_snap(pts, (2, 0), "S"))
        assert (act.color, act.dest) == ("M", pt(2, 0))

    def test_all_m_flips_e(self):
        pts = [((0, 0), "M"), ((4, 0), "M")]
        act = lu_gather_in_async(*make_snap(pts, (0, 0), "M"))
        assert (act.color, act.dest) == ("E", pt(0, 0))

    def test_unique_e_attracts_m(self):
        pts = [((0, 0), "M"), ((2, 0), "E"), ((4, 0), "M")]
        act = lu_gather_in_async(*make_snap(pts, (0, 0), "M"))
        assert (act.color, act.dest) == ("M", pt(2, 0))
        at_e = lu_gather_in_async(*make_snap(pts + [((2, 0), "M")], (2, 0), "M"))
        assert at_e.dest == pt(2, 0)

    def test_two_e_points_flip_everyone(self):
        pts = [((0, 0), "E"), ((2, 0), "M"), ((4, 0), "E")]
        act = lu_gather_in_async(*make_snap(pts, (2, 0), "M"))
        assert (act.color, act.dest) == ("E", pt(2, 0))

    def test_ee_flips_s(self):
        act = lu_gather_in_async(*make_snap([((0, 0), "E"), ((4, 0), "E")], (0, 0), "E"))
        assert (act.color, act.dest) == ("S", pt(0, 0))

    def test_three_e_midpoint_sandwich_endpoints_flip_s(self):
        pts = [((0, 0), "E"), ((2, 0), "E"), ((4, 0), "E")]
        act = lu_gather_in_async(*make_snap(pts, (0, 0), "E"))
        assert (act.color, act.dest) == ("S", pt(0, 0))
        mid = lu_gather_in_async(*make_snap(pts, (2, 0), "E"))
        assert mid.dest == pt(2, 0) and mid.color == "E"

    def test_three_e_off_midpoint_keeps_contracting(self):
        # the interior station is not the exact midpoint (a mover in flight
        # can look like this): endpoints hold, the interior keeps heading in
        pts = [((0, 0), "E"), ((1, 0), "E"), ((4, 0), "E")]
        act = lu_gather_in_async(*make_snap(pts, (1, 0), "E"))
        assert (act.color, act.dest) == ("E", pt(2, 0))
        end = lu_gather_in_async(*make_snap(pts, (0, 0), "E"))
        assert end.dest == pt(0, 0) and end.color == "E"

    def test_four_e_interior_to_midpoint(self):
        pts = [((0, 0), "E"), ((1, 0), "E"), ((3, 0), "E"), ((4, 0), "E")]
        act = lu_gather_in_async(*make_snap(pts, (1, 0), "E"))
        assert (act.color, act.dest) == ("E", pt(2, 0))

    def test_ses_endpoints_flip_m(self):
        pts = [((0, 0), "S"), ((2, 0), "E"), ((4, 0), "S")]
        act = lu_gather_in_async(*make_snap(pts, (0, 0), "S"))
        assert (act.color, act.dest) == ("M", pt(0, 0))

    def test_se_pair_flips_back_to_s(self):
        pts = [((0, 0), "S"), ((4, 0), "E")]
        act = lu_gather_in_async(*make_snap(pts, (4, 0), "E"))
        assert (act.color, act.dest) == ("S", pt(4, 0))

    def test_sme_lone_s_with_e_flips_e(self):
        pts = [((0, 0), "M"), ((2, 0), "S"), ((2, 0), "E"), ((4, 0), "M")]
        act = lu_gather_in_async(*make_snap(pts, (2, 0), "S"))
        assert (act.color, act.dest) == ("E", pt(2, 0))

    def test_sme_smesm_endpoint_s_flips_m(self):
        pts = [((0, 0), "S"), ((2, 0), "E"), ((4, 0), "M")]
        act = lu_gather_in_async(*make_snap(pts, (0, 0), "S"))
        assert (act.color, act.dest) == ("M", pt(0, 0))

    def test_gathered_all_e_does_nothing(self):
        act = lu_gather_in_async(*make_snap([((3, 0), "E"), ((3, 0), "E")], (3, 0), "E"))
        assert (act.color, act.dest) == ("E", pt(3, 0))


THREE_COLOR = get_algorithm("three-color")
SIX_COLOR = get_algorithm("six-color")


class TestSimWrapper:
    def test_all_s_enabled_runs_inner(self):
        pts = [((0, 0), "S"), ((2, 0), "S"), ((2, 2), "S"), ((0, 2), "S")]
        act = THREE_COLOR(*make_snap(pts, (0, 0), "S"))
        assert (act.color, act.dest) == ("M", pt(1, 1))
        assert act.inner_exec

    def test_all_s_not_enabled_does_nothing(self):
        pts = [((0, 0), "S"), ((2, 0), "S"), ((2, 2), "S"), ((0, 2), "S"), ((1, 1), "S")]
        act = THREE_COLOR(*make_snap(pts, (1, 1), "S"))
        assert (act.color, act.dest) == ("S", pt(1, 1))
        assert not act.inner_exec

    def test_s_m_mix_flips_m_in_place(self):
        pts = [((0, 0), "S"), ((2, 0), "M"), ((2, 2), "S"), ((0, 2), "S")]
        act = THREE_COLOR(*make_snap(pts, (0, 0), "S"))
        assert (act.color, act.dest) == ("M", pt(0, 0))

    def test_m_e_mix_flips_e_in_place(self):
        pts = [((0, 0), "M"), ((2, 0), "E"), ((2, 2), "M"), ((0, 2), "M")]
        act = THREE_COLOR(*make_snap(pts, (0, 0), "M"))
        assert (act.color, act.dest) == ("E", pt(0, 0))
        stay = THREE_COLOR(*make_snap(pts, (2, 0), "E"))
        assert (stay.color, stay.dest) == ("E", pt(2, 0))

    def test_e_s_mix_flips_s(self):
        pts = [((0, 0), "E"), ((2, 0), "S"), ((2, 2), "E"), ((0, 2), "E")]
        act = THREE_COLOR(*make_snap(pts, (0, 0), "E"))
        assert (act.color, act.dest) == ("S", pt(0, 0))

    def test_wrapper_preserves_inner_color_through_phases(self):
        pts = [((0, 0), "S.B"), ((2, 0), "M.A"), ((2, 2), "S.A"), ((0, 2), "S.A")]
        act = SIX_COLOR(*make_snap(pts, (0, 0), "S.B"))
        assert act.color == "M.B"

    def test_six_color_runs_inner_gatherer_once_collinear(self):
        pts = [((0, 0), "S.A"), ((2, 0), "S.A")]
        act = SIX_COLOR(*make_snap(pts, (0, 0), "S.A"))
        assert (act.color, act.dest) == ("M.B", pt(1, 0))
        assert act.inner_exec

    def test_six_color_wraps_line_election(self):
        pts = [((0, 0), "S.A"), ((2, 0), "S.A"), ((2, 2), "S.A"), ((0, 2), "S.A")]
        act = SIX_COLOR(*make_snap(pts, (0, 0), "S.A"))
        assert (act.color, act.dest) == ("M.A", pt(1, 1))

    def test_gathered_fixpoint(self):
        pts = [((1, 1), "S"), ((1, 1), "S")]
        act = THREE_COLOR(*make_snap(pts, (1, 1), "S"))
        assert (act.color, act.dest) == ("S", pt(1, 1))

    @pytest.mark.parametrize("alg", ["three-color", "six-color"])
    def test_robots_of_one_configuration_share_the_inner_view(self, alg, monkeypatch):
        color = get_algorithm(alg).initial
        pts = [((0, 0), color), ((6, 0), color), ((5, 2), color), ((1, 3), color)]
        cfg = make_config(pts)
        built = []
        recolor = Configuration.recolor

        def counting(self, mapper):
            built.append(recolor(self, mapper))
            return built[-1]

        monkeypatch.setattr(Configuration, "recolor", counting)
        spec = get_algorithm(alg)
        acts = [spec(cfg, p, c) for p, c in cfg.entries]
        assert len(built) == 1
        assert _inner_view(cfg) is built[0]
        monkeypatch.undo()
        fresh = [spec(make_config(pts), p, c) for p, c in cfg.entries]
        assert acts == fresh and any(a.inner_exec for a in acts)


# -- properties ---------------------------------------------------------------


def _random_view(rng, alg):
    """A random Look's (configuration, position, light) in ``alg``'s domain."""
    spec = get_algorithm(alg)
    n = rng.randint(2, 6)
    if spec.needs_onlds_start or rng.random() < 0.5:
        xs = [rng.randint(-10, 10) for _ in range(n)]
        pts = [(x, 0) for x in xs]
    else:
        pts = [(rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(n)]
    colors = [spec.colors[rng.randrange(len(spec.colors))] for _ in range(n)]
    k = rng.randrange(n)
    return make_snap(list(zip(pts, colors)), pts[k], colors[k])


@pytest.mark.parametrize("alg", ["elect-one-lds", "lu-gather", "lu-gather-async", "three-color", "six-color"])
def test_alphabet_discipline_and_statelessness(alg):
    rng = random.Random(zlib.crc32(alg.encode()) & 0xFFFF)
    spec = get_algorithm(alg)
    for _ in range(120):
        view = _random_view(rng, alg)
        a1 = spec(*view)
        a2 = spec(*view)
        assert a1 == a2
        assert a1.color in spec.colors


@pytest.mark.parametrize("alg", ["lu-gather-async"])
def test_alg5_total_on_switch_shapes(alg):
    """Every admissible switch shape yields an action without an unmatched case."""
    rng = random.Random(4242)
    spec = get_algorithm(alg)
    shapes = [("S",), ("S", "M"), ("M", "E"), ("M",), ("E",), ("S", "E"), ("S", "M", "E")]
    for _ in range(300):
        palette = shapes[rng.randrange(len(shapes))]
        n = rng.randint(1, 6)
        xs = [rng.randint(0, 12) for _ in range(n)]
        colors = [palette[rng.randrange(len(palette))] for _ in range(n)]
        for c in palette:  # ensure every palette color appears
            colors[rng.randrange(n)] = c if n >= len(palette) else colors[0]
        entries = [((x, 0), c) for x, c in zip(xs, colors)]
        k = rng.randrange(n)
        act = spec(*make_snap(entries, entries[k][0], entries[k][1]))
        assert act.color in spec.colors


def test_sim_wrapper_inner_enabled_test_matches_inner():
    inner_calls = []

    def fake_inner(cfg, pos, light):
        inner_calls.append((cfg, pos, light))
        return Action(light, pos)  # never enabled

    wrapped = sim_for_unfair(AlgorithmSpec("fake", ("O",), "O", fake_inner))
    pts = [((0, 0), "S"), ((2, 0), "S"), ((1, 5), "S")]
    act = wrapped(*make_snap(pts, (0, 0), "S"))
    assert (act.color, act.dest) == ("S", pt(0, 0))
    assert len(inner_calls) == 1
    assert inner_calls[0][2] == "O"  # phase stripped for the inner view


# -- compositions ---------------------------------------------------------------


@pytest.mark.parametrize("inner,k", [("lu-gather", 2), ("elect-one-lds", 1)])
def test_sim_takes_three_colors_per_inner_color(inner, k):
    """The paper's 3k: a one-color inner algorithm never changes a light."""
    spec = sim_for_unfair(get_algorithm(inner))
    assert len(spec.colors) == 3 * k
    assert spec.id == f"sim({inner})" and spec.inner is get_algorithm(inner)


def test_registered_composites_are_built_by_the_combinators():
    elect, lu = get_algorithm("elect-one-lds"), get_algorithm("lu-gather")
    six, three = get_algorithm("six-color"), get_algorithm("three-color")
    built_six = sim_for_unfair(then(elect, lu))
    built_three = then(sim_for_unfair(elect), get_algorithm("lu-gather-async"))
    assert six.inner.id == "then(elect-one-lds, lu-gather)" and three.inner is None
    for spec, built in ((six, built_six), (three, built_three)):
        fields = ("colors", "initial", "needs_onlds_start", "potential", "goal", "checks")
        assert [getattr(spec, f) for f in fields] == [getattr(built, f) for f in fields]
    assert six.colors == tuple(f"{p}.{i}" for p in "SME" for i in "AB")
    assert (six.initial, three.colors, three.initial) == ("S.A", ("S", "M", "E"), "S")


@pytest.mark.parametrize("inner", ["lu-gather", "elect-one-lds"])
def test_a_composition_with_no_registry_name_runs_and_checks(inner, monkeypatch):
    """sim(X) under ASYNC, registered by the test alone, passes its checks.

    ``cycle`` reads ``spec.inner``, not an algorithm name: it checks the
    color cycles of the whole run, although sim(lu-gather) starts on a line,
    and a run whose configuration changes has at least one.
    """
    spec = sim_for_unfair(get_algorithm(inner))
    monkeypatch.setitem(ALGORITHMS, spec.id, spec)
    goal = ["gather"] if inner == "lu-gather" else []
    assert default_checks(spec.id, "async") == ["replay", "cycle", "switch"] + goal
    for policy in POLICIES:
        summary = fuzz(
            spec.id, "async", 8, seed=5, n_range=(2, 5), bound=8, policy=policy, keep_traces=True
        )
        assert summary.ok, summary.failures
        for out in summary.outcomes:
            cycle = next(r for r in out.reports if r.check == "cycle-snapshot")
            changed = len(TraceData.of(out.trace).config_times) > 1
            assert (cycle.extras["cycles"] > 0) == changed
            assert TraceData.of(out.trace).status == ("gathered" if goal else "fixpoint")


def _records():
    """(record, its field values, other values for each field) for Action."""
    yield Action, ("M", pt(1, 0), True), {"color": "E", "dest": pt(2, 0), "inner_exec": False}


@pytest.mark.parametrize("cls,values,others", _records(), ids=["Action"])
def test_records_stay_frozen_dataclasses(cls, values, others):
    """``Action`` sets its slots in a hand-written ``__init__``; it stays
    immutable, compares and hashes by its fields and supports
    ``dataclasses.replace``."""
    rec = cls(*values)
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == list(others)
    assert [getattr(rec, name) for name in names] == list(values)
    assert rec == cls(**dict(zip(names, values)))
    assert hash(rec) == hash(cls(*values))
    for name, value in others.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, name)
        changed = dataclasses.replace(rec, **{name: value})
        assert getattr(changed, name) == value and changed != rec
        assert dataclasses.replace(changed, **{name: getattr(rec, name)}) == rec
    assert [getattr(rec, name) for name in names] == list(values)
    with pytest.raises((AttributeError, TypeError)):
        rec.label = "a"


def test_action_defaults_to_no_inner_execution():
    assert Action("S", pt(0, 0)) == Action("S", pt(0, 0), False)
    assert Action("S", pt(0, 0)).inner_exec is False
