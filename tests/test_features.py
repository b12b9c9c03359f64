import json
import math
from dataclasses import replace

import numpy as np
import pytest

from crossrisk.errors import (
    MalformedRecord,
    NoConflict,
    ZeroHeading,
)
from crossrisk.features import (
    ACC,
    BEHIND,
    FRONT,
    NC,
    FeatureParams,
    PedestrianZone,
    SpotZones,
    VehicleZone,
    acceleration_list,
    cia_polygon,
    classify_zones,
    collapse_runs,
    extract_scene_features,
    low_pass,
    psm,
    speed_list,
    stop_window,
    vehicle_zones,
)
from crossrisk.geometry import Calibration
from crossrisk.ingest import ObjectClass, spot_config_to_dict
from crossrisk.stages import load_spot_config
from crossrisk.synth import synthetic_spot_config

from oracles import (
    dense_psm_oracle,
    make_traj,
    polygon_boundary_distance,
    random_crossing_trajectories,
    scan_psm,
)

FPS = 25.0
SKIP = 5
F = SKIP / FPS  # 0.2 s per sampled step

# `make_traj` gives each point its world position as its smoothed pixel,
# so through the identity homography the headings follow the world path.
IDENTITY = Calibration(np.eye(3))


def _steps(n):
    return [k * SKIP for k in range(n)]


def _approach(speeds):
    """Vehicle zones that keep every speed: all points before the crosswalk."""
    return [VehicleZone.BEFORE] * (len(speeds) + 1)


def _pair_features(veh, ped, config):
    """The scene features of one vehicle and one pedestrian."""
    return extract_scene_features("s0", veh, [ped], SpotZones(config), IDENTITY)


# --- speeds -------------------------------------------------------------------


def test_speed_at_fixed_scale():
    # Eq-style check: 64 px at 64 px/m over 0.2 s is 5 m/s, i.e. 18 km/h.
    p = 64.0
    px_points = [(64.0 * k, 0.0) for k in range(4)]
    world = [(x / p, y / p) for x, y in px_points]
    traj = make_traj("v", ObjectClass.VEHICLE, _steps(4), world, fps=FPS)
    assert speed_list(traj) == pytest.approx([18.0, 18.0, 18.0])


def test_speed_stationary_is_zero():
    traj = make_traj("v", ObjectClass.VEHICLE, _steps(5), [(3.0, 4.0)] * 5)
    assert speed_list(traj) == pytest.approx([0.0] * 4)


def test_speed_list_length():
    traj = make_traj("v", ObjectClass.VEHICLE, _steps(3),
                     [(0, 0), (1, 0), (2, 0)])
    assert len(speed_list(traj)) == 2


def test_speed_too_short():
    traj = make_traj("v", ObjectClass.VEHICLE, [0], [(0, 0)])
    assert speed_list(traj) == []


def test_speed_reversal_symmetry():
    rng = np.random.default_rng(2)
    world = rng.uniform(-10, 10, (12, 2))
    fwd = make_traj("v", ObjectClass.VEHICLE, _steps(12), world)
    rev = make_traj("v", ObjectClass.VEHICLE, _steps(12), world[::-1])
    assert speed_list(rev) == pytest.approx(speed_list(fwd)[::-1])


# --- low-pass filter ----------------------------------------------------------


def test_low_pass_alpha_one_is_identity():
    x = [3.0, 1.0, 4.0, 1.0, 5.0]
    assert low_pass(x, 1.0) == pytest.approx(x)


def test_low_pass_constant_unchanged():
    assert low_pass([7.0] * 6, 0.3) == pytest.approx([7.0] * 6)


def test_low_pass_impulse_decays_geometrically():
    out = low_pass([0.0, 1.0, 0.0, 0.0, 0.0], 0.5)
    assert out == pytest.approx([0.0, 0.5, 0.25, 0.125, 0.0625])


# --- acceleration states --------------------------------------------------------


def test_acceleration_rising_speeds():
    speeds = [10.0, 12.0, 14.0, 16.0]
    states = acceleration_list(speeds, 0.5, _approach(speeds))
    assert states == [ACC, ACC, ACC]
    assert collapse_runs(states) == [ACC]


def test_acceleration_constant_is_nc():
    assert acceleration_list([10.0] * 5, 0.5, _approach([10.0] * 5)) == [NC] * 4


def test_acceleration_dead_band():
    eps = 1.0
    speeds = [10.0, 10.5, 11.0, 11.5]     # steps of +0.5 * eps
    assert acceleration_list(speeds, eps, _approach(speeds)) == [NC, NC, NC]


def test_acceleration_run_collapse_shape():
    speeds = [10.0, 12.0, 12.1, 14.0]
    states = acceleration_list(speeds, 0.5, _approach(speeds))
    assert states == [ACC, NC, ACC]
    assert collapse_runs([ACC, ACC, NC, NC, ACC]) == [ACC, NC, ACC]


def test_acceleration_restricted_to_before_crosswalk():
    speeds = [10.0, 12.0, 14.0, 16.0, 18.0]
    zones = [VehicleZone.BEFORE] * 3 + [VehicleZone.ON] * 2 + [VehicleZone.AFTER]
    limited = acceleration_list(speeds, 0.5, zones)
    assert limited == [ACC, ACC]          # only the 3 approach speeds used


def test_acceleration_shift_invariance():
    rng = np.random.default_rng(8)
    speeds = list(rng.uniform(5, 30, 15))
    zones = _approach(speeds)
    base = acceleration_list(low_pass(speeds, 0.3), 0.5, zones)
    shifted = acceleration_list(low_pass([s + 11.7 for s in speeds], 0.3), 0.5,
                                zones)
    assert base == shifted


def test_acceleration_too_short():
    assert acceleration_list([10.0], 0.5, _approach([10.0])) == []


# --- zones ----------------------------------------------------------------------


@pytest.fixture
def config():
    return synthetic_spot_config()


def test_vehicle_zone_ordering(config):
    xs = [-10.0, -4.0, -1.0, 0.0, 1.0, 4.0, 10.0]
    traj = make_traj("v", ObjectClass.VEHICLE, _steps(len(xs)),
                     [(x, -3.5) for x in xs])
    zones, _ = vehicle_zones(traj, SpotZones(config))
    assert zones == [VehicleZone.BEFORE, VehicleZone.BEFORE, VehicleZone.ON,
                     VehicleZone.ON, VehicleZone.ON, VehicleZone.AFTER,
                     VehicleZone.AFTER]


def test_pedestrian_zone_sequence(config):
    # Sidewalk -> crosswalk -> CIA (1 m off the crosswalk edge, on the
    # road) -> road (past the 3 m buffer).
    pts = [(0.0, 9.0), (0.0, 5.0), (3.0, 0.0), (6.0, 0.0)]
    traj = make_traj("p", ObjectClass.PEDESTRIAN, _steps(len(pts)), pts)
    zones = classify_zones(traj, SpotZones(config))
    assert zones == [PedestrianZone.SIDEWALK, PedestrianZone.CROSSWALK,
                     PedestrianZone.CIA, PedestrianZone.ROAD]


def test_pedestrian_all_crosswalk(config):
    traj = make_traj("p", ObjectClass.PEDESTRIAN, _steps(3),
                     [(0.0, -5.0), (0.0, 0.0), (0.0, 5.0)])
    assert classify_zones(traj, SpotZones(config)) == [PedestrianZone.CROSSWALK] * 3


def test_missing_polygons(config, tmp_path):
    # A spot without a crosswalk polygon is rejected when its config is
    # read, before any zone is classified.
    doc = spot_config_to_dict(replace(config, crosswalk_polygon_world=[]))
    (tmp_path / "config.json").write_text(json.dumps(doc))
    with pytest.raises(MalformedRecord,
                       match="crosswalk_polygon_world needs at least 3"):
        load_spot_config(tmp_path)


def test_cia_polygon_extends_along_road(config):
    # 2 m past the crosswalk edge, then past the 3 m buffer.
    traj = make_traj("p", ObjectClass.PEDESTRIAN, _steps(2),
                     [(4.0, 0.0), (6.0, 0.0)])
    assert classify_zones(traj, SpotZones(config)) == [PedestrianZone.CIA,
                                                       PedestrianZone.ROAD]


def test_zone_stability_under_small_perturbation(config):
    rng = np.random.default_rng(12)
    polygons = [config.crosswalk_polygon_world, cia_polygon(config),
                *config.sidewalk_polygons_world]
    kept = []
    while len(kept) < 40:
        p = (rng.uniform(-25, 25), rng.uniform(-10.5, 10.5))
        if min(polygon_boundary_distance(p, poly) for poly in polygons) >= 0.1:
            kept.append(p)
    base = classify_zones(
        make_traj("p", ObjectClass.PEDESTRIAN, _steps(len(kept)), kept),
        SpotZones(config))
    for _ in range(5):
        jitter = rng.uniform(-0.01, 0.01, (len(kept), 2))
        moved = [(x + dx, y + dy) for (x, y), (dx, dy) in zip(kept, jitter)]
        again = classify_zones(
            make_traj("p", ObjectClass.PEDESTRIAN, _steps(len(moved)), moved),
            SpotZones(config))
        assert again == base


# --- stop detection --------------------------------------------------------------


def test_stop_detected_before_crosswalk():
    speeds = [20.0, 10.0, 0.5, 0.5, 0.5, 0.5, 15.0]
    zones = [VehicleZone.BEFORE] * 7 + [VehicleZone.ON]
    stopped, window = stop_window(speeds, zones, tolerance_kmh=2.0,
                                  min_steps=3)
    assert stopped
    assert window == [2, 3, 4, 5]


def test_no_stop_when_never_below_tolerance():
    speeds = [20.0, 10.0, 5.0, 5.0, 5.0, 15.0]
    zones = [VehicleZone.BEFORE] * 7
    assert not stop_window(speeds, zones, tolerance_kmh=2.0, min_steps=3)[0]


def test_stop_after_crosswalk_does_not_count():
    speeds = [20.0, 20.0, 0.5, 0.5, 0.5, 0.5]
    zones = [VehicleZone.BEFORE, VehicleZone.ON, VehicleZone.AFTER,
             VehicleZone.AFTER, VehicleZone.AFTER, VehicleZone.AFTER,
             VehicleZone.AFTER]
    assert not stop_window(speeds, zones, tolerance_kmh=2.0, min_steps=3)[0]


# --- distances --------------------------------------------------------------------


def test_pairwise_distance_three_four_five(config):
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(2), [(0, 0), (1, 0)])
    ped = make_traj("p", ObjectClass.PEDESTRIAN, _steps(2), [(3, 4), (4, 4)])
    dists = _pair_features(veh, ped, config).distances_m
    assert dists == pytest.approx([5.0, 5.0])


def test_pairwise_distance_coincident(config):
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(2), [(1, 1), (2, 1)])
    ped = make_traj("p", ObjectClass.PEDESTRIAN, _steps(2), [(1, 1), (2, 1)])
    dists = _pair_features(veh, ped, config).distances_m
    assert dists == pytest.approx([0.0, 0.0])


def test_pairwise_distance_monotone_approach(config):
    # Straight-line approach toward a standing pedestrian.
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(8),
                    [(-20.0 + 2.0 * k, 0.0) for k in range(8)])
    ped = make_traj("p", ObjectClass.PEDESTRIAN, _steps(8), [(0.0, 1.0)] * 8)
    dists = _pair_features(veh, ped, config).distances_m
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_pairwise_distance_no_overlap(config):
    # Tracks that share no frame make a car-only scene.
    veh = make_traj("v", ObjectClass.VEHICLE, [0, 5], [(0, 0), (1, 0)])
    ped = make_traj("p", ObjectClass.PEDESTRIAN, [50, 55], [(0, 0), (1, 0)])
    bundle = _pair_features(veh, ped, config)
    assert not bundle.interactive
    assert bundle.distances_m == []
    assert bundle.relative_positions == []


def test_crosswalk_distance(config):
    traj = make_traj("v", ObjectClass.VEHICLE, _steps(3),
                     [(-6.0, -3.5), (-4.0, -3.5), (0.0, -3.5)])
    _, dists = vehicle_zones(traj, SpotZones(config))
    assert dists == pytest.approx([4.0, 2.0, 0.0])


# --- relative positions --------------------------------------------------------------


def test_pedestrian_along_heading_is_front(config):
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(3),
                    [(0, 0), (1, 0), (2, 0)])
    ped = make_traj("p", ObjectClass.PEDESTRIAN, _steps(3),
                    [(10, 0), (10, 0), (10, 0)])
    assert _pair_features(veh, ped, config).relative_positions == [FRONT] * 3


def test_pedestrian_opposite_heading_is_behind(config):
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(3),
                    [(0, 0), (1, 0), (2, 0)])
    ped = make_traj("p", ObjectClass.PEDESTRIAN, _steps(3),
                    [(-10, 0), (-10, 0), (-10, 0)])
    assert _pair_features(veh, ped, config).relative_positions == [BEHIND] * 3


def test_pass_by_single_front_to_behind_transition(config):
    n = 10
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(n),
                    [(-8.0 + 2.0 * k, 0.0) for k in range(n)])
    ped = make_traj("p", ObjectClass.PEDESTRIAN, _steps(n), [(0.0, 1.0)] * n)
    rel = _pair_features(veh, ped, config).relative_positions
    flips = sum(1 for a, b in zip(rel, rel[1:]) if a != b)
    assert flips == 1
    assert rel[0] == FRONT and rel[-1] == BEHIND


def test_stationary_vehicle_carries_last_heading(config):
    world = [(0, 0), (1, 0), (2, 0), (2, 0), (2, 0)]
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(5), world)
    ped = make_traj("p", ObjectClass.PEDESTRIAN, _steps(5), [(10, 0)] * 5)
    assert _pair_features(veh, ped, config).relative_positions == [FRONT] * 5


def test_never_moving_vehicle_raises_zero_heading(config):
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(3), [(0, 0)] * 3)
    ped = make_traj("p", ObjectClass.PEDESTRIAN, _steps(3), [(1, 0)] * 3)
    with pytest.raises(ZeroHeading):
        _pair_features(veh, ped, config)


# --- PSM ------------------------------------------------------------------------------


def _psm_pair(t_ped_cross, t_veh_cross, fps=10.0):
    """Vehicle along y=0 (+x, 5 m/s), pedestrian along x=0 (-y, 1 m/s),
    conflict at the origin at the given crossing times. Sampled every
    frame at 10 FPS, so steps start on multiples of 0.1 s."""
    ped_frames = [int((t_ped_cross - 0.55) * fps) + k for k in range(11)]
    ped = make_traj("p", ObjectClass.PEDESTRIAN, ped_frames,
                    [(0.0, t_ped_cross - f / fps) for f in ped_frames], fps=fps)
    veh_frames = [int((t_veh_cross - 0.55) * fps) + k for k in range(11)]
    veh = make_traj("v", ObjectClass.VEHICLE, veh_frames,
                    [(5.0 * (f / fps - t_veh_cross), 0.0) for f in veh_frames],
                    fps=fps)
    return veh, ped


def test_psm_pedestrian_first_positive():
    # Pedestrian crosses the conflict point at 2.05 s (step starting 2.0),
    # the vehicle at 5.25 s (step starting 5.2): margin +3.2 s.
    veh, ped = _psm_pair(2.05, 5.25)
    value = psm(veh, ped)
    assert value.seconds == pytest.approx(3.2)
    assert value.seconds_refined == pytest.approx(3.2)


def test_psm_vehicle_first_negative():
    # Vehicle arrives in the step starting 2.0 s, the pedestrian in the
    # step starting 3.5 s: margin -1.5 s.
    veh, ped = _psm_pair(3.55, 2.05)
    value = psm(veh, ped)
    assert value.seconds == pytest.approx(-1.5)
    assert value.seconds_refined == pytest.approx(-1.5)


def test_psm_perpendicular_matches_analytic_within_one_step():
    rng = np.random.default_rng(21)
    step = 0.1
    for _ in range(20):
        t_ped = rng.uniform(1.0, 3.0)
        t_veh = t_ped + rng.uniform(-2.0, 2.0)
        veh, ped = _psm_pair(t_ped, t_veh)
        value = psm(veh, ped)
        assert abs(value.seconds - (t_veh - t_ped)) <= step + 1e-12
        assert value.seconds_refined == pytest.approx(t_veh - t_ped, abs=1e-9)


def test_psm_sign_swap_preserves_magnitude():
    rng = np.random.default_rng(22)
    for _ in range(10):
        t_ped = rng.uniform(1.0, 2.0)
        t_veh = t_ped + rng.uniform(0.5, 2.0)
        early_ped = psm(*_psm_pair(t_ped, t_veh))
        early_veh = psm(*_psm_pair(t_veh, t_ped))
        assert early_ped.seconds_refined == pytest.approx(
            -early_veh.seconds_refined, abs=1e-9)
        assert early_ped.seconds > 0 > early_veh.seconds


def test_psm_no_conflict_on_parallel_paths():
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(5),
                    [(k, 0.0) for k in range(5)])
    ped = make_traj("p", ObjectClass.PEDESTRIAN, _steps(5),
                    [(k, 5.0) for k in range(5)])
    with pytest.raises(NoConflict):
        psm(veh, ped)


def test_psm_too_short():
    veh = make_traj("v", ObjectClass.VEHICLE, [0], [(0, 0)])
    ped = make_traj("p", ObjectClass.PEDESTRIAN, _steps(3),
                    [(0, k) for k in range(3)])
    with pytest.raises(NoConflict):
        psm(veh, ped)


def test_psm_matches_dense_oracle_on_random_crossings():
    rng = np.random.default_rng(23)
    for _ in range(50):
        veh, ped, step = random_crossing_trajectories(rng)
        oracle = dense_psm_oracle(veh, ped)
        assert oracle is not None
        value = psm(veh, ped)
        assert abs(value.seconds - oracle) <= step + 1e-9


def _psm_or_none(scan, veh, ped):
    try:
        return scan(veh, ped)
    except NoConflict:
        return None


def _wander(rng, object_id, object_class, n, step_m, start):
    """A random walk of n samples: a path that turns, so a vehicle step
    may cross the lines of many of its steps."""
    xy = start + np.cumsum(rng.normal(0.0, step_m, (n, 2)), axis=0)
    first = int(rng.integers(0, 20)) * 5
    return make_traj(object_id, object_class, first + 5 * np.arange(n), xy)


def test_psm_equals_the_scalar_scan_bit_for_bit():
    rng = np.random.default_rng(24)
    found = 0
    for _ in range(200):
        veh, ped, _ = random_crossing_trajectories(rng)
        assert psm(veh, ped) == scan_psm(veh, ped)
        veh = _wander(rng, "v", ObjectClass.VEHICLE, int(rng.integers(2, 40)),
                      1.5, rng.uniform(-3, 3, 2))
        ped = _wander(rng, "p", ObjectClass.PEDESTRIAN,
                      int(rng.integers(2, 60)), 0.4, rng.uniform(-3, 3, 2))
        expected = _psm_or_none(scan_psm, veh, ped)
        assert _psm_or_none(psm, veh, ped) == expected
        found += expected is not None
    assert 20 < found < 180


def _line(object_id, object_class, points):
    return make_traj(object_id, object_class, _steps(len(points)), points)


@pytest.mark.parametrize("vehicle, pedestrian, conflict", [
    # A vehicle sample exactly on the pedestrian's line.
    ([(-2.0, 1.0), (0.0, 1.0), (2.0, 1.0)], [(0.0, 3.0), (0.0, 0.0),
                                             (0.0, -3.0)], True),
    # Collinear steps: the vehicle drives along the pedestrian's line.
    ([(0.0, 4.0), (0.0, 1.0), (0.0, -2.0)], [(0.0, 3.0), (0.0, 0.0),
                                             (0.0, -3.0)], False),
    # Collinear, then leaving the line on the other side of its end.
    ([(0.0, 4.0), (0.0, 3.5), (1.0, 3.5)], [(0.0, 3.0), (0.0, 0.0),
                                            (0.0, -3.0)], False),
    # Boxes that touch at one point: the vehicle stops where the
    # pedestrian sets out.
    ([(-4.0, 0.0), (-2.0, 0.0), (0.0, 0.0)], [(0.0, 0.0), (0.0, -1.5),
                                              (0.0, -3.0)], True),
    # Boxes apart by less than the pad: the hit lies within the scan's
    # 1e-9 tolerance past the pedestrian's last step.
    ([(-4.0, -3.0 - 1e-9), (4.0, -3.0 - 1e-9)], [(0.0, 3.0), (0.0, 0.0),
                                                 (0.0, -3.0)], True),
])
def test_psm_edge_cases_equal_the_scalar_scan(vehicle, pedestrian, conflict):
    veh = _line("v", ObjectClass.VEHICLE, vehicle)
    ped = _line("p", ObjectClass.PEDESTRIAN, pedestrian)
    expected = _psm_or_none(scan_psm, veh, ped)
    assert (expected is not None) == conflict
    assert _psm_or_none(psm, veh, ped) == expected


# --- the full bundle --------------------------------------------------------------------


def test_extract_car_only_scene(config):
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(10),
                    [(-20.0 + 3.0 * k, -3.5) for k in range(10)])
    bundle = extract_scene_features("s0", veh, [], SpotZones(config),
                                    IDENTITY)
    assert not bundle.interactive
    assert bundle.pedestrians == {}
    assert bundle.distances_m == []
    assert bundle.relative_positions == []
    assert bundle.psm_seconds is None
    assert len(bundle.vehicle_speeds_kmh) == 9
    assert bundle.vehicle_zones[0] is VehicleZone.BEFORE


def test_extract_interactive_scene_consistency(config):
    n = 20
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(n),
                    [(-20.0 + 2.0 * k, -3.5) for k in range(n)])
    ped = make_traj("p", ObjectClass.PEDESTRIAN, _steps(n),
                    [(0.0, 8.0 - 0.8 * k) for k in range(n)])
    bundle = extract_scene_features("s0", veh, [ped], SpotZones(config),
                                    IDENTITY, FeatureParams())
    assert bundle.interactive
    assert len(bundle.vehicle_speeds_kmh) == n - 1
    assert len(bundle.vehicle_zones) == n
    assert len(bundle.crosswalk_distances_m) == n
    assert len(bundle.distances_m) == n          # full overlap
    # The vehicle passes x = 0, the pedestrian's line, at step 10.
    assert bundle.relative_positions == [FRONT] * 11 + [BEHIND] * 9
    speeds, zones = bundle.pedestrians["p"]
    assert len(speeds) == n - 1 and len(zones) == n
    assert zones[0] is PedestrianZone.SIDEWALK
    assert bundle.psm_seconds is not None
    assert bundle.ped_in_crossing_area


def test_extract_two_pedestrians_nearest_per_frame(config):
    n = 12
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(n),
                    [(-10.0 + 2.0 * k, -3.5) for k in range(n)])
    near = make_traj("p0", ObjectClass.PEDESTRIAN, _steps(n),
                     [(0.0, -1.0)] * n)
    far = make_traj("p1", ObjectClass.PEDESTRIAN, _steps(n),
                    [(0.0, 8.0)] * n)
    bundle = extract_scene_features("s0", veh, [far, near],
                                    SpotZones(config), IDENTITY)
    # Brute-force nearest distance per frame.
    expected = []
    for k in range(n):
        vw = veh.points[k].world
        expected.append(min(math.dist(vw, near.points[k].world),
                            math.dist(vw, far.points[k].world)))
    assert bundle.distances_m == pytest.approx(expected)
    # `near` is nearest in every frame; the vehicle passes it at step 5.
    assert bundle.relative_positions == [FRONT] * 6 + [BEHIND] * 6


def test_extract_stop_metadata(config):
    # Approach, hold 4 steps at 4 m short of the crosswalk, then go.
    xs = [-20.0, -15.0, -10.0, -6.0] + [-6.0] * 4 + [0.0, 6.0, 12.0]
    veh = make_traj("v", ObjectClass.VEHICLE, _steps(len(xs)),
                    [(x, -3.5) for x in xs])
    bundle = extract_scene_features("s0", veh, [], SpotZones(config),
                                    IDENTITY)
    assert bundle.stopped
    assert bundle.stop_distance_m == pytest.approx(4.0)
