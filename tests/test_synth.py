import math

import numpy as np
import pytest

from crossrisk.errors import InvalidSpec
from crossrisk.ingest import ObjectClass
from crossrisk.synth import (
    AgentScript,
    ScenarioSpec,
    analytic_psm,
    generate,
    random_crossing_spec,
    standard_corpus,
    synthetic_spot_config,
    traffic_spec,
)
from crossrisk.tracker import TrackerParams, track_scene


def _single_agent_spec(noise=0.0, drops=0.0, seed=0):
    config = synthetic_spot_config()
    agent = AgentScript("v0", ObjectClass.VEHICLE,
                        ((0.0, -20.0, -3.5), (5.0, 20.0, -3.5)))
    return ScenarioSpec(name="one", config=config, agents=(agent,),
                        noise_sigma=noise, drop_probability=drops, seed=seed)


def test_zero_noise_detections_equal_projected_path():
    records, truth = generate(_single_agent_spec())
    track = truth.tracks["v0"]
    assert len(records) == len(track.frames)
    for rec, expected in zip(records, track.pixel):
        assert rec.contact_point_px == pytest.approx(expected, abs=1e-9)


def test_different_seeds_same_truth_different_noise():
    rec1, truth1 = generate(_single_agent_spec(noise=2.0, seed=1))
    rec2, truth2 = generate(_single_agent_spec(noise=2.0, seed=2))
    assert truth1.tracks["v0"].world == truth2.tracks["v0"].world
    assert any(a.contact_point_px != b.contact_point_px
               for a, b in zip(rec1, rec2))


def test_same_seed_is_deterministic():
    rec1, _ = generate(_single_agent_spec(noise=2.0, drops=0.1, seed=9))
    rec2, _ = generate(_single_agent_spec(noise=2.0, drops=0.1, seed=9))
    assert rec1 == rec2


def test_drops_remove_detections_but_not_truth():
    full, _ = generate(_single_agent_spec())
    dropped, truth = generate(_single_agent_spec(drops=0.3, seed=5))
    assert len(dropped) < len(full)
    assert len(truth.tracks["v0"].frames) == len(full)


def test_analytic_psm_crossing_example():
    # Vehicle eastbound at 5 m/s, pedestrian southbound at 1.4 m/s, paths
    # meeting at the origin with the pedestrian arriving 2 s earlier.
    vehicle = AgentScript("v", ObjectClass.VEHICLE,
                          ((0.0, -20.0, 0.0), (8.0, 20.0, 0.0)))
    # Vehicle hits origin at t=4; pedestrian must hit it at t=2.
    start_y = 1.4 * 2.0
    ped = AgentScript("p", ObjectClass.PEDESTRIAN,
                      ((0.0, 0.0, start_y), (10.0, 0.0, start_y - 14.0)))
    assert analytic_psm(vehicle, ped) == pytest.approx(2.0)


def test_analytic_psm_none_for_parallel_paths():
    vehicle = AgentScript("v", ObjectClass.VEHICLE,
                          ((0.0, -20.0, 0.0), (8.0, 20.0, 0.0)))
    ped = AgentScript("p", ObjectClass.PEDESTRIAN,
                      ((0.0, -20.0, 5.0), (8.0, 20.0, 5.0)))
    assert analytic_psm(vehicle, ped) is None


def test_standard_corpus_has_eight_named_scenarios():
    corpus = standard_corpus()
    assert len(corpus) == 8
    names = [spec.name for spec, _ in corpus]
    assert len(set(names)) == 8


def test_near_miss_scenario_in_riskiest_positive_range():
    truth = dict((spec.name, t) for spec, t in standard_corpus())["near_miss"]
    assert truth.psm_seconds is not None
    assert 0.0 < truth.psm_seconds < 1.25


def test_vehicle_first_scenario_negative_psm():
    truth = dict((spec.name, t) for spec, t in standard_corpus())["vehicle_first"]
    assert truth.psm_seconds == pytest.approx(-1.5, abs=1e-9)


def test_stop_and_go_scenario_stops_short_of_crosswalk():
    by_name = {spec.name: (spec, t) for spec, t in standard_corpus()}
    spec, truth = by_name["stop_and_go"]
    assert truth.stopped
    # The scripted hold is at x=-6, four meters short of the crosswalk edge.
    hold = [w for w in spec.agents[0].waypoints if w[1] == -6.0]
    assert len(hold) >= 2
    assert abs(hold[0][1]) - 2.0 < 10.0


def test_scenario_outside_frame_is_rejected():
    config = synthetic_spot_config()
    agent = AgentScript("v0", ObjectClass.VEHICLE,
                        ((0.0, -200.0, 0.0), (5.0, 200.0, 0.0)))
    with pytest.raises(InvalidSpec):
        generate(ScenarioSpec(name="bad", config=config, agents=(agent,)))


def test_waypoint_times_must_increase():
    with pytest.raises(InvalidSpec):
        AgentScript("v0", ObjectClass.VEHICLE,
                    ((1.0, 0.0, 0.0), (1.0, 5.0, 0.0)))


def _trajectory_rmse(spec):
    records, truth = generate(spec)
    config = spec.config
    calib = config.build_calibration()
    trajs = track_scene(records, TrackerParams(), calib, fps=config.fps,
                        frame_stride=config.frame_skip)
    errs = []
    for traj in trajs:
        for p in traj.points:
            agent = truth.provenance.get((p.frame, p.detection_id))
            if agent is None:
                continue
            true_world = truth.tracks[agent].world_at(p.frame)
            errs.append(math.dist(p.world, true_world) ** 2)
    return math.sqrt(np.mean(errs))


def test_pipeline_error_monotone_in_noise():
    rmse = []
    for sigma in (0.0, 1.0, 3.0):
        per_scene = []
        for i, (spec, _) in enumerate(standard_corpus()):
            noisy = ScenarioSpec(name=spec.name, config=spec.config,
                                 agents=spec.agents, noise_sigma=sigma,
                                 drop_probability=0.0, seed=100 + i)
            per_scene.append(_trajectory_rmse(noisy))
        rmse.append(np.mean(per_scene))
    assert rmse[0] <= rmse[1] <= rmse[2]
    assert rmse[0] < 1e-9


def test_random_crossing_specs_have_two_crossing_vehicles():
    for i in range(5):
        spec = random_crossing_spec(i, seed=1)
        assert len(spec.agents) == 2
        records, truth = generate(spec)
        assert set(truth.tracks) == {"v0", "v1"}
        a, b = spec.agents
        hit = analytic_psm(a, b)
        assert hit is not None          # the paths really cross


def test_traffic_spec_scales_with_scene_count():
    small, _ = generate(traffic_spec(5, seed=1))
    large, _ = generate(traffic_spec(15, seed=1))
    assert len(large) > len(small) > 0
