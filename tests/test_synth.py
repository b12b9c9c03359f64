import gc
import math
import tracemalloc

import numpy as np
import pytest

from crossrisk.errors import InvalidSpec
from crossrisk.ingest import ObjectClass
from crossrisk.synth import (
    AgentScript,
    ScenarioSpec,
    _scripted_stop,
    _vehicle,
    analytic_psm,
    generate,
    standard_corpus,
    synthetic_spot_config,
    traffic_spec,
)
from crossrisk.tracker import TrackerParams, track_scene

from oracles import emitted_detections, random_crossing_spec, script_position


def _single_agent_spec(noise=0.0, drops=0.0, seed=0):
    config = synthetic_spot_config()
    agent = AgentScript("v0", ObjectClass.VEHICLE,
                        ((0.0, -20.0, -3.5), (5.0, 20.0, -3.5)))
    return ScenarioSpec(name="one", config=config, agents=(agent,),
                        noise_sigma=noise, drop_probability=drops, seed=seed)


def test_zero_noise_detections_equal_projected_path():
    spec = _single_agent_spec()
    records, truth = generate(spec)
    frames = truth.emitted_frames["v0"]
    assert [rec.frame_index for rec in records] == frames
    # The true world path seen through the camera: world -> pixel is the
    # inverse of the spot's pixel -> world homography.
    inv_h = np.linalg.inv(spec.config.build_calibration().homography)
    for rec, frame in zip(records, frames):
        x, y = script_position(spec.agents[0], frame / spec.config.fps)
        u, v, w = inv_h @ np.array([x, y, 1.0])
        assert rec.contact_point_px == pytest.approx((u / w, v / w), abs=1e-9)


def test_different_seeds_same_truth_different_noise():
    rec1, truth1 = generate(_single_agent_spec(noise=2.0, seed=1))
    rec2, truth2 = generate(_single_agent_spec(noise=2.0, seed=2))
    assert truth1 == truth2
    assert any(a.contact_point_px != b.contact_point_px
               for a, b in zip(rec1, rec2))


def test_same_seed_is_deterministic():
    rec1, _ = generate(_single_agent_spec(noise=2.0, drops=0.1, seed=9))
    rec2, _ = generate(_single_agent_spec(noise=2.0, drops=0.1, seed=9))
    assert list(rec1) == list(rec2)


def test_drops_remove_detections_but_not_truth():
    full, full_truth = generate(_single_agent_spec())
    dropped, truth = generate(_single_agent_spec(drops=0.3, seed=5))
    assert len(dropped) < len(full)
    emitted = truth.emitted_frames["v0"]
    assert [rec.frame_index for rec in dropped] == emitted
    assert set(emitted) < set(full_truth.emitted_frames["v0"])


@pytest.mark.parametrize("spec", [
    _single_agent_spec(noise=2.0, seed=3),
    _single_agent_spec(noise=1.0, drops=0.3, seed=5),
    *(spec for spec, _ in standard_corpus(noise_sigma=1.5,
                                          drop_probability=0.2, seed=4)
      if spec.name in ("occlusion_gap", "multi_pedestrian")),
    traffic_spec(12, seed=2),
], ids=lambda spec: spec.name)
def test_generate_equals_per_detection_reference(spec):
    """Noise, drops and blackouts (occlusion_gap): the same records, frames
    and provenance as emitting one detection at a time."""
    records, truth = generate(spec)
    expected, emitted, provenance = emitted_detections(spec)
    assert list(records) == expected
    assert truth.emitted_frames == emitted
    assert truth.provenance == provenance
    assert truth.provenance is truth.provenance     # derived once


def test_blackouts_and_drops_thin_the_emitted_frames():
    spec = next(spec for spec, _ in standard_corpus(drop_probability=0.2)
                if spec.name == "occlusion_gap")
    _, truth = generate(spec)
    fps, skip = spec.config.fps, spec.config.frame_skip
    emitted = truth.emitted_frames["v0"]
    assert not any(2.8 <= f / fps <= 3.9 for f in emitted)
    sampled = range(0, int(spec.agents[0].t_end * fps) + 1, skip)
    assert 0 < len(emitted) < len(sampled)
    assert set(emitted) < set(sampled)


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


def _standard_spec(name):
    return next(spec for spec, _ in standard_corpus() if spec.name == name)


def test_near_miss_scenario_in_riskiest_positive_range():
    vehicle, ped = _standard_spec("near_miss").agents
    psm = analytic_psm(vehicle, ped)
    assert psm is not None
    assert 0.0 < psm < 1.25


def test_vehicle_first_scenario_negative_psm():
    vehicle, ped = _standard_spec("vehicle_first").agents
    assert analytic_psm(vehicle, ped) == pytest.approx(-1.5, abs=1e-9)


def test_stop_and_go_scenario_stops_short_of_crosswalk():
    spec = _standard_spec("stop_and_go")
    crosswalk_min_x = min(x for x, _ in spec.config.crosswalk_polygon_world)
    assert _scripted_stop(spec.agents[0], crosswalk_min_x)
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


def test_agents_sharing_an_id_are_rejected():
    # Their detections would carry one id, so neither the emitted frames
    # nor the (frame, id) pairs of the stream could tell them apart.
    agents = (_vehicle("v0", 0.0, 8.0, -3.5), _vehicle("v0", 0.5, 8.0, 3.5))
    with pytest.raises(InvalidSpec, match="'v0'"):
        generate(ScenarioSpec(name="twins", config=synthetic_spot_config(),
                              agents=agents))


def test_waypoint_times_must_increase():
    with pytest.raises(InvalidSpec):
        AgentScript("v0", ObjectClass.VEHICLE,
                    ((1.0, 0.0, 0.0), (1.0, 5.0, 0.0)))


def _trajectory_rmse(spec):
    records, truth = generate(spec)
    scripts = {a.agent_id: a for a in spec.agents}
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
            true_world = script_position(scripts[agent], p.frame / config.fps)
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
        assert set(truth.emitted_frames) == {"v0", "v1"}
        assert all(truth.emitted_frames.values())
        a, b = spec.agents
        hit = analytic_psm(a, b)
        assert hit is not None          # the paths really cross


_SCRIPTS = {f"{spec.name}-{a.agent_id}": a
            for spec in [*(spec for spec, _ in standard_corpus()),
                         *(random_crossing_spec(i, seed=1) for i in range(3))]
            for a in spec.agents}


@pytest.mark.parametrize("script", _SCRIPTS.values(), ids=_SCRIPTS.keys())
def test_world_at_is_the_leg_by_leg_interpolation(script):
    """At every waypoint and inside every leg, to 1e-12 m."""
    wps = script.waypoints
    times = [w[0] for w in wps] + [
        t0 + f * (t1 - t0) for (t0, _, _), (t1, _, _) in zip(wps, wps[1:])
        for f in (0.1, 0.5, 0.93)]
    xs, ys = script.world_at(np.array(times))
    for t, x, y in zip(times, xs.tolist(), ys.tolist()):
        ex, ey = script_position(script, t)
        assert abs(x - ex) <= 1e-12 and abs(y - ey) <= 1e-12, t


def test_speed_list_kmh_is_the_leg_speed():
    """single_pass drives one leg at 8 m/s: 28.8 km/h between any frames."""
    spec, truth = next((s, t) for s, t in standard_corpus()
                       if s.name == "single_pass")
    frames = truth.emitted_frames["v0"]
    for subset in (frames, frames[::3]):
        speeds = spec.agents[0].speed_list_kmh(subset, spec.config.fps)
        assert len(speeds) == len(subset) - 1
        for speed in speeds:
            assert abs(speed - 28.8) <= 1e-9 * 28.8


def test_traffic_spec_scales_with_scene_count():
    small, _ = generate(traffic_spec(5, seed=1))
    large, _ = generate(traffic_spec(15, seed=1))
    assert len(large) > len(small) > 0


def test_generate_peaks_at_most_128_bytes_an_emitted_detection():
    """The truth holds each emitted frame once, in one int64 column, and
    each numpy column goes once copied into the table: the table (40
    bytes a detection), the truth's 8 and the sort's transient columns."""
    spec = traffic_spec(300)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        records, _ = generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - before) / len(records) <= 128
