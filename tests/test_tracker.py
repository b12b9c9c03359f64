import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossrisk import synth
from crossrisk.geometry import Calibration
from crossrisk.ingest import ObjectClass
from crossrisk.tracker import (
    TrackerParams,
    TrackPoint,
    assign,
    kalman_predict,
    kalman_update,
    new_track,
    summarize_validations,
    track_scene,
    validate_trajectories,
)

from oracles import (
    brute_force_matching,
    dense_kalman_predict,
    dense_kalman_update,
    make_detection,
    make_traj,
    random_crossing_spec,
)

PARAMS = TrackerParams()
FLAT = Calibration(np.eye(3))


def _track_at(x, y):
    return new_track("t", make_detection(0, ObjectClass.VEHICLE, x, y, "d0"),
                     PARAMS)


def test_default_gates_match_validated_thresholds():
    assert PARAMS.gate_threshold_vehicle == 60.0
    assert PARAMS.gate_threshold_pedestrian == 20.0


def test_predict_constant_velocity():
    state = _track_at(0.0, 0.0)
    state.vx, state.vy = 1.0, 0.0
    out = kalman_predict(state, process_noise=0.0)
    assert np.allclose(out.state_mean, [1.0, 0.0, 1.0, 0.0])


def test_predict_zero_velocity_keeps_position():
    state = _track_at(7.0, 9.0)
    out = kalman_predict(state, process_noise=0.0)
    assert (out.x, out.y) == pytest.approx((7.0, 9.0))


def test_predict_grows_covariance_trace():
    state = _track_at(0.0, 0.0)
    out = kalman_predict(state, process_noise=1.0)
    assert np.trace(out.state_covariance) > np.trace(state.state_covariance)


def test_update_zero_innovation_keeps_mean():
    state = _track_at(5.0, 5.0)
    state = kalman_predict(state, 1.0)
    before = state.state_mean.copy()
    out = kalman_update(state, tuple(before[:2]), measurement_noise=2.0)
    assert np.allclose(out.state_mean, before)
    assert np.trace(out.state_covariance) <= np.trace(state.state_covariance) + 1e-12


def test_update_limits():
    state = _track_at(0.0, 0.0)
    state = kalman_predict(state, 1.0)
    huge = kalman_update(state, (50.0, 50.0), measurement_noise=1e15)
    assert np.allclose(huge.state_mean, state.state_mean, atol=1e-6)
    tiny = kalman_update(state, (50.0, 50.0), measurement_noise=1e-12)
    assert (tiny.x, tiny.y) == pytest.approx((50.0, 50.0), abs=1e-6)


def test_velocity_converges_on_clean_input():
    state = _track_at(0.0, 0.0)
    for k in range(1, 21):
        state = kalman_predict(state, PARAMS.process_noise)
        state = kalman_update(state, (3.0 * k, 2.0 * k), PARAMS.measurement_noise)
    assert (state.vx, state.vy) == pytest.approx((3.0, 2.0), abs=1e-6)


# Entries of the 4x4 covariance that couple the x and y axes.
_OFF_BLOCK = [(i, j) for i in range(4) for j in range(4) if (i - j) % 2]

_coordinate = st.floats(-1000.0, 1000.0)
_step = st.tuples(
    st.floats(0.1, 5.0),                                   # process noise
    st.none() | st.tuples(_coordinate, _coordinate,
                          st.floats(0.5, 10.0)))           # skipped or (z, r)


@settings(max_examples=200, deadline=None)
@given(start=st.tuples(_coordinate, _coordinate),
       steps=st.lists(_step, min_size=1, max_size=40))
def test_separable_filter_matches_dense_reference(start, steps):
    # Where BLAS sums each dense product in index order, fused or not, the
    # reference gives the same floats as the scalar filter. The tolerance
    # leaves room for a BLAS that rounds differently: 1e-12 of the largest
    # magnitude the run has carried, per array, because the first update
    # cancels velocity variances near 1e6 down to units.
    state = _track_at(*start)
    r0 = PARAMS.measurement_noise
    mean = np.array([start[0], start[1], 0.0, 0.0])
    cov = np.diag([r0, r0, 1e6, 1e6])
    mean_scale = max(1.0, abs(start[0]), abs(start[1]))
    cov_scale = 1e6
    for process_noise, update in steps:
        state = kalman_predict(state, process_noise)
        mean, cov = dense_kalman_predict(mean, cov, process_noise)
        mean_scale = max(mean_scale, np.abs(mean).max())
        cov_scale = max(cov_scale, np.abs(cov).max())
        if update is not None:
            zx, zy, noise = update
            state = kalman_update(state, (zx, zy), noise)
            mean, cov = dense_kalman_update(mean, cov, (zx, zy), noise)
            mean_scale = max(mean_scale, abs(zx), abs(zy), np.abs(mean).max())
        np.testing.assert_allclose(state.state_mean, mean, rtol=0,
                                   atol=1e-12 * mean_scale)
        np.testing.assert_allclose(state.state_covariance, cov, rtol=0,
                                   atol=1e-12 * cov_scale)
        assert all(cov[i, j] == 0.0 for i, j in _OFF_BLOCK)
        assert all(state.state_covariance[i, j] == 0.0 for i, j in _OFF_BLOCK)


def _track_with_velocity(tid, pos, vel, cls=ObjectClass.VEHICLE):
    state = new_track(tid, make_detection(0, cls, *pos, tid), PARAMS)
    state.vx, state.vy = vel
    return state


def test_assign_prefers_prediction_over_last_position():
    # Two crossing tracks. By last position, A would grab B's detection;
    # the predictions sort it out with no swap.
    a = _track_with_velocity("a", (20.0, 0.0), (10.0, 0.0))
    b = _track_with_velocity("b", (28.0, 4.0), (-10.0, 0.0))
    tracks = {"a": a, "b": b}
    predicted = {tid: kalman_predict(t, 0.0) for tid, t in tracks.items()}
    det_c = make_detection(1, ObjectClass.VEHICLE, 30.0, 0.0, "c")
    det_d = make_detection(1, ObjectClass.VEHICLE, 18.0, 4.0, "d")
    assert math.dist(a.points[-1][1], det_d.contact_point_px) < \
        math.dist(a.points[-1][1], det_c.contact_point_px)

    matches = assign(predicted, [det_c, det_d], PARAMS)
    assert matches["a"].detection_id == "c"
    assert matches["b"].detection_id == "d"

    nn = TrackerParams(use_prediction=False)
    swapped = assign(predicted, [det_c, det_d], nn)
    assert swapped["a"].detection_id == "d"


def test_assign_single_in_gate_detection():
    a = _track_with_velocity("a", (100.0, 100.0), (0.0, 0.0))
    predicted = {"a": kalman_predict(a, 0.0)}
    det = make_detection(1, ObjectClass.VEHICLE, 110.0, 100.0, "d0")
    assert assign(predicted, [det], PARAMS) == {"a": det}


def test_assign_beyond_gate_spawns_new_track():
    a = _track_with_velocity("a", (100.0, 100.0), (0.0, 0.0))
    predicted = {"a": kalman_predict(a, 0.0)}
    det = make_detection(1, ObjectClass.VEHICLE,
                         100.0 + PARAMS.gate_threshold_vehicle + 1.0, 100.0, "d0")
    assert assign(predicted, [det], PARAMS) == {}


def test_assign_classes_never_mix():
    a = _track_with_velocity("a", (100.0, 100.0), (0.0, 0.0),
                             cls=ObjectClass.PEDESTRIAN)
    predicted = {"a": kalman_predict(a, 0.0)}
    det = make_detection(1, ObjectClass.VEHICLE, 101.0, 100.0, "d0")
    assert assign(predicted, [det], PARAMS) == {}


def test_assignment_invariant_under_detection_permutation():
    rng = np.random.default_rng(4)
    for _ in range(25):
        predicted = {}
        for k in range(4):
            t = _track_with_velocity(f"t{k}", tuple(rng.uniform(0, 500, 2)),
                                     tuple(rng.uniform(-5, 5, 2)))
            predicted[t.object_id] = kalman_predict(t, 0.0)
        dets = [make_detection(1, ObjectClass.VEHICLE, *rng.uniform(0, 500, 2),
                               det_id=f"d{k}") for k in range(5)]
        base = assign(predicted, dets, PARAMS)
        perm = list(dets)
        rng.shuffle(perm)
        again = assign(predicted, perm, PARAMS)
        assert base == again
        # No detection is consumed twice.
        used = [d.detection_id for d in base.values()]
        assert len(used) == len(set(used))


@pytest.mark.parametrize("xs, expected", [
    # Smallest first would take b->d0 (8), then a->d1 (35): total 43.
    ((0.0, 20.0, 12.0, 35.0), {"a": "d0", "b": "d1"}),
    # The least total alone is b->d0 (5); two pairs beat one.
    ((0.0, 50.0, 45.0, 100.0), {"a": "d0", "b": "d1"}),
], ids=["least-total", "most-pairs"])
def test_assign_takes_most_pairs_then_least_total(xs, expected):
    a_x, b_x, d0_x, d1_x = xs
    predicted = {tid: kalman_predict(_track_with_velocity(tid, (x, 0.0),
                                                          (0.0, 0.0)), 0.0)
                 for tid, x in (("a", a_x), ("b", b_x))}
    dets = [make_detection(1, ObjectClass.VEHICLE, d0_x, 0.0, "d0"),
            make_detection(1, ObjectClass.VEHICLE, d1_x, 0.0, "d1")]
    matches = assign(predicted, dets, PARAMS)
    assert {tid: det.detection_id for tid, det in matches.items()} == expected


def test_assign_matches_brute_force_oracle():
    # Frames of up to 5 tracks and 5 detections per class, spread wider
    # than the gates so that some pairs fall out of gate.
    rng = np.random.default_rng(11)
    spread = {ObjectClass.VEHICLE: 150.0, ObjectClass.PEDESTRIAN: 50.0}
    for _ in range(300):
        predicted, dets = {}, []
        for cls, width in spread.items():
            for k in range(rng.integers(0, 6)):
                tid = f"{cls.value}{k}"
                predicted[tid] = _track_with_velocity(
                    tid, tuple(rng.uniform(0, width, 2)), (0.0, 0.0), cls)
            dets += [make_detection(1, cls, *rng.uniform(0, width, 2),
                                    det_id=f"d{cls.value}{k}")
                     for k in range(rng.integers(0, 6))]
        expected = brute_force_matching(predicted, dets, PARAMS)
        assert assign(predicted, dets, PARAMS) == expected


def test_track_point_is_an_immutable_record_built_by_keyword():
    p = TrackPoint(frame=5, t=0.2, raw_px=(1.0, 2.0), smooth_px=(1.5, 2.5),
                   world=(-3.0, 4.0), detection_id="v0")
    assert (p.frame, p.t, p.raw_px, p.smooth_px, p.world, p.detection_id) \
        == (5, 0.2, (1.0, 2.0), (1.5, 2.5), (-3.0, 4.0), "v0")
    assert p == TrackPoint(5, 0.2, (1.0, 2.0), (1.5, 2.5), (-3.0, 4.0), "v0")
    with pytest.raises(AttributeError):
        p.frame = 6
    detection = make_detection(5, ObjectClass.VEHICLE, 1.0, 2.0, det_id="v0")
    assert detection.contact_point_px == (1.0, 2.0)
    with pytest.raises(AttributeError):
        detection.detection_id = "v1"


def test_track_scene_single_object():
    dets = [make_detection(f, ObjectClass.VEHICLE, 100.0 + 10 * f, 200.0, "v0")
            for f in range(10)]
    trajs = track_scene(dets, PARAMS, FLAT, fps=1.0, frame_stride=1)
    assert len(trajs) == 1
    assert len(trajs[0]) == 10
    assert trajs[0].object_class is ObjectClass.VEHICLE


def test_track_scene_points_replay_the_filter():
    # One noisy vehicle, stride 5, missed at frame 25. Every point carries
    # the detection it consumed; its smoothed pixel is the dense filter's
    # position after that frame, where the gap frame only predicts.
    config = synth.synthetic_spot_config()
    calib = config.build_calibration()
    fps, stride = config.fps, config.frame_skip
    rng = np.random.default_rng(7)
    frames = [f for f in range(0, 75, stride) if f != 25]
    dets = [make_detection(f, ObjectClass.VEHICLE,
                           400.0 + 6.0 * f + rng.normal(0.0, 1.5),
                           700.0 - 1.0 * f + rng.normal(0.0, 1.5), f"d{f}")
            for f in frames]
    (traj,) = track_scene(dets, PARAMS, calib, fps=fps, frame_stride=stride)
    assert [p.frame for p in traj.points] == frames
    raw = np.array([p.raw_px for p in traj.points])
    world = calib.to_world_many(raw)

    q, r = PARAMS.process_noise, PARAMS.measurement_noise
    mean = np.array([*dets[0].contact_point_px, 0.0, 0.0])
    cov = np.diag([r, r, 1e6, 1e6])
    by_frame = {d.frame_index: d for d in dets}
    expected_smooth = {0: dets[0].contact_point_px}
    for f in range(stride, frames[-1] + 1, stride):
        mean, cov = dense_kalman_predict(mean, cov, q)
        if f in by_frame:
            mean, cov = dense_kalman_update(
                mean, cov, by_frame[f].contact_point_px, r)
            expected_smooth[f] = tuple(mean[:2])

    for k, (point, det) in enumerate(zip(traj.points, dets)):
        assert point.raw_px == det.contact_point_px
        assert point.detection_id == det.detection_id
        assert point.t == point.frame / fps
        assert point.world == tuple(world[k])
        np.testing.assert_allclose(point.smooth_px,
                                   expected_smooth[point.frame],
                                   rtol=0, atol=1e-9)


def test_track_scene_parallel_objects_no_swap():
    dets = []
    for f in range(12):
        dets.append(make_detection(f, ObjectClass.VEHICLE, 100.0 + 10 * f, 100.0, "v0"))
        dets.append(make_detection(f, ObjectClass.VEHICLE, 100.0 + 10 * f, 300.0, "v1"))
    trajs = track_scene(dets, PARAMS, FLAT, fps=1.0, frame_stride=1)
    assert len(trajs) == 2
    for traj in trajs:
        assert len({p.detection_id for p in traj.points}) == 1
        assert len(traj) == 12


def test_track_scene_coasts_through_short_gap():
    frames = [f for f in range(12) if f not in (5, 6)]
    dets = [make_detection(f, ObjectClass.VEHICLE, 100.0 + 10 * f, 200.0, "v0")
            for f in frames]
    trajs = track_scene(dets, PARAMS, FLAT, fps=1.0, frame_stride=1)
    assert len(trajs) == 1
    assert len(trajs[0]) == len(frames)


def test_track_scene_splits_after_max_coast():
    frames = [f for f in range(16) if not 5 <= f <= 9]    # 5 missing > 3
    dets = [make_detection(f, ObjectClass.VEHICLE, 100.0 + 10 * f, 200.0, "v0")
            for f in frames]
    trajs = track_scene(dets, PARAMS, FLAT, fps=1.0, frame_stride=1)
    assert len(trajs) == 2


def test_crossing_scene_prediction_beats_nearest_neighbor():
    # One randomized noisy crossing where memoryless nearest-neighbor
    # provably swaps identities and prediction does not.
    spec = random_crossing_spec(0, seed=42, noise_sigma=2.0)
    records, truth = synth.generate(spec)
    calib = spec.config.build_calibration()
    stride = spec.config.frame_skip

    kalman = track_scene(records, PARAMS, calib, fps=spec.config.fps,
                         frame_stride=stride)
    v_k = validate_trajectories(kalman, truth=truth.provenance, params=PARAMS,
                                frame_stride=stride)
    nn_params = TrackerParams(use_prediction=False)
    nn = track_scene(records, nn_params, calib, fps=spec.config.fps,
                     frame_stride=stride)
    v_n = validate_trajectories(nn, truth=truth.provenance, params=nn_params,
                                frame_stride=stride)
    assert v_k.crossing + v_k.directivity == 0
    assert v_n.crossing + v_n.directivity > 0


def test_validate_clean_scene():
    truth = {(f, "a"): "a" for f in range(10)}
    traj = make_traj("t0", ObjectClass.VEHICLE, range(10),
                     [(f, 0) for f in range(10)], det_ids=["a"] * 10)
    v = validate_trajectories([traj], truth=truth)
    assert v.clean
    report = summarize_validations([v])
    assert report.accuracy == 1.0


def test_validate_identity_swap_is_one_crossing():
    truth = {}
    for f in range(10):
        truth[(f, "a")] = "a"
        truth[(f, "b")] = "b"
    # Both tracks change agents halfway: a mutual exchange.
    t1 = make_traj("t0", ObjectClass.VEHICLE, range(10),
                   [(f, 0) for f in range(10)],
                   det_ids=["a"] * 5 + ["b"] * 5)
    t2 = make_traj("t1", ObjectClass.VEHICLE, range(10),
                   [(f, 1) for f in range(10)],
                   det_ids=["b"] * 5 + ["a"] * 5)
    v = validate_trajectories([t1, t2], truth=truth)
    assert v.crossing == 1
    assert v.directivity == 2      # both tracks contain two true objects


def test_validate_split_with_gap_is_one_connectivity():
    truth = {(f, "a"): "a" for f in range(20)}
    t1 = make_traj("t0", ObjectClass.VEHICLE, range(0, 5),
                   [(f, 0) for f in range(0, 5)], det_ids=["a"] * 5)
    t2 = make_traj("t1", ObjectClass.VEHICLE, range(10, 15),
                   [(f, 0) for f in range(10, 15)], det_ids=["a"] * 5)
    v = validate_trajectories([t1, t2], truth=truth, frame_stride=1)
    assert v.connectivity == 1
    assert v.crossing == 0
