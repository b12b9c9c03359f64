"""Acceptance suite: one test per exit criterion, each printing a
PASS line with the measured values when it holds."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from crossrisk import synth
from crossrisk.analytics import (
    PsmDistribution,
    psm_ranges,
    weighted_merge,
)
from crossrisk.cli import main as cli_main
from crossrisk.features import (
    ACC,
    BEHIND,
    FRONT,
    NC,
    VehicleZone,
    acceleration_list,
    classify_zones,
    extract_scene_features,
    low_pass,
    psm,
    relative_positions,
    speed_list,
    stop_window,
)
from crossrisk.ingest import ObjectClass
from crossrisk.synth import standard_corpus, synthetic_spot_config
from crossrisk.tracker import (
    TrackerParams,
    kalman_predict,
    kalman_update,
    new_track,
    track_scene,
    validate_trajectories,
)

from oracles import dense_psm_oracle, make_traj, random_crossing_trajectories


def _expected_segments(frames, max_coast, stride):
    segments = 1
    for a, b in zip(frames, frames[1:]):
        if (b - a) // stride - 1 > max_coast:
            segments += 1
    return segments


def test_criterion_1_zero_noise_end_to_end_fidelity():
    started = time.monotonic()
    params = TrackerParams()
    for spec, _ in standard_corpus():
        records, truth = synth.generate(spec)
        config = spec.config
        calib = config.build_calibration()
        stride = config.frame_skip
        fstep = config.frame_skip / config.fps
        trajs = track_scene(records, params, calib, fps=config.fps,
                            frame_stride=stride)

        # Identity: every track is pure, every detection consumed once,
        # and the track count per agent matches the scripted presence.
        assert sum(len(t) for t in trajs) == len(records), spec.name
        per_agent = {}
        for t in trajs:
            agents = {p.detection_id for p in t.points}
            assert len(agents) == 1, f"{spec.name}: impure track"
            agent = agents.pop()
            per_agent[agent] = per_agent.get(agent, 0) + 1
        for agent, frames in truth.emitted_frames.items():
            expected = _expected_segments(frames, params.max_coast_frames, stride)
            assert per_agent[agent] == expected, \
                f"{spec.name}: {agent} split into {per_agent[agent]} tracks"
        check = validate_trajectories(trajs, truth=truth.provenance,
                                      params=params, frame_stride=stride)
        assert check.crossing == 0 and check.directivity == 0, spec.name

        # Speed lists against the analytic values, 1e-9 relative.
        for t in trajs:
            if len(t) < 2:
                continue
            agent = t.points[0].detection_id
            expected = truth.speed_list_kmh(agent, t.frames)
            got = speed_list(t)
            for e, g in zip(expected, got):
                assert abs(e - g) <= 1e-9 * max(1.0, abs(e)), spec.name

        # PSM against the analytic arrival-time gap, within one step.
        if truth.psm_seconds is not None:
            vehicle = next(t for t in trajs
                           if t.object_class is ObjectClass.VEHICLE)
            peds = [t for t in trajs
                    if t.object_class is ObjectClass.PEDESTRIAN]
            bundle = extract_scene_features("s", vehicle, peds, config, calib)
            assert bundle.psm_seconds is not None, spec.name
            assert abs(bundle.psm_seconds - truth.psm_seconds) <= fstep, spec.name

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"criterion 1 PASS: zero-noise fidelity on 8 scenarios "
          f"in {elapsed:.2f}s")


def test_criterion_2_psm_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1234)
    n = 1000
    max_delta = 0.0
    for _ in range(n):
        vehicle, pedestrian, fstep = random_crossing_trajectories(rng)
        oracle = dense_psm_oracle(vehicle, pedestrian, resolution=1000)
        assert oracle is not None
        value = psm(vehicle, pedestrian)      # NoConflict would fail the test
        max_delta = max(max_delta, abs(value.seconds - oracle))
        assert abs(value.seconds - oracle) <= fstep + 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 2 PASS: {n} crossings, existence 100%, "
          f"max |scan-oracle| {max_delta:.3f}s <= F in {elapsed:.1f}s")


def test_criterion_3_prediction_beats_nearest_neighbor():
    n = 200
    kalman_score = nn_score = 0
    for i in range(n):
        spec = synth.random_crossing_spec(i, seed=42, noise_sigma=2.0)
        records, truth = synth.generate(spec)
        calib = spec.config.build_calibration()
        stride = spec.config.frame_skip
        for use_prediction in (True, False):
            params = TrackerParams(use_prediction=use_prediction)
            assert params.gate_threshold_vehicle == 60.0
            assert params.gate_threshold_pedestrian == 20.0
            trajs = track_scene(records, params, calib, fps=spec.config.fps,
                                frame_stride=stride)
            check = validate_trajectories(trajs, truth=truth.provenance,
                                          params=params, frame_stride=stride)
            if use_prediction:
                kalman_score += check.crossing + check.directivity
            else:
                nn_score += check.crossing + check.directivity
    assert kalman_score < nn_score
    print(f"criterion 3 PASS: crossing+directivity {kalman_score} (prediction) "
          f"< {nn_score} (nearest-neighbor) over {n} noisy scenes")


def test_criterion_4_weighting():
    dist = weighted_merge({"A": [1.0] * 100, "B": [2.0] * 800})
    assert dist.spot_weights["A"] == 8 / 9
    assert dist.spot_weights["B"] == 1 / 9

    equal = weighted_merge({s: [float(k) for k in range(40)]
                            for s in "ABCDE"})
    assert len(set(equal.spot_weights.values())) == 1

    rng = np.random.default_rng(77)
    samples = {"A": list(rng.normal(-1, 2, 90)),
               "B": list(rng.normal(2, 1, 300))}
    base = weighted_merge(samples)
    dup = weighted_merge({s: v * 4 for s, v in samples.items()})
    assert np.allclose(base.bin_edges, dup.bin_edges)
    assert np.allclose(base.normalized_masses(), dup.normalized_masses())
    print("criterion 4 PASS: weights (8/9, 1/9) exact, equal spots equal, "
          "histogram duplication-invariant")


def test_criterion_5_psm_range_binning():
    neg_quartiles = (-4.92, -3.04, -2.03)
    pos_quartiles = (1.25, 2.29, 3.91)

    def inversion(qs, low, high):
        q1, q2, q3 = qs
        return [low, q1, (q1 + q2) / 2, q2, (q2 + q3) / 2, q3,
                (q3 + high) / 2, high]

    samples = np.array(inversion(neg_quartiles, -6.0, -0.5)
                       + inversion(pos_quartiles, 0.3, 6.0))
    dist = PsmDistribution(samples=samples, weights=np.ones_like(samples),
                           bin_edges=np.array([-6.0, 6.0]),
                           masses=np.array([float(len(samples))]),
                           group="acceptance")
    ranges = psm_ranges(dist)
    for got, want in zip(ranges.negative_quartiles, neg_quartiles):
        assert abs(got - want) <= 1e-6
    for got, want in zip(ranges.positive_quartiles, pos_quartiles):
        assert abs(got - want) <= 1e-6
    assert ranges.range_of(-1.5) == 4
    print("criterion 5 PASS: 8 published boundaries reproduced to 1e-6, "
          "-1.5s bins to range 4")


def test_criterion_6_feature_invariants():
    rng = np.random.default_rng(55)
    steps = [5 * k for k in range(12)]

    # Speed reversal symmetry.
    world = rng.uniform(-10, 10, (12, 2))
    fwd = make_traj("v", ObjectClass.VEHICLE, steps, world)
    rev = make_traj("v", ObjectClass.VEHICLE, steps, world[::-1])
    assert np.allclose(speed_list(rev), speed_list(fwd)[::-1])

    # Low-pass identity at alpha=1.
    xs = list(rng.uniform(0, 30, 20))
    assert low_pass(xs, 1.0) == pytest.approx(xs)

    # Acceleration dead-band and shift invariance.
    assert acceleration_list([10.0, 10.2, 10.4], epsilon_kmh=0.5) == [NC, NC]
    speeds = list(rng.uniform(5, 30, 15))
    assert acceleration_list(low_pass(speeds, 0.3), 0.5) == \
        acceleration_list(low_pass([s + 7.3 for s in speeds], 0.3), 0.5)

    # Zone stability: 1 cm jitter never reclassifies points 10 cm clear
    # of every boundary.
    config = synthetic_spot_config()
    from crossrisk.features import cia_polygon
    polygons = [config.crosswalk_polygon_world, cia_polygon(config),
                *config.sidewalk_polygons_world]

    def boundary_distance(p, poly):
        best = math.inf
        for i in range(len(poly)):
            a, b = poly[i], poly[(i + 1) % len(poly)]
            ax, ay = b[0] - a[0], b[1] - a[1]
            seg2 = ax * ax + ay * ay
            u = 0.0 if seg2 == 0 else max(0.0, min(1.0, (
                (p[0] - a[0]) * ax + (p[1] - a[1]) * ay) / seg2))
            best = min(best, math.hypot(p[0] - a[0] - u * ax,
                                        p[1] - a[1] - u * ay))
        return best

    points = []
    while len(points) < 50:
        p = (rng.uniform(-25, 25), rng.uniform(-10.5, 10.5))
        if min(boundary_distance(p, poly) for poly in polygons) >= 0.1:
            points.append(p)
    base = classify_zones(make_traj("p", ObjectClass.PEDESTRIAN,
                                    [5 * k for k in range(len(points))],
                                    points), config)
    jitter = rng.uniform(-0.01, 0.01, (len(points), 2))
    moved = [(x + dx, y + dy) for (x, y), (dx, dy) in zip(points, jitter)]
    assert classify_zones(make_traj("p", ObjectClass.PEDESTRIAN,
                                    [5 * k for k in range(len(points))],
                                    moved), config) == base

    # Exactly one Front -> Behind transition on a pass-by.
    veh = make_traj("v", ObjectClass.VEHICLE, steps,
                    [(-10.0 + 2.0 * k, 0.0) for k in range(12)])
    ped = make_traj("p", ObjectClass.PEDESTRIAN, steps, [(0.0, 1.0)] * 12)
    rel = relative_positions(veh, ped)
    assert rel[0] == FRONT and rel[-1] == BEHIND
    assert sum(1 for a, b in zip(rel, rel[1:]) if a != b) == 1

    # Stop detection is gated on the before-crosswalk zone.
    speeds = [15.0, 0.5, 0.5, 0.5, 0.5, 15.0]
    before = [VehicleZone.BEFORE] * 7
    after = [VehicleZone.AFTER] * 7
    assert stop_window(speeds, before, tolerance_kmh=2.0, min_steps=3)[0]
    assert not stop_window(speeds, after, tolerance_kmh=2.0, min_steps=3)[0]

    print("criterion 6 PASS: feature invariants all hold")


def test_criterion_7_kalman_numerics():
    rng = np.random.default_rng(99)
    params = TrackerParams()
    state = new_track("t", ObjectClass.VEHICLE, 0, (0.0, 0.0), params)
    min_eig = math.inf
    for _ in range(10000):
        state = kalman_predict(state, float(rng.uniform(0.1, 5.0)))
        if rng.random() < 0.8:
            z = rng.normal(0.0, 50.0, 2)
            state = kalman_update(state, (float(z[0]), float(z[1])),
                                  float(rng.uniform(0.5, 10.0)))
        cov = state.state_covariance
        assert np.allclose(cov, cov.T, atol=1e-9)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(cov).min()))
    assert min_eig >= -1e-9

    state = new_track("t", ObjectClass.VEHICLE, 0, (0.0, 0.0), params)
    for k in range(1, 21):
        state = kalman_predict(state, params.process_noise)
        state = kalman_update(state, (3.0 * k, -2.0 * k),
                              params.measurement_noise)
    err = max(abs(state.velocity[0] - 3.0), abs(state.velocity[1] + 2.0))
    assert err <= 1e-6
    print(f"criterion 7 PASS: min eigenvalue {min_eig:.2e} >= -1e-9, "
          f"velocity error {err:.2e} <= 1e-6 at step 20")


def test_criterion_8_determinism_across_worker_counts(tmp_path):
    run_a = tmp_path / "w1"
    run_b = tmp_path / "w4"
    assert cli_main(["all", "--out-dir", str(run_a), "--seed", "5",
                     "--workers", "1"]) == 0
    assert cli_main(["all", "--out-dir", str(run_b), "--seed", "5",
                     "--workers", "4"]) == 0
    compared = 0
    for rel in sorted(p.relative_to(run_a) for p in run_a.rglob("*")
                      if p.is_file()):
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
        compared += 1
    assert compared > 10
    print(f"criterion 8 PASS: {compared} files byte-identical across "
          f"worker counts 1 and 4")


def test_criterion_9_throughput(tmp_path):
    started = time.monotonic()
    assert cli_main(["all", "--out-dir", str(tmp_path), "--seed", "3",
                     "--corpus", "bulk", "--scenes", "1850",
                     "--noise-sigma", "1.0"]) == 0
    elapsed = time.monotonic() - started
    with open(tmp_path / "bulk" / "detections.jsonl") as fh:
        n_records = sum(1 for _ in fh) - 1
    assert n_records >= 100_000
    assert elapsed < 30.0
    assert (tmp_path / "report" / "speed_stats.csv").exists()
    print(f"criterion 9 PASS: {n_records} detections end to end "
          f"in {elapsed:.1f}s")
