import csv
import math

import numpy as np
import pytest

from crossrisk.analytics import (
    PsmDistribution,
    PsmRanges,
    emit_report,
    psm_ranges,
    spot_speed_stats,
    stopping_by_psm_range,
    stopping_percentage,
    weighted_merge,
    weighted_quantile,
)
from crossrisk.errors import (
    EmptySpot,
    NoQualifyingScenes,
    OneSidedDistribution,
)
from crossrisk.features import SceneFeatures, VehicleZone


def _scene(scene_id="s0", spot="A", interactive=False, speeds=(10.0, 12.0),
           stopped=False, stop_distance=None, in_crossing=False, psm=None):
    return SceneFeatures(
        scene_id=scene_id, spot_id=spot, frame_start=0, frame_end=10,
        interactive=interactive, vehicle_id="v",
        vehicle_speeds_kmh=list(speeds),
        vehicle_zones=[VehicleZone.BEFORE] * (len(speeds) + 1),
        vehicle_accelerations=[], vehicle_acceleration_runs=[],
        crosswalk_distances_m=[], stopped=stopped,
        stop_distance_m=stop_distance,
        pedestrian_speeds_kmh={}, pedestrian_zones={},
        distances_m=[], relative_positions=[],
        psm_seconds=psm, psm_seconds_refined=psm,
        ped_in_crossing_area=in_crossing)


# --- scene classification -----------------------------------------------------


def test_scene_type_proportions_replay():
    # Replaying a feature file with known labels reproduces its counts
    # (the corpus split reported for the busiest spot: 2681/1540).
    scenes = ([_scene(scene_id=f"c{k}") for k in range(2681)]
              + [_scene(scene_id=f"i{k}", interactive=True) for k in range(1540)])
    stats = spot_speed_stats("A", scenes)
    assert stats.scenes_car_only == 2681
    assert stats.scenes_interactive == 1540
    assert stats.scenes_total == 4221


# --- speed statistics ------------------------------------------------------------


def test_spot_speed_stats_basic():
    scenes = [_scene(scene_id="a", speeds=[10.0, 10.0]),
              _scene(scene_id="b", speeds=[20.0, 20.0])]
    stats = spot_speed_stats("A", scenes)
    assert stats.speed_mean_kmh == pytest.approx(15.0)
    assert stats.speed_min_kmh == pytest.approx(10.0)
    assert stats.speed_max_kmh == pytest.approx(20.0)


def test_spot_speed_stats_single_scene():
    stats = spot_speed_stats("A", [_scene(speeds=[14.0, 14.0])])
    assert stats.speed_min_kmh == stats.speed_max_kmh == stats.speed_mean_kmh


def test_spot_speed_stats_split_by_type():
    scenes = [_scene(scene_id="a", speeds=[30.0]),
              _scene(scene_id="b", speeds=[10.0], interactive=True)]
    stats = spot_speed_stats("A", scenes)
    assert stats.car_only_mean_kmh == pytest.approx(30.0)
    assert stats.interactive_mean_kmh == pytest.approx(10.0)
    assert stats.interactive_mean_kmh < stats.car_only_mean_kmh


def test_spot_speed_stats_median_reduce():
    stats = spot_speed_stats("A", [_scene(speeds=[10.0, 20.0, 90.0])],
                             reduce="median")
    assert stats.speed_mean_kmh == pytest.approx(20.0)


def test_empty_spot_raises():
    with pytest.raises(EmptySpot):
        spot_speed_stats("A", [])
    with pytest.raises(EmptySpot):
        spot_speed_stats("A", [_scene(speeds=[])])


# --- stopping percentage -----------------------------------------------------------


def _qualifying(scene_id, stopped, stop_distance=4.0):
    return _scene(scene_id=scene_id, interactive=True, in_crossing=True,
                  stopped=stopped, stop_distance=stop_distance if stopped else None)


def test_stopping_percentage_all_stop():
    scenes = [_qualifying(f"s{k}", True) for k in range(5)]
    pct, stopped, total = stopping_percentage(scenes)
    assert pct == pytest.approx(100.0)
    assert (stopped, total) == (5, 5)


def test_stopping_percentage_none_stop():
    scenes = [_qualifying(f"s{k}", False) for k in range(5)]
    pct, _, _ = stopping_percentage(scenes)
    assert pct == pytest.approx(0.0)


def test_stopping_percentage_seven_of_ten():
    scenes = ([_qualifying(f"y{k}", True) for k in range(7)]
              + [_qualifying(f"n{k}", False) for k in range(3)])
    pct, stopped, total = stopping_percentage(scenes)
    assert pct == pytest.approx(70.0)
    assert (stopped, total) == (7, 10)


def test_stop_beyond_baseline_does_not_count():
    scenes = [_qualifying("s0", True, stop_distance=14.0),
              _qualifying("s1", True, stop_distance=4.0)]
    pct, _, _ = stopping_percentage(scenes, baseline_m=10.0)
    assert pct == pytest.approx(50.0)


def test_stopping_percentage_needs_qualifying_scenes():
    with pytest.raises(NoQualifyingScenes):
        stopping_percentage([_scene()])  # car-only scene


def test_stopping_percentage_order_invariant():
    scenes = ([_qualifying(f"y{k}", True) for k in range(4)]
              + [_qualifying(f"n{k}", False) for k in range(2)])
    a = stopping_percentage(scenes)
    b = stopping_percentage(list(reversed(scenes)))
    assert a == b


# --- weighted merge -----------------------------------------------------------------


def test_weighted_merge_paper_example():
    # Two regions with 100 and 800 scenes: weights 8/9 and 1/9 exactly.
    dist = weighted_merge({"A": [1.0] * 100, "B": [2.0] * 800})
    assert dist.spot_weights["A"] == pytest.approx(8 / 9, abs=1e-15)
    assert dist.spot_weights["B"] == pytest.approx(1 / 9, abs=1e-15)


def test_weighted_merge_equal_spots_equal_weights():
    dist = weighted_merge({s: [float(k) for k in range(50)]
                           for s in ("A", "B", "C", "D")})
    weights = set(dist.spot_weights.values())
    assert len(weights) == 1
    assert weights.pop() == pytest.approx(0.75)


def test_weighted_merge_single_spot_degenerate():
    dist = weighted_merge({"A": [1.0, 2.0, 3.0]})
    assert dist.spot_weights["A"] == 0.0
    assert dist.degenerate


def test_weighted_merge_masses_sum_to_weighted_count():
    dist = weighted_merge({"A": [1.0, 2.0, 5.0], "B": [0.5, 4.0]})
    assert dist.masses.sum() == pytest.approx(dist.weights.sum())


def test_equal_spots_match_unweighted_shape():
    rng = np.random.default_rng(31)
    samples = {s: list(rng.normal(2.0, 1.0, 80)) for s in ("A", "B")}
    weighted = weighted_merge(samples)
    flat = np.concatenate([samples["A"], samples["B"]])
    masses, _ = np.histogram(flat, bins=weighted.bin_edges)
    norm_w = weighted.normalized_masses()
    norm_u = masses / masses.sum()
    assert np.allclose(norm_w, norm_u)


def test_normalized_histogram_invariant_under_duplication():
    rng = np.random.default_rng(32)
    samples = {"A": list(rng.normal(-2, 1.5, 60)),
               "B": list(rng.normal(1, 0.8, 200))}
    base = weighted_merge(samples)
    tripled = weighted_merge({s: v * 3 for s, v in samples.items()})
    assert np.allclose(base.bin_edges, tripled.bin_edges)
    assert np.allclose(base.normalized_masses(), tripled.normalized_masses())
    assert base.spot_weights == tripled.spot_weights


def test_positive_only_filter():
    dist = weighted_merge({"A": [-1.0, 2.0], "B": [3.0, -4.0]},
                          positive_only=True)
    assert (dist.samples > 0).all()


# --- PSM ranges ------------------------------------------------------------------------


PAPER_NEG = (-4.92, -3.04, -2.03)
PAPER_POS = (1.25, 2.29, 3.91)


def _inversion_oracle(quartiles, low, high):
    """Place samples so the inverse-CDF quartiles land exactly on target:
    with 8 equal-weight samples the 2nd, 4th, and 6th order statistics
    are the quartiles."""
    q1, q2, q3 = quartiles
    mid12 = (q1 + q2) / 2
    mid23 = (q2 + q3) / 2
    return [low, q1, mid12, q2, mid23, q3, (q3 + high) / 2, high]


def test_quantile_inversion_oracle_is_self_consistent():
    samples = _inversion_oracle(PAPER_NEG, -6.0, -0.5)
    w = np.ones(len(samples))
    for q, expected in zip((0.25, 0.5, 0.75), PAPER_NEG):
        assert weighted_quantile(samples, w, q) == pytest.approx(expected)


def _paper_distribution():
    neg = _inversion_oracle(PAPER_NEG, -6.0, -0.5)
    pos = _inversion_oracle(PAPER_POS, 0.3, 6.0)
    samples = np.array(neg + pos)
    weights = np.ones_like(samples)
    return PsmDistribution(samples=samples, weights=weights,
                           bin_edges=np.array([-6.0, 6.0]),
                           masses=np.array([16.0]), group="test")


def test_psm_ranges_reproduce_published_boundaries():
    ranges = psm_ranges(_paper_distribution())
    assert ranges.negative_quartiles == pytest.approx(PAPER_NEG, abs=1e-6)
    assert ranges.positive_quartiles == pytest.approx(PAPER_POS, abs=1e-6)
    bounds = ranges.boundaries()
    assert bounds[0] == -math.inf and bounds[-1] == math.inf
    assert bounds[4] == 0.0


def test_minus_one_point_five_bins_to_range_four():
    ranges = psm_ranges(_paper_distribution())
    assert ranges.range_of(-1.5) == 4


def test_range_of_every_band():
    ranges = psm_ranges(_paper_distribution())
    assert ranges.range_of(-10.0) == 1
    assert ranges.range_of(-4.0) == 2
    assert ranges.range_of(-2.5) == 3
    assert ranges.range_of(-0.1) == 4
    assert ranges.range_of(0.5) == 5
    assert ranges.range_of(2.0) == 6
    assert ranges.range_of(3.0) == 7
    assert ranges.range_of(10.0) == 8


def test_symmetric_distribution_mirrors_boundaries():
    # 201 samples per side: the quartile positions fall strictly between
    # order statistics, where the inverse-CDF quantile mirrors exactly.
    rng = np.random.default_rng(33)
    pos = rng.uniform(0.1, 5.0, 201)
    samples = np.concatenate([pos, -pos])
    dist = PsmDistribution(samples=samples, weights=np.ones_like(samples),
                           bin_edges=np.array([-5.0, 5.0]),
                           masses=np.array([400.0]), group="sym")
    ranges = psm_ranges(dist)
    assert ranges.negative_quartiles == pytest.approx(
        tuple(-v for v in reversed(ranges.positive_quartiles)))


def test_one_sided_distribution_rejected():
    samples = np.array([1.0, 2.0, 3.0])
    dist = PsmDistribution(samples=samples, weights=np.ones(3),
                           bin_edges=np.array([0.0, 3.0]),
                           masses=np.array([3.0]), group="onesided")
    with pytest.raises(OneSidedDistribution):
        psm_ranges(dist)


def test_quartiles_invariant_under_duplication():
    rng = np.random.default_rng(34)
    vals = list(rng.normal(0, 2, 101))
    w = np.ones(len(vals))
    w3 = np.ones(len(vals) * 3)
    for q in (0.25, 0.5, 0.75):
        assert weighted_quantile(vals, w, q) == \
            weighted_quantile(vals * 3, w3, q)


def test_per_range_mass_within_one_sample():
    rng = np.random.default_rng(35)
    samples = np.concatenate([rng.uniform(-8, -0.01, 400),
                              rng.uniform(0.01, 8, 400)])
    dist = PsmDistribution(samples=samples, weights=np.ones_like(samples),
                           bin_edges=np.array([-8.0, 8.0]),
                           masses=np.array([800.0]), group="m")
    ranges = psm_ranges(dist)
    for sign_mask in (samples < 0, samples > 0):
        side = samples[sign_mask]
        counts = np.zeros(8)
        for v in side:
            counts[ranges.range_of(v) - 1] += 1
        for c in counts[counts > 0]:
            assert abs(c - len(side) / 4) <= 1


# --- stopping by PSM range ----------------------------------------------------------


def test_stopping_by_range_single_cell():
    ranges = psm_ranges(_paper_distribution())
    scenes = [_qualifying(f"s{k}", True) for k in range(4)]
    for s in scenes:
        s.psm_seconds = 0.5          # all land in range 5
    table = stopping_by_psm_range({"D": scenes}, ranges, {"D": False})
    assert table.cells == {(5, "D"): pytest.approx(100.0)}
    assert table.counts[(5, "D")] == (4, 4)


def test_stopping_by_range_rejects_signalized_spot():
    ranges = psm_ranges(_paper_distribution())
    with pytest.raises(ValueError):
        stopping_by_psm_range({"A": []}, ranges, {"A": True})


def test_stopping_by_range_monotone_trend():
    # A corpus built so stopping probability falls as the margin grows.
    ranges = psm_ranges(_paper_distribution())
    scenes = []
    by_range_rates = {5: 0.9, 6: 0.6, 7: 0.4, 8: 0.1}
    mids = {5: 0.5, 6: 1.5, 7: 3.0, 8: 5.0}
    k = 0
    for r, rate in by_range_rates.items():
        for i in range(20):
            s = _qualifying(f"s{k}", i < rate * 20)
            s.psm_seconds = mids[r]
            scenes.append(s)
            k += 1
    table = stopping_by_psm_range({"D": scenes}, ranges, {"D": False})
    pcts = [table.cells[(r, "D")] for r in (5, 6, 7, 8)]
    assert all(a > b for a, b in zip(pcts, pcts[1:]))


# --- report files ------------------------------------------------------------------


def test_emit_report_empty_corpus(tmp_path):
    files = emit_report(tmp_path, [], [], [], None)
    speed = (tmp_path / "speed_stats.csv").read_text().strip().splitlines()
    assert speed == ["spot,max_kmh,min_kmh,mean_kmh,car_only_mean_kmh,"
                     "interactive_mean_kmh"]
    assert all(f.exists() for f in files)


def test_emit_report_table_five_shape(tmp_path):
    stats = [spot_speed_stats("A", [_scene(speeds=[10.0]),
                                    _scene(scene_id="s1", speeds=[20.0],
                                           interactive=True)])]
    emit_report(tmp_path, stats, [], [], None)
    rows = list(csv.DictReader(open(tmp_path / "speed_stats.csv")))
    assert rows[0]["spot"] == "A"
    assert set(rows[0]) == {"spot", "max_kmh", "min_kmh", "mean_kmh",
                            "car_only_mean_kmh", "interactive_mean_kmh"}


def test_emit_report_histogram_rows_match_bins(tmp_path):
    dist = weighted_merge({"A": [1.0, 2.0, 3.0], "B": [2.0, 4.0]},
                          group="check")
    emit_report(tmp_path, [], [dist], [], None)
    rows = (tmp_path / "psm_hist_check.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == len(dist.masses)
