import csv
import math

import numpy as np
import pytest

from crossrisk.analytics import (
    analysis_record,
    emit_report,
    psm_ranges,
    range_edges,
    scene_summary,
    spot_speed_stats,
    stopping_by_psm_range,
    stopping_percentage,
    weighted_merge,
    weighted_quantile,
)
from oracles import make_scene_features


def _scene(**kwargs):
    """The analysis's summary of a bundle made by `make_scene_features`."""
    return scene_summary(make_scene_features(**kwargs))


# --- scene classification -----------------------------------------------------


def test_scene_type_proportions_replay():
    # Replaying a feature file with known labels reproduces its counts
    # (the corpus split reported for the busiest spot: 2681/1540).
    scenes = ([_scene(scene_id=f"c{k}") for k in range(2681)]
              + [_scene(scene_id=f"i{k}", interactive=True) for k in range(1540)])
    stats = spot_speed_stats("A", scenes)
    assert stats["car_only"] == 2681
    assert stats["interactive"] == 1540
    assert stats["scenes"] == 4221


# --- speed statistics ------------------------------------------------------------


def test_spot_speed_stats_basic():
    scenes = [_scene(scene_id="a", speeds=[10.0, 10.0]),
              _scene(scene_id="b", speeds=[20.0, 20.0])]
    stats = spot_speed_stats("A", scenes)
    assert stats["mean_kmh"] == pytest.approx(15.0)
    assert stats["min_kmh"] == pytest.approx(10.0)
    assert stats["max_kmh"] == pytest.approx(20.0)


def test_spot_speed_stats_single_scene():
    stats = spot_speed_stats("A", [_scene(speeds=[14.0, 14.0])])
    assert stats["min_kmh"] == stats["max_kmh"] == stats["mean_kmh"]


def test_spot_speed_stats_split_by_type():
    scenes = [_scene(scene_id="a", speeds=[30.0]),
              _scene(scene_id="b", speeds=[10.0], interactive=True)]
    stats = spot_speed_stats("A", scenes)
    assert stats["car_only_mean_kmh"] == pytest.approx(30.0)
    assert stats["interactive_mean_kmh"] == pytest.approx(10.0)
    assert stats["interactive_mean_kmh"] < stats["car_only_mean_kmh"]


def test_empty_spot_has_no_stats_row():
    assert spot_speed_stats("A", []) is None
    assert spot_speed_stats("A", [_scene(speeds=[])]) is None


# --- stopping percentage -----------------------------------------------------------


def _qualifying(scene_id, stopped, stop_distance=4.0):
    return _scene(scene_id=scene_id, interactive=True, in_crossing=True,
                  stopped=stopped, stop_distance=stop_distance if stopped else None)


def test_stopping_percentage_all_stop():
    scenes = [_qualifying(f"s{k}", True) for k in range(5)]
    pct, stopped, total = stopping_percentage(scenes, 10.0)
    assert pct == pytest.approx(100.0)
    assert (stopped, total) == (5, 5)


def test_stopping_percentage_none_stop():
    scenes = [_qualifying(f"s{k}", False) for k in range(5)]
    pct, _, _ = stopping_percentage(scenes, 10.0)
    assert pct == pytest.approx(0.0)


def test_stopping_percentage_seven_of_ten():
    scenes = ([_qualifying(f"y{k}", True) for k in range(7)]
              + [_qualifying(f"n{k}", False) for k in range(3)])
    pct, stopped, total = stopping_percentage(scenes, 10.0)
    assert pct == pytest.approx(70.0)
    assert (stopped, total) == (7, 10)


def test_stop_beyond_baseline_does_not_count():
    scenes = [_qualifying("s0", True, stop_distance=14.0),
              _qualifying("s1", True, stop_distance=4.0)]
    pct, _, _ = stopping_percentage(scenes, baseline_m=10.0)
    assert pct == pytest.approx(50.0)


def test_stopping_percentage_needs_qualifying_scenes():
    assert stopping_percentage([_scene()], 10.0) is None  # car-only scene


def test_stopping_percentage_order_invariant():
    scenes = ([_qualifying(f"y{k}", True) for k in range(4)]
              + [_qualifying(f"n{k}", False) for k in range(2)])
    a = stopping_percentage(scenes, 10.0)
    b = stopping_percentage(list(reversed(scenes)), 10.0)
    assert a == b


# --- weighted merge -----------------------------------------------------------------


def test_weighted_merge_paper_example():
    # Two regions with 100 and 800 scenes: weights 8/9 and 1/9 exactly.
    dist = weighted_merge({"A": [1.0] * 100, "B": [2.0] * 800}, "m")
    assert dist["spot_weights"]["A"] == pytest.approx(8 / 9, abs=1e-15)
    assert dist["spot_weights"]["B"] == pytest.approx(1 / 9, abs=1e-15)


def test_weighted_merge_equal_spots_equal_weights():
    dist = weighted_merge({s: [float(k) for k in range(50)]
                           for s in ("A", "B", "C", "D")}, "m")
    weights = set(dist["spot_weights"].values())
    assert len(weights) == 1
    assert weights.pop() == pytest.approx(0.75)


def test_weighted_merge_single_spot_degenerate():
    # Unit weights: the histogram holds the samples' mass, as the ranges
    # read it.
    dist = weighted_merge({"A": [1.0, 2.0, 3.0], "B": []}, "m")
    assert dist["spot_weights"] == {"A": 1.0, "B": 1.0}
    assert dist["weights"] == [1.0, 1.0, 1.0]
    assert sum(dist["masses"]) == 3.0
    assert dist["degenerate"]


def test_weighted_merge_masses_sum_to_weighted_count():
    dist = weighted_merge({"A": [1.0, 2.0, 5.0], "B": [0.5, 4.0]}, "m")
    assert sum(dist["masses"]) == pytest.approx(sum(dist["weights"]))


def test_weighted_merge_writes_integer_samples_as_floats():
    # A PSM read back from JSON may be an int; the record holds floats.
    dist = weighted_merge({"A": [2], "B": [-1, 3.5]}, "m")
    assert [type(v) for v in dist["samples"]] == [float] * 3
    assert dist["samples"] == [2.0, -1.0, 3.5]


def test_equal_spots_match_unweighted_shape():
    rng = np.random.default_rng(31)
    samples = {s: list(rng.normal(2.0, 1.0, 80)) for s in ("A", "B")}
    weighted = weighted_merge(samples, "m")
    flat = np.concatenate([samples["A"], samples["B"]])
    masses, _ = np.histogram(flat, bins=weighted["bin_edges"])
    assert np.allclose(np.divide(weighted["masses"], sum(weighted["masses"])),
                       masses / masses.sum())


def test_normalized_histogram_invariant_under_duplication():
    rng = np.random.default_rng(32)
    samples = {"A": list(rng.normal(-2, 1.5, 60)),
               "B": list(rng.normal(1, 0.8, 200))}
    base = weighted_merge(samples, "m")
    tripled = weighted_merge({s: v * 3 for s, v in samples.items()}, "m")
    assert np.allclose(base["bin_edges"], tripled["bin_edges"])
    assert np.allclose(np.divide(base["masses"], sum(base["masses"])),
                       np.divide(tripled["masses"], sum(tripled["masses"])))
    assert base["spot_weights"] == tripled["spot_weights"]


def test_positive_only_filter():
    dist = weighted_merge({"A": [-1.0, 2.0], "B": [3.0, -4.0]}, "m",
                          positive_only=True)
    assert dist["samples"] == [2.0, 3.0]


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


def _paper_ranges():
    neg = _inversion_oracle(PAPER_NEG, -6.0, -0.5)
    pos = _inversion_oracle(PAPER_POS, 0.3, 6.0)
    return psm_ranges(neg + pos, [1.0] * 16)


def _range_of(ranges, psm_seconds):
    """The range `stopping_by_psm_range` puts one scene with this PSM in."""
    (row,) = stopping_by_psm_range({"D": [_scene(psm=psm_seconds)]},
                                   ranges, 10.0)
    return row[0]


def test_psm_ranges_reproduce_published_boundaries():
    ranges = _paper_ranges()
    assert ranges["negative"] == pytest.approx(PAPER_NEG, abs=1e-6)
    assert ranges["positive"] == pytest.approx(PAPER_POS, abs=1e-6)
    bounds = range_edges(ranges)
    assert bounds[0] == -math.inf and bounds[-1] == math.inf
    assert bounds[4] == 0.0


def test_minus_one_point_five_bins_to_range_four():
    assert _range_of(_paper_ranges(), -1.5) == 4


def test_range_of_every_band():
    ranges = _paper_ranges()
    assert _range_of(ranges, -10.0) == 1
    assert _range_of(ranges, -4.0) == 2
    assert _range_of(ranges, -2.5) == 3
    assert _range_of(ranges, -0.1) == 4
    assert _range_of(ranges, 0.5) == 5
    assert _range_of(ranges, 2.0) == 6
    assert _range_of(ranges, 3.0) == 7
    assert _range_of(ranges, 10.0) == 8


def test_range_edges_and_non_finite_psm():
    # An edge opens its range; -inf lands in range 1, inf and NaN in 8.
    ranges = _paper_ranges()
    edges = range_edges(ranges)
    assert [_range_of(ranges, e) for e in edges[1:-1]] == list(range(2, 9))
    assert _range_of(ranges, -math.inf) == 1
    assert _range_of(ranges, math.inf) == 8
    assert _range_of(ranges, math.nan) == 8


def test_symmetric_distribution_mirrors_boundaries():
    # 201 samples per side: the quartile positions fall strictly between
    # order statistics, where the inverse-CDF quantile mirrors exactly.
    rng = np.random.default_rng(33)
    pos = rng.uniform(0.1, 5.0, 201)
    samples = np.concatenate([pos, -pos])
    ranges = psm_ranges(samples, np.ones_like(samples))
    assert ranges["negative"] == pytest.approx(
        [-v for v in reversed(ranges["positive"])])


def test_one_sided_distribution_rejected():
    assert psm_ranges([1.0, 2.0, 3.0], [1.0] * 3) is None
    assert psm_ranges([-1.0, 0.0], [1.0] * 2) is None


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
    ranges = psm_ranges(samples, np.ones_like(samples))
    for sign_mask in (samples < 0, samples > 0):
        side = samples[sign_mask]
        counts = np.zeros(8)
        for v in side:
            counts[_range_of(ranges, v) - 1] += 1
        for c in counts[counts > 0]:
            assert abs(c - len(side) / 4) <= 1


# --- stopping by PSM range ----------------------------------------------------------


def test_stopping_by_range_single_cell():
    ranges = _paper_ranges()
    scenes = [_qualifying(f"s{k}", True) for k in range(4)]
    for s in scenes:
        s.psm_seconds = 0.5          # all land in range 5
    assert stopping_by_psm_range({"D": scenes}, ranges, 10.0) == [
        [5, "D", 4, 4, 100.0]]


def test_stopping_by_range_monotone_trend():
    # A corpus built so stopping probability falls as the margin grows.
    ranges = _paper_ranges()
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
    table = stopping_by_psm_range({"D": scenes}, ranges, 10.0)
    assert [row[:2] for row in table] == [[r, "D"] for r in (5, 6, 7, 8)]
    pcts = [row[4] for row in table]
    assert all(a > b for a, b in zip(pcts, pcts[1:]))


# --- report files ------------------------------------------------------------------


def test_emit_report_empty_corpus(tmp_path):
    files = emit_report(tmp_path, analysis_record([], 10.0))
    speed = (tmp_path / "speed_stats.csv").read_text().strip().splitlines()
    assert speed == ["spot,max_kmh,min_kmh,mean_kmh,car_only_mean_kmh,"
                     "interactive_mean_kmh"]
    assert all(f.exists() for f in files)


def test_emit_report_table_five_shape(tmp_path):
    scenes = [_scene(speeds=[10.0]),
              _scene(scene_id="s1", speeds=[20.0], interactive=True)]
    emit_report(tmp_path, analysis_record([("A", False, scenes)], 10.0))
    with open(tmp_path / "speed_stats.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["spot"] == "A"
    assert set(rows[0]) == {"spot", "max_kmh", "min_kmh", "mean_kmh",
                            "car_only_mean_kmh", "interactive_mean_kmh"}


def test_emit_report_histogram_rows_match_bins(tmp_path):
    spots = [(spot, True, [_scene(scene_id=f"{spot}{k}", psm=v)
                           for k, v in enumerate(psms)])
             for spot, psms in (("A", [1.0, 2.0, 3.0]), ("B", [2.0, 4.0]))]
    record = analysis_record(spots, 10.0)
    emit_report(tmp_path, record)
    (dist,) = record["distributions"]
    rows = (tmp_path / f"psm_hist_{dist['group']}.csv").read_text(
    ).strip().splitlines()
    assert len(rows) - 1 == len(dist["masses"])


# --- the analysis policy --------------------------------------------------------


def test_analysis_record_keeps_signalized_spots_out_of_the_range_table():
    # Every spot holds scenes on both sides of zero; only the two
    # unsignalized ones may reach the ranges and the stopping table.
    def spot(name, psms):
        return [_scene(scene_id=f"{name}{k}", spot=name, interactive=True,
                       in_crossing=True, psm=v, stopped=k % 2 == 0,
                       stop_distance=4.0 if k % 2 == 0 else None)
                for k, v in enumerate(psms)]

    signalized = spot("A", [-9.0, -5.0, 5.0, 9.0])
    unsig = {"B": spot("B", [-3.0, -1.0, 1.0, 3.0]),
             "C": spot("C", [-2.0, -0.5, 0.5, 2.0, 4.0])}
    record = analysis_record([("A", True, signalized), ("B", False, unsig["B"]),
                              ("C", False, unsig["C"])], 10.0)

    assert [d["group"] for d in record["distributions"]] == [
        "signalized_positive", "unsignalized_positive",
        "unsignalized_weighted"]
    sig_positive, _, weighted = record["distributions"]
    assert sig_positive["samples"] == [5.0, 9.0]
    assert set(weighted["spot_weights"]) == {"B", "C"}
    assert sorted(weighted["samples"]) == sorted(
        f.psm_seconds for scenes in unsig.values() for f in scenes)

    assert {row[1] for row in record["range_table"]} == {"B", "C"}
    assert sum(row[2] for row in record["range_table"]) == 9
    assert [s["spot"] for s in record["stats"]] == ["A", "B", "C"]
    assert [row[0] for row in record["stopping"]] == ["A", "B", "C"]
