"""Tests of the benchmark itself: seeded corpora, the truth oracle, the
tail percentile and the tracer."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from crossrisk import stages, synth, tracker  # noqa: E402
from crossrisk.tracker import TrackerParams  # noqa: E402


def corpus_bytes(out_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", ["crowd", "lossy"])
def test_same_seed_same_corpus_other_seed_other_corpus(tmp_path, workload):
    runs = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.build(workload, seed, tmp_path / name)
        runs[name] = corpus_bytes(tmp_path / name)
    assert runs["a"] == runs["b"]
    assert runs["a"].keys() == runs["c"].keys()
    assert runs["a"] != runs["c"]


def test_bulk_scripts_follow_the_seed():
    scripts = [workloads.specs("bulk", seed)[0].agents for seed in (5, 5, 6)]
    assert scripts[0] == scripts[1] != scripts[2]
    assert len([a for a in scripts[0] if a.agent_id.startswith("v")]) == 1850


def test_crowd_lanes_never_overtake():
    spec = workloads.specs("crowd", 3)[0]
    by_lane = {}
    for agent in spec.agents:
        if agent.object_class.value == "vehicle":
            (t0, _, y), (t1, _, _) = agent.waypoints
            by_lane.setdefault(y, []).append((t0, t1))
    assert sorted(by_lane) == sorted(workloads.LANES_M)
    for passes in by_lane.values():
        passes.sort()
        for (a0, a1), (b0, b1) in zip(passes, passes[1:]):
            assert b0 - a0 >= workloads.LANE_HEADWAY_S - 1e-9
            assert b1 - a1 >= workloads.LANE_HEADWAY_S - 1e-9


def standard_spot(tmp_path: Path, name: str):
    """One named scenario written as a spot and run through extract."""
    spec = next(s for s, _ in synth.standard_corpus() if s.name == name)
    truth = workloads.write_spot(tmp_path, spec)
    cfg = stages.PipelineConfig(out_dir=tmp_path)
    for run in (stages.run_segment, stages.run_track, stages.run_extract):
        run(cfg)
    return tmp_path, spec, truth


def test_single_pass_tracks_perfectly(tmp_path):
    out, spec, truth = standard_spot(tmp_path, "single_pass")
    report, purity = oracle.track_scores(
        out, {spec.name: truth.emitted_frames}, TrackerParams())
    assert (report.scenes_total, report.accuracy, purity) == (1, 1.0, 1.0)


def test_merged_identities_score_zero(tmp_path):
    out, spec, truth = standard_spot(tmp_path, "parallel_pair")
    path = out / spec.name / "trajectories.jsonl"
    header, *rows = path.read_text().splitlines()
    merged = [json.dumps(dict(json.loads(r), object_id="t0000")) for r in rows]
    path.write_text("\n".join([header, *merged]) + "\n")
    report, purity = oracle.track_scores(
        out, {spec.name: truth.emitted_frames}, TrackerParams())
    assert report.directivity >= 1
    assert report.accuracy == 0.0
    # Two vehicles of equal length in one track: half its points are the
    # minority agent's.
    assert purity == pytest.approx(0.5, abs=0.05)


def test_near_miss_psm_matches_the_analytic_value(tmp_path):
    out, spec, _ = standard_spot(tmp_path, "near_miss")
    vehicle, ped = spec.agents
    # The vehicle reaches x = 0 at 6 + 26 / 8 s; the pedestrian walks
    # 1.5 m/s from y = 9 and reaches the lane at y = -3.5 after 12.5 / 1.5 s.
    t_veh, t_ped = oracle.conflict_times(vehicle, ped)
    assert t_veh == pytest.approx(9.25)
    assert t_ped == pytest.approx(12.5 / 1.5)
    assert synth.analytic_psm(vehicle, ped) == pytest.approx(t_veh - t_ped)

    errors, missed = oracle.psm_errors(out, [spec], oracle.psm_by_scene(out))
    assert missed == 0 and len(errors) == 1
    assert errors[0] < 0.05

    errors, missed = oracle.psm_errors(out, [spec], {spec.name: {}})
    assert (errors, missed) == ([], 1)


def test_stage_file_checks(tmp_path):
    out, spec, _ = standard_spot(tmp_path, "near_miss")
    checks = oracle.schema_checks(out, ["detections", "scenes", "trajectories",
                                        "features"])
    assert len(checks) == 4 and all(checks.values())
    (out / spec.name / "scenes.jsonl").write_text('{"schema": "other"}\n')
    assert not oracle.header_ok(out / spec.name / "scenes.jsonl", "scenes")


@pytest.mark.parametrize("n, tail, value", [(600, 98.0, 588), (1850, 99.0, 1832)])
def test_tail_is_highest_percentile_with_ten_beyond(n, tail, value):
    assert oracle.tail_percentile(n) == tail
    values = list(range(n, 0, -1))
    assert oracle.percentile(values, tail) == value
    assert sum(v > value for v in values) >= oracle.TAIL_MIN_BEYOND
    assert oracle.percentile(values, 50) == n // 2


def test_tail_needs_ten_samples_beyond():
    assert oracle.tail_percentile(10) is None
    assert oracle.tail_percentile(20) == 50.0


def test_tracer_counts_calls_and_restores_originals():
    spec = next(s for s, _ in synth.standard_corpus() if s.name == "near_miss")
    records, _ = synth.generate(spec)
    calibration = spec.config.build_calibration()

    original = tracker.kalman_update
    assert tracing.installed_wrappers() == []
    with tracing.Tracer("test") as tr:
        assert len(tracing.installed_wrappers()) == len(tracing.TARGETS)
        with tr.span("stages.track"):
            tracker.track_scene(records, TrackerParams(), calibration,
                                fps=25.0, frame_stride=5)
    assert tracing.installed_wrappers() == []
    assert tracker.kalman_update is original
    (scene,) = tr.scene_spans("tracker.track_scene")
    assert scene.items == len(records)
    assert scene.calls["tracker.kalman_update"].count > 0
    assert tr.totals()["tracker.assign"].count == scene.calls["tracker.assign"].count
