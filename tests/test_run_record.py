"""`run.json`, the stages that skip a spot whose output is current, and
the extract stage's derive-only path.

Segment and track do no work for a spot whose `scenes.jsonl` or
`trajectories.jsonl` is the file `run.json` recorded, made from the spot
files, package source and tracker parameters there now; these tests hold
what they leave to a fresh run's bytes, and check that each change to
what the file was made from makes the stage run again. Extract reads
`features.jsonl` instead of the tracks when `run.json` shows that the file
is the one it wrote, measured from the config, scenes and tracks that are
there now; it then only derives the four `FeatureParams` fields of each
row again. These tests hold that path to a full extract of a copy with no
`run.json`, byte for byte, and check that each change to what a row was
measured from makes extract measure again. The last ones hold the
refusals of stale inputs: each stage checks every spot before any work,
and analyze compares the features' entry with those of their inputs; and
the files left by a stage that fails, at any worker count, or whose write
fails."""

import errno
import hashlib
import json
import os
import re
import shutil
import tempfile
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crossrisk import features as feat, motion_gate, stages, tracker
from crossrisk.errors import IoFailure, MalformedRecord, StaleInput
from crossrisk.features import FeatureParams
from crossrisk.ingest import dumps_sorted
from crossrisk.stages import (
    SCHEMAS,
    PipelineConfig,
    read_scenes,
    run_all,
    run_analyze,
    run_extract,
    run_report,
    run_segment,
    run_synth,
    run_track,
    scene_runs,
)
from crossrisk.tracker import TrackerParams


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_digest() -> str:
    """Every source file of the package by name and sha256, hashed."""
    files = sorted(Path(stages.__file__).parent.glob("*.py"))
    assert {"features.py", "stages.py", "geometry.py"} <= {
        p.name for p in files}
    return hashlib.sha256("".join(f"{p.name} {_sha256(p)}\n"
                                  for p in files).encode()).hexdigest()


class _Counted:
    """Counts the calls of `module.name` while patched in."""

    def __init__(self, monkeypatch, module, name):
        self.calls = 0
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


class _Measured(_Counted):
    """Counts `extract_scene_features` calls while patched in."""

    def __init__(self, monkeypatch):
        super().__init__(monkeypatch, feat, "extract_scene_features")


def _extract_to_report(cfg: PipelineConfig) -> None:
    run_extract(cfg)
    run_analyze(cfg)
    run_report(cfg)


def _outputs(out_dir: Path) -> dict:
    """Every features file and report CSV, by path."""
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.glob("*/features.jsonl"))
            + sorted((out_dir / "report").glob("*.csv"))}


def _full_extract_of_a_copy(out_dir: Path, copy: Path,
                            params: FeatureParams) -> dict:
    """The outputs of extract → report under `params` on a copy of
    `out_dir` without `run.json`, so every scene is measured."""
    shutil.copytree(out_dir, copy)
    (copy / "run.json").unlink()
    _extract_to_report(PipelineConfig(out_dir=copy, features=params))
    return _outputs(copy)


@pytest.fixture(scope="module")
def standard(tmp_path_factory):
    """The standard corpus, seed 3, run end to end. Its stop_and_go spot
    has a scene whose vehicle stops, so the stop fields vary with the
    parameters."""
    out_dir = tmp_path_factory.mktemp("standard")
    run_all(PipelineConfig(out_dir=out_dir, seed=3))
    rows = [json.loads(line) for d in out_dir.iterdir() if d.is_dir()
            and (d / "features.jsonl").exists()
            for line in (d / "features.jsonl").read_text().splitlines()[1:]]
    assert any(r["car_stop_before_crosswalk"] == "stop" for r in rows)
    return out_dir


_PARAMS = st.builds(
    FeatureParams,
    alpha=st.floats(0, 1, exclude_min=True),
    epsilon_kmh=st.floats(0, 10),
    stop_tolerance_kmh=st.floats(0, 20),
    stop_min_steps=st.integers(1, 8))


@settings(max_examples=12, deadline=None)
@given(first=_PARAMS, second=_PARAMS)
def test_derived_rerun_equals_a_full_extract(standard, first, second):
    # Two re-runs in a row, so the second derives from derived rows.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        out_dir = Path(tmp) / "out"
        shutil.copytree(standard, out_dir)
        measured = _Measured(mp)
        for params in (first, second):
            _extract_to_report(PipelineConfig(out_dir=out_dir,
                                              features=params))
        assert measured.calls == 0
        full = _full_extract_of_a_copy(out_dir, Path(tmp) / "full", second)
        assert measured.calls > 0
        assert _outputs(out_dir) == full


def test_run_record_holds_the_digests_of_what_each_stage_read_and_wrote(
        standard):
    source = {"source": _source_digest()}
    params = {"tracker": json.dumps(asdict(TrackerParams()), sort_keys=True)}
    spots = {}
    for d in sorted(p for p in standard.iterdir() if p.is_dir()
                    and (p / "config.json").exists()):
        digest = {name: _sha256(d / name) for name in (
            "config.json", "detections.jsonl", "scenes.jsonl",
            "trajectories.jsonl", "features.jsonl")}

        def entry(output, *read, more=()):
            return {"read": {k: digest[k] for k in read} | source | dict(more),
                    "sha256": digest[output]}

        spots[d.name] = {
            "scenes.jsonl": entry("scenes.jsonl", "config.json",
                                  "detections.jsonl"),
            "trajectories.jsonl": entry(
                "trajectories.jsonl", "config.json", "detections.jsonl",
                "scenes.jsonl", more=params),
            "features.jsonl": entry("features.jsonl", "config.json",
                                    "detections.jsonl", "scenes.jsonl",
                                    "trajectories.jsonl")}
    record = {"schema": SCHEMAS["run"], "spots": spots}
    assert (standard / "run.json").read_text() == dumps_sorted(record)


def test_track_with_other_tracker_params_makes_extract_measure_again(
        tmp_path, monkeypatch):
    cfg = PipelineConfig(out_dir=tmp_path, seed=3)
    run_all(cfg)
    tracks = {p: p.read_bytes() for p in tmp_path.glob("*/trajectories.jsonl")}
    run_track(replace(cfg, tracker=TrackerParams(process_noise=4.0)))
    assert all(p.read_bytes() != text for p, text in tracks.items())
    measured = _Measured(monkeypatch)
    _extract_to_report(cfg)
    assert measured.calls == sum(
        len(p.read_text().splitlines()) - 1
        for p in tmp_path.glob("*/features.jsonl"))
    assert _outputs(tmp_path) == _full_extract_of_a_copy(
        tmp_path, tmp_path.parent / "full", cfg.features)


def _edit_feature_row(out_dir: Path) -> None:
    path = out_dir / "stop_and_go" / "features.jsonl"
    header, row = path.read_text().splitlines()
    row = json.loads(row)
    row["vehicle_speed_kmh"][3] += 1.0
    path.write_text(f"{header}\n{dumps_sorted(row)}\n")


def _record_of_another_schema(out_dir: Path) -> None:
    path = out_dir / "run.json"
    path.write_text(path.read_text().replace(SCHEMAS["run"],
                                             "crossrisk/run/v0"))


def _features_measured_by_other_source(out_dir: Path) -> None:
    path = out_dir / "run.json"
    record = json.loads(path.read_text())
    for outputs in record["spots"].values():
        outputs["features.jsonl"]["read"]["source"] = "0" * 64
    path.write_text(dumps_sorted(record))


@pytest.mark.parametrize("edit", [_edit_feature_row,
                                  _record_of_another_schema,
                                  _features_measured_by_other_source])
def test_changed_features_or_record_make_extract_measure_again(
        tmp_path, monkeypatch, edit):
    cfg = PipelineConfig(out_dir=tmp_path, seed=3)
    run_all(cfg)
    first = _outputs(tmp_path)
    edit(tmp_path)
    measured = _Measured(monkeypatch)
    _extract_to_report(cfg)
    assert measured.calls > 0
    assert _outputs(tmp_path) == first


@pytest.mark.parametrize("text", ["[1]", '{"schema": "crossrisk/run/v1"}',
                                  '{"schema": "crossrisk/run/v1", "spots": '
                                  '{"near_miss": {"features.jsonl": '
                                  '{"read": {}, "sha256": 5}}}}'])
def test_misshapen_run_record_is_malformed(tmp_path, text):
    cfg = PipelineConfig(out_dir=tmp_path, seed=3)
    run_all(cfg)
    (tmp_path / "run.json").write_text(text)
    with pytest.raises(MalformedRecord, match="run.json: not a run record"):
        run_extract(cfg)


def _fail_track_on_a_bad_line(tmp_path: Path, drop_scenes_entry: bool):
    """Put a bad detection line near the end and check that the failed
    track leaves no tracks and no entry for them. With the scenes' entry,
    track refuses the stale scenes before any write; without it, track
    fails on the bad line inside the write."""
    cfg = PipelineConfig(out_dir=tmp_path, seed=3, spot="single_pass")
    run_all(cfg)
    path = tmp_path / "single_pass" / "detections.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[-3] = "{bad json\n"
    path.write_text("".join(lines))
    record_path = tmp_path / "run.json"
    if drop_scenes_entry:
        record = json.loads(record_path.read_text())
        del record["spots"]["single_pass"]["scenes.jsonl"]
        record_path.write_text(json.dumps(record))
    with pytest.raises(MalformedRecord):
        run_track(cfg)
    record = json.loads(record_path.read_text())
    assert set(record["spots"]["single_pass"]) == (
        {"features.jsonl"} if drop_scenes_entry
        else {"scenes.jsonl", "features.jsonl"})
    assert not (path.parent / "trajectories.jsonl").exists()
    assert not (path.parent / ".trajectories.jsonl.part").exists()


def test_failed_track_leaves_no_entry_for_its_tracks(tmp_path):
    _fail_track_on_a_bad_line(tmp_path, drop_scenes_entry=False)


def test_track_failed_inside_its_write_leaves_no_entry_for_its_tracks(
        tmp_path):
    _fail_track_on_a_bad_line(tmp_path, drop_scenes_entry=True)


def test_derive_only_extract_holds_one_row_at_a_time(tmp_path, monkeypatch):
    # 800 sequential passes: the features of the spot are many times one
    # row, which is all a derive-only re-run needs to hold.
    cfg = PipelineConfig(out_dir=tmp_path, seed=3, corpus="bulk",
                         bulk_scenes=800, noise_sigma=1.0)
    run_synth(cfg)
    run_segment(cfg)
    run_track(cfg)
    run_extract(cfg)
    (spot_dir,) = cfg.spot_dirs()
    measured = _Measured(monkeypatch)
    tracemalloc.start()
    try:
        run_extract(replace(cfg, features=FeatureParams(alpha=0.5,
                                                        epsilon_kmh=1.0)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert measured.calls == 0
    assert peak < (spot_dir / "features.jsonl").stat().st_size / 4


def _copy(standard: Path, tmp_path: Path) -> tuple[Path, PipelineConfig]:
    out_dir = tmp_path / "out"
    shutil.copytree(standard, out_dir)
    return out_dir, PipelineConfig(out_dir=out_dir, seed=3)


def _segment_and_track_calls(monkeypatch) -> tuple[_Counted, _Counted]:
    return (_Counted(monkeypatch, motion_gate, "segment_scenes"),
            _Counted(monkeypatch, tracker, "track_scene"))


def _scenes_and_tracks(out_dir: Path) -> dict:
    """Every scenes and trajectories file, by path."""
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for name in ("scenes.jsonl", "trajectories.jsonl")
            for p in sorted(out_dir.glob(f"*/{name}"))}


def _with_record(out_dir: Path) -> dict:
    """`_scenes_and_tracks` and `run.json`."""
    return _scenes_and_tracks(out_dir) | {
        "run.json": (out_dir / "run.json").read_bytes()}


def _runs(spot_dir: Path) -> int:
    return len(scene_runs(read_scenes(spot_dir)))


def test_second_segment_and_track_do_no_work(standard, tmp_path, monkeypatch,
                                             caplog):
    out_dir, cfg = _copy(standard, tmp_path)
    files = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    segmented, tracked = _segment_and_track_calls(monkeypatch)
    caplog.set_level("INFO", logger="crossrisk.stages")
    run_segment(cfg)
    run_track(cfg)
    assert segmented.calls == tracked.calls == 0
    assert {p: p.read_bytes() for p in files} == files
    for name in ("scenes.jsonl", "trajectories.jsonl"):
        assert caplog.text.count(f"{name} is up to date") == len(
            cfg.spot_dirs())


def _cut_detections(spot_dir: Path) -> None:
    """Drop the spot's detections after frame 155."""
    path = spot_dir / "detections.jsonl"
    header, *rows = path.read_text().splitlines()
    path.write_text("".join(f"{line}\n" for line in [header, *(
        r for r in rows if json.loads(r)["frame"] <= 155)]))


def test_only_the_spot_whose_detections_changed_runs_again(
        standard, tmp_path, monkeypatch):
    out_dir, cfg = _copy(standard, tmp_path)
    _cut_detections(out_dir / "near_miss")
    fresh = tmp_path / "fresh"
    shutil.copytree(out_dir, fresh)
    (fresh / "run.json").unlink()
    segmented, tracked = _segment_and_track_calls(monkeypatch)
    run_segment(cfg)
    run_track(cfg)
    assert segmented.calls == 1
    assert tracked.calls == _runs(out_dir / "near_miss")
    run_segment(replace(cfg, out_dir=fresh))
    run_track(replace(cfg, out_dir=fresh))
    assert segmented.calls == 1 + len(cfg.spot_dirs())
    changed = _scenes_and_tracks(out_dir)
    assert changed == _scenes_and_tracks(fresh)
    assert {k for k, text in _scenes_and_tracks(standard).items()
            if changed[k] != text} == {"near_miss/scenes.jsonl",
                                       "near_miss/trajectories.jsonl"}


def _track_with_other_params(cfg: PipelineConfig) -> list[Path]:
    run_track(replace(cfg, tracker=TrackerParams(process_noise=4.0)))
    return cfg.spot_dirs()


def _tracks_made_by_other_source(cfg: PipelineConfig) -> list[Path]:
    path = cfg.out_dir / "run.json"
    record = json.loads(path.read_text())
    for outputs in record["spots"].values():
        outputs["trajectories.jsonl"]["read"]["source"] = "0" * 64
    path.write_text(dumps_sorted(record))
    return cfg.spot_dirs()


def _edit_track_row(cfg: PipelineConfig) -> list[Path]:
    spot_dir = cfg.out_dir / "stop_and_go"
    path = spot_dir / "trajectories.jsonl"
    header, row, *rest = path.read_text().splitlines()
    row = json.loads(row)
    row["world"][0] += 1.0
    path.write_text("".join(f"{line}\n" for line in
                            [header, dumps_sorted(row), *rest]))
    return [spot_dir]


@pytest.mark.parametrize("edit", [_track_with_other_params,
                                  _tracks_made_by_other_source,
                                  _edit_track_row])
def test_changed_tracks_or_record_make_track_run_again(
        standard, tmp_path, monkeypatch, edit):
    out_dir, cfg = _copy(standard, tmp_path)
    first = _with_record(out_dir)
    edited = edit(cfg)
    assert _with_record(out_dir) != first
    segmented, tracked = _segment_and_track_calls(monkeypatch)
    run_segment(cfg)
    run_track(cfg)
    assert segmented.calls == 0
    assert tracked.calls == sum(map(_runs, edited)) > 0
    assert _with_record(out_dir) == first


def _tree(out_dir: Path) -> dict:
    """Every file under `out_dir`, by path."""
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_refused_track_leaves_the_same_files_at_any_worker_count(
        standard, tmp_path):
    # crossing_pair, the first spot, has tracks to make; near_miss, a later
    # one, has stale scenes. Every spot is checked before any is tracked,
    # so a pool that takes jobs ahead leaves what one worker leaves.
    trees = {}
    for workers in (1, 2):
        out_dir = tmp_path / str(workers)
        shutil.copytree(standard, out_dir)
        (out_dir / "crossing_pair" / "trajectories.jsonl").unlink()
        _cut_detections(out_dir / "near_miss")
        with pytest.raises(StaleInput, match="run segment again$"):
            run_track(PipelineConfig(out_dir=out_dir, workers=workers))
        trees[workers] = _tree(out_dir)
    assert trees[1] == trees[2]
    assert not {"crossing_pair/trajectories.jsonl",
                "near_miss/trajectories.jsonl"} & trees[1].keys()
    record = json.loads(trees[1]["run.json"])["spots"]
    assert "trajectories.jsonl" not in record["near_miss"]


def test_failed_parse_leaves_the_same_files_at_any_worker_count(
        standard, tmp_path):
    # No record and no tracks, and a bad line in near_miss's detections,
    # which track reads only as it writes: the pool, which takes jobs
    # ahead, still hands on the tracks of the spots before near_miss, and
    # the error comes when near_miss's are due, as with one worker.
    trees = {}
    for workers in (1, 2):
        out_dir = tmp_path / str(workers)
        shutil.copytree(standard, out_dir)
        (out_dir / "run.json").unlink()
        for tracks in out_dir.glob("*/trajectories.jsonl"):
            tracks.unlink()
        path = out_dir / "near_miss" / "detections.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[92] = "{bad json\n"
        path.write_text("".join(lines))
        with pytest.raises(MalformedRecord, match="^line 93: .*invalid JSON"):
            run_track(PipelineConfig(out_dir=out_dir, workers=workers))
        trees[workers] = _tree(out_dir)
    assert trees[1] == trees[2]
    assert {"crossing_pair/trajectories.jsonl",
            "multi_pedestrian/trajectories.jsonl"} <= trees[1].keys()
    assert set(json.loads(trees[1]["run.json"])["spots"]) == {
        "crossing_pair", "multi_pedestrian"}


def test_extract_on_stale_scenes_names_segment(standard, tmp_path):
    out_dir, cfg = _copy(standard, tmp_path)
    spot_dir = out_dir / "near_miss"
    _cut_detections(spot_dir)
    with pytest.raises(StaleInput, match=re.escape(
            f"{spot_dir / 'detections.jsonl'} has changed since segment read "
            f"it to write {spot_dir / 'scenes.jsonl'}; run segment again")):
        run_extract(cfg)
    assert not (spot_dir / "features.jsonl").exists()
    record = json.loads((out_dir / "run.json").read_text())["spots"]
    assert "features.jsonl" not in record["near_miss"]


def test_analyze_refuses_features_of_other_scenes(standard, tmp_path):
    # Segment and track run again on the cut detections, extract not: the
    # features are of the old scenes and tracks.
    out_dir, cfg = _copy(standard, tmp_path)
    spot_dir = out_dir / "near_miss"
    _cut_detections(spot_dir)
    fresh = tmp_path / "fresh"
    shutil.copytree(out_dir, fresh)
    (fresh / "run.json").unlink()
    run_segment(cfg)
    run_track(cfg)
    with pytest.raises(StaleInput, match=re.escape(
            f"{spot_dir / 'scenes.jsonl'} has changed since extract read it "
            f"to write {spot_dir / 'features.jsonl'}; run extract again")):
        run_analyze(cfg)
    _extract_to_report(cfg)
    fresh_cfg = replace(cfg, out_dir=fresh)
    run_segment(fresh_cfg)
    run_track(fresh_cfg)
    _extract_to_report(fresh_cfg)
    assert _outputs(out_dir) == _outputs(fresh) != _outputs(standard)


def _failing_replace(monkeypatch, path: Path) -> None:
    """Make renaming a file into place at `path` fail, as on a full disk."""
    replace = os.replace

    def failing(src, dst):
        if Path(dst) == path:
            raise OSError(errno.ENOSPC, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)


@pytest.mark.parametrize("stage, name", [
    (run_synth, "single_pass/config.json"),
    (run_synth, "single_pass/truth.json"),
    (run_segment, "run.json"),
    (run_analyze, "analysis.json"),
    (run_report, "report/speed_stats.csv"),
])
def test_failed_write_leaves_neither_the_file_nor_its_part(
        standard, tmp_path, monkeypatch, stage, name):
    # Each file is left whole or not at all, also one a stage wrote before.
    out_dir, cfg = _copy(standard, tmp_path)
    (out_dir / "near_miss" / "scenes.jsonl").unlink()    # segment records
    path = out_dir / name
    assert path.exists()
    _failing_replace(monkeypatch, path)
    with pytest.raises(IoFailure, match=re.escape(f"cannot write {path}: ")):
        stage(cfg)
    assert not path.exists()
    assert not path.with_name(f".{path.name}.part").exists()


def test_report_after_a_failed_analyze_names_the_missing_record(
        standard, tmp_path, monkeypatch):
    out_dir, cfg = _copy(standard, tmp_path)
    path = out_dir / "analysis.json"
    with monkeypatch.context() as patch:
        _failing_replace(patch, path)
        with pytest.raises(IoFailure):
            run_analyze(cfg)
    with pytest.raises(IoFailure, match=re.escape(f"cannot read {path}: ")):
        run_report(cfg)
