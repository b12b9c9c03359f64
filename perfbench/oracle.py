"""Output checks and quality scores against synthetic ground truth.

Scores come from the truth synth keeps (which agent each detection came
from, the scripted paths and synth.analytic_psm), never from one pipeline
stage checking another. Stage files are read with plain json here, so a
broken stage reader cannot hide a broken stage writer.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from crossrisk import stages, synth
from crossrisk.ingest import ObjectClass
from crossrisk.tracker import (
    TrackerParams,
    TrackPoint,
    Trajectory,
    summarize_validations,
    validate_trajectories,
)

SPOT_FILES = {"detections": "detections.jsonl", "scenes": "scenes.jsonl",
              "trajectories": "trajectories.jsonl",
              "features": "features.jsonl"}
# Written on every run; psm_hist_<group>.csv and the two range-table files
# depend on the data and are checked per workload.
REPORT_CSVS = ("speed_stats.csv", "scene_counts.csv",
               "stopping_percentage.csv", "psm_weights.csv")
RANGE_TABLE_CSVS = ("psm_ranges.csv", "stopping_by_psm_range.csv")

# Candidate percentiles for a tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def spot_dirs(out_dir: Path) -> list[Path]:
    return sorted(p.parent for p in out_dir.glob("*/config.json"))


def iter_rows(path: Path):
    """Data rows of a stage file, after its schema header, one at a time."""
    with open(path) as fh:
        fh.readline()
        for line in fh:
            if line.strip():
                yield json.loads(line)


def read_rows(path: Path) -> list[dict]:
    return list(iter_rows(path))


def header_ok(path: Path, schema_key: str) -> bool:
    """Whether a stage file starts with its schema header."""
    try:
        with open(path) as fh:
            first = fh.readline()
    except OSError:
        return False
    try:
        return json.loads(first) == {"schema": stages.SCHEMAS[schema_key]}
    except json.JSONDecodeError:
        return False


def schema_checks(out_dir: Path, keys) -> dict[str, bool]:
    """Header check of every spot's stage file of each key in keys."""
    return {f"{d.name}/{SPOT_FILES[k]}": header_ok(d / SPOT_FILES[k], k)
            for d in spot_dirs(out_dir) for k in keys}


def analysis_ok(out_dir: Path) -> bool:
    try:
        doc = json.loads((out_dir / "analysis.json").read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return doc.get("schema") == stages.SCHEMAS["analysis"]


def report_checks(out_dir: Path, range_table: bool) -> dict[str, bool]:
    names = REPORT_CSVS + (RANGE_TABLE_CSVS if range_table else ())
    report = out_dir / "report"
    checks = {f"report/{n}": (report / n).is_file()
              and (report / n).stat().st_size > 0 for n in names}
    checks["report/psm_hist_*.csv"] = any(report.glob("psm_hist_*.csv"))
    return checks


def sha256(paths) -> str:
    """One digest over the names and bytes of the given files."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def output_digests(out_dir: Path) -> dict[str, str]:
    return {
        "report_csv_sha256": sha256((out_dir / "report").glob("*.csv")),
        "features_sha256": sha256(d / "features.jsonl"
                                  for d in spot_dirs(out_dir)),
    }


def megabytes(paths) -> float:
    return sum(p.stat().st_size for p in paths) / 1e6


def stage_bytes_mb(out_dir: Path) -> float:
    """Size of every stage file: all but the synth truth sidecar."""
    return megabytes(p for p in out_dir.rglob("*")
                     if p.is_file() and p.name != "truth.json")


def count_detections(out_dir: Path) -> int:
    total = 0
    for d in spot_dirs(out_dir):
        with open(d / "detections.jsonl") as fh:
            total += sum(1 for line in fh if line.strip()) - 1
    return total


def count_scenes(out_dir: Path) -> int:
    return sum(len(read_rows(d / "scenes.jsonl")) for d in spot_dirs(out_dir))


def psm_by_scene(out_dir: Path) -> dict[str, dict[str, float | None]]:
    """Per spot, the refined PSM of every scene with a feature bundle."""
    return {d.name: {r["scene_id"]: r["psm_seconds_refined"]
                     for r in iter_rows(d / "features.jsonl")}
            for d in spot_dirs(out_dir)}


def track_scores(out_dir: Path, frames_by_spot: dict, params: TrackerParams):
    """Score every scene's tracks against the detection provenance synth
    recorded.

    Returns the trajectory-quality table (its accuracy is the share of
    scenes with no violation) and the track purity: the share of tracked
    points that belong to their track's majority agent.
    """
    validations = []
    majority = points = 0
    for d in spot_dirs(out_dir):
        provenance = {(f, agent): agent
                      for agent, frames in frames_by_spot[d.name].items()
                      for f in frames}
        stride = json.loads((d / "config.json").read_text())["frame_skip"]
        per_scene = _trajectories(d / "trajectories.jsonl")
        for scene in read_rows(d / "scenes.jsonl"):
            tracks = per_scene.get(scene["scene_id"], [])
            validations.append(validate_trajectories(
                tracks, truth=provenance, params=params, frame_stride=stride))
            for track in tracks:
                agents = Counter(provenance.get((p.frame, p.detection_id))
                                 for p in track.points)
                majority += agents.most_common(1)[0][1]
                points += len(track.points)
    return summarize_validations(validations), majority / max(points, 1)


def _trajectories(path: Path) -> dict[str, list[Trajectory]]:
    """Tracks per scene, holding just what validation reads."""
    points: dict[tuple[str, str], list[TrackPoint]] = {}
    classes: dict[tuple[str, str], str] = {}
    for r in read_rows(path):
        key = (r["scene_id"], r["object_id"])
        points.setdefault(key, []).append(TrackPoint(
            frame=r["frame"], t=r["t"], raw_px=tuple(r["raw_px"]),
            smooth_px=tuple(r["smooth_px"]), world=tuple(r["world"]),
            detection_id=r["det"]))
        classes[key] = r["class"]
    out: dict[str, list[Trajectory]] = {}
    for (scene, oid), pts in sorted(points.items()):
        out.setdefault(scene, []).append(Trajectory(
            oid, ObjectClass(classes[(scene, oid)]),
            sorted(pts, key=lambda p: p.frame)))
    return out


def psm_errors(out_dir: Path, specs, psm_by_spot: dict[str, dict[str, float | None]]):
    """|psm_seconds_refined - synth.analytic_psm| per scene in whose window
    exactly one pedestrian agent reaches its conflict point with the
    scene's vehicle. Returns (errors, such scenes with no pipeline PSM)."""
    errors: list[float] = []
    missed = 0
    for spec in specs:
        spot = spec.config.spot_id
        scripts = {a.agent_id: a for a in spec.agents}
        peds = [a for a in spec.agents
                if a.object_class is ObjectClass.PEDESTRIAN]
        fps = spec.config.fps
        pipeline = psm_by_spot[spot]
        for scene in read_rows(out_dir / spot / "scenes.jsonl"):
            lo, hi = scene["frame_start"] / fps, scene["frame_end"] / fps
            vehicle = scripts[scene["vehicle"]]
            in_window = []
            for ped in peds:
                if ped.t_end < lo or ped.t_start > hi:
                    continue
                times = conflict_times(vehicle, ped)
                if times is not None and lo <= times[1] <= hi:
                    in_window.append(ped)
            if len(in_window) != 1:
                continue
            truth = synth.analytic_psm(vehicle, in_window[0])
            value = pipeline.get(scene["scene_id"])
            if value is None:
                missed += 1
            else:
                errors.append(abs(value - truth))
    return errors, missed


def conflict_times(vehicle, pedestrian) -> tuple[float, float] | None:
    """(vehicle time, pedestrian time) at the first point, in vehicle
    time, where the two scripted paths meet; None when they never do."""
    hits = []
    for (t0, x0, y0), (t1, x1, y1) in zip(vehicle.waypoints,
                                          vehicle.waypoints[1:]):
        for (s0, a0, b0), (s1, a1, b1) in zip(pedestrian.waypoints,
                                              pedestrian.waypoints[1:]):
            dx, dy, ex, ey = x1 - x0, y1 - y0, a1 - a0, b1 - b0
            denom = dx * ey - dy * ex
            if denom == 0:
                continue
            u = ((a0 - x0) * ey - (b0 - y0) * ex) / denom
            v = ((a0 - x0) * dy - (b0 - y0) * dx) / denom
            if 0 <= u <= 1 and 0 <= v <= 1:
                hits.append((t0 + u * (t1 - t0), s0 + v * (s1 - s0)))
    return min(hits) if hits else None


# --- percentiles -----------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p % of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least ten samples beyond
    its nearest rank, or None when n is too small for any."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p * n / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return None
