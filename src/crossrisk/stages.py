"""Stage files and pipeline runners.

Every stage reads the previous stage's files and writes its own, all under
one output directory with one subdirectory per camera spot:

    out/<spot>/config.json         spot metadata and calibration
    out/<spot>/detections.jsonl    detector output (or synthetic)
    out/<spot>/truth.json          ground-truth sidecar (synthetic only)
    out/<spot>/scenes.jsonl        per-vehicle scene index
    out/<spot>/trajectories.jsonl  one line per tracked point
    out/<spot>/features.jsonl      one feature bundle per scene
    out/analysis.json              aggregated statistics
    out/report/*.csv               final tables and plot data

Stage files are self-describing: the first line names the schema. All
writers sort their output canonically so results are byte-identical
regardless of worker count.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analytics, features as feat, motion_gate, synth, tracker
from .errors import (
    EmptySpot,
    IoFailure,
    MalformedRecord,
    NoQualifyingScenes,
    OneSidedDistribution,
    PipelineError,
    ZeroHeading,
)
from .features import FeatureParams, PedestrianZone, SceneFeatures, VehicleZone
from .ingest import (
    ObjectClass,
    SpotConfig,
    format_detection,
    parse_detections,
    parse_spot_config,
    spot_config_to_dict,
)
from .motion_gate import MotionParams, SceneSpan
from .tracker import TrackerParams, TrackPoint, Trajectory

log = logging.getLogger(__name__)

SCHEMAS = {
    "detections": "crossrisk/detections/v1",
    "scenes": "crossrisk/scenes/v1",
    "trajectories": "crossrisk/trajectories/v1",
    "features": "crossrisk/features/v1",
    "analysis": "crossrisk/analysis/v1",
    "truth": "crossrisk/truth/v1",
}


def write_jsonl(path, schema_key: str, rows) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(json.dumps({"schema": SCHEMAS[schema_key]}) + "\n")
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_jsonl(path, schema_key: str) -> list[dict]:
    try:
        with open(path) as fh:
            first = fh.readline().strip()
            header = json.loads(first) if first else {}
            if header.get("schema") != SCHEMAS[schema_key]:
                raise MalformedRecord(
                    1, f"{path}: expected schema {SCHEMAS[schema_key]!r}, "
                    f"found {header.get('schema')!r}")
            return [json.loads(line) for line in fh if line.strip()]
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


@dataclass
class PipelineConfig:
    """Everything the CLI stages need, with CLI-flag overrides applied."""

    out_dir: Path
    seed: int = 0
    workers: int = 1
    corpus: str = "standard"          # synth stage: standard | bulk
    bulk_scenes: int = 400
    noise_sigma: float = 0.0
    drop_probability: float = 0.0
    spot: str | None = None           # restrict stages to one spot
    baseline_m: float = 10.0
    speed_reduce: str = "mean"
    tracker: TrackerParams = field(default_factory=TrackerParams)
    features: FeatureParams = field(default_factory=FeatureParams)

    def spot_dirs(self) -> list[Path]:
        root = Path(self.out_dir)
        dirs = sorted(p for p in root.iterdir()
                      if p.is_dir() and (p / "config.json").exists())
        if self.spot is not None:
            dirs = [d for d in dirs if d.name == self.spot]
            if not dirs:
                raise PipelineError(f"no spot directory named {self.spot!r}")
        return dirs


def load_spot_config(spot_dir: Path) -> SpotConfig:
    try:
        text = (spot_dir / "config.json").read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read {spot_dir}/config.json: {exc}") from exc
    return parse_spot_config(text)


def load_detections(spot_dir: Path, config: SpotConfig):
    try:
        with open(spot_dir / "detections.jsonl") as fh:
            return parse_detections(fh, config)
    except OSError as exc:
        raise IoFailure(f"cannot read {spot_dir}/detections.jsonl: {exc}") from exc


# --- synth stage --------------------------------------------------------------


def _truth_record(truth: synth.GroundTruth) -> dict:
    return {
        "fps": truth.fps,
        "psm_seconds": truth.psm_seconds,
        "stopped": truth.stopped,
        "tracks": {
            aid: {
                "class": t.object_class.value,
                "frames": t.frames,
                "world": [list(p) for p in t.world],
            } for aid, t in sorted(truth.tracks.items())
        },
        "emitted_frames": {k: v for k, v in sorted(truth.emitted_frames.items())},
        "spans": [_span_record(s) for s in truth.spans],
    }


def run_synth(cfg: PipelineConfig) -> list[Path]:
    """Generate the synthetic corpus, one spot directory per scenario."""
    root = Path(cfg.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    if cfg.corpus == "standard":
        specs = [synth.ScenarioSpec(
            name=spec.name, config=spec.config, agents=spec.agents,
            noise_sigma=cfg.noise_sigma, drop_probability=cfg.drop_probability,
            seed=cfg.seed + i)
            for i, (spec, _) in enumerate(synth.standard_corpus())]
    elif cfg.corpus == "bulk":
        specs = [synth.traffic_spec(cfg.bulk_scenes, seed=cfg.seed,
                                    noise_sigma=cfg.noise_sigma)]
    else:
        raise PipelineError(f"unknown corpus {cfg.corpus!r}")

    dirs = []
    for spec in specs:
        records, truth = synth.generate(spec)
        spot_dir = root / spec.config.spot_id
        spot_dir.mkdir(exist_ok=True)
        (spot_dir / "config.json").write_text(
            json.dumps(spot_config_to_dict(spec.config), sort_keys=True, indent=1))
        try:
            with open(spot_dir / "detections.jsonl", "w") as fh:
                fh.write(json.dumps({"schema": SCHEMAS["detections"]}) + "\n")
                for rec in records:
                    fh.write(format_detection(rec) + "\n")
        except OSError as exc:
            raise IoFailure(f"cannot write detections: {exc}") from exc
        (spot_dir / "truth.json").write_text(
            json.dumps({"schema": SCHEMAS["truth"], **_truth_record(truth)},
                       sort_keys=True))
        log.info("synth %s: %d detections, %d agents",
                 spec.name, len(records), len(spec.agents))
        dirs.append(spot_dir)
    return dirs


# --- segment stage --------------------------------------------------------------


def run_segment(cfg: PipelineConfig) -> None:
    for spot_dir in cfg.spot_dirs():
        config = load_spot_config(spot_dir)
        records = load_detections(spot_dir, config)
        spans = motion_gate.segment_scenes(
            records, params=MotionParams.for_config(config))
        write_jsonl(spot_dir / "scenes.jsonl", "scenes",
                    (_span_record(s) for s in spans))
        frames = sum((s.frame_end - s.frame_start) // config.frame_skip + 1
                     for s in spans)
        inter = sum(1 for s in spans if s.interactive)
        avg = frames / len(spans) if spans else 0.0
        log.info(
            "spot %s: %d scenes (%d car-only, %d interactive), %d frames, "
            "avg %.2f frames/scene (%.2f sec)",
            config.spot_id, len(spans), len(spans) - inter, inter, frames,
            avg, avg * config.frame_skip / config.fps)


def _span_record(span: SceneSpan) -> dict:
    """One `scenes.jsonl` row, also used for the spans in `truth.json`;
    `read_scenes` reads it back."""
    return {"scene_id": span.scene_id, "vehicle": span.vehicle_track_hint,
            "frame_start": span.frame_start, "frame_end": span.frame_end,
            "interactive": span.interactive}


def read_scenes(spot_dir: Path) -> list[SceneSpan]:
    return [SceneSpan(scene_id=r["scene_id"], vehicle_track_hint=r["vehicle"],
                      frame_start=r["frame_start"], frame_end=r["frame_end"],
                      interactive=r["interactive"])
            for r in read_jsonl(spot_dir / "scenes.jsonl", "scenes")]


# --- track stage --------------------------------------------------------------


def _track_scene_job(args):
    span_id, records, config, calib, params = args
    trajectories = tracker.track_scene(records, params, calib,
                                       fps=config.fps,
                                       frame_stride=config.frame_skip)
    rows = []
    for traj in trajectories:
        for p in traj.points:
            rows.append({
                "scene_id": span_id, "object_id": traj.object_id,
                "class": traj.object_class.value, "frame": p.frame,
                "t": p.t, "raw_px": list(p.raw_px),
                "smooth_px": list(p.smooth_px), "world": list(p.world),
                "det": p.detection_id,
            })
    return rows


def run_track(cfg: PipelineConfig) -> None:
    from bisect import bisect_left, bisect_right

    for spot_dir in cfg.spot_dirs():
        config = load_spot_config(spot_dir)
        calib = config.build_calibration()
        records = load_detections(spot_dir, config)
        spans = read_scenes(spot_dir)
        frames = [r.frame_index for r in records]   # already frame-ordered
        jobs = []
        for span in spans:
            lo = bisect_left(frames, span.frame_start)
            hi = bisect_right(frames, span.frame_end)
            jobs.append((span.scene_id, records[lo:hi], config, calib,
                         cfg.tracker))
        results = _map_jobs(_track_scene_job, jobs, cfg.workers)
        rows = [row for res in results for row in res]
        rows.sort(key=lambda r: (r["scene_id"], r["object_id"], r["frame"]))
        write_jsonl(spot_dir / "trajectories.jsonl", "trajectories", rows)
        log.info("spot %s: tracked %d scenes, %d trajectory points",
                 config.spot_id, len(spans), len(rows))


def read_trajectories(spot_dir: Path) -> dict[str, list[Trajectory]]:
    """Trajectories grouped by scene, rebuilt from the dump."""
    by_scene: dict[str, dict[str, list[TrackPoint]]] = {}
    classes: dict[tuple[str, str], ObjectClass] = {}
    for r in read_jsonl(spot_dir / "trajectories.jsonl", "trajectories"):
        pt = TrackPoint(frame=r["frame"], t=r["t"],
                        raw_px=tuple(r["raw_px"]),
                        smooth_px=tuple(r["smooth_px"]),
                        world=tuple(r["world"]), detection_id=r["det"])
        by_scene.setdefault(r["scene_id"], {}).setdefault(
            r["object_id"], []).append(pt)
        classes[(r["scene_id"], r["object_id"])] = ObjectClass(r["class"])
    out: dict[str, list[Trajectory]] = {}
    for scene_id, tracks in by_scene.items():
        out[scene_id] = [
            Trajectory(object_id=oid, object_class=classes[(scene_id, oid)],
                       points=sorted(pts, key=lambda p: p.frame))
            for oid, pts in sorted(tracks.items())
        ]
    return out


# --- extract stage --------------------------------------------------------------


def features_to_record(f: SceneFeatures) -> dict:
    """One `features.jsonl` record for a bundle.

    The two pedestrian maps are independent: an id may carry speeds, zones
    or both. Each `pedestrians` entry holds `speed_kmh` only when the id has
    speeds and `position_list` only when it has zones, so
    `record_to_features` gives back the same bundle.
    """
    return {
        "scene_id": f.scene_id,
        "spot_id": f.spot_id,
        "frame_start": f.frame_start,
        "frame_end": f.frame_end,
        "interactive": f.interactive,
        "vehicle_id": f.vehicle_id,
        "vehicle_speed_kmh": f.vehicle_speeds_kmh,
        "vehicle_position_list": [z.value for z in f.vehicle_zones],
        "vehicle_acceleration_list": f.vehicle_accelerations,
        "vehicle_acceleration_runs": f.vehicle_acceleration_runs,
        "crosswalk_distance_m": f.crosswalk_distances_m,
        "car_stop_before_crosswalk": "stop" if f.stopped else "no stop",
        "stop_distance_m": f.stop_distance_m,
        "pedestrians": {
            pid: _pedestrian_record(f, pid)
            for pid in sorted(f.pedestrian_speeds_kmh.keys()
                              | f.pedestrian_zones.keys())
        },
        "vehicle_pedestrian_distance_m": f.distances_m,
        "relative_position_list": f.relative_positions,
        "psm_seconds": f.psm_seconds,
        "psm_seconds_refined": f.psm_seconds_refined,
        "pedestrian_in_crossing_area": f.ped_in_crossing_area,
    }


def _pedestrian_record(f: SceneFeatures, pid: str) -> dict:
    p = {}
    if pid in f.pedestrian_speeds_kmh:
        p["speed_kmh"] = f.pedestrian_speeds_kmh[pid]
    if pid in f.pedestrian_zones:
        p["position_list"] = [z.value for z in f.pedestrian_zones[pid]]
    return p


def record_to_features(r: dict) -> SceneFeatures:
    return SceneFeatures(
        scene_id=r["scene_id"],
        spot_id=r["spot_id"],
        frame_start=r["frame_start"],
        frame_end=r["frame_end"],
        interactive=r["interactive"],
        vehicle_id=r["vehicle_id"],
        vehicle_speeds_kmh=r["vehicle_speed_kmh"],
        vehicle_zones=[VehicleZone(z) for z in r["vehicle_position_list"]],
        vehicle_accelerations=r["vehicle_acceleration_list"],
        vehicle_acceleration_runs=r["vehicle_acceleration_runs"],
        crosswalk_distances_m=r["crosswalk_distance_m"],
        stopped=r["car_stop_before_crosswalk"] == "stop",
        stop_distance_m=r["stop_distance_m"],
        pedestrian_speeds_kmh={
            pid: p["speed_kmh"] for pid, p in r["pedestrians"].items()
            if "speed_kmh" in p},
        pedestrian_zones={
            pid: [PedestrianZone(z) for z in p["position_list"]]
            for pid, p in r["pedestrians"].items() if "position_list" in p},
        distances_m=r["vehicle_pedestrian_distance_m"],
        relative_positions=r["relative_position_list"],
        psm_seconds=r["psm_seconds"],
        psm_seconds_refined=r["psm_seconds_refined"],
        ped_in_crossing_area=r["pedestrian_in_crossing_area"],
    )


def scene_vehicle(trajectories: list[Trajectory], hint: str) -> Trajectory | None:
    """The scene's own vehicle: the track that consumed the hinted
    detections, falling back to the longest vehicle track."""
    vehicles = [t for t in trajectories if t.object_class is ObjectClass.VEHICLE]
    if not vehicles:
        return None
    hinted = [(sum(1 for p in t.points if p.detection_id == hint), len(t), t)
              for t in vehicles]
    hinted.sort(key=lambda x: (-x[0], -x[1], x[2].object_id))
    if hinted[0][0] > 0:
        return hinted[0][2]
    return max(vehicles, key=lambda t: (len(t), t.object_id))


# Why `_extract_scene_job` skipped a scene.
_NO_VEHICLE = "no_vehicle"
_NEVER_MOVED = "never_moved"


def _extract_scene_job(args) -> tuple[dict | None, str | None]:
    """The scene's feature record, or None and the reason it was skipped."""
    span, trajectories, config, calib, params = args
    vehicle = scene_vehicle(trajectories, span.vehicle_track_hint)
    if vehicle is None:
        return None, _NO_VEHICLE
    peds = [t for t in trajectories
            if t.object_class is ObjectClass.PEDESTRIAN and len(t) > 0]
    try:
        bundle = feat.extract_scene_features(
            span.scene_id, vehicle, peds, config, calib, params)
    except ZeroHeading:
        return None, _NEVER_MOVED
    return features_to_record(bundle), None


def run_extract(cfg: PipelineConfig) -> None:
    for spot_dir in cfg.spot_dirs():
        config = load_spot_config(spot_dir)
        calib = config.build_calibration()
        per_scene = read_trajectories(spot_dir)
        jobs = [(span, per_scene.get(span.scene_id, []), config, calib,
                 cfg.features) for span in read_scenes(spot_dir)]
        results = _map_jobs(_extract_scene_job, jobs, cfg.workers)
        rows = sorted((r for r, _ in results if r is not None),
                      key=lambda r: r["scene_id"])
        write_jsonl(spot_dir / "features.jsonl", "features", rows)
        skipped = Counter(why for _, why in results if why is not None)
        log.info("spot %s: extracted features for %d scenes, skipped %d "
                 "with no vehicle track and %d whose vehicle never moved",
                 config.spot_id, len(rows), skipped[_NO_VEHICLE],
                 skipped[_NEVER_MOVED])


def read_features(spot_dir: Path) -> list[SceneFeatures]:
    return [record_to_features(r)
            for r in read_jsonl(spot_dir / "features.jsonl", "features")]


# --- analyze stage --------------------------------------------------------------


def run_analyze(cfg: PipelineConfig) -> Path:
    stats = []
    stopping_rows = []
    by_spot_features: dict[str, list[SceneFeatures]] = {}
    signalized: dict[str, bool] = {}
    for spot_dir in cfg.spot_dirs():
        config = load_spot_config(spot_dir)
        bundles = read_features(spot_dir)
        by_spot_features[config.spot_id] = bundles
        signalized[config.spot_id] = config.signalized
        try:
            stats.append(analytics.spot_speed_stats(
                config.spot_id, bundles, reduce=cfg.speed_reduce))
        except EmptySpot:
            log.warning("spot %s: no scenes with speeds", config.spot_id)
        try:
            pct, stopped, total = analytics.stopping_percentage(
                bundles, cfg.baseline_m)
            stopping_rows.append((config.spot_id, pct, stopped, total))
        except NoQualifyingScenes:
            pass

    psm_by_spot = {
        spot: [f.psm_seconds for f in bundles if f.psm_seconds is not None]
        for spot, bundles in by_spot_features.items()
    }
    groups = {
        "signalized": {s: v for s, v in psm_by_spot.items() if signalized[s]},
        "unsignalized": {s: v for s, v in psm_by_spot.items() if not signalized[s]},
    }
    distributions = []
    for name, spots in groups.items():
        if any(spots.values()):
            distributions.append(analytics.weighted_merge(
                spots, group=f"{name}_positive", positive_only=True))

    ranges_doc = None
    table_doc = None
    unsig = groups["unsignalized"]
    if any(unsig.values()):
        merged = analytics.weighted_merge(unsig, group="unsignalized_weighted")
        distributions.append(merged)
        try:
            ranges = analytics.psm_ranges(merged)
            table = analytics.stopping_by_psm_range(
                {s: b for s, b in by_spot_features.items() if not signalized[s]},
                ranges, signalized, cfg.baseline_m)
            ranges_doc = {"negative": list(ranges.negative_quartiles),
                          "positive": list(ranges.positive_quartiles)}
            table_doc = [[r, spot, table.counts[(r, spot)][1],
                          table.counts[(r, spot)][0], pct]
                         for (r, spot), pct in sorted(table.cells.items())]
        except OneSidedDistribution:
            log.warning("PSM range analysis skipped: one-sided distribution")

    doc = {
        "schema": SCHEMAS["analysis"],
        "stats": [{
            "spot": s.spot_id, "scenes": s.scenes_total,
            "car_only": s.scenes_car_only, "interactive": s.scenes_interactive,
            "max_kmh": s.speed_max_kmh, "min_kmh": s.speed_min_kmh,
            "mean_kmh": s.speed_mean_kmh,
            "car_only_mean_kmh": s.car_only_mean_kmh,
            "interactive_mean_kmh": s.interactive_mean_kmh,
        } for s in sorted(stats, key=lambda s: s.spot_id)],
        "stopping": sorted(stopping_rows),
        "distributions": [{
            "group": d.group,
            "samples": d.samples.tolist(),
            "weights": d.weights.tolist(),
            "bin_edges": d.bin_edges.tolist(),
            "masses": d.masses.tolist(),
            "spot_weights": d.spot_weights,
            "degenerate": d.degenerate,
        } for d in sorted(distributions, key=lambda d: d.group)],
        "ranges": ranges_doc,
        "range_table": table_doc,
    }
    path = Path(cfg.out_dir) / "analysis.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    return path


# --- report stage --------------------------------------------------------------


def run_report(cfg: PipelineConfig) -> list[Path]:
    path = Path(cfg.out_dir) / "analysis.json"
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if doc.get("schema") != SCHEMAS["analysis"]:
        raise MalformedRecord(1, f"{path}: wrong schema {doc.get('schema')!r}")

    stats = [analytics.SpotStats(
        spot_id=s["spot"], scenes_total=s["scenes"],
        scenes_car_only=s["car_only"], scenes_interactive=s["interactive"],
        speed_max_kmh=s["max_kmh"], speed_min_kmh=s["min_kmh"],
        speed_mean_kmh=s["mean_kmh"],
        car_only_mean_kmh=s["car_only_mean_kmh"],
        interactive_mean_kmh=s["interactive_mean_kmh"],
    ) for s in doc["stats"]]
    distributions = [analytics.PsmDistribution(
        samples=np.array(d["samples"]), weights=np.array(d["weights"]),
        bin_edges=np.array(d["bin_edges"]), masses=np.array(d["masses"]),
        group=d["group"], spot_weights=d["spot_weights"],
        degenerate=d["degenerate"],
    ) for d in doc["distributions"]]
    stopping_rows = [tuple(row) for row in doc["stopping"]]

    table = None
    if doc["ranges"] is not None:
        ranges = analytics.PsmRanges(
            negative_quartiles=tuple(doc["ranges"]["negative"]),
            positive_quartiles=tuple(doc["ranges"]["positive"]))
        cells = {}
        counts = {}
        for r, spot, total, stopped, pct in doc["range_table"] or []:
            cells[(r, spot)] = pct
            counts[(r, spot)] = (stopped, total)
        table = analytics.PsmRangeTable(ranges=ranges, cells=cells, counts=counts)

    return analytics.emit_report(Path(cfg.out_dir) / "report",
                                 stats, distributions, stopping_rows, table)


# --- helpers --------------------------------------------------------------------


def _map_jobs(fn, jobs, workers: int):
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


def run_all(cfg: PipelineConfig) -> None:
    run_synth(cfg)
    run_segment(cfg)
    run_track(cfg)
    run_extract(cfg)
    run_analyze(cfg)
    run_report(cfg)
