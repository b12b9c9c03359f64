"""One benchmark run in a fresh process.

run.py starts this file as a child process, so that imports, set-up and
the memory peak are those of a fresh program run:

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS OUT_DIR T0

MODE is one of
- setup: write the corpus and report the set-up time only;
- run: set up, then repeat passes of segment->report followed by two
  re-runs of extract->report until SECONDS have passed; check the outputs
  and score them against ground truth (the end-to-end metrics);
- trace: set up traced, run segment->report once untraced and once
  traced, and derive the per-layer metrics (the spans go to
  OUT_DIR/../spans.json).

T0 is the parent's time.monotonic() just before it started this process,
so set-up counts interpreter start and imports. The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import oracle
import tracing
import workloads
from crossrisk import stages
from crossrisk.errors import PipelineError
from crossrisk.features import FeatureParams
from crossrisk.tracker import TrackerParams

PIPELINE = ("segment", "track", "extract", "analyze", "report")
RERUN = ("extract", "analyze", "report")
# The second feature setting of an analyst's parameter sweep.
RERUN_FEATURES = FeatureParams(alpha=0.5, epsilon_kmh=1.0)
# The re-run takes 5-8 s, short enough for one timing to land wholly in a
# slow or a fast spell of the machine; each pass times it twice.
RERUNS_PER_PASS = 2
# Stage files each stage writes per spot, by schema key.
STAGE_FILES = {"segment": "scenes", "track": "trajectories",
               "extract": "features"}
# Half a sampling step of the synthetic spots (5 frames at 25 fps): a PSM
# further than this from the analytic value is wrong at the data's
# resolution.
PSM_TOLERANCE_S = 0.1
# Workloads with PSM values on both sides at two unsignalized spots, so
# the report must hold the PSM range table.
RANGE_TABLE_WORKLOADS = ("crowd",)


@dataclass
class StageRun:
    """Timed stages of one pass, stopped at the first stage that raised."""

    seconds: dict[str, float] = field(default_factory=dict)
    completed: list[str] = field(default_factory=list)
    error: str | None = None          # exception type that stopped the pass
    message: str = ""
    typed: bool = True                # False: not a PipelineError, a bug

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def run_stages(cfg: stages.PipelineConfig, names, tracer=None) -> StageRun:
    out = StageRun()
    for name in names:
        stage = getattr(stages, f"run_{name}")
        start = time.perf_counter()
        try:
            if tracer is None:
                stage(cfg)
            else:
                with tracer.span(f"stages.{name}"):
                    stage(cfg)
        except PipelineError as exc:
            out.error, out.message = type(exc).__name__, str(exc)
        except Exception as exc:
            traceback.print_exc()
            out.error, out.message, out.typed = type(exc).__name__, str(exc), False
        out.seconds[name] = time.perf_counter() - start
        if out.error:
            return out
        out.completed.append(name)
    return out


@dataclass
class Outputs:
    """What the first pass left on disk, read before anything rewrites it."""

    checks: dict[str, bool]
    digests: dict[str, str]
    disk_mb: float
    scenes: int
    psm: dict[str, dict[str, float | None]]

    @property
    def bundles(self) -> int:
        return sum(len(scenes) for scenes in self.psm.values())


def read_outputs(out_dir: Path, run: StageRun, range_table: bool) -> Outputs:
    done = run.completed
    keys = ["detections"] + [STAGE_FILES[s] for s in done if s in STAGE_FILES]
    checks = oracle.schema_checks(out_dir, keys)
    if "analyze" in done:
        checks["analysis.json"] = oracle.analysis_ok(out_dir)
    if "report" in done:
        checks.update(oracle.report_checks(out_dir, range_table))
    return Outputs(
        checks=checks,
        digests=oracle.output_digests(out_dir) if "report" in done else {},
        disk_mb=oracle.stage_bytes_mb(out_dir),
        scenes=oracle.count_scenes(out_dir) if "segment" in done else 0,
        psm=oracle.psm_by_scene(out_dir) if "extract" in done else {})


def psm_score(workload, seed, out_dir, outputs: Outputs, run: StageRun):
    """PSM quality against synth.analytic_psm: (mean absolute error, share
    of the scenes within PSM_TOLERANCE_S, scenes scored, scenes missed).
    The first two are None when no scene qualifies."""
    if "extract" not in run.completed:
        return None, None, 0, 0
    errors, missed = oracle.psm_errors(out_dir, workloads.specs(workload, seed),
                                       outputs.psm)
    qualifying = len(errors) + missed
    if not qualifying:
        return None, None, 0, missed
    hits = sum(e <= PSM_TOLERANCE_S for e in errors)
    return (statistics.fmean(errors) if errors else None, hits / qualifying,
            len(errors), missed)


def outcome(run: StageRun, outputs: Outputs) -> dict:
    """Scenes attempted and failed: all of them when a stage aborted."""
    attempted = max(outputs.scenes, 1)
    failed = attempted if run.error else attempted - outputs.bundles
    return {"attempted": attempted, "failed": failed,
            "scene_fail_ratio": failed / attempted,
            "error": run.error, "error_message": run.message}


def mode_setup(workload, seed, out_dir, t0) -> dict:
    workloads.build(workload, seed, out_dir)
    return {"setup_s": time.monotonic() - t0}


def mode_run(workload, seed, seconds, out_dir, t0) -> dict:
    checks = {"no tracing wrappers": not tracing.installed_wrappers()}
    built = workloads.build(workload, seed, out_dir)
    setup_s = time.monotonic() - t0
    detections = oracle.count_detections(out_dir)
    cfg = stages.PipelineConfig(out_dir=out_dir, workers=1)
    passes: list[StageRun] = []
    reruns: list[StageRun] = []
    started = time.perf_counter()
    while True:
        passes.append(run_stages(cfg, PIPELINE))
        if len(passes) == 1:
            outputs = read_outputs(out_dir, passes[0],
                              workload in RANGE_TABLE_WORKLOADS)
            checks.update(outputs.checks)
        elif not passes[-1].error:
            checks["same outputs on every pass"] = (
                checks.get("same outputs on every pass", True)
                and oracle.output_digests(out_dir) == outputs.digests)
        if passes[-1].error:
            break
        for _ in range(RERUNS_PER_PASS):
            reruns.append(run_stages(replace(cfg, features=RERUN_FEATURES), RERUN))
            if reruns[-1].error:
                break
        if reruns[-1].error or time.perf_counter() - started >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    checks["no tracing wrappers"] &= not tracing.installed_wrappers()
    if reruns:
        checks["re-run completed"] = not reruns[-1].error
        checks.update({f"re-run {k}": v for k, v in oracle.schema_checks(
            out_dir, ["features"]).items()})

    first = passes[0]
    frames = workloads.emitted_frames(out_dir, built)
    accuracy = purity = None
    if "track" in first.completed:
        table, purity = oracle.track_scores(out_dir, frames, TrackerParams())
        accuracy = table.accuracy
    psm_mae, psm_hits, psm_scenes, psm_missed = psm_score(
        workload, seed, out_dir, outputs, first)
    pipeline_s = statistics.median(p.total for p in passes)
    result = outcome(first, outputs)
    return {
        **result,
        "correct": (all(r.typed for r in passes + reruns)
                    and all(checks.values())),
        "checks": checks,
        "digests": outputs.digests,
        "passes": len(passes),
        "stage_s": first.seconds,
        "detections": detections,
        "psm_scenes": psm_scenes,
        "psm_missed": psm_missed,
        "metrics": {
            "pipeline_s": (pipeline_s, "s"),
            "detections_per_s": (detections / pipeline_s, "1/s"),
            "rerun_s": (statistics.median(r.total for r in reruns)
                        if reruns else None, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "disk_mb": (outputs.disk_mb, "MB"),
            "scene_fail_ratio": (result["scene_fail_ratio"], "1"),
            "track_accuracy": (accuracy, "1"),
            "track_purity": (purity, "1"),
            "psm_mae_s": (psm_mae, "s"),
            "psm_hit_ratio": (psm_hits, "1"),
        },
    }


def mode_trace(workload, seed, out_dir, t0) -> dict:
    trace_id = f"{workload}/{seed}"
    setup_trace = tracing.Tracer(f"{trace_id}/setup")
    with setup_trace, setup_trace.span("setup"):
        workloads.build(workload, seed, out_dir)
    detections = oracle.count_detections(out_dir)
    cfg = stages.PipelineConfig(out_dir=out_dir, workers=1)
    untraced = run_stages(cfg, PIPELINE)
    untraced_digests = (oracle.output_digests(out_dir)
                        if "report" in untraced.completed else {})
    pipeline_trace = tracing.Tracer(f"{trace_id}/pipeline")
    with pipeline_trace:
        traced = run_stages(cfg, PIPELINE, pipeline_trace)
    outputs = read_outputs(out_dir, traced, workload in RANGE_TABLE_WORKLOADS)
    checks = dict(outputs.checks)
    checks["wrappers restored"] = not tracing.installed_wrappers()
    checks["traced outputs identical"] = outputs.digests == untraced_digests
    *_, psm_missed = psm_score(workload, seed, out_dir, outputs, traced)

    spans_path = out_dir.parent / "spans.json"
    spans_path.write_text(json.dumps(
        [setup_trace.to_json(), pipeline_trace.to_json()]))
    return {
        **outcome(traced, outputs),
        "correct": untraced.typed and traced.typed and all(checks.values()),
        "checks": checks,
        "spans": str(spans_path),
        "metrics": layer_metrics(untraced, traced, setup_trace, pipeline_trace,
                                 out_dir, detections, psm_missed),
    }


def layer_metrics(untraced: StageRun, traced: StageRun, setup_trace,
                  pipeline_trace, out_dir: Path, detections: int,
                  psm_missed: int) -> dict:
    calls = pipeline_trace.totals()
    setup_calls = setup_trace.totals()

    def seconds(name, table=calls):
        return table[name].seconds if name in table else 0.0

    def count(name):
        return calls[name].count if name in calls else 0

    m: dict[str, tuple] = {}
    for stage in PIPELINE:
        m[f"stages.{stage}_s"] = (untraced.seconds.get(stage, 0.0), "s")
    for name in ("write_jsonl", "read_jsonl", "read_trajectories"):
        m[f"stages.{name}_s"] = (seconds(f"stages.{name}"), "s")
    m["stages.features_codec_s"] = (seconds("stages.features_to_record")
                                    + seconds("stages.record_to_features"), "s")
    spots = oracle.spot_dirs(out_dir)
    for kind in ("trajectories", "features"):
        paths = [d / f"{kind}.jsonl" for d in spots
                 if (d / f"{kind}.jsonl").exists()]
        m[f"stages.{kind}_mb"] = (oracle.megabytes(paths), "MB")

    parse = calls.get("ingest.parse_detections", tracing.Call())
    m["ingest.parse_detections_s"] = (parse.seconds, "s")
    m["ingest.records"] = (parse.items, "count")
    m["ingest.parse_spot_config_calls"] = (count("ingest.parse_spot_config"),
                                           "count")
    m["geometry.fit_homography_calls"] = (count("geometry.fit_homography"),
                                          "count")
    m["geometry.fit_homography_s"] = (seconds("geometry.fit_homography"), "s")

    m["motion_gate.segment_scenes_s"] = (seconds("motion_gate.segment_scenes"),
                                         "s")
    scenes = [r for d in spots if (d / "scenes.jsonl").exists()
              for r in oracle.read_rows(d / "scenes.jsonl")]
    m["motion_gate.spans"] = (len(scenes), "count")
    m["motion_gate.interactive_share"] = (
        sum(r["interactive"] for r in scenes) / max(len(scenes), 1), "1")

    for name in ("kalman_predict", "kalman_update", "assign"):
        m[f"tracker.{name}_calls"] = (count(f"tracker.{name}"), "count")
        m[f"tracker.{name}_s"] = (seconds(f"tracker.{name}"), "s")
    tracks = pipeline_trace.scene_spans("tracker.track_scene")
    m["tracker.track_scene_calls"] = (len(tracks), "count")
    m["tracker.track_scene_self_s"] = (sum(
        s.seconds - sum(c.seconds for c in s.calls.values()) for s in tracks), "s")
    m.update(_scene_times("tracker.track_scene", tracks))
    m["tracker.overlap_factor"] = (
        sum(s.items for s in tracks) / max(detections, 1), "1")

    extracts = pipeline_trace.scene_spans("features.extract_scene")
    m["features.extract_scene_calls"] = (len(extracts), "count")
    m["features.extract_scene_s"] = (sum(s.seconds for s in extracts), "s")
    m.update(_scene_times("features.extract_scene", extracts))
    psm = calls.get("features.psm", tracing.Call())
    m["features.psm_calls"] = (psm.count, "count")
    m["features.psm_s"] = (psm.seconds, "s")
    m["features.psm_conflict_ratio"] = (
        (psm.count - psm.failed) / psm.count if psm.count else 0.0, "1")
    m["features.classify_zones_calls"] = (count("features.classify_zones"),
                                          "count")
    m["features.classify_zones_s"] = (seconds("features.classify_zones"), "s")
    m["features.psm_missed"] = (psm_missed, "count")

    for name in ("weighted_merge", "range_table", "emit_report"):
        m[f"analytics.{name}_s"] = (seconds(f"analytics.{name}"), "s")
    m["synth.generate_s"] = (seconds("synth.generate", setup_calls), "s")
    m["synth.segment_scenes_s"] = (seconds("synth.segment_scenes", setup_calls),
                                   "s")
    m["trace.overhead_s"] = (traced.total - untraced.total, "s")
    return m


def _scene_times(name: str, spans) -> dict:
    """Median and tail of per-scene time, with the tail's percentile."""
    ms = [s.seconds * 1e3 for s in spans]
    tail = oracle.tail_percentile(len(ms))
    return {
        f"{name}_p50_ms": (oracle.percentile(ms, 50) if ms else 0.0, "ms"),
        f"{name}_tail_ms": (oracle.percentile(ms, tail) if tail else 0.0, "ms"),
        f"{name}_tail_pct": (tail or 0.0, "%"),
    }


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, out_dir, t0 = argv
    seed, seconds, out_dir, t0 = int(seed), float(seconds), Path(out_dir), float(t0)
    if mode == "setup":
        result = mode_setup(workload, seed, out_dir, t0)
    elif mode == "run":
        result = mode_run(workload, seed, seconds, out_dir, t0)
    elif mode == "trace":
        result = mode_trace(workload, seed, out_dir, t0)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
