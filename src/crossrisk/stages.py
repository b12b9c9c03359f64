"""Stage files and pipeline runners.

Every stage reads the previous stage's files and writes its own, all under
one output directory with one subdirectory per camera spot:

    out/<spot>/config.json         spot metadata and calibration
    out/<spot>/detections.jsonl    detector output (or synthetic)
    out/<spot>/truth.json          ground truth of a synthetic spot
    out/<spot>/scenes.jsonl        per-vehicle scene index
    out/<spot>/trajectories.jsonl  one line per scene point, point-major
    out/<spot>/features.jsonl      one feature bundle per scene
    out/analysis.json              the report's tables as one record
    out/report/*.csv               that record rendered as CSV
    out/run.json                   what segment, track and extract read and wrote

The track stage runs the tracker once per run of overlapping scene
windows, not once per scene, so a detection in several windows is tracked
once; each scene then holds the points of the run's tracks that lie in its
window, one line each. The runs are written in frame order and each run
point by point: a point's lines for all the scenes that hold it follow
one another and differ only in `scene_id`, so the extract stage decodes
each point once and reuses it for the others. A spot's detections are
held as columns (`ingest.DetectionTable`), and each run's are cut from
the frame column, so detection records are built only for the run being
tracked. Each line is encoded as it is written, so the stage holds one
run's tracks at a time and never the text of its lines; over a pool of
workers, the workers return tracks and this process encodes them.

`trajectories.jsonl` keeps this run order: all rows of a run come before
those of the next run in `scene_runs` order, and every row's scene is
listed in `scenes.jsonl`. So the extract stage holds one run at a time:
it extracts a run's scenes when the first row of the next run arrives,
and writes each scene's `features.jsonl` line as the scene is done. A
scene's rows of one object come in frame order, so each row is checked
against the one before it as it is read, and a row out of order fails at
its own line.

`features.jsonl` therefore lists its scenes in `scene_runs` order, that
is by `(frame_start, frame_end)` of the scene windows, in the order
`scenes.jsonl` lists windows with equal frames. Since `segment_scenes`
numbers its ids in `(start, end, vehicle)` order, up to 9,999 scenes a
spot this is scene id order; past that it is numeric id order, so
`s9999` comes before `s10000`. Scenes skipped for want of a vehicle
track, or whose vehicle never moved, have no line.

A synthetic spot's `truth.json` holds only its schema and the frames at
which each agent was emitted (synthetic detection ids are agent ids, so
these give every detection's provenance). It holds no scene spans, which
are segment's output, nor sampled positions, PSM, stop flag or frame
rate: the positions, PSMs and stops follow from the scenario's scripts
(`synth.AgentScript.world_at`, `synth.analytic_psm`,
`synth._scripted_stop`), and the frame rate is in `config.json`.
`write_truth` writes it one agent's frame list at a time, in the bytes
`json.dumps` gives the whole record with `sort_keys=True`.

Stage files are self-describing: the first line names the schema. Every
writer fixes its output's order from its input alone, so results are
byte-identical regardless of worker count. Every file the pipeline
writes appears only whole (`ingest.write_file`): it is written under a
temporary name and renamed, and a stage that fails while writing it
leaves no file, so the next stage stops on the missing file rather than
read a part.

What each stage holds at once: segment, one spot's detection columns and
its scene spans (`motion_gate`); track, one spot's detection columns and
one run's tracks; extract, one run's tracks and the scene being
extracted; analyze, one `analytics.SceneSummary` per scene of
the corpus, each row checked as a whole bundle and let go at once.

`run.json` holds, per spot, an entry for each `scenes.jsonl`,
`trajectories.jsonl` and `features.jsonl` that segment, track and extract
wrote: the file's sha256, and under `read` the sha256 of each spot file it
was made from (`_READS`) and of this package's source; the tracks' entry
also holds the `TrackerParams`. It holds no time, path or worker count. A
stage drops its output's entry before writing the file and records it
once the file is in place, with the digest of the bytes it wrote.

Segment, track and extract each check a spot once, before any work
(`_status`), by one rule. An input a stage recorded, scenes or tracks,
that is still the recorded file but whose own spot files have changed
since is stale: the stage removes its output of the spot and that entry,
and refuses (`StaleInput`), naming the earliest stage to run again.
Otherwise the output is current when its entry's `read` equals the
digests now and the file there is the one recorded. Segment and track do
no work for a spot whose output is current. Extract derives the features
of such a spot again under the new `FeatureParams`, a row at a time
(`features.derive`), and measures any other spot's again; every stage
runs again on every spot under a record of another schema. To make a
stage run again on unchanged inputs, delete its output file, or
`run.json` for every stage. Analyze hashes nothing: it refuses a spot
whose features entry records other scenes or tracks than their own
entries record now (`StaleInput`), as when segment and track ran again
but extract did not.

The analyze stage only reads each spot's config and features; it fails
when two spot directories name one spot id, whose scenes would merge.
`analytics` owns both the analysis policy and the layout of
`analysis.json`. `analysis_record` builds that record and `emit_report`
renders it, so the report stage can be rerun from that file alone.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from itertools import chain, islice
from pathlib import Path

from . import analytics, features as feat, motion_gate, synth, tracker
from .errors import (
    DegenerateCalibration,
    IoFailure,
    MalformedRecord,
    MissingField,
    PipelineError,
    StaleInput,
    ZeroHeading,
)
from .features import FeatureParams, PedestrianZone, SceneFeatures, VehicleZone
from .ingest import (
    DetectionTable,
    ObjectClass,
    SpotConfig,
    _integer,
    _real,
    dumps_sorted,
    format_detection,
    is_utf8,
    json_float,
    json_int,
    json_line,
    json_nonfinite,
    json_str,
    parse_detections,
    parse_spot_config,
    spot_config_to_dict,
    write_file,
)
from .motion_gate import SceneSpan
from .tracker import TrackerParams, TrackPoint, Trajectory

log = logging.getLogger(__name__)

SCHEMAS = {
    "detections": "crossrisk/detections/v1",
    "scenes": "crossrisk/scenes/v1",
    "trajectories": "crossrisk/trajectories/v1",
    "features": "crossrisk/features/v1",
    "analysis": "crossrisk/analysis/v1",
    "truth": "crossrisk/truth/v1",
    "run": "crossrisk/run/v1",
}


# The characters of text `write_jsonl` gathers into one piece for
# `write_file`: enough that the calls cost little per line, few enough
# that a stage holding one row at a time still holds little.
_BLOCK_CHARS = 1 << 16


def write_jsonl(path, schema_key: str, lines) -> str:
    """`write_file` of a stage file: the schema header, then one line per
    encoded row, in blocks of about `_BLOCK_CHARS`. Returns the sha256."""

    def blocks():
        block, size = [dumps_sorted({"schema": SCHEMAS[schema_key]})], 0
        for line in lines:
            block.append(line)
            size += len(line)
            if size >= _BLOCK_CHARS:
                yield "\n".join(block) + "\n"
                block, size = [], 0
        if block:
            yield "\n".join(block) + "\n"

    return write_file(path, blocks())


# What reading a row of the wrong shape raises: a missing key, a list or
# number where an object belongs, a value no enum or number accepts.
_SHAPE_ERRORS = (LookupError, TypeError, ValueError, AttributeError)
_NUMBER = (int, float)   # JSON's numbers; `type(v) in _NUMBER` leaves out bool
_NUMBER_OR_NONE = (int, float, type(None))


def _typed(value, types=_NUMBER):
    """`value` if its type is one of `types`. Row readers check the values
    a later stage sorts or sums, so a wrong one fails on its own line."""
    if type(value) not in types:
        raise TypeError(f"unexpected {type(value).__name__} {value!r}")
    return value


def _stage_lines(path, schema_key: str):
    """The number and text of each line after a stage file's schema
    header, blank lines included, read as they are taken.

    A line that is not UTF-8 text or a wrong header raises MalformedRecord
    at its line and a file that cannot be read IoFailure; `_bad_row` gives
    the error for a row its reader cannot read.
    """
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            first = fh.readline()
            if not is_utf8(first):
                raise MalformedRecord(1, f"{path}: not UTF-8 text")
            header = json.loads(first) if first.strip() else {}
            found = header.get("schema") if isinstance(header, dict) else header
            if found != SCHEMAS[schema_key]:
                raise MalformedRecord(
                    1, f"{path}: expected schema {SCHEMAS[schema_key]!r}, "
                    f"found {found!r}")
            for n, line in enumerate(fh, start=2):
                if not is_utf8(line):
                    raise MalformedRecord(n, f"{path}: not UTF-8 text")
                yield n, line
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:     # the header's
        raise _bad_row(path, schema_key, 1, exc) from exc


def _bad_row(path, schema_key: str, n: int, exc: Exception) -> MalformedRecord:
    """The MalformedRecord for line `n`, which is not JSON or which its
    reader could not read into the stage's own type."""
    if isinstance(exc, json.JSONDecodeError):
        return MalformedRecord(n + exc.lineno - 1,
                               f"{path}: invalid JSON ({exc.msg})")
    return MalformedRecord(n, f"{path}: not a {schema_key} row "
                           f"({type(exc).__name__}: {exc})")


def _rows(path, schema_key: str, row):
    """The rows after a stage file's schema header, each passed through
    `row` as it is taken; a row that is not JSON or that `row` cannot read
    raises MalformedRecord with its line number."""
    for n, line in _stage_lines(path, schema_key):
        if not line.isspace():
            try:
                out = row(json_line(line))
            except _SHAPE_ERRORS as exc:
                raise _bad_row(path, schema_key, n, exc) from exc
            yield out


def read_jsonl(path, schema_key: str, row) -> list:
    """The list of `_rows(path, schema_key, row)`."""
    return list(_rows(path, schema_key, row))


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
    tracker: TrackerParams = field(default_factory=TrackerParams)
    features: FeatureParams = field(default_factory=FeatureParams)

    def __post_init__(self):
        """The synth and worker fields checked, not coerced: TypeError for
        a value of the wrong type, ValueError out of range."""
        if not 0 <= _real(self.noise_sigma, "noise_sigma") < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if not 0 <= _real(self.drop_probability, "drop_probability") < 1:
            raise ValueError("drop_probability must be >= 0 and < 1")
        if _integer(self.bulk_scenes, "bulk_scenes") < 1:
            raise ValueError("bulk_scenes must be >= 1")
        if _integer(self.workers, "workers") < 1:
            raise ValueError("workers must be >= 1")

    def spot_dirs(self) -> list[Path]:
        root = Path(self.out_dir)
        dirs = sorted(p for p in root.iterdir()
                      if p.is_dir() and (p / "config.json").exists())
        if self.spot is not None:
            dirs = [d for d in dirs if d.name == self.spot]
            if not dirs:
                raise PipelineError(f"no spot directory named {self.spot!r}")
        return dirs


def _read_document(path: Path, what: str, use):
    """`use` applied to the JSON document that fills the file at `path`.

    A file that cannot be read raises IoFailure, text that is not JSON
    MalformedRecord at the line it breaks on, and a document that `use`
    cannot read (not `what`) MalformedRecord at line 1.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        return use(json.loads(data))
    except json.JSONDecodeError as exc:
        raise MalformedRecord(exc.lineno,
                              f"{path}: invalid JSON ({exc.msg})") from exc
    except _SHAPE_ERRORS as exc:
        raise MalformedRecord(1, f"{path}: not {what} "
                              f"({type(exc).__name__}: {exc})") from exc


def load_spot_config(spot_dir: Path) -> SpotConfig:
    """The spot's `config.json`; every error on its contents names it."""
    path = spot_dir / "config.json"
    try:
        return _read_document(path, "a spot config", parse_spot_config)
    except (MissingField, DegenerateCalibration) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_detections(spot_dir: Path, config: SpotConfig) -> DetectionTable:
    """The spot's `detections.jsonl`; a bad line raises its MalformedRecord
    again, of the same type, with the file's path before the message."""
    path = spot_dir / "detections.jsonl"
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return parse_detections(fh, config)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except MalformedRecord as exc:
        n = exc.line_number
        raise type(exc)(n, f"{path}: {str(exc).removeprefix(f'line {n}: ')}"
                        ) from exc


# The spot files each recorded output is made from, and the stage that
# writes each output a later stage reads.
_WRITER = {"scenes.jsonl": "segment", "trajectories.jsonl": "track"}
_READS = {"scenes.jsonl": ("config.json", "detections.jsonl"),
          "trajectories.jsonl": ("config.json", "detections.jsonl",
                                 "scenes.jsonl"),
          "features.jsonl": ("config.json", "detections.jsonl",
                             "scenes.jsonl", "trajectories.jsonl")}


def _digest(path: Path) -> str:
    """The file's sha256 in hex, read in 64 KiB blocks."""
    sha = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while block := fh.read(1 << 16):
                sha.update(block)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return sha.hexdigest()


def _run_spots(doc: dict) -> dict:
    """A `run.json` record's entries by spot directory and output name;
    none from a record of another schema."""
    if doc.get("schema") != SCHEMAS["run"]:
        return {}
    for outputs in doc["spots"].values():
        for entry in outputs.values():
            for value in (entry["sha256"], *entry["read"].values()):
                _typed(value, (str,))
    return doc["spots"]


def _load_record(out_dir) -> dict:
    """The entries of the out dir's `run.json` (`_run_spots`); none when
    there is no such file."""
    path = Path(out_dir) / "run.json"
    return (_read_document(path, "a run record", _run_spots)
            if path.exists() else {})


@cache
def _source_digest() -> str:
    """The sha256 of the names and digests of this package's source files,
    so that a change to the code that made an output is seen."""
    files = sorted(Path(__file__).parent.glob("*.py"))
    return hashlib.sha256("".join(f"{p.name} {_digest(p)}\n"
                                  for p in files).encode()).hexdigest()


def _status(record: dict, spot_dir: Path, name: str,
            **params) -> tuple[dict, bool]:
    """What the spot's output `name` is made from now, and whether it is
    current: the file `record` holds an entry for, made from just that.

    The digests are those of each spot file of `_READS[name]`, taken once,
    then this package's source and `params`. An input a stage recorded
    (`_WRITER`) that is still the recorded file but whose own spot files
    have changed since is stale: then the spot's output `name` and its
    entry are removed and StaleInput names the changed file and the stage
    to run again, the earliest first."""
    digests = {f: _digest(spot_dir / f) for f in _READS[name]}
    outputs = record.get(spot_dir.name, {})
    for made in _READS[name]:
        entry = outputs.get(made) if made in _WRITER else None
        if entry is None or entry["sha256"] != digests[made]:
            continue
        for source in _READS[made]:
            if entry["read"].get(source) != digests[source]:
                (spot_dir / name).unlink(missing_ok=True)
                if outputs.pop(name, None) is not None:
                    _save_record(spot_dir.parent, record)
                raise StaleInput(
                    f"{spot_dir / source} has changed since {_WRITER[made]} "
                    f"read it to write {spot_dir / made}; run "
                    f"{_WRITER[made]} again")
    read = {**digests, "source": _source_digest(), **params}
    entry = outputs.get(name)
    path = spot_dir / name
    return read, (entry is not None and entry["read"] == read
                  and path.exists() and entry["sha256"] == _digest(path))


def _write_recorded(record: dict, spot_dir: Path, name: str, read: dict,
                    lines) -> None:
    """Write the spot's output `name` from `lines` (`write_jsonl`) and
    record it in the out dir's `run.json`, made from `read`: an entry is
    dropped before the file is written and set once it is in place."""
    outputs = record.setdefault(spot_dir.name, {})
    if outputs.pop(name, None) is not None:
        _save_record(spot_dir.parent, record)
    sha256 = write_jsonl(spot_dir / name, name.removesuffix(".jsonl"), lines)
    outputs[name] = {"read": read, "sha256": sha256}
    _save_record(spot_dir.parent, record)


def _save_record(out_dir: Path, record: dict) -> None:
    write_file(out_dir / "run.json",
               [dumps_sorted({"schema": SCHEMAS["run"], "spots": record})])


# --- synth stage --------------------------------------------------------------


def write_truth(spot_dir: Path, truth: synth.GroundTruth) -> None:
    """Write a synthetic spot's `truth.json`: its schema and each agent's
    emitted frames, in the bytes of `json.dumps` with `sort_keys=True`.
    Each agent's frame list is encoded as it is written, so no record of
    the whole truth is built."""

    def pieces():
        yield '{"emitted_frames": {'
        for k, (agent, frames) in enumerate(truth.agent_frames()):
            yield (f'{", " if k else ""}{json_str(agent)}: '
                   f'{dumps_sorted(frames.tolist())}')
        yield f'}}, "schema": {json_str(SCHEMAS["truth"])}}}'

    write_file(spot_dir / "truth.json", pieces())


def run_synth(cfg: PipelineConfig) -> list[Path]:
    """Generate the synthetic corpus, one spot directory per scenario."""
    root = Path(cfg.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    if cfg.corpus == "standard":
        specs = [spec for spec, _ in synth.standard_corpus(
            cfg.noise_sigma, cfg.drop_probability, cfg.seed)]
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
        write_file(spot_dir / "config.json", [json.dumps(
            spot_config_to_dict(spec.config), sort_keys=True, indent=1)])
        write_jsonl(spot_dir / "detections.jsonl", "detections",
                    map(format_detection, records))
        write_truth(spot_dir, truth)
        log.info("synth %s: %d detections, %d agents",
                 spec.name, len(records), len(spec.agents))
        dirs.append(spot_dir)
    return dirs


# --- segment stage --------------------------------------------------------------


def run_segment(cfg: PipelineConfig) -> None:
    """Cut each spot's detections into scene windows and write its
    `scenes.jsonl`, recorded in `run.json`; a spot whose scenes are
    current is not segmented again."""
    record = _load_record(cfg.out_dir)
    for spot_dir in cfg.spot_dirs():
        config = load_spot_config(spot_dir)
        read, current = _status(record, spot_dir, "scenes.jsonl")
        if current:
            log.info("spot %s: scenes.jsonl is up to date, not segmented "
                     "again", config.spot_id)
            continue
        records = load_detections(spot_dir, config)
        spans = motion_gate.segment_scenes(
            records, motion_gate.hangover_frames_at(config.fps))
        _write_recorded(record, spot_dir, "scenes.jsonl", read,
                        (dumps_sorted(_span_record(s)) for s in spans))
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
    """One `scenes.jsonl` row; `read_scenes` reads it back."""
    return {"scene_id": span.scene_id, "vehicle": span.vehicle_track_hint,
            "frame_start": span.frame_start, "frame_end": span.frame_end,
            "interactive": span.interactive}


def _span_of(r: dict) -> SceneSpan:
    return SceneSpan(scene_id=_typed(r["scene_id"], (str,)),
                     vehicle_track_hint=_typed(r["vehicle"], (str,)),
                     frame_start=_typed(r["frame_start"], (int,)),
                     frame_end=_typed(r["frame_end"], (int,)),
                     interactive=_typed(r["interactive"], (bool,)))


def read_scenes(spot_dir: Path) -> list[SceneSpan]:
    return read_jsonl(spot_dir / "scenes.jsonl", "scenes", _span_of)


# --- track stage --------------------------------------------------------------


def scene_runs(spans: list[SceneSpan]) -> list[list[SceneSpan]]:
    """The scene windows in maximal chains, in frame order: each window
    starts at or before the end of the chain so far, so every frame from
    a chain's first to its last lies in one of its windows."""
    runs: list[list[SceneSpan]] = []
    end = 0
    for span in sorted(spans, key=lambda s: (s.frame_start, s.frame_end)):
        if runs and span.frame_start <= end:
            runs[-1].append(span)
            end = max(end, span.frame_end)
        else:
            runs.append([span])
            end = span.frame_end
    return runs


def _row_halves(cls: str, object_id: str, p: TrackPoint) -> tuple[str, str]:
    """A point's `trajectories.jsonl` text before and after its scene id.

    The row's template is `dumps_sorted`'s layout of the whole row: keys
    in sorted order, `json`'s separators, escapes and number text. Rows of
    one point differ only in `scene_id`, which sorts between `raw_px` and
    `smooth_px`, so `head + dumps_sorted(scene_id) + tail` is
    `dumps_sorted` of the whole row.
    """
    frame, t, (rx, ry), (sx, sy), (wx, wy), det = p
    raw = json_nonfinite(f"{json_float(rx)}, {json_float(ry)}")
    head = (f'{{"class": {json_str(cls)}, "det": {json_str(det)}, '
            f'"frame": {json_int(frame)}, "object_id": {json_str(object_id)}, '
            f'"raw_px": [{raw}], "scene_id": ')
    tail = json_nonfinite(
        f', "smooth_px": [{json_float(sx)}, {json_float(sy)}], '
        f'"t": {json_float(t)}, "world": [{json_float(wx)}, {json_float(wy)}]}}')
    return head, tail


def scene_lines(trajectories: list[Trajectory], scenes: list[SceneSpan],
                counts: Counter | None = None):
    """A run's `trajectories.jsonl` lines, point-major, each point encoded
    as its lines are taken.

    Tracks go in the order given (object id order) and points in frame
    order. Right after each point come its rows for every scene whose
    window holds its frame, in the order of `scenes`, so rows that differ
    only in `scene_id` sit next to each other for `read_trajectories` to
    reuse. Each point is encoded once; a point in no window is not written.
    When given, `counts` gains, once the lines are all taken, the number
    of rows ("rows") and of distinct points ("points") among them.
    """
    rows = points = 0
    ids = [dumps_sorted(s.scene_id) for s in scenes]
    for traj in trajectories:
        frames = traj.frames
        in_scenes: list[list[str]] = [[] for _ in frames]
        for span, sid in zip(scenes, ids):
            if span.frame_start > frames[-1] or span.frame_end < frames[0]:
                continue
            for i in range(bisect_left(frames, span.frame_start),
                           bisect_right(frames, span.frame_end)):
                in_scenes[i].append(sid)
        cls = traj.object_class.value
        for p, sids in zip(traj.points, in_scenes):
            if sids:
                head, tail = _row_halves(cls, traj.object_id, p)
                for sid in sids:
                    yield head + sid + tail
                rows += len(sids)
                points += 1
    if counts is not None:
        counts.update(rows=rows, points=points)


def _track_run_job(args):
    """A run of scene windows and the tracks of its detections; the caller
    encodes their lines with `scene_lines`, so a pool returns tracks, not
    text."""
    scenes, records, config, calib, params = args
    return scenes, tracker.track_scene(records, params, calib, fps=config.fps,
                                       frame_stride=config.frame_skip)


def run_track(cfg: PipelineConfig) -> None:
    """Track every run of scene windows, the runs of all spots in one
    `_map_jobs` call, and write each spot's `trajectories.jsonl` in spot
    order, each run's lines encoded as they are written. A spot's
    detections are read when its first run is taken, and each run's are
    cut from their frame column, so records are built only for the run
    being tracked. With one worker one run's tracks are held at a time,
    never its text. Each file is recorded in `run.json`, with the digests
    of what it was made from and the tracker's parameters; a spot whose
    tracks are current is not tracked again.

    Every spot is checked (`_status`) before any is tracked. Scenes made
    from other spot files than those there now are refused there
    (`StaleInput`), with the spot's tracks and their entry removed and no
    other spot's touched, whatever the worker count; the spot's detections
    are parsed first, so that a malformed file fails as such."""
    record = _load_record(cfg.out_dir)
    params = dumps_sorted(asdict(cfg.tracker))
    spots = []
    for spot_dir in cfg.spot_dirs():
        config = load_spot_config(spot_dir)
        try:
            read, current = _status(record, spot_dir, "trajectories.jsonl",
                                    tracker=params)
        except StaleInput:
            load_detections(spot_dir, config)   # malformed fails as such
            raise
        if current:
            log.info("spot %s: trajectories.jsonl is up to date, not "
                     "tracked again", config.spot_id)
            continue
        spots.append((spot_dir, config, scene_runs(read_scenes(spot_dir)),
                      read))

    def jobs():
        for spot_dir, config, runs, read in spots:
            calib = config.build_calibration()
            records = load_detections(spot_dir, config)
            frames = records.frames     # already frame-ordered
            for run in runs:
                lo = bisect_left(frames, run[0].frame_start)
                hi = bisect_right(frames, max(s.frame_end for s in run))
                yield run, records[lo:hi], config, calib, cfg.tracker

    results = _map_jobs(_track_run_job, jobs(), cfg.workers)
    for spot_dir, config, runs, read in spots:
        counts = Counter()
        lines = (line for scenes, trajectories in islice(results, len(runs))
                 for line in scene_lines(trajectories, scenes, counts))
        _write_recorded(record, spot_dir, "trajectories.jsonl", read, lines)
        log.info("spot %s: tracked %d scenes in %d runs, %d trajectory rows "
                 "of %d distinct points", config.spot_id,
                 sum(map(len, runs)), len(runs), counts["rows"],
                 counts["points"])


_CLASSES = {c.value: c for c in ObjectClass}
_NUMBERS = frozenset(_NUMBER)
_SCENE_KEY = '"scene_id": "'
# The text of a JSON string that holds no escape: no quote, backslash or
# control character.
_plain_string = re.compile(r'[^"\\\x00-\x1f]*').fullmatch


def read_trajectories(spot_dir: Path, scenes: list[SceneSpan],
                      counts: Counter | None = None):
    """Each scene of `scenes` with its trajectories rebuilt from the dump,
    one run of scene windows at a time.

    Scenes come in `scene_runs` order, each run's in the run's order, with
    their tracks in object id order; a scene with no rows has none. The
    rows of a run are held until the first row of a later run arrives, or
    the file ends; then the run's scenes are yielded and its tracks let go.
    A scene's rows of one object come in frame order, as `scene_lines`
    writes them. A row raises MalformedRecord at its own line when its
    scene is not in `scenes`, when its scene's run was already yielded, or
    when, against its object's previous row in the scene, its class
    differs or its frame or time does not strictly increase. When given,
    `counts` gains the number of rows read ("rows") and of rows decoded in
    full ("decoded").

    A point's rows for its several scenes sit next to each other and
    differ only in `scene_id` (see `scene_lines`), so a row reuses the
    point, object id and class of the previous fully decoded row when it
    is that row with only its scene id's text changed:
    - the previous row holds no backslash and the key `"scene_id"` once,
      written `"scene_id": "`, with a plain string value equal to the
      decoded scene id;
    - the new row starts with the previous row's text up to that value
      (head) and ends with the text from the value's closing quote on
      (tail), and is at least as long as the two together;
    - the text between them holds no quote, backslash or control
      character, so plain `json` would read it as that very scene id.
    Every other row is decoded in full and its values checked.
    """
    runs = scene_runs(scenes)
    run_of = {span.scene_id: k for k, run in enumerate(runs) for span in run}
    path = spot_dir / "trajectories.jsonl"
    by_scene: dict[str, dict[str, Trajectory]] = {}
    current = 0     # the run whose rows are being read
    rows = decoded = 0
    head = tail = None
    cut = rest = 0
    traj_id = cls = pt = None
    for n, line in _stage_lines(path, "trajectories"):
        if line.isspace():
            continue
        rows += 1
        scene_id = None
        if (head is not None and len(line) >= cut + rest
                and line.startswith(head) and line.endswith(tail)):
            scene_id = line[cut:len(line) - rest]
            if not _plain_string(scene_id):
                scene_id = None
        if scene_id is None:
            try:
                r = json_line(line)
                frame, t, scene_id = r["frame"], r["t"], r["scene_id"]
                traj_id, det = r["object_id"], r["det"]
                (rx, ry), (sx, sy), (wx, wy) = (r["raw_px"], r["smooth_px"],
                                                r["world"])
                if (type(frame) is not int or type(scene_id) is not str
                        or type(traj_id) is not str or type(det) is not str
                        or not _NUMBERS.issuperset(
                            map(type, (t, rx, ry, sx, sy, wx, wy)))):
                    raise TypeError(
                        f"expected an integer frame, a string scene_id, "
                        f"object_id and det and numbers in t, raw_px, "
                        f"smooth_px and world, got {frame!r}, {scene_id!r}, "
                        f"{traj_id!r}, {det!r}, {t!r}, {[rx, ry]!r}, "
                        f"{[sx, sy]!r}, {[wx, wy]!r}")
                cls = _CLASSES[r["class"]]
                pt = TrackPoint(frame, t, (rx, ry), (sx, sy), (wx, wy), det)
            except _SHAPE_ERRORS as exc:
                raise _bad_row(path, "trajectories", n, exc) from exc
            decoded += 1
            head = None
            if "\\" not in line and line.count('"scene_id"') == 1:
                start = line.find(_SCENE_KEY) + len(_SCENE_KEY)
                end = line.find('"', start)
                if start >= len(_SCENE_KEY) and line[start:end] == scene_id:
                    head, tail = line[:start], line[end:]
                    cut, rest = start, len(line) - end
        k = run_of.get(scene_id, -1)
        if k != current:
            if k < current:
                raise MalformedRecord(n, f"{path}: scene {scene_id!r} " + (
                    "is not listed in scenes.jsonl" if k < 0 else
                    "belongs to a run of scenes whose rows ended earlier; "
                    "each run's rows must follow those of the run before"))
            yield from _run_scenes(runs[current:k], by_scene)
            by_scene = {}
            current = k
        tracks = by_scene.get(scene_id)
        if tracks is None:
            tracks = by_scene[scene_id] = {}
        traj = tracks.get(traj_id)
        if traj is None:
            tracks[traj_id] = Trajectory(traj_id, cls, [pt])
            continue
        if traj.object_class is not cls:
            raise MalformedRecord(n, f"{path}: object {traj_id!r} of scene "
                                  f"{scene_id!r} is both "
                                  f"{traj.object_class.value} and {cls.value}")
        last = traj.points[-1]
        if not (last.frame < pt.frame and last.t < pt.t):
            raise MalformedRecord(
                n, f"{path}: scene {scene_id!r}, object {traj_id!r}: frame "
                f"{pt.frame} at t {pt.t} follows frame {last.frame} at t "
                f"{last.t}; a track's frames and times must strictly increase")
        traj.points.append(pt)
    if counts is not None:
        counts.update(rows=rows, decoded=decoded)
    yield from _run_scenes(runs[current:], by_scene)


def _run_scenes(runs: list[list[SceneSpan]],
                by_scene: dict[str, dict[str, Trajectory]]):
    """Each scene of `runs` with its tracks in `by_scene`, which holds the
    rows of the first run only; see `read_trajectories`."""
    for run in runs:
        for span in run:
            tracks = by_scene.get(span.scene_id, {})
            yield span, [tracks[oid] for oid in sorted(tracks)]


# --- extract stage --------------------------------------------------------------


# Each SceneFeatures attribute written unchanged, and its `features.jsonl`
# key. The zone lists, the stop flag and the `pedestrians` map are encoded
# by hand in `features_to_record` and `record_to_features`.
_FEATURE_KEYS = {
    "scene_id": "scene_id",
    "spot_id": "spot_id",
    "frame_start": "frame_start",
    "frame_end": "frame_end",
    "interactive": "interactive",
    "vehicle_id": "vehicle_id",
    "vehicle_speeds_kmh": "vehicle_speed_kmh",
    "vehicle_accelerations": "vehicle_acceleration_list",
    "vehicle_acceleration_runs": "vehicle_acceleration_runs",
    "crosswalk_distances_m": "crosswalk_distance_m",
    "stop_distance_m": "stop_distance_m",
    "distances_m": "vehicle_pedestrian_distance_m",
    "relative_positions": "relative_position_list",
    "psm_seconds": "psm_seconds",
    "psm_seconds_refined": "psm_seconds_refined",
    "ped_in_crossing_area": "pedestrian_in_crossing_area",
}
_VEHICLE_ZONES = {z.value: z for z in VehicleZone}
_PEDESTRIAN_ZONES = {z.value: z for z in PedestrianZone}
_STOPPED = {"stop": True, "no stop": False}


def features_to_record(f: SceneFeatures) -> dict:
    """One `features.jsonl` record for a bundle: each pedestrian's entry
    holds its speeds (`speed_kmh`) and its zones (`position_list`)."""
    record = {key: getattr(f, attr) for attr, key in _FEATURE_KEYS.items()}
    record["vehicle_position_list"] = [z.value for z in f.vehicle_zones]
    record["car_stop_before_crosswalk"] = "stop" if f.stopped else "no stop"
    record["pedestrians"] = {
        pid: {"speed_kmh": speeds, "position_list": [z.value for z in zones]}
        for pid, (speeds, zones) in f.pedestrians.items()}
    return record


def record_to_features(r: dict) -> SceneFeatures:
    f = SceneFeatures(
        **{attr: r[key] for attr, key in _FEATURE_KEYS.items()},
        vehicle_zones=[_VEHICLE_ZONES[z] for z in r["vehicle_position_list"]],
        stopped=_STOPPED[r["car_stop_before_crosswalk"]],
        pedestrians={
            pid: (p["speed_kmh"],
                  [_PEDESTRIAN_ZONES[z] for z in p["position_list"]])
            for pid, p in r["pedestrians"].items()},
    )
    for v in f.vehicle_speeds_kmh:
        _typed(v)
    for v in (f.frame_start, f.frame_end):
        _typed(v, (int,))
    for v in (f.interactive, f.ped_in_crossing_area):
        _typed(v, (bool,))
    for v in (f.stop_distance_m, f.psm_seconds, f.psm_seconds_refined):
        _typed(v, _NUMBER_OR_NONE)
    return f


def scene_vehicle(trajectories: list[Trajectory], hint: str) -> Trajectory | None:
    """The scene's own vehicle: the vehicle track that consumed the most
    hinted detections, then the longest, then the smallest object id."""
    return min((t for t in trajectories
                if t.object_class is ObjectClass.VEHICLE),
               default=None,
               key=lambda t: (-sum(p.detection_id == hint for p in t.points),
                              -len(t), t.object_id))


# Why `_extract_scene_job` skipped a scene.
_NO_VEHICLE = "no_vehicle"
_NEVER_MOVED = "never_moved"


def _extract_scene_job(args) -> tuple[str | None, str | None]:
    """The scene's `features.jsonl` line, or None and the reason the scene
    was skipped."""
    span, trajectories, spot, calib, params = args
    vehicle = scene_vehicle(trajectories, span.vehicle_track_hint)
    if vehicle is None:
        return None, _NO_VEHICLE
    peds = [t for t in trajectories if t.object_class is ObjectClass.PEDESTRIAN]
    try:
        bundle = feat.extract_scene_features(
            span.scene_id, vehicle, peds, spot, calib, params)
    except ZeroHeading:
        return None, _NEVER_MOVED
    return dumps_sorted(features_to_record(bundle)), None


def _derived_line(params: FeatureParams, r: dict) -> str:
    """The `features.jsonl` line of row `r`'s bundle derived again under
    `params`."""
    return dumps_sorted(features_to_record(
        feat.derive(record_to_features(r), params)))


def run_extract(cfg: PipelineConfig) -> None:
    """Extract every scene's features and write each spot's
    `features.jsonl` in `scene_runs` order (see the module docstring),
    each line written as its scene is done. With one worker each scene is
    extracted as `read_trajectories` yields it, so one run of scene
    windows is held at a time, and no line once it is written. The
    features of a spot are derived again, or stale scenes and tracks
    refused, as the module docstring says."""
    record = _load_record(cfg.out_dir)
    for spot_dir in cfg.spot_dirs():
        config = load_spot_config(spot_dir)
        read, derive_only = _status(record, spot_dir, "features.jsonl")
        path = spot_dir / "features.jsonl"
        counts, outcomes = Counter(), Counter()
        if derive_only:
            results = ((line, None) for line in _rows(
                path, "features", partial(_derived_line, cfg.features)))
        else:
            calib = config.build_calibration()
            spot = feat.SpotZones(config)
            jobs = ((span, trajectories, spot, calib, cfg.features)
                    for span, trajectories in read_trajectories(
                        spot_dir, read_scenes(spot_dir), counts))
            results = _map_jobs(_extract_scene_job, jobs, cfg.workers)

        def lines():
            for line, why in results:
                outcomes[why] += 1
                if line is not None:
                    yield line

        _write_recorded(record, spot_dir, "features.jsonl", read, lines())
        log.info("spot %s: read %d trajectory rows, %d decoded in full; "
                 "%s features for %d scenes, skipped %d with no vehicle "
                 "track and %d whose vehicle never moved", config.spot_id,
                 counts["rows"], counts["decoded"],
                 "derived" if derive_only else "extracted", outcomes[None],
                 outcomes[_NO_VEHICLE], outcomes[_NEVER_MOVED])


# --- analyze stage --------------------------------------------------------------


def _scene_summary_of(r: dict) -> analytics.SceneSummary:
    return analytics.scene_summary(record_to_features(r))


def read_scene_summaries(spot_dir: Path) -> list[analytics.SceneSummary]:
    """Each `features.jsonl` row read, and checked, as a whole bundle by
    `record_to_features`, and held only as the summary the analysis
    reads."""
    return read_jsonl(spot_dir / "features.jsonl", "features",
                      _scene_summary_of)


def run_analyze(cfg: PipelineConfig) -> Path:
    """Write `analysis.json`: the record `analytics.analysis_record` builds
    from every spot's scene summaries. Two spot directories whose configs
    name one spot id raise PipelineError, since their scenes would merge
    into that spot's rows. Features that `run.json` shows made from other
    scenes or tracks than those it records now raise StaleInput."""
    record = _load_record(cfg.out_dir)
    spots = []
    dirs: dict[str, Path] = {}
    for spot_dir in cfg.spot_dirs():
        config = load_spot_config(spot_dir)
        first = dirs.setdefault(config.spot_id, spot_dir)
        if first != spot_dir:
            raise PipelineError(
                f"spot directories {first} and {spot_dir} both hold spot "
                f"{config.spot_id!r}")
        outputs = record.get(spot_dir.name, {})
        made = outputs.get("features.jsonl")
        for name in _WRITER:
            if (made is not None and name in outputs
                    and made["read"].get(name) != outputs[name]["sha256"]):
                raise StaleInput(
                    f"{spot_dir / name} has changed since extract read it to "
                    f"write {spot_dir / 'features.jsonl'}; run extract again")
        spots.append((config.spot_id, config.signalized,
                      read_scene_summaries(spot_dir)))
    doc = {"schema": SCHEMAS["analysis"],
           **analytics.analysis_record(spots, cfg.baseline_m)}
    path = Path(cfg.out_dir) / "analysis.json"
    write_file(path, [dumps_sorted(doc)])
    return path


# --- report stage --------------------------------------------------------------


def run_report(cfg: PipelineConfig) -> list[Path]:
    """Render `analysis.json` as the report's CSV files."""
    path = Path(cfg.out_dir) / "analysis.json"

    def render(doc):
        found = doc.get("schema") if isinstance(doc, dict) else doc
        if found != SCHEMAS["analysis"]:
            raise MalformedRecord(1, f"{path}: wrong schema {found!r}")
        return analytics.emit_report(Path(cfg.out_dir) / "report", doc)

    return _read_document(path, "an analysis record", render)


# --- helpers --------------------------------------------------------------------


def _map_jobs(fn, jobs, workers: int):
    """An iterator of `fn` over `jobs`, in order, which takes the jobs
    from `jobs` as it goes. One worker takes each job when its result is
    taken and runs it in this process. More run the jobs on one pool of
    processes, started only once a second job is there, in chunks (see
    `_chunks`), and keep at most `_CHUNKS_IN_FLIGHT` chunks per worker
    sent and not yet taken back, so this process holds no more jobs than
    that at once. The pool module is imported only then, since every run
    pays for the import. The pool sends back what `fn` returns: the track
    stage's tracks, which this process encodes as it writes them, and the
    extract stage's lines.

    No job is taken before a result is asked for, and an error raised by
    taking a job is raised once the results of the jobs before it are
    taken, so a stage that fails there leaves the same files at any worker
    count; a job's own error is raised when its result is due."""
    jobs = iter(jobs)
    if workers <= 1:
        return map(fn, jobs)
    return _pool_map(fn, jobs, workers)


# Chunks per worker sent to the pool and not yet taken back: enough that a
# worker has its next chunk queued when it finishes one.
_CHUNKS_IN_FLIGHT = 2
# The most jobs in one chunk.
_MAX_CHUNK = 32


def _chunks(jobs):
    """`jobs` in lists of 1, 2, 4, ... and then `_MAX_CHUNK` jobs: a few
    large jobs (crowd's one run per spot) still spread over the workers,
    and many small ones (a scene each) pay the pool's cost per call once
    a chunk."""
    size = 1
    while chunk := list(islice(jobs, size)):
        yield chunk
        size = min(2 * size, _MAX_CHUNK)


def _run_chunk(fn, chunk: list) -> list:
    return [fn(job) for job in chunk]


def _taken(jobs, failed: list):
    """The jobs of `jobs` until taking one raises; that error is then
    appended to `failed`."""
    try:
        yield from jobs
    except Exception as exc:
        failed.append(exc)


def _pool_map(fn, jobs, workers: int):
    failed = []
    jobs = _taken(jobs, failed)
    head = list(islice(jobs, 2))
    if len(head) <= 1:
        yield from map(fn, head)
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            sent = deque()
            for chunk in _chunks(chain(head, jobs)):
                sent.append(pool.submit(_run_chunk, fn, chunk))
                if len(sent) >= _CHUNKS_IN_FLIGHT * workers:
                    yield from sent.popleft().result()
            while sent:
                yield from sent.popleft().result()
    if failed:
        raise failed[0]


def run_all(cfg: PipelineConfig) -> None:
    run_synth(cfg)
    run_segment(cfg)
    run_track(cfg)
    run_extract(cfg)
    run_analyze(cfg)
    run_report(cfg)
