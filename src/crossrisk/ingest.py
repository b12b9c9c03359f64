"""Parsing and validation of detection records and spot configs.

The detector itself is an external system; its output reaches the pipeline
as line-delimited JSON records, one detected object per line:

    {"frame": 0, "class": "vehicle", "x": 512.0, "y": 400.0, "id": "d0"}

Stage files are self-describing, so the first line is skipped when it is
a header: a JSON object whose only key is "schema", with a string value,
e.g. {"schema": "crossrisk/detections/v1"}. Any other first line is read
as a detection. Confidence scores, when present, are accepted and ignored.

The parse is strict: the first bad line raises a line-numbered
MalformedRecord (or one of its subclasses), and nothing is skipped or
repaired. A line must be UTF-8 text. An id is a string or an integer (not
a bool); an integer id becomes its decimal text. Ids are unique within a
frame.

A spot's detection stream is the pipeline's largest input: it grows with
the hours of footage, and the segment and track stages each read a whole
spot's stream. So the parse returns a `DetectionTable`, which holds the
stream as columns, about 43 bytes a detection where a list of
`DetectionRecord`s held 276, and builds a record only when one is read.
`write_file` writes every file of the pipeline, each whole or not at all.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os
from array import array
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

from . import geometry
from .errors import (
    IoFailure,
    MalformedRecord,
    MissingField,
    NonMonotoneFrame,
    OutOfBounds,
)

# One shared encoder for stage-file lines: json.dumps(..., sort_keys=True)
# builds a new JSONEncoder on every call. Same bytes as that call.
dumps_sorted = json.JSONEncoder(sort_keys=True).encode

_scan_once = json.JSONDecoder().scan_once


def json_line(line: str):
    """`json.loads(line)` for a line that holds one JSON value, read by the
    decoder's C scanner without `json.loads`' Python layers.

    The value must start the line and end it, before an optional final
    newline; for any other line, and for text that is not JSON,
    `json.loads` gives the result or raises its error.
    """
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, json.JSONDecodeError):
        return json.loads(line)
    if end != len(line) and line[end:] != "\n":
        return json.loads(line)
    return value


# The pieces of a row template that writes what `dumps_sorted` writes:
# strings escaped to ASCII, and numbers through `int.__repr__` and
# `float.__repr__` rather than `repr`, so a numpy float64 reads like the
# float it is.
json_str = json.encoder.encode_basestring_ascii
json_int = int.__repr__
json_float = float.__repr__


def json_nonfinite(text: str) -> str:
    """`text`, `json_float` outputs between key text that holds no "n",
    with NaN and the infinities spelt as `json` spells them."""
    if "n" not in text:
        return text
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def write_file(path, pieces) -> str:
    """Write the text `pieces` to `path`, each encoded, hashed and written
    as it is taken and let go before the next is built, under `.NAME.part`
    renamed to `path` once whole; return the sha256 of the bytes in hex.
    On any failure, also one taking a piece, neither file is left, and an
    OSError is raised as IoFailure naming `path`."""
    path = Path(path)
    part = path.with_name(f".{path.name}.part")
    sha = hashlib.sha256()
    try:
        try:
            with open(part, "wb") as fh:
                for data in map(str.encode, pieces):
                    sha.update(data)
                    fh.write(data)
                    del data        # not held while the next piece is built
            os.replace(part, path)
        except BaseException:
            part.unlink(missing_ok=True)
            path.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return sha.hexdigest()


class ObjectClass(enum.Enum):
    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"


class DetectionRecord(NamedTuple):
    """One detected object in one frame, positioned by its ground contact
    point (under the front bumper for vehicles, between the feet for
    pedestrians)."""

    frame_index: int
    object_class: ObjectClass
    contact_point_px: tuple[float, float]
    detection_id: str


# `DetectionRecord(*fields)` by the tuple constructor, which skips the
# Python-level `__new__` that NamedTuple adds: about 40 % less time.
_new_record = tuple.__new__


class DetectionTable(Sequence):
    """A frame-ordered detection stream, held as columns: frames in an
    int64 `array`, contact points in two double `array`s, and per record
    one reference to its `ObjectClass` and one to its id, each distinct id
    string stored once. That is 40 bytes a detection, before the columns'
    spare room. A `DetectionRecord` is built only when one is indexed or
    iterated over; a slice is a table of copied columns. Nothing changes
    the columns once the table is built.
    """

    __slots__ = ("frames", "xs", "ys", "classes", "ids")

    def __init__(self, frames: array, xs: array, ys: array,
                 classes: list[ObjectClass], ids: list[str]):
        if not len(frames) == len(xs) == len(ys) == len(classes) == len(ids):
            raise ValueError("detection columns of unequal lengths")
        self.frames = frames
        self.xs = xs
        self.ys = ys
        self.classes = classes
        self.ids = ids

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DetectionTable(self.frames[i], self.xs[i], self.ys[i],
                                  self.classes[i], self.ids[i])
        return DetectionRecord(self.frames[i], self.classes[i],
                               (self.xs[i], self.ys[i]), self.ids[i])

    def __iter__(self):
        return map(_new_record, repeat(DetectionRecord), zip(
            self.frames, self.classes, zip(self.xs, self.ys), self.ids))


def is_utf8(line: str) -> bool:
    """Whether `line` is text that UTF-8 can encode. A file opened with
    `errors="surrogateescape"` reads each byte that is not UTF-8 as a lone
    surrogate, which UTF-8 cannot encode; the check costs nothing on an
    ASCII line."""
    if line.isascii():
        return True
    try:
        line.encode()
    except UnicodeEncodeError:
        return False
    return True


@dataclass(frozen=True)
class SpotConfig:
    """Per-camera metadata plus calibration and zone geometry."""

    spot_id: str
    crosswalk_length_m: float
    lanes: int
    signalized: bool
    school_zone: bool
    speed_camera: bool
    speed_limit_kmh: float
    frame_size: tuple[int, int]
    fps: float
    calibration: list[tuple[tuple[float, float], tuple[float, float]]]
    crosswalk_polygon_world: list[tuple[float, float]]
    sidewalk_polygons_world: list[list[tuple[float, float]]]
    approach_direction_world: tuple[float, float]
    frame_skip: int = 1
    cia_buffer_m: float = 3.0

    def build_calibration(self) -> geometry.Calibration:
        """The pixel->world calibration fitted when the config was parsed."""
        return _calibration(tuple(self.calibration))


_CLASS_NAMES = {
    "vehicle": ObjectClass.VEHICLE,
    "car": ObjectClass.VEHICLE,
    "pedestrian": ObjectClass.PEDESTRIAN,
}


def _is_header(obj) -> bool:
    return (type(obj) is dict and len(obj) == 1
            and type(obj.get("schema")) is str)


# The largest frame an int64 column holds.
_MAX_FRAME = 2**63 - 1


def parse_detections(stream, config: SpotConfig) -> DetectionTable:
    """Parse line-delimited detection records in frame order, into a
    `DetectionTable` (see the module docstring for why columns).

    stream is an iterable of lines (an open text file works; open it with
    `errors="surrogateescape"`, so that a byte that is not UTF-8 fails at
    its own line). Blank lines and a schema header on line 1 (see the
    module docstring) are skipped; the first bad line raises.
    """
    frames = array("q")
    xs = array("d")
    ys = array("d")
    classes: list[ObjectClass] = []
    ids: list[str] = []
    distinct_ids: dict[str, str] = {}
    w, h = config.frame_size
    skip = config.frame_skip
    previous_frame = 0
    frame_ids: set[str] = set()
    for line_number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if not is_utf8(line):
            raise MalformedRecord(line_number, "not UTF-8 text")
        try:
            obj = json_line(line)
        except ValueError as exc:   # JSONDecodeError, or an int too long
            raise MalformedRecord(line_number, "invalid JSON "
                                  f"({getattr(exc, 'msg', exc)})") from exc
        if line_number == 1 and _is_header(obj):
            continue
        if type(obj) is not dict:
            raise MalformedRecord(line_number, "record is not an object")
        try:
            frame = obj["frame"]
            cls_name = obj["class"]
            x = obj["x"]
            y = obj["y"]
            det_id = obj["id"]
        except KeyError as exc:
            raise MalformedRecord(
                line_number, f"missing field {exc.args[0]!r}") from exc
        if type(frame) is not int or frame < 0:
            raise MalformedRecord(
                line_number,
                f"frame must be a non-negative integer, got {frame!r}")
        cls = _CLASS_NAMES.get(str(cls_name).lower())
        if cls is None:
            raise MalformedRecord(line_number, f"unknown class {cls_name!r}")
        # `type(v) in (int, float)` leaves out bool.
        if type(x) not in (int, float) or type(y) not in (int, float):
            raise MalformedRecord(line_number, "x and y must be numbers")
        if not (0 <= x < w and 0 <= y < h):
            raise OutOfBounds(
                line_number, f"point ({x}, {y}) outside frame {w}x{h}")
        if type(det_id) is int:
            det_id = str(det_id)
        elif type(det_id) is not str:
            raise MalformedRecord(
                line_number, f"id must be a string or integer, got {det_id!r}")
        if frame != previous_frame:
            if frame < previous_frame:
                raise NonMonotoneFrame(
                    line_number, f"frame {frame} after frame {previous_frame}")
            if frame % skip:
                # The tracker walks frames at this stride and would never
                # see it.
                raise MalformedRecord(
                    line_number,
                    f"frame {frame} is not a multiple of frame_skip {skip}")
            if frame > _MAX_FRAME:
                raise MalformedRecord(
                    line_number, f"frame {frame} is past the last frame "
                    f"a 64-bit integer holds, {_MAX_FRAME}")
            previous_frame = frame
            frame_ids.clear()
        elif det_id in frame_ids:
            raise MalformedRecord(
                line_number, f"id {det_id!r} repeated in frame {frame}")
        frame_ids.add(det_id)
        frames.append(frame)
        xs.append(x)
        ys.append(y)
        classes.append(cls)
        ids.append(distinct_ids.setdefault(det_id, det_id))
    return DetectionTable(frames, xs, ys, classes, ids)


def format_detection(record: DetectionRecord) -> str:
    """Serialize one record to the line format parse_detections reads.

    The text is `dumps_sorted` of the record's row, written from that
    layout's template: keys in sorted order, `json`'s separators and
    escapes.
    """
    frame, cls, (x, y), det_id = record
    return (f'{{"class": {json_str(cls.value)}, "frame": {json_int(frame)}, '
            f'"id": {json_str(det_id)}, '
            + json_nonfinite(f'"x": {json_float(x)}, "y": {json_float(y)}}}'))


def _require(doc: dict, key: str):
    if key not in doc:
        raise MissingField(f"spot config missing required field {key!r}")
    return doc[key]


def _flag(doc: dict, key: str) -> bool:
    value = _require(doc, key)
    if type(value) is not bool:
        raise TypeError(f"{key} must be true or false, got {value!r}")
    return value


def _real(value, what: str) -> float:
    """A number as a float; an int is a number, a bool or text is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    """A finite number as a float."""
    value = _real(value, what)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def _pair(value, what: str, item=_finite) -> tuple:
    x, y = value
    return (item(x, what), item(y, what))


def _positive(value, what: str):
    if not 0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value!r}")
    return value


def _polygon(value, what: str) -> list[tuple[float, float]]:
    polygon = [_pair(p, what) for p in value]
    if len(polygon) < 3:
        raise ValueError(f"{what} needs at least 3 vertices, got {len(polygon)}")
    return polygon


@lru_cache(maxsize=256)
def _calibration(correspondences: tuple) -> geometry.Calibration:
    """The calibration `geometry` fits to the correspondences, or
    DegenerateCalibration. Remembered and shared, since every stage loads
    every spot's config and a fit costs more than the rest of the parse."""
    return geometry.Calibration(geometry.fit_homography(correspondences))


def parse_spot_config(doc: dict) -> SpotConfig:
    """Validate a decoded spot configuration JSON document.

    Numbers are checked, not coerced: a bool or text where a number
    belongs, a float in `lanes`, `frame_skip` or `frame_size`, or a
    `spot_id` that is not text raises TypeError, and a value out of range
    ValueError: a coordinate or `cia_buffer_m` that is not finite,
    `fps`, `crosswalk_length_m`, `speed_limit_kmh`, `lanes`, `frame_skip`
    or a `frame_size` side not above 0, `cia_buffer_m` below 0, a polygon
    of fewer than 3 vertices, an approach direction of zero length.
    An absent field raises MissingField, and correspondences from which
    `geometry` fits no calibration DegenerateCalibration, so every stage
    refuses them when it loads the config; a value of the wrong shape or
    out of range raises what reading it raises, which
    `stages.load_spot_config` reports as MalformedRecord.
    """
    calibration = [
        (_pair(c["pixel"], "calibration pixel"),
         _pair(c["world"], "calibration world"))
        for c in _require(doc, "calibration")
    ]
    _calibration(tuple(calibration))

    spot_id = _require(doc, "spot_id")
    if type(spot_id) is not str:
        raise TypeError(f"spot_id must be a string, got {spot_id!r}")
    frame_size = _pair(_require(doc, "frame_size"), "frame_size", _integer)
    for side in frame_size:
        _positive(side, "frame_size")
    approach = _pair(_require(doc, "approach_direction_world"),
                     "approach_direction_world")
    _positive(math.hypot(*approach), "approach_direction_world's length")
    cia_buffer_m = _finite(doc.get("cia_buffer_m", 3.0), "cia_buffer_m")
    if cia_buffer_m < 0:
        raise ValueError(f"cia_buffer_m must be >= 0, got {cia_buffer_m!r}")

    return SpotConfig(
        spot_id=spot_id,
        crosswalk_length_m=_positive(_real(
            _require(doc, "crosswalk_length_m"), "crosswalk_length_m"),
            "crosswalk_length_m"),
        lanes=_positive(_integer(_require(doc, "lanes"), "lanes"), "lanes"),
        signalized=_flag(doc, "signalized"),
        school_zone=_flag(doc, "school_zone"),
        speed_camera=_flag(doc, "speed_camera"),
        speed_limit_kmh=_positive(_real(
            _require(doc, "speed_limit_kmh"), "speed_limit_kmh"),
            "speed_limit_kmh"),
        frame_size=frame_size,
        fps=_positive(_real(_require(doc, "fps"), "fps"), "fps"),
        frame_skip=_positive(_integer(doc.get("frame_skip", 1), "frame_skip"),
                             "frame_skip"),
        calibration=calibration,
        crosswalk_polygon_world=_polygon(
            _require(doc, "crosswalk_polygon_world"), "crosswalk_polygon_world"),
        sidewalk_polygons_world=[
            _polygon(poly, "sidewalk_polygons_world")
            for poly in _require(doc, "sidewalk_polygons_world")],
        approach_direction_world=approach,
        cia_buffer_m=cia_buffer_m,
    )


def spot_config_to_dict(config: SpotConfig) -> dict:
    """Inverse of parse_spot_config, for dump/load round trips."""
    return {**asdict(config), "calibration": [
        {"pixel": list(px), "world": list(w)} for px, w in config.calibration]}
