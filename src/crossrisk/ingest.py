"""Parsing and validation of detection records and spot configs.

The detector itself is an external system; its output reaches the pipeline
as line-delimited JSON records, one detected object per line:

    {"frame": 0, "class": "vehicle", "x": 512.0, "y": 400.0, "id": "d0"}

A leading header line of the form {"schema": "..."} is accepted and skipped
so stage files can be self-describing. Confidence scores, when present, are
accepted and ignored.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass

from . import geometry
from .errors import (
    DegenerateCalibration,
    MalformedRecord,
    MissingField,
    NonMonotoneFrame,
    OutOfBounds,
)

# One shared encoder for stage-file lines: json.dumps(..., sort_keys=True)
# builds a new JSONEncoder on every call. Same bytes as that call.
dumps_sorted = json.JSONEncoder(sort_keys=True).encode


class ObjectClass(enum.Enum):
    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"


@dataclass(frozen=True)
class DetectionRecord:
    """One detected object in one frame, positioned by its ground contact
    point (under the front bumper for vehicles, between the feet for
    pedestrians)."""

    frame_index: int
    object_class: ObjectClass
    contact_point_px: tuple[float, float]
    detection_id: str


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
        """Fit the pixel->world homography from the correspondences."""
        return geometry.Calibration(geometry.fit_homography(self.calibration)[0])


@dataclass
class ParseDiagnostic:
    """One skipped input line with the reason it was rejected."""

    line_number: int
    message: str


_CLASS_NAMES = {
    "vehicle": ObjectClass.VEHICLE,
    "car": ObjectClass.VEHICLE,
    "pedestrian": ObjectClass.PEDESTRIAN,
}


def _parse_line(line: str, line_number: int, config: SpotConfig,
                previous_frame: int) -> DetectionRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(line_number, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise MalformedRecord(line_number, "record is not an object")
    try:
        frame = obj["frame"]
        cls_name = obj["class"]
        x = obj["x"]
        y = obj["y"]
        det_id = obj["id"]
    except KeyError as exc:
        raise MalformedRecord(line_number, f"missing field {exc.args[0]!r}") from exc
    if not isinstance(frame, int) or isinstance(frame, bool) or frame < 0:
        raise MalformedRecord(line_number, f"frame must be a non-negative integer, got {frame!r}")
    cls = _CLASS_NAMES.get(str(cls_name).lower())
    if cls is None:
        raise MalformedRecord(line_number, f"unknown class {cls_name!r}")
    if (not isinstance(x, (int, float)) or not isinstance(y, (int, float))
            or isinstance(x, bool) or isinstance(y, bool)):
        raise MalformedRecord(line_number, "x and y must be numbers")
    w, h = config.frame_size
    if not (0 <= x < w and 0 <= y < h):
        raise OutOfBounds(
            line_number, f"point ({x}, {y}) outside frame {w}x{h}")
    if frame < previous_frame:
        raise NonMonotoneFrame(
            line_number, f"frame {frame} after frame {previous_frame}")
    if frame % config.frame_skip:
        # The tracker walks frames at this stride and would never see it.
        raise MalformedRecord(
            line_number,
            f"frame {frame} is not a multiple of frame_skip {config.frame_skip}")
    return DetectionRecord(
        frame_index=frame,
        object_class=cls,
        contact_point_px=(float(x), float(y)),
        detection_id=str(det_id),
    )


def parse_detections(stream, config: SpotConfig,
                     diagnostics: list[ParseDiagnostic] | None = None,
                     ) -> list[DetectionRecord]:
    """Parse line-delimited detection records in frame order.

    stream is an iterable of lines (an open text file works). Blank lines
    and a leading schema header line are skipped. When diagnostics is None
    the first bad line raises; when a list is supplied, each bad line
    appends one ParseDiagnostic and parsing continues, so every data line
    yields exactly one record or one diagnostic.
    """
    records: list[DetectionRecord] = []
    previous_frame = 0
    for line_number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line_number == 1 and '"schema"' in line:
            continue
        try:
            rec = _parse_line(line, line_number, config, previous_frame)
        except MalformedRecord as exc:
            if diagnostics is None:
                raise
            diagnostics.append(ParseDiagnostic(exc.line_number, str(exc)))
            continue
        previous_frame = rec.frame_index
        records.append(rec)
    return records


def format_detection(record: DetectionRecord) -> str:
    """Serialize one record to the line format parse_detections reads."""
    return dumps_sorted({
        "frame": record.frame_index,
        "class": record.object_class.value,
        "x": record.contact_point_px[0],
        "y": record.contact_point_px[1],
        "id": record.detection_id,
    })


def _require(doc: dict, key: str):
    if key not in doc:
        raise MissingField(f"spot config missing required field {key!r}")
    return doc[key]


def _flag(doc: dict, key: str) -> bool:
    value = _require(doc, key)
    if type(value) is not bool:
        raise TypeError(f"{key} must be true or false, got {value!r}")
    return value


def parse_spot_config(document: str | dict) -> SpotConfig:
    """Parse and validate a spot configuration JSON document.

    An absent field raises MissingField and unusable correspondences
    DegenerateCalibration; text that is not JSON, or a value of the wrong
    shape, raises what reading it raises, which `stages.load_spot_config`
    reports as MalformedRecord.
    """
    doc = json.loads(document) if isinstance(document, str) else document
    calibration = [
        ((float(c["pixel"][0]), float(c["pixel"][1])),
         (float(c["world"][0]), float(c["world"][1])))
        for c in _require(doc, "calibration")
    ]
    if len(calibration) < 4:
        raise DegenerateCalibration(
            f"need at least 4 calibration correspondences, got {len(calibration)}")
    if len(calibration) == 4 and geometry.has_collinear_triple(
            [c[1] for c in calibration]):
        raise DegenerateCalibration("3 collinear world points among the 4 used")

    frame_size = tuple(int(v) for v in _require(doc, "frame_size"))
    fps = float(_require(doc, "fps"))
    frame_skip = int(doc.get("frame_skip", 1))
    crosswalk_length = float(_require(doc, "crosswalk_length_m"))
    if fps <= 0 or frame_skip < 1 or crosswalk_length <= 0:
        raise MissingField(
            "fps must be > 0, frame_skip >= 1, crosswalk_length_m > 0")

    return SpotConfig(
        spot_id=str(_require(doc, "spot_id")),
        crosswalk_length_m=crosswalk_length,
        lanes=int(_require(doc, "lanes")),
        signalized=_flag(doc, "signalized"),
        school_zone=_flag(doc, "school_zone"),
        speed_camera=_flag(doc, "speed_camera"),
        speed_limit_kmh=float(_require(doc, "speed_limit_kmh")),
        frame_size=frame_size,
        fps=fps,
        frame_skip=frame_skip,
        calibration=calibration,
        crosswalk_polygon_world=[
            (float(p[0]), float(p[1]))
            for p in _require(doc, "crosswalk_polygon_world")],
        sidewalk_polygons_world=[
            [(float(p[0]), float(p[1])) for p in poly]
            for poly in _require(doc, "sidewalk_polygons_world")],
        approach_direction_world=tuple(
            float(v) for v in _require(doc, "approach_direction_world")),
        cia_buffer_m=float(doc.get("cia_buffer_m", 3.0)),
    )


def spot_config_to_dict(config: SpotConfig) -> dict:
    """Inverse of parse_spot_config, for dump/load round trips."""
    return {**asdict(config), "calibration": [
        {"pixel": list(px), "world": list(w)} for px, w in config.calibration]}
