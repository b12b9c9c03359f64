"""Exception hierarchy shared across the pipeline.

Everything raised on bad data derives from PipelineError so the CLI can map
data problems to exit code 1 and leave genuine bugs to crash loudly.
"""


class PipelineError(Exception):
    """Base class for all data and configuration errors."""


# --- ingest ---------------------------------------------------------------

class MalformedRecord(PipelineError):
    """A detection line could not be parsed (bad field count or type)."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class OutOfBounds(MalformedRecord):
    """A contact point lies outside the configured frame size."""


class NonMonotoneFrame(MalformedRecord):
    """frame_index decreased within one input file."""


class MissingField(PipelineError):
    """A required spot-config field is absent."""


class DegenerateCalibration(PipelineError):
    """Calibration correspondences cannot support a homography fit."""


# --- geometry -------------------------------------------------------------

class PointAtInfinity(PipelineError):
    """Projection hit the homography's vanishing line."""


class NonPositiveLength(PipelineError):
    """A length that must be positive was zero or negative."""


class NonPositiveRate(PipelineError):
    """fps or frame skip that must be positive was zero or negative."""


# --- features -------------------------------------------------------------

class TooShort(PipelineError):
    """Trajectory or list too short for the requested computation."""


class MissingPolygons(PipelineError):
    """Spot config lacks the polygons needed for zone classification."""


class NoOverlap(PipelineError):
    """Two trajectories share no frames."""


class ZeroHeading(PipelineError):
    """Vehicle never moved; no heading can be established."""


class NoConflict(PipelineError):
    """No conflict point exists between the two trajectories."""


# --- analytics ------------------------------------------------------------

class EmptySpot(PipelineError):
    """No scenes available for a spot-level statistic."""


class NoQualifyingScenes(PipelineError):
    """No scene passes the filter required by the analysis."""


class OneSidedDistribution(PipelineError):
    """Range binning needs both positive and negative samples."""


# --- synth ----------------------------------------------------------------

class InvalidSpec(PipelineError):
    """Scenario specification is internally inconsistent."""


# --- io -------------------------------------------------------------------

class IoFailure(PipelineError):
    """A report or stage file could not be written."""
