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


# --- features -------------------------------------------------------------

class ZeroHeading(PipelineError):
    """Vehicle never moved; no heading can be established."""


class NoConflict(PipelineError):
    """No conflict point exists between the two trajectories."""


# --- synth ----------------------------------------------------------------

class InvalidSpec(PipelineError):
    """Scenario specification is internally inconsistent."""


# --- io -------------------------------------------------------------------

class IoFailure(PipelineError):
    """A report or stage file could not be written."""


class StaleInput(PipelineError):
    """A stage file's inputs have changed since it was written."""
