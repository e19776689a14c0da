"""Exception types shared across the calibration pipeline."""


class LidarCalibError(Exception):
    """Base class for all package errors."""


class AngleNearPi(LidarCalibError):
    """Rotation angle too close to pi for a well-conditioned logarithm."""


class ParseError(LidarCalibError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedField(LidarCalibError):
    """PCD file uses fields outside the supported subset."""


class NonMonotonicStamps(LidarCalibError):
    """Trajectory stamps are not strictly increasing."""


class StampMismatch(LidarCalibError):
    """Frame stamp has no trajectory sample within the association tolerance."""


class InvalidParams(LidarCalibError):
    """Parameter combination violates a documented precondition."""


def check_rules(values, rules) -> None:
    """Raise InvalidParams("key = values[key]: rule") for the first (key,
    ok, rule) row whose ok is false. Each ok states what a good value
    passes (`x > 0`, not a negated `x <= 0`), so that NaN fails it."""
    for key, ok, rule in rules:
        if not ok:
            raise InvalidParams(f"{key} = {values[key]!r}: {rule}")


class DegenerateGeometry(LidarCalibError):
    """An LBA frame's matches are `Unobservable`; the message names the
    window and the frame. (A voxel cell that cannot hold a plane is
    discarded instead, without an error.)"""

    def __init__(self, message: str, window: int | None = None):
        self.window = window
        if window is not None:
            message = f"window {window}: {message}"
        super().__init__(message)


class Unobservable(LidarCalibError):
    """Point-to-plane matches do not pin all six pose degrees of freedom, by
    the one test of every LM solve (`ptplane.lm_refine`). `calibrate` adds
    the usable frames' indices."""

    def __init__(self, message: str, frame_indices: list[int] | None = None):
        self.frame_indices = frame_indices or []
        if self.frame_indices:
            message = f"{message} (frames {self.frame_indices})"
        super().__init__(message)


class NoCorrespondences(LidarCalibError):
    """Every source frame failed plane association."""


class EmptyFrame(LidarCalibError):
    """A simulated scan produced no returns."""


class ConfigError(LidarCalibError):
    """Bad key or value in a run configuration."""
