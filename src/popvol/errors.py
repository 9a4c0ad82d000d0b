"""Exception types shared across the pipeline, and the one rule each for a
JSON document, a JSON number and a decimal number in text.

Every error raised by the library derives from PipelineError so the CLI can
turn any module failure into a one-line diagnostic and a nonzero exit code.
"""

import json
import math

# The types ``json`` gives a number; ``bool`` is a type of its own.
JSON_NUMBERS = (int, float)


class PipelineError(Exception):
    """Base class for all popvol errors."""


class AsciiGridError(PipelineError):
    """Malformed ASCII grid input. Carries the 1-based line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class GeorefMismatchError(PipelineError):
    """Two grids do not share dimensions, origin, or cell size."""


class FootprintError(PipelineError):
    """Invalid footprint geometry or footprint file contents."""


class EmptySelectionError(FootprintError):
    """A footprint selected no raster cells."""

    def __init__(self, footprint_id):
        super().__init__(f"footprint {footprint_id!r} selects no raster cells")


class InsufficientCoverageError(FootprintError):
    """Too few valid raster cells under a footprint to extract a height."""

    def __init__(self, footprint_id, valid_cells, min_cells):
        super().__init__(
            f"footprint {footprint_id!r} has {valid_cells} valid cells, "
            f"needs at least {min_cells}"
        )


class ConfigError(PipelineError):
    """Invalid or incomplete configuration."""


class OsmParseError(PipelineError):
    """Malformed OSM XML input."""


class SceneError(PipelineError):
    """Invalid synthetic scene definition."""


class ReportMismatchError(PipelineError):
    """Estimated and ground-truth type labels do not line up."""


def json_document(text: str, error: type, what: str):
    """The value of the JSON ``text``; text ``json`` cannot decode, or nested
    deeper than its recursion limit, raises ``error`` naming ``what``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise error(f"invalid {what}: {e}") from None


def json_number(value, where: str, error: type, whole: bool = False):
    """``value`` if it is a finite JSON number, as an ``int`` when ``whole``;
    anything else (a boolean, a string, a fraction when ``whole``) raises ``error``."""
    if type(value) in JSON_NUMBERS:
        try:
            if math.isfinite(value) and (not whole or float(value).is_integer()):
                return int(value) if whole else value
        except OverflowError:  # an integer beyond the float range
            pass
    raise error(f"{where} must be a {'whole' if whole else 'finite'} number, got {value!r}")


def decimal(text: str, convert=float):
    """``convert(text)``, ``convert`` being ``float``, ``int`` or a checked
    reader of one; None where it raises a ValueError or a PipelineError, or
    the text holds a non-ASCII character or an underscore, which ``float`` and
    ``int`` read as a digit ("\u0665" is 5) and a digit group ("1_0" is 10)."""
    try:
        return convert(text) if text.isascii() and "_" not in text else None
    except (ValueError, PipelineError):
        return None
