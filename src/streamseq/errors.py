"""Exception hierarchy for streamseq.

Everything raised on purpose by this package derives from StreamSeqError,
so callers can catch one base class at an API boundary.  ValueError is a
second base on the input-validation subclasses because most of them signal
a bad argument in the ordinary Python sense.  _check_int is the one rule for
an integer parameter, so every such refusal reads alike.
"""

from __future__ import annotations


class StreamSeqError(Exception):
    """Base class for all errors raised by streamseq."""


class ParameterError(StreamSeqError, ValueError):
    """A parameter is out of its documented domain (bad span, thresholds
    out of order, nonsensical generator settings, ...)."""


def _check_int(name: str, value: object, low: int | None = None) -> None:
    """Raise ParameterError unless `value` is an int, not a bool, and at
    least `low` when `low` is given."""
    if not isinstance(value, int) or isinstance(value, bool) or (
        low is not None and value < low
    ):
        rule = "an int" if low is None else f"an integer >= {low}"
        raise ParameterError(f"{name} must be {rule}, got {value!r}")


class BoundsError(StreamSeqError, IndexError):
    """A window or extension does not fit inside its queue."""


class ContractError(StreamSeqError):
    """An internal consistency rule was violated: mixed candidate lengths,
    pattern-set invariants broken, sweep input too short to interpolate."""


class UndefinedSupportError(StreamSeqError, ZeroDivisionError):
    """Support was requested over an empty window."""


class IncompatiblePatternSetsError(StreamSeqError):
    """Two pattern sets were combined but were mined under different
    parameters, so their counts are not comparable."""


class EventLogParseError(StreamSeqError, ValueError):
    """An event-log text could not be parsed; carries the 1-based line."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PatternFileError(StreamSeqError, ValueError):
    """A pattern file is malformed (bad header, bad entry, bad count)."""
