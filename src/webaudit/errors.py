"""Exception types shared across the toolkit."""


class AuditError(Exception):
    """Base class for all webaudit errors."""


class NoContentfulPaint(AuditError):
    """The page never painted content; the audit is failed, not scored 0."""


class IncompleteVisualProgress(AuditError):
    """Visual progress never reached 1.0, so the speed index is undefined."""


class InvalidCurve(AuditError):
    """A scoring curve whose point of diminishing returns is not below its median."""


class WeightMismatch(AuditError):
    """A weighted aggregate was asked for with a metric score missing."""


class CyclicPlan(AuditError):
    """A request graph whose parent references form a cycle.

    ``request`` names a request that never starts because a cycle lies on
    its parent chain: its index, or its id in a plan file.
    """

    def __init__(self, request: int | str):
        super().__init__(f"dependency cycle: request {request!r} never starts")
        self.request = request


class ThrottleOverflow(AuditError):
    """A throttle so extreme that a replayed time is no longer finite, or
    the downlink simulation stops advancing."""


class ParseError(AuditError):
    """A document that could not be parsed at all."""


class SchemaError(AuditError):
    """A parsed document with missing or invalid fields.

    ``path`` names the offending field, e.g. ``requests[3].end_ms``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ConversionError(AuditError):
    """Browser performance entries could not be converted to a trace."""


class CsvError(AuditError):
    """A corpus CSV row that failed validation."""

    def __init__(self, line: int, column: str | None, message: str):
        where = f"line {line}" if column is None else f"line {line}, column {column!r}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


class DuplicateUrl(AuditError):
    """A corpus URL that already appeared on an earlier line."""

    def __init__(self, line: int, url: str):
        super().__init__(f"line {line}: duplicate url {url}")
        self.line = line
        self.url = url


class UnknownFormat(AuditError):
    """An unsupported report output format."""
