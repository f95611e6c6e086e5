"""Exception types shared across the toolkit.

Everything raised on purpose derives from :class:`GkgError`, so callers
(including the CLI) can distinguish domain failures from programming bugs.
"""

from __future__ import annotations


class GkgError(Exception):
    """Base class for all toolkit errors."""


class DuplicateTypeError(GkgError):
    """A type was added to a hierarchy that already contains it."""


class UnknownParentError(GkgError):
    """A type was added under a parent the hierarchy does not know."""


class UnknownTypeError(GkgError):
    """A type id was referenced that is absent from the hierarchy."""


class CycleError(GkgError):
    """Loading a batch of subtype edges would create a cycle."""

    def __init__(self, members):
        self.members = tuple(sorted(str(m) for m in members))
        super().__init__(f"subtype cycle involving: {', '.join(self.members)}")


class UnknownNodeError(GkgError):
    """A node id was referenced that is absent from the graph."""


class DuplicateNodeError(GkgError):
    """Two different nodes were registered under the same id."""


class SignatureViolationError(GkgError):
    """An edge was proposed whose endpoint kinds the relation does not admit."""

    def __init__(self, relation, subject_kind, object_kind):
        self.relation = relation
        self.subject_kind = subject_kind
        self.object_kind = object_kind
        super().__init__(
            f"{relation.value} does not admit "
            f"({subject_kind.name}, {object_kind.name})"
        )


class NotAContinuantError(GkgError):
    """An entity-level operation was applied to a non-continuant node."""


class EmptyTokenError(GkgError):
    """An embedding was requested for an empty token."""


class InvalidParameterError(GkgError, ValueError):
    """A numeric setting (threshold, ambiguity band, weight, dimension,
    trial count) is outside its range."""


class GkgSyntaxError(GkgError):
    """A text input could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class MalformedLineError(GkgSyntaxError):
    """A flat-triple line did not have exactly three tab-separated fields."""


class UnknownRoleError(GkgSyntaxError):
    """A rule or role declaration named a relation that cannot carry roles."""


class VectorFileError(GkgSyntaxError):
    """A word-vector file was malformed (bad header, row width, duplicate)."""


class DuplicateRuleError(GkgError):
    """Two reification rules would match the same relation name."""

    def __init__(self, rel_name: str):
        self.rel_name = rel_name
        super().__init__(f"duplicate rule for relation {rel_name!r}")


class ValidationFailedError(GkgError):
    """A parsed or constructed document failed graph validation."""

    def __init__(self, report):
        self.report = report
        issues = getattr(report, "issues", ())
        super().__init__(f"validation failed with {len(issues)} issue(s)")


class AlignmentMismatchError(GkgError):
    """An alignment references nodes that the merged graphs do not contain."""


class IdCollisionError(GkgError):
    """Two graphs being merged use one node id for different content."""
