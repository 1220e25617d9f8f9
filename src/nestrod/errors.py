"""Exception types raised across the package.

Every error carries a plain-English message; parse/validation errors
additionally aggregate all problems found so a user sees the complete
list at once instead of fixing them one re-run at a time.
"""

from __future__ import annotations


class NestrodError(Exception):
    """Base class for all package errors."""


class ValidationError(NestrodError):
    """One or more input problems. ``problems`` lists every one found."""

    def __init__(self, problems: list[str] | str):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class EmptyAssembly(ValidationError):
    """Assembly contains no tubes."""


class OutOfDomain(NestrodError):
    """Arc-length query outside a routing path's domain."""


class NoConvergence(NestrodError):
    """Shooting iteration failed to meet tolerance within the iteration cap."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ParseError(ValidationError):
    """Scenario text/JSON could not be parsed. Collects every bad line."""


class UnitError(ParseError):
    """A scenario key carries an unknown or inconsistent unit suffix."""


class UnknownPreset(NestrodError):
    """Requested preset name is not in the bundled catalogue."""
