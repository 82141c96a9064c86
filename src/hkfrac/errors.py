"""Exception types shared across the package.

The split mirrors the CLI exit codes: validation problems (bad parameters,
bad config) exit 1, domain errors (argument outside the supported range of
an otherwise valid call) exit 2, convergence failures exit 3.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """A parameter violates its stated bound; the message names the bound."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation supports."""


class ConvergenceError(RuntimeError):
    """An iterative computation failed to converge.

    ``history`` carries whatever residual record was accumulated, and for the
    Picard solver ``report`` holds the partial solve report so callers can
    still inspect (and the CLI can still write) the audit trail.
    """

    def __init__(self, message, history=None, report=None):
        super().__init__(message)
        self.history = history
        self.report = report
