"""Exception types shared across the package."""

from __future__ import annotations


class LayoutError(Exception):
    """Base class for all package-specific errors."""


class MissingEntityError(LayoutError, KeyError):
    """An id taken from a scene, a layout or the command line names nothing
    there (no such asset, pose, node or fixture).

    A KeyError too, so callers that catch KeyError keep working; the CLI
    reports only this one as a validation failure, not every KeyError.
    """

    def __str__(self) -> str:
        # KeyError's own __str__ would quote the message like a key.
        return Exception.__str__(self)


class SceneSyntaxError(LayoutError):
    """Scene text is not well-formed (bad JSON, wrong top-level shape)."""


class SceneSemanticError(LayoutError):
    """Scene parsed but violates a structural rule.

    Carries a `location` string (for example "relations[3].target")
    pointing at the offending element.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


class InfeasibleRoomError(LayoutError):
    """Room is too small to admit an in-bounds initialization."""


class DivergenceError(LayoutError):
    """Optimization produced a non-finite loss or parameter value."""

    def __init__(self, message: str, iteration: int = -1):
        self.iteration = iteration
        super().__init__(message)


class UnreachableNodeError(LayoutError):
    """Requested a path between graph nodes with no connecting path."""


class RevisionError(LayoutError):
    """A reviser returned an invalid or out-of-scope relation edit."""
