"""Exception types shared across the package."""


class PrymlabError(Exception):
    """Base class for library-specific errors."""


class RankError(PrymlabError):
    """Rank outside the supported range for the requested operation."""


class MonodromyError(PrymlabError):
    """Invalid monodromy datum (rank mismatch, broken product relation)."""


class UnsupportedError(PrymlabError):
    """Requested regime is outside what the engine verifies."""


class DisconnectedError(PrymlabError):
    """Operation requires a connected cover; carries the component list."""

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = components or []


class GenerationError(PrymlabError):
    """Random datum generation failed (obstruction or rejection bound hit)."""


class DegenerateFormError(PrymlabError):
    """Restricted alternating form is degenerate; carries its radical."""

    def __init__(self, message, radical=None):
        super().__init__(message)
        self.radical = radical


class EquivarianceError(PrymlabError):
    """Fiber matrix does not commute with the monodromy action."""


class UnknownIdentityError(PrymlabError):
    """No catalog identity has the given name or letter."""


class ScenarioError(PrymlabError):
    """Scenario preconditions violated; carries the violation list."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or [message]
