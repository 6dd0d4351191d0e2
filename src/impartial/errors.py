"""Exception types shared across the package."""


class GameError(Exception):
    """Base class for errors raised by this package."""


class ParseError(GameError, ValueError):
    """A position string does not conform to the expected text syntax."""


class DomainError(GameError, ValueError):
    """A position or bound lies outside the domain of the ruleset."""


class BudgetExceededError(GameError):
    """A job's units exceed its budget, or an input exceeds a kernel's fixed limit."""
