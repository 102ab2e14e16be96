"""Exception types shared across the package."""

__all__ = ["ExitGumbelError", "GuardExceeded", "BudgetExceeded", "NoBracket", "NonFiniteResult"]


class ExitGumbelError(Exception):
    """Base class for all package-specific errors."""


class GuardExceeded(ExitGumbelError):
    """A simulated path did not exit before the guard horizon.

    The process exits almost surely, so this signals a mis-sized horizon;
    `duhamel_exit_time` raises it when a noise grid holds no crossing.
    """


class BudgetExceeded(ExitGumbelError):
    """Rejection sampling would need more attempts than the attempt cap.

    Raised when the right-exit event is too rare for rejection; the
    closed-form limit-law sampler should be used instead.
    """


class NoBracket(ExitGumbelError):
    """A root was not bracketed on the search interval."""


class NonFiniteResult(ExitGumbelError):
    """A computed value meant for a JSON report is NaN or infinite."""
