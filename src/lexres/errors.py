"""Shared exception types, one per exit code of the command line."""


class BudgetError(RuntimeError):
    """A configured work budget (candidate products, recursion nodes) was
    exceeded; the computation was abandoned rather than truncated."""


class CheckFailure(RuntimeError):
    """A check of the construction failed on well-formed input."""


class InvariantError(CheckFailure):
    """A fact the construction guarantees was found broken, so its result
    cannot be trusted; reported like any failed check, never as bad input."""
