"""Exceptions shared across modules, each with its own command-line error."""


class BudgetExceededError(RuntimeError):
    """An exhaustive routine refused to start or finish within its budget.

    Raised instead of silently truncating; the message carries the offending
    size and the configured ceiling.
    """


class LambdaSimplexError(ValueError):
    """GapParams mixing weights that do not sum to one.

    A ValueError, so malformed input either way; the command line names it
    "lambda-simplex-violation" rather than "invalid-parameter".
    """
