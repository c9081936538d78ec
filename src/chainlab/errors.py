"""Exception taxonomy shared across the library and mapped to CLI exit codes."""


class InputError(ValueError):
    """Malformed or inconsistent user-supplied data (exit code 2)."""


class BudgetExceededError(RuntimeError):
    """A bounded enumeration hit its budget, or a cover's index exceeds it (exit code 3)."""


class VerificationFailure(RuntimeError):
    """A certificate or audit definitively failed (exit code 4)."""


class UndecidableContextError(RuntimeError):
    """The operation needs a context that decides the word problem."""


class TruncationTooSmallError(RuntimeError):
    """A truncated structure does not contain a required vertex or edge."""


class FactorizationNotFoundError(BudgetExceededError):
    """A bounded search found no factorization over the generating set."""
