"""Exception types shared across the package, and their converter `input_errors`."""


class ConstraintError(ValueError):
    """A parameter violates a validity constraint (bad family parameters etc.)."""


class InputDocumentError(ValueError):
    """A user-supplied document (audit file, catalog record) is malformed."""


class input_errors:
    """A context in which an error of one of `kinds` becomes InputDocumentError
    "<message>: <error>", chained to it; others pass through.  A class, not a
    `@contextmanager`: one instance guards each catalog record, at 1/8 the cost."""

    def __init__(self, message, kinds=OSError):
        self.message = message
        self.kinds = kinds

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, self.kinds):
            raise InputDocumentError(f"{self.message}: {exc}") from exc


class _WitnessError(Exception):
    """An error with an optional witness: the spec, keys or counts in question."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class InternalInvariantError(_WitnessError, RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class NotRationalError(ValueError):
    """A cyclotomic value expected to be rational is not."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"value is not rational: {value!r}")


class CharacterConflictError(_WitnessError, ValueError):
    """Generator assignments cannot extend to a character."""


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""
