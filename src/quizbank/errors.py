"""Exception hierarchy for quizbank."""


class QuizbankError(Exception):
    """Base class for all quizbank errors."""


class ValidationError(QuizbankError, ValueError):
    """An operation was called with arguments that violate its contract."""


class DuplicateTextError(ValidationError):
    """Two texts of one question that must differ are equal once trimmed."""


class CapacityError(ValidationError):
    """More questions were requested than the pool can distinctly produce."""


class SamplingError(QuizbankError):
    """A distractor draw could not be satisfied from the available pool."""


class BankParseError(QuizbankError):
    """A question-bank document could not be parsed.

    ``line`` and ``column`` are set when the underlying XML parser
    reported a position, otherwise they are ``None``.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
