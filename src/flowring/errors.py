"""Exception types shared across the package."""


class FlowringError(Exception):
    """Base class for all library errors."""


class OrderMismatchError(FlowringError):
    """Two series with different truncation orders were combined."""


class DomainMismatchError(FlowringError):
    """Values from different coefficient domains were combined."""


class NotAUnitError(FlowringError):
    """Inversion of a series whose leading coefficient is zero."""


class OrderExhaustedError(FlowringError):
    """An operation needed more truncated coefficients than are known."""


class OutOfRangeError(FlowringError):
    """An index or size argument lies outside its documented range."""


class DomainRequiredError(FlowringError):
    """The expression needs a wider coefficient domain than the one selected."""


class UnsupportedArgumentError(FlowringError):
    """exp/sin/cos applied to something other than a scalar multiple of x."""


class ParseError(FlowringError):
    """Syntax error, with a 0-based byte offset and the tokens expected there."""

    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        suffix = ""
        if self.expected:
            suffix = " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(f"{message} at offset {offset}{suffix}")


class ClosedFormDomainError(FlowringError):
    """A closed-form flow was evaluated outside its real domain."""


class NumericBlowupError(FlowringError):
    """A numeric integration produced a non-finite value."""


class DigitLimitError(FlowringError):
    """A number has more digits than Python converts to text (sys.get_int_max_str_digits())."""
