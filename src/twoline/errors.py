"""Exception types shared across the package, and the number reader of its decoders."""


class TwolineError(Exception):
    """Base class for all errors raised by this package."""


class NonUnitConstantTerm(TwolineError):
    """A series inversion was attempted on a series whose constant term is not 1."""


class NonIntegralCoefficient(TwolineError):
    """An exact integer division failed while extracting series coefficients.

    Raised by the inverse square root when the input has no integer-coefficient
    inverse square root.
    """


class EmptyPartSet(TwolineError):
    """A composition part set contains no usable parts."""


class NonIntegralRecurrenceStep(TwolineError):
    """The diagonal recurrence produced a non-divisible step (implementation bug)."""


class InstanceTooLarge(TwolineError):
    """An exhaustive enumeration was requested beyond its feasibility cutoff."""


class InvalidInput(TwolineError):
    """An object failed validation or a map received an object outside its domain."""


def ascii_int(text: str) -> int:
    """int(text) for a run of ASCII digits.  Other scripts' digits, signs,
    spaces and underscores, which int() reads, raise ValueError as int() does."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"not a run of ASCII digits: {text!r}")
