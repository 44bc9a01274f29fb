"""Shared exception types, and the one check of a public size argument."""


class ParseError(ValueError):
    """Input text does not match the expected grammar."""


class ValidationError(ValueError):
    """A structural invariant does not hold for otherwise well-formed input."""


class StretchError(ValidationError):
    """An arc-stretching step met a diagram without the required shape."""


def _check_size(value: object, least: int, message: str) -> None:
    """ValidationError unless value is an int, not a bool; message when it is below least."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"size {value!r} is not an integer")
    if value < least:
        raise ValidationError(message)
