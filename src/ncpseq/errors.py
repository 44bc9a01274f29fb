"""Shared exception types, the one int rule, and the one token rule of the text readers."""


class ParseError(ValueError):
    """Input text does not match the expected grammar."""


class ValidationError(ValueError):
    """A structural invariant does not hold for otherwise well-formed input."""


class StretchError(ValidationError):
    """An arc-stretching step met a diagram without the required shape."""


def _is_int(value: object) -> bool:
    """The one int rule, which every module asks: value is an int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value: object, name: str) -> None:
    """ValidationError naming value as name unless it is an int, not a bool."""
    if not _is_int(value):
        raise ValidationError(f"{name} {value!r} is not an integer")


def _check_size(value: object, least: int, message: str) -> None:
    """ValidationError unless value is an int, not a bool; message when it is below least."""
    _check_int(value, "size")
    if value < least:
        raise ValidationError(message)


def _read_int(token: str) -> int:
    """The value of a token of ASCII digits; ParseError for any other token."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"expected a positive integer, got {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"integer of {len(token)} digits is too long") from None
