"""Shared exception types: InvalidConfigError is an InvalidInputError."""


class InvalidInputError(ValueError):
    """An operation received data it cannot process."""


class InvalidConfigError(InvalidInputError):
    """A configuration object failed validation."""


class ParseError(ValueError):
    """A file could not be parsed; carries the byte offset of the fault."""

    def __init__(self, message: str, byte_offset: int | None = None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset
