"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates an operation's precondition."""


class ConfigError(ValueError):
    """A model/training configuration is inconsistent or unparseable."""


class CheckpointError(RuntimeError):
    """A checkpoint file is malformed, truncated, or mismatched."""


class StateError(RuntimeError):
    """An operation was called in an invalid state (e.g. double binarization)."""


def decode_utf8(raw: bytes, what: str, error: type[Exception]) -> str:
    """Decode text input, or raise `error` naming `what` and the offset of
    its first invalid byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8: byte {raw[exc.start]:#04x} "
                    f"at offset {exc.start}") from None
