"""Exception hierarchy.

Two families matter for the CLI exit-code contract: ``DataError`` (bad or
insufficient input data, exit code 2) and ``ModelError`` (numeric or model
problems, exit code 3).
"""


class QmyoError(Exception):
    """Base class for all package errors."""


class DataError(QmyoError):
    """Input data is malformed, empty, or insufficient."""


class ModelError(QmyoError):
    """A numeric or model-level operation cannot proceed."""


class EmptyInputError(DataError):
    """A recording or dataset is too short to process."""


class DatasetParseError(DataError):
    """A dataset row could not be parsed; the message names the line."""


class DatasetSchemaError(DataError):
    """A dataset violates the expected column layout or row semantics."""


class ModelFileError(DataError):
    """A model file is unreadable, malformed or inconsistent; the message names the path."""


class ConfigurationError(DataError):
    """An experiment configuration is inconsistent with the available data."""


class InsufficientTrainingError(DataError):
    """Training data is missing a required degree of freedom or direction."""


class DimensionError(ModelError):
    """Vector or matrix dimensions do not match."""


class DegeneratePrototypeError(ModelError):
    """The weighted prototype superposition cancelled to (near) zero."""


class DegenerateOperatorsError(ModelError):
    """Direction prototypes are nearly identical; the pair is undecodable."""


class UndefinedDenominatorError(ModelError):
    """A performance index denominator is zero (constant truth trajectory)."""


def undecodable(path, exc: UnicodeDecodeError) -> str:
    """``path:line: ...`` for the first byte of a text file that does not decode.

    ``exc`` comes from decoding one buffered chunk, so its offset is not
    the file's; the file is read again as bytes to find the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as whole:
        line = len(data[:whole.start + 1].splitlines())
        return f"{path}:{line}: not {whole.encoding} text ({whole.reason}, byte {data[whole.start]:#04x})"
    return f"{path}: not {exc.encoding} text ({exc.reason})"
