"""Exception types shared across the package."""


class TTALabError(Exception):
    """Base class for all ttalab errors."""


class InvalidInput(TTALabError):
    """An argument violates a documented precondition."""


class DegenerateBatch(TTALabError):
    """A batch is too small for the requested normalization mode."""


class ParseError(TTALabError):
    """A checkpoint or report file could not be parsed."""


class SchemaError(TTALabError):
    """A parsed file has the wrong structure or shapes."""


class TrainingDiverged(TTALabError):
    """Source training or adaptation overflowed or went non-finite."""
