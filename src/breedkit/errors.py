"""Exception types shared across the package.

Every error raised by breedkit derives from :class:`BreedkitError`, so callers
(and the CLI) can catch one base class and report the concrete name.
"""


class BreedkitError(Exception):
    """Base class for all breedkit errors."""


class ParseError(BreedkitError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyInput(BreedkitError):
    """An input that must be non-empty was empty."""


class InvalidInput(BreedkitError):
    """A value violates an operation's preconditions."""


class EmptyPlot(BreedkitError):
    """A plot or region selects no usable raster cells."""


class GeometryMismatch(BreedkitError):
    """Two raster layers do not share georeferencing exactly."""


class MissingBand(BreedkitError):
    """A required band (by name or target wavelength) is absent."""

    def __init__(self, band):
        super().__init__(f"missing band: {band}")
        self.band = band


class InvalidMask(BreedkitError):
    """A grid expected to be binary holds values outside {0, 1, nodata}."""


class EmptyDataset(BreedkitError):
    """Feature assembly or fitting was left with no usable rows/columns."""


class SingularSystem(BreedkitError):
    """Normal equations are singular; suggest a positive ridge penalty."""


class UndefinedR2(BreedkitError):
    """R^2 is undefined because the observed values have zero variance."""


class InvalidToken(BreedkitError):
    """A token is not an integer, or is outside the model vocabulary."""


class NumericalError(BreedkitError):
    """Training or scoring produced a non-finite quantity. Carries the
    training iteration index when there is one."""

    def __init__(self, message, iteration=None):
        if iteration is not None:
            message = f"iteration {iteration}: {message}"
        super().__init__(message)
        self.iteration = iteration


class InvalidRanking(BreedkitError):
    """A preference ranking contains duplicates or is not a total order."""


class InvalidTrialSet(BreedkitError):
    """Trial records mix models, subtasks, or answer kinds."""


class InvalidBallot(BreedkitError):
    """A reasoning ballot is not a permutation of 1..x over the models."""


class UndefinedDeviation(BreedkitError):
    """Relative deviation is undefined because the reference value is 0."""


class UnknownField(BreedkitError):
    """A screening criterion references a field that does not exist."""
