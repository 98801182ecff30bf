"""Exception and warning types shared across the package."""


class SepmixError(Exception):
    """Base class for all package-specific errors."""


# -- model construction and estimation ---------------------------------------

class NonPositiveEigenvalue(SepmixError):
    """An eigenvalue of the covariance spectrum is zero or negative."""


class NonOrthonormalRotation(SepmixError):
    """The rotation matrix fails the Gram orthonormality test."""


class DimensionMismatch(SepmixError):
    """Vector or matrix dimensions are inconsistent."""


class TooFewSamples(SepmixError):
    """Not enough draws requested for a reliable estimate."""


class NonFiniteInput(SepmixError):
    """Input points or component parameters contain NaN or an infinity."""


class MissingMedianRadius(SepmixError):
    """An operation needs a median radius that has not been computed yet."""


class MedianRadiusNotConverged(SepmixError):
    """No quadrature certified the median radius of a spectrum to the
    exact solver's tolerance."""


# -- separation and planting --------------------------------------------------

class InvalidDelta(SepmixError):
    """Failure probability delta outside (0, 1]."""


class InfeasiblePlacement(SepmixError):
    """Could not place separated centers after repeated attempts."""


# -- classification -----------------------------------------------------------

class ThresholdTooLarge(SepmixError):
    """Dense-ball threshold exceeds the number of available points."""


class ResidualPointsAfterKPeels(SepmixError):
    """Points remain unassigned after the configured number of peels."""


class EmptyPeel(SepmixError):
    """A peel iteration removed no points."""


class EigenSolverFailed(SepmixError):
    """The dense symmetric eigensolver did not converge."""


class PairNotSeparated(SepmixError):
    """A component pair does not meet the required separation condition."""


# -- validators ---------------------------------------------------------------

class GridTooCoarse(SepmixError):
    """Radius grid has too few usable points in a mass regime."""


# -- k-median fitting ----------------------------------------------------------

class TooFewPoints(SepmixError):
    """Fewer sample points than requested centers."""


class InstanceTooLarge(SepmixError):
    """An instance exceeds what can be computed: exhaustive enumeration over
    more than a million center subsets, or a pairwise distance matrix,
    or the k-median search's upper triangle of one, larger than physical
    memory.  classify_general and the spherical warm-up never raise it for
    their sample size: they form distance rows on demand."""


class InconsistentSigma(SepmixError):
    """The plug-in width does not reproduce the closed-form quadratic term."""


# -- I/O and scoring ----------------------------------------------------------

class IndexMismatch(SepmixError):
    """Partition and label index sets do not line up."""


class ParseError(SepmixError):
    """A data file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class SchemaError(SepmixError):
    """A parameter file is structurally valid but violates the schema."""


# -- warnings -----------------------------------------------------------------

class ZeroSigmaWarning(UserWarning):
    """Every point coincides with its center; the log-likelihood is infinite."""


class SampleBalanceWarning(UserWarning):
    """Per-component sample counts fall outside the 0.9/1.1 weight band."""


class DiagnosticWarning(UserWarning):
    """A theory-derived runtime bracket was violated; results may degrade."""


class LocalSearchCapWarning(UserWarning):
    """The k-median local search hit its round cap while still improving."""
