"""Exception types shared across the package."""


class HamopError(Exception):
    """Base class for all package-specific errors."""


class IdenticallySingular(HamopError):
    """A matrix whose determinant vanishes identically was asked for an inverse."""


class FirstMetricNotConstant(HamopError):
    """An operation requires the first metric in constant (flat-coordinate) form."""


class DegenerateEverywhere(HamopError):
    """Sample-point rejection exceeded its retry budget; no generic point found."""


class UnsupportedEigenvalueField(HamopError):
    """Eigenvalues do not lie in Q or Q(i) at any sample point."""


class SingleMetric(HamopError):
    """A Segre type was asked of a spec with one metric, which has no affinor."""


class ScalingNotNormalized(HamopError):
    """Normalization pipeline requires the leading family coefficient to be 1."""


class NonSquareGamma(HamopError):
    """Scaling factor for even component count needs a rational square."""


class DisagreementBug(HamopError):
    """The two independent 2D criteria disagreed; implementation defect."""


class SpecFileError(HamopError):
    """Operator spec file failed to parse or validate."""


