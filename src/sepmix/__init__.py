"""Distance-based classification of well-separated Gaussian mixtures.

The package provides the mixture model and samplers (:mod:`sepmix.model`),
separation checks and planted instances (:mod:`sepmix.separation`), the
distance/variance peeling classifiers (:mod:`sepmix.classify`), Monte Carlo
validators for the concentration facts the classifiers rely on
(:mod:`sepmix.concentration`), a k-median maximum-likelihood fitter
(:mod:`sepmix.kmedian`), CSV/JSON persistence (:mod:`sepmix.io`), partition
scoring (:mod:`sepmix.scoring`), and seeded experiment orchestration
(:mod:`sepmix.experiment`).

The names below are the supported API: the entry points the CLI and the
README use, their config and result types, and every error and warning
class.  Helpers such as the concentration checkers, ``pairwise_sq_dists``
and ``max_variance`` are imported from their submodules.
"""

from .classify import (
    ClassifierConfig,
    Partition,
    PeelStep,
    PeelTrace,
    classify_general,
    classify_spherical,
)
from .errors import (
    DiagnosticWarning,
    DimensionMismatch,
    EigenSolverFailed,
    EmptyPeel,
    GridTooCoarse,
    InconsistentSigma,
    IndexMismatch,
    InfeasiblePlacement,
    InstanceTooLarge,
    InvalidDelta,
    LocalSearchCapWarning,
    MedianRadiusNotConverged,
    MissingMedianRadius,
    NonFiniteInput,
    NonOrthonormalRotation,
    NonPositiveEigenvalue,
    PairNotSeparated,
    ParseError,
    ResidualPointsAfterKPeels,
    SampleBalanceWarning,
    SchemaError,
    SepmixError,
    ThresholdTooLarge,
    TooFewPoints,
    TooFewSamples,
    ZeroSigmaWarning,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    TrialReport,
    run_experiment,
    run_validation_suite,
)
from .io import (
    load_params,
    load_samples,
    save_params,
    save_partition,
    save_samples,
)
from .kmedian import (
    FitResult,
    KMedianSolution,
    fit_spherical_mixture,
    kmedian_exhaustive,
)
from .model import (
    GaussianParams,
    LabeledSampleSet,
    Mixture,
    median_radius,
    sample_mixture,
)
from .scoring import MatchResult, partition_compare
from .separation import (
    SeparationConfig,
    SeparationReport,
    plant_separated_mixture,
    separation_margin,
)

__version__ = "0.1.0"

__all__ = [
    "ClassifierConfig",
    "DiagnosticWarning",
    "DimensionMismatch",
    "EigenSolverFailed",
    "EmptyPeel",
    "ExperimentConfig",
    "ExperimentResult",
    "FitResult",
    "GaussianParams",
    "GridTooCoarse",
    "InconsistentSigma",
    "IndexMismatch",
    "InfeasiblePlacement",
    "InstanceTooLarge",
    "InvalidDelta",
    "KMedianSolution",
    "LabeledSampleSet",
    "LocalSearchCapWarning",
    "MatchResult",
    "MedianRadiusNotConverged",
    "MissingMedianRadius",
    "Mixture",
    "NonFiniteInput",
    "NonOrthonormalRotation",
    "NonPositiveEigenvalue",
    "PairNotSeparated",
    "ParseError",
    "Partition",
    "PeelStep",
    "PeelTrace",
    "ResidualPointsAfterKPeels",
    "SampleBalanceWarning",
    "SchemaError",
    "SeparationConfig",
    "SeparationReport",
    "SepmixError",
    "ThresholdTooLarge",
    "TooFewPoints",
    "TooFewSamples",
    "TrialReport",
    "ZeroSigmaWarning",
    "classify_general",
    "classify_spherical",
    "fit_spherical_mixture",
    "kmedian_exhaustive",
    "load_params",
    "load_samples",
    "median_radius",
    "partition_compare",
    "plant_separated_mixture",
    "run_experiment",
    "run_validation_suite",
    "sample_mixture",
    "save_params",
    "save_partition",
    "save_samples",
    "separation_margin",
]
