"""Subtyping of irregular categorical time series with CT-HMM mixtures.

The package fits a mixture of continuous-time hidden Markov models to
asynchronous, partially missing multivariate categorical trajectories by
hard EM, and evaluates fits through prefix-conditioned forecasting
cross-entropy.
"""

from .ctmc import (
    P_FLOOR,
    RATE_MAX,
    RATE_MIN,
    EndConditionedStats,
    GeneratorMatrix,
    TransitionMatrix,
    end_conditioned_stats,
    full_mask,
    left_to_right_mask,
    sojourn_expectation,
    transition_matrix,
    validate_generator,
)
from .emissions import (
    MISSING,
    BinningScheme,
    EmissionTable,
    FeatureBinning,
    discretize,
    expected_feature_value,
)
from .errors import (
    DimensionMismatch,
    DuplicateTimestamp,
    EmptyCohort,
    ExpmInaccuracy,
    ImpossibleTrajectory,
    InvariantViolation,
    NegativeOffDiagonal,
    NoHeldOutObservations,
    NonCausalQuery,
    NonPositiveInterval,
    NonSquareInput,
    ParseError,
    StructureNotChain,
    SubtypingError,
    TooFewPatients,
    UnknownColumn,
    UnknownFeature,
    VersionMismatch,
)
from .evaluation import (
    ForecastReport,
    GridEvaluation,
    forecast_cross_entropy,
    forecast_report,
    grid_evaluate,
    prefix_split,
    split_cohort,
)
from .inference import (
    PosteriorSummary,
    ProgressionStage,
    SubtypeModel,
    Trajectory,
    forward_backward,
    forward_filter,
    predictive_bin_distributions,
    progression_trajectory,
    trajectory_log_likelihood,
)
from .learning import (
    EmConfig,
    FitDiagnostics,
    SufficientStats,
    e_step,
    fit_disease_model,
    m_step_emissions,
    m_step_generator,
    m_step_initial,
    quantize_gaps,
)
from .mixture import (
    MixtureModel,
    assign_subtype,
    assign_subtypes,
    assignment_posteriors,
    fit_mixture,
)
from .cohort_io import (
    RunConfig,
    load_cohort,
    load_config,
    load_model,
    restrict_features,
    save_cohort,
    save_model,
)
from .synthesis import (
    HiddenPath,
    ObservationTimeConfig,
    SyntheticCohort,
    random_mixture,
    sample_cohort,
    sample_hidden_path,
    sample_trajectory,
)

__version__ = "0.1.0"
