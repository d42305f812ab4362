"""Simulated quantum ensembles of accuracy-weighted classifiers.

The package pairs an exhaustive classical committee oracle with a dense
statevector simulation of the same ensemble, plus closed-form analysis
of the one-dimensional threshold committee, majority-vote asymptotics,
deterministic data generation, and a reproducible experiment CLI.
"""

from .analytic import (
    BoundaryDecomposition,
    ClassDensity,
    DecisionProblem1D,
    NoBoundaryError,
    QuadratureError,
    accuracy_continuous,
    boundary_decomposition,
    decision_boundary,
    expectation_closed_equal_sigma,
    expectation_quadrature,
    gamma_antiderivative,
)
from .committee import (
    condorcet_curve,
    condorcet_error,
    odds_ratio,
)
from .datagen import BlobSpec, gaussian_1d_pair, gaussian_blobs
from .model import (
    Dataset,
    ModelFamily,
    ParameterGrid,
    decode_all,
    decode_theta,
    grid_accuracies,
    predict_many,
)
from .simulator import (
    EnsembleState,
    GroverReport,
    PostselectionImpossibleError,
    PostselectionReport,
    QubitCapError,
    RegisterLayout,
    StateError,
    apply_accuracy_rotation_exact,
    apply_accuracy_rotation_sequential,
    apply_classifier,
    expectation_sigma_z,
    grover_amplify_counts,
    measure_label_distribution,
    postselect_accuracy_zero,
    prepare_uniform,
    sample_measurements,
)
from .weighting import (
    DegenerateEnsembleError,
    EnsembleDecision,
    EnumerationCapError,
    UnboundedWeightError,
    WeightScheme,
    effective_expectation,
    ensemble_decide,
    tree_sum,
    vote,
    weights_for,
)

__version__ = "0.1.0"
