"""Clustering of N objects with P >> N features via transforms of the
normalized left Gram matrix, with BIC selection of the cluster count."""

from .data import (
    FeatureMatrix,
    GramMatrix,
    gram,
    preprocess_dataset,
    read_feature_csv,
    standardize_columns,
)
from .hierarchy import ClusterAssignment, Dendrogram, cut_tree
from .metrics import ami, contingency, expected_mutual_info
from .mixture import (
    FitResult,
    bic,
    cem_fit,
    num_params,
)
from .select import ClusterOutput, cluster_features
from .synth import (
    BoundInputs,
    MixtureSpec,
    RowExpectations,
    SimulationPlan,
    deviation_bound,
    empirical_concentration,
    expectation_check,
    expected_rows,
    gen_mixture,
    separability_diagnostic,
)
from .transform import AugmentedGram, augment, augment_with_clusters

__version__ = "0.1.0"

__all__ = [
    "FeatureMatrix",
    "GramMatrix",
    "gram",
    "preprocess_dataset",
    "read_feature_csv",
    "standardize_columns",
    "ClusterAssignment",
    "Dendrogram",
    "cut_tree",
    "ami",
    "contingency",
    "expected_mutual_info",
    "FitResult",
    "bic",
    "cem_fit",
    "num_params",
    "ClusterOutput",
    "cluster_features",
    "BoundInputs",
    "MixtureSpec",
    "RowExpectations",
    "SimulationPlan",
    "deviation_bound",
    "empirical_concentration",
    "expectation_check",
    "expected_rows",
    "gen_mixture",
    "separability_diagnostic",
    "AugmentedGram",
    "augment",
    "augment_with_clusters",
    "__version__",
]
