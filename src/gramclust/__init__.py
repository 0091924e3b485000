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
from .metrics import ContingencyTable, ami, contingency, expected_mutual_info
from .mixture import (
    FitResult,
    MixtureParams,
    bic,
    cem_fit,
    component_density_log,
    estep,
    mstep,
    num_params,
)
from .select import ClusterOutput, cluster_features
from .synth import (
    BoundInputs,
    MixtureSpec,
    SimulationPlan,
    deviation_bound,
    empirical_concentration,
    expectation_check,
    gen_mixture,
)
from .transform import (
    AugmentedGram,
    RowExpectations,
    augment,
    augment_with_clusters,
    expected_rows,
    separability_diagnostic,
)

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
    "ContingencyTable",
    "ami",
    "contingency",
    "expected_mutual_info",
    "FitResult",
    "MixtureParams",
    "bic",
    "cem_fit",
    "component_density_log",
    "estep",
    "mstep",
    "num_params",
    "ClusterOutput",
    "cluster_features",
    "BoundInputs",
    "MixtureSpec",
    "SimulationPlan",
    "deviation_bound",
    "empirical_concentration",
    "expectation_check",
    "gen_mixture",
    "AugmentedGram",
    "RowExpectations",
    "augment",
    "augment_with_clusters",
    "expected_rows",
    "separability_diagnostic",
    "__version__",
]
