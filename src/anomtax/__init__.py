"""anomtax: four-way anomaly taxonomy labeling (ND/CNA/CPA/PA) and an
MLP classifier with GA-evolved initial weights for the borderline cases
where the four types meet."""

from .data import (
    AnomalyLabel,
    BlobSpec,
    Dataset,
    NormalizationParams,
    Sample,
    SplitRatios,
    SyntheticSpec,
    aggregate_features,
    compute_sample_weights,
    generate_synthetic,
    load_csv,
    minmax_normalize,
    save_csv,
    stratified_split,
)
from .evaluation import (
    ConfusionMatrix,
    RocCurve,
    confusion,
    precision_recall,
    roc_curve,
    test_error,
    tpr_fpr,
)
from .ga import GaConfig, GaRun, Individual, compare, run_ga
from .labeling import (
    ClusterModel,
    LabelingConfig,
    LabelingReport,
    RadiusTable,
    build_radius_table,
    cluster_density_stats,
    detect_cna,
    detect_cpa,
    detect_point_anomalies,
    euclidean_distance,
    kmeans,
    label_dataset,
    label_supervised,
)
from .mlp import (
    Topology,
    TrainedModel,
    TrainingConfig,
    forward,
    init_weights,
    mse_and_gradient,
    predict_class,
    train_scg,
)

__version__ = "0.1.0"
