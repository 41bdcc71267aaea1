"""Selective classification under differentially private training.

Trains softmax classifiers with per-example gradient clipping and Gaussian
noise, accounts the privacy cost with a Renyi-divergence ledger, scores test
points with six selection mechanisms, and evaluates the resulting
risk-coverage curves against the achievability bound for a classifier with
full-coverage accuracy ``a``.
"""

from .accountant import (
    BudgetSplit,
    CalibrationError,
    PrivacyReport,
    RdpCurve,
    account,
    calibrate_sigma,
    compose,
    gaussian_curve,
    rdp_gaussian,
    rdp_subsampled_gaussian,
    rdp_to_dp,
    split_budget,
    subsampled_gaussian_curve,
)
from .data import (
    CsvFormatError,
    EmptyDatasetError,
    LabeledDataset,
    MixtureComponent,
    MixtureSpec,
    gen_gaussian_outlier,
    gen_mixture,
    load_csv,
    split,
    subsample_class,
)
from .evaluation import (
    RiskCoverageCurve,
    accuracy_at_coverage,
    auc,
    bound,
    bound_values,
    build_curve,
    coverage_at_accuracy,
    curve_metrics,
    ideal_score_oracle,
    normalized_score,
)
from .harness import ExperimentConfig, panel_bound, panel_imbalance, panel_outlier, run
from .losses import LossSpec, cross_entropy_loss, sat_loss, selectivenet_loss
from .models import (
    ModelSpec,
    ParamVector,
    batch_grad,
    forward,
    init_params,
    load_params,
    per_sample_grad,
    predict,
    predict_probs,
    save_params,
)
from .selection import (
    score_de,
    score_mcdo,
    score_sat,
    score_sctd,
    score_sn,
    score_sr,
    score_sr_of,
    sctd_disagreement_score,
)
from .trainer import (
    CheckpointLog,
    PrivacyConfig,
    TrainConfig,
    TrainResult,
    dpsgd_step,
    load_checkpoint_log,
    save_checkpoint_log,
    sgd_step,
    train,
)

__version__ = "0.1.0"
