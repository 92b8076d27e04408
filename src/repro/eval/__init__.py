"""Evaluation layer: metrics (AUC-ROC, PR, F1, point-adjust), the Table-2 /
Figure-3 experiment harness, drift-adaptation metrics, ablations and result
formatting.
"""

from .adaptation import (
    AdaptationReport,
    alarm_precision,
    compare_adaptation,
    drift_detection_delay,
    false_alarm_rate,
)
from .ablation import (
    AblationResult,
    run_kl_weight_sweep,
    run_variational_ablation,
    run_window_sweep,
)
from .experiment import (
    DETECTOR_NAMES,
    DetectorEvaluation,
    ExperimentConfig,
    ExperimentResult,
    evaluate_detector,
    paper_scale_costs,
    run_full_experiment,
    study_specs,
)
from .metrics import (
    average_precision_score,
    best_f1_score,
    confusion_counts,
    f1_score,
    point_adjust,
    precision_recall_curve,
    roc_auc_score,
    roc_curve,
)
from .reporting import (
    PAPER_AUC,
    PAPER_TABLE2,
    format_comparison,
    format_figure3,
    format_table2,
)

__all__ = [
    "AdaptationReport",
    "alarm_precision",
    "compare_adaptation",
    "drift_detection_delay",
    "false_alarm_rate",
    "AblationResult",
    "run_kl_weight_sweep",
    "run_variational_ablation",
    "run_window_sweep",
    "DETECTOR_NAMES",
    "study_specs",
    "DetectorEvaluation",
    "ExperimentConfig",
    "ExperimentResult",
    "evaluate_detector",
    "paper_scale_costs",
    "run_full_experiment",
    "average_precision_score",
    "best_f1_score",
    "confusion_counts",
    "f1_score",
    "point_adjust",
    "precision_recall_curve",
    "roc_auc_score",
    "roc_curve",
    "PAPER_AUC",
    "PAPER_TABLE2",
    "format_comparison",
    "format_figure3",
    "format_table2",
]
