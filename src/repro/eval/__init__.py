"""Evaluation measures and protocols (C-acc, Dr-acc, ranks)."""

from .dr_acc import dr_acc, dr_acc_batch, random_baseline_dr_acc
from .metrics import (
    classification_accuracy,
    harmonic_mean,
    pr_auc,
    precision_recall_curve,
    roc_auc,
)
from .protocol import (
    EvaluationResult,
    evaluate_classification,
    fit_on_dataset,
    repeated_runs,
)
from .ranking import average_ranks, mean_scores, rank_scores

__all__ = [
    "classification_accuracy",
    "precision_recall_curve",
    "pr_auc",
    "roc_auc",
    "harmonic_mean",
    "dr_acc",
    "dr_acc_batch",
    "random_baseline_dr_acc",
    "rank_scores",
    "average_ranks",
    "mean_scores",
    "EvaluationResult",
    "fit_on_dataset",
    "evaluate_classification",
    "repeated_runs",
]
