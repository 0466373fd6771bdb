"""Evaluation protocols shared by the experiment drivers.

Encapsulates the paper's protocol (Section 5.2): stratified 80/20
train/validation split, training with Adam + early stopping, C-acc on a held
out test set, averaged over several runs.  Dr-acc over the explainable test
instances is :func:`repro.explain.evaluate_explainer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.datasets import MultivariateDataset
from ..data.splits import train_validation_split
from ..models.base import BaseClassifier, TrainingConfig
from ..models.registry import create_model


@dataclass
class EvaluationResult:
    """Result of training + evaluating one model on one dataset."""

    model_name: str
    dataset_name: str
    c_acc: float
    dr_acc: Optional[float] = None
    success_ratio: Optional[float] = None
    epochs_run: int = 0
    train_seconds: float = 0.0
    extra: Dict = field(default_factory=dict)


def fit_on_dataset(model: BaseClassifier, dataset: MultivariateDataset,
                   training: Optional[TrainingConfig] = None,
                   validation_fraction: float = 0.2,
                   random_state: Optional[int] = None):
    """Train ``model`` with the paper's 80/20 stratified split protocol."""
    train, validation = train_validation_split(dataset, 1.0 - validation_fraction,
                                               random_state=random_state)
    history = model.fit(train.X, train.y, validation_data=(validation.X, validation.y),
                        config=training or TrainingConfig())
    return history


def evaluate_classification(model_name: str, dataset: MultivariateDataset,
                            test: MultivariateDataset,
                            training: Optional[TrainingConfig] = None,
                            model_kwargs: Optional[Dict] = None,
                            random_state: Optional[int] = None) -> Tuple[BaseClassifier, EvaluationResult]:
    """Train one architecture on ``dataset`` and measure C-acc on ``test``."""
    rng = np.random.default_rng(random_state)
    model = create_model(model_name, dataset.n_dimensions, dataset.length,
                         dataset.n_classes, rng=rng, **(model_kwargs or {}))
    history = fit_on_dataset(model, dataset, training, random_state=random_state)
    accuracy = model.score(test.X, test.y)
    result = EvaluationResult(
        model_name=model_name,
        dataset_name=dataset.name,
        c_acc=accuracy,
        epochs_run=history.epochs_run,
        train_seconds=float(history.prepare_seconds + np.sum(history.epoch_seconds)),
    )
    return model, result


def repeated_runs(model_name: str, dataset: MultivariateDataset, test: MultivariateDataset,
                  n_runs: int = 3, training: Optional[TrainingConfig] = None,
                  model_kwargs: Optional[Dict] = None,
                  base_seed: int = 0) -> List[EvaluationResult]:
    """Repeat train+evaluate ``n_runs`` times with different seeds (paper: 10)."""
    results = []
    for run in range(n_runs):
        _, result = evaluate_classification(model_name, dataset, test, training,
                                            model_kwargs, random_state=base_seed + run)
        results.append(result)
    return results
