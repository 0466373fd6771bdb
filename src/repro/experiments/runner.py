"""Shared helpers used by all experiment drivers."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..data.datasets import MultivariateDataset
from ..data.synthetic import SyntheticConfig, make_dataset
from ..eval.dr_acc import random_baseline_dr_acc
from ..eval.protocol import fit_on_dataset
from ..explain.evaluation import select_explainable_instances
from ..models.base import BaseClassifier, TrainingHistory
from ..models.registry import create_model
from .config import ExperimentScale


def train_model(model_name: str, dataset: MultivariateDataset, scale: ExperimentScale,
                random_state: Optional[int] = None) -> Tuple[BaseClassifier, TrainingHistory]:
    """Instantiate ``model_name`` at the scale's width and train it on ``dataset``."""
    rng = np.random.default_rng(random_state)
    model = create_model(model_name, dataset.n_dimensions, dataset.length,
                         dataset.n_classes, rng=rng, **scale.model_kwargs(model_name))
    history = fit_on_dataset(model, dataset, scale.training, random_state=random_state)
    return model, history


def classification_accuracy_of(model: BaseClassifier, test: MultivariateDataset) -> float:
    """C-acc of a trained model on a held-out dataset."""
    return model.score(test.X, test.y)


def random_explanation_accuracy(test: MultivariateDataset, scale: ExperimentScale,
                                target_class: int = 1) -> float:
    """Dr-acc of the random-scores baseline (Table 3's "Random" column)."""
    indices = select_explainable_instances(test, target_class,
                                           scale.n_explained_instances)
    scores = [random_baseline_dr_acc(test.ground_truth[index]) for index in indices]
    return float(np.mean(scores))


def synthetic_train_test(seed_name: str, dataset_type: int, n_dimensions: int,
                         scale: ExperimentScale, random_state: int = 0
                         ) -> Tuple[MultivariateDataset, MultivariateDataset]:
    """Build a (train, freshly generated test) pair of synthetic datasets.

    Mirrors the paper's protocol of generating a brand new test dataset for
    the synthetic benchmarks rather than holding out instances.
    """
    base = scale.synthetic
    train_config = SyntheticConfig(
        seed_name=seed_name,
        n_dimensions=n_dimensions,
        n_instances_per_class=base.n_instances_per_class,
        series_length=base.series_length,
        seed_instance_length=base.seed_instance_length,
        pattern_length=base.pattern_length,
        n_injections=base.n_injections,
        random_state=random_state,
    )
    test_config = SyntheticConfig(
        seed_name=seed_name,
        n_dimensions=n_dimensions,
        n_instances_per_class=max(4, base.n_instances_per_class // 2),
        series_length=base.series_length,
        seed_instance_length=base.seed_instance_length,
        pattern_length=base.pattern_length,
        n_injections=base.n_injections,
        random_state=random_state + 10_000,
    )
    return make_dataset(dataset_type, train_config), make_dataset(dataset_type, test_config)


def averaged_over_runs(values: List[float]) -> float:
    """Mean of a list of per-run metric values."""
    return float(np.mean(values)) if values else float("nan")
