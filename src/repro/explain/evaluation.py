"""The shared Dr-acc evaluation engine for every explanation family.

Collapses the near-identical explainable-instance selection and Dr-acc
averaging loops that used to live in both ``eval/protocol.py`` and
``experiments/runner.py`` into one entry point:
:func:`evaluate_explainer(model, test, scale)` selects the instances, routes
them through the model family's registered explainer at batch width, and
returns an :class:`ExplanationReport` with per-instance and aggregate scores.

``scale`` is duck-typed (any object with ``n_explained_instances``,
``k_permutations`` and ``dcam_batch_size`` attributes works, e.g.
:class:`repro.experiments.config.ExperimentScale`) so this module does not
depend on the experiments layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.dcam import DEFAULT_BATCH_SIZE
from ..eval.dr_acc import dr_acc
from .base import DEFAULT_K
from .registry import get_explainer


@dataclass
class ExplanationReport:
    """Dr-acc of one trained model over the explainable test instances.

    Attributes
    ----------
    family:
        Explanation family that produced the heatmaps.
    target_class:
        Class whose instances were explained.
    instance_indices:
        Dataset indices of the explained instances, in evaluation order.
    scores:
        Per-instance Dr-acc (PR-AUC against the ground-truth masks).
    success_ratios:
        Per-instance ``n_g / k`` for the dCAM family (empty otherwise).
    """

    family: str
    target_class: int
    instance_indices: List[int] = field(default_factory=list)
    scores: List[float] = field(default_factory=list)
    success_ratios: List[float] = field(default_factory=list)

    @property
    def n_instances(self) -> int:
        return len(self.instance_indices)

    @property
    def dr_acc(self) -> float:
        """Mean Dr-acc over the explained instances."""
        return float(np.mean(self.scores)) if self.scores else float("nan")

    @property
    def success_ratio(self) -> Optional[float]:
        """Mean ``n_g / k`` (``None`` for families without the proxy)."""
        return float(np.mean(self.success_ratios)) if self.success_ratios else None


def select_explainable_instances(dataset, target_class: int = 1,
                                 n_instances: Optional[int] = None) -> List[int]:
    """Indices of ``target_class`` instances with a non-empty ground-truth mask.

    The paper's protocol only scores instances of the class with injected
    discriminant features; ``n_instances`` caps the selection (first-come, as
    in the original per-driver loops this helper replaces).
    """
    if dataset.ground_truth is None:
        raise ValueError("dataset has no ground-truth masks")
    candidates = [
        index for index in range(len(dataset))
        if dataset.y[index] == target_class and dataset.ground_truth[index].sum() > 0
    ]
    if not candidates:
        raise ValueError(
            f"no instances of class {target_class} with non-empty ground truth"
        )
    return candidates if n_instances is None else candidates[:n_instances]


def evaluate_explainer(model, test, scale=None, *, target_class: int = 1,
                       n_instances: Optional[int] = None,
                       k: Optional[int] = None,
                       batch_size: Optional[int] = None,
                       rng: Optional[np.random.Generator] = None,
                       random_state: Optional[int] = None,
                       cache=None) -> ExplanationReport:
    """Average Dr-acc of ``model`` over explainable instances of ``test``.

    Parameters
    ----------
    model:
        A trained classifier with a registered ``explainer_family``.
    test:
        Dataset with ground-truth masks (Dr-acc needs them).
    scale:
        Optional knob bundle supplying defaults for ``n_instances``
        (``scale.n_explained_instances``), ``k`` (``scale.k_permutations``)
        and ``batch_size`` (``scale.dcam_batch_size``); explicit keyword
        arguments win over it.
    rng, random_state:
        Permutation-draw generator for the dCAM family: ``rng`` is used
        as-is, otherwise one is seeded from ``random_state``.
    cache:
        Optional content-addressed byte store forwarded to the explainer (see
        :class:`repro.explain.base.Explainer`); the dCAM family reuses cached
        permutation CAMs across repeated evaluations of the same model and
        instances (e.g. Figure 10's per-``k`` sweep).
    """
    if n_instances is None and scale is not None:
        n_instances = scale.n_explained_instances
    if k is None:
        k = scale.k_permutations if scale is not None else DEFAULT_K
    if batch_size is None:
        batch_size = scale.dcam_batch_size if scale is not None else DEFAULT_BATCH_SIZE
    if rng is None:
        rng = np.random.default_rng(random_state)

    indices = select_explainable_instances(test, target_class, n_instances)
    class_ids = [int(test.y[index]) for index in indices]
    # Only heatmaps and success ratios are scored, so drop the per-instance
    # payloads (for dCAM the (D, D, n) M̄ tensors) instead of holding every
    # instance's at once.
    explainer = get_explainer(model, k=k, batch_size=batch_size, rng=rng,
                              keep_details=False, cache=cache)
    explanations = explainer.explain_batch(test.X[indices], class_ids)

    report = ExplanationReport(family=explainer.family, target_class=target_class,
                               instance_indices=list(indices))
    for index, explanation in zip(indices, explanations):
        report.scores.append(dr_acc(explanation.heatmap, test.ground_truth[index]))
        if explanation.success_ratio is not None:
            report.success_ratios.append(explanation.success_ratio)
    return report
