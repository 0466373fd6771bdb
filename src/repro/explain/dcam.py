"""dCAM explainer: the d-architectures operating on the ``C(T)`` cube.

A thin family adapter over the one dCAM pipeline of :mod:`repro.core.dcam`:
:meth:`DCAMExplainer.explain` and :meth:`DCAMExplainer.explain_batch` both
feed it the explainer's knobs and wrap each result as it is yielded, so with
``keep_details`` off every ``M̄`` is dropped as soon as its heatmap exists.
The pipeline's micro-batches cross instance boundaries, and permutations are
drawn per instance in sequence, so for a given generator state both entry
points produce identical results.

When an :class:`~repro.explain.base.Explainer` ``cache`` is attached, the
pipeline caches at *permutation* granularity: each permutation's CAM rows and
predicted class are stored under a content key
(:func:`~repro.core.dcam.permutation_cache_keys`) folding in the model-state
hash, the instance bytes, the class and the permutation itself.  Because a
seeded generator draws the first ``k₁`` permutations of a ``k₂ > k₁`` draw
identically, re-explaining an instance at growing ``k`` (Figure 10's sweep)
only forwards the permutations never seen before — the paper's per-``k``
curves then cost ``max(k)`` forwards instead of ``sum(k)``.  A cold cache
forwards exactly what no cache does, so results are bitwise the same.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.dcam import _dcam_results
from ..nn.serialization import state_hash
from .base import Explainer, Explanation
from .registry import register_explainer


@register_explainer("dcam")
class DCAMExplainer(Explainer):
    """dCAM with the ``n_g / k`` success ratio as the quality proxy.

    ``use_only_correct`` selects the permutation filter ablated in the paper:
    average ``M̄`` over all ``k`` permutations (default, the paper's choice)
    or only over the correctly-classified ones.
    """

    def __init__(self, model, *, use_only_correct: bool = False,
                 model_hash: Optional[str] = None, **kwargs) -> None:
        super().__init__(model, **kwargs)
        if getattr(model, "input_kind", None) != "cube":
            raise TypeError(
                f"dCAM requires a d-architecture (input_kind == 'cube'); "
                f"got {type(model).__name__}"
            )
        self.use_only_correct = bool(use_only_correct)
        # ``model_hash`` lets callers that already know the state hash (the
        # serving layer's artifact store records it at registration) skip the
        # full-model rehash on every explainer construction.
        self._model_hash: Optional[str] = model_hash

    def model_state_hash(self) -> str:
        """SHA-256 of the model state (computed once; cache keys fold it in)."""
        if self._model_hash is None:
            self._model_hash = state_hash(self.model)
        return self._model_hash

    def _explanations(self, X: np.ndarray, class_ids: Sequence[int],
                      permutations) -> List[Explanation]:
        results = _dcam_results(
            self.model, X, class_ids, self.k, self.rng, permutations,
            self.use_only_correct, self.batch_size, store=self.cache,
            model_hash=None if self.cache is None else self.model_state_hash(),
        )
        return [
            Explanation(heatmap=result.dcam, class_id=result.class_id,
                        success_ratio=result.success_ratio,
                        details=result if self.keep_details else None)
            for result in results
        ]

    def explain(self, series: np.ndarray, class_id: int,
                permutations: Optional[Sequence[np.ndarray]] = None) -> Explanation:
        series = self._check_series(series)
        return self._explanations(series[None], [int(class_id)],
                                  None if permutations is None else [permutations])[0]

    def explain_batch(self, X: np.ndarray, class_ids: Sequence[int],
                      permutations: Optional[Sequence[Sequence[np.ndarray]]] = None,
                      ) -> List[Explanation]:
        X, class_ids = self._check_batch(X, class_ids)
        return self._explanations(X, class_ids, permutations)
