"""Training subsystem: the fused vectorized fit pipeline.

:class:`TrainingEngine` owns the fused prepare/forward/backward epoch loop
used by :meth:`repro.models.BaseClassifier.fit`:

* model-ready inputs (including the d-architectures' ``C(T)`` cube) are
  prepared **once per fit** and gathered per mini-batch into preallocated
  batch slots instead of being rebuilt on every batch of every epoch;
* the forward/backward pass runs under :func:`repro.nn.fused_training`,
  which swaps the composed BatchNorm / conv1d / GAP-dense-cross-entropy
  subgraphs for single fused autograd nodes and threads reusable
  im2col / col2im scratch buffers through the convolutions;
* control flow (shuffling rng, early stopping, gradient clipping, history
  bookkeeping) replicates the legacy loop exactly, so loss curves,
  early-stopping epochs and final weights are float-identical to
  :func:`repro.training.legacy.fit_legacy` — pinned by
  ``tests/test_training_engine.py``, which calls the legacy loop directly.
"""

from ..models.base import TrainingConfig, TrainingHistory
from .engine import PreparedInputs, TrainingEngine
from .legacy import fit_legacy

__all__ = [
    "TrainingConfig",
    "TrainingHistory",
    "TrainingEngine",
    "PreparedInputs",
    "fit_legacy",
]
