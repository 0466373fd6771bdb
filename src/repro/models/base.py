"""Common training / prediction machinery for all classifier architectures.

Every architecture in :mod:`repro.models` follows the same contract:

* :meth:`BaseClassifier.prepare_input` converts a raw batch of multivariate
  series ``(batch, D, n)`` into the tensor layout the architecture expects
  (identity for 1D architectures, a channel axis for the c-architectures, the
  ``C(T)`` cube for the d-architectures).
* :meth:`BaseClassifier.features` returns the output of the last convolutional
  block (the ``A_m`` maps used by CAM/dCAM); architectures without a GAP-based
  CAM (the recurrent baselines) raise :class:`NotImplementedError`.
* :meth:`BaseClassifier.forward` maps the prepared input to class logits.

Training follows the paper's protocol (Section 5.2): Adam, cross-entropy,
mini-batches, early stopping on the validation loss.  :meth:`BaseClassifier.fit`
is a thin wrapper over :class:`repro.training.TrainingEngine` (the fused
prepare-once pipeline), which matches the reference per-batch-prepare loop
:func:`repro.training.legacy.fit_legacy` float for float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..nn import Module, Tensor, cross_entropy, inference_mode


@dataclass
class TrainingConfig:
    """Hyper-parameters of a training run.

    The paper uses ``learning_rate=1e-5``, ``batch_size=16`` and up to 1000
    epochs with early stopping; those values are impractically slow for the
    CPU-only NumPy substrate, so the defaults here are scaled (larger learning
    rate, fewer epochs) while remaining overridable to the paper's values.
    """

    #: Upper bound on training epochs; early stopping usually ends the run
    #: sooner (the paper trains up to 1000 with ``patience=50``).
    epochs: int = 50
    #: Mini-batch size of the gradient loop (16 in the paper).
    batch_size: int = 16
    #: Adam step size.  The paper's ``1e-5`` assumes GPU-scale epoch counts;
    #: the scaled default converges in tens of epochs on the NumPy substrate.
    learning_rate: float = 1e-3
    #: L2 penalty coefficient applied through AdamW-style decoupled decay;
    #: 0 disables it.
    weight_decay: float = 0.0
    #: Early-stopping patience: epochs without validation improvement
    #: tolerated before training halts and the best weights are restored.
    patience: int = 10
    #: Smallest validation-loss drop that counts as an improvement for
    #: early stopping.
    min_delta: float = 1e-4
    #: Global gradient-norm clip threshold; ``None`` disables clipping.
    gradient_clip: Optional[float] = 5.0
    #: Reshuffle the training set every epoch (seeded by ``random_state``).
    shuffle: bool = True
    #: Print per-epoch loss/accuracy lines to stdout during ``fit``.
    verbose: bool = False
    #: Seed for weight init, shuffling and dropout; ``None`` draws from the
    #: global NumPy state (non-reproducible runs).
    random_state: Optional[int] = None
    #: Compute precision of the fit: "float64" (the reference, bit-exact
    #: against the legacy loop) or "float32" (the opt-in fast tier — casts the
    #: model weights and runs every kernel in single precision; agrees with
    #: float64 to documented tolerances only).
    precision: str = "float64"


@dataclass
class TrainingHistory:
    """Per-epoch metrics recorded by :meth:`BaseClassifier.fit`."""

    train_loss: List[float] = field(default_factory=list)
    validation_loss: List[float] = field(default_factory=list)
    validation_accuracy: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    #: One-off input-preparation wall clock of the fused engine (0.0 for the
    #: legacy loop, which pays preparation inside every epoch instead).  Total
    #: training time is ``prepare_seconds + sum(epoch_seconds)``.
    prepare_seconds: float = 0.0
    best_epoch: int = 0
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    def best_validation_loss(self) -> float:
        if not self.validation_loss:
            return float("nan")
        return float(np.min(self.validation_loss))

    def epochs_to_fraction_of_best(self, fraction: float = 0.9) -> int:
        """Epochs needed to reach ``fraction`` of the way to the best loss.

        Used by the Figure 12(c) convergence experiment ("number of epochs to
        reach 90% of best loss").
        """
        losses = np.asarray(self.validation_loss if self.validation_loss else self.train_loss)
        if len(losses) == 0:
            return 0
        start, best = losses[0], losses.min()
        target = start - fraction * (start - best)
        reached = np.flatnonzero(losses <= target)
        return int(reached[0]) + 1 if len(reached) else len(losses)


class BaseClassifier(Module):
    """Abstract multivariate-series classifier."""

    #: How :meth:`prepare_input` reorganises raw series: "raw" (1D models),
    #: "channel" (c-models) or "cube" (d-models).
    input_kind: str = "raw"
    #: Whether the architecture ends with GAP + dense, i.e. supports CAM.
    supports_cam: bool = False
    #: Which explanation family of :mod:`repro.explain` serves this
    #: architecture ("cam", "gradcam" or "dcam"); ``None`` for architectures
    #: without an explanation method (the recurrent baselines).
    explainer_family: Optional[str] = None
    #: Which constructor-kwargs family this architecture belongs to ("cnn",
    #: "resnet", "inception", "recurrent" or "mtex") — the key
    #: :meth:`repro.experiments.config.ExperimentScale.model_kwargs` uses to
    #: pick the width preset; ``None`` means "takes no scale kwargs".
    kwargs_family: Optional[str] = None
    #: Whether ``forward`` is exactly ``classifier(gap(features(x)))`` — the
    #: GAP + dense head every CAM architecture shares — letting the training
    #: engine compute the loss through the fused single-node head.
    fused_head: bool = False

    def __init__(self, n_dimensions: int, length: int, n_classes: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if n_dimensions < 1 or length < 1 or n_classes < 2:
            raise ValueError("invalid problem shape")
        self.n_dimensions = n_dimensions
        self.length = length
        self.n_classes = n_classes
        self.rng = rng or np.random.default_rng()
        self._compute_dtype = np.dtype(np.float64)

    # ------------------------------------------------------------------
    # Compute precision
    # ------------------------------------------------------------------
    @property
    def compute_dtype(self) -> np.dtype:
        """Dtype of the weights and of every prepared input (float64 default)."""
        return getattr(self, "_compute_dtype", np.dtype(np.float64))

    def astype(self, dtype) -> "BaseClassifier":
        """Cast the model to a compute dtype (see :meth:`Module.astype`).

        Also retargets :meth:`prepare_input`, so subsequent forward passes,
        explanations and servings run entirely in that precision.
        """
        super().astype(dtype)
        self._compute_dtype = np.dtype(dtype)
        return self

    # ------------------------------------------------------------------
    # Architecture contract
    # ------------------------------------------------------------------
    def prepare_input(self, X: np.ndarray, order: Optional[np.ndarray] = None) -> Tensor:
        """Convert a raw batch ``(batch, D, n)`` to the architecture's layout.

        ``order`` (a dimension permutation) is only meaningful for the
        d-architectures and rejected elsewhere.
        """
        if order is not None:
            raise ValueError(f"{type(self).__name__} does not accept dimension permutations")
        return Tensor(np.asarray(X, dtype=self.compute_dtype))

    def features(self, x: Tensor) -> Tensor:
        """Output of the last convolutional block (the CAM feature maps)."""
        raise NotImplementedError(f"{type(self).__name__} does not expose CAM feature maps")

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Prediction helpers
    # ------------------------------------------------------------------
    def logits(self, X: np.ndarray, batch_size: int = 32, *,
               prepared=None) -> np.ndarray:
        """Class logits for a raw batch of series, computed in eval mode.

        The model's train/eval mode is restored afterwards, so calling this
        mid-training (e.g. from a validation callback) cannot silently leave
        dropout and batch-norm in inference behaviour for subsequent epochs.
        ``prepared`` optionally supplies a
        :class:`repro.training.PreparedInputs` cache so the per-batch
        ``prepare_input`` calls are skipped (the training engine's validation
        path uses this).
        """
        was_training = self.training
        try:
            self.eval()
            outputs = []
            with inference_mode():
                for start in range(0, len(X), batch_size):
                    if prepared is not None:
                        batch = Tensor(prepared.slice(start, start + batch_size))
                    else:
                        batch = self.prepare_input(X[start: start + batch_size])
                    outputs.append(self.forward(batch).data)
            return np.concatenate(outputs, axis=0)
        finally:
            if was_training:
                self.train()

    def predict_proba(self, X: np.ndarray, batch_size: int = 32) -> np.ndarray:
        logits = self.logits(X, batch_size)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        return exps / exps.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray, batch_size: int = 32) -> np.ndarray:
        return self.logits(X, batch_size).argmax(axis=1)

    def score(self, X: np.ndarray, y: np.ndarray, batch_size: int = 32) -> float:
        """Classification accuracy (the paper's C-acc) on ``(X, y)``."""
        predictions = self.predict(X, batch_size)
        return float(np.mean(predictions == np.asarray(y)))

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def _evaluate_loss(self, X: np.ndarray, y: np.ndarray, batch_size: int,
                       prepared=None) -> Tuple[float, float]:
        """Mean cross-entropy and accuracy on ``(X, y)`` in eval mode.

        ``prepared`` optionally supplies a prepared-input cache (see
        :meth:`logits`); the train/eval mode is restored afterwards.
        """
        was_training = self.training
        try:
            self.eval()
            losses, correct, total = [], 0, 0
            with inference_mode():
                for start in range(0, len(X), batch_size):
                    batch_y = y[start: start + batch_size]
                    if prepared is not None:
                        batch = Tensor(prepared.slice(start, start + batch_size))
                    else:
                        batch = self.prepare_input(X[start: start + batch_size])
                    logits = self.forward(batch)
                    loss = cross_entropy(logits, batch_y)
                    losses.append(loss.item() * len(batch_y))
                    correct += int((logits.data.argmax(axis=1) == batch_y).sum())
                    total += len(batch_y)
            return float(np.sum(losses) / total), correct / total
        finally:
            if was_training:
                self.train()

    def fit(self, X: np.ndarray, y: np.ndarray,
            validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
            config: Optional[TrainingConfig] = None) -> TrainingHistory:
        """Train with Adam + cross-entropy and early stopping.

        Thin wrapper over the fused :class:`repro.training.TrainingEngine`,
        which is float-identical to the reference loop
        :func:`repro.training.legacy.fit_legacy`; the engine prepares inputs
        once per fit and runs the fused forward/backward kernels.  The model
        is left in eval mode with the best weights loaded.

        Parameters
        ----------
        X, y:
            Training series ``(instances, D, n)`` and integer labels.
        validation_data:
            Optional ``(X_val, y_val)`` pair used for early stopping.
        config:
            Training hyper-parameters; see :class:`TrainingConfig`.
        """
        config = config or TrainingConfig()
        if config.precision not in ("float64", "float32"):
            raise ValueError(f"unknown precision {config.precision!r}; "
                             "expected 'float64' or 'float32'")
        self.astype(np.float32 if config.precision == "float32" else np.float64)
        from ..training.engine import TrainingEngine

        return TrainingEngine(self, config).fit(X, y, validation_data)
