"""The fused training engine: prepare once, slice per batch, fuse the graph.

The legacy loop re-prepared its inputs on every mini-batch of every epoch —
for the d-architectures that means rebuilding ``C(T)`` cubes hundreds of
times per fit — and paid the composed autograd graph's per-node overhead on
every step.  :class:`TrainingEngine` fuses the pipeline:

* :class:`PreparedInputs` runs :meth:`BaseClassifier.prepare_input` **once**
  per dataset (training and validation), so every epoch only gathers rows of
  the prepared array into a preallocated batch slot (``np.take(..., out=...)``;
  no per-batch allocation).  Cubes whose materialisation would exceed
  :attr:`PreparedInputs.max_materialize_bytes` fall back to gathering raw
  rows into the reusable slot and preparing per batch — numerics are
  identical either way because ``prepare_input`` is elementwise per instance.
* the epoch loop runs inside :func:`repro.nn.fused_training`, activating the
  bit-exact fused BatchNorm / conv1d kernels of :mod:`repro.nn.fused` and a
  :class:`~repro.nn.workspace.Workspace` whose im2col / col2im scratch
  buffers the convolutions reuse across batches;
* models ending in GAP + dense (``fused_head = True``) compute their loss
  through the single-node :func:`repro.nn.fused.gap_linear_cross_entropy`
  instead of the ~14-node composed head.

Control flow — rng consumption, shuffling, early stopping, gradient clipping,
history bookkeeping — replicates :func:`repro.training.legacy.fit_legacy`
exactly, so the two paths produce float-identical loss curves, early-stopping
epochs and final weights (``tests/test_training_engine.py``).
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..nn import Adam, Tensor, cross_entropy, fused_training
from ..nn.fused import gap_linear_cross_entropy
from ..nn.optim import clip_grad_norm
from ..nn.workspace import Workspace


class PreparedInputs:
    """Per-fit cache of model-ready inputs, gathered per batch into one slot.

    ``prepare_input`` is deterministic and elementwise per instance for every
    ``input_kind`` (identity for 1D models, a channel axis for c-models, the
    ``C(T)`` cube for d-models), so preparing the whole dataset once and
    slicing rows afterwards is bit-identical to preparing each mini-batch.
    """

    #: Soft cap on the bytes a materialised prepared array may occupy; above
    #: it (paper-scale cubes: ``N * D^2 * n`` doubles) raw rows are gathered
    #: into the batch slot instead and prepared per batch.
    max_materialize_bytes: int = 1 << 30

    def __init__(self, model, X: np.ndarray,
                 max_materialize_bytes: Optional[int] = None) -> None:
        if max_materialize_bytes is not None:
            self.max_materialize_bytes = max_materialize_bytes
        self.model = model
        X = np.asarray(X, dtype=getattr(model, "compute_dtype", np.float64))
        self.raw = X
        estimated = X.nbytes * (X.shape[1] if model.input_kind == "cube" else 1)
        self.materialized = estimated <= self.max_materialize_bytes
        if self.materialized:
            self.data: Optional[np.ndarray] = model.prepare_input(X).data
        else:
            self.data = None

    def __len__(self) -> int:
        return len(self.raw)

    def make_slot(self, batch_size: int) -> np.ndarray:
        """Preallocate the gather buffer reused by every :meth:`batch` call."""
        source = self.data if self.materialized else self.raw
        rows = min(batch_size, len(source)) if len(source) else batch_size
        return np.empty((rows,) + source.shape[1:], dtype=source.dtype)

    def batch(self, indices: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Model-ready array for ``indices``, gathered into ``slot``."""
        view = slot[: len(indices)]
        if self.materialized:
            np.take(self.data, indices, axis=0, out=view)
            return view
        np.take(self.raw, indices, axis=0, out=view)
        return self.model.prepare_input(view).data

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Model-ready array for the contiguous rows ``[start, stop)``."""
        if self.materialized:
            return self.data[start:stop]
        return self.model.prepare_input(self.raw[start:stop]).data

    def release(self) -> None:
        """Drop the cached arrays (the ``materialized`` flag survives).

        Called by the engine once a fit completes, so a long-lived engine (or
        a user holding one, as the README shows) does not pin gigabyte-scale
        prepared cubes after training is done.
        """
        self.data = None
        self.raw = None
        self.model = None


class TrainingEngine:
    """Fused prepare/forward/backward epoch loop behind ``BaseClassifier.fit``."""

    def __init__(self, model, config=None,
                 max_materialize_bytes: Optional[int] = None) -> None:
        from ..models.base import TrainingConfig

        self.model = model
        self.config = config or TrainingConfig()
        self.max_materialize_bytes = max_materialize_bytes
        self.workspace = Workspace()
        #: Fresh batch-slot allocations over the engine's lifetime (one per
        #: fit; asserted by the no-per-batch-allocation test).
        self.slot_allocations = 0
        self.train_inputs: Optional[PreparedInputs] = None
        self.val_inputs: Optional[PreparedInputs] = None

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray,
            validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None):
        model, config = self.model, self.config
        dtype = getattr(model, "compute_dtype", np.float64)
        X = np.asarray(X, dtype=dtype)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 3:
            raise ValueError("X must be (instances, dimensions, length)")
        if X.shape[1] != model.n_dimensions or X.shape[2] != model.length:
            raise ValueError(
                f"model built for (D={model.n_dimensions}, n={model.length}) "
                f"but got series of shape {X.shape[1:]}"
            )
        prepare_start = time.perf_counter()
        self.train_inputs = PreparedInputs(model, X, self.max_materialize_bytes)
        slot = self.train_inputs.make_slot(config.batch_size)
        self.slot_allocations += 1
        if validation_data is not None:
            self.val_inputs = PreparedInputs(
                model, np.asarray(validation_data[0], dtype=dtype),
                self.max_materialize_bytes)
        prepare_seconds = time.perf_counter() - prepare_start

        try:
            history = self._run_epochs(X, y, validation_data, slot)
            history.prepare_seconds = prepare_seconds
        finally:
            # Keep the PreparedInputs objects (their flags stay
            # introspectable) but drop the cached arrays, so a held engine
            # doesn't pin paper-scale cubes after the fit.
            self.train_inputs.release()
            if self.val_inputs is not None:
                self.val_inputs.release()
        model.eval()
        return history

    def _run_epochs(self, X, y, validation_data, slot):
        from ..models.base import TrainingHistory

        model, config = self.model, self.config
        rng = np.random.default_rng(config.random_state)
        parameters = model.parameters()
        optimizer = Adam(parameters, lr=config.learning_rate,
                         weight_decay=config.weight_decay)
        history = TrainingHistory()
        best_loss = float("inf")
        best_state: Optional[Dict[str, np.ndarray]] = None
        epochs_without_improvement = 0
        val_y = (np.asarray(validation_data[1], dtype=np.int64)
                 if validation_data is not None else None)
        fused_head = (getattr(model, "fused_head", False)
                      and model.classifier.bias is not None)
        with fused_training(self.workspace):
            for epoch in range(config.epochs):
                start_time = time.perf_counter()
                model.train()
                indices = (rng.permutation(len(X)) if config.shuffle
                           else np.arange(len(X)))
                epoch_losses = []
                try:
                    for start in range(0, len(X), config.batch_size):
                        batch_idx = indices[start: start + config.batch_size]
                        batch = Tensor(self.train_inputs.batch(batch_idx, slot))
                        if fused_head:
                            loss = gap_linear_cross_entropy(
                                model.features(batch), model.classifier,
                                y[batch_idx])
                        else:
                            loss = cross_entropy(model.forward(batch), y[batch_idx])
                        optimizer.zero_grad()
                        loss.backward()
                        if config.gradient_clip is not None:
                            clip_grad_norm(parameters, config.gradient_clip)
                        optimizer.step()
                        self.workspace.release_all()
                        epoch_losses.append(loss.item())
                finally:
                    self.workspace.release_all()
                history.train_loss.append(float(np.mean(epoch_losses)))
                history.epoch_seconds.append(time.perf_counter() - start_time)

                if validation_data is not None:
                    val_loss, val_acc = model._evaluate_loss(
                        validation_data[0], val_y, config.batch_size,
                        prepared=self.val_inputs)
                    history.validation_loss.append(val_loss)
                    history.validation_accuracy.append(val_acc)
                    monitored = val_loss
                else:
                    monitored = history.train_loss[-1]

                if config.verbose:  # pragma: no cover - logging only
                    message = (f"epoch {epoch + 1}/{config.epochs} "
                               f"train_loss={history.train_loss[-1]:.4f}")
                    if validation_data is not None:
                        message += f" val_loss={history.validation_loss[-1]:.4f}"
                        message += f" val_acc={history.validation_accuracy[-1]:.3f}"
                    print(message)

                if monitored < best_loss - config.min_delta:
                    best_loss = monitored
                    best_state = model.state_dict()
                    history.best_epoch = epoch
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= config.patience:
                        history.stopped_early = True
                        break

        if best_state is not None:
            model.load_state_dict(best_state)
        return history
