"""The reference (pre-engine) training loop.

This is the loop :meth:`BaseClassifier.fit` ran before the fused
:class:`~repro.training.engine.TrainingEngine` existed: inputs are re-prepared
on every mini-batch, no scratch buffers are reused and every subgraph is the
composed autograd graph.  It is kept as the numeric reference — the engine
must match it float for float (``tests/test_training_engine.py``), and
``benchmarks/bench_training_engine.py`` measures the engine's speedup against
it.  It is a reference oracle for tests and benches, not a user-facing mode:
call :func:`fit_legacy` directly.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..nn import Adam, cross_entropy
from ..nn.optim import clip_grad_norm


def fit_legacy(model, X: np.ndarray, y: np.ndarray,
               validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
               config=None):
    """Train ``model`` with the reference per-batch-prepare loop."""
    from ..models.base import TrainingConfig, TrainingHistory

    config = config or TrainingConfig()
    if config.precision != "float64":
        raise ValueError("precision='float32' requires the fused engine; "
                         "the legacy loop is the float64 reference")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 3:
        raise ValueError("X must be (instances, dimensions, length)")
    if X.shape[1] != model.n_dimensions or X.shape[2] != model.length:
        raise ValueError(
            f"model built for (D={model.n_dimensions}, n={model.length}) "
            f"but got series of shape {X.shape[1:]}"
        )
    rng = np.random.default_rng(config.random_state)
    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    history = TrainingHistory()
    best_loss = float("inf")
    best_state: Optional[Dict[str, np.ndarray]] = None
    epochs_without_improvement = 0

    for epoch in range(config.epochs):
        start_time = time.perf_counter()
        model.train()
        indices = rng.permutation(len(X)) if config.shuffle else np.arange(len(X))
        epoch_losses = []
        for start in range(0, len(X), config.batch_size):
            batch_idx = indices[start: start + config.batch_size]
            logits = model.forward(model.prepare_input(X[batch_idx]))
            loss = cross_entropy(logits, y[batch_idx])
            optimizer.zero_grad()
            loss.backward()
            if config.gradient_clip is not None:
                clip_grad_norm(model.parameters(), config.gradient_clip)
            optimizer.step()
            epoch_losses.append(loss.item())
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.epoch_seconds.append(time.perf_counter() - start_time)

        if validation_data is not None:
            val_loss, val_acc = model._evaluate_loss(validation_data[0],
                                                     validation_data[1],
                                                     config.batch_size)
            history.validation_loss.append(val_loss)
            history.validation_accuracy.append(val_acc)
            monitored = val_loss
        else:
            monitored = history.train_loss[-1]

        if config.verbose:  # pragma: no cover - logging only
            message = f"epoch {epoch + 1}/{config.epochs} train_loss={history.train_loss[-1]:.4f}"
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
    model.eval()
    return history
