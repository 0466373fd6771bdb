"""Throughput benchmark: legacy fit loop vs the fused training engine.

For one architecture per ``input_kind`` (CNN raw, cCNN channel, dCNN cube —
override with ``--models``) a tiny model is trained twice on synthetic data:

* **legacy** — the reference per-batch-prepare loop
  (``repro.training.legacy.fit_legacy``, called directly);
* **engine** — the fused pipeline (``repro.training.TrainingEngine``):
  inputs prepared once per fit and gathered into preallocated batch slots,
  fused BatchNorm / conv1d / GAP-dense-cross-entropy autograd nodes, and
  im2col / col2im scratch buffers reused across batches.

Verifies first that both paths are float-identical (loss curve and final
state dict must match bit for bit; exits non-zero otherwise), then reports
training-epoch throughput and the per-model + geometric-mean speedup, and
writes a JSON record to ``benchmarks/results/training_engine.json`` for the
CI perf-regression gate (``benchmarks/check_regression.py``).

Run directly (no install needed)::

    python benchmarks/bench_training_engine.py [--scale tiny] [--epochs 20]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import sys
import time

# Allow running straight from a checkout without installing the package.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.data.synthetic import make_type1_dataset  # noqa: E402
from repro.experiments.config import get_scale  # noqa: E402
from repro.models.base import TrainingConfig  # noqa: E402
from repro.models.registry import create_model  # noqa: E402
from repro.training import fit_legacy  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: One representative per prepare-input kind, plus the residual/inception
#: families whose add→relu / concat→BN→ReLU / pool tails have their own
#: fused nodes.
DEFAULT_MODELS = ("cnn", "ccnn", "dcnn", "resnet", "inceptiontime")


def train_once(model_name, dataset, scale, config, legacy):
    """Train a freshly seeded model through the legacy loop or the engine;
    returns (history, state_dict, seconds)."""
    model = create_model(model_name, dataset.n_dimensions, dataset.length,
                         dataset.n_classes, rng=np.random.default_rng(0),
                         **scale.model_kwargs(model_name))
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        if legacy:
            history = fit_legacy(model, dataset.X, dataset.y, config=config)
        else:
            history = model.fit(dataset.X, dataset.y, config=config)
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    return history, model.state_dict(), seconds


def bench_model(model_name, dataset, scale, args):
    """Parity-check then time legacy vs engine training for one model."""
    config = TrainingConfig(epochs=args.epochs, batch_size=args.batch_size,
                            learning_rate=3e-3, patience=args.epochs + 1,
                            random_state=0)
    print(f"[{model_name}] training {args.epochs} epochs on "
          f"{dataset.n_dimensions}x{dataset.length} synthetic data ...")

    # Correctness first: the engine must match the legacy loop bit for bit.
    history_legacy, state_legacy, _ = train_once(
        model_name, dataset, scale, config, legacy=True)
    history_engine, state_engine, _ = train_once(
        model_name, dataset, scale, config, legacy=False)
    if history_legacy.train_loss != history_engine.train_loss:
        raise SystemExit(f"FAIL [{model_name}]: engine loss curve deviates "
                         "from the legacy loop")
    for key in state_legacy:
        if not np.array_equal(state_legacy[key], state_engine[key]):
            raise SystemExit(f"FAIL [{model_name}]: engine weights deviate "
                             f"from the legacy loop at {key!r}")

    # Alternate the two paths so clock-frequency / noisy-neighbour drift hits
    # both measurements evenly; best-of-N absorbs the remaining spikes.
    legacy_times, engine_times = [], []
    for _ in range(args.repeats):
        legacy_times.append(train_once(
            model_name, dataset, scale, config, legacy=True)[2])
        engine_times.append(train_once(
            model_name, dataset, scale, config, legacy=False)[2])
    legacy_seconds = min(legacy_times)
    engine_seconds = min(engine_times)
    epochs = history_legacy.epochs_run
    speedup = legacy_seconds / engine_seconds
    print(f"[{model_name}] legacy {epochs / legacy_seconds:7.2f} epochs/s   "
          f"engine {epochs / engine_seconds:7.2f} epochs/s   "
          f"speedup {speedup:.2f}x")
    return {
        "epochs": epochs,
        "legacy_seconds": legacy_seconds,
        "engine_seconds": engine_seconds,
        "legacy_epochs_per_second": epochs / legacy_seconds,
        "engine_epochs_per_second": epochs / engine_seconds,
        "speedup": speedup,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny", choices=["tiny", "small"],
                        help="experiment scale of the models / dataset")
    parser.add_argument("--models", default=",".join(DEFAULT_MODELS),
                        help="comma-separated architectures to train")
    parser.add_argument("--epochs", type=int, default=20,
                        help="training epochs per measurement")
    parser.add_argument("--batch-size", type=int, default=8,
                        help="mini-batch size")
    parser.add_argument("--repeats", type=int, default=5,
                        help="measurement repetitions (best-of is reported)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="exit non-zero if the geometric-mean speedup "
                             "falls below this")
    parser.add_argument("--output",
                        default=os.path.join(RESULTS_DIR, "training_engine.json"),
                        help="where to write the JSON record")
    args = parser.parse_args(argv)

    scale = get_scale(args.scale, random_state=0)
    dataset = make_type1_dataset(scale.synthetic)
    models = [name.strip() for name in args.models.split(",") if name.strip()]

    record = {
        "benchmark": "training_engine",
        "scale": args.scale,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "models": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    for model_name in models:
        record["models"][model_name] = bench_model(model_name, dataset, scale, args)

    speedups = [entry["speedup"] for entry in record["models"].values()]
    record["geomean_speedup"] = math.exp(sum(math.log(s) for s in speedups)
                                         / len(speedups))
    print(f"geomean speedup: {record['geomean_speedup']:.2f}x")

    output_dir = os.path.dirname(args.output)
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"[written to {args.output}]")

    if args.min_speedup and record["geomean_speedup"] < args.min_speedup:
        print(f"FAIL: geomean speedup {record['geomean_speedup']:.2f}x below "
              f"required {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
