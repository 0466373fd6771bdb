"""End-to-end benchmark of the dCAM serving and streaming stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explain-paper --seed 0 --seconds 40 --trace 0

Workloads: ``explain-paper`` and ``serve-hot`` drive a live
``python -m repro serve`` process over HTTP; ``stream-hop`` drives an
in-process ``repro.stream.StreamSession``.  ``--trace 0`` measures the
end-to-end metrics with nothing instrumented; ``--trace 1`` runs the same
load against span-probed layers and reports the per-layer metrics.

Prints one line per metric, then (last line) one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full record — phase
accounting, environment, shape parameters, the layer tree — is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.  Exits 1 when any
checked output differs from the in-process reference, 2 on a usage error or
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Client connections/threads of the load generator (never above nproc).
MAX_CLIENTS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an error, so every server this run started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # One BLAS thread per process: client, server and BLAS helper threads
    # share nproc CPUs, and multi-threaded BLAS barriers then stall for tens
    # of milliseconds whenever a helper is descheduled.  Set before numpy
    # loads; the server inherits it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from harness import serve, stream
    from harness.gen import HOLDOUT_SEED, WORKLOADS
    from harness.layers import PER_LAYER
    from harness.report import END_TO_END, environment, print_result

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{label}")
    os.makedirs(OUT, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    clients = max(1, min(MAX_CLIENTS, len(os.sched_getaffinity(0))))
    runner = serve.run if workload.kind == "serve" else stream.run
    try:
        record = runner(
            workload, args.seed, args.seconds, bool(args.trace), ROOT, workdir,
            os.path.join(OUT, f"{label}-spans.jsonl"), clients,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(
        workload=workload.name,
        why=workload.why,
        seed=args.seed,
        holdout_seed=HOLDOUT_SEED,
        trace=bool(args.trace),
        seconds=args.seconds,
        clients=clients,
        shape=workload.shape_params(),
        environment=environment(),
        notes=[
            "setup_s is the median of the run's set-ups (export, start, /healthz, warm-up)",
            "latency is timed from when each operation was due in the open-loop phase",
            "latency_tail_ms is the open-loop phase's highest percentile with at least 10 "
            "samples beyond it (latency.tail_percentile, latency.beyond)",
            "error_rate counts 429s, 5xx, transport errors and output mismatches",
            "per-layer figures are per successful operation of the traced phases",
            "nn.conv_gflop and nn.conv_bytes are computed from tensor shapes, not measured",
        ],
    )
    with open(os.path.join(OUT, f"{label}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    units = PER_LAYER if args.trace else END_TO_END
    print_result(workload.name, record, units)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
