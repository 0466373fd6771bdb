"""Traced ``repro serve``: the real CLI server with span probes installed.

Usage::

    python perfbench/server_main.py --spans-out FILE serve --store DIR --port 0

Installs :mod:`harness.probes` into this process, runs
``repro.runtime.cli.main`` with the remaining arguments, and writes every
recorded span to ``FILE`` (JSON lines) once the server has shut down
(SIGINT stops it gracefully, exactly like ``python -m repro serve``).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print("usage: server_main.py --spans-out FILE <repro CLI arguments>", file=sys.stderr)
        return 2
    spans_out, cli_args = argv[1], argv[2:]
    sys.path[:0] = [SRC, HERE]
    from harness.probes import BlockIndex, install
    from harness.spans import SpanRecorder
    from repro.runtime.cli import main as repro_main

    recorder = SpanRecorder(label="s")
    install(recorder, BlockIndex())
    try:
        return repro_main(cli_args)
    finally:
        recorder.write(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
