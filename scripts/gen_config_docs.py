#!/usr/bin/env python
"""Generate ``docs/config.md`` from the ``#:`` field comments of the config dataclasses.

The single source of truth for what a knob does is the ``#:`` comment block
directly above its field in the dataclass source (the Sphinx attribute-doc
convention).  This script reads those blocks through
:func:`repro.runtime.config_flags.field_docs` (the same parser that writes the
``python -m repro`` flag help), pairs them with the runtime defaults, and
renders one markdown section per dataclass.  A field without a ``#:`` block is
an error — undocumented knobs fail CI.

Usage::

    python scripts/gen_config_docs.py            # (re)write docs/config.md
    python scripts/gen_config_docs.py --check    # exit 1 if docs/config.md is stale
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path
from typing import List, Tuple

REPO = Path(__file__).resolve().parent.parent
OUTPUT = REPO / "docs" / "config.md"
sys.path.insert(0, str(REPO / "src"))

from repro.runtime.config_flags import field_docs  # noqa: E402

#: (defining module, dataclass name, section intro) in render order.
CONFIGS: List[Tuple[str, str, str]] = [
    (
        "repro.serve.service",
        "ServeConfig",
        "Knobs of one `ExplanationService` instance (`repro.serve`). "
        "Construct it directly or through the `python -m repro serve` CLI flags.",
    ),
    (
        "repro.obs.config",
        "ObsConfig",
        "Observability knobs (`repro.obs`), embedded as `ServeConfig.obs` and "
        "mirrored by the `--trace-sample-rate` CLI flag. Counters, timers and "
        "latency histograms are always on; this config only controls the "
        "sampled-tracing tier and span retention. See "
        "[observability.md](observability.md).",
    ),
    (
        "repro.dist.client",
        "RemoteStoreConfig",
        "Connection policy of one `RemoteByteStore` client (`repro.dist`) — "
        "the shared remote cache tier behind `--remote-store HOST:PORT`. "
        "Every timeout/retry knob is bounded so a dead server degrades the "
        "caller to its local tiers instead of hanging it.",
    ),
    (
        "repro.dist.coordinator",
        "FleetConfig",
        "Coordinator knobs of one `FleetExecutor` (`repro.dist`) — where the "
        "in-process work queue listens and how it treats leases held by "
        "workers that stop heartbeating.",
    ),
    (
        "repro.stream.config",
        "StreamConfig",
        "Knobs of one streaming `StreamSession` (`repro.stream`) — window hop, "
        "engine (incremental vs the naive parity oracle), explanation mode and "
        "the dCAM permutation draw. Construct it directly or through the "
        "`python -m repro stream` CLI flags. See [streaming.md](streaming.md).",
    ),
    (
        "repro.models.base",
        "TrainingConfig",
        "Hyper-parameters of one training run (`repro.models`). The paper uses "
        "`learning_rate=1e-5`, `batch_size=16` and up to 1000 epochs with early "
        "stopping; the defaults here are scaled for the CPU-only NumPy substrate "
        "while remaining overridable to the paper's values.",
    ),
]

HEADER = """\
# Configuration reference

<!-- Generated by scripts/gen_config_docs.py — do not edit by hand.
     Edit the `#:` field comments in the dataclass sources instead,
     then re-run `python scripts/gen_config_docs.py`. -->

Every tunable of the serving and training layers, generated from the `#:`
field comments in the dataclass sources. CI fails if this page drifts from
the code (`python scripts/gen_config_docs.py --check`).
"""


def _default(field: dataclasses.Field) -> str:
    if field.default is not dataclasses.MISSING:
        return repr(field.default)
    if field.default_factory is not dataclasses.MISSING:
        return f"{field.default_factory.__name__}()"
    return "required"


def render() -> str:
    parts = [HEADER]
    for module, class_name, intro in CONFIGS:
        klass = getattr(importlib.import_module(module), class_name)
        rel_path = Path(inspect.getsourcefile(klass)).resolve().relative_to(REPO).as_posix()
        try:
            docs = field_docs(klass)
        except ValueError as error:
            raise SystemExit(f"error: {error}")
        defaults = {field.name: _default(field) for field in dataclasses.fields(klass)}
        parts.append(f"\n## `{class_name}` ([{rel_path}]({'../' + rel_path}))\n")
        parts.append(intro + "\n")
        for name, (annotation, doc) in docs.items():
            parts.append(f"- **`{name}`** (`{annotation}`, default `{defaults[name]}`) — {doc}")
        parts.append("")
    return "\n".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/config.md matches the sources instead of writing it",
    )
    args = parser.parse_args()
    content = render()
    if args.check:
        if not OUTPUT.exists():
            print("error: docs/config.md does not exist; run scripts/gen_config_docs.py")
            return 1
        if OUTPUT.read_text() != content:
            print(
                "error: docs/config.md is stale relative to the dataclass sources; "
                "re-run scripts/gen_config_docs.py and commit the result"
            )
            return 1
        print("docs/config.md is up to date")
        return 0
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(content)
    print(f"wrote {OUTPUT.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
