"""Workload definitions and their seeded input generators.

Every input the program under test receives is a pure function of
``(workload seed, phase, operation index)``: a request body for the serve
workloads, a block of feed samples for the stream workload.  The same seed
therefore always produces the same inputs, whichever client thread happens to
send them and however fast the system answers.  The model weights come from a
fixed model seed so that runs with different workload seeds exercise the same
artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Seed of the model weights (part of the system configuration, not of the
#: workload: every workload seed runs against the same artifact).
MODEL_SEED = 0
#: Seed reserved as the hold-out for later performance claims: tune and
#: develop on other seeds, then confirm a claim once on this one.
HOLDOUT_SEED = 1009

#: Phase identifiers folded into every generator seed, so the ops of one
#: phase never repeat another phase's.
PHASES = {"warmup": 0, "gate": 1, "closed": 2, "open": 3, "closed_plain": 4, "prefill": 5}
#: Feed identifiers of the stream workload (the timed session's, the gate's).
FEEDS = {"main": 0, "gate": 1}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the model, the traffic and the open-loop rate."""

    name: str
    kind: str  # "serve" or "stream"
    why: str
    n_dimensions: int
    length: int
    filters: Tuple[int, ...]
    n_classes: int
    k: int
    #: Fixed open-loop arrival rate: requests/s (serve) or hops/s (stream).
    open_rate: float
    #: serve-hot traffic mix (ignored elsewhere).
    classify_share: float = 0.0
    omit_class_share: float = 0.0
    pool_size: int = 0
    zipf_s: float = 0.0
    seed_choices: Tuple[int, ...] = ()
    #: Untimed requests sent before the timed phases so the response and
    #: permutation caches reach their steady state (0: no prefill).
    prefill_ops: int = 0
    #: stream-hop hop length (ignored elsewhere).
    hop: int = 0
    #: Served responses checked against the in-process reference after the
    #: timed phases (``None`` checks every one).
    verify_limit: Optional[int] = None

    @property
    def model_name(self) -> str:
        return f"{self.name}-dcnn"

    def shape_params(self) -> Dict[str, Any]:
        params: Dict[str, Any] = {
            "model": "dcnn",
            "D": self.n_dimensions,
            "n": self.length,
            "filters": list(self.filters),
            "n_classes": self.n_classes,
            "k": self.k,
            "open_rate": self.open_rate,
            "model_seed": MODEL_SEED,
        }
        if self.kind == "serve":
            params["prefill_ops"] = self.prefill_ops
        if self.pool_size:
            params.update(
                classify_share=self.classify_share,
                omit_class_share=self.omit_class_share,
                pool_size=self.pool_size,
                zipf_s=self.zipf_s,
                seed_choices=list(self.seed_choices),
            )
        if self.kind == "stream":
            params.update(window=self.length, hop=self.hop)
        return params


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="explain-paper",
            kind="serve",
            why="paper-scale /explain dCAM (D=10, n=96, k=100), a fresh instance and seed "
            "per request: the conv trunk dominates and the permutation cache only writes",
            n_dimensions=10,
            length=96,
            filters=(16, 32, 32),
            n_classes=3,
            k=100,
            open_rate=3.0,
            # ~0.78 MB of permutation entries per request: 85 requests fill
            # the 64 MB memory tier, so timed requests evict as they write.
            prefill_ops=85,
            verify_limit=4,
        ),
        Workload(
            name="serve-hot",
            kind="serve",
            why="tiny dCNN, 70% /classify 30% /explain over a Zipf pool of 256 instances: "
            "HTTP, batcher hand-off and cache reads dominate, the engine is under 1 ms",
            n_dimensions=4,
            length=48,
            filters=(8, 16),
            n_classes=3,
            k=16,
            # About half of the ~950 requests/s its closed loop reaches on a
            # 2-vCPU host.
            open_rate=450.0,
            classify_share=0.7,
            omit_class_share=0.5,
            pool_size=256,
            zipf_s=1.1,
            seed_choices=(0, 1, 2),
            prefill_ops=2500,
        ),
        Workload(
            name="stream-hop",
            kind="stream",
            why="in-process StreamSession (D=10, window 96, k=20, hop 8): the same conv "
            "kernel as explain-paper on narrow dirty-column slabs, plus cube roll and M-bar delta",
            n_dimensions=10,
            length=96,
            filters=(16, 32, 32),
            n_classes=3,
            k=20,
            # About a fifth of the ~110 hops/s its closed loop reaches on a
            # 2-vCPU host.  At half of capacity one host stall queues about
            # ten hops, so the p99 of the 1000 open-loop hops was set by
            # whether a stall happened; at 20 hops/s a stall delays one or
            # two, and the tail (p97.5 of 400) is the session's own.
            open_rate=20.0,
            hop=8,
            verify_limit=8,
        ),
    )
}


def build_model(workload: Workload):
    """The seeded, untrained dCNN every run of ``workload`` serves."""
    from repro.models.registry import create_model

    model = create_model(
        "dcnn",
        workload.n_dimensions,
        workload.length,
        workload.n_classes,
        rng=np.random.default_rng(MODEL_SEED),
        filters=workload.filters,
    )
    model.eval()
    return model


def export_model(workload: Workload, store_dir: str):
    """Register the seeded model into a fresh :class:`ModelArtifactStore`."""
    from repro.serve.store import ModelArtifactStore

    store = ModelArtifactStore(store_dir)
    store.register(
        workload.model_name,
        build_model(workload),
        model_name="dcnn",
        metadata={"model_kwargs": {"filters": list(workload.filters)}},
    )
    return store


# ---------------------------------------------------------------------------
# Serve workloads: request bodies
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServeOp:
    """One generated request plus what the reference needs to check it."""

    path: str  # "/classify" or "/explain"
    body: bytes
    instance_id: Tuple[int, ...]  # (pool index,) or (phase, op index)
    class_id: Optional[int]
    k: Optional[int]
    seed: Optional[int]


class ServeOps:
    """Deterministic request stream of a serve workload."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = int(seed)
        self._pool: Optional[np.ndarray] = None
        self._pool_json: List[str] = []
        if workload.pool_size:
            rng = np.random.default_rng([self.seed, 99])
            shape = (workload.pool_size, workload.n_dimensions, workload.length)
            self._pool = rng.standard_normal(shape)
            self._pool_json = [json.dumps(row.tolist()) for row in self._pool]
            # Zipf-like popularity over a seeded ranking of the pool.
            ranks = np.arange(1, workload.pool_size + 1, dtype=np.float64)
            weights = ranks ** -workload.zipf_s
            self._cdf = np.cumsum(weights) / weights.sum()
            self._rank_to_index = rng.permutation(workload.pool_size)

    def instance(self, instance_id: Tuple[int, ...]) -> np.ndarray:
        """The ``(D, n)`` instance an op refers to."""
        if self._pool is not None:
            return self._pool[instance_id[0]]
        rng = np.random.default_rng([self.seed, *instance_id])
        return rng.standard_normal((self.workload.n_dimensions, self.workload.length))

    def op(self, phase: str, index: int) -> ServeOp:
        """Operation ``index`` of ``phase``."""
        workload = self.workload
        phase_id = PHASES[phase]
        rng = np.random.default_rng([self.seed, phase_id, index, 7])
        if self._pool is None:
            # explain-paper: a fresh instance, class and seed every request.
            instance_id = (phase_id, index)
            instance_json = json.dumps(self.instance(instance_id).tolist())
            class_id = int(rng.integers(workload.n_classes))
            seed = int(rng.integers(2**31 - 1))
            if phase in ("warmup", "gate") and index % 2 == 1:
                return self._classify(instance_id, instance_json)
            return self._explain(instance_id, instance_json, class_id, workload.k, seed)
        draws = rng.random(4)
        rank = int(np.searchsorted(self._cdf, draws[0], side="right"))
        pool_index = int(self._rank_to_index[min(rank, workload.pool_size - 1)])
        instance_id = (pool_index,)
        instance_json = self._pool_json[pool_index]
        if draws[1] < workload.classify_share:
            return self._classify(instance_id, instance_json)
        class_id = None if draws[2] < workload.omit_class_share else int(
            draws[3] * workload.n_classes
        )
        seed = workload.seed_choices[index % len(workload.seed_choices)]
        return self._explain(instance_id, instance_json, class_id, workload.k, seed)

    def _classify(self, instance_id, instance_json: str) -> ServeOp:
        body = '{"model": %s, "instance": %s}' % (json.dumps(self.workload.model_name), instance_json)
        return ServeOp("/classify", body.encode("utf-8"), instance_id, None, None, None)

    def _explain(self, instance_id, instance_json: str, class_id, k: int, seed: int) -> ServeOp:
        fields = [
            '"model": %s' % json.dumps(self.workload.model_name),
            '"instance": %s' % instance_json,
            '"k": %d' % k,
            '"seed": %d' % seed,
        ]
        if class_id is not None:
            fields.append('"class_id": %d' % class_id)
        body = "{" + ", ".join(fields) + "}"
        return ServeOp("/explain", body.encode("utf-8"), instance_id, class_id, k, seed)


# ---------------------------------------------------------------------------
# Stream workload: feed samples
# ---------------------------------------------------------------------------
class Feed:
    """Deterministic ``(D, T)`` feed, produced one hop block at a time.

    Block ``j`` of a feed is a pure function of ``(seed, feed, j)``; the
    blocks handed out so far are kept, so any emitted window can be rebuilt
    for the correctness check.
    """

    def __init__(self, workload: Workload, seed: int, name: str) -> None:
        self.workload = workload
        self.seed = int(seed)
        self.feed_id = FEEDS[name]
        self._blocks: List[np.ndarray] = []

    def block(self, index: int) -> np.ndarray:
        """Block ``index`` (``(D, hop)``): a slow random walk plus noise."""
        workload = self.workload
        rng = np.random.default_rng([self.seed, self.feed_id, index])
        drift = rng.standard_normal((workload.n_dimensions, 1)) * 0.1
        steps = np.arange(1, workload.hop + 1)[None, :]
        return drift * steps + rng.standard_normal((workload.n_dimensions, workload.hop))

    def first_window(self) -> np.ndarray:
        """The blocks that fill the first window, as one ``(D, window)`` array."""
        count = self.workload.length // self.workload.hop
        return np.concatenate([self.next() for _ in range(count)], axis=1)

    def next(self) -> np.ndarray:
        block = self.block(len(self._blocks))
        self._blocks.append(block)
        return block

    @property
    def pushed(self) -> int:
        return len(self._blocks) * self.workload.hop

    def window(self, t_end: int) -> np.ndarray:
        """Samples ``[t_end - window, t_end)`` of everything handed out."""
        hop, width = self.workload.hop, self.workload.length
        first, last = (t_end - width) // hop, t_end // hop
        if (t_end - width) % hop or t_end % hop:
            raise ValueError("windows end on hop boundaries")
        return np.concatenate(self._blocks[first:last], axis=1)
