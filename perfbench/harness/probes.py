"""Span probes around the public entry points of each program layer.

:func:`install` replaces functions and methods of the imported ``repro``
modules with wrappers that record a span per call into a
:class:`~harness.spans.SpanRecorder`.  Nothing under ``src/`` changes: the
probes live only in the process that installs them (the traced server, or
the benchmark process itself for the stream workload).

Span names, by layer:

``repro.serve.http``     ``http.request`` (``do_POST``: parse, handle, serialize, write)
``repro.serve.service``  ``service.classify`` / ``service.explain``
``repro.serve.cache``    ``cache.get.{perm,response}`` (attr ``hit``) / ``cache.put.{perm,response}``
``repro.serve.engine``   ``engine.flush`` (one micro-batch flush) / ``engine.classify``
``repro.explain.dcam``   ``dcam.explain`` (explain / explain_batch)
``repro.core.dcam``      ``dcam.forward`` (attr ``cubes``), ``dcam.merge``, ``dcam.extract``
models                   ``model.cube`` (C(T) build), ``model.trunk``, ``model.head``
``repro.nn``             ``nn.conv.block{i}`` (attrs ``flop``, ``bytes``, ``out_cols``)
``repro.stream``         ``stream.push``, ``stream.trunk`` (attrs ``dirty_cols``, ``cold``),
                         ``stream.roll``

FLOP and byte counts of a conv call are computed from tensor shapes, not
measured: ``2 * B * O * H_out * W_out * C * kh * kw`` FLOPs and the input,
folded-weight and output array sizes in bytes.
"""

from __future__ import annotations

from typing import Dict

from .spans import SpanRecorder, wrap


class BlockIndex:
    """Maps a conv block's BatchNorm (by identity) to its trunk position."""

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}

    def register(self, model) -> None:
        trunk = getattr(model, "feature_extractor", None)
        if trunk is None:
            return
        for position, block in enumerate(trunk):
            try:
                self._index[id(block[1])] = position
            except (TypeError, IndexError):
                continue

    def name(self, args, kwargs) -> str:
        bn = args[2] if len(args) > 2 else kwargs.get("bn")
        return f"nn.conv.block{self._index.get(id(bn), 'X')}"


def _conv_counts(attrs, args, kwargs, result) -> None:
    x, conv = args[0], args[1]
    kh, kw = conv.kernel_size
    batch, channels = x.shape[0], x.shape[1]
    _, out_channels, out_h, out_w = result.shape
    itemsize = result.itemsize
    attrs["flop"] = 2.0 * batch * out_channels * out_h * out_w * channels * kh * kw
    attrs["bytes"] = float(
        (x.size + out_channels * channels * kh * kw + result.size) * itemsize
    )
    attrs["out_cols"] = float(out_w)


def _cube_count(attrs, args, kwargs, result) -> None:
    attrs["cubes"] = float(len(args[1]))


def _cache_hit(attrs, args, kwargs, result) -> None:
    attrs["hit"] = 0.0 if result is None else 1.0


def install(recorder: SpanRecorder, blocks: BlockIndex) -> None:
    """Wrap every probed entry point; call once per process."""
    import repro.core.dcam as core_dcam
    import repro.explain.dcam as explain_dcam
    import repro.nn.functional as functional
    import repro.serve.engine as engine
    import repro.stream.incremental as incremental
    import repro.stream.session as session
    from repro.models.conv_common import ConvBackboneClassifier, CubeInputMixin
    from repro.nn.layers import GlobalAveragePooling, Linear
    from repro.serve.cache import ExplanationCache
    from repro.serve.http import _ServiceRequestHandler
    from repro.serve.service import ExplanationService
    from repro.serve.store import ModelArtifactStore

    # Trunk positions of every model the process loads.
    original_load = ModelArtifactStore.load

    def load(self, name):
        model = original_load(self, name)
        blocks.register(model)
        return model

    ModelArtifactStore.load = load

    # repro.nn: the fused inference kernel, under both names it is called by.
    wrap(recorder, functional, "fused_conv_bn_relu", blocks.name, _conv_counts)
    incremental.fused_conv_bn_relu = functional.fused_conv_bn_relu

    # Model stages used by the dCAM forward (and by classify's trunk).
    wrap(recorder, CubeInputMixin, "prepare_input", "model.cube")
    wrap(recorder, ConvBackboneClassifier, "features", "model.trunk")
    wrap(recorder, GlobalAveragePooling, "forward", "model.head")
    wrap(recorder, Linear, "forward", "model.head")

    # repro.core.dcam / repro.explain.dcam.
    wrap(recorder, core_dcam, "_permutation_cams_batched", "dcam.forward", _cube_count)
    explain_dcam._permutation_cams_batched = core_dcam._permutation_cams_batched
    wrap(recorder, core_dcam, "_merge_cam_stack", "dcam.merge")
    wrap(recorder, core_dcam, "extract_dcam", "dcam.extract")
    wrap(recorder, explain_dcam.DCAMExplainer, "explain", "dcam.explain")
    wrap(recorder, explain_dcam.DCAMExplainer, "explain_batch", "dcam.explain")

    # repro.serve: HTTP edge, service facade, engine flush, cache.
    wrap(recorder, _ServiceRequestHandler, "do_POST", "http.request")
    wrap(recorder, ExplanationService, "classify", "service.classify")
    wrap(recorder, ExplanationService, "explain", "service.explain")
    wrap(recorder, ExplanationService, "_execute_group", "engine.flush")
    wrap(recorder, engine, "serve_logits", "engine.classify")

    def cache_name(prefix: str):
        def name(args, kwargs) -> str:
            # Per-permutation traffic is the cache use inside a dCAM explain.
            inside = recorder.parent_name() == "dcam.explain"
            return f"{prefix}.perm" if inside else f"{prefix}.response"
        return name

    wrap(recorder, ExplanationCache, "get", cache_name("cache.get"), _cache_hit)
    wrap(recorder, ExplanationCache, "put", cache_name("cache.put"))

    # repro.stream.
    def trunk_counts(cold: bool):
        def annotate(attrs, args, kwargs, result) -> None:
            features, (a, b) = result
            width = features.shape[-1]
            attrs["dirty_cols"] = float(width if a >= b else a + width - b)
            attrs["cold"] = 1.0 if cold else 0.0
        return annotate

    wrap(recorder, session.StreamSession, "push", "stream.push")
    wrap(recorder, incremental.IncrementalTrunk, "slide", "stream.trunk", trunk_counts(False))
    wrap(recorder, incremental.IncrementalTrunk, "reset", "stream.trunk", trunk_counts(True))
    wrap(recorder, session, "roll_cube_batch", "stream.roll")
