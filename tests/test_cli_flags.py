"""``python -m repro`` flags derived from the ``#:`` config fields and driver signatures.

Pins that the ``serve`` / ``stream`` flags build the configs their dataclass
defaults describe (the served config is exactly the one the benchmark runs),
that their help text is the field's ``#:`` doc, that invalid values end in an
argparse ``error:`` line with exit status 2 before any port is bound, and that
the ``run`` filter flags follow the driver signatures.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.models import DCNNClassifier
from repro.obs import ObsConfig
from repro.runtime import cli
from repro.runtime.config_flags import field_docs
from repro.serve.service import ServeConfig
from repro.serve.store import ModelArtifactStore
from repro.stream import StreamConfig

COMMANDS = ("list", "run", "export-model", "serve", "stream", "byte-store-server", "worker", "trace-dump")


@pytest.fixture
def store_dir(tmp_path):
    model = DCNNClassifier(3, 16, 2, filters=(4, 8), rng=np.random.default_rng(0))
    ModelArtifactStore(str(tmp_path)).register(
        "dcnn-demo",
        model,
        model_name="dcnn",
        metadata={"model_kwargs": {"filters": (4, 8)}, "default_k": 5},
    )
    return str(tmp_path)


@pytest.fixture
def served_configs(monkeypatch):
    """Replace ``run_server`` with a recorder: no port is bound."""
    configs = []

    def record(service, host, port, announce=None):
        configs.append(service.config)
        service.close()

    monkeypatch.setattr("repro.serve.http.run_server", record)
    return configs


class _SessionBuilt(Exception):
    pass


def test_serve_without_knob_flags_builds_the_adaptive_default(store_dir, served_configs):
    assert cli.main(["serve", "--store", store_dir, "--host", "127.0.0.1", "--port", "0"]) == 0
    (config,) = served_configs
    assert dataclasses.asdict(config) == dataclasses.asdict(ServeConfig(batch_policy="adaptive"))


def test_serve_flags_override_fields(store_dir, served_configs):
    argv = ["serve", "--store", store_dir, "--batch-policy", "static", "--max-queue-depth", "none"]
    assert cli.main(argv + ["--policy-latency-budget-ms", "40", "--trace-sample-rate", "0.5"]) == 0
    (config,) = served_configs
    assert config == ServeConfig(
        batch_policy="static",
        max_queue_depth=None,
        policy_latency_budget_ms=40.0,
        obs=ObsConfig(trace_sample_rate=0.5),
    )


def test_stream_without_knob_flags_builds_the_default_with_artifact_k(store_dir, monkeypatch):
    def record(model, config, **kwargs):
        raise _SessionBuilt(config)

    monkeypatch.setattr("repro.stream.StreamSession", record)
    with pytest.raises(_SessionBuilt) as built:
        cli.main(["stream", "--store", store_dir])
    assert dataclasses.asdict(built.value.args[0]) == dataclasses.asdict(StreamConfig(k=5))


@pytest.mark.parametrize(
    "command, config_class, fields",
    [
        ("serve", ServeConfig, cli.SERVE_FIELDS),
        ("serve", ObsConfig, cli.OBS_FIELDS),
        ("stream", StreamConfig, cli.STREAM_FIELDS),
    ],
)
def test_derived_flag_help_is_the_field_doc(command, config_class, fields, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    # argparse re-wraps the help text, so compare with whitespace removed.
    text = "".join(capsys.readouterr().out.split())
    docs = field_docs(config_class)
    for name in fields:
        assert "--" + name.replace("_", "-") in text
        assert "".join(docs[name][1].split()) in text


@pytest.mark.parametrize("command", COMMANDS)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stream", "--hop", "0"], "hop must be >= 1"),
        (["stream", "--chunk", "0"], "--chunk must be >= 1"),
        (["serve", "--trace-sample-rate", "2"], "trace_sample_rate must be in [0, 1]"),
        (["serve", "--max-queue-depth", "0"], "max_queue_depth must be >= 1"),
        (["serve", "--batch-policy", "nope"], "unknown batch_policy 'nope'"),
    ],
)
def test_invalid_value_is_a_usage_error(argv, message, store_dir, served_configs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([argv[0], "--store", store_dir, *argv[1:]])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert served_configs == []


def test_run_filters_follow_driver_signatures():
    expected = {
        "table2": ["models", "datasets"],
        "table3": ["models", "dimensions", "seeds"],
        "figure8": ["datasets"],
        "figure9": ["models", "dimensions"],
        "figure10": ["models", "dimensions"],
        "figure11": ["models", "dimensions", "seeds"],
        "figure12": ["models", "dimensions"],
        "figure13": [],
        "ablation-extraction": [],
        "ablation-ng-filter": [],
    }
    table = cli._experiment_table()
    assert {name: cli._supported_filters(entry.driver) for name, entry in table.items()} == expected


@dataclasses.dataclass
class _HalfDocumented:
    #: Documented knob.
    documented: int = 1
    undocumented: int = 2


def test_field_without_doc_comment_is_an_error():
    with pytest.raises(ValueError, match=r"_HalfDocumented\.undocumented has no '#:' doc comment"):
        field_docs(_HalfDocumented)
