"""The ``python -m repro`` CLI: every subcommand, in process, on the tiny
built-in --fast spec (the same path the CI smoke job exercises)."""

import dataclasses
import json

import pytest

from repro import cli
from repro.cli import fast_spec, main
from repro.pipeline import DeploymentSpec
from repro.serialize import artifact_fingerprint


@pytest.fixture(scope="module")
def trained_workdir(tmp_path_factory):
    """A workdir that has only seen `train` (no later stages mutate it)."""
    workdir = tmp_path_factory.mktemp("cli-train")
    assert main(["train", "--fast", "--workdir", str(workdir)]) == 0
    return workdir


@pytest.fixture(scope="module")
def quantized_workdir(tmp_path_factory):
    """A separate workdir taken through train + quantize."""
    workdir = tmp_path_factory.mktemp("cli-quantized")
    assert main(["train", "--fast", "--workdir", str(workdir)]) == 0
    assert main(["quantize", "--workdir", str(workdir)]) == 0
    return workdir


@pytest.fixture(scope="module")
def packaged_workdir(quantized_workdir):
    assert main(["package", "--workdir", str(quantized_workdir)]) == 0
    return quantized_workdir


def test_fast_spec_is_valid_and_round_trips():
    spec = fast_spec()
    assert DeploymentSpec.from_json(spec.to_json()) == spec
    assert spec.data is not None


def test_train_writes_spec_and_float_artifact(trained_workdir, capsys):
    assert (trained_workdir / "spec.json").is_file()
    assert (trained_workdir / "detector" / "manifest.json").is_file()
    spec = DeploymentSpec.load(trained_workdir / "spec.json")
    assert spec == fast_spec()
    manifest = json.loads(
        (trained_workdir / "detector" / "manifest.json").read_text())
    assert manifest["deployment_spec"] == spec.to_dict()
    assert manifest["threshold"] is not None


def test_quantize_writes_int8_artifact(quantized_workdir):
    manifest = json.loads(
        (quantized_workdir / "detector-int8" / "manifest.json").read_text())
    assert manifest["detector_class"] == "QuantizedVaradeDetector"
    # The refreshed spec (now with a quantization entry) was re-saved.
    spec = DeploymentSpec.load(quantized_workdir / "spec.json")
    assert spec.quantization is not None


def test_package_prefers_int8_and_records_fingerprint(packaged_workdir):
    package = packaged_workdir / "package"
    manifest = json.loads((package / "manifest.json").read_text())
    assert manifest["detector_class"] == "QuantizedVaradeDetector"
    recorded = (packaged_workdir / "package.fingerprint").read_text().strip()
    assert recorded == artifact_fingerprint(package)


def test_stream_replays_the_spec_dataset(packaged_workdir, capsys):
    assert main(["stream", "--workdir", str(packaged_workdir),
                 "--max-samples", "150"]) == 0
    out = capsys.readouterr().out
    assert "scored 150" in out
    assert "adaptation events" in out


def test_bench_reports_auc_and_edge_estimates(packaged_workdir, capsys):
    assert main(["bench", "--workdir", str(packaged_workdir)]) == 0
    out = capsys.readouterr().out
    assert "AUC-ROC" in out
    assert "Jetson Xavier NX" in out and "Jetson AGX Orin" in out


def test_train_is_deterministic_across_workdirs(tmp_path, trained_workdir):
    """The CI determinism gate, in process: same spec -> same fingerprint."""
    other = tmp_path / "other"
    assert main(["train", "--fast", "--workdir", str(other)]) == 0
    assert artifact_fingerprint(other / "detector") == \
        artifact_fingerprint(trained_workdir / "detector")


def test_train_with_explicit_spec_file_and_seed_override(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    fast_spec().save(spec_path)
    workdir = tmp_path / "run"
    assert main(["train", "--spec", str(spec_path), "--seed", "3",
                 "--workdir", str(workdir)]) == 0
    assert DeploymentSpec.load(workdir / "spec.json").seed == 3


def test_train_without_spec_or_fast_exits_with_usage_error(tmp_path, capsys):
    assert main(["train", "--workdir", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_rejects_fast_and_spec_together(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    fast_spec().save(spec_path)
    with pytest.raises(SystemExit):
        main(["train", "--fast", "--spec", str(spec_path),
              "--workdir", str(tmp_path / "x")])
    assert "not allowed with" in capsys.readouterr().err


def test_stage_commands_without_train_fail_cleanly(tmp_path, capsys):
    assert main(["quantize", "--workdir", str(tmp_path / "empty")]) == 2
    assert "repro train" in capsys.readouterr().err


def test_stream_warns_when_spec_json_diverges_from_artifact(tmp_path, capsys):
    """Replay stages run the shipped spec and flag an edited spec.json."""
    import dataclasses

    workdir = tmp_path / "run"
    assert main(["train", "--fast", "--workdir", str(workdir)]) == 0
    edited = dataclasses.replace(fast_spec(), seed=99)
    edited.save(workdir / "spec.json")
    assert main(["stream", "--workdir", str(workdir),
                 "--max-samples", "60"]) == 0
    captured = capsys.readouterr()
    assert "differs from the spec embedded" in captured.err
    assert "scored 60" in captured.out


def test_package_refuses_float_weights_under_int8_spec(tmp_path, capsys):
    """A spec declaring quantization cannot package float-only weights."""
    import dataclasses

    from repro.pipeline import QuantizationSpec

    spec_path = tmp_path / "spec.json"
    dataclasses.replace(fast_spec(),
                        quantization=QuantizationSpec()).save(spec_path)
    workdir = tmp_path / "run"
    assert main(["train", "--spec", str(spec_path),
                 "--workdir", str(workdir)]) == 0
    assert main(["package", "--workdir", str(workdir)]) == 2
    assert "repro quantize" in capsys.readouterr().err
    # After the quantize stage the same package call succeeds.
    assert main(["quantize", "--workdir", str(workdir)]) == 0
    assert main(["package", "--workdir", str(workdir)]) == 0


def test_quantize_rejects_training_relevant_spec_edits(tmp_path, capsys):
    """Editing seed/detector in spec.json after train must force a retrain."""
    import dataclasses

    workdir = tmp_path / "run"
    assert main(["train", "--fast", "--workdir", str(workdir)]) == 0
    dataclasses.replace(fast_spec(), seed=42).save(workdir / "spec.json")
    assert main(["quantize", "--workdir", str(workdir)]) == 2
    assert "re-run `repro train`" in capsys.readouterr().err


def test_retrain_invalidates_stale_derived_artifacts(tmp_path):
    """A new `train` drops int8/package artifacts built from old weights."""
    workdir = tmp_path / "run"
    assert main(["train", "--fast", "--workdir", str(workdir)]) == 0
    assert main(["quantize", "--workdir", str(workdir)]) == 0
    assert main(["package", "--workdir", str(workdir)]) == 0
    assert (workdir / "detector-int8").is_dir()
    assert (workdir / "package").is_dir()
    assert main(["train", "--fast", "--seed", "1",
                 "--workdir", str(workdir)]) == 0
    assert not (workdir / "detector-int8").exists()
    assert not (workdir / "package").exists()
    assert not (workdir / "package.fingerprint").exists()


def test_quantize_invalidates_stale_package(tmp_path):
    """`quantize` after `package` drops the now-stale float package."""
    workdir = tmp_path / "run"
    assert main(["train", "--fast", "--workdir", str(workdir)]) == 0
    assert main(["package", "--workdir", str(workdir)]) == 0
    assert (workdir / "package").is_dir()
    assert main(["quantize", "--workdir", str(workdir)]) == 0
    assert not (workdir / "package").exists()
    assert not (workdir / "package.fingerprint").exists()


def test_typoed_hyperparameter_reports_spec_error(tmp_path, capsys):
    """A typo'd detector param exits 2 with `error: ...`, not a traceback."""
    spec_path = tmp_path / "spec.json"
    spec = fast_spec().to_dict()
    spec["detector"]["params"]["windwo"] = 16
    spec_path.write_text(json.dumps(spec))
    code = main(["train", "--spec", str(spec_path),
                 "--workdir", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "windwo" in err


def test_broken_spec_file_reports_spec_error(tmp_path, capsys):
    workdir = tmp_path / "broken"
    workdir.mkdir()
    (workdir / "spec.json").write_text('{"detector": {"kind": "varade"}, "oops": 1}')
    spec_path = workdir / "spec.json"
    code = main(["train", "--spec", str(spec_path),
                 "--workdir", str(workdir)])
    assert code == 2
    assert "oops" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# `repro serve`: one flag resolution for the single process and the cluster
# --------------------------------------------------------------------------- #
def _serve_args(*flags):
    return cli._build_parser().parse_args(["serve", *flags])


class _RecordingArgs:
    """Parsed args that remember which flags were read."""

    def __init__(self, args):
        self._args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


def test_no_serve_flag_can_be_silently_dropped_in_cluster_mode():
    """Both modes are built from what ``_resolve_endpoint`` returns, so a
    flag it never reads reaches neither; one it reads either applies to a
    cluster too or is on the explicit rejection list.  A new ``repro
    serve`` flag that is read somewhere else fails here."""
    args = _RecordingArgs(_serve_args())
    cli._resolve_endpoint(args, fast_spec().service)
    every_flag = set(vars(args._args)) - {"command", "func", "workdir"}
    assert every_flag - args.read == set()
    assert set(cli._CLUSTER_REJECTED_FLAGS) <= every_flag


@pytest.mark.parametrize("flag, value", [
    ("--trace-out", "trace.json"), ("--trace-events", "16"),
    ("--alarm-log", "alarms.jsonl")])
def test_cluster_mode_refuses_per_process_flags(flag, value):
    for single in (["--workers", "1"], []):
        endpoint = cli._resolve_endpoint(_serve_args(flag, value, *single),
                                         None)
        assert endpoint.workers is None
    with pytest.raises(cli.CLIUsageError, match=flag):
        cli._resolve_endpoint(_serve_args(flag, value, "--workers", "2"), None)


@pytest.mark.parametrize("mode", [[], ["--workers", "2"]])
def test_a_bad_service_knob_is_a_usage_error_in_both_modes(mode):
    with pytest.raises(cli.CLIUsageError, match="max_batch"):
        cli._resolve_endpoint(_serve_args("--max-batch", "0", *mode), None)


def test_single_process_and_cluster_resolve_the_same_endpoint(tmp_path):
    flags = ["--max-batch", "4", "--max-delay-ms", "1.5", "--max-queue", "9",
             "--backpressure", "reject", "--no-incremental",
             "--protocol", "binary", "--host", "127.0.0.9", "--port", "0",
             "--metrics-port", "0", "--max-seconds", "3",
             "--port-file", str(tmp_path / "port")]
    spec = fast_spec().service
    single = cli._resolve_endpoint(_serve_args(*flags), spec)
    cluster = cli._resolve_endpoint(_serve_args(*flags, "--workers", "2"),
                                    spec)
    assert (single.workers, cluster.workers) == (None, 2)
    assert single.service == cluster.service == {
        "max_batch": 4, "max_delay_ms": 1.5, "max_queue": 9,
        "backpressure": "reject", "incremental": False,
        "observability": True}
    assert single.protocols == cluster.protocols == ("binary",)
    for name in ("host", "metrics_port", "max_seconds", "port_file"):
        assert getattr(single, name) == getattr(cluster, name)
    assert single.transport.describe() == cluster.transport.describe()


def test_serve_flags_fall_back_to_the_spec_then_the_defaults():
    spec = dataclasses.replace(fast_spec().service, host="127.0.0.7",
                               port=7100, protocol="json", metrics_port=0)
    from_spec = cli._resolve_endpoint(_serve_args(), spec)
    assert from_spec.host == "127.0.0.7" and from_spec.protocols == ("json",)
    assert from_spec.metrics_port == 0
    assert from_spec.service == {"observability": True}
    assert from_spec.transport.describe() == "127.0.0.7:7100"
    bare = cli._resolve_endpoint(_serve_args(), None)
    assert bare.transport.describe() == "127.0.0.1:7007"
    assert bare.protocols == ("json", "binary") and bare.service == {}
    assert bare.metrics_port is None and bare.workers is None


def test_tenants_imply_a_cluster(packaged_workdir, tmp_path):
    package = packaged_workdir / "package"
    endpoint = cli._resolve_endpoint(
        _serve_args("--tenant", f"b={package}"), None)
    assert (endpoint.workers, endpoint.tenants) == (2, {"b": package})
    for bad in ("b", f"default={package}", f"b={tmp_path}"):
        with pytest.raises(cli.CLIUsageError):
            cli._resolve_endpoint(_serve_args("--tenant", bad), None)
