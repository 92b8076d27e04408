#!/usr/bin/env python
"""End-to-end lifecycle smoke: canary, gated promotion, watcher rollback.

The flow ``scripts/verify.sh`` (and so every CI push) runs against the
real artifacts and serving entry points:

1. ``repro train --fast`` + ``repro package`` build the incumbent
   artifact A; a second workdir (seed 7) builds candidate B and
   ``repro baseline`` records B's golden baseline sidecar;
2. **in-process leg** -- serve A, attach a canary for B on every stream,
   and walk the whole lifecycle: the promotion is *gated* while the
   canary is undecided, passes once B has shadow-scored its baseline
   traffic, the hot swap drops no sample and scores bit-identically to a
   fresh service started on B, and a forced regression (alarm storm)
   after promotion makes the armed meta-watcher roll back to A;
3. **wire leg** -- ``repro serve`` on artifact A, driven end to end with
   the ``repro canary`` / ``repro promote`` CLI: status is undecided
   under the default gates, bare ``promote`` exits 1 with the --force
   hint, ``promote --force`` swaps, ``promote --rollback`` restores A;
   then the same flow a second time through ``BinaryClient`` against a
   server started with ``--protocol binary`` (the production ingest
   socket takes every lifecycle op too);
4. **cluster leg** -- ``repro serve --workers 2``: fleet-wide canary
   attach, per-worker status, forced promotion on every shard, rollback.

Run directly::

    PYTHONPATH=src python scripts/lifecycle_smoke.py [workdir]
"""

import asyncio
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SERVER_STARTUP_TIMEOUT_S = 60.0
SERVER_EXIT_TIMEOUT_S = 30.0
ROLLBACK_TIMEOUT_S = 30.0
CANDIDATE_SEED = 7


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing \
        else src + os.pathsep + existing
    return env


def run_cli(*args: str) -> int:
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          cwd=REPO, env=_env()).returncode


def check_cli(*args: str) -> None:
    code = run_cli(*args)
    assert code == 0, f"repro {' '.join(args)} exited {code}"


def _await_file(path: Path, server: subprocess.Popen, what: str) -> None:
    deadline = time.monotonic() + SERVER_STARTUP_TIMEOUT_S
    while not path.is_file():
        if server.poll() is not None:
            raise RuntimeError(f"server exited early with code "
                               f"{server.returncode} before {what}")
        if time.monotonic() > deadline:
            raise RuntimeError(f"{what} never appeared")
        time.sleep(0.2)


def _serve(workdir: Path, port_file: Path, *flags: str) -> subprocess.Popen:
    """``repro serve`` on the workdir's artifact, on an ephemeral port."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workdir", str(workdir),
         *flags, "--port", "0", "--port-file", str(port_file),
         "--max-delay-ms", "2", "--max-seconds", "120"],
        cwd=REPO, env=_env(),
    )


def _await_clean_exit(server: subprocess.Popen) -> None:
    code = server.wait(timeout=SERVER_EXIT_TIMEOUT_S)
    assert code == 0, f"server exited with {code}"


def _reap(server: subprocess.Popen) -> None:
    """Whatever happened, leave no server process behind."""
    if server.poll() is None:
        server.terminate()
        try:
            server.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            server.kill()


def build_artifacts(workdir: Path):
    """Artifact A (incumbent) and artifact B (candidate + baseline)."""
    candidate_workdir = workdir / "candidate"
    check_cli("train", "--fast", "--workdir", str(workdir))
    check_cli("package", "--workdir", str(workdir))
    check_cli("train", "--fast", "--seed", str(CANDIDATE_SEED),
              "--workdir", str(candidate_workdir))
    check_cli("package", "--workdir", str(candidate_workdir))
    check_cli("baseline", "--workdir", str(candidate_workdir))
    return workdir / "package", candidate_workdir / "package"


def in_process_leg(artifact_a: Path, artifact_b: Path,
                   baseline_traffic: np.ndarray) -> None:
    """Gated promotion, zero-drop bit-exact swap, watcher auto-rollback."""
    from repro.lifecycle import (CanaryController, MetaWatcher, WatchPolicy,
                                 load_baseline)
    from repro.pipeline import Pipeline
    from repro.serialize import artifact_fingerprint, load_detector
    from repro.serve import AnomalyService, ServiceConfig

    fp_a = artifact_fingerprint(artifact_a)
    fp_b = artifact_fingerprint(artifact_b)
    detector_b = load_detector(artifact_b)
    window = detector_b.window
    swap_at = 300    # promote mid-stream, after the 256-sample gate can pass
    config = ServiceConfig(max_batch=16, max_delay_ms=2.0,
                           record_sessions=True)

    async def settle(service, scored):
        deadline = time.monotonic() + 10.0
        while service.stats().samples_scored < scored:
            assert time.monotonic() < deadline, "scheduler never drained"
            await asyncio.sleep(0.02)

    async def main():
        service = Pipeline.load(artifact_a).deploy_service(config=config)
        await service.start()
        watcher = MetaWatcher(WatchPolicy(interval_s=0.05, patience=1,
                                          max_alarm_rate=0.5))
        service.attach_watcher(watcher)
        controller = CanaryController(
            detector_b, baseline=load_baseline(artifact_b),
            fraction=1.0, fingerprint=fp_b)
        service.attach_canary(controller)

        # -- gated: an undecided canary holds the promotion back -------- #
        for row in baseline_traffic[:64]:
            await service.push("cell-0", row)
        gated = await service.promote()
        assert not gated["promoted"], gated
        assert gated["report"]["verdict"] == "undecided"
        print("lifecycle-smoke: promotion gated while the canary is "
              f"undecided ({gated['report']['samples']} samples)")

        # -- gates pass once B shadow-scores its own baseline traffic --- #
        for row in baseline_traffic[64:swap_at]:
            await service.push("cell-0", row)
        await settle(service, swap_at - window + 1)
        report = controller.evaluate()
        assert report.verdict == "promote", report.to_dict()
        promoted = await service.promote()
        assert promoted["promoted"]
        assert promoted["fingerprint"] == fp_b
        assert promoted["previous_fingerprint"] == fp_a
        assert promoted["migrated_sessions"] == 1
        assert watcher.armed
        print(f"lifecycle-smoke: gates passed, promoted {fp_b[:12]}… "
              f"(migrated {promoted['migrated_sessions']} session)")

        # -- zero drops across the swap ---------------------------------- #
        for row in baseline_traffic[swap_at:]:
            await service.push("cell-0", row)
        scorable = len(baseline_traffic) - window + 1
        await settle(service, scorable)
        stats = service.stats()
        assert stats.samples_dropped == 0
        assert stats.samples_scored == scorable, \
            (stats.samples_scored, scorable)

        # -- post-swap scores bit-identical to a fresh service on B ------ #
        # result() covers every pushed sample (scores[j] is the window
        # ending at sample j), so the post-swap tail starts at swap_at.
        post_swap = service.sessions["cell-0"].result().scores[swap_at:]
        fresh_service = Pipeline.load(artifact_b).deploy_service(
            config=config)
        await fresh_service.start()
        for row in baseline_traffic:
            await fresh_service.push("cell-0", row)
        await fresh_service.stop()
        fresh = fresh_service.sessions["cell-0"].result().scores
        np.testing.assert_allclose(post_swap, fresh[swap_at:],
                                   rtol=0.0, atol=0.0, equal_nan=True)
        print(f"lifecycle-smoke: {post_swap.size} post-swap scores "
              "bit-identical to a fresh service on the candidate")

        # -- forced regression: the armed watcher rolls back ------------- #
        storm = baseline_traffic[:80] + 40.0
        deadline = time.monotonic() + ROLLBACK_TIMEOUT_S
        while service.artifact_fingerprint != fp_a:
            assert time.monotonic() < deadline, "watcher never rolled back"
            for row in storm:
                await service.push("cell-0", row)
            await asyncio.sleep(0.1)
        assert watcher.rollbacks == 1
        assert not watcher.armed
        print(f"lifecycle-smoke: regression storm rolled back to "
              f"{fp_a[:12]}… automatically")
        await service.stop()

    asyncio.run(main())


def wire_leg(artifact_a: Path, artifact_b: Path, workdir: Path,
             baseline_traffic: np.ndarray) -> None:
    """The CLI flow against ``repro serve``: gated, forced, rolled back."""
    from repro.serve import TCPClient

    port_file = workdir / "wire-endpoint"
    server = _serve(workdir, port_file)
    try:
        _await_file(port_file, server, "server port file")
        endpoint = f"127.0.0.1:{int(port_file.read_text().strip())}"
        check_cli("canary", "--connect", endpoint,
                  "--artifact", str(artifact_b), "--fraction", "1.0")
        with TCPClient(port=int(endpoint.rsplit(":", 1)[1])) as client:
            client.open("wire-0")
            client.push_stream("wire-0", baseline_traffic[:120])
            client.close_stream("wire-0")
            check_cli("canary", "--connect", endpoint, "--status")
            # Default gates need 256 samples; 113 windows hold it back.
            code = run_cli("promote", "--connect", endpoint)
            assert code == 1, f"gated promote should exit 1, got {code}"
            print("lifecycle-smoke: wire promotion gated (exit 1)")
            check_cli("promote", "--connect", endpoint, "--force")
            check_cli("promote", "--connect", endpoint, "--rollback",
                      "--reason", "smoke")
            print("lifecycle-smoke: wire force-promote and rollback OK")
            assert client.shutdown()["ok"]
        _await_clean_exit(server)
    finally:
        _reap(server)


def binary_wire_leg(artifact_a: Path, artifact_b: Path, workdir: Path,
                    baseline_traffic: np.ndarray) -> None:
    """The wire leg's flow over a binary-only listener, via BinaryClient."""
    from repro.serialize import artifact_fingerprint
    from repro.serve import BinaryClient

    port_file = workdir / "binary-endpoint"
    server = _serve(workdir, port_file, "--protocol", "binary")
    try:
        _await_file(port_file, server, "binary server port file")
        with BinaryClient(port=int(port_file.read_text().strip())) as client:
            client.canary(str(artifact_b), fraction=1.0)
            client.open("wire-0")
            client.push_stream("wire-0", baseline_traffic[:120])
            client.close_stream("wire-0")
            assert client.canary_status()["verdict"] == "undecided"
            # Default gates need 256 samples; 113 windows hold it back.
            gated = client.promote()
            assert not gated["promoted"], gated
            print("lifecycle-smoke: binary promotion gated")
            promoted = client.promote(force=True)
            assert promoted["fingerprint"] == artifact_fingerprint(artifact_b)
            rolled = client.rollback(reason="smoke")
            assert rolled["fingerprint"] == artifact_fingerprint(artifact_a)
            print("lifecycle-smoke: binary force-promote and rollback OK")
            assert client.shutdown()["ok"]
        _await_clean_exit(server)
    finally:
        _reap(server)


def cluster_leg(artifact_a: Path, artifact_b: Path, workdir: Path,
                baseline_traffic: np.ndarray) -> None:
    """Fleet-wide canary and swap through the shard router."""
    from repro.serve import TCPClient

    port_file = workdir / "cluster-endpoint"
    server = _serve(workdir, port_file, "--workers", "2")
    try:
        _await_file(port_file, server, "router port file")
        port = int(port_file.read_text().strip())
        with TCPClient(port=port) as client:
            attached = client.canary(
                str(artifact_b), fraction=1.0,
                gates={"min_samples": 32, "alarm_rate_slack": 0.05})
            workers = sorted(attached["workers"])
            assert len(workers) == 2, attached
            for index in range(4):
                stream = f"shard-{index}"
                client.open(stream)
                client.push_stream(stream, baseline_traffic[:150])
                client.close_stream(stream)
            status = client.canary_status()
            assert sorted(status["workers"]) == workers
            # Each worker judges only its own traffic slice; force makes
            # the fleet swap deterministic for the smoke.
            promoted = client.promote(force=True)
            assert promoted["promoted"], promoted
            assert all(entry["promoted"]
                       for entry in promoted["workers"].values())
            rolled = client.rollback(reason="smoke")
            assert rolled["ok"], rolled
            print(f"lifecycle-smoke: fleet of {len(workers)} promoted and "
                  "rolled back through the router")
            assert client.shutdown()["ok"]
        _await_clean_exit(server)
    finally:
        _reap(server)


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import fast_spec

    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 \
        else Path(tempfile.mkdtemp(prefix="repro-lifecycle-smoke-"))
    print(f"lifecycle-smoke: workdir {workdir}")
    artifact_a, artifact_b = build_artifacts(workdir)

    # The exact traffic `repro baseline` recorded B's golden baseline on.
    baseline_traffic = np.asarray(
        fast_spec().data.build(CANDIDATE_SEED).test)

    in_process_leg(artifact_a, artifact_b, baseline_traffic)
    wire_leg(artifact_a, artifact_b, workdir, baseline_traffic)
    binary_wire_leg(artifact_a, artifact_b, workdir, baseline_traffic)
    cluster_leg(artifact_a, artifact_b, workdir, baseline_traffic)
    print("lifecycle-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
