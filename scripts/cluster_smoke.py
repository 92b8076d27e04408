#!/usr/bin/env python
"""End-to-end cluster smoke: two tenants, two workers, one survives a kill.

The flow ``scripts/verify.sh`` (and so every CI push) runs against the
real ``repro serve --workers N`` entry point -- worker subprocesses, shard
router, the lot:

1. ``repro train --fast`` + ``repro package`` build the default-tenant
   artifact; a second workdir (seed 7) builds the ``beta`` tenant's;
2. ``repro serve --workers 2 --tenant beta=... --protocol binary`` starts
   the fleet on an ephemeral endpoint (port file handshake), printing one
   ``serve: worker <name> pid <pid>`` line per shard;
3. a JSON client is refused by the binary-only front door (one structured
   error, then the connection closes); one binary client opens a stream
   per tenant through it, replays each spec's own seeded-anomaly test
   split, and asserts alarms come back for both tenants;
4. a worker is SIGKILLed mid-stream; pushes must keep succeeding (the
   router respawns the shard and re-opens its sessions) and the fleet
   snapshot must show the restart with both workers live again;
5. the fleet ``/metrics`` page is polled (scrapes are at most one health
   interval stale) until it agrees, then the client asks the router to
   shut the whole fleet down and the script asserts a clean exit.

Run directly::

    PYTHONPATH=src python scripts/cluster_smoke.py [workdir]
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SERVER_STARTUP_TIMEOUT_S = 60.0
SERVER_EXIT_TIMEOUT_S = 30.0
SCRAPE_SETTLE_TIMEOUT_S = 30.0
BETA_SEED = 7

WORKER_LINE = re.compile(r"serve: worker (\S+) pid (\d+) on")


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing \
        else src + os.pathsep + existing
    return env


def run_cli(*args: str) -> None:
    subprocess.run([sys.executable, "-m", "repro", *args], check=True,
                   cwd=REPO, env=_env())


def _tee_stdout(server: subprocess.Popen, lines: list) -> threading.Thread:
    """Mirror the server's stdout while recording it for pid parsing."""
    def pump() -> None:
        for line in server.stdout:
            print(line, end="", flush=True)
            lines.append(line)

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    return thread


def _worker_pids(lines: list) -> dict:
    pids = {}
    for line in lines:
        match = WORKER_LINE.search(line)
        if match:
            pids[match.group(1)] = int(match.group(2))
    return pids


def _scrape(metrics_port_file: Path) -> str:
    port = int(metrics_port_file.read_text().strip())
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics",
                                timeout=10.0) as response:
        return response.read().decode("utf-8")


def _metric_value(page: str, name: str) -> float:
    for line in page.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    raise AssertionError(f"metric {name} missing from scrape page")


def _await_file(path: Path, server: subprocess.Popen, what: str) -> None:
    deadline = time.monotonic() + SERVER_STARTUP_TIMEOUT_S
    while not path.is_file():
        if server.poll() is not None:
            raise RuntimeError(f"server exited early with code "
                               f"{server.returncode} before {what}")
        if time.monotonic() > deadline:
            raise RuntimeError(f"{what} never appeared")
        time.sleep(0.2)


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import fast_spec
    from repro.serve import BinaryClient, TCPClient

    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 \
        else Path(tempfile.mkdtemp(prefix="repro-cluster-smoke-"))
    beta_workdir = workdir / "tenant-beta"
    print(f"cluster-smoke: workdir {workdir}")
    run_cli("train", "--fast", "--workdir", str(workdir))
    run_cli("package", "--workdir", str(workdir))
    run_cli("train", "--fast", "--seed", str(BETA_SEED),
            "--workdir", str(beta_workdir))
    run_cli("package", "--workdir", str(beta_workdir))
    beta_artifact = beta_workdir / "package"

    default_stream = np.asarray(
        fast_spec().data.build(0).test)[:250]
    beta_stream = np.asarray(
        fast_spec().data.build(BETA_SEED).test)[:250]

    port_file = workdir / "cluster-endpoint"
    metrics_port_file = workdir / "cluster-metrics"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workdir", str(workdir),
         "--workers", "2", "--tenant", f"beta={beta_artifact}",
         "--protocol", "binary",
         "--port", "0", "--port-file", str(port_file),
         "--metrics-port", "0",
         "--metrics-port-file", str(metrics_port_file),
         "--max-delay-ms", "2", "--max-seconds", "180"],
        cwd=REPO, env=_env(), stdout=subprocess.PIPE, text=True,
    )
    lines: list = []
    pump = _tee_stdout(server, lines)
    try:
        _await_file(port_file, server, "router port file")
        port = int(port_file.read_text().strip())
        pids = _worker_pids(lines)
        assert len(pids) == 2, f"expected 2 worker pid lines, saw {pids}"
        print(f"cluster-smoke: router on 127.0.0.1:{port}, workers {pids}")

        # -- --protocol reaches the router: JSON clients are refused ------- #
        with TCPClient(port=port) as json_client:
            refusal = json_client.request({"op": "ping"})
            assert not refusal["ok"], refusal
            assert "json protocol is disabled" in refusal["error"], refusal
            try:
                json_client.request({"op": "ping"})
            except ConnectionError:
                pass
            else:
                raise AssertionError("the refused connection stayed open")
        print("cluster-smoke: binary-only front door refused a JSON client")

        with BinaryClient(port=port) as client:
            assert client.ping()["ok"]

            # -- both tenants through the one front door ------------------- #
            opened = client.open("a-1")
            assert opened["threshold"] is not None
            opened = client.open("b-1", tenant="beta")
            assert opened["threshold"] is not None
            client.push_stream("a-1", default_stream)
            client.push_stream("b-1", beta_stream)
            summaries = {sid: client.close_stream(sid)
                         for sid in ("a-1", "b-1")}
            time.sleep(0.3)
            client.ping()       # flush buffered alarm events
            alarmed = {event["stream"] for event in client.alarms}
            assert summaries["a-1"]["samples_pushed"] == len(default_stream)
            assert summaries["b-1"]["samples_pushed"] == len(beta_stream)
            assert "a-1" in alarmed, "no alarms from the default tenant"
            assert "b-1" in alarmed, "no alarms from the beta tenant"
            print(f"cluster-smoke: both tenants alarmed "
                  f"({len(client.alarms)} events)")

            # -- kill a shard mid-stream; serving must continue ------------ #
            victims = _worker_pids(lines)
            victim = victims["w1"]
            crash_streams = {f"c{i}": default_stream for i in range(4)}
            for sid in crash_streams:
                client.open(sid)
            for sid, data in crash_streams.items():
                client.push_stream(sid, data[:100])
            os.kill(victim, signal.SIGKILL)
            print(f"cluster-smoke: SIGKILLed worker w1 (pid {victim})")
            # these pushes either route to the survivor or block in the
            # router until w1's replacement answers -- never an error
            for sid, data in crash_streams.items():
                client.push_stream(sid, data[100:])
            summaries = {sid: client.close_stream(sid)
                         for sid in crash_streams}
            for sid, summary in summaries.items():
                assert summary["samples_pushed"] in (250, 150), \
                    (sid, summary)
            snapshot = client.snapshot()
            assert snapshot["cluster"]["worker_restarts"] >= 1
            assert snapshot["cluster"]["workers_live"] == 2
            print(f"cluster-smoke: worker respawned, fleet of "
                  f"{snapshot['cluster']['workers_live']} serving again")

            # -- fleet metrics page (polled: scrapes lag one interval) ----- #
            _await_file(metrics_port_file, server, "metrics port file")
            deadline = time.monotonic() + SCRAPE_SETTLE_TIMEOUT_S
            while True:
                page = _scrape(metrics_port_file)
                try:
                    assert _metric_value(
                        page, "repro_cluster_workers_live") == 2
                    assert _metric_value(
                        page, "repro_cluster_worker_restarts_total") >= 1
                    assert _metric_value(
                        page, "repro_service_samples_pushed_total") > 0
                    break
                except AssertionError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.5)
            print("cluster-smoke: fleet metrics scrape reconciles")

            assert client.shutdown()["ok"]

        code = server.wait(timeout=SERVER_EXIT_TIMEOUT_S)
        assert code == 0, f"server exited with {code}"
        print("cluster-smoke: clean shutdown, OK")
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()
        pump.join(5.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
