#!/usr/bin/env python
"""End-to-end serving smoke: package an artifact, serve it, alarm over the wire.

The flow ``scripts/verify.sh`` (and so every CI push) runs once per
(transport, protocol) combination -- JSON over TCP, binary over TCP, and
binary over a Unix-domain socket where the platform offers one:

1. ``repro train --fast`` + ``repro package`` build a tiny deployable
   artifact in a scratch workdir (once);
2. ``repro serve`` starts the wire server on an ephemeral endpoint with the
   combination's ``--transport``/``--protocol`` knobs (the bound endpoint
   lands in a port file -- a race-free handshake);
3. the matching client (:class:`repro.serve.TCPClient` or
   :class:`repro.serve.BinaryClient`) opens a session, replays the spec's
   own synthetic test split (which contains seeded anomalies), and asserts
   that at least one alarm comes back over the wire;
4. the ``--metrics-port`` scrape endpoint is polled over plain HTTP and the
   Prometheus page must agree with the wire-level session summary;
5. the client asks the server to shut down and the script asserts a clean
   exit.

Run directly::

    PYTHONPATH=src python scripts/serve_smoke.py [workdir]
"""

import os
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SERVER_STARTUP_TIMEOUT_S = 60.0
SERVER_EXIT_TIMEOUT_S = 30.0


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


def _combinations(workdir: Path):
    """(label, extra serve args, client factory) per smoke leg."""
    from repro.serve import HAS_UNIX_SOCKETS, BinaryClient, TCPClient

    combos = [
        ("tcp/json", [], lambda endpoint: TCPClient(port=int(endpoint))),
        ("tcp/binary", ["--protocol", "binary"],
         lambda endpoint: BinaryClient(port=int(endpoint))),
    ]
    if HAS_UNIX_SOCKETS:
        uds = workdir / "serve.sock"
        combos.append(
            ("uds/binary",
             ["--transport", "uds", "--uds-path", str(uds),
              "--protocol", "binary"],
             lambda endpoint: BinaryClient(uds_path=endpoint)))
    else:
        print("serve-smoke: no AF_UNIX on this platform; skipping uds leg")
    return combos


def _scrape_metrics(metrics_port_file: Path) -> str:
    """Fetch the Prometheus page once the ephemeral port is handshaken."""
    deadline = time.monotonic() + SERVER_STARTUP_TIMEOUT_S
    while not metrics_port_file.is_file():
        if time.monotonic() > deadline:
            raise RuntimeError("metrics port file never appeared")
        time.sleep(0.1)
    port = int(metrics_port_file.read_text().strip())
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics",
                                timeout=10.0) as response:
        return response.read().decode("utf-8")


def _metric_value(page: str, name: str) -> float:
    """The value of an unlabelled series on a Prometheus text page."""
    for line in page.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    raise AssertionError(f"metric {name} missing from scrape page")


def _smoke_one(workdir: Path, label: str, serve_args, make_client,
               stream: np.ndarray) -> None:
    port_file = workdir / f"endpoint-{label.replace('/', '-')}"
    port_file.unlink(missing_ok=True)
    metrics_port_file = workdir / f"metrics-{label.replace('/', '-')}"
    metrics_port_file.unlink(missing_ok=True)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workdir", str(workdir),
         "--port", "0", "--port-file", str(port_file),
         "--metrics-port", "0",
         "--metrics-port-file", str(metrics_port_file),
         "--max-delay-ms", "2", "--max-seconds", "120", *serve_args],
        cwd=REPO, env=_env(),
    )
    try:
        deadline = time.monotonic() + SERVER_STARTUP_TIMEOUT_S
        while not port_file.is_file():
            if server.poll() is not None:
                raise RuntimeError(
                    f"[{label}] server exited early with code "
                    f"{server.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"[{label}] server did not come up in time")
            time.sleep(0.2)
        endpoint = port_file.read_text().strip()
        print(f"serve-smoke: [{label}] server listening on {endpoint}")

        with make_client(endpoint) as client:
            assert client.ping()["ok"]
            opened = client.open("smoke-1")
            assert opened["threshold"] is not None, \
                "packaged artifact should carry a calibrated threshold"
            assert opened["incremental"], \
                "VARADE sessions should engage the incremental scoring lane"
            client.push_stream("smoke-1", stream)
            summary = client.close_stream("smoke-1")
            print(f"serve-smoke: [{label}] pushed {summary['samples_pushed']}, "
                  f"scored {summary['samples_scored']}, "
                  f"{len(client.alarms)} alarms")
            assert summary["samples_pushed"] == stream.shape[0]
            assert summary["samples_scored"] > 0, "nothing was scored"
            assert summary["samples_dropped"] == 0, "windows were dropped"
            assert client.alarms, \
                "expected at least one alarm from the seeded anomalies"
            stats = client.stats()
            assert stats["live_sessions"] == 0
            page = _scrape_metrics(metrics_port_file)
            pushed = _metric_value(page, "repro_service_samples_pushed_total")
            assert pushed == summary["samples_pushed"], \
                f"scrape page says {pushed} pushed, wire says " \
                f"{summary['samples_pushed']}"
            # wire alarm frames race the op acks, so only a floor is exact
            assert _metric_value(page, "repro_service_alarms_total") >= 1
            print(f"serve-smoke: [{label}] metrics scrape reconciles "
                  f"({summary['samples_pushed']} pushed)")
            assert client.shutdown()["ok"]

        code = server.wait(timeout=SERVER_EXIT_TIMEOUT_S)
        assert code == 0, f"[{label}] server exited with {code}"
        print(f"serve-smoke: [{label}] clean shutdown, OK")
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import fast_spec

    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 \
        else Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    print(f"serve-smoke: workdir {workdir}")
    run_cli("train", "--fast", "--workdir", str(workdir))
    run_cli("package", "--workdir", str(workdir))

    spec = fast_spec()
    dataset = spec.data.build(spec.seed)
    stream = np.asarray(dataset.test)[:250]
    for label, serve_args, make_client in _combinations(workdir):
        _smoke_one(workdir, label, serve_args, make_client, stream)
    print("serve-smoke: all transport/protocol combinations OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
