"""Worker process lifecycle: spawn, handshake, health, restart.

The supervisor owns the OS processes of a worker fleet.  Each worker is
spawned as ``python -m repro.cluster.worker --config <its WorkerConfig as
JSON> --port-file <path>``, by default on an ephemeral port; the worker
writes its bound endpoint to that per-worker *port file*
atomically (temp file + ``os.replace``) once listening, so the handshake
can never observe a half-written line.  The supervisor polls that file
-- bailing out early if the process dies first -- and hands the endpoint
to the router.

All methods are blocking (subprocess + file polling); the async router
calls them via ``asyncio.to_thread`` so the event loop never stalls on a
spawn.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from .worker import WorkerConfig

__all__ = ["WorkerHandle", "WorkerSupervisor"]

#: how long a freshly spawned worker may take to write its port file
SPAWN_TIMEOUT_S = 60.0


@dataclass
class WorkerHandle:
    """One supervised worker process and its bound endpoint."""

    name: str
    process: subprocess.Popen
    endpoint: str               #: "HOST:PORT" for tcp, socket path for uds
    transport: str              #: "tcp" | "uds"
    restarts: int = 0           #: times this named worker was respawned
    config: Optional[WorkerConfig] = field(default=None, repr=False)

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None


class WorkerSupervisor:
    """Spawn and babysit ``python -m repro.cluster.worker`` processes."""

    def __init__(self, run_dir: Optional[Path] = None,
                 spawn_timeout_s: float = SPAWN_TIMEOUT_S) -> None:
        if run_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            run_dir = Path(self._tempdir.name)
        else:
            self._tempdir = None
            run_dir.mkdir(parents=True, exist_ok=True)
        self.run_dir = run_dir
        self.spawn_timeout_s = spawn_timeout_s
        self.workers: Dict[str, WorkerHandle] = {}

    # -- spawning ------------------------------------------------------------ #
    def _command(self, config: WorkerConfig, port_file: Path) -> List[str]:
        if config.transport == "uds" and config.uds_path is None:
            config = replace(config,
                             uds_path=self.run_dir / f"{config.name}.sock")
        return [sys.executable, "-m", "repro.cluster.worker",
                "--config", config.to_json(), "--port-file", str(port_file)]

    def spawn(self, config: WorkerConfig) -> WorkerHandle:
        """Start one worker and block until its endpoint handshake lands."""
        if config.name in self.workers and self.workers[config.name].alive():
            raise ValueError(f"worker {config.name!r} is already running")
        port_file = self.run_dir / f"{config.name}.port"
        port_file.unlink(missing_ok=True)
        environment = dict(os.environ)
        src_root = str(Path(__file__).resolve().parent.parent.parent)
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = src_root if not existing \
            else os.pathsep.join([src_root, existing])
        process = subprocess.Popen(
            self._command(config, port_file), env=environment,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            endpoint = self._await_port_file(process, port_file, config.name)
        except Exception:
            process.kill()
            process.wait()
            raise
        restarts = 0
        previous = self.workers.get(config.name)
        if previous is not None:
            restarts = previous.restarts + 1
        handle = WorkerHandle(name=config.name, process=process,
                              endpoint=endpoint, transport=config.transport,
                              restarts=restarts, config=config)
        self.workers[config.name] = handle
        return handle

    def _await_port_file(self, process: subprocess.Popen,
                         port_file: Path, name: str) -> str:
        deadline = time.monotonic() + self.spawn_timeout_s
        while time.monotonic() < deadline:
            if process.poll() is not None:
                output = process.stdout.read() if process.stdout else ""
                raise RuntimeError(
                    f"worker {name!r} exited with code "
                    f"{process.returncode} before binding:\n{output}")
            if port_file.exists():
                text = port_file.read_text(encoding="utf-8").strip()
                if text:
                    return text
            time.sleep(0.02)
        raise RuntimeError(
            f"worker {name!r} did not write {port_file} within "
            f"{self.spawn_timeout_s}s")

    # -- lifecycle ----------------------------------------------------------- #
    def respawn(self, name: str) -> WorkerHandle:
        """Restart a (crashed) worker under its original config."""
        handle = self.workers.get(name)
        if handle is None or handle.config is None:
            raise ValueError(f"no spawn record for worker {name!r}")
        if handle.alive():
            raise ValueError(f"worker {name!r} is still alive")
        # surface the dead worker's last words (its stderr is piped here)
        # before the pipe is dropped -- the only post-mortem there is
        if handle.process.stdout is not None:
            output = handle.process.stdout.read()
            handle.process.stdout.close()
            if output.strip():
                print(f"worker {name!r} died (exit "
                      f"{handle.process.returncode}); last output:\n"
                      f"{output.rstrip()}", file=sys.stderr, flush=True)
        return self.spawn(handle.config)

    def alive(self, name: str) -> bool:
        handle = self.workers.get(name)
        return handle is not None and handle.alive()

    def stop(self, name: str, timeout_s: float = 10.0) -> None:
        """Terminate one worker (SIGTERM, then SIGKILL) and forget it."""
        handle = self.workers.pop(name, None)
        if handle is None:
            return
        if handle.alive():
            handle.process.terminate()
            try:
                handle.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait()
        if handle.process.stdout is not None:
            handle.process.stdout.close()

    def stop_all(self, timeout_s: float = 10.0) -> None:
        for name in list(self.workers):
            self.stop(name, timeout_s=timeout_s)
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop_all()
