"""Server subprocesses and the ``/proc`` reads that meter them from outside."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
STARTUP_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 20.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------------- #
# /proc parsers (pure functions of the file text, so tests can feed fixtures)
# --------------------------------------------------------------------------- #
def parse_stat_cpu_ticks(stat_text: str) -> int:
    """``utime + stime`` clock ticks from one ``/proc/<pid>/stat`` line.

    The second field is the command name in parentheses and may itself
    contain spaces or parentheses, so fields are counted from the *last*
    closing parenthesis.
    """
    fields = stat_text[stat_text.rindex(")") + 1:].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(fields[11]) + int(fields[12])


def parse_stat_ppid(stat_text: str) -> int:
    return int(stat_text[stat_text.rindex(")") + 1:].split()[1])


def parse_status_kb(status_text: str, key: str) -> int:
    """A ``kB`` line (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise KeyError(f"{key} missing from /proc status text")


def cpu_seconds(pids: Sequence[int]) -> float:
    """User + system CPU seconds consumed so far, summed over ``pids``."""
    ticks = 0
    for pid in pids:
        ticks += parse_stat_cpu_ticks(Path(f"/proc/{pid}/stat").read_text())
    return ticks / _CLOCK_TICKS


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Largest resident-set high-water mark among ``pids``, in MB."""
    return max(parse_status_kb(Path(f"/proc/{pid}/status").read_text(),
                               "VmHWM") for pid in pids) / 1024.0


def child_pids(parent: int) -> List[int]:
    """Live direct children of ``parent`` (a cluster's worker processes)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat_text = Path(f"/proc/{entry}/stat").read_text()
        except OSError:       # exited between listdir and read
            continue
        if parse_stat_ppid(stat_text) == parent:
            children.append(int(entry))
    return sorted(children)


def _kill_orphan(pid: int, timeout_s: float = 5.0) -> None:
    """SIGKILL ``pid`` if it is still running and wait until it is gone."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout_s
    while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
        time.sleep(0.01)


def child_env(run_dir: Path) -> Dict[str, str]:
    """Environment of every subprocess: the checkout's ``src`` on the path and
    temp files (the cluster supervisor's port files) inside the checkout."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing \
        else str(SRC) + os.pathsep + existing
    env["TMPDIR"] = str(run_dir)
    return env


# --------------------------------------------------------------------------- #
# `python -m repro serve` as a context manager
# --------------------------------------------------------------------------- #
class Server:
    """One ``python -m repro serve`` subprocess with a port-file handshake.

    ``flags`` are passed through verbatim (``--no-incremental``,
    ``--workers 2``, ``--observability``); everything else is the CLI's
    defaults, which is the point: the benchmark measures what a user gets.
    """

    def __init__(self, workdir: Path, run_dir: Path,
                 flags: Sequence[str] = ()) -> None:
        self.workdir = workdir
        self.run_dir = run_dir
        self.flags = list(flags)
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._log = None
        self.log_path: Optional[Path] = None

    def start(self) -> "Server":
        self.run_dir.mkdir(parents=True, exist_ok=True)
        stamp = f"{os.getpid()}-{time.monotonic_ns()}"
        port_file = self.run_dir / f"port-{stamp}"
        self.log_path = self.run_dir / f"serve-{stamp}.log"
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workdir", str(self.workdir), "--port", "0",
             "--port-file", str(port_file), *self.flags],
            cwd=self.run_dir, env=child_env(self.run_dir),
            stdin=subprocess.DEVNULL, stdout=self._log,
            stderr=subprocess.STDOUT)
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        try:
            while not port_file.is_file():
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"server exited with code {self.process.returncode} "
                        f"before listening:\n{self._log_tail()}")
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"server did not listen within {STARTUP_TIMEOUT_S}s:\n"
                        f"{self._log_tail()}")
                time.sleep(0.005)
            self.port = int(port_file.read_text().strip())
        except BaseException:
            self.stop()
            raise
        return self

    def _log_tail(self) -> str:
        self._log.flush()
        return self.log_path.read_text(errors="replace")[-2000:]

    def pids(self) -> List[int]:
        """The server process and, for a cluster, its worker processes."""
        return [self.process.pid] + child_pids(self.process.pid)

    def stop(self) -> None:
        """Ask for a clean shutdown over the wire, escalate if ignored, and
        always wait: no process outlives the benchmark."""
        process = self.process
        if process is None:
            return
        running = process.poll() is None
        # A router killed by signal never runs its own worker clean-up.
        workers = child_pids(process.pid) if running else []
        if running and self.port is not None:
            from repro.serve import BinaryClient

            try:
                with BinaryClient(port=self.port, timeout_s=5.0) as client:
                    client.shutdown()
            except (OSError, RuntimeError):
                pass
        try:
            process.wait(timeout=EXIT_TIMEOUT_S if self.port else 0.1)
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for pid in workers:
            _kill_orphan(pid)
        self.process = None
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
