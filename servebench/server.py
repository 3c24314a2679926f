"""One ``repro.serve`` process: start it, post to it, read its /proc, stop it.

The server runs in its own process (and session, so its process-pool
workers can be found and reaped) so the load generator never competes with
it for the interpreter lock.
"""

from __future__ import annotations

import http.client
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 120.0
_TICKS = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server failed to start, answer or stop."""


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # Fields after the parenthesised command name: state, ppid, ...
    return text[text.rindex(")") + 2:].split()


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (pool workers, their children)."""
    parents: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None:
                parents.setdefault(int(fields[1]), []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def cpu_seconds(pids: list[int]) -> float:
    """User plus system CPU time of the given live processes."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICKS


class Server:
    """A started ``repro.serve`` process (plain, or the traced launcher)."""

    def __init__(self, root: Path, log_path: Path, args: list[str],
                 trace_dir: Path | None = None) -> None:
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.serve"]
        else:
            command = [sys.executable,
                       str(Path(__file__).resolve().parent
                           / "traced_server.py"), str(trace_dir)]
        command += ["--port", "0", *args]
        self.log_path = log_path
        self.started = time.monotonic()
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.PIPE,
                stderr=log, start_new_session=True)
        self.host, self.port = self._announced_address()

    def _announced_address(self) -> tuple[str, int]:
        stdout = self.process.stdout
        assert stdout is not None
        deadline = self.started + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [],
                                        deadline - time.monotonic())
            if not ready:
                break
            line = stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith("serving on http://"):
                host, port = line.split("//", 1)[1].strip().rsplit(":", 1)
                return host, int(port)
        self.stop()
        raise ServerError(f"server did not start; log:\n{self.log_tail()}")

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        """One closed-loop request: send, wait for the whole reply."""
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("POST", path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def processes(self) -> list[int]:
        return [self.process.pid, *descendants(self.process.pid)]

    def cpu_seconds(self) -> float:
        """CPU time of the server and its pool workers so far."""
        return cpu_seconds(self.processes())

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set (``VmHWM``)."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (clean shutdown: pools joined, traces written), then reap."""
        if self.process.poll() is None:
            workers = descendants(self.process.pid)
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._kill_group()
                self.process.wait(timeout=STOP_TIMEOUT_S)
            # Pool workers exit once the server joins its pools; after the
            # deadline they are killed, and still waited for.
            deadline = time.monotonic() + STOP_TIMEOUT_S
            killed = False
            while any(_alive(pid) for pid in workers):
                if time.monotonic() > deadline:
                    if killed:
                        raise ServerError(f"workers {workers} outlived kill")
                    self._kill_group()
                    killed = True
                    deadline = time.monotonic() + 5.0
                time.sleep(0.05)
        if self.process.stdout is not None:
            self.process.stdout.close()

    def _kill_group(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"
