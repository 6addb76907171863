"""Server processes, a raw keep-alive HTTP client, and timed phases.

The untraced runs start the production server exactly as a user does,
``python -m repro serve DB.json --listen 127.0.0.1:0 --workers 1``,
in its own session so the whole process tree can be reaped.  One
client connection drives it as a closed loop: every request's bytes are
built before timing starts, and replies are kept raw and decoded only
after the timed phase.
"""

from __future__ import annotations

import gc
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0

_ANNOUNCE = re.compile(rb"serving on http://[^:]+:(\d+)")


def encode(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


class Connection:
    """One keep-alive HTTP/1.1 connection; ``request`` sends raw bytes."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._sock: Optional[socket.socket] = None
        self._buffer = b""
        self._connect()

    def _connect(self) -> None:
        self.close()
        self._sock = socket.create_connection(
            ("127.0.0.1", self.port), timeout=REQUEST_TIMEOUT
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(self, raw: bytes) -> Tuple[int, bytes]:
        """Send one request; ``(status, body)``, status 0 on a transport
        failure (the connection is then re-opened)."""
        try:
            return self._exchange(raw)
        except (OSError, ValueError):
            self._connect()
            return 0, b""

    def _exchange(self, raw: bytes) -> Tuple[int, bytes]:
        sock = self._sock
        sock.sendall(raw)
        buffer = self._buffer
        end = buffer.find(b"\r\n\r\n")
        while end < 0:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
            end = buffer.find(b"\r\n\r\n")
        head = buffer[:end]
        start = head.find(b"Content-Length:") + 15
        length = int(head[start:head.find(b"\r\n", start)])
        body_end = end + 4 + length
        while len(buffer) < body_end:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        self._buffer = buffer[body_end:]
        return int(head[9:12]), buffer[end + 4:body_end]

    def get(self, path: str) -> Tuple[int, bytes]:
        return self.request(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode()
        )

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def run_ops(connection: Connection, requests: Sequence[bytes],
            seconds: Optional[float] = None
            ) -> Tuple[List[float], List[Tuple[int, bytes]]]:
    """Send ``requests`` in order, one at a time.

    With ``seconds`` the loop stops at the first request that would
    start after the deadline.  Returns per-request latencies (seconds)
    and raw replies.  Nothing but the exchange itself happens between
    two requests; the collector is paused meanwhile.
    """
    latencies: List[float] = []
    replies: List[Tuple[int, bytes]] = []
    clock = time.perf_counter
    request = connection.request
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        deadline = None if seconds is None else clock() + seconds
        for raw in requests:
            start = clock()
            if deadline is not None and start >= deadline:
                break
            reply = request(raw)
            latencies.append(clock() - start)
            replies.append(reply)
    finally:
        if gc_was_enabled:
            gc.enable()
    return latencies, replies


class ServerProcess:
    """``repro serve --listen`` as a child process in its own session."""

    def __init__(self, root: Path, db_path: Path, workers: int = 1) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(db_path),
             "--listen", "127.0.0.1:0", "--workers", str(workers)],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        self.port = self._await_port(timeout=120.0)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        output = b""
        stream = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if ready:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    break
                output += chunk
                match = _ANNOUNCE.search(output)
                if match:
                    return int(match.group(1))
            elif self.process.poll() is not None:
                break
        self.stop()
        raise RuntimeError(
            f"server did not announce its port: {output[-500:]!r}"
        )

    def tree_rss_mb(self) -> float:
        """Resident memory of the server and all its descendants, MB."""
        return sum(_rss_kb(pid) for pid in _descendants(self.process.pid)) / 1024.0

    def stop(self) -> None:
        """SIGTERM to the front (graceful: it drains and closes its
        workers), then SIGKILL whatever is left of the session; always
        waits for the exit."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        # The front's own children (its workers, its resource tracker)
        # are orphaned by its exit and, with ``become_subreaper``, handed
        # to this process: reap every one of them.
        _reap_group(self.process.pid)
        if self.process.stdout is not None:
            self.process.stdout.close()


def become_subreaper() -> None:
    """Make this process the reaper of its orphaned descendants
    (``PR_SET_CHILD_SUBREAPER``), so a server's workers and helpers end
    as this process's children and can be waited for, instead of being
    left as zombies for init to collect after the run."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_children(timeout: float = 30.0) -> None:
    """Stop this process's multiprocessing resource tracker (it would
    otherwise outlive the run by a moment), then wait for every child;
    any still running after ``timeout`` seconds is killed first."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout
    while True:
        children = [pid for pid, _state, ppid, _pgrp in _processes()
                    if ppid == os.getpid()]
        if not children:
            return
        late = time.monotonic() >= deadline
        for pid in children:
            if late:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            _wait(pid, block=late)
        time.sleep(0.01)


def _reap_group(pgrp: int, timeout: float = 10.0) -> None:
    """Wait until no process of group ``pgrp`` is left, zombies
    included, reaping those that are this process's children."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        members = [(pid, ppid) for pid, _state, ppid, group in _processes()
                   if group == pgrp]
        if not members:
            return
        for pid, ppid in members:
            if ppid == os.getpid():
                _wait(pid, block=False)
        time.sleep(0.01)


def _wait(pid: int, block: bool) -> None:
    try:
        os.waitpid(pid, 0 if block else os.WNOHANG)
    except ChildProcessError:
        pass


def _processes() -> List[Tuple[int, bytes, int, int]]:
    """``(pid, state, ppid, pgrp)`` of every process in ``/proc``."""
    table = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised name: state, ppid, pgrp, ...
        state, ppid, pgrp = stat[stat.rfind(b")") + 2:].split()[:3]
        table.append((int(entry), state, int(ppid), int(pgrp)))
    return table


def _descendants(root: int) -> List[int]:
    children = {}
    for pid, _state, ppid, _pgrp in _processes():
        children.setdefault(ppid, []).append(pid)
    tree, frontier = [root], [root]
    while frontier:
        frontier = [child for pid in frontier for child in children.get(pid, [])]
        tree.extend(frontier)
    return tree


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def host_probe_ms() -> float:
    """Time of a fixed CPU-only loop, ms: a host-speed diagnostic that
    is reported beside each run and never used to normalise or gate."""
    start = time.perf_counter()
    total = 0
    for value in range(400_000):
        total += value * value % 7
    return (time.perf_counter() - start) * 1000.0
