"""The system under test, as separate processes, and the oracle that
checks its answers.

* :class:`ServerProcess` — ``python -m repro serve --snapshot ...`` (or,
  traced, the same CLI under :mod:`perfbench.server_entry`), its port,
  its peak RSS and its SIGINT stop.
* :class:`Oracle` — an in-process ``RecommendationService`` fitted on the
  same generated snapshot, built before any timing starts.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

from perfbench.client import Connection, encode_request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # One hash layout for every run: set and dict iteration orders in the
    # server no longer differ from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(
        self,
        snapshot: str,
        parameters: Sequence[str],
        work_dir: str,
        spans_path: Optional[str] = None,
    ):
        cli = [
            "serve", "--snapshot", snapshot,
            "--parameters", ",".join(parameters),
            "--port", "0",
            "--flight-dir", os.path.join(work_dir, "flight"),
        ]
        if spans_path is None:
            self.argv = [sys.executable, "-m", "repro", *cli]
        else:
            entry = os.path.join(ROOT, "perfbench", "server_entry.py")
            self.argv = [sys.executable, entry, spans_path, *cli]
        self.work_dir = work_dir
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._stderr = None

    def start(self, timeout_s: float = 120.0) -> int:
        """Spawn and wait for the ``serving on host:port`` line."""
        self._stderr = open(os.path.join(self.work_dir, "server.stderr"), "ab")
        self.process = subprocess.Popen(
            self.argv,
            cwd=self.work_dir,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        found: List[int] = []

        def scan() -> None:
            for line in self.process.stdout:
                if not found and line.startswith("serving on "):
                    found.append(int(line.split()[2].rsplit(":", 1)[1]))

        threading.Thread(target=scan, daemon=True).start()
        deadline = time.monotonic() + timeout_s
        while not found:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before "
                    f"serving (see {self.work_dir}/server.stderr)"
                )
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not start in time")
            time.sleep(0.005)
        self.port = found[0]
        return self.port

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def stop(self, timeout_s: float = 60.0) -> None:
        """SIGINT (the CLI's Ctrl-C path: exit flush, then the default
        action), then wait; kill on timeout."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=timeout_s)
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None


class Oracle:
    """Expected answers from a service fitted in this process."""

    def __init__(self, dataset, parameters: Sequence[str]):
        from repro.config.rulebook import RuleBook
        from repro.core.auric import AuricEngine
        from repro.serve import RecommendationService

        self.parameters = tuple(parameters)
        engine = AuricEngine(dataset.network, dataset.store).fit(list(parameters))
        self.service = RecommendationService(engine, RuleBook(dataset.store.catalog))

    def values(self, payload: Dict) -> Dict:
        """The ``values`` object the server must answer ``payload`` with."""
        from repro.serve.validation import unified_request_from_dict

        request = unified_request_from_dict(payload, "request", self.parameters)
        result = self.service.handle(request)
        values = {
            name: rec.value
            for name, rec in sorted(result.recommendation.recommendations.items())
        }
        return json.loads(json.dumps(values, default=str))


def first_correct_answer(
    port: int, raw: bytes, expected: Dict, timeout_s: float = 30.0
) -> None:
    """Block until the server answers ``raw`` with ``expected`` values."""
    connection = Connection("127.0.0.1", port, timeout_s)
    try:
        response = connection.request(raw)
    finally:
        connection.close()
    if response.status != 200:
        raise RuntimeError(f"first request answered {response.status}")
    if json.loads(response.body)["values"] != expected:
        raise RuntimeError("first answer differs from the oracle")


def recommend_request(payload: Dict) -> bytes:
    return encode_request(
        "POST", "/recommend",
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(),
    )
