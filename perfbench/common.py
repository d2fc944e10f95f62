"""Pieces shared by the workloads: timed operations, checks, child processes."""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

CHILD_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One attempted operation: its name, wall time, output or error."""

    name: str
    seconds: float
    output: Any = None
    error: str | None = None
    args: tuple = ()


def timed(name: str, fn: Callable, *args) -> Op:
    """Run fn(*args) once; an exception marks the operation failed."""
    start = time.perf_counter()
    try:
        output = fn(*args)
    except Exception as exc:  # any raise is a failed operation, reported by name
        error = f"{type(exc).__name__}: {exc}"
        return Op(name, time.perf_counter() - start, None, error, args)
    return Op(name, time.perf_counter() - start, output, None, args)


class Checks:
    """Collects the descriptions of failed checks."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def rel(self, got: float, want: float, tol: float, label: str) -> None:
        err = abs(got - want) / abs(want) if want else abs(got)
        self.expect(
            math.isfinite(got) and err <= tol,
            f"{label}: got {got!r}, want {want!r} (relative error {err:.3e} > {tol:.1e})",
        )

    def within(self, got: float, want: float, tol: float, label: str) -> None:
        err = abs(got - want)
        self.expect(
            math.isfinite(got) and err <= tol,
            f"{label}: got {got!r}, want {want!r} (error {err:.3e} > {tol:.1e})",
        )


class InProcess:
    """Base of the workloads that call caslab's functions in this process."""

    def trace_begin(self, tracer) -> None:
        tracer.install()

    def trace_end(self, tracer) -> None:
        tracer.uninstall()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cold_times(self) -> dict[str, float]:
        return {}

    def notes(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


def child_env() -> dict[str, str]:
    """Environment for caslab child processes: the checkout's src first."""
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run a Python child to its end; returns (exit code, wall s, peak RSS MB).

    os.wait4 gives the resource usage of this one child, so the peak memory
    of each command is measured apart from every other process.  A child
    still running after CHILD_TIMEOUT_S is killed and reported as failed.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=log, stderr=subprocess.STDOUT, env=child_env()
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0
