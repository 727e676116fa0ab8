"""Shared helpers of the benchmark: statistics, child processes, host block.

Everything here is stdlib only, so the benchmark's own process (the load
generator included) never imports numpy or the package under test.
"""

from __future__ import annotations

import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: the checkout root (the benchmark runs from it and touches nothing else).
ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
#: scratch space for files handed between the benchmark and its children.
WORK = ROOT / ".perfbench_work"

FAILED = math.inf  # a failed operation's latency: above every percentile


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100).

    Failures enter as :data:`FAILED` (+inf), so they sort above every
    finite sample and can only raise a percentile, never hide in it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile — the tail support the guide asks to be at least ten."""
    return n - max(1, math.ceil(q / 100.0 * n))


def median(values: list[float]) -> float:
    return statistics.median(values)


def host_block() -> dict:
    """Where a number was measured: cores, interpreter, numpy, platform."""
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, timeout=60, env=child_env(),
    ).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def child_env() -> dict[str, str]:
    """Environment of every child: the source tree on the path, and no
    on-disk result cache or scalar-engine switch left over from the
    caller's shell."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_SCALAR_ANALYTIC", None)
    return env


class Child:
    """One child process whose own peak RSS is read back at exit.

    ``os.wait4`` returns the rusage of exactly this child (and the
    grandchildren it waited for), which ``subprocess`` does not expose.
    """

    def __init__(self, argv: list[str], *, stdout=subprocess.DEVNULL,
                 stderr=subprocess.DEVNULL) -> None:
        self.spawn_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr)
        self.peak_rss_mb: float | None = None
        self.exit_ns: int | None = None

    def reap(self, timeout: float) -> int:
        """Wait for exit (killing past ``timeout``) and record peak RSS."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.002)
        self.exit_ns = time.monotonic_ns()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode

    def interrupt(self, timeout: float) -> int:
        """SIGINT (a clean shutdown for ``serve``), then reap."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
        return self.reap(timeout)


def run_child(argv: list[str], timeout: float) -> tuple[int, str, Child]:
    """Run a child to completion; returns ``(exit code, stdout, child)``.

    Output goes to files rather than pipes, so ``os.wait4`` can reap the
    child without reader threads.  A failing child's last stderr line is
    echoed to this process's stderr.
    """
    WORK.mkdir(exist_ok=True)
    out_path = WORK / f"child-{os.getpid()}.out"
    err_path = WORK / f"child-{os.getpid()}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        child = Child(argv, stdout=out, stderr=err)
        code = child.reap(timeout)
    text = out_path.read_text()
    errors = err_path.read_text().strip().splitlines()
    out_path.unlink()
    err_path.unlink()
    if code != 0 and errors:
        print(f"{argv[1:]}: {errors[-1]}", file=sys.stderr)
    return code, text, child


def child_script(*args: str) -> list[str]:
    """argv of ``perfbench/child.py`` with the given arguments."""
    return [sys.executable, str(HERE / "child.py"), *args]


def last_json(text: str) -> dict:
    """The JSON object on the last non-empty line of a child's stdout."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("child printed nothing")
    return json.loads(lines[-1])


def import_times_ms(repeats: int = 3) -> dict[str, float]:
    """``python -X importtime`` of the CLI module, median of ``repeats``.

    ``repro`` is the summed cumulative time of the top-level ``repro*``
    entries (the whole CLI import, numpy and networkx included);
    ``numpy``/``networkx`` are their own cumulative lines, 0 when the CLI
    no longer imports them.
    """
    runs: dict[str, list[float]] = {"repro": [], "numpy": [], "networkx": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import repro.harness.cli"],
            capture_output=True, text=True, timeout=120, env=child_env(),
            cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError("importing repro.harness.cli failed")
        found = {"repro": 0.0, "numpy": 0.0, "networkx": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            try:
                cumulative_us = float(parts[1])
            except ValueError:  # the header line
                continue
            name = parts[2]
            stripped = name.strip()
            top_level = len(name) - len(name.lstrip()) <= 1
            if top_level and stripped.split(".")[0] == "repro":
                found["repro"] += cumulative_us / 1e3
            elif stripped in ("numpy", "networkx") and not found[stripped]:
                found[stripped] = cumulative_us / 1e3
        for key, value in found.items():
            runs[key].append(value)
    return {key: median(values) for key, values in runs.items()}
