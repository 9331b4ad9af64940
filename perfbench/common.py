"""Shared plumbing: paths, statistics, spans, child processes, results."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything the benchmark writes (saved databases, span files) lives here
WORK = ROOT / ".perfbench"

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 5
#: top-n of every query, as in the paper's experiments
TOP_N = 10


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` (the
    program) and root (this package) on the path, nothing else added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def compile_program() -> None:
    """Byte-compile the program once, untimed, so that the first timed
    fresh interpreter of a new checkout pays no compilation."""
    subprocess.run(python_cmd("-m", "compileall", "-q", str(SRC / "repro")),
                   env=child_env(), stdout=subprocess.DEVNULL, check=True,
                   timeout=120)


@dataclass
class ChildRun:
    wall_s: float
    returncode: int
    stdout: str
    maxrss_mb: float


def run_child(cmd: list[str], timeout: float = 120.0) -> ChildRun:
    """Run one child process to its end; wall time from spawn to exit
    and the child's own peak RSS (from its rusage, not the machine's)."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, proc.returncode, out, usage.ru_maxrss / 1024.0)


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, pcts=(99.9, 99.0, 90.0, 75.0)) -> tuple[str, float] | None:
    """The highest percentile of ``pcts`` with at least ten samples
    beyond it, as ``(label, value)``; ``None`` under forty samples (a
    median alone, then: that percentile would be no tail) or when no
    percentile of ``pcts`` has ten samples beyond it."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    for pct in pcts:
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            return f"p{pct:g}", float(ordered[rank])
    return None


def describe_pct(name: str, ms: list[float], pct: float) -> str:
    """``name=<value>`` of one fixed percentile, ``n/a`` where the
    ten-samples-beyond rule does not allow it."""
    got = tail(ms, (pct,))
    return f"{name}={got[1]:.3f}" if got is not None else f"{name}=n/a"


def describe_ms(name: str, seconds: list[float]) -> str:
    """``name=<median ms> (n=.., <tail>=..)`` for a report line."""
    if not seconds:
        return f"{name}=n/a (n=0)"
    ms = [s * 1000.0 for s in seconds]
    text = f"{name}={median(ms):.3f}ms (n={len(ms)}"
    extra = tail(ms)
    if extra is not None:
        text += f", {extra[0]}={extra[1]:.3f}ms"
    return text + ")"


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one of the benchmark's own processes."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- spans ----------------------------------------------------------------------


class Spans:
    """In-memory span recorder for the traced mode.

    Each span holds a name, start, end, parent span and request id; the
    benchmark opens them around its own calls into the program's layers
    (spans inside the program are not recorded).  A disabled recorder
    records nothing and costs one attribute test per span.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request=None):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next
            self._next += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records.append({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "request": request})

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def median_ms(self, name: str) -> tuple[float, str]:
        """Median duration of the spans called ``name``, as a metric."""
        return median(self.durations(name)) * 1000.0, "ms"

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part of it
        covered by child spans (children of one span never overlap: they
        run on the parent's thread, one after another)."""
        covered: dict[int, float] = {}
        for r in self.records:
            if r["parent"] is not None:
                covered[r["parent"]] = covered.get(r["parent"], 0.0) + r["end"] - r["start"]
        out: dict[str, float] = {}
        for r in self.records:
            own = r["end"] - r["start"] - covered.get(r["id"], 0.0)
            out[r["name"]] = out.get(r["name"], 0.0) + own
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((r["start"] for r in self.records), default=0.0)
        with open(path, "w") as fh:
            for r in sorted(self.records, key=lambda r: r["start"]):
                fh.write(json.dumps({**r, "start": r["start"] - origin,
                                     "end": r["end"] - origin}) + "\n")


#: the recorder used when tracing is off
NO_SPANS = Spans(enabled=False)


def overhead_line(name: str, count: int, batch, spans: Spans) -> str:
    """Run ``batch(recorder)`` (a fixed set of ``count`` operations) with
    the recorder off, then on; report traced minus untraced wall time."""
    walls = {}
    for label, recorder in (("untraced", NO_SPANS), ("traced", spans)):
        started = time.perf_counter()
        batch(recorder)
        walls[label] = time.perf_counter() - started
    delta = walls["traced"] - walls["untraced"]
    return (f"tracing overhead ({name}, {count} operations): traced "
            f"{walls['traced']:.4f}s - untraced {walls['untraced']:.4f}s = {delta:+.4f}s")


# -- results ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run hands back to the runner."""

    attempted: int = 0
    #: operations that raised, were refused, or missed a check
    failed: int = 0
    #: answers or run-level properties that missed a check; any makes
    #: the run incorrect
    wrong: int = 0
    #: name -> (value, unit), the end-to-end metrics of BENCHMARK.json
    metrics: dict = field(default_factory=dict)
    #: human-readable lines printed before the result line
    report: list = field(default_factory=list)
    #: what failed, first few
    notes: list = field(default_factory=list)

    def fail(self, text: str) -> None:
        """An operation that raised or was refused."""
        self.failed += 1
        self._note(text)

    def miss(self, text: str) -> None:
        """An operation whose answer missed its check."""
        self.failed += 1
        self.wrong += 1
        self._note(text)

    def violate(self, text: str) -> None:
        """A run-level property that does not hold."""
        self.wrong += 1
        self._note(text)

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
