"""Process, statistics, span and provenance helpers for the pdcbell benchmark.

Only the standard library is imported here, so the orchestrating process can
check the checkout before anything from ``src/`` is loaded.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for CLI inputs, event logs, child output and traces.
WORK = BENCH_DIR / ".work"

WORKLOADS = ("theory", "lhv-sweep", "counting-csv", "counting-lossy")

#: No single child process may outlive this; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 150.0

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def checkout_has_sources() -> bool:
    return (SRC / "pdcbell" / "__init__.py").is_file() and (SRC / "pdcbell" / "cli.py").is_file()


def use_checkout_sources() -> None:
    """Import ``pdcbell`` from this checkout's ``src/`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], timeout_s: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run ``argv`` from the checkout root; wall time and peak RSS come from wait4.

    Output goes to files rather than pipes so the blocking wait4 cannot
    deadlock on a full pipe.  A child still running after ``timeout_s`` is
    killed and reported with its negative signal number as exit code.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "child.out", "w+b") as out, open(WORK / "child.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            proc.returncode,
            wall,
            usage.ru_maxrss / 1024.0,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
        )


def pdcbell_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "pdcbell", *args]


# -- statistics -----------------------------------------------------------------

#: Median time of ``calibration_kernel`` on a quiet reference machine (2-core
#: Intel Xeon sandbox, Python 3.11, numpy 2.4).  Frozen: it only sets the scale
#: of the speed-normalised end-to-end times.
CAL_REFERENCE_S = 0.0125
#: Calibration samples nearest in time to an operation that set its speed factor.
CAL_NEIGHBOURS = 4

#: CPUs this process may use before ``pin_to_one_cpu``.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


def pin_to_one_cpu() -> int:
    """Run this process and every child it starts on one CPU.

    The calibration kernel then measures the speed of the CPU the work runs
    on; on a shared machine the CPUs slow down independently of each other.
    """
    cpu = ALLOWED_CPUS[0]
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibration_kernel() -> None:
    """A fixed mix of interpreter and numpy work that does not involve pdcbell."""
    import numpy as np

    total = 0
    for i in range(150_000):
        total += i * i
    np.sort(np.random.default_rng(0).random(200_000))


class Calibration:
    """Kernel timings interleaved with a run's operations.

    On a shared machine the speed of a CPU drifts by tens of percent within
    minutes, and every operation slows with it.  Dividing an operation's time
    by the speed factor of the kernel runs around it (their median time over
    CAL_REFERENCE_S) removes most of that drift from the end-to-end metrics.
    """

    def __init__(self, samples: list | None = None) -> None:
        self.samples: list[tuple[float, float]] = [tuple(s) for s in samples or ()]

    def measure(self, repeats: int = 2) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            calibration_kernel()
            self.samples.append((start, time.perf_counter() - start))

    def factor_at(self, when: float) -> float:
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - when))[:CAL_NEIGHBOURS]
        return statistics.median(d for _, d in nearest) / CAL_REFERENCE_S

    @property
    def factor(self) -> float:
        return statistics.median(d for _, d in self.samples) / CAL_REFERENCE_S

    def normalise(self, parts: list) -> float:
        """Speed-normalised duration of an operation made of (start, seconds) parts."""
        return sum(d / self.factor_at(t + d / 2) for t, d in parts)


def summary(samples: list[float], unit: str, higher_is_better: bool = False) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    That percentile is the 11th-worst sample.  Below 100 samples it would lie
    under p90 and move with the sample count, so p90 (nearest rank, fewer than
    ten samples beyond it) is reported instead.
    """
    ordered = sorted(samples, reverse=higher_is_better)
    n = len(ordered)
    if n >= 100:
        tail, pct = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = ordered[math.ceil(0.9 * n) - 1], 90.0
    return {
        "value": statistics.median(ordered),
        "unit": unit,
        "n": n,
        "tail": tail,
        "tail_pct": round(pct, 2),
    }


def should_continue(started: float, seconds: float, cycle_times: list[float]) -> bool:
    """Closed loop: start another cycle only if a typical one still fits."""
    if not cycle_times:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(cycle_times) <= seconds


# -- spans ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder, written out as JSON lines when the run ends.

    A span is ``[name, parent index, start, end, pass number, attrs]``.
    ``patch`` replaces a callable where its calling module looks it up, so
    the program's own code is never edited; ``restore`` puts the originals
    back.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.pass_no = 0
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, self.pass_no, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; yields a dict for its attributes."""
        rec = self._open(name)
        rec[5] = {}
        try:
            yield rec[5]
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if annotate is not None:
                rec[5] = annotate(result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls the harness makes for its own checks are not program work."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def patch(self, owner, attr: str, name: str, annotate=None) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, annotate))
        else:
            replacement = self.wrap(original, name, annotate)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for index, rec in enumerate(self.spans):
            if rec[1] >= 0:
                kids[rec[1]].append(index)
        return kids

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over every span."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                covered[rec[1]] += rec[3] - rec[2]
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for rec, child_time in zip(self.spans, covered):
            entry = totals[rec[0]]
            entry[0] += 1
            entry[1] += rec[3] - rec[2]
            entry[2] += rec[3] - rec[2] - child_time
        return {name: tuple(v) for name, v in totals.items()}

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as handle:
            for index, (name, parent, start, end, pass_no, attrs) in enumerate(self.spans):
                line = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": None if parent < 0 else parent,
                    "run": f"{self.run_id}/pass{pass_no}",
                }
                if attrs:
                    line["attrs"] = attrs
                handle.write(json.dumps(line) + "\n")


class NoTracer:
    """Tracing off: spans cost one context manager and record nothing."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield {}

    def paused(self):
        return contextlib.nullcontext()


# -- provenance -----------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pdcbell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: str, seed: int, inputs: dict) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(ALLOWED_CPUS),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
    }
