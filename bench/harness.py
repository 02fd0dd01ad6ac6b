"""Running invocations, timing their records, and the statistics rules.

An invocation is either one ``latgauss.cli.main`` call or one generator of
public-function calls. Every record it emits is one operation. CLI records
are timestamped as they are written to a redirected stdout; function records
are timestamped as the generator yields them. An operation's latency is the
time from the previous record of the same invocation (or from the start of
the invocation) to its own record.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Iterable, Iterator

import numpy as np

MIN_TAIL_SAMPLES = 100  # p90 needs at least 10 samples beyond it


class StampedStream(io.TextIOBase):
    """Text sink that records the clock at every newline written to it."""

    def __init__(self, on_line: Callable[[], None] | None = None):
        self.parts: list[str] = []
        self.stamps: list[float] = []
        self.on_line = on_line

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.parts.append(s)
        for _ in range(s.count("\n")):
            self.stamps.append(time.perf_counter())
            if self.on_line:
                self.on_line()
        return len(s)

    def getvalue(self) -> str:
        return "".join(self.parts)


@dataclass
class Invocation:
    """One unit of a workload's input stream.

    ``argv`` runs ``latgauss.cli.main(argv)``; otherwise ``call`` is a
    generator function yielding one JSON-serialisable record per operation.
    ``payload`` keeps what the output checks need beyond the records.
    """

    label: str
    argv: list[str] | None = None
    call: Callable[[], Iterator[dict]] | None = None
    payload: dict = field(default_factory=dict)


@dataclass
class Outcome:
    invocation: Invocation
    text: str
    code: int
    start: float
    end: float
    stamps: list[float]
    error: str = ""

    @property
    def records(self) -> list[dict]:
        return [json.loads(line) for line in self.text.splitlines()]

    @property
    def latencies_s(self) -> list[float]:
        marks = [self.start] + self.stamps
        return [b - a for a, b in zip(marks, marks[1:])]

    @property
    def ops(self) -> int:
        """Records emitted, plus one for the operation that raised or was refused."""
        return len(self.stamps) + (self.code == 1)

    @property
    def failed(self) -> int:
        """Operations that raised, were refused, or returned ``inconclusive``."""
        inconclusive = self.text.count('"verdict": "inconclusive"')
        return inconclusive + (self.code == 1)


def execute(inv: Invocation, on_line: Callable[[], None] | None = None) -> Outcome:
    """Run one invocation; exceptions become a failed outcome, never a crash."""
    from latgauss import cli

    stream = StampedStream(on_line)
    error = ""
    start = time.perf_counter()
    if inv.argv is not None:
        saved = sys.stdout
        sys.stdout = stream
        try:
            code = cli.main(inv.argv)
        except Exception as e:  # a traceback is a failed operation, not a benchmark crash
            code, error = 1, repr(e)
        finally:
            sys.stdout = saved
    else:
        code = 0
        try:
            for record in inv.call():
                stream.write(json.dumps(record, sort_keys=True) + "\n")
        except Exception as e:
            code, error = 1, repr(e)
    return Outcome(inv, stream.getvalue(), code, start, time.perf_counter(), stream.stamps, error)


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# The benchmark shares its host, whose speed moves by up to 1.45x within
# minutes. The probe is fixed work shaped like latgauss's own: a seeded
# normal draw tested against halfspaces in numpy, then an interpreter loop.
# Timed between invocations, its median over a run measures how slow the
# host was during that run, relative to the probe's nominal time.
PROBE_EVERY_S = 0.25
PROBE_NOMINAL_S = 2.6e-3  # median probe time over the defining runs, on a 2-vCPU Intel Xeon VM


class HostProbe:
    """The fixed host-speed probe.

    Its arrays are allocated once, so its time does not depend on the
    allocator state that the previous invocation left behind.
    """

    def __init__(self):
        self.normals = np.random.default_rng(7).standard_normal((8, 4))
        self.points = np.empty((1 << 13, 4))
        self.dots = np.empty((1 << 13, 8))
        self.below = np.empty((1 << 13, 8), dtype=bool)

    def __call__(self) -> int:
        """Run the probe once; returns its result so that nothing is skipped."""
        np.random.default_rng(12345).standard_normal(out=self.points)
        np.matmul(self.points, self.normals.T, out=self.dots)
        np.less_equal(self.dots, 1.0, out=self.below)
        acc = int(np.count_nonzero(self.below.all(axis=1)))
        for i in range(15000):
            acc += i * i % 7
        return acc


def host_slowdown(probe_times: list[float]) -> float:
    """Median probe time over its nominal time: above 1 when the host ran slow."""
    return median(probe_times) / PROBE_NOMINAL_S


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------

def run_for(invocations: Iterable[Invocation], seconds: float,
            on_line: Callable[[], None] | None = None, probe: HostProbe | None = None,
            min_records: int = 0) -> tuple[list[Outcome], float, list[float]]:
    """Execute invocations until ``seconds`` have passed; (outcomes, elapsed, probe times).

    The invocation that crosses the deadline completes and is counted, so
    elapsed covers exactly the completed work. On a host slow enough that
    the invocations so far emitted fewer than ``min_records`` records, the
    run goes on past the deadline until they have. With a ``probe``, it runs
    before the first invocation and then between invocations whenever
    ``PROBE_EVERY_S`` have passed since the last probe; probe time falls
    between invocations, never inside one.
    """
    outcomes: list[Outcome] = []
    probes: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    last_probe = -math.inf
    records = 0
    for inv in invocations:
        if probe is not None and time.perf_counter() - last_probe >= PROBE_EVERY_S:
            last_probe = time.perf_counter()
            probe()
            probes.append(time.perf_counter() - last_probe)
        outcomes.append(execute(inv, on_line))
        records += len(outcomes[-1].stamps)
        if time.perf_counter() >= deadline and records >= min_records:
            break
    return outcomes, time.perf_counter() - start, probes


def leading(outcomes: list[Outcome], rotation: int, seconds: float) -> list[Outcome]:
    """The first invocations, up to one rotation, whose first run took about ``seconds``.

    The first invocation is always included, and so is the one that crosses
    ``seconds``; these are the invocations run again for the determinism check.
    """
    chosen: list[Outcome] = []
    spent = 0.0
    for o in outcomes[:rotation]:
        if chosen and spent >= seconds:
            break
        chosen.append(o)
        spent += o.end - o.start
    return chosen


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float], q: float = 0.9) -> float:
    """Nearest-rank q-quantile; refuses samples too small to have 10 values beyond it."""
    n = len(values)
    if n < MIN_TAIL_SAMPLES:
        raise ValueError(f"p{round(q * 100)} needs at least {MIN_TAIL_SAMPLES} samples, got {n}")
    ordered = sorted(values)
    return ordered[max(math.ceil(q * n) - 1, 0)]


def rotation_rates(outcomes: list[Outcome], rotation: int) -> list[float]:
    """Operations per second of every window of ``rotation`` consecutive invocations.

    Any rotation of consecutive invocations holds one of each shape the
    workload cycles through, so every window measures the same mix. A
    window's time is the sum of its invocations' own times, so the probes
    between invocations are not counted; the median over the windows
    resists the machine's speed changing during a run.
    """
    if len(outcomes) < rotation:
        raise ValueError(f"no complete rotation of {rotation} invocations")
    ops, busy = [0], [0.0]
    for o in outcomes:
        ops.append(ops[-1] + o.ops)
        busy.append(busy[-1] + (o.end - o.start))
    return [(ops[i + rotation] - ops[i]) / (busy[i + rotation] - busy[i])
            for i in range(len(outcomes) - rotation + 1)]


_ELAPSED = re.compile(r'"elapsed": [-+0-9.eE]+')


def comparable(text: str) -> str:
    """Record stream with the wall-clock ``elapsed`` field blanked.

    ``elapsed`` is the one field the CLI excludes from byte-reproducibility.
    """
    return _ELAPSED.sub('"elapsed": 0', text)


# ---------------------------------------------------------------------------
# Set-up time and the run environment
# ---------------------------------------------------------------------------

SETUP_PROGRAM = ("import sys, latgauss; latgauss.theta(); "
                 "sys.stdout.write(latgauss.__file__)")


def measure_setup(root: str, env: dict, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import latgauss and fill the theta cache."""
    times = []
    expected = os.path.join(root, "src", "latgauss")
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROGRAM], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"cold import failed: {proc.stderr.strip()}")
        if not os.path.abspath(proc.stdout).startswith(expected):
            raise RuntimeError(f"cold import resolved latgauss outside the checkout: {proc.stdout}")
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_revision(root: str) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, pinned: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(root),
        "pinned_env": pinned,
    }
