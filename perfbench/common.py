"""Shared pieces of the benchmark: seeds, inputs, spans, stats, checks.

Nothing here imports ``repro`` at module load, so ``run.py`` can report
a missing source tree before touching the program.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: environment variables that switch program code paths; the benchmark
#: clears them for itself and every program process it starts
PINNED_ENV = ("REPRO_PACKED", "REPRO_INTERPRETED")

#: ground-truth exploration budget: bounded so the (untimed) soundness
#: check costs ~0.1 s per client; the truth is then a lower bound
TRUTH_PATHS = 400
TRUTH_STEPS = 200

#: the edit kinds a near-hit may use: both keep the variable universe,
#: so the incremental path applies (deletes can drop an allocation)
NEAR_EDIT_KINDS = ("swap", "toggle")


def pin_environment() -> Dict[str, Optional[str]]:
    """Clear the code-path switches; return what was set before."""
    recorded = {name: os.environ.get(name) for name in PINNED_ENV}
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    return recorded


def host_meta(recorded_env: Dict[str, Optional[str]]) -> Dict[str, object]:
    from repro.api import packed_enabled

    return {
        "host_cpus": os.cpu_count(),
        "python_version": platform.python_version(),
        "packed": packed_enabled(),
        "env_cleared": {k: v for k, v in recorded_env.items() if v is not None},
    }


def work_root() -> str:
    """Scratch space inside the checkout (the benchmark writes nowhere
    else); created on demand, removed by ``run.py`` at exit."""
    root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        ".perfbench_work",
    )
    os.makedirs(root, exist_ok=True)
    return root


def sub_seed(seed: int, *labels: object) -> int:
    """A stable 32-bit seed derived from the run seed and labels."""
    digest = hashlib.sha256(repr((seed,) + labels).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def distinct_sources(
    make: Callable[[int], str], count: int, taken: set
) -> List[str]:
    """``count`` sources from ``make(0), make(1), ...`` whose text is new.

    A repeated source would be a memo replay, not a certification, so
    duplicates (and anything already in ``taken``) are skipped; ``taken``
    is updated in place.
    """
    out: List[str] = []
    index = 0
    while len(out) < count:
        if index > 50 * count + 100:
            raise RuntimeError("generator produced too few distinct sources")
        source = make(index)
        index += 1
        if source not in taken:
            taken.add(source)
            out.append(source)
    return out


def fixed_order(items: List[str]) -> List[str]:
    """The items shuffled in one order that no run seed changes.

    The order is part of the work: the program's memos and collector
    see the clients in it, so a seeded order made per-op costs, and a
    run's means, differ between seeds."""
    ordered = list(items)
    random.Random(sub_seed(0, "order")).shuffle(ordered)
    return ordered


def near_edit(source: str, seed: int, spec, taken: set) -> str:
    """A deterministic one-edit variant of ``source`` (swap or toggle),
    parse-clean and distinct from every source in ``taken``."""
    from repro.fuzz.edits import apply_edit
    from repro.lang.types import parse_program

    rng = random.Random(seed)
    for _attempt in range(200):
        edited, edit = apply_edit(source, rng)
        if edit.kind not in NEAR_EDIT_KINDS or edited in taken:
            continue
        try:
            parse_program(edited, spec)
        except Exception:  # the edit broke the client; try the next one
            continue
        taken.add(edited)
        return edited
    raise RuntimeError("no usable near edit for a client")


def missed_errors(source: str, spec, alarm_sites: set) -> List[int]:
    """Ground-truth failing sites (bounded exploration) not alarmed."""
    from repro.lang.types import parse_program
    from repro.runtime.interp import ExplorationBudget, explore

    program = parse_program(source, spec)
    truth = explore(
        program,
        ExplorationBudget(max_paths=TRUTH_PATHS, max_steps_per_path=TRUTH_STEPS),
    )
    return sorted(truth.failing_sites() - set(alarm_sites))


# -- measurement helpers -------------------------------------------------------


def scaled(values: Sequence[float], factors: Sequence[float]) -> List[float]:
    """Each measured value times its op's host-speed factor."""
    return [value * factor for value, factor in zip(values, factors)]


def between(factors: Sequence[float]) -> List[float]:
    """The factor of each span between two consecutive samples: the mean
    of the samples before and after it."""
    return [(a + b) / 2.0 for a, b in zip(factors, factors[1:])]


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def ru_maxrss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def proc_status_mb(pid: int, field: str) -> float:
    """A ``VmHWM``/``VmRSS`` line of ``/proc/<pid>/status`` in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


#: the reference loop's seconds on the host the timed metrics are
#: scaled to (about its median on a 2-CPU x86 VM)
REF_NOMINAL_S = 0.027


def last_cpu(pid: int) -> int:
    """The CPU process ``pid`` last ran on (field 39 of its stat line)."""
    with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[36])


class HostSpeed:
    """Samples how fast the host runs Python, between timed ops.

    Each sample runs the fixed loop of ``refloop.py`` in a helper
    process, started on the first sample, so the loop's memory stays out
    of the measured processes and it never runs alongside program code.
    The shared hosts this benchmark runs on change speed by a third or
    more within seconds to minutes, for the program and the loop alike, so
    each timed op is scaled by the factors of the samples taken just
    before and after it: its seconds on the reference host, where the
    loop takes ``REF_NOMINAL_S``.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: wall seconds spent sampling, to subtract from timed loops
        self.spent = 0.0
        self._proc: Optional[subprocess.Popen] = None

    def _ask(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def sample(self, pid: Optional[int] = None, cpu: Optional[int] = None) -> float:
        """Take a sample on ``cpu``, by default the CPU that process
        ``pid`` (by default this one) last ran on; return its factor
        (reference-host seconds per second measured there now).  The two
        CPUs of a shared host are contended independently, so a loop on
        the other one misses the speed the program ran at."""
        started = time.perf_counter()
        if self._proc is None:
            self._proc = subprocess.Popen(
                [sys.executable, os.path.join(os.path.dirname(__file__), "refloop.py")],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            self._ask()  # the first loop runs on cold caches
        if cpu is None:
            cpu = last_cpu(pid or os.getpid())
        os.sched_setaffinity(self._proc.pid, {cpu})
        self.samples.append(self._ask())
        self.spent += time.perf_counter() - started
        return REF_NOMINAL_S / self.samples[-1]

    def sample_cpus(self) -> float:
        """The mean factor of one sample on each CPU this process may
        use, for work spread over all of them (a worker pool)."""
        cpus = sorted(os.sched_getaffinity(0))
        return sum(self.sample(cpu=cpu) for cpu in cpus) / len(cpus)

    def ref_seconds(self) -> float:
        if not self.samples:
            raise RuntimeError("no host-speed samples were taken")
        return median(self.samples)

    def factor(self) -> float:
        """The factor of the run's median sample."""
        return REF_NOMINAL_S / self.ref_seconds()

    def close(self) -> None:
        if self._proc is None:
            return
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._proc = None


class SetupClock:
    """Accumulates set-up time in segments, so input generation done
    in between is never timed."""

    def __init__(self, started: float) -> None:
        self.seconds = 0.0
        self._mark: Optional[float] = started

    def pause(self) -> None:
        if self._mark is not None:
            self.seconds += time.perf_counter() - self._mark
            self._mark = None

    def resume(self) -> None:
        if self._mark is None:
            self._mark = time.perf_counter()


class GcMeter:
    """Wall time spent in the collector of this process."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self._start = None

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


class Spans:
    """In-memory spans with parent links, recorded around public calls.

    ``spans[i] = [name, parent index or -1, start, end]``; a layer's
    self time is its span's duration minus the part its children cover.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter()

    def _durations(self) -> Tuple[List[float], List[float]]:
        duration = [end - start for _n, _p, start, end in self.spans]
        children = [0.0] * len(self.spans)
        for index, (_n, parent, _s, _e) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += duration[index]
        return duration, children

    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per span name."""
        duration, children = self._durations()
        totals: Dict[str, float] = {}
        for index, (name, _p, _s, _e) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + duration[index] - children[index]
        return totals

    def root_coverage(self) -> Tuple[float, float]:
        """(lowest share of a root span's wall time covered by its
        children, share of all root time not covered by any child)."""
        duration, children = self._durations()
        roots = [i for i, s in enumerate(self.spans) if s[1] < 0]
        if not roots:
            return 1.0, 0.0
        lowest = min(
            children[i] / duration[i] if duration[i] > 0 else 1.0 for i in roots
        )
        uncovered = sum(duration[i] - children[i] for i in roots)
        return lowest, uncovered / max(1e-12, sum(duration[i] for i in roots))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
