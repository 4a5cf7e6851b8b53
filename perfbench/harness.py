"""Shared pieces of the benchmark: locating the program, timing
summaries, memory readings, the scratch directory, the measured loop and
the result line.

Every workload module builds on these, so the rules that make runs
comparable live in one place: whole rounds only, ``gc.collect()`` right
before the measured phase, medians for set-up time, and one JSON result
object as the last line of standard output.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: How many times each run sets its workload up; ``setup_s`` is the median.
SETUP_REPEATS = 3


class ProgramMissing(RuntimeError):
    """The program's sources are not next to the benchmark."""


def ensure_program() -> None:
    """Put the program's sources on ``sys.path``, or raise
    :class:`ProgramMissing` when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for a child process running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- scratch space -----------------------------------------------------------

class Workdir:
    """A private directory inside the checkout, removed on exit."""

    def __init__(self, name: str):
        self.path = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        if self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info: Any) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds leftovers


# -- summaries ----------------------------------------------------------------

def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method, linear interpolation)."""
    if not values:
        raise ValueError("percentile of no values")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_self_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_pid_mb(pid: int) -> float:
    """Peak resident set size of another process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def median_setup(
    setup: Callable[[], Any],
    teardown: Callable[[Any], None] = lambda state: None,
    repeats: int = SETUP_REPEATS,
) -> Tuple[float, Any]:
    """Set up ``repeats`` times; return the median time and the last state.

    Earlier states are torn down before the next set-up starts, so only
    one lives at a time and peak memory reflects a single set-up.
    """
    times = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        seconds, state = timed(setup)
        times.append(seconds)
    return statistics.median(times), state


# -- the measured loop ----------------------------------------------------------

class Record:
    """One measured operation: its kind, latency and raw output."""

    __slots__ = ("kind", "op", "seconds", "output", "error", "extra")

    def __init__(self, kind: str, op: Any, seconds: float, output: Any = None,
                 error: Optional[str] = None, extra: Any = None):
        self.kind = kind
        self.op = op
        self.seconds = seconds
        self.output = output
        self.error = error
        self.extra = extra


def run_rounds(
    rounds: Iterable[List[Any]],
    seconds: float,
    execute: Callable[[Any], Record],
) -> Tuple[List[Record], float]:
    """Execute whole rounds of operations until ``seconds`` have passed.

    A round that has started is always finished, so every run attempts
    the same mix of operations whatever its length.  Returns the records
    and the wall time of the measured phase.
    """
    gc.collect()
    records: List[Record] = []
    start = time.perf_counter()
    for round_ops in rounds:
        for op in round_ops:
            records.append(execute(op))
        if time.perf_counter() - start >= seconds:
            break
    return records, time.perf_counter() - start


def latency_ms(records: List[Record], kinds: Iterable[str]) -> List[float]:
    wanted = set(kinds)
    return [r.seconds * 1000.0 for r in records if r.kind in wanted and r.error is None]


# -- reporting --------------------------------------------------------------------

def end_to_end(setup_s: float, peak_mb: float, records: List[Record], elapsed: float,
               read_kinds: List[str]) -> Dict[str, Dict[str, Any]]:
    """The result line's end-to-end metrics, the same on every workload."""
    reads = latency_ms(records, read_kinds)
    done = sum(r.error is None for r in records)
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "ops_per_s": metric(done / elapsed, "1/s"),
        "query_p50_ms": metric(percentile(reads, 50), "ms"),
        "query_p95_ms": metric(percentile(reads, 95), "ms"),
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def print_table(title: str, rows: List[Tuple[str, Any, str]]) -> None:
    """Human-readable lines (everything before the result line)."""
    print(f"== {title}")
    for name, value, unit in rows:
        if isinstance(value, float):
            text = f"{value:.6g}"
        else:
            text = str(value)
        print(f"  {name:<28} {text:>14} {unit}")
    sys.stdout.flush()


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, Any]]) -> None:
    """The result line: the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    sys.stdout.flush()
