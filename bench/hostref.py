"""Host-speed reference jobs and the normalisation built on them.

The 2-core machine this benchmark was written on shares its cores with other
tenants, and each core switches between a fast and a slow mode every second
or so; the same code reads up to a quarter faster or slower from one run to
the next. The benchmark therefore runs a fixed reference job just before and
just after every round of items and rescales the round's times by how fast
that job ran: a time is multiplied by ``nominal_ms / ref_ms``, and a rate by
the inverse, where ``ref_ms`` is the median of the last three samples.

In-process workloads use exact ``Fraction`` Gauss-Jordan elimination, the
kind of arithmetic the analysis spends its time on. Workloads made of whole
processes use a bare interpreter start instead, because process start-up
(exec, loading, page faults) drifts apart from in-process arithmetic.
Neither job imports ``selinf``, so no change to the program can change the
yardstick.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from typing import Optional

PROCESS_TIMEOUT_S = 120


_SIZE = 8
_MATRIX = tuple(
    tuple(
        Fraction((i * 7 + j * 13) % 11 - 5, 1 + (3 * i + j) % 7) + (_SIZE if i == j else 0)
        for j in range(_SIZE)
    )
    for i in range(_SIZE)
)


def reference_job() -> Fraction:
    """Invert the fixed matrix by exact Gauss-Jordan; return its determinant."""
    n = len(_MATRIX)
    rows = [list(row) + [Fraction(int(i == k)) for k in range(n)] for i, row in enumerate(_MATRIX)]
    det = Fraction(1)
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[col])]
    return det


_EXPECTED_DET = reference_job()


class HostClock:
    """Reference-job samples of one run; the job is the Fraction elimination above."""

    # About the mean job time on the machine the bounds were fixed on (2-core
    # x86-64 virtual machine, CPython 3.11.7), so normalised figures read close
    # to raw ones there. Changing it rescales every recorded result.
    nominal_ms = 5.0

    def __init__(self) -> None:
        self.samples_ms: list[float] = []

    def job(self) -> None:
        if reference_job() != _EXPECTED_DET:
            raise RuntimeError("reference job gave a different determinant")

    def sample(self) -> float:
        """Time one reference job, in milliseconds."""
        start = time.perf_counter()
        self.job()
        elapsed = (time.perf_counter() - start) * 1e3
        self.samples_ms.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Factor for times measured just before the latest sample.

        The median of the last three samples follows the host's speed from one
        round to the next but ignores a single sample caught by a stall.
        """
        return self.nominal_ms / statistics.median(self.samples_ms[-3:])

    @property
    def ref_ms(self) -> float:
        """Mean reference-job time of this run (R_run).

        The samples are bimodal; the mean moves smoothly with the time spent
        in each mode, where the median would jump from one mode to the other.
        """
        return statistics.fmean(self.samples_ms)


class ProcessClock(HostClock):
    """Reference samples for workloads made of processes: a bare interpreter start."""

    nominal_ms = 40.0

    def job(self) -> None:
        returncode, _, stderr = run_process([sys.executable, "-c", "pass"])
        if returncode != 0:
            raise RuntimeError(f"bare interpreter exited with {returncode}: {stderr[-300:]!r}")


def run_process(argv: list[str], env: Optional[dict[str, str]] = None) -> tuple[int, str, str]:
    """Run a child to completion; return its exit code, stdout and stderr.

    ``subprocess.run(timeout=...)`` waits for the exit by polling with sleeps
    of up to 50 ms, which would land in every timing; here the wait blocks,
    and a watchdog thread kills a child that outlives PROCESS_TIMEOUT_S.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()
    return proc.returncode, stdout, stderr
