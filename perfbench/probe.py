"""Reference kernels that read how fast the machine runs at the moment.

On the 2-core sandbox the CPU speed drifts between states that differ by
about 25 % and last from seconds to minutes, for every process alike, so
raw pass times from runs minutes apart differ by more than a change worth
detecting. Each workload is therefore timed together with a reference
kernel: a frozen copy, owned by the benchmark, of the program code that
dominates that workload at the commit that defined the benchmark (the
blocked pair counting of sample entropy; the ordinal-pattern codes and the
logistic-map loop that dominate ``scan``), on inputs of the workload's
sizes. The benchmark runs the kernel before and after every pass and
reports times at the kernel's reference speed:
``seconds x REFERENCE_S[workload] / kernel seconds``. The kernel never
calls the program, and it runs in a process of its own, so it shares no
allocator state with the program (glibc's adaptive mmap threshold alone
can halve the time of the pair-counting temporaries). A change to the
program moves the reported time; a change in machine speed does not.

    python3 perfbench/probe.py WORKLOAD   # serve: one kernel time per input line
"""
from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Kernel seconds at the reference speed: the median measured on a 2-core
# Xeon (Sapphire Rapids) KVM guest with numpy 2.4.6. Reported times are
# scaled to this speed.
REFERENCE_S = {
    "battery": 0.015,
    "mse_rr": 0.045,
    "mse_periodic": 0.045,
    "scan": 0.0095,
}

_BLOCK_ROWS = 512


def _pair_counts(x: np.ndarray, m: int, r: float, rows: int) -> tuple[int, int]:
    """Frozen copy of the program's blocked template-pair counting (as of
    the benchmark's first version), limited to the first ``rows`` rows."""
    nt = x.size - m
    a = b = 0
    for lo in range(0, min(rows, nt), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, nt)
        block = np.abs(x[lo:hi, None] - x[None, :nt]) <= r
        for k in range(1, m):
            block &= np.abs(x[lo + k:hi + k, None] - x[None, k:k + nt]) <= r
        upper = np.arange(nt)[None, :] > np.arange(lo, hi)[:, None]
        b += int(np.count_nonzero(block & upper))
        block &= np.abs(x[lo + m:hi + m, None] - x[None, m:m + nt]) <= r
        a += int(np.count_nonzero(block & upper))
    return a, b


def _ordinal_counts(x: np.ndarray, n: int) -> np.ndarray:
    """Frozen copy of the ordinal-pattern histogram (Lehmer codes)."""
    windows = sliding_window_view(x, n)
    sigma = np.argsort(windows, axis=1, kind="stable")
    codes = np.zeros(windows.shape[0], dtype=np.int64)
    for i in range(n - 1):
        codes = codes * (n - i) + (sigma[:, i + 1:] < sigma[:, i:i + 1]).sum(axis=1)
    return np.bincount(codes)


def _logistic(n: int) -> float:
    x = 0.3
    for _ in range(n):
        x = (3.9 * x) * (1.0 - x)
    return x


_rng = np.random.default_rng(20151202)
_short = _rng.standard_normal(1000)
_long = _rng.standard_normal(8192)
_scan = _rng.standard_normal(65536)

_KERNELS: dict[str, Callable[[], object]] = {
    # one battery series: pair counts over N = 1000, 4 MB block temporaries
    "battery": lambda: (_pair_counts(_short, 2, 0.2, 1000), _ordinal_counts(_short, 5)),
    # the first 512 rows of an N = 8192 series: 32 MB block temporaries
    "mse_rr": lambda: _pair_counts(_long, 2, 0.2, 512),
    "mse_periodic": lambda: _pair_counts(_long, 2, 0.2, 512),
    # ordinal patterns of a long series plus the interpreted generator loop
    "scan": lambda: (_ordinal_counts(_scan, 5), _logistic(40000)),
}


def kernel_s(workload: str, repeats: int = 3) -> float:
    """Median wall time of ``repeats`` runs of the workload's reference
    kernel."""
    kernel = _KERNELS[workload]
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return sorted(times)[repeats // 2]


class KernelProcess:
    """The workload's reference kernel in a child process: calling the
    object runs the kernel once there and returns its time in seconds."""

    def __init__(self, workload: str):
        if workload not in _KERNELS:
            raise ValueError(f"no reference kernel for workload {workload!r}")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self()  # the first run pays for imports and first-touch page faults

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel process exited with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()

    def __enter__(self) -> "KernelProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve(workload: str) -> None:
    for _ in sys.stdin:
        print(repr(kernel_s(workload)), flush=True)


if __name__ == "__main__":
    _serve(sys.argv[1])
