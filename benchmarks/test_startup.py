"""Cold-start timings: whole commands, each in a fresh interpreter.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_startup.py --benchmark-json BENCH_startup.json

Each round starts ``python -m tscomplex.cli``, or ``python -c`` with
``import tscomplex``, from this checkout's ``src`` and waits for it to
exit, so a time covers the interpreter's start, the package's imports,
the scipy submodules that the command's kernels load on their first call,
and the work itself. The commands are ``generate`` of 1000 uniform points, one
``scan``-workload op (``mse --spec`` of 64k N(0,1) points with the two
ordinal-pattern metrics and the runs test) and ``reproduce table2``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
ROUNDS = 11
CLI = [sys.executable, "-m", "tscomplex.cli"]
COMMANDS = {
    "import": [sys.executable, "-c", "import tscomplex"],
    "generate_uniform": CLI + ["generate", "--spec", '{"kind": "uniform", "seed": 3}'],
    "mse_scan_spec": CLI + ["mse", "--spec", '{"kind": "normal", "length": 65536, "seed": 7}',
                            "--metric", "permen", "--metric", "permtest",
                            "--metric", "runstest", "--format", "json"],
    "reproduce_table2": CLI + ["reproduce", "table2", "--print-table"],
}


def run(argv: list[str]) -> None:
    subprocess.run(argv, env=ENV, check=True, stdout=subprocess.DEVNULL, timeout=120)


@pytest.mark.parametrize("command", COMMANDS)
def test_cold(benchmark, command):
    benchmark.pedantic(run, args=(COMMANDS[command],), rounds=ROUNDS, iterations=1,
                       warmup_rounds=1)
