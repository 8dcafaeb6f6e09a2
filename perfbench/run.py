"""tscomplex benchmark.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Runs one workload in a closed loop (one process, each op starts when the
previous one ends) for ``--seconds``, in whole passes over its ops, and
prints one JSON object as the last line of standard output: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Earlier lines record the environment and the run's details.
Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10

clock = time.perf_counter


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict[str, str]:
    """Cap the native thread pools at nproc. Must run before numpy is
    imported, which reads these once."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc()
        os.environ[var] = str(min(limit, nproc()))
    return {var: os.environ[var] for var in THREAD_VARS}


def bootstrap() -> dict[str, str]:
    """Make the checkout's program importable; cap thread pools first."""
    caps = cap_threads()
    if not (SRC / "tscomplex" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC / 'tscomplex'}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return caps


# -- running ops ----------------------------------------------------------

@dataclass
class OpRun:
    name: str
    seconds: float
    rc: int | str  # exit status, or what the op raised
    output: str


def run_pass(ops, cli) -> tuple[float, list[OpRun]]:
    """Run every op once through ``cli.main``, back to back; return the pass
    wall time and each op's latency, exit status and output. Written files
    are read after the pass, outside the timed part. ``cli.main`` is looked
    up per call, so a traced pass goes through the tracer's wrapper."""
    timed = []
    start = clock()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # an op that raises counts as failed
            rc = f"raised {type(exc).__name__}"
            traceback.print_exc(file=sys.stderr)
        timed.append((clock() - t, rc, out.getvalue(), err.getvalue()))
    wall = clock() - start
    runs = []
    for op, (seconds, rc, stdout, stderr) in zip(ops, timed):
        if rc != 0:
            sys.stderr.write(f"benchmark: {op.name}: {stderr}")
        if op.out_path is not None and op.out_path.is_file():
            stdout += op.out_path.read_text(encoding="utf-8")
            op.out_path.unlink()
        runs.append(OpRun(op.name, seconds, rc, stdout))
    return wall, runs


def measure(ops, cli, seconds: float, tracer=None, kernel=None):
    """Warm-up pass, then whole passes until ``seconds`` have elapsed. With
    a tracer, passes alternate untraced/traced (at least one of each).
    ``kernel`` (a callable returning seconds) is timed before the first
    pass and after every pass. Returns the warm-up runs, a list of
    (traced, wall, runs) passes and the kernel times."""
    _, warmup = run_pass(ops, cli)
    passes = []
    kernel_times = [kernel()] if kernel else []
    end = clock() + seconds
    while clock() < end or len(passes) < (2 if tracer else 1):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, runs = run_pass(ops, cli)
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, wall, runs))
        if kernel:
            kernel_times.append(kernel())
    return warmup, passes, kernel_times


def judge(workload, warmup, passes, oracles, expected) -> tuple[int, int, dict[str, str]]:
    """Check the warm-up outputs (digests, oracle cells), then count every
    measured op run whose status or output is wrong."""
    import checks

    reference = {r.name: r.output for r in warmup}
    bad = {r.name: f"exit status {r.rc}" for r in warmup if r.rc != 0}
    bad.update(checks.check_digests(reference, expected, workload.seed == DEFAULT_SEED))
    bad.update(checks.check_cells(checks.sample_cells(workload), reference, oracles))
    attempted = failed = 0
    for _, _, runs in passes:
        for r in runs:
            attempted += 1
            if r.rc != 0 or r.name in bad or r.output != reference[r.name]:
                failed += 1
    return attempted, failed, bad


# -- metrics --------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank. With fewer than
    2*TAIL_BEYOND samples no percentile above the median has that many
    beyond, and the tail is reported at the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(xs)
    rank = n - TAIL_BEYOND  # 1-based; exactly TAIL_BEYOND samples lie beyond
    return 100.0 * rank / n, xs[rank - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, kernel_times, reference_s, rows_per_pass, setup_s, attempted,
               failed, peak):
    """Time metrics are at the reference kernel's speed: each pass's times
    are scaled by reference_s over the mean of the kernel times measured
    just before and just after it. The raw figures go to the details."""
    scale = [reference_s / ((kernel_times[i] + kernel_times[i + 1]) / 2)
             for i in range(len(passes))]
    raw_walls = [wall for _, wall, _ in passes]
    walls = [w * f for w, f in zip(raw_walls, scale)]
    ops = [r.seconds * f for (_, _, runs), f in zip(passes, scale) for r in runs]
    raw_ops = [r.seconds for _, _, runs in passes for r in runs]
    pct, tail_s = tail(ops)
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "op_s_p50": (statistics.median(ops), "s"),
        "op_s_tail": (tail_s, "s"),
        "cells_per_s": (rows_per_pass / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak, "MiB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    details = {"passes": len(walls), "ops": len(ops), "op_s_tail_percentile": round(pct, 2),
               "rows_per_pass": rows_per_pass,
               "raw_wall_s": statistics.median(raw_walls),
               "raw_op_s_p50": statistics.median(raw_ops),
               "raw_op_s_tail": tail(raw_ops)[1],
               "kernel_s_median": statistics.median(kernel_times),
               "pass_walls_s": [round(w, 4) for w in raw_walls]}
    return metrics, details


def per_layer(tracer, passes):
    """Per-layer metrics per traced pass. Self times plus ``untraced_s``
    add up to the traced pass wall time."""
    from spans import LAYERS

    traced = [wall for t, wall, _ in passes if t]
    untraced = [wall for t, wall, _ in passes if not t]
    n = len(traced)
    total_self = tracer.self_total_s()
    metrics = {}
    counted = {layer.name: layer.counts for layer in LAYERS}
    for name, st in tracer.stats.items():
        metrics[f"{name}.calls"] = (st.calls / n, "count")
        metrics[f"{name}.self_s"] = (st.self_s / n, "s")
        for key in counted.get(name, ()):
            metrics[f"{name}.{key}"] = (st.counts.get(key, 0) / n, _UNITS[key])
    se = tracer.stats["entropy.sample_entropy"]
    pairs = se.counts.get("pairs", 0)
    metrics["entropy.sample_entropy.pairs_per_s"] = (pairs / se.self_s if se.self_s else 0.0, "1/s")
    metrics["entropy.sample_entropy.match_frac"] = (
        se.counts.get("b_count", 0) / pairs if pairs else 0.0, "frac")
    metrics["entropy.sample_entropy.errors"] = (se.errors / n, "count")
    metrics["entropy.sample_entropy.self_share"] = (se.self_s / total_self, "frac")
    metrics["untraced_s"] = ((sum(traced) - tracer.covered_s) / n, "s")
    metrics["trace_overhead_s"] = (statistics.mean(traced) - statistics.mean(untraced), "s")
    details = {"traced_passes": n, "untraced_passes": len(untraced),
               "traced_wall_s": sum(traced) / n, "binding_sites": tracer.site_count}
    return metrics, details


_UNITS = {"samples": "count", "pairs": "count", "bytes": "B", "rows": "count"}


# -- entry points ---------------------------------------------------------

def workdir(workload: str, seed: int) -> Path:
    return WORK / f"{workload}-{seed}"


def time_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import the program and
    build the workload's inputs (generation and file writes)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = clock()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--seed", str(seed), "--setup-only"], check=True)
        times.append(clock() - t)
    return statistics.median(times)


def environment(caps: dict[str, str]) -> dict:
    import numpy
    import scipy

    return {"nproc": nproc(), "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "thread_caps": caps}


def run_one(args, caps) -> int:
    setup_s = None if args.trace else time_setup(args.workload, args.seed)

    import checks
    import probe
    import workloads
    from spans import Tracer
    from tscomplex import cli

    wl = workloads.build(args.workload, args.seed, workdir(args.workload, args.seed))
    oracles = checks.load_oracles(ROOT)
    expected = checks.load_digests().get(args.workload, {})
    tracer = Tracer() if args.trace else None
    # the reference kernel scales end-to-end times only
    with contextlib.nullcontext() if args.trace else probe.KernelProcess(args.workload) as kernel:
        warmup, passes, kernel_times = measure(wl.ops, cli, args.seconds, tracer, kernel)
    peak = peak_rss_mib()
    attempted, failed, bad = judge(wl, warmup, passes, oracles, expected)
    for op, why in sorted(bad.items()):
        print(f"benchmark: {args.workload}/{op}: {why}", file=sys.stderr)
    if args.trace:
        metrics, details = per_layer(tracer, passes)
    else:
        rows = sum(len(checks.report_rows(r.output)) for r in warmup)
        metrics, details = end_to_end(passes, kernel_times, probe.REFERENCE_S[args.workload],
                                      rows, setup_s, attempted, failed, peak)
    print(json.dumps({"environment": environment(caps)}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "input_fingerprint": wl.fingerprint()[:16], **details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of the metrics."""
    import workloads  # noqa: F401  (fails early if the program is missing)

    status = 0
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exit status {proc.returncode}")
            status = 1
            continue
        *_, details, result = (json.loads(line) for line in proc.stdout.strip().splitlines())
        status |= not result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            note = ""
            if key == "op_s_tail":
                note = f"  (p{details['op_s_tail_percentile']} of {details['ops']} ops)"
            print(f"  {key:40s} {m['value']:>14.6g} {m['unit']}{note}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("battery", "mse_rr", "mse_periodic", "scan", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    caps = bootstrap()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        import tscomplex  # noqa: F401  (the import is part of set-up)
        import workloads

        workloads.build(args.workload, args.seed, workdir(args.workload, args.seed))
        return 0
    return run_one(args, caps)


if __name__ == "__main__":
    sys.exit(main())
