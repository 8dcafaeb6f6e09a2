"""Self-tests of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Each ``test_*`` function raises AssertionError on failure; the file also
runs under pytest when named explicitly (``pytest perfbench/selftest.py``).
"""
from __future__ import annotations

import json
import math
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.bootstrap()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from tscomplex import cli  # noqa: E402

TMP = run.WORK / "selftest"


def _build(name: str, seed: int, tag: str = "") -> workloads.Workload:
    return workloads.build(name, seed, TMP / f"{name}{tag}", workloads.TINY)


def _traced(name: str, seed: int = 0):
    wl = _build(name, seed)
    tracer = Tracer()
    warmup, passes, _ = run.measure(wl.ops, cli, 0.0, tracer)
    return wl, tracer, warmup, passes


def test_seed_changes_inputs():
    for name in workloads.NAMES:
        first = _build(name, 0).fingerprint()
        other = _build(name, 1).fingerprint()
        again = _build(name, 0).fingerprint()
        assert first == again != other, name


def _perturb(text: str) -> str:
    rows = checks.report_rows(text)
    for row in rows:
        if row["metric"] in ("sampen", "permen") and row["value"] is not None:
            row["value"] = row["value"] * (1 + 1e-6) + 1e-6
    head = text[:text.index("[\n")] if "[\n" in text else ""
    return head + json.dumps(rows, indent=2) + "\n"


def test_perturbed_output_is_caught():
    oracles = checks.load_oracles(run.ROOT)
    for name in ("battery", "mse_rr", "mse_periodic", "scan"):
        wl = _build(name, 2)
        _, runs = run.run_pass(wl.ops, cli)
        outputs = {r.name: r.output for r in runs}
        cells = checks.sample_cells(wl, np.random.default_rng(7))
        assert cells, name
        assert checks.check_cells(cells, outputs, oracles) == {}, name
        perturbed = {op: _perturb(text) for op, text in outputs.items()}
        bad = checks.check_cells(cells, perturbed, oracles)
        assert set(bad) == {c.op for c in cells}, (name, bad)
        expected = {op: {"sha256": checks.sha256(t), "rows": len(checks.report_rows(t))}
                    for op, t in outputs.items()}
        assert checks.check_digests(outputs, expected, True) == {}, name
        changed = {op: checks.check_digests({op: perturbed[op]}, expected, True)
                   for op in perturbed if perturbed[op] != outputs[op]}
        assert changed and all(changed.values()), name


def test_failed_ops_are_counted():
    wl = _build("mse_rr", 0)
    warmup, passes, _ = run.measure(wl.ops, cli, 0.0)
    oracles = checks.load_oracles(run.ROOT)
    expected = {r.name: {"sha256": checks.sha256(r.output),
                         "rows": len(checks.report_rows(r.output))} for r in warmup}
    assert run.judge(wl, warmup, passes, oracles, expected)[1] == 0
    passes[0][2][0].output += " "
    attempted, failed, _ = run.judge(wl, warmup, passes, oracles, expected)
    assert (attempted, failed) == (len(wl.ops), 1)


def test_scan_records_no_sample_entropy():
    _, tracer, _, _ = _traced("scan")
    assert tracer.stats["entropy.sample_entropy"].calls == 0
    assert tracer.stats["entropy.permutation_entropy"].calls > 0
    assert tracer.stats["plots.render_plot"].calls == 1


def test_self_times_and_untraced_sum_to_traced_wall():
    for name in ("battery", "scan"):
        _, tracer, _, passes = _traced(name)
        metrics, details = run.per_layer(tracer, passes)
        self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        total = self_sum + metrics["untraced_s"][0]
        assert math.isclose(total, details["traced_wall_s"], rel_tol=1e-9), (name, total)
        assert metrics["untraced_s"][0] >= 0


def test_call_counts_repeat_between_traced_runs():
    counts = []
    for _ in range(2):
        _, tracer, _, _ = _traced("mse_periodic", 4)
        counts.append({k: (st.calls, dict(st.counts)) for k, st in tracer.stats.items()})
    assert counts[0] == counts[1]


def test_every_binding_is_wrapped_and_restored():
    tracer = Tracer()
    originals = {layer.name: getattr(sys.modules[layer.module], layer.attr) for layer in LAYERS}
    tracer.install()
    try:
        assert tracer.unwrapped_sites() == []
        for layer in LAYERS:
            assert getattr(sys.modules[layer.module], layer.attr) is not originals[layer.name]
        assert sys.modules["tscomplex.experiments"].sample_entropy is not \
            originals["entropy.sample_entropy"]
    finally:
        tracer.uninstall()
    for layer in LAYERS:
        assert getattr(sys.modules[layer.module], layer.attr) is originals[layer.name]


def test_tail_percentile():
    assert run.tail([float(i) for i in range(1, 41)]) == (75.0, 30.0)
    assert run.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok    {name}")
            except Exception:
                failed += 1
                print(f"FAIL  {name}")
                traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
