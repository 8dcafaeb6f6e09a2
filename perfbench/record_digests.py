"""Record the output digests of every workload at the default seed.

    python3 perfbench/record_digests.py

The benchmark counts an op as failed when, at the default seed, its output
differs from the digest recorded here, so run this only when a change to
the program's output is intended. Outputs are first checked against the
oracles, as in a benchmark run.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.bootstrap()
    import checks
    import workloads
    from tscomplex import cli

    oracles = checks.load_oracles(run.ROOT)
    table = {}
    for name in workloads.NAMES:
        wl = workloads.build(name, run.DEFAULT_SEED, run.workdir(name, run.DEFAULT_SEED))
        _, runs = run.run_pass(wl.ops, cli)
        outputs = {r.name: r.output for r in runs}
        bad = {r.name: f"exit status {r.rc}" for r in runs if r.rc != 0}
        bad.update(checks.check_cells(checks.sample_cells(wl), outputs, oracles))
        if bad:
            for op, why in sorted(bad.items()):
                print(f"{name}/{op}: {why}", file=sys.stderr)
            return 1
        table[name] = {op: {"sha256": checks.sha256(text), "rows": len(checks.report_rows(text))}
                       for op, text in outputs.items()}
        print(f"{name}: {len(outputs)} ops recorded")
    checks.DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
