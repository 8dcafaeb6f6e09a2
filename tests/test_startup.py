"""What a fresh process imports: each scipy submodule is loaded where a
kernel first calls it, not when the package is imported.

Every check runs in a new interpreter, because this process has scipy
loaded already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(HERE.parent / "src"), str(HERE),
                                                   os.environ.get("PYTHONPATH")]))}
SCIPY_SUBMODULES = ("scipy.spatial", "scipy.signal", "scipy.special", "scipy.stats",
                    "scipy.sparse")

# the last line a child prints: which of SCIPY_SUBMODULES it has loaded
REPORT = "\nprint(json.dumps([m for m in {mods!r} if m in sys.modules]))"


def loaded_after(code: str) -> list[str]:
    """The scipy submodules a fresh interpreter has loaded after ``code``."""
    script = "import json, sys\n" + code + REPORT.format(mods=SCIPY_SUBMODULES)
    done = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy_submodule():
    assert loaded_after("import tscomplex, tscomplex.cli") == []


def test_uniform_generate_loads_no_scipy_special():
    loaded = loaded_after(
        "import tscomplex.cli\n"
        "assert tscomplex.cli.main(['generate', '--spec', "
        "'{\"kind\":\"uniform\",\"length\":10}']) == 0")
    assert "scipy.special" not in loaded


def test_ordinal_and_runs_mse_loads_no_tree_or_filter(tmp_path):
    loaded = loaded_after(
        "import tscomplex.cli\n"
        "assert tscomplex.cli.main(['mse', '--spec', "
        "'{\"kind\":\"normal\",\"length\":4096}', '--metric', 'permen', "
        "'--metric', 'permtest', '--metric', 'runstest', "
        f"'--out', {str(tmp_path / 'report.csv')!r}]) == 0")
    assert "scipy.special" in loaded  # the normal draws and the chi-square tail
    assert "scipy.spatial" not in loaded
    assert "scipy.signal" not in loaded


def sampen_profiles() -> list[list[str]]:
    """A 2-series x 6-scale sample-entropy sweep, each value as its repr."""
    import numpy as np

    from tscomplex import AnalysisConfig, Series, build_metrics, mse_sweeps

    series = [Series(np.random.Generator(np.random.PCG64(seed)).random(1000), f"u{seed}")
              for seed in (1, 2)]
    config = AnalysisConfig(metrics=("sampen",))
    profiles = mse_sweeps(series, config.scales, build_metrics(config))
    return [[repr(v) for v in profile.values("sampen")] for profile in profiles]


def test_first_sample_entropy_from_two_sweep_threads():
    """The sweep's helper threads make the process's first sample-entropy
    calls, so two threads import ``scipy.spatial`` at once; the profile is
    the same as this process computes."""
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if len(cpus) < 2:
        pytest.skip("needs two CPUs for two sweep threads")
    script = (
        "import json, os, sys\n"
        f"os.sched_setaffinity(0, {cpus!r})\n"
        "sys.setswitchinterval(1e-6)\n"
        "from test_startup import sampen_profiles\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "print(json.dumps(sampen_profiles()))\n")
    done = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == sampen_profiles()
