"""perfbench/setup_probe.py, run as the benchmark runs it: a child process
with an absolute PYTHONPATH to the source tree, once with a run config and
once without. The probe calls spectral_decompose and FilterModel with the
config's tolerances, so a change to those callees shows here and not only
in a failed benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "perfbench" / "setup_probe.py"


@pytest.mark.parametrize("config", ['{"instance": "three_level"}', None])
def test_setup_probe_exits_cleanly(tmp_path, config):
    args = [sys.executable, str(PROBE)]
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        args.append("run.json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(args, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
