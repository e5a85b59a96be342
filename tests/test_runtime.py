import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def test_runtime_imports_numpy_only():
    # scipy, mpmath and hypothesis serve the tests alone; the package,
    # the oracle and the CLI must run with numpy as their one dependency
    code = (
        "import sys, pacsqc, pacsqc.fock_oracle, pacsqc.cli; "
        "print(','.join(name for name in ('scipy', 'mpmath', 'hypothesis') if name in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_env())
    assert result.stdout.strip() == ""


def test_threshold_leaves_the_oracle_unimported():
    # the finders need the closed forms alone; `-X importtime` lists on
    # stderr every module the process imports
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "pacsqc.cli", "threshold", "--m", "0", "--k", "1"],
        capture_output=True, text=True, check=True, env=_env(),
    )
    assert result.stdout == "threshold m=0 k=1: alpha2* = 0.10785088622823531 p* = 0.80597563016776952\n"
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert "pacsqc.correlations" in imported and "pacsqc.fock_oracle" not in imported
