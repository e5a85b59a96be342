import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_runtime_imports_numpy_only():
    # scipy, mpmath and hypothesis serve the tests alone; the package,
    # the oracle and the CLI must run with numpy as their one dependency
    code = (
        "import sys, pacsqc, pacsqc.fock_oracle, pacsqc.cli; "
        "print(','.join(name for name in ('scipy', 'mpmath', 'hypothesis') if name in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path)
    )
    assert result.stdout.strip() == ""
