"""The package's entry points start with numpy as their only third-party
import.

scipy is loaded only when an exact ILP is solved, and the DAG layer needs
no graph library, so importing the CLI, simulator, planner, service and
experiment layers must add no package but numpy to ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
before = set(sys.modules)
import repro.cli, repro.sim, repro.core, repro.service, repro.experiments
added = {m.split(".")[0] for m in set(sys.modules) - before}
print(sorted(added - set(sys.stdlib_module_names) - {"repro"}))
"""


def test_entry_points_import_only_numpy():
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "['numpy']"
