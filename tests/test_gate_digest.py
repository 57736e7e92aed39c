"""The gate output set (tests/gate_outputs.py) reads its pinned digest.

The gate runs in a fresh interpreter, so no fact that an earlier test kept
on a shared enumeration object reaches it.  A change that alters the gate
set itself updates the pin and says which runs it added.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

GATE = ("7b0719ed172f4a3421de067cd999d6a5707e7cfe5c40a461f2b346bac8c13136 "
        "over 220 runs and directories")


def test_the_gate_reads_its_pinned_digest():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(TESTS / "gate_outputs.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == GATE, proc.stdout
