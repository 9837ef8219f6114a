import os
import re
import subprocess
import sys
from pathlib import Path

import jwprop

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_bit_identity_grid_prints_seven_hashes():
    # The hashes depend on the host's floating-point libraries, so only
    # their presence is checked: the gate script must still run against
    # the package's public names.
    src = os.path.dirname(os.path.dirname(jwprop.__file__))
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bit_identity_grid.py")],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 7, proc.stdout
    assert all(re.search(r" sha256 [0-9a-f]{64}$", line) for line in lines), proc.stdout
