import importlib.util
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


def test_sybil_experiment_prints_a_row_per_method():
    # a small grid, so that every package name the script imports is run
    script = SCRIPTS / "run_sybil_experiment.py"
    spec = importlib.util.spec_from_file_location("run_sybil_experiment", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    src = os.path.dirname(os.path.dirname(jwprop.__file__))
    proc = subprocess.run([sys.executable, str(script), "--nodes", "300", "--m", "4",
                           "--attack-edges", "400", "--train-per-class", "10",
                           "--seeds", "0", "--noise-grid", "0", "10"],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for name, _, _ in module.METHOD_GRID:
        row = re.compile(rf"{re.escape(name)} +[01]\.\d{{4}}( +[01]\.\d{{4}}){{2}}")
        assert sum(1 for line in lines if row.fullmatch(line)) == 1, proc.stdout
