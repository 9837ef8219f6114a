import os
import subprocess
import sys

import jwprop
from jwprop import bench


def test_every_record_runs_the_alternation_budget():
    # bench() sets a tolerance no run can reach, so none stops early.
    records = bench(["lbp", "lbp-jwp"], [2000, 3000], seeds=[0], alternations=3)
    assert [r.method for r in records] == ["lbp", "lbp-jwp"] * 2
    assert all(r.alternations == 3 and r.edges > 0 for r in records)


def test_first_use_names_resolve_to_the_functions():
    # scaling and synth load on first use.  However the scaling module is
    # first imported, by one of its names or directly, "bench" on the
    # package is the function, and the package is a plain module.
    src = os.path.dirname(os.path.dirname(jwprop.__file__))

    def probe(code):
        proc = subprocess.run([sys.executable, "-c", "import sys, types, jwprop\n" + code],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    assert probe("print('jwprop.scaling' in sys.modules, 'jwprop.synth' in sys.modules,\n"
                 "      type(jwprop) is types.ModuleType)") == ["False", "False", "True"]
    for first in ("jwprop.loglog_slope", "import jwprop.scaling"):
        assert probe(f"{first}\n"
                     "from jwprop import bench, gen_pa, SynthSpec\n"
                     "print(type(bench).__name__, bench.__module__, gen_pa.__module__,\n"
                     "      SynthSpec.__module__, 'gen_pa' in dir(jwprop),\n"
                     "      jwprop.bench is bench, type(jwprop) is types.ModuleType)") \
            == ["function", "jwprop.scaling", "jwprop.synth", "jwprop.synth", "True",
                "True", "True"]
