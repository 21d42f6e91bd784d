"""What a process loads: the solve path needs numpy and scipy.fft only.

The cross-check's LSODA (scipy.integrate, which pulls in scipy.sparse.linalg
and scipy.optimize), the Newton oracle's GMRES and the Liouville builder's
mpmath load inside the one function that uses each.  This pytest process
has imported all of them already, so every case runs in a fresh
interpreter with ``src`` on its path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SIDE_PATHS = ("scipy.integrate", "scipy.sparse.linalg", "scipy.optimize", "mpmath")


def loaded_after(code: str) -> set[str]:
    """The side-path modules in sys.modules after running code in a fresh
    interpreter."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {SIDE_PATHS!r} if m in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=REPO,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_and_solve_commands_load_no_side_path(tmp_path):
    code = "\n".join([
        "import response_solver",
        "from response_solver import cli",
        *(f"assert cli.main(['--config', 'configs/{name}.json', "
          f"'--out', {str(tmp_path / name)!r}]) == 0"
          for name in ("solve_cubic", "solve_pde")),
    ])
    assert loaded_after(code) == set()


SETUP = """
import response_solver as rs
from response_solver.cli import parse_problem
prob = parse_problem('problems/cubic_ode.json')
"""


@pytest.mark.parametrize("call, module", [
    ("U, _ = rs.solve_fixed_point(0.05, prob, rs.SolverConfig(tol=1e-12))\n"
     "rs.time_integration_crosscheck(0.05, prob, U, horizon=20.0, t_skip=2.0)",
     "scipy.integrate"),
    ("rs.newton_oracle_ode(0.05, prob, K_small=4)", "scipy.sparse.linalg"),
    ("rs.build_liouville(rs.LiouvilleSpec())", "mpmath"),
])
def test_each_side_path_loads_on_its_first_call(call, module):
    assert module in loaded_after(SETUP + call)
