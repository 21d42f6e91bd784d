"""Each shipped config gives the exit code and the ``result.json`` bytes kept
in ``tests/golden/``.

The golden files are the outputs of ``response-solver --config
configs/<name>.json --out <dir>``, and ``<name>_fault_<fault>.json`` those
of the same run with ``--inject-fault <fault>``.  ``spectrum_sha256.json``
holds the sha256 of every spectrum CSV a config writes: those files keep
the sign of a zero coefficient, which ``result.json`` does not show.  A
change that means to move these bytes replaces the affected files from a
run of the changed code and lists the moved fields in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from response_solver import cli

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
SPECTRUM_SHA256 = json.loads((GOLDEN / "spectrum_sha256.json").read_text())


@pytest.mark.parametrize("name", sorted(p.stem for p in (REPO / "configs").glob("*.json")))
def test_shipped_config_matches_golden(tmp_path, name):
    code = cli.main(["--config", str(REPO / "configs" / f"{name}.json"),
                     "--out", str(tmp_path)])
    assert code == EXIT_CODES[name]
    assert (tmp_path / "result.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.glob("*.csv")} == SPECTRUM_SHA256.get(name, {})


@pytest.mark.parametrize("name, fault", [("verify_ode", "ode-mode-inverse"),
                                         ("verify_pde", "pde-mode-inverse")])
def test_faulted_verify_matches_golden(tmp_path, name, fault):
    """The fault-injection runs keep their exit code and ``result.json``
    bytes, including the per-eps entries and ``c_emp`` of a failed
    certification."""
    code = cli.main(["--config", str(REPO / "configs" / f"{name}.json"),
                     "--out", str(tmp_path), "--inject-fault", fault])
    assert code == cli.EXIT_CERT == 3
    assert (tmp_path / "result.json").read_bytes() == \
        (GOLDEN / f"{name}_fault_{fault}.json").read_bytes()
