"""Each shipped config gives the exit code and the ``result.json`` bytes kept
in ``tests/golden/``.

The golden files are the outputs of ``response-solver --config
configs/<name>.json --out <dir>``, and ``<name>_fault_<fault>.json`` those
of the same run with ``--inject-fault <fault>``.  ``spectrum_sha256.json``
holds the sha256 of every spectrum CSV a config writes: those files keep
the sign of a zero coefficient, which ``result.json`` does not show.  A
change that means to move these bytes replaces the affected files from a
run of the changed code and lists the moved fields in CHANGES.md.  A
mismatch names the first JSON path whose value differs, and by how much.
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


def first_difference(got, want, path="$") -> str | None:
    """The first JSON path at which two parsed documents differ, with both
    values and, for two numbers, their relative difference."""
    if isinstance(got, dict) and isinstance(want, dict):
        if list(got) != list(want):
            return f"{path}: keys {list(got)} != {list(want)}"
        children = [(f"{path}.{key}", got[key], want[key]) for key in got]
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        children = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(got, want))]
    else:
        if type(got) is type(want) and got == want:
            return None
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (got, want))
        rel = (f" (relative {abs(got - want) / max(abs(got), abs(want)):.3g})"
               if numbers and got != want else "")
        return f"{path}: {got!r} != golden {want!r}{rel}"
    return next(filter(None, (first_difference(a, b, p) for p, a, b in children)), None)


def assert_same_result(got: Path, golden: Path) -> None:
    got_bytes, want_bytes = got.read_bytes(), golden.read_bytes()
    assert got_bytes == want_bytes, first_difference(json.loads(got_bytes),
                                                     json.loads(want_bytes))


@pytest.mark.parametrize("name", sorted(p.stem for p in (REPO / "configs").glob("*.json")))
def test_shipped_config_matches_golden(tmp_path, name):
    code = cli.main(["--config", str(REPO / "configs" / f"{name}.json"),
                     "--out", str(tmp_path)])
    assert code == EXIT_CODES[name]
    assert_same_result(tmp_path / "result.json", GOLDEN / f"{name}.json")
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
    assert_same_result(tmp_path / "result.json", GOLDEN / f"{name}_fault_{fault}.json")
