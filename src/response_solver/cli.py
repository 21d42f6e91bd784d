"""Batch front door: parse problem files, dispatch commands, emit results.

Problems and run configurations are JSON documents (schema in the README).
Every run writes a deterministic ``result.json`` (sorted keys, no
timestamps) plus ``metadata.json`` and, for solve commands, plot-ready CSV
spectra.  Exit codes: 0 success, 2 solver non-convergence, 3 certification
failure, 4 input error.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import difflib
import functools
import hashlib
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .multipliers import EpsilonDomain, JordanBlock, LinearPart
from .ode import (
    OdeProblem,
    SolverConfig,
    analyticity_probe,
    geometric_fit_r2,
    low_regularity_solve,
    solve_fixed_point,
    sweep_epsilon,
    sweep_sigma_ladder,
)
from .pde import PdeProblem
from .spectral import (
    FourierField,
    NonlinearitySpec,
    NormSpec,
    SpectralLattice,
    log_weights,
    norm,
    roundoff_floor,
    truncation_tail_norm,
)
from .verification import (
    FAULT_NAMES,
    LiouvilleSpec,
    build_liouville,
    certify_bounds,
    make_witness_problem,
    nondiff_probe,
    scan_for_witnesses,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_NOCONV = 2
EXIT_CERT = 3
EXIT_INPUT = 4

SYMBOLIC_OMEGA = {
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "sqrt5": math.sqrt(5.0),
    "golden": (1.0 + math.sqrt(5.0)) / 2.0,
}

class InputError(ValueError):
    """Schema or invariant violation in a problem/config document."""


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error (exit 4), not argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


# ---------------------------------------------------------------------------
# document schemas
#
# Each document level has one table: key -> (converter,) for a required key,
# (converter, default) for an optional one.  A converter takes the JSON value
# and returns it typed, raising ValueError or TypeError on a value outside
# its type or range.  A nested table converts a nested object, and a
# one-item list [c] a JSON list whose every item c converts.  A default is
# converted as a value is, except None, which stands for "absent" (as a JSON
# null there does).


class _Choice(dict):
    """Tables, one per branch of a document; ``pick(doc)`` names the branch."""

    def __init__(self, pick: Callable[[dict], object], **tables):
        super().__init__(tables)
        self.pick = pick


def _parse(doc, table: dict, path: str) -> dict:
    """``doc`` converted key by key against ``table``.

    A document that is not an object, an unknown key (with the closest
    known one), a missing required key or a value that does not convert is
    an input error that names ``path.key``.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected an object, got {doc!r}")
    if isinstance(table, _Choice):
        _known_keys(doc, set().union(*table.values()), path)
        branch = table.pick(doc)
        if not isinstance(branch, str) or branch not in table:
            raise InputError(f"{path}.kind: expected one of {sorted(table)}, got {branch!r}")
        table = table[branch]
    _known_keys(doc, table, path)
    fields = {}
    for key, (convert, *default) in table.items():
        if key not in doc and not default:
            raise InputError(f"{path}: missing field {key!r}")
        value = doc.get(key, *default)
        fields[key] = None if value is None and default == [None] \
            else _convert(convert, value, f"{path}.{key}")
    return fields


def _known_keys(doc: dict, known, path: str) -> None:
    for key in doc:
        if key not in known:
            close = difflib.get_close_matches(key, sorted(known), n=1, cutoff=0.5)
            hint = f"did you mean {close[0]!r}? " if close else ""
            raise InputError(f"{path}.{key}: unknown key; {hint}known keys: {sorted(known)}")


def _convert(convert, value, path: str):
    if isinstance(convert, dict):
        return _parse(value, convert, path)
    if isinstance(convert, list):
        if not isinstance(value, list):
            raise InputError(f"{path}: expected a list, got {value!r}")
        return [_convert(convert[0], item, f"{path}[{i}]") for i, item in enumerate(value)]
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {value!r} is not valid ({exc})") from exc


def _count(value) -> int:
    """``int(value)`` for a whole number; a bool, a string or a fraction
    raises ValueError rather than being read as 1, decoded or truncated."""
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer count")
    return int(value)


def _finite(value, kind: Callable = float):
    """``kind(value)``, a finite float or complex; NaN or an infinity raises
    ValueError, as a value that does not convert does.  A bool, which is not
    read as 0 or 1, raises TypeError, and so does a string, except where
    ``kind`` is complex: a complex number is written as one ("0.05+0.01j")."""
    if isinstance(value, bool) or isinstance(value, str) and kind is not complex:
        raise TypeError(f"expected a number, not a {type(value).__name__}")
    number = kind(value)
    if not cmath.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _floats(values) -> list[float]:
    return [_finite(v) for v in values]


def _where(holds: Callable[[object], bool], need: str,
           convert: Callable = lambda value: value) -> Callable:
    """A converter: ``convert(value)``, which must satisfy ``holds``."""
    def checked(value):
        typed = convert(value)
        if not holds(typed):
            raise ValueError(need)
        return typed
    return checked


def _at_least(least: int) -> Callable:
    return _where(lambda count: count >= least, f"at least {least} needed", _count)


def _one_of(*names) -> Callable:
    return _where(lambda value: value in names, f"expected one of {list(names)}")


def _instance(kind: type, what: str) -> Callable:
    return _where(lambda value: isinstance(value, kind), f"expected {what}")


_finite_complex = functools.partial(_finite, kind=complex)
_positive = _where(lambda x: x > 0.0, "need > 0", _finite)
_non_negative = _where(lambda x: x >= 0.0, "need >= 0", _finite)


def _ball_radius(value) -> float:
    """A radius > 0, or inf for no ball."""
    return math.inf if value == math.inf else _positive(value)


def _frequency(value) -> float:
    """A number, a decimal string or one of the symbolic names."""
    if isinstance(value, str) and value in SYMBOLIC_OMEGA:
        return SYMBOLIC_OMEGA[value]
    try:
        return _finite(float(value) if isinstance(value, str) else value)
    except (TypeError, ValueError):
        raise ValueError(f"neither symbolic {sorted(SYMBOLIC_OMEGA)} "
                         "nor a finite decimal") from None


_JORDAN_BLOCK = {"lambda": (_finite,), "size": (_at_least(1),), "p": (_finite, 1.0),
                 "q": (_finite, 1.0)}


_NONLINEARITY_KIND = (str, "zero")
_NONLINEARITY = _Choice(
    lambda doc: doc.get("kind", "zero"),
    zero={"kind": _NONLINEARITY_KIND},
    polynomial={"kind": _NONLINEARITY_KIND,
                "coeffs": (lambda rows: [_floats(r) for r in rows],),
                "smallness": (_one_of("local", "global"), "local")},
    piecewise_linear={"kind": _NONLINEARITY_KIND, "breakpoints": (_floats,),
                      "slopes": (_floats,)},
)
_NONLINEARITY_SPECS = {"zero": NonlinearitySpec.zero, "polynomial": NonlinearitySpec.polynomial,
                       "piecewise_linear": NonlinearitySpec.piecewise}
_ODE_TERM = {"k": ([_count],), "component": (_count, 0), "amplitude": (_finite,),
             "waveform": (_one_of("cos", "sin"), "cos")}
_PDE_TERM = {**_ODE_TERM,
             "j": (_where(lambda j: j != 0, "spatial forcing terms need j != 0", _count),)}
_PROBLEM_COMMON = {"kind": (str,), "d": (_at_least(1),), "K": (_at_least(1),),
                   "omega": ([_frequency],)}
_PROBLEM = _Choice(
    lambda doc: doc.get("kind"),
    ode={**_PROBLEM_COMMON, "n": (_at_least(1), 1), "A": (_floats,),
         "jordan": ([_JORDAN_BLOCK], None), "phi": (_floats, None),
         "nonlinearity": (_NONLINEARITY, {}), "forcing": ([_ODE_TERM],)},
    pde={**_PROBLEM_COMMON, "J": (_at_least(1),), "beta": (_finite,),
         "nonlinear": (_instance(bool, "true or false"), True),
         "forcing": ([_PDE_TERM],)},
)


# ---------------------------------------------------------------------------
# problem files


def _square(values: list[float], n: int, where: str) -> tuple:
    """Row-major entries as the rows of an n x n matrix."""
    if len(values) != n * n:
        raise InputError(f"{where}: expected {n * n} row-major entries, got {len(values)}")
    return tuple(tuple(values[row:row + n]) for row in range(0, n * n, n))


def _place_forcing(terms: list[dict], lat: SpectralLattice, path: str) -> FourierField:
    """Cosine/sine terms (k[, j], component, amplitude) placed symmetrically."""
    out = FourierField.zeros(lat)
    for i, term in enumerate(terms):
        tpath = f"{path}[{i}]"
        mode = tuple(term["k"])
        if len(mode) != lat.d:
            raise InputError(f"{tpath}.k: expected {lat.d} entries")
        if lat.has_space:
            mode += (term["j"],)
        if all(c == 0 for c in mode):
            raise InputError(f"{tpath}: zero-mean forcing forbids the k = 0 term")
        comp = term["component"]
        if not 0 <= comp < lat.n:
            raise InputError(f"{tpath}.component: out of range")
        cos = term["waveform"] == "cos"
        vec = np.zeros(lat.n, dtype=complex)
        vec[comp] = term["amplitude"] / (2.0 if cos else 2.0j)
        for m, v in ((mode, vec), (tuple(-c for c in mode), vec.copy() if cos else -vec)):
            out = out + FourierField.from_modes(lat, {m: v})
    return out


def _load_json(path: Path, what: str) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise InputError(f"{what} file {path} does not exist") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def parse_problem(path: str | Path) -> OdeProblem | PdeProblem:
    """Load and validate a problem document.

    All invariants are checked at load time: zero-mean forcing, real nonzero
    spectrum, beta admissibility, and non-resonance on the working lattice
    (decimal omega entries are accepted but still must pass the scan, which
    the problem classes run).
    """
    path = Path(path)
    doc = _parse(_load_json(path, "problem"), _PROBLEM, str(path))
    try:
        d, K, omega = doc["d"], doc["K"], tuple(doc["omega"])
        if doc["kind"] == "ode":
            n = doc["n"]
            lat = SpectralLattice(d=d, K=K, omega=omega, n=n)
            phi, jordan = doc["phi"], doc["jordan"]
            if jordan is not None:
                jordan = tuple(JordanBlock(b["lambda"], b["size"], b["p"], b["q"])
                               for b in jordan)
            linear = LinearPart(_square(doc["A"], n, f"{path}.A"), jordan,
                                None if phi is None else _square(phi, n, f"{path}.phi"))
            spec = doc["nonlinearity"]
            g_hat = _NONLINEARITY_SPECS[spec.pop("kind")](**spec)
            forcing = _place_forcing(doc["forcing"], lat, f"{path}.forcing")
            return OdeProblem(lattice=lat, linear=linear, g_hat=g_hat, forcing=forcing)
        lat = SpectralLattice(d=d, K=K, omega=omega, n=1, has_space=True, J=doc["J"])
        forcing = _place_forcing(doc["forcing"], lat, f"{path}.forcing")
        return PdeProblem(lattice=lat, beta=doc["beta"], forcing=forcing,
                          nonlinear=doc["nonlinear"])
    except InputError:
        raise
    except (ValueError, TypeError, AttributeError, ArithmeticError) as exc:
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# run configuration


@dataclasses.dataclass
class RunConfig:
    command: str
    problem: str | None
    solver: SolverConfig
    output_dir: str
    seed: int
    jobs: int = 1
    inject_fault: str | None = None
    params: dict = dataclasses.field(default_factory=dict)

    @staticmethod
    def load(path: str | Path, overrides: dict | None = None) -> "RunConfig":
        """The run config at ``path``; ``overrides`` are fields that replace
        the document's before it is parsed, as the command-line flags do.
        ``params`` is parsed by ``run``, against its command's table."""
        path = Path(path)
        doc = _load_json(path, "config")
        if isinstance(doc, dict):
            doc = {**doc, **(overrides or {})}
        fields = _parse(doc, _CONFIG, str(path))
        problem = fields["problem"]
        if problem is not None and not os.path.isabs(problem):
            problem = str((path.parent / problem).resolve())
        solver = fields["solver"]
        solver["norm"] = NormSpec(**solver["norm"])
        return RunConfig(**{**fields, "problem": problem, "solver": SolverConfig(**solver)})


# ---------------------------------------------------------------------------
# output documents


def _problem_hash(path: str | None) -> str:
    if path is None:
        return "none"
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _field_summary(field: FourierField, spec: NormSpec) -> dict:
    return {
        "lattice": dataclasses.asdict(field.lattice),
        "norm": {**dataclasses.asdict(spec), "value": norm(field, spec)},
        "max_abs_coefficient": field.max_abs(),
        "truncation_tail": truncation_tail_norm(field, spec),
    }


def _repr_column(values: np.ndarray) -> list[str]:
    """``repr`` of each float of a 1-D array, formatted once per distinct
    magnitude.

    The sign is a ``"-"`` prefix where the sign bit is set (so ``-0.0`` and
    ``-inf`` print as ``repr`` prints them); NaN never gets one, as ``repr``
    prints ``nan`` whatever its sign.
    """
    mags, inverse = np.unique(np.abs(values), return_inverse=True)
    text = np.array([repr(v) for v in mags.tolist()], dtype=object)
    column = text[inverse]
    negative = np.signbit(values) & ~np.isnan(values)
    signed, where = np.unique(inverse[negative], return_inverse=True)
    column[negative] = ("-" + text[signed])[where]
    return column.tolist()


def _row_magnitudes(rows: np.ndarray) -> np.ndarray:
    """sqrt(sum |c|^2) of each row.  A row whose sum of squares overflows,
    or underflows below the smallest normal float while some coefficient is
    nonzero, is rescaled: s sqrt(sum (|c| / s)^2) with s its largest |c|.
    The other rows, and rows holding an infinite |c|, keep the plain
    expression's bits."""
    with np.errstate(over="ignore"):
        squares = np.sum(np.abs(rows) ** 2, axis=-1)
    mags = np.sqrt(squares)
    redo = np.flatnonzero(np.isinf(squares) | ((squares < np.finfo(float).tiny)
                                               & np.any(rows != 0, axis=-1)))
    a = np.abs(rows[redo])
    s = np.max(a, axis=-1)
    finite = np.isfinite(s)
    redo, a, s = redo[finite], a[finite], s[finite]
    mags[redo] = s * np.sqrt(np.sum((a / s[:, None]) ** 2, axis=-1))
    return mags


def write_spectrum_csv(field: FourierField, spec: NormSpec, out_dir: Path,
                       stem: str = "spectrum") -> dict:
    """Index-sorted and magnitude-sorted tables of the coefficients above
    the field's roundoff floor; returns that floor and the rows kept and
    omitted, as ``{"roundoff_floor", "rows", "rows_omitted"}``.

    One row per mode whose magnitude is not at or below
    ``roundoff_floor(field)``, so a NaN magnitude is always kept, and a
    floor that is not finite keeps every row: the mode numbers, re/im of
    the first component, the mode's magnitude over all components and its
    norm weight.  Rows come out in C order, which is index order; the
    magnitude table is a stable sort, so equal magnitudes (the +-k pairs of
    Hermitian fields) keep index order.  Values print as ``csv`` would
    print them: the shortest round-trip ``repr`` of each float, CRLF rows.
    Each distinct value of the kept rows is formatted once: the mode
    numbers per axis, the floats per distinct magnitude (the sign is a
    prefix) and the weights per distinct clipped log-weight.  Each row is
    joined once and the lines are written in both orders.
    """
    lat = field.lattice
    all_mags = _row_magnitudes(field.coeffs.reshape(-1, field.coeffs.shape[-1]))
    floor = roundoff_floor(field)
    keep = (np.flatnonzero(~(all_mags <= floor)) if math.isfinite(floor)
            else np.arange(all_mags.size))
    index = np.unravel_index(keep, lat.mode_shape)
    first = field.coeffs[index + (0,)]
    mags = all_mags[keep]
    # each kept row's index along an axis picks its mode number's text
    labels = (np.array([str(k) for k in lat.axis_modes(axis).tolist()], dtype=object)[i]
              .tolist() for axis, i in enumerate(index))
    modes = map(",".join, zip(*labels))
    # math.exp per value: numpy's exp is not guaranteed to round the same way
    logw, inverse = np.unique(np.minimum(log_weights(lat, spec)[index], 700.0),
                              return_inverse=True)
    weights = np.array([repr(math.exp(w)) for w in logw.tolist()], dtype=object)
    columns = zip(modes, _repr_column(first.real), _repr_column(first.imag),
                  _repr_column(mags), weights[inverse].tolist())
    lines = [",".join(row) + "\r\n" for row in columns]
    del columns  # frees the formatted columns before the argsort makes its index list
    header = [f"k{i+1}" for i in range(lat.d)] + (["j"] if lat.has_space else []) \
        + ["re", "im", "abs", "weight_rho_m"]
    by_mag = map(lines.__getitem__, np.argsort(-mags, kind="stable").tolist())
    for suffix, rows in (("by_index", lines), ("by_magnitude", by_mag)):
        with open(out_dir / f"{stem}_{suffix}.csv", "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(rows)
    return {"roundoff_floor": floor, "rows": int(keep.size),
            "rows_omitted": int(all_mags.size - keep.size)}


def emit(out_dir: str | Path, result: dict, metadata: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(
        json.dumps(result, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )
    (out / "metadata.json").write_text(json.dumps(metadata, indent=2) + "\n")


def _sanitize(obj):
    """Make a JSON tree strict-finite: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, complex):
        return [_sanitize(obj.real), _sanitize(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


# ---------------------------------------------------------------------------
# commands


@contextmanager
def _parallel_map(jobs: int):
    """A thread-pool ``map`` for jobs > 1, the builtin ``map`` otherwise.
    Sweeps and the probe solve each eps cold, so both give the same bytes."""
    if jobs <= 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def _cmd_solve(cfg: RunConfig, prob, params: dict, out: Path) -> tuple[int, dict]:
    U, rep = solve_fixed_point(params["epsilon"], prob, cfg.solver)
    result = {
        "report": dataclasses.asdict(rep),
        "solution": _field_summary(U, cfg.solver.norm),
    }
    if isinstance(prob, OdeProblem):
        result["ratio_fit_r2"] = geometric_fit_r2(rep.increments)
    result["spectrum"] = write_spectrum_csv(U, cfg.solver.norm, out)
    code = EXIT_OK if rep.status == "converged" else EXIT_NOCONV
    return code, result


def _cmd_sweep(cfg: RunConfig, prob, params: dict, out: Path) -> tuple[int, dict]:
    if "sigmas" in params:
        entries = sweep_sigma_ladder(prob, cfg.solver, params["sigmas"],
                                     samples_per_sigma=params["samples_per_sigma"],
                                     keep_solutions=False)
    else:
        with _parallel_map(cfg.jobs) as map_fn:
            entries = sweep_epsilon(EpsilonDomain(**params["domain"]), prob, cfg.solver,
                                    count=params["count"], keep_solutions=False,
                                    map_fn=map_fn)
    rows = [
        {
            "eps": [e.eps.real, e.eps.imag],
            "status": e.report.status,
            "sol_norm": e.sol_norm,
            "iterations": e.report.iterations,
        }
        for e in entries
    ]
    flagged = [r for r in rows if r["status"] != "converged"]
    result = {"entries": rows, "flagged_count": len(flagged)}
    return EXIT_OK, result


def _cmd_probe_analytic(cfg: RunConfig, prob, params: dict, out: Path) -> tuple[int, dict]:
    sigma = params["sigma"]
    dom = EpsilonDomain.cone(sigma, params["mu"])
    center = complex(1.5 * sigma) if params["center"] is None else params["center"]
    radius = 0.2 * sigma if params["radius"] is None else params["radius"]
    with _parallel_map(cfg.jobs) as map_fn:
        probe = analyticity_probe(center, radius, prob, cfg.solver, points=params["points"],
                                  domain=dom, map_fn=map_fn)
    return EXIT_OK, dataclasses.asdict(probe)


def _cmd_low_reg(cfg: RunConfig, prob: OdeProblem, params: dict,
                 out: Path) -> tuple[int, dict]:
    res = low_regularity_solve(params["epsilon"], prob, cfg.solver, params["s_grid"])
    result = {
        "report": dataclasses.asdict(res.report),
        "l2_ratio": res.l2_ratio,
        "rates": {
            str(s): {
                "fitted": res.fitted_rates[s],
                "predicted": res.predicted_rates[s],
            }
            for s in res.s_grid
        },
    }
    return (EXIT_OK if res.report.status == "converged" else EXIT_NOCONV), result


def _cmd_verify(cfg: RunConfig, prob, params: dict, out: Path) -> tuple[int, dict]:
    if isinstance(prob, OdeProblem) and prob.linear.jordan is None:
        raise InputError(f"{cfg.problem}.jordan: verify needs the Jordan data "
                         "of a non-diagonal A")
    cert = certify_bounds(prob, EpsilonDomain(**params["domain"]),
                          samples=params["samples"], fault=cfg.inject_fault)
    result = {**dataclasses.asdict(cert), "fault": cfg.inject_fault}
    return (EXIT_OK if cert.passed else EXIT_CERT), result


def _cmd_demo_liouville(cfg: RunConfig, prob: None, params: dict,
                        out: Path) -> tuple[int, dict]:
    spec = LiouvilleSpec(levels=params["levels"], growth=params["growth"],
                         first_quotient=params["first_quotient"])
    K, ladder = params["K"], params["eps_ladder"]
    freq = build_liouville(spec)
    usable = [w for w in freq.witnesses if max(abs(w.k[0]), abs(w.k[1])) <= K]
    liou_prob = make_witness_problem(freq.omega, [w.k for w in usable], K)
    liou = nondiff_probe(liou_prob, ladder)

    golden = (1.0, SYMBOLIC_OMEGA["golden"])
    control_ks = [(-13, 8)]
    control_prob = make_witness_problem(golden, control_ks, K)
    control = nondiff_probe(control_prob, ladder)
    control_scan = scan_for_witnesses(golden, 50)

    result = {
        "omega": list(freq.omega),
        "witnesses": [
            {
                "k": list(w.k), "divisor_log10": w.divisor_log10,
                "divisor_float": w.divisor_float, "bound": w.bound,
            }
            for w in freq.witnesses
        ],
        "truncated_at": freq.truncated_at,
        "notes": freq.notes,
        "liouville": {
            "quotients": liou.quotients,
            "decade_growth": liou.decade_growth,
            "max_decade_growth": liou.max_decade_growth,
            "closed_form_mismatch": liou.closed_form_mismatch,
        },
        "control": {
            "quotients": control.quotients,
            "decade_growth": control.decade_growth,
            "max_decade_growth": control.max_decade_growth,
            "witness_scan_hits": len(control_scan),
        },
    }
    return EXIT_OK, result


_DOMAIN = _Choice(
    lambda doc: doc.get("kind"),
    complex_cone={"kind": (str,), "sigma": (_positive,), "mu": (_positive,)},
    real_annulus={"kind": (str,), "sigma": (_positive,)},
)
# each command's params table; the handler reads the converted values
_SWEEP = _Choice(
    lambda doc: "sigmas" if "sigmas" in doc else "domain",
    sigmas={"sigmas": (_where(lambda s: s and min(s) > 0.0,
                              "need at least one sigma, each > 0", _floats),),
            "samples_per_sigma": (_at_least(1), 3)},
    domain={"domain": (_DOMAIN,), "count": (_at_least(1), 8)},
)
_PROBE = {"sigma": (_where(lambda x: x > 0.0, "sigma > 0 required", _finite), 0.05),
          "mu": (_where(lambda x: x > 0.0, "complex cone needs aperture mu > 0", _finite), 5.0),
          "center": (_finite_complex, None),
          "radius": (_positive, None), "points": (_at_least(2), 16)}
_LOW_REG = {"epsilon": (_finite_complex, 0.05),
            "s_grid": (_where(lambda s: all(0.0 <= x < 1.0 for x in s),
                              "each s must lie in [0, 1)", _floats), [0.0, 0.25, 0.5, 0.75])}
_VERIFY = {"domain": (_DOMAIN, {"kind": "real_annulus", "sigma": 0.01}),
           "samples": (_at_least(1), 8)}
# a difference quotient needs two eps, and its growth per decade two quotients
_LIOUVILLE = {"levels": (_where(lambda n: 0 <= n <= 4, "levels must be in 0..4", _count), 2),
              "growth": (_positive, 1.0),
              "first_quotient": (_at_least(1), 3), "K": (_at_least(1), 16),
              "eps_ladder": (_where(
                  lambda e: len(e) >= 3 and len(set(e)) == len(e) and min(e) > 0.0,
                  "need at least three distinct values, each > 0", _floats),
                  np.geomspace(1e-2, 1e-6, 13).tolist())}

# command -> (handler, accepted problem classes, params table); () means no
# problem file
COMMANDS = {
    "solve-ode": (_cmd_solve, (OdeProblem,), {"epsilon": (_finite_complex, 0.05)}),
    "solve-pde": (_cmd_solve, (PdeProblem,), {"epsilon": (_finite_complex, 0.02)}),
    "sweep": (_cmd_sweep, (OdeProblem, PdeProblem), _SWEEP),
    "probe-analytic": (_cmd_probe_analytic, (OdeProblem, PdeProblem), _PROBE),
    "low-reg": (_cmd_low_reg, (OdeProblem,), _LOW_REG),
    "verify": (_cmd_verify, (OdeProblem, PdeProblem), _VERIFY),
    "demo-liouville": (_cmd_demo_liouville, (), _LIOUVILLE),
}

_SOLVER = {"tol": (_positive, 1e-10), "max_iter": (_at_least(1), 200),
           "ball_radius": (_ball_radius, math.inf),
           "norm": ({"rho": (_non_negative, 0.0), "m": (_non_negative, 0.0)}, {})}
_CONFIG = {"command": (_one_of(*COMMANDS),), "problem": (_instance(str, "a path"), None),
           "solver": (_SOLVER, {}), "params": (_instance(dict, "an object"), {}),
           "output_dir": (_instance(str, "a path"), "runs/out"), "seed": (_count, 0),
           "jobs": (_at_least(1), 1), "inject_fault": (_one_of(*FAULT_NAMES), None)}

_KIND_NAMES = {OdeProblem: "an ODE", PdeProblem: "a PDE"}


def run(cfg: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    try:
        prob = None
        handler, kinds, params = COMMANDS[cfg.command]
        if kinds:
            if cfg.problem is None:
                raise InputError(f"command {cfg.command} needs a problem file")
            prob = parse_problem(cfg.problem)
            if not isinstance(prob, kinds):
                raise InputError(f"{cfg.command} needs "
                                 f"{' or '.join(_KIND_NAMES[k] for k in kinds)} problem")
        code, result = handler(cfg, prob, _parse(cfg.params, params, "params"), out)
    except Exception as exc:
        # an InputError, or a ValueError from the library's argument checks,
        # which run before any solve; LinAlgError is one too, but a solver's
        if isinstance(exc, ValueError) and not isinstance(exc, np.linalg.LinAlgError):
            _emit_error(cfg, out, str(exc), EXIT_INPUT)
            return EXIT_INPUT
        log.exception("command failed")     # solver failures become documented errors
        _emit_error(cfg, out, f"{type(exc).__name__}: {exc}", EXIT_NOCONV)
        return EXIT_NOCONV

    result["command"] = cfg.command
    result["seed"] = cfg.seed
    result["problem_hash"] = _problem_hash(cfg.problem)
    result["solver"] = dataclasses.asdict(cfg.solver)
    if prob is not None:
        result["lattice"] = dataclasses.asdict(prob.lattice)
    metadata = _metadata(cfg)
    emit(out, _sanitize(result), metadata)
    return code


def _emit_error(cfg: RunConfig, out: Path, message: str, code: int) -> None:
    emit(out, {"command": cfg.command, "error": message, "exit_code": code,
               "seed": cfg.seed},
         _metadata(cfg))


def _metadata(cfg: RunConfig) -> dict:
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "version": __version__,
        "command": cfg.command,
        "jobs": cfg.jobs,
    }


def _flag_count(text: str) -> int | str:
    """A count flag's text as an int; text that is not a whole number stays
    a string, which the config table rejects under the field's name."""
    try:
        return int(text)
    except ValueError:
        return text


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="response-solver",
        description="Spectral fixed-point solver for quasi-periodic response solutions",
    )
    parser.add_argument("--config", required=True, help="run configuration JSON")
    # each flag replaces its config field, and is parsed with it
    parser.add_argument("--jobs", type=_flag_count, help="worker pool size")
    parser.add_argument("--seed", type=_flag_count, help="seed recorded in result.json")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--inject-fault",
                        help=f"test hook: double a certified multiplier {FAULT_NAMES}")

    level = os.environ.get("RESPONSE_SOLVER_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    try:
        flags = vars(parser.parse_args(argv))
        cfg = RunConfig.load(flags.pop("config"),
                             {k: v for k, v in flags.items() if v is not None})
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
