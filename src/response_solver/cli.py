"""Batch front door: parse problem files, dispatch commands, emit results.

Problems and run configurations are JSON documents (schema in the README).
Every run writes a deterministic ``result.json`` (sorted keys, no
timestamps) plus ``metadata.json`` and, for solve commands, plot-ready CSV
spectra.  Exit codes: 0 success, 2 solver non-convergence, 3 certification
failure, 4 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
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
# problem files


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise InputError(f"{path}: missing field {key!r}")
    return doc[key]


def _count(value) -> int:
    """``int(value)`` for a whole number; a bool or a fraction raises
    ValueError rather than being read as 1 or truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer count")
    return int(value)


def _finite(value, kind: Callable = float):
    """``kind(value)``, a float, complex or array whose every number is
    finite; NaN or an infinity raises ValueError, as a value that does not
    convert does."""
    number = kind(value)
    if not np.all(np.isfinite(number)):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _finite_complex(value) -> complex:
    return _finite(value, complex)


def _finite_array(value) -> np.ndarray:
    return _finite(value, lambda v: np.asarray(v, dtype=float))


def _floats(values) -> list[float]:
    return [_finite(v) for v in values]


def _ball_radius(value) -> float:
    """A finite radius, or inf for no ball."""
    radius = float(value)
    return radius if radius == math.inf else _finite(radius)


_REQUIRED = object()


def _param(doc: dict, key: str, convert: Callable = _finite, default=_REQUIRED,
           path: str = "params"):
    """``convert(doc[key])``, or of ``default`` when the key is absent; a
    missing required key, or a value that does not convert, is an input
    error that names ``path.key``."""
    value = _require(doc, key, path) if default is _REQUIRED else doc.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}.{key}: {value!r} is not valid ({exc})") from exc


def _parse_omega(raw, path: str) -> tuple[float, ...]:
    out = []
    for i, entry in enumerate(raw):
        if isinstance(entry, str) and entry in SYMBOLIC_OMEGA:
            out.append(SYMBOLIC_OMEGA[entry])
            continue
        try:
            out.append(_finite(entry))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}.omega[{i}]: {entry!r} is neither symbolic "
                             f"{sorted(SYMBOLIC_OMEGA)} nor a finite decimal") from exc
    return tuple(out)


def _parse_nonlinearity(doc: dict, path: str) -> NonlinearitySpec:
    kind = doc.get("kind", "zero")
    if kind == "zero":
        return NonlinearitySpec.zero()
    if kind == "polynomial":
        return NonlinearitySpec.polynomial(
            _param(doc, "coeffs", lambda rows: [_floats(r) for r in rows], path=path),
            smallness=doc.get("smallness", "local"),
        )
    if kind == "piecewise_linear":
        return NonlinearitySpec.piecewise(_param(doc, "breakpoints", _floats, path=path),
                                          _param(doc, "slopes", _floats, path=path))
    raise InputError(f"{path}.kind: unknown nonlinearity {kind!r}")


def _parse_forcing(terms: list, lat: SpectralLattice, path: str) -> FourierField:
    """Cosine/sine terms (k[, j], component, amplitude) placed symmetrically."""
    out = FourierField.zeros(lat)
    for i, term in enumerate(terms):
        tpath = f"{path}[{i}]"
        k = tuple(_count(c) for c in _require(term, "k", tpath))
        if len(k) != lat.d:
            raise InputError(f"{tpath}.k: expected {lat.d} entries")
        if lat.has_space:
            j = _count(_require(term, "j", tpath))
            if j == 0:
                raise InputError(f"{tpath}.j: spatial forcing terms need j != 0")
            mode = k + (j,)
        else:
            mode = k
        if all(c == 0 for c in mode):
            raise InputError(f"{tpath}: zero-mean forcing forbids the k = 0 term")
        comp = _count(term.get("component", 0))
        if not 0 <= comp < lat.n:
            raise InputError(f"{tpath}.component: out of range")
        amp = _param(term, "amplitude", path=tpath)
        kind = term.get("waveform", "cos")
        vec = np.zeros(lat.n, dtype=complex)
        if kind == "cos":
            vec[comp] = amp / 2.0
            delta = {mode: vec, tuple(-c for c in mode): vec.copy()}
        elif kind == "sin":
            vec[comp] = amp / (2.0j)
            delta = {mode: vec, tuple(-c for c in mode): -vec}
        else:
            raise InputError(f"{tpath}.waveform: expected 'cos' or 'sin'")
        for m, v in delta.items():
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
    doc = _load_json(path, "problem")
    try:
        kind = _require(doc, "kind", str(path))
        if kind not in ("ode", "pde"):
            raise InputError(f"{path}.kind: expected 'ode' or 'pde', got {kind!r}")
        d = _count(_require(doc, "d", str(path)))
        K = _count(_require(doc, "K", str(path)))
        omega = _parse_omega(_require(doc, "omega", str(path)), str(path))
        if kind == "ode":
            n = _count(doc.get("n", 1))
            lat = SpectralLattice(d=d, K=K, omega=omega, n=n)
            raw_a = _param(doc, "A", _finite_array, path=str(path))
            if raw_a.size != n * n:
                raise InputError(f"{path}.A: expected {n * n} row-major entries, "
                                 f"got {raw_a.size}")
            A = raw_a.reshape(n, n)
            jordan = None
            phi = None
            if "jordan" in doc:
                try:
                    jordan = tuple(
                        JordanBlock(_finite(b["lambda"]), _count(b["size"]),
                                    _finite(b.get("p", 1.0)), _finite(b.get("q", 1.0)))
                        for b in doc["jordan"]
                    )
                except (KeyError, ValueError, TypeError) as exc:
                    raise InputError(f"{path}.jordan: {exc}") from exc
            if "phi" in doc:
                raw_phi = _param(doc, "phi", _finite_array, path=str(path))
                if raw_phi.size != n * n:
                    raise InputError(f"{path}.phi: expected {n * n} row-major entries")
                phi = tuple(map(tuple, raw_phi.reshape(n, n)))
            linear = LinearPart(tuple(map(tuple, A.tolist())), jordan, phi)
            g_hat = _parse_nonlinearity(doc.get("nonlinearity", {"kind": "zero"}),
                                        f"{path}.nonlinearity")
            forcing = _parse_forcing(_require(doc, "forcing", str(path)), lat,
                                     f"{path}.forcing")
            return OdeProblem(lattice=lat, linear=linear, g_hat=g_hat, forcing=forcing)
        J = _count(_require(doc, "J", str(path)))
        beta = _param(doc, "beta", path=str(path))
        lat = SpectralLattice(d=d, K=K, omega=omega, n=1, has_space=True, J=J)
        forcing = _parse_forcing(_require(doc, "forcing", str(path)), lat,
                                 f"{path}.forcing")
        return PdeProblem(lattice=lat, beta=beta, forcing=forcing,
                          nonlinear=bool(doc.get("nonlinear", True)))
    except InputError:
        raise
    except (ValueError, TypeError, AttributeError, ArithmeticError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def epsilon_domain_from(doc: dict, path: str) -> EpsilonDomain:
    kind = _require(doc, "kind", path)
    sigma = _param(doc, "sigma", path=path)
    mu = _param(doc, "mu", path=path) if kind == "complex_cone" else 0.0
    try:
        return EpsilonDomain(kind, sigma, mu)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _sigmas(values) -> list[float]:
    sigmas = _floats(values)
    if not sigmas or not all(s > 0.0 for s in sigmas):
        raise ValueError("need at least one sigma, each > 0")
    return sigmas


def _s_grid(values) -> list[float]:
    s_grid = _floats(values)
    if not all(0.0 <= s < 1.0 for s in s_grid):
        raise ValueError("each s must lie in [0, 1)")
    return s_grid


def _sample_count(params: dict, key: str, default: int = 8, least: int = 1) -> int:
    count = _param(params, key, _count, default)
    if count < least:
        raise InputError(f"params.{key}: {count} samples; at least {least} needed")
    return count


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
        the document's before it is parsed, as the command-line flags do."""
        path = Path(path)
        doc = _load_json(path, "config")
        try:
            doc = {**doc, **(overrides or {})}
            command = _require(doc, "command", str(path))
            if command not in COMMANDS:
                raise InputError(f"{path}.command: unknown command {command!r}")
            fault = doc.get("inject_fault")
            if fault is not None and fault not in FAULT_NAMES:
                raise InputError(f"{path}.inject_fault: unknown fault {fault!r}; "
                                 f"known: {FAULT_NAMES}")
            params = doc.get("params", {})
            if not isinstance(params, dict):
                raise InputError(f"{path}.params: expected an object, got {params!r}")
            solver_doc = doc.get("solver", {})
            nd = solver_doc.get("norm", {"rho": 0.0, "m": 0.0})
            where = f"{path}.solver"
            solver = SolverConfig(
                tol=_param(solver_doc, "tol", default=1e-10, path=where),
                max_iter=_param(solver_doc, "max_iter", _count, 200, where),
                ball_radius=_param(solver_doc, "ball_radius", _ball_radius, math.inf, where),
                norm=NormSpec(_param(nd, "rho", default=0.0, path=f"{where}.norm"),
                              _param(nd, "m", default=0.0, path=f"{where}.norm")),
            )
            problem = doc.get("problem")
            if problem is not None:
                problem = str((path.parent / problem).resolve()
                              if not os.path.isabs(problem) else problem)
            jobs = _param(doc, "jobs", _count, 1, str(path))
            if jobs < 1:
                raise InputError(f"{path}.jobs: {jobs} workers; at least 1 needed")
            return RunConfig(
                command=command,
                problem=problem,
                solver=solver,
                output_dir=str(doc.get("output_dir", "runs/out")),
                seed=_param(doc, "seed", _count, 0, str(path)),
                jobs=jobs,
                inject_fault=fault,
                params=params,
            )
        except InputError:
            raise
        except (ValueError, TypeError, AttributeError) as exc:
            raise InputError(f"{path}: {exc}") from exc


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
                       stem: str = "spectrum") -> None:
    """Index-sorted and magnitude-sorted coefficient tables.

    One row per mode: the mode numbers, re/im of the first component, the
    mode's magnitude over all components and its norm weight.  Rows come out
    in C order, which is index order; the magnitude table is a stable sort,
    so equal magnitudes (the +-k pairs of Hermitian fields) keep index order.
    Values print as ``csv`` would print them: the shortest round-trip
    ``repr`` of each float, CRLF rows.  Each distinct value is formatted
    once: the mode numbers per axis, the floats per distinct magnitude (the
    sign is a prefix) and the weights per distinct clipped log-weight.  Each
    row is joined once and the lines are written in both orders.
    """
    lat = field.lattice
    first = field.coeffs[..., 0].ravel()
    mags = _row_magnitudes(field.coeffs.reshape(-1, field.coeffs.shape[-1]))
    axes = ([str(k) for k in lat.axis_modes(i).tolist()] for i in range(lat.n_axes))
    modes = map(",".join, itertools.product(*axes))
    # math.exp per value: numpy's exp is not guaranteed to round the same way
    logw, inverse = np.unique(np.minimum(log_weights(lat, spec), 700.0).ravel(),
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


def _cmd_solve(cfg: RunConfig, prob, out: Path) -> tuple[int, dict]:
    is_ode = isinstance(prob, OdeProblem)
    eps = _param(cfg.params, "epsilon", _finite_complex, 0.05 if is_ode else 0.02)
    U, rep = solve_fixed_point(eps, prob, cfg.solver)
    result = {
        "report": rep.to_dict(),
        "solution": _field_summary(U, cfg.solver.norm),
    }
    if is_ode:
        result["ratio_fit_r2"] = geometric_fit_r2(rep.increments)
    write_spectrum_csv(U, cfg.solver.norm, out)
    code = EXIT_OK if rep.status == "converged" else EXIT_NOCONV
    return code, result


def _cmd_sweep(cfg: RunConfig, prob, out: Path) -> tuple[int, dict]:
    params = cfg.params
    if "sigmas" in params:
        entries = sweep_sigma_ladder(
            prob, cfg.solver, _param(params, "sigmas", _sigmas),
            samples_per_sigma=_sample_count(params, "samples_per_sigma", 3),
            keep_solutions=False,
        )
    else:
        dom = epsilon_domain_from(_require(params, "domain", "params"), "params.domain")
        with _parallel_map(cfg.jobs) as map_fn:
            entries = sweep_epsilon(dom, prob, cfg.solver,
                                    count=_sample_count(params, "count"),
                                    keep_solutions=False, map_fn=map_fn)
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


def _cmd_probe_analytic(cfg: RunConfig, prob, out: Path) -> tuple[int, dict]:
    params = cfg.params
    sigma = _param(params, "sigma", default=0.05)
    mu = _param(params, "mu", default=5.0)
    dom = EpsilonDomain.cone(sigma, mu)
    center = _param(params, "center", _finite_complex, 1.5 * sigma)
    radius = _param(params, "radius", default=0.2 * sigma)
    points = _sample_count(params, "points", 16, least=2)
    with _parallel_map(cfg.jobs) as map_fn:
        probe = analyticity_probe(center, radius, prob, cfg.solver, points=points,
                                  domain=dom, map_fn=map_fn)
    return EXIT_OK, dataclasses.asdict(probe)


def _cmd_low_reg(cfg: RunConfig, prob: OdeProblem, out: Path) -> tuple[int, dict]:
    params = cfg.params
    eps = _param(params, "epsilon", _finite_complex, 0.05)
    s_grid = _param(params, "s_grid", _s_grid, [0.0, 0.25, 0.5, 0.75])
    res = low_regularity_solve(eps, prob, cfg.solver, s_grid)
    result = {
        "report": res.report.to_dict(),
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


def _cmd_verify(cfg: RunConfig, prob, out: Path) -> tuple[int, dict]:
    params = cfg.params
    dom = epsilon_domain_from(
        params.get("domain", {"kind": "real_annulus", "sigma": 0.01}), "params.domain"
    )
    if isinstance(prob, OdeProblem) and prob.linear.jordan is None:
        raise InputError(f"{cfg.problem}.jordan: verify needs the Jordan data "
                         "of a non-diagonal A")
    cert = certify_bounds(prob, dom, samples=_sample_count(params, "samples"),
                          fault=cfg.inject_fault)
    result = {**dataclasses.asdict(cert), "fault": cfg.inject_fault}
    return (EXIT_OK if cert.passed else EXIT_CERT), result


def _cmd_demo_liouville(cfg: RunConfig, prob: None, out: Path) -> tuple[int, dict]:
    params = cfg.params
    spec = LiouvilleSpec(
        levels=_param(params, "levels", _count, 2),
        growth=_param(params, "growth", default=1.0),
        first_quotient=_param(params, "first_quotient", _count, 3),
    )
    freq = build_liouville(spec)
    K = _param(params, "K", _count, 16)
    ladder = _param(params, "eps_ladder", _floats, np.geomspace(1e-2, 1e-6, 13).tolist())
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


# command -> (handler, accepted problem classes); () means no problem file
COMMANDS = {
    "solve-ode": (_cmd_solve, (OdeProblem,)),
    "solve-pde": (_cmd_solve, (PdeProblem,)),
    "sweep": (_cmd_sweep, (OdeProblem, PdeProblem)),
    "probe-analytic": (_cmd_probe_analytic, (OdeProblem, PdeProblem)),
    "low-reg": (_cmd_low_reg, (OdeProblem,)),
    "verify": (_cmd_verify, (OdeProblem, PdeProblem)),
    "demo-liouville": (_cmd_demo_liouville, ()),
}

_KIND_NAMES = {OdeProblem: "an ODE", PdeProblem: "a PDE"}


def run(cfg: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    try:
        prob = None
        handler, kinds = COMMANDS[cfg.command]
        if kinds:
            if cfg.problem is None:
                raise InputError(f"command {cfg.command} needs a problem file")
            prob = parse_problem(cfg.problem)
            if not isinstance(prob, kinds):
                raise InputError(f"{cfg.command} needs "
                                 f"{' or '.join(_KIND_NAMES[k] for k in kinds)} problem")
        code, result = handler(cfg, prob, out)
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


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="response-solver",
        description="Spectral fixed-point solver for quasi-periodic response solutions",
    )
    parser.add_argument("--config", required=True, help="run configuration JSON")
    # each flag replaces its config field, and is parsed with it
    parser.add_argument("--jobs", help="worker pool size")
    parser.add_argument("--seed", help="seed recorded in result.json")
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
