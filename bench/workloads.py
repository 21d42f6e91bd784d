"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (part of the
timed set-up), runs one untimed warm-up op in ``warmup`` and runs one round
of ops in ``run_round``.  A round is the same work every time, so rounds can
be repeated to fill the measuring time.  The package receives only the
generated inputs; the seed itself never reaches it.

Every op is checked after it is timed; a check that fails, or an op that
raises, counts the op as failed.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np

import response_solver as rs
from response_solver import cli, ode
from response_solver.pde import manufactured_forcing

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

# keys of result.json compared exactly, and the solution norms compared to
# 1e-10 relative
EXACT_KEYS = ("status", "iterations", "flagged_count", "passed")
NORM_RTOL = 1e-10


def _stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform draw in each of ``count`` equal slices of [0, 1)."""
    return (np.arange(count) + rng.random(count)) / count


def real_annulus(rng, sigma: float, count: int) -> list[complex]:
    """Seeded eps with |eps| in [sigma, 2 sigma], random sign."""
    radii = sigma * (1.0 + _stratified(rng, count))
    signs = rng.choice((-1.0, 1.0), size=count)
    return [complex(s * r) for s, r in zip(signs, radii)]


def complex_cone(rng, sigma: float, mu: float, count: int) -> list[complex]:
    """Seeded eps in the cone Re(eps) >= mu |Im(eps)|, sigma <= |eps| <= 2 sigma."""
    radii = sigma * (1.0 + _stratified(rng, count))
    phase = math.atan2(1.0, mu) * (2.0 * rng.random(count) - 1.0)
    return [r * cmath.exp(1j * p) for r, p in zip(radii, phase)]


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def max_abs_diff(U, W) -> float:
    """Largest coefficient difference on W's lattice, which U's contains."""
    big, small = U.lattice, W.lattice
    cuts = [(big.K, small.K)] * small.d + [(big.J, small.J)] * small.has_space
    shared = tuple(slice(b - s, b + s + 1) for b, s in cuts)
    return float(np.max(np.abs(U.coeffs[shared] - W.coeffs)))


# ---------------------------------------------------------------------------
# cli_configs


def result_summary(doc, path: str = "") -> dict:
    """Statuses, iteration counts and solution norms of a result.json tree."""
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            sub = f"{path}.{key}" if path else key
            if key in EXACT_KEYS or key == "sol_norm":
                out[sub] = value
            elif key == "solution":
                out[sub + ".norm.value"] = value["norm"]["value"]
            else:
                out.update(result_summary(value, sub))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.update(result_summary(value, f"{path}[{i}]"))
    return out


def summary_mismatches(got: dict, want: dict) -> list[str]:
    bad = [f"{k} missing" for k in want if k not in got]
    bad += [f"{k} unexpected" for k in got if k not in want]
    for key in want.keys() & got.keys():
        a, b = got[key], want[key]
        if isinstance(b, float) and not isinstance(a, (bool, str)):
            ok = rel_close(float(a), b, NORM_RTOL)
        else:
            ok = a == b
        if not ok:
            bad.append(f"{key}: {a!r} != reference {b!r}")
    return bad


class CliConfigs:
    """Every shipped configs/*.json through cli.main, plus probe_cubic --jobs 2.

    This is what users run.  The solve_pde run writes two CSV spectra of about
    17.7 MB each, so the cli layer dominates and the numerics are light.
    """

    WARMUP = "solve_cubic"

    def __init__(self, root: Path, seed: int, workdir: Path):
        # the shipped configs are the inputs; the seed does not change them
        self.workdir = workdir
        configs = sorted((root / "configs").glob("*.json"))
        self.runs = [(c.stem, c, []) for c in configs]
        probe = root / "configs" / "probe_cubic.json"
        self.runs.append(("probe_cubic--jobs2", probe, ["--jobs", "2"]))
        for c in configs:
            problem = json.loads(c.read_text()).get("problem")
            if problem is not None:
                cli.parse_problem(c.parent / problem)
        self.planned = len(self.runs)

    def _main(self, config: Path, out: Path, extra: list[str]) -> int:
        return cli.main(["--config", str(config), "--out", str(out), *extra])

    def warmup(self) -> None:
        label, config, extra = next(r for r in self.runs if r[0] == self.WARMUP)
        self._main(config, self.workdir / "warmup", extra)

    def run_round(self, ctx) -> None:
        base = self.workdir / "round"
        try:
            for label, config, extra in self.runs:
                out = base / label
                code = ctx.op(label, lambda: self._main(config, out, extra))
                ctx.passed(label, self._problems(label, code, out, base))
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def _problems(self, label: str, code: int, out: Path, base: Path) -> list[str]:
        ref = REFERENCE["cli_configs"][label.split("--")[0]]
        bad = []
        if code != ref["exit_code"]:
            bad.append(f"exit code {code}, documented {ref['exit_code']}")
        raw = (out / "result.json").read_bytes()
        bad += summary_mismatches(result_summary(json.loads(raw)), ref["summary"])
        if label.endswith("--jobs2"):
            serial = base / label.split("--")[0] / "result.json"
            if raw != serial.read_bytes():
                bad.append("--jobs 2 result.json differs from the serial run")
        return bad


# ---------------------------------------------------------------------------
# ode_sweep


def translated(field, rng):
    """The field shifted by a seeded torus translation phi: u_k -> u_k e^{i k.phi}.

    A translated forcing gives the translated solution, with the same norms
    and the same iteration counts, so the seed changes the inputs but not
    the amount of work.
    """
    lat = field.lattice
    phi = tuple(rng.uniform(0.0, 2.0 * math.pi, lat.d))
    k_dot_phi = dataclasses.replace(lat, omega=phi).k_dot_omega()
    return rs.FourierField(lat, field.coeffs * np.exp(1j * k_dot_phi)[..., None])


def cubic_problem(rng, d: int, K: int) -> rs.OdeProblem:
    """Cubic oscillator g-hat = 0.1 x^3 on the d-torus with seeded forcing.

    The forcing is sum over axes of cos(theta_i) + cos(2 theta_i) / 2, scaled
    to the l2 norm of the shipped 0.2 cos(theta) example and translated by a
    seeded phase.
    """
    omega = (1.0, math.sqrt(2.0), math.sqrt(3.0))[:d]
    lat = rs.SpectralLattice(d=d, K=K, omega=omega)
    modes = {}
    for axis in range(d):
        for m, amp in ((1, 0.5), (2, 0.25)):
            k = tuple(m if i == axis else 0 for i in range(d))
            modes[k] = modes[tuple(-c for c in k)] = amp
    scale = math.sqrt(0.02 / sum(a * a for a in modes.values()))
    profile = rs.FourierField.from_modes(lat, {k: a * scale for k, a in modes.items()})
    return rs.OdeProblem(lattice=lat, linear=rs.LinearPart.scalar(1.0),
                         g_hat=rs.NonlinearitySpec.cubic(0.1),
                         forcing=translated(profile, rng))


class OdeSweep:
    """Warm-started eps sweeps of cubic oscillators on the lattice ladder.

    d1K16, d2K32, d3K12 and the n=2 Jordan problem, each swept over seeded
    eps in the complex cone and in the real annulus.  No I/O and no PDE: it
    exercises multipliers and the complex-FFT path of spectral.  The counts
    per problem put the median op inside the d2K32 group and the tail inside
    the d3K12 group, away from the jumps between groups.
    """

    SIGMA, MU = 0.05, 5.0
    CFG = rs.SolverConfig(tol=1e-12, ball_radius=1.0)

    def __init__(self, root: Path, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        jordan = cli.parse_problem(root / "problems" / "jordan_ode.json")
        jordan = dataclasses.replace(jordan, forcing=translated(jordan.forcing, rng))
        problems = [
            ("d1K16", cubic_problem(rng, 1, 16), 24),
            ("d2K32", cubic_problem(rng, 2, 32), 48),
            ("d3K12", cubic_problem(rng, 3, 12), 24),
            ("jordan", jordan, 24),
        ]
        self.sweeps = []
        for name, prob, count in problems:
            half = count // 2
            self.sweeps.append((f"{name}/complex", prob,
                                rs.EpsilonDomain.cone(self.SIGMA, self.MU),
                                complex_cone(rng, self.SIGMA, self.MU, half)))
            self.sweeps.append((f"{name}/real", prob,
                                rs.EpsilonDomain.annulus(self.SIGMA),
                                real_annulus(rng, self.SIGMA, half)))
        self.planned = sum(len(eps) for *_, eps in self.sweeps)

    def warmup(self) -> None:
        label, prob, domain, eps = self.sweeps[0]
        rs.solve_fixed_point(eps[0], prob, self.CFG)

    def run_round(self, ctx) -> None:
        for label, prob, domain, eps in self.sweeps:
            original = ode.solve_fixed_point
            timed = len(ctx.ops)
            # each solve inside sweep_epsilon is one timed op
            ode.solve_fixed_point = lambda *a, **k: ctx.op(label, lambda: original(*a, **k))
            try:
                entries = rs.sweep_epsilon(domain, prob, self.CFG, eps_values=eps)
            finally:
                ode.solve_fixed_point = original
            timed = len(ctx.ops) - timed
            for entry in entries:
                problems = self._problems(entry, prob)
                if timed != len(eps):
                    problems.append(f"{timed} of {len(eps)} solves went through "
                                    "ode.solve_fixed_point, so were not timed")
                ctx.passed(label, problems)

    def _problems(self, entry, prob) -> list[str]:
        rep = entry.report
        if rep.status != "converged":
            return [f"eps={entry.eps}: status {rep.status}"]
        res = rs.residual(entry.solution, entry.eps, prob, self.CFG.norm)
        if not res <= rep.kappa * self.CFG.tol:
            return [f"eps={entry.eps}: residual {res:.3e} > kappa tol"]
        return []


# ---------------------------------------------------------------------------
# pde_solve


def manufactured_pde(K: int, eps: float = 0.02, beta: float = 2.0,
                     amplitude: float = 0.01):
    """W = amplitude cos(theta_1) cos(x), forcing back-solved to make it exact."""
    lat = rs.SpectralLattice(d=2, K=K, omega=(1.0, math.sqrt(2.0)), n=1,
                             has_space=True, J=K)
    q = np.array([amplitude / 4.0 + 0j])
    W = rs.FourierField.from_modes(lat, {(1, 0, 1): q, (1, 0, -1): q,
                                         (-1, 0, 1): q, (-1, 0, -1): q})
    template = rs.PdeProblem(lattice=lat, beta=beta, forcing=rs.FourierField.zeros(lat))
    forcing = manufactured_forcing(W, eps, template)
    return rs.PdeProblem(lattice=lat, beta=beta, forcing=forcing), W, eps


class PdeSolve:
    """Library Boussinesq solves with no CSV output.

    The shipped d=2, K=J=32 problem at seeded real and complex-cone eps, and
    the manufactured K=32 and K=48 recoveries.  Dominated by spectral.product
    on the padded 3-D grid and pde.apply_n_inverse; never calls
    operator_norms or the cli layer.
    """

    SIGMA, MU = 0.02, 5.0          # every solve in [sigma, 2 sigma] takes 3 steps
    CFG = rs.SolverConfig(tol=1e-11, ball_radius=1.0)
    MANUFACTURED_CFG = rs.SolverConfig(tol=1e-12)

    def __init__(self, root: Path, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        shipped = cli.parse_problem(root / "problems" / "boussinesq_pde.json")
        shipped = dataclasses.replace(shipped, forcing=translated(shipped.forcing, rng))
        eps = (real_annulus(rng, self.SIGMA, 4)
               + complex_cone(rng, self.SIGMA, self.MU, 4))
        self.solves = [(f"K32/{'real' if e.imag == 0 else 'complex'}", shipped, e)
                       for e in eps]
        self.manufactured = [(f"manufactured/K{K}",) + manufactured_pde(K)
                             for K in (32, 48)]
        self.planned = len(self.solves) + len(self.manufactured)

    def warmup(self) -> None:
        label, prob, eps = self.solves[0]
        rs.pde_solve_fixed_point(eps, prob, self.CFG)

    def run_round(self, ctx) -> None:
        for label, prob, eps in self.solves:
            U, rep = ctx.op(label, lambda: rs.pde_solve_fixed_point(eps, prob, self.CFG))
            bad = [] if rep.status == "converged" else [f"status {rep.status}"]
            res = rs.pde_residual(U, eps, prob, self.CFG.norm)
            if not res <= rep.kappa * self.CFG.tol:
                bad.append(f"eps={eps}: residual {res:.3e} > kappa tol")
            ctx.passed(label, bad)
        for label, prob, W, eps in self.manufactured:
            U, rep = ctx.op(label, lambda: rs.pde_solve_fixed_point(
                eps, prob, self.MANUFACTURED_CFG))
            error = float(np.max(np.abs(U.coeffs - W.coeffs)))
            bad = [] if rep.status == "converged" else [f"status {rep.status}"]
            if not error <= 1e-9:
                bad.append(f"recovery error {error:.3e} > 1e-9")
            ctx.passed(label, bad)


# ---------------------------------------------------------------------------
# verify_oracles


class VerifyOracles:
    """The verification layer and the time-domain path of ode.

    Solves the cubic example at eps = 0.05, cross-checks it against the stiff
    integrator at horizon 200 (unperturbed and perturbed by 0.1), runs the
    ODE Newton oracle at a seeded real eps and the PDE one at eps = 0.02,
    and certifies the ODE and PDE cones at seeded sigma in [1e-3, 1e-1].
    Almost no FFT work.  The seven PDE certifications put the round's median
    op inside one group of like-sized calls, each long enough (24 eps
    samples) to time steadily.
    """

    EPS = 0.05
    MU = 100.0
    CFG = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
    PDE_CFG = rs.SolverConfig(tol=1e-12)

    def __init__(self, root: Path, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cubic = cli.parse_problem(root / "problems" / "cubic_ode.json")
        self.pde = cli.parse_problem(root / "problems" / "boussinesq_pde.json")
        self.eps_ode = float(rng.uniform(0.03, 0.07))
        self.eps_pde = 0.02         # the shipped solve_pde eps; its Newton cost is fixed
        self.certifications = [
            (f"certify-{kind}", prob, samples, rs.EpsilonDomain.cone(sigma, self.MU))
            for kind, prob, samples, count in (("ode", self.cubic, 8, 3),
                                               ("pde", self.pde, 24, 7))
            for sigma in 10.0 ** (-3.0 + 2.0 * _stratified(rng, count))
        ]
        self.attraction_ref = REFERENCE["verify_oracles"]["attraction_error"]
        self._picard_pde = None
        self.planned = 5 + len(self.certifications)

    def warmup(self) -> None:
        rs.solve_fixed_point(self.EPS, self.cubic, self.CFG)

    def run_round(self, ctx) -> None:
        cubic, pde = self.cubic, self.pde
        U, rep = ctx.op("solve", lambda: rs.solve_fixed_point(self.EPS, cubic, self.CFG))
        res = rs.residual(U, self.EPS, cubic, self.CFG.norm)
        ctx.passed("solve", [] if rep.status == "converged"
                   and res <= rep.kappa * self.CFG.tol
                   else [f"status {rep.status}, residual {res:.3e}"])

        track = ctx.op("crosscheck", lambda: rs.time_integration_crosscheck(
            self.EPS, cubic, U, horizon=200.0, t_skip=20.0))
        ctx.passed("crosscheck", [] if track.tracking_error <= 1e-6
                   else [f"tracking {track.tracking_error:.3e} > 1e-6"])
        attract = ctx.op("crosscheck-perturbed", lambda: rs.time_integration_crosscheck(
            self.EPS, cubic, U, horizon=200.0, perturbation=0.1, t_skip=20.0))
        ctx.passed("crosscheck-perturbed",
                   [] if rel_close(attract.attraction_error, self.attraction_ref, 1e-2)
                   else [f"attraction {attract.attraction_error:.4e} vs reference "
                         f"{self.attraction_ref:.4e}"])

        W = ctx.op("newton-ode", lambda: rs.newton_oracle_ode(self.eps_ode, cubic,
                                                              K_small=8))
        Up, _ = rs.solve_fixed_point(self.eps_ode, cubic, self.CFG)
        agree = max_abs_diff(Up, W)
        ctx.passed("newton-ode", [] if agree <= 1e-8
                   else [f"Picard vs Newton {agree:.3e} > 1e-8"])

        Wp = ctx.op("newton-pde", lambda: rs.newton_oracle_pde(self.eps_pde, pde,
                                                               K_small=6))
        if self._picard_pde is None:
            self._picard_pde, _ = rs.pde_solve_fixed_point(self.eps_pde, pde,
                                                           self.PDE_CFG)
        agree = max_abs_diff(self._picard_pde, Wp)
        scale = float(np.max(np.abs(Wp.coeffs)))
        ctx.passed("newton-pde", [] if agree <= 1e-8 * scale
                   else [f"Picard vs Newton {agree:.3e} > 1e-8 x {scale:.3e}"])

        for label, prob, samples, domain in self.certifications:
            cert = ctx.op(label, lambda: rs.certify_bounds(prob, domain, samples=samples))
            ctx.passed(label, [] if cert.passed else cert.violations or ["not passed"])


WORKLOADS = {
    "cli_configs": CliConfigs,
    "ode_sweep": OdeSweep,
    "pde_solve": PdeSolve,
    "verify_oracles": VerifyOracles,
}
