"""Contraction iteration for the damped oscillator hull-function equation.

The unknown is the hull function U on the d-torus with x(t) = U(omega t).
One Picard step applies U -> eps L^-1 [f - g_hat(U)]; with strong damping
this map contracts and the fixed point is the response solution.  The module
also provides epsilon sweeps with warm starts, an analyticity probe on
circles in the complex epsilon plane, the low-regularity (L^2 / H^s)
iteration, and a time-domain cross check against a stiff integrator.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from . import spectral
from .multipliers import (
    EpsilonDomain,
    LinearPart,
    ResonanceError,
    apply_scaled_inverse,
    operator_norms,
)
from .spectral import (
    FourierField,
    NonlinearitySpec,
    NormOverflowError,
    NormSpec,
    SpectralLattice,
    compose,
    directional_derivative,
    evaluate_at,
    norm,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OdeProblem:
    """Forced oscillator data: lattice, linear part, nonlinearity, forcing."""

    lattice: SpectralLattice
    linear: LinearPart
    g_hat: NonlinearitySpec
    forcing: FourierField

    def __post_init__(self):
        if self.forcing.lattice != self.lattice:
            raise ValueError("forcing lives on a different lattice")
        if self.lattice.has_space:
            raise ValueError("ODE problems use a torus-only lattice")
        if self.linear.n != self.lattice.n:
            raise ValueError("linear part dimension != lattice value dimension")
        mean = np.max(np.abs(self.forcing.mean_coefficient()))
        if mean > 1e-13:
            raise ValueError(f"forcing must have zero average (|f_0| = {mean:.2e})")
        defect = self.forcing.hermitian_defect()
        if defect > 1e-12 * (1 + self.forcing.max_abs()):
            raise ValueError("forcing must be real-symmetric")
        self.linear.validate_spectrum()
        self.lattice.validate_nonresonance()

    @property
    def smallness(self) -> str:
        return self.g_hat.smallness


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 200
    ball_radius: float = math.inf
    norm: NormSpec = NormSpec(0.0, 0.0)

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1 or self.ball_radius <= 0:
            raise ValueError("need tol > 0, max_iter >= 1, ball_radius > 0")


@dataclass
class SolveReport:
    """Per-solve iteration trace and termination status."""

    eps: complex
    status: str = "pending"          # converged | max_iter | left_ball | resonant | diverged
    iterations: int = 0
    ratios: list[float] = dc_field(default_factory=list)
    increments: list[float] = dc_field(default_factory=list)
    fp_residual: float = math.nan    # ||U - T(U)|| in the control norm
    residual: float = math.nan       # equation residual in the control norm
    sol_norm: float = math.nan
    kappa: float = math.nan          # 1 + sup_k |L(k.omega)| used in the stop test
    diagnostics: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "eps": [self.eps.real, self.eps.imag],
            "status": self.status,
            "iterations": self.iterations,
            "ratios": [float(r) for r in self.ratios],
            "increments": [float(x) for x in self.increments],
            "fp_residual": float(self.fp_residual),
            "residual": float(self.residual),
            "sol_norm": float(self.sol_norm),
            "kappa": float(self.kappa),
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# the contraction map


def picard_step(U: FourierField, eps: complex, prob: OdeProblem) -> FourierField:
    """One application of T(U) = eps L^-1 [f - g_hat(U)]."""
    rhs = prob.forcing - compose(U, prob.g_hat)
    return apply_scaled_inverse(eps, prob.linear, rhs)


def residual(U: FourierField, eps: complex, prob: OdeProblem,
             normspec: NormSpec | None = None) -> float:
    """Norm of eps (w.d)^2 U + (w.d) U + eps g(U) - eps f."""
    if normspec is None:
        normspec = NormSpec(0.0, 0.0)
    d1 = directional_derivative(U, 1)
    d2 = directional_derivative(U, 2)
    AU = FourierField(
        U.lattice, np.einsum("ij,...j->...i", prob.linear.array, U.coeffs)
    )
    gU = compose(U, prob.g_hat)
    res = eps * d2 + d1 + eps * (AU + gU) - eps * prob.forcing
    return norm(res, normspec)


def solve_fixed_point(eps: complex, prob: OdeProblem, cfg: SolverConfig,
                      u0: FourierField | None = None) -> tuple[FourierField, SolveReport]:
    """Iterate the contraction map to a fixed point.

    Stops when both the Picard increment and the equation residual pass the
    dual criterion ||dU|| <= tol, residual <= kappa tol with kappa measured
    on the lattice.  Locally small nonlinearities must keep the iterates
    inside ball_radius; globally Lipschitz-small ones run unconstrained.
    """
    report = SolveReport(eps=eps)
    if prob.g_hat.kind == "piecewise_linear" and abs(complex(eps).imag) > 0:
        raise ValueError(
            "piecewise-linear nonlinearities admit real eps only; "
            "complex continuation needs an analytic nonlinear part"
        )
    U = FourierField.zeros(prob.lattice) if u0 is None else u0.copy()
    try:
        norms = operator_norms(eps, prob.linear, prob.lattice)
    except ResonanceError as exc:
        report.status = "resonant"
        report.diagnostics["error"] = str(exc)
        return U, report
    report.kappa = 1.0 + norms["forward_sup"]
    c_emp = norms["scaled_inverse_sup"]
    report.diagnostics["c_emp"] = c_emp

    # measured smallness checks; informative, not enforced
    first = apply_scaled_inverse(eps, prob.linear, prob.forcing)
    first_norm = norm(first, cfg.norm)
    if math.isfinite(cfg.ball_radius):
        report.diagnostics["first_iterate_in_half_ball"] = bool(
            first_norm <= cfg.ball_radius / 2
        )
        lip = prob.g_hat.lipschitz_on_ball(cfg.ball_radius)
    else:
        lip = prob.g_hat.lip_hat if prob.g_hat.lip_hat is not None else math.nan
    if not math.isnan(lip) and math.isfinite(lip):
        report.diagnostics["contraction_product"] = c_emp * lip
        report.diagnostics["contraction_below_half"] = bool(c_emp * lip <= 0.5)
    report.diagnostics["smallness"] = prob.smallness
    if prob.g_hat.kind in ("callable", "piecewise_linear") \
            and first.hermitian_defect() <= 1e-9 * (1.0 + first.max_abs()):
        # inexact dealiasing: record the measured aliasing residual
        report.diagnostics["aliasing_estimate"] = \
            spectral.composition_aliasing_estimate(first, prob.g_hat)

    enforce_ball = prob.smallness == "local" and math.isfinite(cfg.ball_radius)
    return contract(lambda V: picard_step(V, eps, prob),
                    lambda V: residual(V, eps, prob, cfg.norm),
                    U, cfg, report, enforce_ball)


def contract(step: Callable[[FourierField], FourierField],
             eq_residual: Callable[[FourierField], float],
             U: FourierField, cfg: SolverConfig, report: SolveReport,
             enforce_ball: bool,
             check: Callable[[FourierField, int], None] | None = None,
             ) -> tuple[FourierField, SolveReport]:
    """Picard iteration U <- step(U) from U, shared by both equations.

    Records every increment ||step(U) - U|| and the ratio of consecutive
    increments in ``report``.  Exits, by ``report.status``:

    - ``converged``: increment <= tol and eq_residual <= kappa tol, with
      ``report.kappa`` set by the caller;
    - ``left_ball``: ``enforce_ball`` and the iterate left ball_radius;
    - ``resonant``: a step met a singular mode matrix;
    - ``diverged``: a step or a norm overflowed, or an increment was not
      finite; U is the last finite iterate;
    - ``max_iter``: none of the above within cfg.max_iter steps.

    ``check(U, it)`` runs on every accepted iterate and raises to abort.
    """
    prev_inc = None
    try:
        for it in range(1, cfg.max_iter + 1):
            U_next = step(U)
            inc = norm(U_next - U, cfg.norm)
            if not math.isfinite(inc):
                raise FloatingPointError(f"non-finite increment at step {it}")
            sol_norm = norm(U_next, cfg.norm)
            report.increments.append(inc)
            if prev_inc is not None and prev_inc > 0:
                report.ratios.append(inc / prev_inc)
            prev_inc = inc
            U = U_next
            report.iterations = it
            if check is not None:
                check(U, it)
            if enforce_ball and sol_norm > cfg.ball_radius:
                report.status = "left_ball"
                report.sol_norm = sol_norm
                return U, report
            if inc <= cfg.tol:
                eq_res = eq_residual(U)
                if eq_res <= report.kappa * cfg.tol:
                    report.status = "converged"
                    report.fp_residual = inc
                    report.residual = eq_res
                    report.sol_norm = sol_norm
                    return U, report
        report.status = "max_iter"
        report.fp_residual = prev_inc
        report.residual = eq_residual(U)
        report.sol_norm = sol_norm
    except (ResonanceError, FloatingPointError, NormOverflowError) as exc:
        report.status = "resonant" if isinstance(exc, ResonanceError) else "diverged"
        report.diagnostics["error"] = str(exc)
    return U, report


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepEntry:
    eps: complex
    report: SolveReport
    sol_norm: float
    solution: FourierField | None = None


def sweep_epsilon(dom: EpsilonDomain, prob: OdeProblem, cfg: SolverConfig,
                  count: int = 8, eps_values: Sequence[complex] | None = None,
                  keep_solutions: bool = True,
                  map_fn: Callable | None = None) -> list[SweepEntry]:
    """Solve across an epsilon domain, largest |eps| first.

    Sequential sweeps warm-start each solve from the previous solution on
    the same sign branch.  With ``map_fn`` (a parallel map) all solves are
    cold-started so the result is order-independent.  Non-convergent samples
    are flagged in their report; the sweep continues.
    """
    if eps_values is None:
        eps_values = dom.sample(count)
    eps_values = sorted(eps_values, key=lambda e: -abs(e))

    if map_fn is not None:
        results = list(map_fn(lambda e: solve_fixed_point(e, prob, cfg), eps_values))
        return [
            SweepEntry(e, rep, rep.sol_norm, U if keep_solutions else None)
            for e, (U, rep) in zip(eps_values, results)
        ]

    entries: list[SweepEntry] = []
    warm: dict[int, FourierField] = {}
    for e in eps_values:
        branch = 0 if abs(e.imag) > 1e-14 * abs(e) else (1 if e.real >= 0 else -1)
        U, rep = solve_fixed_point(e, prob, cfg, u0=warm.get(branch))
        if rep.status == "converged":
            warm[branch] = U
        else:
            log.warning("sweep sample eps=%s did not converge (%s)", e, rep.status)
        entries.append(SweepEntry(e, rep, rep.sol_norm, U if keep_solutions else None))
    return entries


def sweep_sigma_ladder(prob: OdeProblem, cfg: SolverConfig, sigmas: Sequence[float],
                       samples_per_sigma: int = 3, signs: tuple[int, ...] = (1,),
                       keep_solutions: bool = True) -> list[SweepEntry]:
    """Concatenated real-annulus sweeps over a decreasing sigma ladder."""
    eps_values: list[complex] = []
    for s in sorted(sigmas, reverse=True):
        for t in np.linspace(2.0, 1.0, samples_per_sigma):
            for sign in signs:
                eps_values.append(complex(sign * t * s))
    # dedupe while preserving magnitude order
    seen = set()
    ordered = []
    for e in sorted(eps_values, key=lambda e: -abs(e)):
        key = (round(e.real, 18), round(e.imag, 18))
        if key not in seen:
            seen.add(key)
            ordered.append(e)
    dom = EpsilonDomain.annulus(min(sigmas))
    return sweep_epsilon(dom, prob, cfg, eps_values=ordered,
                         keep_solutions=keep_solutions)


# ---------------------------------------------------------------------------
# regularity probes


@dataclass
class AnalyticityProbe:
    center: complex
    radius: float
    coefficient_norms: list[float]
    decay_ratios: list[float]
    geometric_ratio: float
    cauchy_vs_fd: float
    converged: bool


def analyticity_probe(center_eps: complex, radius: float, prob,
                      cfg: SolverConfig, points: int = 16,
                      domain: EpsilonDomain | None = None,
                      map_fn: Callable | None = None,
                      solve_fn: Callable | None = None) -> AnalyticityProbe:
    """Taylor coefficients of eps -> U_eps from a discrete Cauchy transform.

    Solves on ``points`` equispaced circle points, recovers the coefficients
    c_m = (1/P) sum_p U(eps_p) e^{-2 pi i m p / P} / radius^m, and compares
    the first derivative against a real-axis central difference with step
    radius / 20.

    ``solve_fn(eps, prob, cfg, u0=...)`` defaults to the oscillator solver;
    pass the Boussinesq fixed-point solver to probe a PDE problem with the
    same machinery.
    """
    if solve_fn is None:
        solve_fn = solve_fixed_point
    if domain is not None:
        for p in range(points):
            e = center_eps + radius * cmath.exp(2j * math.pi * p / points)
            if not domain.contains(e, rtol=1e-9):
                raise ValueError(f"circle point {e} leaves the epsilon domain")

    center_U, center_rep = solve_fn(center_eps, prob, cfg)
    if center_rep.status != "converged":
        raise RuntimeError(f"center solve failed: {center_rep.status}")

    eps_points = [
        center_eps + radius * cmath.exp(2j * math.pi * p / points)
        for p in range(points)
    ]

    def _solve(e):
        return solve_fn(e, prob, cfg, u0=center_U)

    mapper = map_fn if map_fn is not None else map
    solves = list(mapper(_solve, eps_points))
    ok = all(rep.status == "converged" for _, rep in solves)
    if not ok:
        bad = [e for e, (_, rep) in zip(eps_points, solves) if rep.status != "converged"]
        raise RuntimeError(f"circle solves failed at {bad}")

    stack = np.stack([U.coeffs for U, _ in solves])       # (P, *modes, n)
    phases = np.exp(-2j * math.pi * np.outer(np.arange(points), np.arange(points))
                    / points)
    # circle harmonics h_m = Taylor coefficient m times radius^m; for a map
    # analytic in a disc of radius R they decay like (radius / R)^m
    harmonic_norms = []
    half = points // 2
    for m in range(half + 1):
        h_m = np.tensordot(phases[m], stack, axes=(0, 0)) / points
        harmonic_norms.append(norm(FourierField(prob.lattice, h_m), cfg.norm))

    floor = max(harmonic_norms[0], 1.0) * 1e-13
    ratios = [
        harmonic_norms[m + 1] / harmonic_norms[m]
        for m in range(len(harmonic_norms) - 1)
        if harmonic_norms[m] > floor and harmonic_norms[m + 1] > floor
    ]
    geometric = float(np.median(ratios)) if ratios else 0.0

    # first Taylor coefficient (dU/deps) vs a real-axis central difference
    c1 = np.tensordot(phases[1], stack, axes=(0, 0)) / points / radius
    h = 0.05 * radius
    Up, rp = solve_fn(center_eps + h, prob, cfg, u0=center_U)
    Um, rm = solve_fn(center_eps - h, prob, cfg, u0=center_U)
    if rp.status != "converged" or rm.status != "converged":
        raise RuntimeError("finite-difference solves failed")
    fd = (Up.coeffs - Um.coeffs) / (2 * h)
    diff = norm(FourierField(prob.lattice, c1 - fd), cfg.norm)

    return AnalyticityProbe(
        center=center_eps,
        radius=radius,
        coefficient_norms=harmonic_norms,
        decay_ratios=[float(r) for r in ratios],
        geometric_ratio=geometric,
        cauchy_vs_fd=float(diff),
        converged=True,
    )


@dataclass
class LowRegularityResult:
    solution: FourierField
    report: SolveReport
    s_grid: list[float]
    increments: dict[float, list[float]]   # s -> per-step H^s increment norms
    fitted_rates: dict[float, float]       # s -> fitted log decay per step
    predicted_rates: dict[float, float]    # s -> (1 - s) log(measured L2 ratio)
    l2_ratio: float


def low_regularity_solve(eps: complex, prob: OdeProblem, cfg: SolverConfig,
                         s_grid: Sequence[float]) -> LowRegularityResult:
    """Contraction in L^2 with per-step H^s increment tracking.

    Requires a globally Lipschitz nonlinear part with measured contraction
    product below one.  For each s the geometric decay exponent of
    ||T^{n+1}u - T^n u||_{H^s} is fitted and compared with the prediction
    (1 - s) log(measured L^2 ratio).
    """
    for s in s_grid:
        if not 0.0 <= s < 1.0:
            raise ValueError("s_grid must lie in [0, 1)")
    if prob.g_hat.lip_hat is None:
        raise ValueError("low-regularity mode needs a declared global Lipschitz bound")
    norms = operator_norms(eps, prob.linear, prob.lattice)
    c_emp = norms["scaled_inverse_sup"]
    if c_emp * prob.g_hat.lip_hat >= 1.0:
        raise ValueError(
            f"not a contraction: C_emp * M = {c_emp * prob.g_hat.lip_hat:.3f} >= 1"
        )

    l2 = NormSpec(0.0, 0.0)
    U = FourierField.zeros(prob.lattice)
    per_s: dict[float, list[float]] = {float(s): [] for s in s_grid}
    l2_increments: list[float] = []
    for it in range(cfg.max_iter):
        U_next = picard_step(U, eps, prob)
        delta = U_next - U
        inc_l2 = norm(delta, l2)
        l2_increments.append(inc_l2)
        for s in per_s:
            per_s[s].append(spectral.hs_norm(delta, s))
        U = U_next
        if inc_l2 <= cfg.tol:
            break

    status = "converged" if l2_increments[-1] <= cfg.tol else "max_iter"
    report = SolveReport(eps=eps, status=status, iterations=len(l2_increments))
    report.increments = l2_increments
    report.ratios = [
        b / a for a, b in zip(l2_increments, l2_increments[1:]) if a > 0
    ]
    report.fp_residual = l2_increments[-1]
    report.residual = residual(U, eps, prob, l2)
    report.sol_norm = norm(U, l2)
    report.diagnostics["c_emp"] = c_emp
    report.diagnostics["lip_hat"] = prob.g_hat.lip_hat

    fitted, predicted = {}, {}
    window = _fit_window(l2_increments)
    slope_l2 = _geometric_slope(l2_increments, window)
    for s, seq in per_s.items():
        fitted[s] = _geometric_slope(seq, window)
        predicted[s] = (1.0 - s) * slope_l2
    return LowRegularityResult(
        solution=U,
        report=report,
        s_grid=[float(s) for s in s_grid],
        increments=per_s,
        fitted_rates=fitted,
        predicted_rates=predicted,
        l2_ratio=float(math.exp(slope_l2)),
    )


def _fit_window(increments: Sequence[float]) -> tuple[int, int]:
    """Index range [lo, hi) skipping the first step and the roundoff floor
    (increments at or below 1e-13 of the largest)."""
    if len(increments) < 3:
        return 0, len(increments)
    top = max(increments)
    hi = len(increments)
    for i, v in enumerate(increments):
        if v <= top * 1e-13:
            hi = i
            break
    lo = 1 if hi - 1 >= 3 else 0
    return lo, max(hi, lo + 2)


def _geometric_slope(seq: Sequence[float], window: tuple[int, int]) -> float:
    lo, hi = window
    ys = np.log([max(v, 1e-300) for v in seq[lo:hi]])
    xs = np.arange(lo, hi)
    if len(xs) < 2:
        return math.nan
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def geometric_fit_r2(increments: Sequence[float]) -> float:
    """R^2 of the log-linear fit to an increment sequence (above roundoff)."""
    lo, hi = _fit_window(increments)
    ys = np.log([max(v, 1e-300) for v in increments[lo:hi]])
    xs = np.arange(lo, hi, dtype=float)
    if len(xs) < 3:
        return 1.0
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


# ---------------------------------------------------------------------------
# time-domain cross check


@dataclass
class TimeCrossCheck:
    tracking_error: float
    attraction_error: float
    integrator_status: int
    samples: int


def time_integration_crosscheck(eps: float, prob: OdeProblem, U: FourierField,
                                horizon: float = 200.0, perturbation: float = 0.0,
                                t_skip: float = 20.0, rtol: float = 1e-10,
                                atol: float = 1e-12,
                                method: str = "Radau") -> TimeCrossCheck:
    """Integrate the stiff oscillator from U's initial data and track the hull.

    tracking_error is sup_t |x(t) - U(omega t)| over [t_skip, horizon] on a
    dense grid; attraction_error is |x(T) - U(omega T)| at the final time
    when the initial condition is perturbed.
    """
    if abs(complex(eps).imag) > 0.0:
        raise ValueError("time integration needs real eps")
    eps = float(np.real(eps))
    lat = prob.lattice
    omega = lat.omega_array

    def hull(t: float) -> np.ndarray:
        return evaluate_at(U, omega * t).real

    dU = directional_derivative(U, 1)

    def hull_rate(t: float) -> np.ndarray:
        return evaluate_at(dU, omega * t).real

    def g_full(x: np.ndarray) -> np.ndarray:
        return prob.linear.array @ x + prob.g_hat(x[None, :])[0]

    def f_eval(t: float) -> np.ndarray:
        return evaluate_at(prob.forcing, omega * t).real

    def rhs(t, y):
        n = lat.n
        x, v = y[:n], y[n:]
        return np.concatenate([v, f_eval(t) - g_full(x) - v / eps])

    x0 = hull(0.0)
    v0 = hull_rate(0.0)
    if perturbation:
        x0 = x0 + perturbation * np.ones_like(x0)
    sol = solve_ivp(rhs, (0.0, horizon), np.concatenate([x0, v0]),
                    method=method, rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"integrator failed: {sol.message}")

    ts = np.linspace(t_skip, horizon, 2001)
    n = lat.n
    errs = [
        float(np.max(np.abs(sol.sol(t)[:n] - hull(t)))) for t in ts
    ]
    tracking = max(errs)
    attraction = float(np.max(np.abs(sol.sol(horizon)[:n] - hull(horizon))))
    return TimeCrossCheck(
        tracking_error=tracking,
        attraction_error=attraction,
        integrator_status=sol.status,
        samples=len(ts),
    )
