"""Contraction iteration for the damped oscillator, and the fixed-point driver
both equations share.

The unknown is the hull function U on the d-torus with x(t) = U(omega t).
One Picard step applies U -> eps L^-1 [f - g_hat(U)]; with strong damping
this map contracts and the fixed point is the response solution.
``solve_fixed_point`` iterates the map that a problem's ``fixed_point_map``
gives, for ``OdeProblem`` and ``pde.PdeProblem`` alike; the epsilon sweeps
and the analyticity probe on complex-epsilon circles solve each eps cold on
it, so any map over their eps gives the same results, and only the sigma
ladder chains warm starts.  The low-regularity (L^2 / H^s) iteration and
the time-domain cross check against a stiff integrator are oscillator-only.
"""

from __future__ import annotations

import cmath
import logging
import math
import warnings
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Sequence

import numpy as np

from . import spectral
from .multipliers import (
    EpsilonDomain,
    LinearPart,
    ResonanceError,
    ScaledInverse,
    apply_scaled_inverse,
    is_real_eps,
)
from .spectral import (
    L2,
    FourierField,
    NonlinearitySpec,
    NormOverflowError,
    NormSpec,
    SpectralLattice,
    compose,
    directional_derivative,
    directional_multiplier,
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
        if not self.forcing.is_hermitian():
            raise ValueError("forcing must be real-symmetric")
        self.linear.validate_spectrum()
        self.lattice.validate_nonresonance()

    @property
    def first_is_step_from_zero(self) -> bool:
        """The map's first iterate eps L^-1 f is its step from zero: true
        when the spec shows g_hat(0) = 0."""
        return self.g_hat.vanishes_at_zero

    def fixed_point_map(self, eps: complex, cfg: SolverConfig, report: SolveReport):
        """(step, residual, first iterate, enforce_ball) for
        ``solve_fixed_point``; sets kappa and records the measured smallness
        checks, which inform and are not enforced.  Locally small
        nonlinearities must stay inside a finite ball radius; globally
        Lipschitz-small ones run unconstrained.  A singular mode matrix
        raises ``ResonanceError``."""
        if self.g_hat.kind == "piecewise_linear" and abs(complex(eps).imag) > 0:
            raise ValueError(
                "piecewise-linear nonlinearities admit real eps only; "
                "complex continuation needs an analytic nonlinear part"
            )
        # the solve's plan: the mode operator, checked and measured once
        # when it is built, and the composition's two grid arrays, which the
        # step and the residual transform in; every step reuses them
        inverse = ScaledInverse(eps, self.linear, self.lattice)
        report.kappa = 1.0 + inverse.forward_sup
        c_emp = inverse.scaled_inverse_sup
        report.diagnostics["c_emp"] = c_emp
        real = is_real_eps(eps)
        plan = spectral.composition_plan(self.lattice, self.g_hat, real)
        first = inverse(self.forcing)
        if math.isfinite(cfg.ball_radius):
            lip = self.g_hat.lipschitz_on_ball(cfg.ball_radius)
        else:
            lip = self.g_hat.lip_hat if self.g_hat.lip_hat is not None else math.nan
        if not math.isnan(lip) and math.isfinite(lip):
            report.diagnostics["contraction_product"] = c_emp * lip
            report.diagnostics["contraction_below_half"] = bool(c_emp * lip <= 0.5)
        report.diagnostics["smallness"] = self.g_hat.smallness
        if self.g_hat.kind in ("callable", "piecewise_linear") and real:
            # inexact dealiasing: record the measured aliasing residual
            report.diagnostics["aliasing_estimate"] = \
                spectral.composition_aliasing_estimate(first, self.g_hat, real)
        enforce_ball = self.g_hat.smallness == "local" and math.isfinite(cfg.ball_radius)
        return (lambda V: inverse(self.forcing - compose(V, self.g_hat, real, plan)),
                lambda V: residual(V, eps, self, cfg.norm, plan),
                first, enforce_ball)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 200
    ball_radius: float = math.inf
    norm: NormSpec = L2

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


# ---------------------------------------------------------------------------
# the contraction map


def picard_step(U: FourierField, eps: complex, prob: OdeProblem) -> FourierField:
    """One application of T(U) = eps L^-1 [f - g_hat(U)].

    ``OdeProblem.fixed_point_map``'s step gives the same bits from the
    solve's one ``ScaledInverse``."""
    rhs = prob.forcing - compose(U, prob.g_hat, is_real_eps(eps))
    return apply_scaled_inverse(eps, prob.linear, rhs)


def residual(U: FourierField, eps: complex, prob: OdeProblem,
             normspec: NormSpec = L2, plan: spectral.TransformPlan | None = None) -> float:
    """Norm of eps P (w.d)^2 U + Q (w.d) U + eps (A U + g(U)) - eps f.

    The equation is written out here from derivatives, on purpose apart from
    ``mode_matrices``: the residual checks the inverse, so it must not be
    built from the same operator.  g(U) is composed in ``plan``, a solve's
    ``composition_plan``, or in a plan of its own.

    The terms go into two lattice arrays, in place: the bits of
    ``eps d2 + d1 + eps (AU + gU) - eps f`` over fresh fields, the same
    operations in the same order.
    """
    lin, lat, c = prob.linear, U.lattice, U.coeffs
    res = np.multiply(c, directional_multiplier(lat, 2))
    np.multiply(res, lin.p_diagonal, out=res)
    np.multiply(res, eps, out=res)
    term = np.multiply(c, directional_multiplier(lat, 1))
    np.multiply(term, lin.q_diagonal, out=term)
    np.add(res, term, out=res)
    np.einsum("ij,...j->...i", lin.array, c, out=term)
    np.add(term, compose(U, prob.g_hat, is_real_eps(eps), plan).coeffs, out=term)
    np.multiply(term, eps, out=term)
    np.add(res, term, out=res)
    np.multiply(prob.forcing.coeffs, eps, out=term)
    np.subtract(res, term, out=res)
    return norm(FourierField(lat, res), normspec)


def solve_fixed_point(eps: complex, prob, cfg: SolverConfig,
                      u0: FourierField | None = None) -> tuple[FourierField, SolveReport]:
    """Iterate a problem's contraction map to its fixed point.

    ``prob`` (an ``OdeProblem`` or a ``pde.PdeProblem``) gives the map (step,
    equation residual, first iterate and ball rule) through
    ``fixed_point_map``, which also sets ``report.kappa`` and its own
    diagnostics.  A resonant eps ends the solve ``resonant``; otherwise
    ``contract`` iterates from u0 (zero by default) to ||dU|| <= tol and
    residual <= kappa tol.  A cold solve of a problem whose
    ``first_is_step_from_zero`` holds starts from the map's first iterate
    as its iteration 1, so it does not compute step(0) again, and takes
    that iterate's norm once for the half-ball check, its increment and its
    norm.  At real eps both maps take the real transforms, so a given u0 is
    taken as Hermitian, as every iterate from zero is.
    """
    report = SolveReport(eps=eps)
    try:
        step, eq_residual, first, enforce_ball = prob.fixed_point_map(eps, cfg, report)
    except ResonanceError as exc:
        report.status = "resonant"
        report.diagnostics["error"] = str(exc)
        return FourierField.zeros(prob.lattice) if u0 is None else u0.copy(), report
    first_norm = None
    if math.isfinite(cfg.ball_radius):
        first_norm = norm(first, cfg.norm)
        report.diagnostics["first_iterate_in_half_ball"] = bool(
            first_norm <= cfg.ball_radius / 2
        )
    cold = u0 is None and prob.first_is_step_from_zero
    # the start field is handed over, not held by a name here through the
    # iteration
    start = [first if cold else FourierField.zeros(prob.lattice) if u0 is None
             else u0.copy()]
    del first
    return contract(step, eq_residual, start.pop(), cfg, report, enforce_ball,
                    first=cold, first_norm=first_norm)


def contract(step: Callable[[FourierField], FourierField],
             eq_residual: Callable[[FourierField], float],
             U: FourierField, cfg: SolverConfig, report: SolveReport,
             enforce_ball: bool,
             observe: Callable[[int, FourierField, FourierField], None] | None = None,
             first: bool = False, first_norm: float | None = None,
             ) -> tuple[FourierField, SolveReport]:
    """Picard iteration U <- step(U) from U, shared by every solver.

    Records every increment ||step(U) - U|| (in cfg.norm) and the ratio of
    consecutive increments in ``report``.  With ``first``, U is a cold
    start's iteration 1 already, step(0) itself: its increment from zero is
    its norm, ``first_norm`` when the caller has taken it.  Exits, by
    ``report.status``:

    - ``converged``: increment <= tol and eq_residual <= kappa tol, with
      ``report.kappa`` set by the caller (kappa = inf stops on the
      increment alone);
    - ``left_ball``: ``enforce_ball`` and the iterate left ball_radius;
    - ``resonant``: a step met a singular mode matrix;
    - ``diverged``: a step or a norm overflowed, or an increment was not
      finite; U is the last finite iterate;
    - ``max_iter``: none of the above within cfg.max_iter steps.

    ``observe(it, U, delta)`` sees every accepted iterate with its increment
    field delta = U - U_prev; it may record per-step data or raise to abort.
    """
    prev_inc = None
    try:
        for it in range(1, cfg.max_iter + 1):
            if first and it == 1:
                U_next = delta = U
                inc = sol_norm = norm(U, cfg.norm) if first_norm is None else first_norm
            else:
                U_next = step(U)
                delta = U_next - U
                inc = norm(delta, cfg.norm)
                sol_norm = None
            if not math.isfinite(inc):
                raise FloatingPointError(f"non-finite increment at step {it}")
            # the ball test needs ||U|| every step; without it, once at exit
            if enforce_ball and sol_norm is None:
                sol_norm = norm(U_next, cfg.norm)
            report.increments.append(inc)
            if prev_inc is not None and prev_inc > 0:
                report.ratios.append(inc / prev_inc)
            prev_inc = inc
            U = U_next
            report.iterations = it
            if observe is not None:
                observe(it, U, delta)
            del delta   # one field less held through the next step
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
                    report.sol_norm = norm(U, cfg.norm) if sol_norm is None else sol_norm
                    return U, report
        report.status = "max_iter"
        report.fp_residual = prev_inc
        report.residual = eq_residual(U)
        report.sol_norm = norm(U, cfg.norm) if sol_norm is None else sol_norm
    except (ResonanceError, FloatingPointError, NormOverflowError) as exc:
        report.status = "resonant" if isinstance(exc, ResonanceError) else "diverged"
        report.diagnostics["error"] = str(exc)
        if first and not report.iterations:     # iterate 1 failed: the last
            U = FourierField.zeros(U.lattice)   # finite iterate is the zero start
    return U, report


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepEntry:
    eps: complex
    report: SolveReport
    sol_norm: float
    solution: FourierField | None = None


def sweep_epsilon(dom: EpsilonDomain, prob, cfg: SolverConfig,
                  count: int = 8, eps_values: Sequence[complex] | None = None,
                  keep_solutions: bool = True,
                  map_fn: Callable = map) -> list[SweepEntry]:
    """Solve either problem kind across an epsilon domain, largest |eps| first.

    Each eps is one cold ``solve_fixed_point``, mapped over the eps by
    ``map_fn`` (the builtin ``map``, or a pool's); no solve depends on
    another, so every map gives the same entries.  Non-convergent samples
    are flagged in their report and logged; the sweep continues.
    """
    if eps_values is None:
        eps_values = dom.sample(count)
    eps_values = sorted(eps_values, key=lambda e: -abs(e))
    solves = map_fn(lambda e: solve_fixed_point(e, prob, cfg), eps_values)
    return [_entry(e, U, rep, keep_solutions) for e, (U, rep) in zip(eps_values, solves)]


def _entry(e: complex, U: FourierField, rep: SolveReport, keep_solution: bool) -> SweepEntry:
    """A sweep's entry for one solve; a solve that did not converge is logged."""
    if rep.status != "converged":
        log.warning("sweep sample eps=%s did not converge (%s)", e, rep.status)
    return SweepEntry(e, rep, rep.sol_norm, U if keep_solution else None)


def sweep_sigma_ladder(prob, cfg: SolverConfig, sigmas: Sequence[float],
                       samples_per_sigma: int = 3,
                       keep_solutions: bool = True) -> list[SweepEntry]:
    """Concatenated positive real-annulus sweeps over a decreasing sigma
    ladder; eps equal to 12 significant digits are solved once.

    The ladder is one chain: each solve starts from the last converged
    solution, the first from zero.  An empty ``sigmas`` or a sigma that is
    not a finite positive number raises ValueError before any solve.
    """
    if not sigmas or not all(0.0 < s < math.inf for s in sigmas):
        raise ValueError("need at least one sigma, each finite and > 0")
    eps_values = [complex(t * s) for s in sorted(sigmas, reverse=True)
                  for t in np.linspace(2.0, 1.0, samples_per_sigma)]
    # one eps per 12-digit key, in magnitude order; a relative key, so tiny
    # sigmas stay apart
    ladder: dict[str, complex] = {}
    for e in sorted(eps_values, key=lambda e: -abs(e)):
        ladder.setdefault(f"{e.real:.12e}", e)
    entries: list[SweepEntry] = []
    start = None
    for e in ladder.values():
        U, rep = solve_fixed_point(e, prob, cfg, u0=start)
        if rep.status == "converged":
            start = U
        entries.append(_entry(e, U, rep, keep_solutions))
    return entries


# ---------------------------------------------------------------------------
# regularity probes


@dataclass
class AnalyticityProbe:
    center: complex
    radius: float
    harmonic_norms: list[float]
    decay_ratios: list[float]
    geometric_ratio: float
    cauchy_vs_fd: float


def analyticity_probe(center_eps: complex, radius: float, prob,
                      cfg: SolverConfig, points: int = 16,
                      domain: EpsilonDomain | None = None,
                      map_fn: Callable = map) -> AnalyticityProbe:
    """Taylor coefficients of eps -> U_eps from a discrete Cauchy transform.

    Solves on ``points`` equispaced circle points, recovers the coefficients
    c_m = (1/P) sum_p U(eps_p) e^{-2 pi i m p / P} / radius^m, and compares
    the first derivative against a real-axis central difference with step
    radius / 20.  ``prob`` is an oscillator or a Boussinesq problem.  The
    probe makes points + 2 cold solves: the circle's, mapped by ``map_fn``
    (the builtin ``map`` or a pool's, which give the same result), and the
    two of the difference.  ``points`` below 2, or a circle point outside
    ``domain``, raises ValueError before any solve; a solve that does not
    converge raises RuntimeError.
    """
    if points < 2:
        raise ValueError(f"need at least 2 circle points, got {points}")
    eps_points = [
        center_eps + radius * cmath.exp(2j * math.pi * p / points)
        for p in range(points)
    ]
    if domain is not None:
        for e in eps_points:
            if not domain.contains(e, rtol=1e-9):
                raise ValueError(f"circle point {e} leaves the epsilon domain")

    solves = list(map_fn(lambda e: solve_fixed_point(e, prob, cfg), eps_points))
    bad = [e for e, (_, rep) in zip(eps_points, solves) if rep.status != "converged"]
    if bad:
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
    Up, rp = solve_fixed_point(center_eps + h, prob, cfg)
    Um, rm = solve_fixed_point(center_eps - h, prob, cfg)
    if rp.status != "converged" or rm.status != "converged":
        raise RuntimeError("finite-difference solves failed")
    fd = (Up.coeffs - Um.coeffs) / (2 * h)
    diff = norm(FourierField(prob.lattice, c1 - fd), cfg.norm)

    return AnalyticityProbe(
        center=center_eps,
        radius=radius,
        harmonic_norms=harmonic_norms,
        decay_ratios=[float(r) for r in ratios],
        geometric_ratio=geometric,
        cauchy_vs_fd=float(diff),
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
    (1 - s) log(measured L^2 ratio).  The iteration is ``contract`` in the
    L^2 norm with kappa = inf, so it stops on the L^2 increment alone and
    ends with the solvers' statuses; an observer records the H^s norms.
    """
    for s in s_grid:
        if not 0.0 <= s < 1.0:
            raise ValueError("s_grid must lie in [0, 1)")
    if prob.g_hat.lip_hat is None:
        raise ValueError("low-regularity mode needs a declared global Lipschitz bound")
    report = SolveReport(eps=eps, kappa=math.inf)
    per_s: dict[float, list[float]] = {float(s): [] for s in s_grid}

    def observe(it: int, V: FourierField, delta: FourierField) -> None:
        for s, seq in per_s.items():
            seq.append(spectral.hs_norm(delta, s))

    U = FourierField.zeros(prob.lattice)
    try:
        inverse = ScaledInverse(eps, prob.linear, prob.lattice)
    except ResonanceError as exc:   # ends the run as a step meeting it would
        report.status = "resonant"
        report.diagnostics["error"] = str(exc)
    else:
        c_emp = inverse.scaled_inverse_sup
        if c_emp * prob.g_hat.lip_hat >= 1.0:
            raise ValueError(
                f"not a contraction: C_emp * M = {c_emp * prob.g_hat.lip_hat:.3f} >= 1"
            )
        report.diagnostics["c_emp"] = c_emp
        report.diagnostics["lip_hat"] = prob.g_hat.lip_hat
        real = is_real_eps(eps)
        plan = spectral.composition_plan(prob.lattice, prob.g_hat, real)
        U, report = contract(
            lambda V: inverse(prob.forcing - compose(V, prob.g_hat, real, plan)),
            lambda V: residual(V, eps, prob, L2, plan), U,
            replace(cfg, norm=L2), report, False, observe)

    fitted, predicted = {}, {}
    window = _fit_window(report.increments)
    slope_l2 = _log_linear_fit(report.increments, window)[0]
    for s, seq in per_s.items():
        fitted[s] = _log_linear_fit(seq, window)[0]
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


def _log_linear_fit(seq: Sequence[float], window: tuple[int, int]
                    ) -> tuple[float, float, np.ndarray]:
    """(slope, intercept, ys): the least-squares line through (i, ys) with
    ys = log seq[i] over the window; nan slope and intercept below two points."""
    lo, hi = window
    ys = np.log([max(v, 1e-300) for v in seq[lo:hi]])
    if len(ys) < 2:
        return math.nan, math.nan, ys
    slope, intercept = np.polyfit(np.arange(lo, hi), ys, 1)
    return float(slope), float(intercept), ys


def geometric_fit_r2(increments: Sequence[float]) -> float:
    """R^2 of the log-linear fit to an increment sequence (above roundoff)."""
    lo, hi = _fit_window(increments)
    if hi - lo < 3:
        return 1.0
    slope, intercept, ys = _log_linear_fit(increments, (lo, hi))
    pred = slope * np.arange(lo, hi) + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


# ---------------------------------------------------------------------------
# time-domain cross check


# LSODA's step budget per output interval; odeint's default of 500 is too few
# for the first interval, [0, t_skip].
CROSSCHECK_MXSTEP = 10**6


@dataclass
class TimeCrossCheck:
    tracking_error: float
    attraction_error: float


def time_integration_crosscheck(eps: float, prob: OdeProblem, U: FourierField,
                                horizon: float = 200.0, perturbation: float = 0.0,
                                t_skip: float = 20.0) -> TimeCrossCheck:
    """Integrate the stiff oscillator from U's initial data and track the hull.

    The integrator is LSODA (``scipy.integrate.odeint``) at rtol 1e-10,
    atol 1e-12: it switches between Adams and BDF by itself, so it moves to
    BDF as eps shrinks, and its own loop steps and interpolates at the
    sample times.  Its right-hand side runs on Python floats, prepared once
    per call: the forcing's nonzero modes through ``math.cos`` and
    ``math.sin``, the linear part as lists and g_hat through
    ``NonlinearitySpec.point``, since numpy's per-call overhead on
    length-1 arrays was most of each evaluation.  tracking_error is
    sup_t |x(t) - U(omega t)| over 2001 equispaced times in
    [t_skip, horizon]; attraction_error is
    |x(T) - U(omega T)| at the final time when the initial condition is
    perturbed.  A non-finite start raises ValueError; a failed integration
    or a non-finite trajectory raises RuntimeError.  scipy.integrate loads
    on the first call, so a process that never cross-checks does not pay
    for it.
    """
    from scipy.integrate import ODEintWarning, odeint

    if abs(complex(eps).imag) > 0.0:
        raise ValueError("time integration needs real eps")
    eps = float(np.real(eps))
    lat = prob.lattice
    n = lat.n
    lin = prob.linear
    freqs = lat.k_dot_omega().ravel()

    def nonzero_modes(field: FourierField) -> tuple[np.ndarray, np.ndarray]:
        """(k.omega, coefficient rows) of the field's nonzero modes."""
        c = field.coeffs.reshape(-1, n)
        keep = np.any(c != 0, axis=1)
        return freqs[keep], c[keep]

    def sampler(field: FourierField) -> Callable[[np.ndarray], np.ndarray]:
        """t -> Re field(omega t); an array of times gives one row per time."""
        freq, c = nonzero_modes(field)
        return lambda t: (np.exp(1j * np.multiply.outer(t, freq)) @ c).real

    hull = sampler(U)
    # Re f(omega t) = sum_k Re c_k cos(k.omega t) - Im c_k sin(k.omega t)
    freq, c = nonzero_modes(prob.forcing)
    modes = list(zip(freq.tolist(), c.real.tolist(), c.imag.tolist()))
    A, p = lin.array.tolist(), lin.p_diagonal.tolist()
    damping = (lin.q_diagonal / eps).tolist()
    g_hat = prob.g_hat.point

    def rhs(t, y):
        y = y.tolist()
        x, v = y[:n], y[n:]
        f = [0.0] * n
        for w, re, im in modes:
            cos, sin = math.cos(w * t), math.sin(w * t)
            for i in range(n):
                f[i] += re[i] * cos - im[i] * sin
        g = g_hat(x)
        dv = []
        for i in range(n):
            ax = 0.0
            for a, xj in zip(A[i], x):
                ax += a * xj
            dv.append((f[i] - (ax + g[i]) - damping[i] * v[i]) / p[i])
        return v + dv

    x0 = hull(0.0)
    v0 = sampler(directional_derivative(U, 1))(0.0)
    if perturbation:
        x0 = x0 + perturbation * np.ones_like(x0)
    y0 = np.concatenate([x0, v0])
    if not np.all(np.isfinite(y0)):
        raise ValueError("All components of the initial state `y0` must be finite.")

    ts = np.linspace(t_skip, horizon, 2001)
    with warnings.catch_warnings():
        # a failed exit is read from info["message"] and raised below
        warnings.simplefilter("ignore", ODEintWarning)
        ys, info = odeint(rhs, y0, np.concatenate([[0.0], ts]), tfirst=True,
                          rtol=1e-10, atol=1e-12, full_output=True,
                          mxstep=CROSSCHECK_MXSTEP)
    if info["message"] != "Integration successful.":
        raise RuntimeError(f"integrator failed: {info['message']}")
    xs = ys[1:, :n]
    if not np.all(np.isfinite(xs)):
        raise RuntimeError("integrator failed: non-finite trajectory")

    errors = np.max(np.abs(xs - hull(ts)), axis=1)
    # ts[-1] == horizon, so the last sample is the final time
    return TimeCrossCheck(tracking_error=float(np.max(errors)),
                          attraction_error=float(errors[-1]))
