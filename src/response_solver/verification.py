"""Cross-cutting oracles: brute-force Newton, Liouville frequencies, bounds.

The Newton oracle solves the full truncated coefficient system at toy
resolution, independently of the contraction path: one matrix-free
damped-Newton loop for both equations, with GMRES on Jacobian-vector
products preconditioned by the inverse of the diagonal (linear) part.  The
Liouville builder constructs frequency vectors with abnormally small
divisors using exact big-integer continued fractions, and the
non-differentiability probe demonstrates the resulting blow-up of epsilon
difference quotients.  ``certify_bounds`` aggregates the multiplier bound
checks and is the target of the fault-injection contract.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from .multipliers import (
    BOUND_RTOL,
    EpsilonDomain,
    LinearPart,
    ScaledInverse,
    gamma_bound,
    imaginary_axis_sup,
    is_real_eps,
    l_eps,
)
from .ode import OdeProblem, SolverConfig, solve_fixed_point
from .pde import (
    NInverse,
    PdeProblem,
    _symbol_array,
    boussinesq_nonlinearity,
    imaginary_axis_blowup,
    pde_certification_scan,
)
from .spectral import (
    FourierField,
    NonlinearitySpec,
    SpectralLattice,
    _composition_grid,
    analyze,
    compose,
    norm,
    product,
    spatial_derivative,
    synthesize,
)

log = logging.getLogger(__name__)

FAULT_NAMES = ("ode-mode-inverse", "pde-mode-inverse")


# ---------------------------------------------------------------------------
# Newton oracle


def restrict_field(field: FourierField, small: SpectralLattice) -> FourierField:
    """Copy the coefficients of the shared modes onto a smaller lattice."""
    slices = []
    for cut_b, cut_s in zip(field.lattice.cutoffs, small.cutoffs):
        if cut_s > cut_b:
            raise ValueError("target lattice is larger than the source")
        slices.append(slice(cut_b - cut_s, cut_b + cut_s + 1))
    return FourierField(small, field.coeffs[tuple(slices)].copy())


def newton_oracle_ode(eps: complex, prob: OdeProblem, K_small: int = 8) -> FourierField:
    """Matrix-free damped Newton on the full truncated coefficient system.

    Brute force and independent of the Picard path: the unknown is the whole
    coefficient tensor, and each Jacobian-vector product couples modes by
    multiplying with Dg-hat(U) on the alias-free collocation grid.
    Polynomial nonlinearities only (the Jacobian needs a derivative).
    """
    small, *system = _ode_system(eps, prob, K_small)
    return FourierField(small, _damped_newton(*system).reshape(small.field_shape))


def _ode_system(eps: complex, prob: OdeProblem, K_small: int):
    """(lattice, F, jvp, precondition, x0) of the ODE oracle: F(x) = L x +
    eps g-hat(x) - eps f, F'(x) v = L v + eps Dg-hat(x) v, preconditioned
    by the modewise L^-1, from x0 = 0."""
    lat = prob.lattice
    small = SpectralLattice(d=lat.d, K=K_small, omega=lat.omega, n=lat.n)
    count = lat.n * (2 * K_small + 1) ** lat.d
    if count > 2 * 10 ** 4:
        raise ValueError(f"{count} unknowns exceed the oracle budget")
    if prob.g_hat.kind not in ("zero", "polynomial"):
        raise ValueError("the Newton oracle handles polynomial nonlinearities")

    f_small = restrict_field(prob.forcing, small)
    n = lat.n
    inverse = ScaledInverse(eps, prob.linear, small)     # eps L^-1; its operator is L
    L_blocks = inverse.operator.reshape(-1, n, n)
    deriv = _polynomial_derivative(prob.g_hat)
    grid = _composition_grid(small, prob.g_hat)
    real = is_real_eps(eps)

    def gather(U_flat: np.ndarray) -> FourierField:
        return FourierField(small, U_flat.reshape(small.field_shape))

    def forward(U_flat: np.ndarray) -> np.ndarray:
        return np.einsum("mij,mj->mi", L_blocks, U_flat.reshape(-1, n)).ravel()

    def F(U_flat: np.ndarray) -> np.ndarray:
        gU = compose(gather(U_flat), prob.g_hat, real)
        return forward(U_flat) + eps * gU.coeffs.ravel() - eps * f_small.coeffs.ravel()

    def jvp(U_flat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        # Dg-hat(U) v on compose's own grid, which is the exact derivative of
        # compose; Dg-hat(U) truncated to the lattice first would not be.
        U = gather(U_flat)
        dg = deriv(synthesize(U, grid, real=real))
        return lambda v: forward(v) + eps * analyze(
            dg * synthesize(gather(v), grid), small).coeffs.ravel()

    def precondition(v: np.ndarray) -> np.ndarray:
        return inverse(gather(v)).coeffs.ravel() / eps

    return small, F, jvp, precondition, np.zeros(count, dtype=complex)


def _damped_newton(F: Callable[[np.ndarray], np.ndarray],
                   jvp: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]],
                   precondition: Callable[[np.ndarray], np.ndarray],
                   x0: np.ndarray) -> np.ndarray:
    """Newton's method on F(x) = 0 from x0, halving each step until max|F| drops.

    Matrix-free: ``jvp(x)`` is the map v -> F'(x) v, and GMRES solves each
    step F'(x) s = F(x), left-preconditioned by ``precondition``, an
    approximate inverse of F'(x).  Stops once max|F| <= 1e-12; raises
    RuntimeError when no step of length at least 1e-4 lowers max|F| or when
    40 steps do not get there, and np.linalg.LinAlgError when a Krylov solve
    fails or returns a zero or non-finite step.  scipy.sparse.linalg loads
    on the first call.
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    shape = (x0.size, x0.size)
    M = LinearOperator(shape, matvec=precondition, dtype=complex)
    x = x0
    fx = F(x)
    for _ in range(40):
        res = float(np.max(np.abs(fx)))
        if res <= 1e-12:
            return x
        J = LinearOperator(shape, matvec=jvp(x), dtype=complex)
        step, info = gmres(J, fx, rtol=1e-14, atol=0.0, restart=50, M=M)
        if info != 0 or not np.all(np.isfinite(step)) or not np.any(step):
            raise np.linalg.LinAlgError(f"oracle Jacobian is singular (GMRES info {info})")
        alpha = 1.0
        while alpha > 1e-4:
            x_try = x - alpha * step
            f_try = F(x_try)
            if np.max(np.abs(f_try)) < res:
                x, fx = x_try, f_try
                break
            alpha /= 2
        else:
            raise RuntimeError("oracle line search stalled")
    raise RuntimeError("oracle did not reach tolerance")


def _polynomial_derivative(g: NonlinearitySpec) -> NonlinearitySpec:
    if g.kind == "zero":
        return NonlinearitySpec(kind="zero", lip_hat=0.0, smallness=g.smallness)
    rows = []
    for row in g.coeffs:
        rows.append(tuple(p * row[p] for p in range(1, len(row))) or (0.0,))
    return NonlinearitySpec(kind="polynomial", coeffs=tuple(rows), smallness="global")


def newton_oracle_pde(eps: complex, prob: PdeProblem, K_small: int = 6) -> FourierField:
    """Matrix-free damped Newton on the Boussinesq coefficient system
    truncated at K = J = K_small; each Jacobian-vector product is one
    alias-free product."""
    small, *system = _pde_system(eps, prob, K_small)
    return FourierField(small, _damped_newton(*system).reshape(small.field_shape))


def _pde_system(eps: complex, prob: PdeProblem, K_small: int):
    """(lattice, F, jvp, precondition, x0) of the PDE oracle: F(x) = N x -
    eps (x^2)_xx - eps f and F'(x) v = N v - 2 eps (x v)_xx, both with the
    j = 0 rows pinned to x and v, preconditioned by the inverse diagonal."""
    lat = prob.lattice
    small = SpectralLattice(d=lat.d, K=K_small, omega=lat.omega, n=1,
                            has_space=True, J=K_small)
    small_prob = PdeProblem(lattice=small, beta=prob.beta,
                            forcing=restrict_field(prob.forcing, small),
                            nonlinear=prob.nonlinear)
    symbol = _symbol_array(eps, small_prob)
    # from x = 0 the Jacobian is diag(symbol) with pinned rows, so the first
    # Newton step lands on eps N^-1 f: start there instead of solving for it
    x0 = NInverse(eps, small, symbol)(small_prob.forcing).coeffs.ravel()
    symbol = symbol.ravel()
    j = np.broadcast_to(small.axis_modes_along(small.d), small.mode_shape).ravel()
    zero_row = j == 0
    diagonal = np.where(zero_row, 1.0, symbol)      # the Jacobian at x = 0
    # at real eps F keeps fields Hermitian and takes the real product; the
    # Jacobian's takes the complex one, as GMRES's Krylov vectors are not
    # Hermitian and the real transforms would drop part of them
    real = is_real_eps(eps)

    def gather(x: np.ndarray) -> FourierField:
        return FourierField(small, x.reshape(small.field_shape))

    def F(x: np.ndarray) -> np.ndarray:
        out = symbol * x
        if prob.nonlinear:
            out = out - eps * boussinesq_nonlinearity(gather(x), real).coeffs.ravel()
        out = out - eps * small_prob.forcing.coeffs.ravel()
        out[zero_row] = x[zero_row]     # pin the projected-out slab to zero
        return out

    def jvp(x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        U = gather(x)

        def apply(v: np.ndarray) -> np.ndarray:
            out = diagonal * v
            if prob.nonlinear:
                uv = spatial_derivative(product(U, gather(v), real=False), 2)
                out = out - 2.0 * eps * uv.coeffs.ravel()
            out[zero_row] = v[zero_row]
            return out
        return apply

    return small, F, jvp, lambda v: v / diagonal, x0


# ---------------------------------------------------------------------------
# Liouville frequencies


@dataclass(frozen=True)
class LiouvilleSpec:
    """Continued-fraction recipe for a frequency with tiny divisors.

    Denominators follow q_{n+1} >= exp(growth * q_n^2); each level
    contributes one witness vector k = (-p_n, q_n) with
    |k.omega| <= exp(-growth * q_n^2) up to the recorded constant.
    """

    levels: int = 2
    growth: float = 1.0
    first_quotient: int = 3
    max_digits: int = 50_000_000

    def __post_init__(self):
        if self.levels < 0 or self.levels > 4:
            raise ValueError("levels must be in 0..4")
        if self.first_quotient < 1:
            raise ValueError("first_quotient >= 1")


@dataclass
class Witness:
    k: tuple[int, int]
    divisor_exact: float        # |k.omega| from exact integer arithmetic (0 if subnormal)
    divisor_log10: float        # log10 of the exact divisor, always representable
    divisor_float: float        # |k.omega| as the float solver will see it
    bound: float                # exp(-growth q^2), the advertised smallness
    q: int


@dataclass
class LiouvilleFrequency:
    omega: tuple[float, float]
    witnesses: list[Witness]
    truncated_at: int | None    # level at which precision ran out, if any
    notes: list[str] = dc_field(default_factory=list)


def build_liouville(spec: LiouvilleSpec) -> LiouvilleFrequency:
    """Construct omega = (1, alpha) with witnesses verified exactly.

    alpha is realized as the continued-fraction convergent one level past
    the last witness, so every |k.omega| is an exact integer ratio
    |q_n p_L - p_n q_L| / q_L; verification never touches floating point.
    Levels whose denominators would exceed ``max_digits`` digits are
    reported as truncated.  mpmath loads on the first call.
    """
    import mpmath as mp

    if spec.levels == 0:
        return LiouvilleFrequency(
            omega=(1.0, math.sqrt(2.0)), witnesses=[], truncated_at=None,
            notes=["no levels requested: sqrt(2) fallback"],
        )

    with mp.workdps(60):
        # convergent recurrences; a0 = 1 so alpha sits in (1, 2)
        p_prev, q_prev = 1, 0          # p_{-1}, q_{-1}
        p_cur, q_cur = 1, 1            # p_0 / q_0 = a0 = 1
        quotients = [1]
        notes: list[str] = []
        witnesses_raw: list[tuple[int, int, int]] = []   # (p_n, q_n, n)
        truncated_at = None

        for level in range(1, spec.levels + 1):
            if level == 1:
                a_next = max(spec.first_quotient, 1)
            else:
                # q_next >= e^{growth q^2}; judge feasibility in log space first,
                # since q itself can be far beyond float range
                log10_q = float(mp.log10(mp.mpf(q_cur)))
                if 2 * log10_q > math.log10(spec.max_digits) + 2:
                    truncated_at = level
                    notes.append(
                        f"level {level} needs ~1e{2 * log10_q:.0f}-digit denominators; "
                        "truncated"
                    )
                    break
                target_log = spec.growth * float(q_cur) ** 2
                digits = target_log / math.log(10.0)
                if digits > spec.max_digits:
                    truncated_at = level
                    notes.append(
                        f"level {level} needs ~{digits:.3g}-digit denominators; truncated"
                    )
                    break
                a_next = int(mp.ceil(mp.exp(target_log) / q_cur)) + 1
            p_next = a_next * p_cur + p_prev
            q_next = a_next * q_cur + q_prev
            quotients.append(a_next)
            witnesses_raw.append((p_cur, q_cur, level))
            p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_next, q_next

        # realized alpha: the deepest convergent built; mpf rounds the huge
        # integers to working precision, which is all the ratio needs
        alpha_p, alpha_q = p_cur, q_cur
        alpha = mp.mpf(alpha_p) / mp.mpf(alpha_q)
        alpha_float = float(alpha)
        omega = (1.0, alpha_float)

        witnesses = []
        for p_n, q_n, level in witnesses_raw:
            # exact: |q_n alpha - p_n| = |q_n p_L - p_n q_L| / q_L, pure bigint
            num = abs(q_n * alpha_p - p_n * alpha_q)
            log10_exact = float(mp.log10(mp.mpf(num)) - mp.log10(mp.mpf(alpha_q)))
            div_float = abs(-p_n * 1.0 + q_n * alpha_float)
            log10_bound = -spec.growth * q_n * q_n / math.log(10.0)
            if log10_exact > log10_bound + 1e-9:
                notes.append(
                    f"witness level {level}: exact divisor 1e{log10_exact:.2f} "
                    f"above advertised bound 1e{log10_bound:.2f}"
                )
            witnesses.append(Witness(
                k=(-p_n, q_n),
                divisor_exact=10.0 ** log10_exact if log10_exact > -300 else 0.0,
                divisor_log10=log10_exact,
                divisor_float=div_float,
                bound=math.exp(max(-spec.growth * q_n * q_n, -700.0)),
                q=q_n,
            ))
        return LiouvilleFrequency(
            omega=omega, witnesses=witnesses, truncated_at=truncated_at, notes=notes,
        )


def scan_for_witnesses(omega: tuple[float, float], K: int
                       ) -> list[tuple[tuple[int, int], float]]:
    """All k with |k.omega| <= e^{-|k|_1} on the box |k_i| <= K."""
    hits = []
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            if k1 == 0 and k2 == 0:
                continue
            val = abs(k1 * omega[0] + k2 * omega[1])
            if val <= math.exp(-(abs(k1) + abs(k2))):
                hits.append(((k1, k2), val))
    return hits


# ---------------------------------------------------------------------------
# non-differentiability probe


@dataclass
class NondiffProbe:
    eps_ladder: list[float]
    quotients: list[float]           # ||U_{e_i} - U_{e_{i+1}}|| / |e_i - e_{i+1}|
    decade_growth: list[float]       # quotient growth per factor-10 drop in eps
    witness_predictions: list[float]  # |f_k| / |k.omega| per witness mode
    max_decade_growth: float
    closed_form_mismatch: float      # only meaningful with g-hat = 0


def make_witness_problem(omega: tuple[float, float], witness_ks: list[tuple[int, int]],
                         K: int) -> OdeProblem:
    """Scalar linear problem (A = 1) with forcing e^{-|k|_1 / 2} / 2 on each
    witness mode and its mirror."""
    lat = SpectralLattice(d=2, K=K, omega=omega, n=1)
    modes: dict[tuple, complex] = {}
    for k in witness_ks:
        amp = math.exp(-0.5 * (abs(k[0]) + abs(k[1]))) / 2.0
        modes[(k[0], k[1])] = modes.get((k[0], k[1]), 0.0) + amp
        modes[(-k[0], -k[1])] = modes.get((-k[0], -k[1]), 0.0) + amp
    forcing = FourierField.from_modes(lat, {k: np.array([v]) for k, v in modes.items()})
    return OdeProblem(
        lattice=lat,
        linear=LinearPart.scalar(1.0),
        g_hat=NonlinearitySpec.zero(),
        forcing=forcing,
    )


def nondiff_probe(prob: OdeProblem, eps_ladder: list[float]) -> NondiffProbe:
    """Difference quotients of eps -> U_eps along a ladder toward zero.

    With a Liouville frequency and forcing on the witness modes the
    quotients blow up as eps drops below the witness divisor; with a
    Diophantine control frequency they stay bounded.  Each solve runs to
    tol 1e-13 in at most 400 steps.
    """
    cfg = SolverConfig(tol=1e-13, max_iter=400)
    eps_ladder = sorted((float(e) for e in eps_ladder), reverse=True)
    fields = []
    for e in eps_ladder:
        U, rep = solve_fixed_point(e, prob, cfg)
        if rep.status != "converged":
            raise RuntimeError(f"ladder solve at eps={e} failed: {rep.status}")
        fields.append(U)
    nspec = cfg.norm
    quotients = [
        norm(fields[i] - fields[i + 1], nspec) / abs(eps_ladder[i] - eps_ladder[i + 1])
        for i in range(len(fields) - 1)
    ]
    mid_eps = [
        math.sqrt(eps_ladder[i] * eps_ladder[i + 1]) for i in range(len(fields) - 1)
    ]
    decade_growth = []
    for i in range(len(quotients) - 1):
        ratio = quotients[i + 1] / quotients[i] if quotients[i] > 0 else math.inf
        decades = math.log10(mid_eps[i] / mid_eps[i + 1])
        decade_growth.append(ratio ** (1.0 / decades) if decades > 0 else math.nan)

    preds = []
    mismatch = math.nan
    if prob.g_hat.kind == "zero":
        kdw = prob.lattice.k_dot_omega()
        mags = np.sqrt(np.sum(np.abs(prob.forcing.coeffs) ** 2, axis=-1))
        nz = mags > 0
        preds = sorted(
            float(m / abs(d)) for m, d in zip(mags[nz].ravel(), kdw[nz].ravel())
        )
        lam = prob.linear.array[0, 0]
        mismatch = 0.0
        for e, U in zip(eps_ladder, fields):
            div = l_eps(e, lam, kdw)
            expect = e * prob.forcing.coeffs / div[..., None]
            mismatch = max(mismatch, float(np.max(np.abs(expect - U.coeffs))))

    return NondiffProbe(
        eps_ladder=eps_ladder,
        quotients=[float(q) for q in quotients],
        decade_growth=[float(g) for g in decade_growth],
        witness_predictions=preds,
        max_decade_growth=max(decade_growth) if decade_growth else math.nan,
        closed_form_mismatch=mismatch,
    )


# ---------------------------------------------------------------------------
# certification


@dataclass
class Certification:
    kind: str
    passed: bool
    c_emp: float
    details: dict
    violations: list[str] = dc_field(default_factory=list)


def certify_bounds(problem: OdeProblem | PdeProblem, domain: EpsilonDomain,
                   samples: int = 8, fault: str | None = None) -> Certification:
    """Each sampled eps's lattice value against its closed-form bound over
    the real a-line: ``gamma_bound`` for an ODE problem,
    ``pde_certification_scan`` for a PDE problem.

    One test for both: a sample whose ``empirical`` exceeds ``certified``
    by more than ``BOUND_RTOL`` relative is a violation, and any violation
    fails the certification.  ``c_emp`` is the largest |eps| ``empirical``
    (ODE) or ``empirical`` (PDE) over all samples.  ``fault``, a test hook,
    names the multiplier whose ``empirical`` is doubled at every sample
    (``ode-mode-inverse`` or ``pde-mode-inverse``); the doubled value must
    make certification fail.  A fault of the other equation changes nothing.
    """
    if fault is not None and fault not in FAULT_NAMES:
        raise ValueError(f"unknown fault {fault!r}; known: {FAULT_NAMES}")
    ode = isinstance(problem, OdeProblem)
    kind = "ode" if ode else "pde"
    violations: list[str] = []
    per_eps = []
    worst = 0.0
    for e in domain.sample(samples):
        if ode:
            b = gamma_bound(e, problem.linear, problem.lattice)
        else:
            b = pde_certification_scan(e, problem.beta, problem.lattice)
        if fault == f"{kind}-mode-inverse":
            b = replace(b, empirical=2.0 * b.empirical)
        entry = {"eps": [e.real, e.imag], "empirical": b.empirical,
                 "certified": b.certified, "exact": b.exact}
        if b.empirical > b.certified * (1 + BOUND_RTOL):
            entry["violation"] = (f"empirical {b.empirical:.6e} exceeds certified "
                                  f"{b.certified:.6e} at eps={e}")
            violations.append(entry["violation"])
        worst = max(worst, abs(e) * b.empirical if ode else b.empirical)
        per_eps.append(entry)
    if ode:
        details = {"per_eps": per_eps, "scaled_inverse_sup": worst,
                   "imaginary_axis_sup": imaginary_axis_sup(problem.linear, domain.sigma)}
    else:
        details = {"per_eps": per_eps,
                   "imaginary_axis_sup": imaginary_axis_blowup(domain.sigma, problem.beta)}
    return Certification(kind=kind, passed=not violations, c_emp=worst,
                         details=details, violations=violations)
