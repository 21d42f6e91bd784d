"""Cross-cutting oracles: brute-force Newton, Liouville frequencies, bounds.

The Newton oracle solves the full truncated coefficient system with a dense
Jacobian at toy resolution, independently of the contraction path.  The
Liouville builder constructs frequency vectors with abnormally small
divisors using exact big-integer continued fractions, and the
non-differentiability probe demonstrates the resulting blow-up of epsilon
difference quotients.  ``certify_bounds`` aggregates the multiplier bound
checks and is the target of the fault-injection contract.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import mpmath as mp
import numpy as np

from .multipliers import (
    BoundViolationError,
    EpsilonDomain,
    LinearPart,
    gamma_bound,
    sample_domain,
)
from .ode import OdeProblem, SolverConfig, solve_fixed_point
from .pde import (
    PdeProblem,
    boussinesq_nonlinearity,
    imaginary_axis_blowup,
    imaginary_root_blowup,
    pde_certification_scan,
)
from .spectral import (
    FourierField,
    NonlinearitySpec,
    SpectralLattice,
    compose,
    norm,
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


def newton_oracle_ode(eps: complex, prob: OdeProblem, K_small: int = 8,
                      tol: float = 1e-12, max_iter: int = 40) -> FourierField:
    """Damped Newton on the full truncated coefficient system.

    Brute force and independent of the Picard path: the unknown is the whole
    coefficient tensor, the Jacobian couples modes through the convolution
    with Dg-hat(U) sampled on a collocation grid.  Polynomial nonlinearities
    only (the Jacobian needs a derivative).
    """
    lat = prob.lattice
    small = SpectralLattice(d=lat.d, K=K_small, omega=lat.omega, n=lat.n)
    count = lat.n * (2 * K_small + 1) ** lat.d
    if count > 2 * 10 ** 4:
        raise ValueError(f"{count} unknowns exceed the oracle budget")
    if prob.g_hat.kind not in ("zero", "polynomial"):
        raise ValueError("the Newton oracle handles polynomial nonlinearities")
    if prob.linear.jordan is not None and any(
        b.p != 1.0 or b.q != 1.0 for b in prob.linear.jordan
    ):
        raise ValueError("the oracle does not model generalized p, q coefficients")

    f_small = restrict_field(prob.forcing, small)
    n = lat.n
    a = small.k_dot_omega().ravel()
    M = a.size

    # per-mode forward matrices, (M, n, n)
    A = prob.linear.array
    L_blocks = (-eps) * a[:, None, None] ** 2 * np.eye(n) \
        + 1j * a[:, None, None] * np.eye(n) + eps * A

    deriv = _polynomial_derivative(prob.g_hat)

    def gather(U_flat: np.ndarray) -> FourierField:
        return FourierField(small, U_flat.reshape(small.field_shape))

    def F(U_flat: np.ndarray) -> np.ndarray:
        U = gather(U_flat)
        gU = compose(U, prob.g_hat)
        lhs = np.einsum("mij,mj->mi", L_blocks, U_flat.reshape(M, n))
        return (lhs + eps * gU.coeffs.reshape(M, n)
                - eps * f_small.coeffs.reshape(M, n)).ravel()

    def jacobian(U_flat: np.ndarray) -> np.ndarray:
        U = gather(U_flat)
        W = compose(U, deriv)          # Dg-hat(U) per component via collocation
        conv = _convolution_matrix(W)  # (M, M) per component
        J = np.zeros((M * n, M * n), dtype=complex)
        for c in range(n):
            J[c::n, c::n] = eps * conv[c]
        idx = np.arange(M)
        for i in range(n):
            for jj in range(n):
                J[idx * n + i, idx * n + jj] += L_blocks[:, i, jj]
        sv_min = np.linalg.svd(J, compute_uv=False)[-1]
        if sv_min < 1e-14:
            raise np.linalg.LinAlgError(
                f"oracle Jacobian singular (smallest singular value {sv_min:.2e})"
            )
        return J

    return gather(_damped_newton(F, jacobian, np.zeros(M * n, dtype=complex),
                                 tol, max_iter))


def _damped_newton(F: Callable[[np.ndarray], np.ndarray],
                   jacobian: Callable[[np.ndarray], np.ndarray],
                   x0: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Newton's method on F(x) = 0 from x0, halving each step until max|F| drops.

    Stops once max|F| <= tol; raises RuntimeError when no step of length at
    least 1e-4 lowers max|F| or when max_iter steps do not reach tol.
    """
    x = x0
    fx = F(x)
    for _ in range(max_iter):
        res = float(np.max(np.abs(fx)))
        if res <= tol:
            return x
        step = np.linalg.solve(jacobian(x), fx)
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


def _convolution_matrix(W: FourierField) -> np.ndarray:
    """Per-component matrices C[k, k'] = W-hat_{k - k'} over the lattice.

    W is zero beyond its cutoff, so embedding it into the doubled lattice
    makes every difference k - k' addressable.
    """
    lat = W.lattice
    cuts = lat.cutoffs
    big = SpectralLattice(d=lat.d, K=2 * lat.K, omega=lat.omega, n=lat.n,
                          has_space=lat.has_space, J=2 * lat.J)
    W_big = np.zeros(big.field_shape, dtype=complex)
    W_big[tuple(slice(cut, 3 * cut + 1) for cut in cuts)] = W.coeffs
    grids = np.meshgrid(*(lat.axis_modes(ax) for ax in range(lat.n_axes)),
                        indexing="ij")
    flat_modes = np.stack([g.ravel() for g in grids], axis=1)   # (M, n_axes)
    M = flat_modes.shape[0]
    out = np.zeros((lat.n, M, M), dtype=complex)
    for c in range(lat.n):
        Wc = W_big[..., c]
        for row in range(M):
            diff = flat_modes[row][None, :] - flat_modes        # k - k'
            idx = tuple(diff[:, ax] + 2 * cut for ax, cut in enumerate(cuts))
            out[c, row, :] = Wc[idx]
    return out


def newton_oracle_pde(eps: complex, prob: PdeProblem, K_small: int = 6,
                      J_small: int | None = None, tol: float = 1e-12,
                      max_iter: int = 40) -> FourierField:
    """Newton on the truncated Boussinesq coefficient system."""
    lat = prob.lattice
    if J_small is None:
        J_small = K_small
    small = SpectralLattice(d=lat.d, K=K_small, omega=lat.omega, n=1,
                            has_space=True, J=J_small)
    small_prob = PdeProblem(lattice=small, beta=prob.beta,
                            forcing=restrict_field(prob.forcing, small),
                            nonlinear=prob.nonlinear)
    axes = [np.arange(-K_small, K_small + 1)] * lat.d + [np.arange(-J_small, J_small + 1)]
    grids = np.meshgrid(*axes, indexing="ij")
    flat_modes = np.stack([g.ravel() for g in grids], axis=1)
    M = flat_modes.shape[0]
    a = small.k_dot_omega().ravel()
    j = grids[-1].ravel().astype(float)
    symbol = -eps * a ** 2 + 1j * a - eps * (prob.beta * j ** 4 - j ** 2)
    zero_row = j == 0.0

    def F(x: np.ndarray) -> np.ndarray:
        U = FourierField(small, x.reshape(small.field_shape))
        out = symbol * x
        if prob.nonlinear:
            out = out - eps * boussinesq_nonlinearity(U).coeffs.ravel()
        out = out - eps * small_prob.forcing.coeffs.ravel()
        out[zero_row] = x[zero_row]     # pin the projected-out slab to zero
        return out

    def jacobian(x: np.ndarray) -> np.ndarray:
        U = FourierField(small, x.reshape(small.field_shape))
        J = np.diag(symbol.astype(complex))
        if prob.nonlinear:
            conv = _convolution_matrix(U)[0]
            jw = (1j * j) ** 2      # d^2/dx^2 on the row mode
            J = J - eps * 2.0 * jw[:, None] * conv
        J[zero_row, :] = 0.0
        J[zero_row, zero_row] = 1.0
        return J

    x = _damped_newton(F, jacobian, np.zeros(M, dtype=complex), tol, max_iter)
    return FourierField(small, x.reshape(small.field_shape))


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
    alpha_fraction: tuple  # (p, q) of the realized rational alpha
    notes: list[str] = dc_field(default_factory=list)


def build_liouville(spec: LiouvilleSpec) -> LiouvilleFrequency:
    """Construct omega = (1, alpha) with witnesses verified exactly.

    alpha is realized as the continued-fraction convergent one level past
    the last witness, so every |k.omega| is an exact integer ratio
    |q_n p_L - p_n q_L| / q_L; verification never touches floating point.
    Levels whose denominators would exceed ``max_digits`` digits are
    reported as truncated.
    """
    if spec.levels == 0:
        return LiouvilleFrequency(
            omega=(1.0, math.sqrt(2.0)), witnesses=[], truncated_at=None,
            alpha_fraction=(0, 0), notes=["no levels requested: sqrt(2) fallback"],
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
            omega=omega, witnesses=witnesses, truncated_at=truncated_at,
            alpha_fraction=(alpha_p, alpha_q), notes=notes,
        )


def scan_for_witnesses(omega: tuple[float, float], K: int,
                       rate: float = 1.0) -> list[tuple[tuple[int, int], float]]:
    """All k with |k.omega| <= e^{-rate |k|_1} on the box |k_i| <= K."""
    hits = []
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            if k1 == 0 and k2 == 0:
                continue
            val = abs(k1 * omega[0] + k2 * omega[1])
            if val <= math.exp(-rate * (abs(k1) + abs(k2))):
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
                         K: int, rho: float = 0.5, lam: float = 1.0) -> OdeProblem:
    """Scalar linear problem with forcing concentrated on witness modes."""
    lat = SpectralLattice(d=2, K=K, omega=omega, n=1)
    modes: dict[tuple, complex] = {}
    for k in witness_ks:
        amp = math.exp(-rho * (abs(k[0]) + abs(k[1]))) / 2.0
        modes[(k[0], k[1])] = modes.get((k[0], k[1]), 0.0) + amp
        modes[(-k[0], -k[1])] = modes.get((-k[0], -k[1]), 0.0) + amp
    forcing = FourierField.from_modes(lat, {k: np.array([v]) for k, v in modes.items()})
    return OdeProblem(
        lattice=lat,
        linear=LinearPart.scalar(lam),
        g_hat=NonlinearitySpec.zero(),
        forcing=forcing,
    )


def nondiff_probe(prob: OdeProblem, eps_ladder: list[float],
                  cfg: SolverConfig | None = None) -> NondiffProbe:
    """Difference quotients of eps -> U_eps along a ladder toward zero.

    With a Liouville frequency and forcing on the witness modes the
    quotients blow up as eps drops below the witness divisor; with a
    Diophantine control frequency they stay bounded.
    """
    if cfg is None:
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
    if prob.g_hat.kind == "zero":
        kdw = prob.lattice.k_dot_omega()
        mags = np.sqrt(np.sum(np.abs(prob.forcing.coeffs) ** 2, axis=-1))
        nz = mags > 0
        preds = sorted(
            float(m / abs(d)) for m, d in zip(mags[nz].ravel(), kdw[nz].ravel())
        )

    mismatch = math.nan
    if prob.g_hat.kind == "zero":
        lam = prob.linear.array[0, 0]
        mismatch = 0.0
        for e, U in zip(eps_ladder, fields):
            kdw = prob.lattice.k_dot_omega()
            div = -e * kdw ** 2 + 1j * kdw + e * lam
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
    """Run the multiplier bound checks over sampled epsilon.

    Exact (real-eps) bounds are asserted with 1e-9 relative slack and any
    violation fails the certification; complex-cone bounds are empirical.
    ``fault`` perturbs the named multiplier by 2x -- a test hook that must
    make certification fail.
    """
    if fault is not None and fault not in FAULT_NAMES:
        raise ValueError(f"unknown fault {fault!r}; known: {FAULT_NAMES}")
    eps_list = sample_domain(domain, samples)
    violations: list[str] = []
    if isinstance(problem, OdeProblem):
        scale = 2.0 if fault == "ode-mode-inverse" else 1.0
        worst = 0.0
        per_eps = []
        for e in eps_list:
            try:
                gb = gamma_bound(e, problem.linear, problem.lattice,
                                 fault_scale=scale)
            except BoundViolationError as exc:
                violations.append(str(exc))
                per_eps.append({"eps": [e.real, e.imag], "violation": str(exc)})
                continue
            worst = max(worst, abs(e) * gb.empirical)
            per_eps.append({
                "eps": [e.real, e.imag],
                "empirical": gb.empirical,
                "certified": gb.certified,
                "exact": gb.exact,
            })
        lam = float(np.real(problem.linear.eigenvalues()[0]))
        blowup = imaginary_root_blowup(domain.sigma, -lam)
        details = {
            "per_eps": per_eps,
            "scaled_inverse_sup": worst,
            "imaginary_axis_sup": blowup,
        }
        return Certification(
            kind="ode", passed=not violations, c_emp=worst, details=details,
            violations=violations,
        )

    scale = 2.0 if fault == "pde-mode-inverse" else 1.0
    worst = 0.0
    per_eps = []
    for e in eps_list:
        scan = pde_certification_scan(e, problem.beta, j_max=problem.lattice.J,
                                      fault_scale=scale)
        worst = max(worst, scan["c_emp"])
        entry = {"eps": [e.real, e.imag], "c_emp": scan["c_emp"],
                 "exact_bound": scan["exact_bound"]}
        if scan["exact_bound"] is not None and \
                scan["c_emp"] > scan["exact_bound"] * (1 + 1e-9):
            msg = (f"pde scan constant {scan['c_emp']:.6e} exceeds exact bound "
                   f"{scan['exact_bound']:.6e} at eps={e}")
            violations.append(msg)
            entry["violation"] = msg
        per_eps.append(entry)
    blowup = imaginary_axis_blowup(domain.sigma, problem.beta)
    details = {
        "per_eps": per_eps,
        "imaginary_axis_sup": blowup,
    }
    return Certification(
        kind="pde", passed=not violations, c_emp=worst, details=details,
        violations=violations,
    )

