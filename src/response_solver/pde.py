"""Response solutions of the strongly damped, ill-posed Boussinesq equation.

The hull function U(theta, x) on T^d x T solves

    eps (w.d)^2 U + (w.d) U - eps beta U_xxxx - eps U_xx = eps (U^2)_xx + eps f

with zero spatial average.  The linear operator is a scalar Fourier
multiplier over (k, j); its scaled inverse gains two x-derivatives, which is
what tames the unbounded nonlinearity.  No initial-value integration exists
here: beta > 0 makes the evolution problem ill posed, and only the
fixed-point path is provided.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .multipliers import ResonanceError
from .ode import SolveReport, SolverConfig, contract
from .spectral import (
    FourierField,
    NormSpec,
    SpectralLattice,
    directional_derivative,
    norm,
    product,
    spatial_derivative,
)

log = logging.getLogger(__name__)


class BetaRejectedError(ValueError):
    """1/sqrt(beta) is an integer: a spatial mode annihilates the multiplier."""

    def __init__(self, beta: float, offending: int):
        super().__init__(
            f"beta={beta} rejected: 1/sqrt(beta) = {offending} is an integer"
        )
        self.offending = offending


@dataclass
class BetaCheck:
    beta: float
    accepted: bool
    offending_integer: int | None
    min_symbol: float          # min_j |beta j^4 - j^2| over the lattice
    argmin_j: int


def check_beta(beta: float, J: int = 64, tol: float = 1e-12) -> BetaCheck:
    """Accept beta unless 1/sqrt(beta) is an integer (within tol).

    Also reports min_j |beta j^4 - j^2| over 1 <= j <= J: tiny values mean
    the multiplier is barely invertible and conditioning will be poor.
    """
    if beta <= 0:
        raise ValueError("beta > 0 required")
    inv_root = 1.0 / math.sqrt(beta)
    nearest = round(inv_root)
    j = np.arange(1, J + 1, dtype=float)
    symbols = np.abs(beta * j ** 4 - j ** 2)
    argmin = int(np.argmin(symbols)) + 1
    check = BetaCheck(
        beta=beta,
        accepted=not (nearest >= 1 and abs(inv_root - nearest) <= tol),
        offending_integer=nearest if abs(inv_root - nearest) <= tol else None,
        min_symbol=float(np.min(symbols)),
        argmin_j=argmin,
    )
    return check


@dataclass(frozen=True)
class PdeProblem:
    """Boussinesq problem data on a (theta, x) lattice."""

    lattice: SpectralLattice
    beta: float
    forcing: FourierField
    nonlinear: bool = True

    def __post_init__(self):
        if not self.lattice.has_space:
            raise ValueError("PDE problems need a spatial lattice (has_space)")
        if self.lattice.n != 1:
            raise ValueError("the Boussinesq field is scalar")
        if self.forcing.lattice != self.lattice:
            raise ValueError("forcing lives on a different lattice")
        chk = check_beta(self.beta, J=self.lattice.J)
        if not chk.accepted:
            raise BetaRejectedError(self.beta, chk.offending_integer)
        if chk.min_symbol < 1e-6:
            log.warning(
                "beta=%g nearly resonant: min_j |beta j^4 - j^2| = %.3e at j=%d",
                self.beta, chk.min_symbol, chk.argmin_j,
            )
        avg = np.max(np.abs(self.forcing.space_average_slice()))
        if avg > 1e-13:
            raise ValueError(f"forcing must have zero spatial average ({avg:.2e})")
        defect = self.forcing.hermitian_defect()
        if defect > 1e-12 * (1 + self.forcing.max_abs()):
            raise ValueError("forcing must be real-symmetric")
        self.lattice.validate_nonresonance()


# ---------------------------------------------------------------------------
# the multiplier


def n_multiplier(eps: complex, a: float, j: int, beta: float) -> complex:
    """Mode symbol -eps a^2 + i a - eps (beta j^4 - j^2) for j != 0."""
    if j == 0:
        raise ValueError("the j = 0 mode is projected out")
    return -eps * a * a + 1j * a - eps * (beta * j ** 4 - j ** 2)


def _symbol_array(eps: complex, prob: PdeProblem) -> np.ndarray:
    lat = prob.lattice
    a = lat.k_dot_omega()
    j = lat.axis_modes_along(lat.d).astype(float)
    spatial = prob.beta * j ** 4 - j ** 2
    return -eps * a * a + 1j * a - eps * spatial


def apply_n_inverse(eps: complex, prob: PdeProblem, V: FourierField,
                    fault_scale: float = 1.0) -> FourierField:
    """eps N^-1 V on the j != 0 modes; the j = 0 slab stays zero.

    The inverse gains two spatial derivatives: its (rho, m-2) -> (rho, m)
    operator norm is the modewise supremum reported by
    ``smoothing_constant``.  ``fault_scale`` is a test hook.
    """
    lat = prob.lattice
    if V.lattice != lat:
        raise ValueError("field lives on a different lattice")
    symbol = _symbol_array(eps, prob)
    mask = np.zeros(lat.mode_shape, dtype=bool)
    mask[lat.space_average_slab] = True
    bad = (np.abs(symbol) == 0.0) & ~mask
    if np.any(bad):
        mode = lat.mode_of_index(np.argmax(bad))
        raise ResonanceError(f"resonant PDE mode at (k, j)={mode}", mode=mode)
    mult = np.where(mask, 0.0, (fault_scale * eps) / np.where(mask, 1.0, symbol))
    out = V.coeffs * mult[..., None]
    return FourierField(lat, out)


def apply_n_forward(eps: complex, prob: PdeProblem, U: FourierField) -> FourierField:
    """N U: the forward operator (j = 0 slab passes through as zero)."""
    symbol = _symbol_array(eps, prob)
    return FourierField(prob.lattice, U.coeffs * symbol[..., None])


def smoothing_constant(eps: complex, prob: PdeProblem) -> float:
    """sup over j != 0 modes of |eps / N| (|k|^2 + j^2 + 1).

    This is the measured (rho, m - 2) -> (rho, m) operator norm of the
    scaled inverse; finite uniformly in eps on the cone.
    """
    lat = prob.lattice
    symbol = np.abs(_symbol_array(eps, prob))
    symbol[lat.space_average_slab] = np.inf
    return float(np.max(np.abs(eps) / symbol * (lat.k_sq() + 1.0)))


def boussinesq_nonlinearity(U: FourierField) -> FourierField:
    """h(U) = (U^2)_xx with exact quadratic dealiasing.

    The second x-derivative annihilates the spatial mean created by the
    square, so the j = 0 slab of the output is exactly zero.
    """
    return spatial_derivative(product(U, U), 2)


# ---------------------------------------------------------------------------
# fixed point


def pde_picard_step(U: FourierField, eps: complex, prob: PdeProblem) -> FourierField:
    rhs = prob.forcing
    if prob.nonlinear:
        rhs = rhs + boussinesq_nonlinearity(U)
    return apply_n_inverse(eps, prob, rhs)


def pde_residual(U: FourierField, eps: complex, prob: PdeProblem,
                 normspec: NormSpec | None = None) -> float:
    """Norm of eps (w.d)^2 U + (w.d) U - eps beta U_xxxx - eps U_xx
    - eps (U^2)_xx - eps f."""
    if normspec is None:
        normspec = NormSpec(0.0, 0.0)
    d1 = directional_derivative(U, 1)
    d2 = directional_derivative(U, 2)
    x2 = spatial_derivative(U, 2)
    x4 = spatial_derivative(U, 4)
    res = eps * d2 + d1 - eps * prob.beta * x4 - eps * x2 - eps * prob.forcing
    if prob.nonlinear:
        res = res - eps * boussinesq_nonlinearity(U)
    return norm(res, normspec)


def pde_solve_fixed_point(eps: complex, prob: PdeProblem, cfg: SolverConfig,
                          u0: FourierField | None = None
                          ) -> tuple[FourierField, SolveReport]:
    """Iterate U <- eps N^-1 [(U^2)_xx + f] to its fixed point.

    Zero spatial average and Hermitian symmetry are preserved by every step
    (asserted cheaply).  The quadratic nonlinearity is locally contracting,
    so the ball radius is enforced whenever it is finite.
    """
    report = SolveReport(eps=eps)
    try:
        first = apply_n_inverse(eps, prob, prob.forcing)
    except ResonanceError as exc:
        report.status = "resonant"
        report.diagnostics["error"] = str(exc)
        return FourierField.zeros(prob.lattice) if u0 is None else u0.copy(), report
    symbol = _symbol_array(eps, prob)
    mag = np.abs(symbol)
    mag[prob.lattice.space_average_slab] = 0.0
    report.kappa = 1.0 + float(np.max(mag))
    c_smooth = smoothing_constant(eps, prob)
    report.diagnostics["c_emp_smoothing"] = c_smooth
    report.diagnostics["smallness"] = "local"

    first_norm = norm(first, cfg.norm)
    if math.isfinite(cfg.ball_radius):
        report.diagnostics["first_iterate_in_half_ball"] = bool(
            first_norm <= cfg.ball_radius / 2
        )

    real_eps = abs(complex(eps).imag) <= 1e-14 * abs(eps)

    def check_invariants(V: FourierField, it: int) -> None:
        avg = np.max(np.abs(V.space_average_slice()))
        if avg > 1e-12 * (1 + V.max_abs()):
            raise AssertionError(f"zero-average lost at step {it}: {avg:.2e}")
        if real_eps:
            sym = V.hermitian_defect()
            if sym > 1e-10 * (1 + V.max_abs()):
                raise AssertionError(
                    f"Hermitian symmetry lost at step {it}: {sym:.2e}"
                )

    # the start field is built in the call so that no name here keeps it
    # alive through the iteration
    return contract(lambda V: pde_picard_step(V, eps, prob),
                    lambda V: pde_residual(V, eps, prob, cfg.norm),
                    FourierField.zeros(prob.lattice) if u0 is None else u0.copy(),
                    cfg, report, math.isfinite(cfg.ball_radius), check_invariants)


# ---------------------------------------------------------------------------
# manufactured solutions and diagnostics


def manufactured_forcing(W: FourierField, eps: complex, prob_template: PdeProblem
                         ) -> FourierField:
    """Back-solved forcing making W an exact solution: f = N W / eps - h(W)."""
    NW = apply_n_forward(eps, prob_template, W)
    f = (1.0 / eps) * NW
    if prob_template.nonlinear:
        f = f - boussinesq_nonlinearity(W)
    return f.project_zero_space_average()


def illposed_log_growth(beta: float, j: int, t: float = 1.0) -> float:
    """log of the frictionless semigroup factor e^{t sqrt(beta j^4 - j^2)}.

    Documents why no initial-value solve exists here: the factor reaches
    astronomic size within t = 1 already at moderate j.
    """
    sym = beta * j ** 4 - j ** 2
    if sym <= 0:
        return 0.0
    return t * math.sqrt(sym)


def pde_certification_scan(eps: complex, beta: float, a_step: float = 1e-2,
                           j_max: int = 32, fault_scale: float = 1.0) -> dict:
    """Dense (a, t) scan of the smoothing quantity |eps| (a^2+t) / |N(a, t)|
    over |a| <= 50.

    Returns the measured constant and, for real eps and beta > 1, the exact
    certified bound max(1, 1/(beta-1)) against which the lattice supremum is
    asserted elsewhere.
    """
    a = np.arange(-50.0, 50.0 + a_step, a_step)
    js = np.arange(1, j_max + 1, dtype=float)
    t = (js ** 2)[None, :]
    aa = a[:, None]
    symbol = -eps * aa ** 2 + 1j * aa - eps * (beta * t ** 2 - t)
    quantity = np.abs(eps) * (aa ** 2 + t) / np.abs(symbol)
    c_emp = float(np.max(quantity)) * fault_scale
    idx = np.unravel_index(int(np.argmax(quantity)), quantity.shape)
    out = {
        "c_emp": c_emp,
        "argmax_a": float(a[idx[0]]),
        "argmax_j": int(js[idx[1]]),
        "exact_bound": None,
    }
    if abs(complex(eps).imag) <= 1e-14 * abs(eps) and beta > 1:
        out["exact_bound"] = max(1.0, 1.0 / (beta - 1.0))
    return out


def imaginary_axis_blowup(sigma: float, beta: float, j: int = 1) -> float:
    """sup |N^-1| near the real roots of the symbol for eps = i sigma.

    On the imaginary axis the symbol i(a - sigma a^2 - sigma (beta t^2 - t))
    has real roots in a, so the inverse multiplier is unbounded; this probes
    a neighborhood of the roots and returns the largest |1/N| found.
    """
    t = float(j * j)
    return imaginary_root_blowup(sigma, beta * t * t - t)


def imaginary_root_blowup(sigma: float, c: float) -> float:
    """Largest |1/s(a)| found near the real roots of s(a) = -eps a^2 + i a - eps c
    at eps = i sigma; inf when s vanishes on a sample point.

    The oscillator divisor l(a) = -eps a^2 + i a + eps lambda is the case
    c = -lambda.
    """
    eps = 1j * sigma
    disc = 1.0 - 4.0 * sigma * sigma * c
    roots = []
    if disc >= 0:
        roots.append((1.0 - math.sqrt(disc)) / (2.0 * sigma))
        roots.append((1.0 + math.sqrt(disc)) / (2.0 * sigma))
    best = 0.0
    for r in roots:
        local = r + np.linspace(-1e-6, 1e-6, 2001) * max(abs(r), 1.0)
        vals = np.abs(-eps * local ** 2 + 1j * local - eps * c)
        vals = vals[vals > 0]
        if vals.size:
            best = max(best, float(1.0 / np.min(vals)))
        else:
            best = math.inf
    return best
