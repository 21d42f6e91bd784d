"""Response solutions of the strongly damped, ill-posed Boussinesq equation.

The hull function U(theta, x) on T^d x T solves

    eps (w.d)^2 U + (w.d) U - eps beta U_xxxx - eps U_xx = eps (U^2)_xx + eps f

with zero spatial average.  The linear operator is a scalar Fourier
multiplier over (k, j); its scaled inverse gains two x-derivatives, which is
what tames the unbounded nonlinearity.  ``PdeProblem.fixed_point_map``
gives that contraction to ``ode.solve_fixed_point``, the driver both
equations share.  No initial-value integration exists here: beta > 0 makes
the evolution problem ill posed (without friction mode j grows like
e^{t sqrt(beta j^4 - j^2)}, which is e^1448 at t = 1 for beta = 2, j = 32), and
only the fixed-point path is provided.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .multipliers import (
    Bound,
    ResonanceError,
    imaginary_root_blowup,
    is_real_eps,
    l_eps,
    root_real_parts,
)
from .ode import SolveReport, SolverConfig, solve_fixed_point
from .spectral import (
    L2,
    FourierField,
    NormSpec,
    SpectralLattice,
    directional_multiplier,
    norm,
    product,
    spatial_multiplier,
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


def check_beta(beta: float, J: int = 64) -> BetaCheck:
    """Accept beta unless 1/sqrt(beta) is an integer (within 1e-12).

    Also reports min_j |beta j^4 - j^2| over 1 <= j <= J: tiny values mean
    the multiplier is barely invertible and conditioning will be poor.
    """
    if beta <= 0:
        raise ValueError("beta > 0 required")
    inv_root = 1.0 / math.sqrt(beta)
    nearest = round(inv_root)
    hit = abs(inv_root - nearest) <= 1e-12
    j = np.arange(1, J + 1, dtype=float)
    symbols = np.abs(beta * j ** 4 - j ** 2)
    argmin = int(np.argmin(symbols)) + 1
    check = BetaCheck(
        beta=beta,
        accepted=not (nearest >= 1 and hit),
        offending_integer=nearest if hit else None,
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

    # h(0) = (0^2)_xx = 0, so the map's first iterate eps N^-1 f is step(0)
    first_is_step_from_zero = True

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
        if not self.forcing.is_hermitian():
            raise ValueError("forcing must be real-symmetric")
        self.lattice.validate_nonresonance()

    def fixed_point_map(self, eps: complex, cfg: SolverConfig, report: SolveReport):
        """(step, residual, first iterate, enforce_ball) of
        U <- eps N^-1 [(U^2)_xx + f] for ``ode.solve_fixed_point``.

        The quadratic term is locally contracting, so a finite ball radius is
        enforced.  A vanishing symbol raises ``ResonanceError``.
        """
        # the solve's plan: one symbol gives the step's multiplier, kappa
        # and the smoothing constant.  Only the multiplier outlives set-up:
        # the symbol goes before the first iterate is allocated, so no freed
        # set-up array is left as a hole under the iterates that the heap
        # cannot hand back
        lat = self.lattice
        inverse = NInverse(eps, lat, _symbol_array(eps, self))
        report.kappa = 1.0 + inverse.forward_sup
        report.diagnostics["c_emp_smoothing"] = inverse.smoothing_sup
        first = inverse(self.forcing)
        report.diagnostics["smallness"] = "local"
        real_eps = is_real_eps(eps)
        d_xx = spatial_multiplier(lat, 2)

        def step(V: FourierField) -> FourierField:
            """U -> eps N^-1 [(U^2)_xx + f] through the plan, in the
            product's own array: the bits of ``inverse(f +
            spatial_derivative(product, 2))``, the same operations in the
            same order.  It takes the real transforms at real eps."""
            if not self.nonlinear:
                return inverse(self.forcing)
            out = product(V, V, real_eps)
            c = out.coeffs
            np.multiply(c, d_xx, out=c)
            np.add(self.forcing.coeffs, c, out=c)
            np.multiply(c, inverse.multiplier, out=c)
            return out

        return (step, lambda V: pde_residual(V, eps, self, cfg.norm),
                first, math.isfinite(cfg.ball_radius))


# ---------------------------------------------------------------------------
# the multiplier


def _symbol_array(eps: complex, prob: PdeProblem) -> np.ndarray:
    lat = prob.lattice
    j = lat.axis_modes_along(lat.d).astype(float)
    return l_eps(eps, j ** 2 - prob.beta * j ** 4, lat.k_dot_omega())


class NInverse:
    """eps N^-1 at one eps on one lattice, from the symbol N given: the plan
    a solve builds once.

    The constructor is its only check.  It takes |N| once, in one array
    that it rewrites in place, and either raises ``ResonanceError`` at the
    first vanishing symbol off the j = 0 slab or sets ``forward_sup``
    (max |N| off the slab), ``smoothing_sup`` (the (rho, m-2) -> (rho, m)
    norm max |eps| (|k|^2 + j^2 + 1) / |N| off the slab) and
    ``multiplier`` (eps / N, zero on the slab).
    A call multiplies by it, bit for bit what ``apply_n_inverse`` gives, so
    a solve's steps only multiply.
    """

    def __init__(self, eps: complex, lat: SpectralLattice, symbol: np.ndarray):
        self.lattice = lat
        slab = lat.space_average_slab
        mag = np.abs(symbol)
        mag[slab] = 0.0
        self.forward_sup = float(np.max(mag))
        mag[slab] = np.inf
        bad = mag == 0.0
        if np.any(bad):
            mode = lat.mode_of_index(np.argmax(bad))
            raise ResonanceError(f"resonant PDE mode at (k, j)={mode}", mode=mode)
        del bad
        np.divide(np.abs(eps), mag, out=mag)
        np.multiply(mag, lat.k_sq() + 1.0, out=mag)
        self.smoothing_sup = float(np.max(mag))
        # |N| goes before the multiplier is allocated, so the multiplier can
        # take the place the set-up arrays leave rather than sit above it
        del mag
        self.multiplier = np.divide(eps, symbol, out=np.zeros(symbol.shape, complex),
                                    where=lat.axis_modes_along(lat.d) != 0)[..., None]

    def __call__(self, V: FourierField) -> FourierField:
        return FourierField(self.lattice, V.coeffs * self.multiplier)


def apply_n_inverse(eps: complex, prob: PdeProblem, V: FourierField) -> FourierField:
    """eps N^-1 V on the j != 0 modes; the j = 0 slab stays zero.

    The inverse gains two spatial derivatives: its (rho, m-2) -> (rho, m)
    operator norm is the modewise supremum a solve reports as
    ``c_emp_smoothing``.
    """
    if V.lattice != prob.lattice:
        raise ValueError("field lives on a different lattice")
    return NInverse(eps, prob.lattice, _symbol_array(eps, prob))(V)


def apply_n_forward(eps: complex, prob: PdeProblem, U: FourierField) -> FourierField:
    """N U: the forward operator (j = 0 slab passes through as zero)."""
    symbol = _symbol_array(eps, prob)
    return FourierField(prob.lattice, U.coeffs * symbol[..., None])


def boussinesq_nonlinearity(U: FourierField, real: bool) -> FourierField:
    """h(U) = (U^2)_xx with exact quadratic dealiasing (``product``'s ``real``).

    The second x-derivative annihilates the spatial mean created by the
    square, so the j = 0 slab of the output is exactly zero.  It multiplies
    in the product's own array: the bits of ``spatial_derivative``.
    """
    out = product(U, U, real)
    np.multiply(out.coeffs, spatial_multiplier(U.lattice, 2), out=out.coeffs)
    return out


# ---------------------------------------------------------------------------
# fixed point


def pde_residual(U: FourierField, eps: complex, prob: PdeProblem,
                 normspec: NormSpec = L2) -> float:
    """Norm of eps (w.d)^2 U + (w.d) U - eps beta U_xxxx - eps U_xx
    - eps (U^2)_xx - eps f.

    The equation is written out here from derivatives, on purpose apart from
    the symbol ``l_eps``: ``manufactured_forcing`` builds f through
    ``apply_n_forward``, so a residual routed through the symbol would vanish
    on manufactured solutions by construction.  ``eps h(U)`` comes first,
    in the padded product's own output, so no lattice array is held through
    the product; the linear part then goes into two more lattice arrays, in
    place.  These are the bits of ``eps d2 + d1 - eps beta x4 - eps x2 -
    eps f - eps h(U)`` over fresh fields, the same operations on each
    coefficient in the same order.
    """
    lat, c = U.lattice, U.coeffs
    if prob.nonlinear:
        h = boussinesq_nonlinearity(U, is_real_eps(eps)).coeffs
        np.multiply(h, eps, out=h)
    res = np.multiply(c, directional_multiplier(lat, 2))
    np.multiply(res, eps, out=res)
    term = np.multiply(c, directional_multiplier(lat, 1))
    np.add(res, term, out=res)
    np.multiply(c, spatial_multiplier(lat, 4), out=term)
    np.multiply(term, eps * prob.beta, out=term)
    np.subtract(res, term, out=res)
    np.multiply(c, spatial_multiplier(lat, 2), out=term)
    np.multiply(term, eps, out=term)
    np.subtract(res, term, out=res)
    np.multiply(prob.forcing.coeffs, eps, out=term)
    np.subtract(res, term, out=res)
    if prob.nonlinear:
        np.subtract(res, h, out=res)
    return norm(FourierField(lat, res), normspec)


def pde_solve_fixed_point(eps: complex, prob: PdeProblem, cfg: SolverConfig
                          ) -> tuple[FourierField, SolveReport]:
    """A cold ``ode.solve_fixed_point`` on a Boussinesq problem, under its
    older name."""
    return solve_fixed_point(eps, prob, cfg)


# ---------------------------------------------------------------------------
# manufactured solutions and diagnostics


def manufactured_forcing(W: FourierField, eps: complex, prob_template: PdeProblem
                         ) -> FourierField:
    """Back-solved forcing making W an exact solution: f = N W / eps - h(W)."""
    NW = apply_n_forward(eps, prob_template, W)
    f = (1.0 / eps) * NW
    if prob_template.nonlinear:
        f = f - boussinesq_nonlinearity(W, is_real_eps(eps))
    return f.project_zero_space_average()


def pde_certification_scan(eps: complex, beta: float, lat: SpectralLattice) -> Bound:
    """The smoothing quantity |eps| (a^2+t) / |N(a, t)|, t = j^2, over
    1 <= j <= ``lat.J``: its max over the lattice's a = k.omega
    (``empirical``) against its sup over the real a-line (``certified``).

    The sup is in closed form: the larger of the limit 1 at large |a| and
    the values at the real parts of the roots of P = 4 a Q - (a^2+t) Q'
    with Q = |N|^2, for every j at once (``root_real_parts``).  Between
    real roots of P the quantity is monotone in a, so its lattice max sits
    at a lattice a next to a root or at an end of the lattice's range.
    """
    t = np.arange(1, lat.J + 1, dtype=float)[:, None] ** 2
    lam, e2, y = t - beta * t * t, abs(eps) ** 2, complex(eps).imag
    # P / 2 = -y a^4 + c3 a^3 + 3 y (lam + t) a^2 + c1 a - y lam t
    c3, c1 = 1.0 - 2.0 * e2 * (lam + t), 2.0 * e2 * lam * (lam + t) - t
    if is_real_eps(eps):        # P / 2 = a (c3 a^2 + c1)
        r = np.sqrt(np.maximum(np.divide(-c1, c3, out=np.zeros_like(c1),
                                         where=c3 != 0.0), 0.0))
        roots = np.hstack([np.zeros_like(r), r, -r])
    else:
        roots = root_real_parts(np.hstack([np.full_like(t, -y), c3, 3.0 * y * (lam + t),
                                           c1, -y * lam * t]))

    def quantity(a: np.ndarray) -> np.ndarray:
        return abs(eps) * (a ** 2 + t) / np.abs(l_eps(eps, lam, a))

    a = lat.sorted_k_dot_omega()
    at = np.clip(np.searchsorted(a, roots), 1, a.size - 1)
    near = np.hstack([a[at - 1], a[at], np.broadcast_to(a[[0, -1]], (lat.J, 2))])
    return Bound(eps, float(np.max(quantity(near))),
                 max(float(np.max(quantity(roots))), 1.0), is_real_eps(eps))


def imaginary_axis_blowup(sigma: float, beta: float, j: int = 1) -> float:
    """sup_a |1/N(a, j)| at eps = i sigma (see ``imaginary_root_blowup``).

    On the imaginary axis the symbol is i(a - sigma a^2 - sigma (beta t^2 - t))
    with t = j^2; wherever it has a real root in a the inverse multiplier is
    unbounded.
    """
    t = float(j * j)
    return imaginary_root_blowup(sigma, beta * t * t - t)

