"""Independent references the tests check the solver against.

Each one rebuilds, mode by mode or from a closed form, what the library
computes through its per-solve plans: the Jordan-block inverse, the dense
per-mode solve, the forward operator, the one-shot Picard step of the
Boussinesq map, a single mode's coefficient, a Cauchy decay fit and the
plain Horner evaluation of a polynomial nonlinearity.  Beside them stand
the plain forms of kernels the library runs in fewer passes: the
full-lattice Hermitian scan and k.omega multipliers, the log-space norm
with fresh arrays, the out-of-place Horner and the ``np.ix_`` scatter and
gather between lattice and FFT bins.  None of them is called by the
library, so they live beside the tests.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from response_solver.multipliers import LinearPart, ResonanceError, l_eps, mode_matrices
from response_solver.pde import PdeProblem, apply_n_inverse, boussinesq_nonlinearity
from response_solver.spectral import (
    _SQUARE_SAFE,
    FourierField,
    NonlinearitySpec,
    NormOverflowError,
    NormSpec,
    SpectralLattice,
    _scaled_log_mag2,
    lattice_index,
    log_weights,
)


# ---------------------------------------------------------------------------
# multipliers


def forward_block(eps: complex, lam: float, size: int, a: float,
                  p: float = 1.0, q: float = 1.0) -> np.ndarray:
    """Jordan-block mode matrix: divisor on the diagonal, eps below it."""
    l = l_eps(eps, lam, a, p, q)
    M = np.zeros((size, size), dtype=complex)
    for i in range(size):
        M[i, i] = l
        if i > 0:
            M[i, i - 1] = eps
    return M


def block_inverse(eps: complex, lam: float, size: int, a: float,
                  p: float = 1.0, q: float = 1.0) -> np.ndarray:
    """Closed-form inverse of a Jordan mode block.

    Lower-triangular Toeplitz with (-eps)^r l^-(r+1) on subdiagonal r.
    Raises ResonanceError when the divisor vanishes.
    """
    l = l_eps(eps, lam, a, p, q)
    if l == 0:
        raise ResonanceError(f"vanishing divisor at a={a}, lambda={lam}, eps={eps}")
    inv_l = 1.0 / l
    out = np.zeros((size, size), dtype=complex)
    entry = inv_l
    for r in range(size):
        for i in range(r, size):
            out[i, i - r] = entry
        entry *= -eps * inv_l
    return out


def jordan_mode_inverse(eps: complex, a: float, linear: LinearPart) -> np.ndarray:
    """phi (block-diagonal closed-form inverse) phi^-1: the per-mode
    reference for the dense solve."""
    if not linear.has_jordan_basis():
        raise ValueError("the closed form needs jordan blocks and phi")
    blocks = [block_inverse(eps, b.lam, b.size, a, b.p, b.q) for b in linear.jordan]
    n = linear.n
    inv = np.zeros((n, n), dtype=complex)
    at = 0
    for B in blocks:
        s = B.shape[0]
        inv[at:at + s, at:at + s] = B
        at += s
    phi = linear.phi_array
    return phi @ inv @ np.linalg.inv(phi)


def mode_solve(eps: complex, a: float, linear: LinearPart, rhs: np.ndarray) -> np.ndarray:
    """Solve L(a) x = rhs for one mode."""
    rhs = np.asarray(rhs, dtype=complex)
    try:
        return np.linalg.solve(mode_matrices(eps, linear, a), rhs)
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(f"singular mode matrix at a={a}: {exc}") from exc


def apply_forward(eps: complex, linear: LinearPart, u: FourierField) -> FourierField:
    """L u: the forward damped operator, mode by mode."""
    lat = u.lattice
    M = mode_matrices(eps, linear, lat.k_dot_omega())
    out = np.einsum("...ij,...j->...i", M, u.coeffs)
    return FourierField(lat, out)


# ---------------------------------------------------------------------------
# pde


def pde_picard_step(U: FourierField, eps: complex, prob: PdeProblem) -> FourierField:
    """One application of U -> eps N^-1 [(U^2)_xx + f].

    ``PdeProblem.fixed_point_map``'s step gives the same bits from the
    solve's one ``NInverse``."""
    rhs = prob.forcing
    if prob.nonlinear:
        rhs = rhs + boussinesq_nonlinearity(U)
    return apply_n_inverse(eps, prob, rhs)


def pde_symbol(eps: complex, prob: PdeProblem) -> np.ndarray:
    """The Boussinesq symbol with k.omega taken on the full lattice."""
    lat = prob.lattice
    j = lat.axis_modes_along(lat.d).astype(float)
    return l_eps(eps, j ** 2 - prob.beta * j ** 4, lat.k_dot_omega())


# ---------------------------------------------------------------------------
# spectral


def directional_derivative(u: FourierField, order: int = 1) -> FourierField:
    """(omega . d/dtheta)^order with its multiplier on the full lattice."""
    mult = (1j * u.lattice.k_dot_omega()) ** order
    return FourierField(u.lattice, u.coeffs * mult[..., None])


def hermitian_defect(f: FourierField) -> float:
    """max |coeff(-k) - conj(coeff(k))|, scanned over the whole lattice."""
    return float(np.max(np.abs(f.coeffs - f.reflected_conj())))


def norm(f: FourierField, spec: NormSpec) -> float:
    """The log-space weighted norm, one fresh array per pass and the log
    weights gathered for every spec."""
    logw = log_weights(f.lattice, spec)
    mags = np.abs(f.coeffs)
    if mags.max() < _SQUARE_SAFE:
        mag2 = np.sum(mags ** 2, axis=-1)
        nonzero = mag2 > 0.0
        if not np.any(nonzero):
            return 0.0
        log_mag2 = np.log(mag2[nonzero])
    else:
        nonzero, log_mag2 = _scaled_log_mag2(mags)
    logterms = log_mag2 + logw[nonzero]
    peak = float(np.max(logterms))
    total = math.sqrt(float(np.sum(np.exp(logterms - peak))))
    log_result = 0.5 * peak + math.log(total)
    if log_result > math.log(np.finfo(float).max):
        raise NormOverflowError(f"norm exceeds float range (log value {log_result:.1f})")
    return math.exp(log_result)


def fft_bins(lat: SpectralLattice, grid: Sequence[int], half: bool = False):
    """``np.ix_`` index of the lattice modes among the FFT bins (k mod N per
    axis); ``half`` keeps the last axis's modes 0..cutoff, a real FFT's
    bins."""
    ranges = [np.arange(-c, c + 1) % g for g, c in zip(grid, lat.cutoffs)]
    if half:
        ranges[-1] = np.arange(lat.cutoffs[-1] + 1)
    return np.ix_(*ranges)


def padded(f: FourierField, grid: Sequence[int]) -> np.ndarray:
    """f's coefficients scattered into the FFT bins of a zero grid."""
    out = np.zeros(tuple(grid) + (f.lattice.n,), dtype=complex)
    out[fft_bins(f.lattice, grid)] = f.coeffs
    return out


def mode_coefficient(f: FourierField, k: Sequence[int]) -> np.ndarray:
    return f.coeffs[lattice_index(f.lattice, k)]


def cauchy_decay_fit(u: FourierField, floor: float = 0.0) -> tuple[float, float]:
    """Least-squares fit of |u_k| <= M e^{-rho |k|}; returns (M, rho_est).

    Fits log|u_k| against |k|_1 over nonzero modes.  Needs at least three
    contributing modes.
    """
    mag = np.sqrt(np.sum(np.abs(u.coeffs) ** 2, axis=-1)).ravel()
    l1 = u.lattice.k_l1().ravel()
    keep = mag > max(floor, 0.0)
    if np.count_nonzero(keep) < 3:
        raise ValueError("need at least 3 nonzero modes for a decay fit")
    y = np.log(mag[keep])
    x = l1[keep]
    slope, intercept = np.polyfit(x, y, 1)
    return float(np.exp(intercept)), float(-slope)


def polynomial_reference(g: NonlinearitySpec, x: np.ndarray) -> np.ndarray:
    """The polynomial branch of ``NonlinearitySpec.__call__`` written
    plainly: Horner from a zero accumulator, one fresh array per step.  The
    library's in-place evaluation must give the same bits."""
    x = np.asarray(x)
    out = np.zeros_like(x)
    for c, row in enumerate(g.coeffs):
        if len(row) == 0:
            continue
        xc = x[..., c]
        acc = np.zeros_like(xc)
        for p in range(len(row) - 1, -1, -1):
            acc = acc * xc + row[p]
        out[..., c] = acc
    return out


def horner_reference(g: NonlinearitySpec, x: np.ndarray) -> np.ndarray:
    """The polynomial branch of ``NonlinearitySpec.__call__`` out of place:
    ``x * 0.0 + top`` to start, then ``acc * x + c`` into a fresh array
    per step.  The in-place evaluation runs the same operations."""
    x = np.asarray(x)
    out = None if len(g.coeffs) == x.shape[-1] == 1 else np.zeros_like(x)
    for c, row in enumerate(g.coeffs):
        xc = x[..., c]
        acc = xc * 0.0 + row[-1] if row else np.zeros_like(xc)
        for coeff in row[-2::-1]:
            acc = acc * xc + coeff
        if out is None:
            return acc[..., None]
        out[..., c] = acc
    return out


def piecewise_reference(g: NonlinearitySpec, x: np.ndarray) -> np.ndarray:
    """The piecewise-linear branch of ``NonlinearitySpec.__call__`` as it was
    written before the knot table moved into the spec: the knots and the
    g(0) offset rebuilt on every call.  The table built once must give the
    same bits."""
    breaks = np.asarray(g.breakpoints)
    slopes = np.asarray(g.slopes)
    if len(breaks) == 0:
        return slopes[0] * x
    knots = np.zeros(len(breaks))
    for i in range(1, len(breaks)):
        knots[i] = knots[i - 1] + slopes[i] * (breaks[i] - breaks[i - 1])

    def raw(z):
        seg = np.searchsorted(breaks, z, side="left")
        a = np.maximum(seg - 1, 0)
        return knots[a] + slopes[seg] * (z - breaks[a])

    return raw(x) - raw(np.zeros(1))[0]
