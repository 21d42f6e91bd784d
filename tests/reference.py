"""Independent references the tests check the solver against.

Each one rebuilds, mode by mode or from a closed form, what the library
computes through its per-solve plans: the Jordan-block inverse, the dense
per-mode solve, the forward operator, the one-shot Picard step of the
Boussinesq map, a single mode's coefficient, a Cauchy decay fit and the
plain Horner evaluation of a polynomial nonlinearity.  None of them is
called by the library, so they live beside the tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from response_solver.multipliers import LinearPart, ResonanceError, l_eps, mode_matrices
from response_solver.pde import PdeProblem, apply_n_inverse, boussinesq_nonlinearity
from response_solver.spectral import FourierField, NonlinearitySpec, lattice_index


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


# ---------------------------------------------------------------------------
# spectral


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
