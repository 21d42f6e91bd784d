"""Independent references the tests check the solver against.

Each one rebuilds, mode by mode or from a closed form, what the library
computes through its per-solve plans: the Jordan-block inverse, the dense
per-mode solve, the forward operator, the one-shot Picard step of the
Boussinesq map and the constants of its plan, each in its own pass, a
single mode's coefficient, a Cauchy decay fit and the plain Horner
evaluation of a polynomial nonlinearity.  Beside them stand
the plain forms of kernels the library runs in fewer passes: the
full-lattice Hermitian scan and k.omega multipliers, the meshgrid lattice
arrays and point evaluation, the norm with fresh arrays (L2's one-pass sum
of squares, else log space), both equations' residual fields built from
fresh fields, the out-of-place Horner and the ``np.ix_`` scatter and
gather between lattice and FFT bins.  Last come the builders only tests
need: a ``LinearPart`` assembled from Jordan blocks and a basis, the
Hermitian part of a field and a random Hermitian field.  The spectrum
CSV tables close the file: each row built, magnitude taken and roundoff
floor compared one mode at a time.  None of them is called by the
library, so they live beside the tests.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from typing import Sequence

import numpy as np

from response_solver.multipliers import (
    JordanBlock, LinearPart, ResonanceError, is_real_eps, l_eps, mode_matrices,
)
from response_solver.pde import PdeProblem, apply_n_inverse, boussinesq_nonlinearity
from response_solver.spectral import (
    _SQUARE_SAFE,
    _SQUARE_TINY,
    L2,
    FourierField,
    NonlinearitySpec,
    NormOverflowError,
    NormSpec,
    SpectralLattice,
    compose,
    lattice_index,
    log_weights,
    spatial_derivative,
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
    if linear.jordan is None:
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


def from_jordan(blocks: Sequence[tuple[float, int]],
                phi: np.ndarray | None = None) -> LinearPart:
    """The LinearPart with A = phi J phi^-1 from (eigenvalue, size) blocks and
    a basis (the identity by default), J the lower-bidiagonal Jordan form."""
    jb = tuple(JordanBlock(float(l), int(s)) for l, s in blocks)
    lams = np.concatenate([[b.lam] * b.size for b in jb])
    links = np.concatenate([[0.0] + [1.0] * (b.size - 1) for b in jb])[1:]
    phi = np.eye(lams.size) if phi is None else np.asarray(phi, dtype=float)
    A = phi @ (np.diag(lams) + np.diag(links, -1)) @ np.linalg.inv(phi)
    return LinearPart(tuple(map(tuple, A.tolist())), jb, tuple(map(tuple, phi.tolist())))


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
        rhs = rhs + boussinesq_nonlinearity(U, is_real_eps(eps))
    return apply_n_inverse(eps, prob, rhs)


def ode_residual_field(U: FourierField, eps: complex, prob) -> FourierField:
    """eps P (w.d)^2 U + Q (w.d) U + eps (A U + g(U)) - eps f over fresh
    fields: ``ode.residual`` takes the norm of these bits."""
    lin = prob.linear
    d1 = FourierField(U.lattice, directional_derivative(U, 1).coeffs * lin.q_diagonal)
    d2 = FourierField(U.lattice, directional_derivative(U, 2).coeffs * lin.p_diagonal)
    AU = FourierField(U.lattice, np.einsum("ij,...j->...i", lin.array, U.coeffs))
    gU = compose(U, prob.g_hat, is_real_eps(eps))
    return eps * d2 + d1 + eps * (AU + gU) - eps * prob.forcing


def pde_residual_field(U: FourierField, eps: complex, prob: PdeProblem) -> FourierField:
    """eps (w.d)^2 U + (w.d) U - eps beta U_xxxx - eps U_xx - eps f
    - eps (U^2)_xx over fresh fields: ``pde.pde_residual`` takes the norm
    of these bits."""
    d1, d2 = directional_derivative(U, 1), directional_derivative(U, 2)
    x2, x4 = spatial_derivative(U, 2), spatial_derivative(U, 4)
    res = eps * d2 + d1 - eps * prob.beta * x4 - eps * x2 - eps * prob.forcing
    if prob.nonlinear:
        res = res - eps * boussinesq_nonlinearity(U, is_real_eps(eps))
    return res


def n_inverse_multiplier(eps: complex, lat: SpectralLattice,
                         symbol: np.ndarray) -> np.ndarray:
    """eps / N with zeros on the j = 0 slab, through a boolean mask and two
    ``np.where``: ``pde.NInverse.multiplier`` must give the same bits."""
    mask = np.zeros(lat.mode_shape, dtype=bool)
    mask[lat.space_average_slab] = True
    bad = (np.abs(symbol) == 0.0) & ~mask
    if np.any(bad):
        mode = lat.mode_of_index(np.argmax(bad))
        raise ResonanceError(f"resonant PDE mode at (k, j)={mode}", mode=mode)
    scaled = eps / np.where(mask, 1.0, symbol)
    return np.where(mask, 0.0, scaled)[..., None]


def n_forward_sup(symbol: np.ndarray, lat: SpectralLattice) -> float:
    """max |N| off the j = 0 slab, a solve's kappa - 1, in its own pass."""
    mag = np.abs(symbol)
    mag[lat.space_average_slab] = 0.0
    return float(np.max(mag))


def smoothing_sup(eps: complex, symbol: np.ndarray, lat: SpectralLattice) -> float:
    """max |eps| (|k|^2 + j^2 + 1) / |N| off the j = 0 slab, in its own pass."""
    mag = np.abs(symbol)
    mag[lat.space_average_slab] = np.inf
    return float(np.max(np.abs(eps) / mag * (lat.k_sq() + 1.0)))


def pde_symbol(eps: complex, prob: PdeProblem) -> np.ndarray:
    """The Boussinesq symbol with k.omega taken on the full lattice."""
    lat = prob.lattice
    j = lat.axis_modes_along(lat.d).astype(float)
    return l_eps(eps, j ** 2 - prob.beta * j ** 4, full_k_dot_omega(lat))


# ---------------------------------------------------------------------------
# spectral


def reflected_conj(f: FourierField) -> np.ndarray:
    """conj(coeff(-k)) arranged on the +k grid."""
    return np.conj(f.coeffs[(slice(None, None, -1),) * f.lattice.n_axes])


def hermitian_part(f: FourierField) -> FourierField:
    """(f + conj f(-k)) / 2: the Hermitian part, real on the torus."""
    return FourierField(f.lattice, 0.5 * (f.coeffs + reflected_conj(f)))


def random_real(lattice: SpectralLattice, rng: np.random.Generator,
                decay: float = 0.5, amplitude: float = 1.0) -> FourierField:
    """Random Hermitian-symmetric field with e^{-decay |k|_1} envelope (zero
    spatial average on a spatial lattice)."""
    raw = rng.standard_normal(lattice.field_shape) + 1j * rng.standard_normal(
        lattice.field_shape
    )
    env = np.exp(-decay * lattice.k_l1())[..., None]
    f = hermitian_part(FourierField(lattice, amplitude * raw * env))
    if lattice.has_space:
        f = f.project_zero_space_average()
    return f


def full_k_dot_omega(lat: SpectralLattice) -> np.ndarray:
    """k.omega on every mode of ``mode_shape``: a meshgrid over the torus
    axes, copied along j on a spatial lattice."""
    grids = np.meshgrid(*(lat.axis_modes(i) for i in range(lat.d)), indexing="ij")
    kdw = sum(w * g for w, g in zip(lat.omega, grids))
    if lat.has_space:
        kdw = kdw[..., None] * np.ones(2 * lat.J + 1)
    return np.asarray(kdw, dtype=float)


def sorted_k_dot_omega(lat: SpectralLattice) -> np.ndarray:
    """k.omega once per torus mode (the j = -J column), sorted."""
    kdw = full_k_dot_omega(lat)
    return np.sort(kdw[..., :1] if lat.has_space else kdw, axis=None)


def k_l1(lat: SpectralLattice) -> np.ndarray:
    """|k|_1 (+|j|) per mode, summed over a meshgrid."""
    grids = np.meshgrid(*(np.abs(lat.axis_modes(i)) for i in range(lat.n_axes)),
                        indexing="ij")
    return np.asarray(sum(grids), dtype=float)


def k_sq(lat: SpectralLattice) -> np.ndarray:
    """|k|^2 (+j^2) per mode, summed over a meshgrid."""
    grids = np.meshgrid(*(lat.axis_modes(i).astype(float) ** 2 for i in range(lat.n_axes)),
                        indexing="ij")
    return np.asarray(sum(grids), dtype=float)


def evaluate_at(f: FourierField, theta: Sequence[float], x: float | None = None) -> np.ndarray:
    """sum_k u_k e^{i k.theta} (e^{i j x}), its phase added axis by axis
    onto a full-lattice array of zeros."""
    lat = f.lattice
    phase = np.zeros(lat.mode_shape)
    for axis in range(lat.d):
        phase = phase + lat.axis_modes_along(axis) * float(theta[axis])
    if lat.has_space:
        phase = phase + lat.axis_modes_along(lat.d) * float(x)
    weights = np.exp(1j * phase)
    return np.tensordot(weights, f.coeffs, axes=(tuple(range(lat.n_axes)),) * 2)


def directional_derivative(u: FourierField, order: int = 1) -> FourierField:
    """(omega . d/dtheta)^order with its multiplier on the full lattice."""
    mult = (1j * full_k_dot_omega(u.lattice)) ** order
    return FourierField(u.lattice, u.coeffs * mult[..., None])


def hermitian_defect(f: FourierField) -> float:
    """max |coeff(-k) - conj(coeff(k))|, scanned over the whole lattice."""
    return float(np.max(np.abs(f.coeffs - reflected_conj(f))))


def norm(f: FourierField, spec: NormSpec) -> float:
    """The weighted norm, one fresh array per pass.  L2 first takes the
    root of the one-pass sum of squares of the real and imaginary parts, in
    their memory order, when that sum lies in [_SQUARE_TINY**2, inf).
    Otherwise the norm is summed in log space with the log weights gathered
    for every spec.  A field whose largest magnitude is
    outside [_SQUARE_TINY, _SQUARE_SAFE) is scaled by the power of two that
    brings it into [0.5, 1), and the result back; a weighted field with a
    nonzero magnitude, so scaled, below _SQUARE_TINY enters as per-mode
    logs, not squares."""
    if spec == L2:
        parts = np.stack([f.coeffs.real, f.coeffs.imag], axis=-1).ravel()
        total = float(np.einsum("i,i->", parts, parts))
        if _SQUARE_TINY ** 2 <= total < math.inf:
            return math.sqrt(total)
    mags = np.abs(f.coeffs)
    if np.any(np.isnan(mags)):
        raise FloatingPointError("norm of a field with NaN coefficients")
    if np.any(np.isinf(mags)):
        raise NormOverflowError("norm of a field with infinite coefficients")
    if not np.any(mags):
        return 0.0
    top = float(mags.max())
    shift = 0 if _SQUARE_TINY <= top < _SQUARE_SAFE else math.frexp(top)[1]
    scaled = np.ldexp(mags, -shift)
    if spec != L2 and np.any((scaled > 0.0) & (scaled < _SQUARE_TINY)):
        # a weighted field spanning past the square-safe window: per mode
        # 2 log of its largest component plus the log of the sum of the
        # squared component ratios
        largest = scaled.max(axis=-1)
        nonzero = largest > 0.0
        ratios = scaled[nonzero] / largest[nonzero][:, None]
        logmag2 = 2.0 * np.log(largest[nonzero]) + np.log(np.sum(ratios ** 2, axis=-1))
    else:
        mag2 = np.sum(scaled ** 2, axis=-1)
        nonzero = mag2 > 0.0
        logmag2 = np.log(mag2[nonzero])
    logterms = logmag2 + log_weights(f.lattice, spec)[nonzero]
    peak = float(np.max(logterms))
    total = math.sqrt(float(np.sum(np.exp(logterms - peak))))
    log_scaled = 0.5 * peak + math.log(total)
    log_result = log_scaled + shift * math.log(2.0)
    if log_result > math.log(np.finfo(float).max):
        raise NormOverflowError(f"norm exceeds float range (log value {log_result:.1f})")
    if log_scaled > math.log(np.finfo(float).max):
        return math.exp(log_result)
    return math.ldexp(math.exp(log_scaled), shift)


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


# ---------------------------------------------------------------------------
# cli


def reference_roundoff_floor(u: FourierField) -> float:
    """eps * the exactly rounded sum of |c| over every coefficient and
    component; inf when that sum leaves the float range."""
    try:
        return sys.float_info.epsilon * math.fsum(abs(c) for c in u.coeffs.ravel().tolist())
    except OverflowError:
        return math.inf


def _reference_magnitude(row: list[complex], squares: float) -> float:
    """sqrt(squares), the plain sqrt(sum |c|^2), unless the sum of squares
    overflowed or fell below the smallest normal float with a nonzero |c|:
    then the magnitude is taken with the largest (finite) |c| factored out."""
    a = [abs(c) for c in row]
    s = max(a)
    if math.isfinite(s) and (math.isinf(squares)
                             or 0.0 < s and squares < np.finfo(float).tiny):
        return s * math.sqrt(sum((v / s) ** 2 for v in a))
    return math.sqrt(squares)


def reference_row_magnitudes(u: FourierField) -> np.ndarray:
    """Each mode's magnitude over its components, one mode at a time."""
    with np.errstate(over="ignore"):
        squares = np.sum(np.abs(u.coeffs) ** 2, axis=-1)
    mags = np.empty(u.lattice.mode_shape)
    for idx in np.ndindex(u.lattice.mode_shape):
        mags[idx] = _reference_magnitude(u.coeffs[idx].tolist(), float(squares[idx]))
    return mags


def reference_spectrum_tables(u: FourierField, spec: NormSpec) -> dict:
    """Both spectrum CSV texts, built one row at a time and sorted.  A row
    whose magnitude is at or below ``reference_roundoff_floor`` is left out,
    unless that floor is not finite."""
    lat = u.lattice
    logw = log_weights(lat, spec)
    mags = reference_row_magnitudes(u)
    floor = reference_roundoff_floor(u)
    rows = []
    for idx in np.ndindex(lat.mode_shape):
        if math.isfinite(floor) and mags[idx] <= floor:
            continue
        c = u.coeffs[idx + (0,)]
        rows.append([i - cut for i, cut in zip(idx, lat.cutoffs)]
                    + [float(c.real), float(c.imag), float(mags[idx]),
                       math.exp(min(logw[idx], 700.0))])
    header = [f"k{i + 1}" for i in range(lat.d)] + (["j"] if lat.has_space else []) \
        + ["re", "im", "abs", "weight_rho_m"]
    tables = {}
    for suffix, key in (("by_index", lambda r: r[:lat.n_axes]),
                        ("by_magnitude", lambda r: -r[lat.n_axes + 2])):
        text = io.StringIO()
        w = csv.writer(text)
        w.writerow(header)
        w.writerows(sorted(rows, key=key))
        tables[suffix] = text.getvalue()
    return tables
