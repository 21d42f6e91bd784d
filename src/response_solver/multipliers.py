"""Per-mode inversion of the damped linear operator and its certified bounds.

The operator acts diagonally in Fourier space: mode k sees the n x n matrix
L(a) = -eps a^2 p + i a q + eps A at a = k.omega.  With Jordan data for A the
inverse has a closed lower-triangular Toeplitz form per block; without it a
dense solve is used.  Real eps admits an exact lower bound on the scalar
divisor, |l(a)| >= |eps lambda|; complex-cone bounds are certified from a
dense scan of the a-line.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .spectral import FourierField, SpectralLattice


class ResonanceError(ArithmeticError):
    """A mode matrix is (numerically) singular: eps outside the certified domain."""

    def __init__(self, message: str, mode=None):
        super().__init__(message)
        self.mode = mode


class BoundViolationError(AssertionError):
    """An empirical multiplier norm exceeded its certified bound."""


# ---------------------------------------------------------------------------
# linear part


@dataclass(frozen=True)
class JordanBlock:
    lam: float
    size: int
    p: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("block size >= 1 required")
        if self.lam == 0.0 or not math.isfinite(self.lam):
            raise ValueError("eigenvalues must be real, finite and nonzero")
        if self.p == 0.0 or self.q == 0.0:
            raise ValueError("diagonal coefficients p, q must be nonzero")


@dataclass(frozen=True)
class LinearPart:
    """The matrix A = Dg(0), optionally with its Jordan structure.

    ``jordan`` lists (eigenvalue, block size) with real nonzero eigenvalues;
    ``phi`` is the generalized-eigenvector basis with A phi = phi J, where J
    is the lower-bidiagonal Jordan form built from the blocks.  Jordan data
    is supplied, never computed numerically; when absent only the dense
    solve backend is available.  Optional per-block p, q generalize the
    second- and first-order diagonal coefficients.
    """

    a_matrix: tuple[tuple[float, ...], ...]
    jordan: tuple[JordanBlock, ...] | None = None
    phi: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        A = np.asarray(self.a_matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        object.__setattr__(self, "a_matrix", tuple(map(tuple, A.tolist())))
        jordan = self.jordan
        if jordan is None and A.shape[0] == np.count_nonzero(np.abs(np.diag(A))) \
                and np.allclose(A, np.diag(np.diag(A)), atol=0.0):
            # exactly diagonal A: trivial Jordan data, no numerics involved
            jordan = tuple(JordanBlock(float(l), 1) for l in np.diag(A))
            object.__setattr__(self, "jordan", jordan)
            if self.phi is None:
                object.__setattr__(
                    self, "phi", tuple(map(tuple, np.eye(A.shape[0]).tolist()))
                )
        if self.jordan is not None:
            object.__setattr__(self, "jordan", tuple(self.jordan))
            if sum(b.size for b in self.jordan) != A.shape[0]:
                raise ValueError("Jordan block sizes must sum to n")
        if self.phi is not None:
            if self.jordan is None:
                raise ValueError("phi without jordan blocks is meaningless")
            phi = np.asarray(self.phi, dtype=float)
            if phi.shape != A.shape:
                raise ValueError("phi must be n x n")
            object.__setattr__(self, "phi", tuple(map(tuple, phi.tolist())))
            defect = np.max(np.abs(A @ phi - phi @ self.jordan_matrix()))
            if defect > 1e-10:
                raise ValueError(
                    f"A phi != phi J (defect {defect:.2e}); basis does not match blocks"
                )

    @staticmethod
    def scalar(lam: float) -> "LinearPart":
        return LinearPart(((float(lam),),))

    @staticmethod
    def from_jordan(blocks: Sequence[tuple[float, int]],
                    phi: np.ndarray | None = None) -> "LinearPart":
        """Assemble A from blocks (and an optional basis; identity by default)."""
        jb = tuple(JordanBlock(float(l), int(s)) for l, s in blocks)
        n = sum(b.size for b in jb)
        J = _jordan_matrix(jb)
        if phi is None:
            phi_arr = np.eye(n)
        else:
            phi_arr = np.asarray(phi, dtype=float)
        A = phi_arr @ J @ np.linalg.inv(phi_arr)
        return LinearPart(tuple(map(tuple, A.tolist())), jb,
                          tuple(map(tuple, phi_arr.tolist())))

    @property
    def n(self) -> int:
        return len(self.a_matrix)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.a_matrix, dtype=float)

    @property
    def phi_array(self) -> np.ndarray | None:
        return None if self.phi is None else np.asarray(self.phi, dtype=float)

    def jordan_matrix(self) -> np.ndarray:
        if self.jordan is None:
            raise ValueError("no Jordan data declared")
        return _jordan_matrix(self.jordan)

    def eigenvalues(self) -> np.ndarray:
        if self.jordan is not None:
            return np.concatenate([[b.lam] * b.size for b in self.jordan])
        return np.linalg.eigvals(self.array)

    def validate_spectrum(self, tol: float = 1e-9) -> None:
        """Spectrum must be real and bounded away from zero."""
        ev = np.linalg.eigvals(self.array)
        scale = max(1.0, float(np.max(np.abs(ev))))
        if np.max(np.abs(ev.imag)) > tol * scale:
            raise ValueError("spectrum of A must be real")
        if np.min(np.abs(ev.real)) <= tol * scale:
            raise ValueError("spectrum of A must not contain zero")

    def has_jordan_backend(self) -> bool:
        return self.jordan is not None and self.phi is not None


def _jordan_matrix(blocks: Sequence[JordanBlock]) -> np.ndarray:
    n = sum(b.size for b in blocks)
    J = np.zeros((n, n))
    at = 0
    for b in blocks:
        for i in range(b.size):
            J[at + i, at + i] = b.lam
            if i > 0:
                J[at + i, at + i - 1] = 1.0
        at += b.size
    return J


# ---------------------------------------------------------------------------
# scalar divisor and block inverse


def l_eps(eps: complex, lam: float, a: float, p: float = 1.0, q: float = 1.0) -> complex:
    """Scalar mode divisor -eps p a^2 + i q a + eps lambda."""
    return -eps * p * a * a + 1j * q * a + eps * lam


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


def mode_matrix(eps: complex, a: float, linear: LinearPart) -> np.ndarray:
    """Dense mode matrix -eps a^2 P + i a Q + eps A."""
    n = linear.n
    P, Q = _pq_diagonals(linear)
    return (-eps * a * a) * np.diag(P) + (1j * a) * np.diag(Q) + eps * linear.array


def _pq_diagonals(linear: LinearPart) -> tuple[np.ndarray, np.ndarray]:
    n = linear.n
    if linear.jordan is None:
        return np.ones(n), np.ones(n)
    P = np.concatenate([[b.p] * b.size for b in linear.jordan])
    Q = np.concatenate([[b.q] * b.size for b in linear.jordan])
    return P, Q


def jordan_mode_inverse(eps: complex, a: float, linear: LinearPart) -> np.ndarray:
    """phi (block-diagonal closed-form inverse) phi^-1."""
    if not linear.has_jordan_backend():
        raise ValueError("Jordan backend needs jordan blocks and phi")
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


def mode_solve(eps: complex, a: float, linear: LinearPart, rhs: np.ndarray,
               backend: str = "dense") -> np.ndarray:
    """Solve L(a) x = rhs for one mode.

    backend "dense" solves with A directly; "jordan" applies the closed-form
    block inverse through the basis phi.
    """
    rhs = np.asarray(rhs, dtype=complex)
    if backend not in ("dense", "jordan"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "jordan":
        return jordan_mode_inverse(eps, a, linear) @ rhs
    M = mode_matrix(eps, a, linear)
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(f"singular mode matrix at a={a}: {exc}") from exc


# ---------------------------------------------------------------------------
# lattice-wide application


def _mode_matrices(eps: complex, linear: LinearPart, lat: SpectralLattice) -> np.ndarray:
    """Stack of mode matrices over the lattice, shape (*mode_shape, n, n)."""
    a = lat.k_dot_omega()
    P, Q = _pq_diagonals(linear)
    return (-eps) * a[..., None, None] ** 2 * np.diag(P) \
        + 1j * a[..., None, None] * np.diag(Q) \
        + eps * linear.array


def apply_scaled_inverse(eps: complex, linear: LinearPart, f: FourierField,
                         backend: str = "dense") -> FourierField:
    """eps L^-1 f, inverted mode by mode.

    Aborts with the offending k when a mode matrix is singular.  Hermitian
    symmetry of real fields is preserved for real eps.
    """
    lat = f.lattice
    if linear.n != lat.n:
        raise ValueError("linear part dimension differs from lattice value dimension")
    if backend not in ("dense", "jordan"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "jordan":
        return _apply_scaled_inverse_jordan(eps, linear, f)
    if lat.n == 1:
        a = lat.k_dot_omega()
        lam = linear.array[0, 0]
        P, Q = _pq_diagonals(linear)
        div = -eps * P[0] * a * a + 1j * Q[0] * a + eps * lam
        bad = np.abs(div) == 0.0
        if np.any(bad):
            k = lat.mode_of_index(np.argmax(bad))
            raise ResonanceError(f"singular scalar divisor at k={k}", mode=k)
        return FourierField(lat, eps * f.coeffs / div[..., None])
    M = _mode_matrices(eps, linear, lat)
    det = np.linalg.det(M)
    bad = np.abs(det) == 0.0
    if np.any(bad):
        k = lat.mode_of_index(np.argmax(bad))
        raise ResonanceError(f"singular mode matrix at k={k}", mode=k)
    sol = np.linalg.solve(M, f.coeffs[..., None])[..., 0]
    return FourierField(lat, eps * sol)


def _apply_scaled_inverse_jordan(eps: complex, linear: LinearPart,
                                 f: FourierField) -> FourierField:
    lat = f.lattice
    a = lat.k_dot_omega()
    phi = linear.phi_array
    phi_inv = np.linalg.inv(phi)
    tilde = np.einsum("ij,...j->...i", phi_inv, f.coeffs)
    out = np.empty_like(tilde)
    at = 0
    for b in linear.jordan:
        l = -eps * b.p * a * a + 1j * b.q * a + eps * b.lam
        bad = np.abs(l) == 0.0
        if np.any(bad):
            k = lat.mode_of_index(np.argmax(bad))
            raise ResonanceError(f"singular divisor at k={k}", mode=k)
        inv_l = 1.0 / l
        block = tilde[..., at:at + b.size]
        acc = np.zeros_like(block)
        # r-th subdiagonal of the Toeplitz inverse shifts components down by r
        entry = inv_l.copy()
        for r in range(b.size):
            acc[..., r:] += entry[..., None] * block[..., : b.size - r]
            entry = entry * (-eps * inv_l)
        out[..., at:at + b.size] = acc
        at += b.size
    back = np.einsum("ij,...j->...i", phi, out)
    return FourierField(lat, eps * back)


def apply_forward(eps: complex, linear: LinearPart, u: FourierField) -> FourierField:
    """L u: the forward damped operator, mode by mode."""
    lat = u.lattice
    M = _mode_matrices(eps, linear, lat)
    out = np.einsum("...ij,...j->...i", M, u.coeffs)
    return FourierField(lat, out)


def _mode_singular_values(eps: complex, linear: LinearPart,
                          lat: SpectralLattice) -> np.ndarray:
    """Singular values of every mode matrix, shape (modes, n), largest first."""
    M = _mode_matrices(eps, linear, lat).reshape(-1, linear.n, linear.n)
    sv = np.linalg.svd(M, compute_uv=False)
    if np.any(sv[:, -1] == 0.0):
        raise ResonanceError("singular mode matrix on lattice")
    return sv


def operator_norms(eps: complex, linear: LinearPart, lat: SpectralLattice) -> dict:
    """Spectral norms of the mode matrices and their inverses over the lattice."""
    sv = _mode_singular_values(eps, linear, lat)
    smax = sv[:, 0]
    smin = sv[:, -1]
    return {
        "forward_sup": float(np.max(smax)),
        "inverse_sup": float(np.max(1.0 / smin)),
        "scaled_inverse_sup": float(abs(eps) * np.max(1.0 / smin)),
    }


# ---------------------------------------------------------------------------
# epsilon domains


@dataclass(frozen=True)
class EpsilonDomain:
    """Annulus sigma <= |eps| <= 2 sigma, either complex-conical or real.

    The complex cone additionally requires Re(eps) >= mu |Im(eps)|; it never
    touches the imaginary axis, where the mode divisors have real roots.
    """

    kind: str
    sigma: float
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in ("complex_cone", "real_annulus"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.sigma <= 0:
            raise ValueError("sigma > 0 required")
        if self.kind == "complex_cone" and self.mu <= 0:
            raise ValueError("complex cone needs aperture mu > 0")

    @staticmethod
    def cone(sigma: float, mu: float) -> "EpsilonDomain":
        return EpsilonDomain("complex_cone", float(sigma), float(mu))

    @staticmethod
    def annulus(sigma: float) -> "EpsilonDomain":
        return EpsilonDomain("real_annulus", float(sigma))

    def contains(self, eps: complex, rtol: float = 1e-12) -> bool:
        r = abs(eps)
        if not (self.sigma * (1 - rtol) <= r <= 2 * self.sigma * (1 + rtol)):
            return False
        if self.kind == "real_annulus":
            return abs(eps.imag) <= rtol * r
        return eps.real >= self.mu * abs(eps.imag) * (1 - rtol) - rtol * r

    def sample(self, count: int) -> list[complex]:
        """Deterministic sample set covering boundary rays and |eps| = 1.5 sigma."""
        if count < 1:
            raise ValueError("count >= 1 required")
        s = self.sigma
        if self.kind == "real_annulus":
            base = [1.5 * s, -1.5 * s, s, -s, 2 * s, -2 * s, 1.25 * s, -1.75 * s]
            extra_needed = max(0, count - len(base))
            fills = np.linspace(1.0, 2.0, extra_needed + 2)[1:-1]
            base += [float(t) * s * (1 if i % 2 == 0 else -1)
                     for i, t in enumerate(fills)]
            return [complex(b) for b in base[:count]]
        phi_max = math.atan2(1.0, self.mu)
        rays = [0.0, phi_max, -phi_max, phi_max / 2, -phi_max / 2]
        radii = [1.5 * s, s, 2 * s]
        base = []
        for i, ang in enumerate(rays):
            for r in radii:
                base.append(r * cmath.exp(1j * ang))
        # order: center of the annulus on the real axis first, then rays
        base.sort(key=lambda e: (abs(abs(e) - 1.5 * s), abs(cmath.phase(e))))
        out = base[:count]
        i = 0
        while len(out) < count:
            t = 1.0 + (i % 10) / 10.0
            ang = phi_max * ((i % 7) / 7.0 * 2 - 1)
            out.append(t * s * cmath.exp(1j * ang))
            i += 1
        return out


def sample_domain(dom: EpsilonDomain, count: int) -> list[complex]:
    samples = dom.sample(count)
    for e in samples:
        assert dom.contains(e), f"sampler produced {e} outside the domain"
    return samples


# ---------------------------------------------------------------------------
# certified bounds


@dataclass
class GammaBound:
    """Empirical vs certified bound for sup_k |L^-1(k.omega)|."""

    eps: complex
    empirical: float
    certified: float
    argmax_mode: tuple[int, ...]
    divisor_minima: list[float] = field(default_factory=list)
    exact: bool = False

    def check(self, rtol: float = 1e-9) -> None:
        if self.empirical > self.certified * (1 + rtol):
            raise BoundViolationError(
                f"empirical {self.empirical:.6e} exceeds certified "
                f"{self.certified:.6e} at eps={self.eps}"
            )


def scan_divisor_infimum(eps: complex, lam: float, a_values: np.ndarray,
                         p: float = 1.0, q: float = 1.0) -> float:
    """min |l(a)| over a sample of the a-line."""
    a = np.asarray(a_values, dtype=float)
    vals = np.abs(-eps * p * a * a + 1j * q * a + eps * lam)
    return float(np.min(vals))


def default_a_window(linear: LinearPart, lat: SpectralLattice) -> float:
    lam_max = float(np.max(np.abs(linear.eigenvalues().real)))
    kdw_max = float(np.max(np.abs(lat.k_dot_omega())))
    return 2.0 * max(math.sqrt(lam_max), kdw_max, 1.0)


def gamma_bound(eps: complex, linear: LinearPart, lat: SpectralLattice,
                a_step: float = 1e-2, fault_scale: float = 1.0) -> GammaBound:
    """Empirical sup of |L^-1| over the lattice against its certified bound.

    For real eps the certified bound uses the exact divisor inequality
    |l(a)| >= |eps lambda|; on the complex cone the divisor infimum is
    estimated by a dense a-scan (always including the lattice values).
    ``fault_scale`` is a test hook multiplying the empirical value.

    Raises BoundViolationError when the empirical value exceeds the bound.
    """
    if linear.jordan is None:
        raise ValueError("certified bound needs declared Jordan data")
    smin = _mode_singular_values(eps, linear, lat)[:, -1]
    empirical = float(np.max(1.0 / smin)) * fault_scale
    argmax_mode = lat.mode_of_index(np.argmin(smin))

    real_eps = abs(eps.imag) <= 1e-14 * abs(eps)
    a_lattice = np.unique(np.abs(lat.k_dot_omega()).ravel())
    a_max = default_a_window(linear, lat)
    scan = np.arange(-a_max, a_max + a_step, a_step)
    scan = np.concatenate([scan, a_lattice, -a_lattice])

    phi = linear.phi_array if linear.phi is not None else np.eye(linear.n)
    cond_phi = float(np.linalg.cond(phi, 2))

    worst = 0.0
    minima = []
    for b in linear.jordan:
        if real_eps:
            m_b = abs(eps.real * b.lam)
        else:
            m_b = scan_divisor_infimum(eps, b.lam, scan, b.p, b.q)
        minima.append(m_b)
        total = sum(abs(eps) ** r / m_b ** (r + 1) for r in range(b.size))
        worst = max(worst, total)
    certified = cond_phi * worst

    gb = GammaBound(eps, float(empirical), float(certified), argmax_mode,
                    minima, exact=real_eps)
    gb.check()
    return gb
