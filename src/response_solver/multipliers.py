"""Per-mode inversion of the damped linear operator and its certified bounds.

The operator acts diagonally in Fourier space: mode k sees the n x n matrix
L(a) = -eps a^2 P + i a Q + eps A at a = k.omega.  ``l_eps`` (the scalar
divisor) and ``mode_matrices`` are the only places that build it; the
lattice inverse (``ScaledInverse``) builds it once per eps, checks it and
reads the operator norms off it in its constructor, and divides or solves
with it.  Jordan data for A (blocks and the basis phi) is what the
certified bound is built from: the exact infimum of each block's divisor
over the real a-line (``divisor_infimum``), in closed form at real eps and
from the real roots of a cubic, batched over the blocks
(``root_real_parts``), on the cone.  On the imaginary axis, which the cone
excludes, the supremum of the inverse divisor has a closed form too
(``imaginary_root_blowup``, ``imaginary_axis_sup``).
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
    is supplied, never computed numerically; without ``phi`` it must give
    A = J exactly, and phi = I is filled in.  Optional per-block p, q scale
    the second- and first-order terms of the block's components; they need
    phi = I, the one basis in which diag(P, Q) and the blocks share
    coordinates.  ``array``, ``phi_array`` and the diagonals ``p_diagonal``,
    ``q_diagonal`` are built once, read-only.
    """

    a_matrix: tuple[tuple[float, ...], ...]
    jordan: tuple[JordanBlock, ...] | None = None
    phi: tuple[tuple[float, ...], ...] | None = None
    array: np.ndarray = field(init=False, repr=False, compare=False)
    phi_array: np.ndarray | None = field(init=False, repr=False, compare=False)
    p_diagonal: np.ndarray = field(init=False, repr=False, compare=False)
    q_diagonal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.array(self.a_matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        object.__setattr__(self, "a_matrix", tuple(map(tuple, A.tolist())))
        jordan = self.jordan
        if jordan is None and A.shape[0] == np.count_nonzero(np.abs(np.diag(A))) \
                and np.allclose(A, np.diag(np.diag(A)), atol=0.0):
            # exactly diagonal A: trivial Jordan data, no numerics involved
            jordan = tuple(JordanBlock(float(l), 1) for l in np.diag(A))
            object.__setattr__(self, "jordan", jordan)
        if self.jordan is not None:
            object.__setattr__(self, "jordan", tuple(self.jordan))
            if sum(b.size for b in self.jordan) != A.shape[0]:
                raise ValueError("Jordan block sizes must sum to n")
            if self.phi is None:
                if not np.array_equal(A, self.jordan_matrix()):
                    raise ValueError("Jordan blocks without phi need A = J")
                object.__setattr__(
                    self, "phi", tuple(map(tuple, np.eye(A.shape[0]).tolist()))
                )
        phi = None
        if self.phi is not None:
            if self.jordan is None:
                raise ValueError("phi without jordan blocks is meaningless")
            phi = np.array(self.phi, dtype=float)
            if phi.shape != A.shape:
                raise ValueError("phi must be n x n")
            object.__setattr__(self, "phi", tuple(map(tuple, phi.tolist())))
            defect = np.max(np.abs(A @ phi - phi @ self.jordan_matrix()))
            if defect > 1e-10:
                raise ValueError(
                    f"A phi != phi J (defect {defect:.2e}); basis does not match blocks"
                )
            if any(b.p != 1.0 or b.q != 1.0 for b in self.jordan) \
                    and not np.array_equal(phi, np.eye(A.shape[0])):
                raise ValueError("Jordan blocks with p or q != 1 need phi = I")
        n = A.shape[0]
        P, Q = np.ones(n), np.ones(n)
        if self.jordan is not None:
            P = np.concatenate([[b.p] * b.size for b in self.jordan])
            Q = np.concatenate([[b.q] * b.size for b in self.jordan])
        for name, value in (("array", A), ("phi_array", phi),
                            ("p_diagonal", P), ("q_diagonal", Q)):
            if value is not None:
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @staticmethod
    def scalar(lam: float) -> "LinearPart":
        return LinearPart(((float(lam),),))

    @property
    def n(self) -> int:
        return len(self.a_matrix)

    def jordan_matrix(self) -> np.ndarray:
        if self.jordan is None:
            raise ValueError("no Jordan data declared")
        J = np.zeros((self.n, self.n))
        at = 0
        for b in self.jordan:
            for i in range(b.size):
                J[at + i, at + i] = b.lam
                if i > 0:
                    J[at + i, at + i - 1] = 1.0
            at += b.size
        return J

    def validate_spectrum(self) -> None:
        """Spectrum must be real and bounded away from zero, to 1e-9 of its scale."""
        ev = np.linalg.eigvals(self.array)
        scale = max(1.0, float(np.max(np.abs(ev))))
        if np.max(np.abs(ev.imag)) > 1e-9 * scale:
            raise ValueError("spectrum of A must be real")
        if np.min(np.abs(ev.real)) <= 1e-9 * scale:
            raise ValueError("spectrum of A must not contain zero")


# ---------------------------------------------------------------------------
# scalar divisor


def is_real_eps(eps: complex) -> bool:
    """eps is real up to rounding: |Im eps| <= 1e-14 |eps|."""
    return abs(complex(eps).imag) <= 1e-14 * abs(eps)


def l_eps(eps: complex, lam: float | np.ndarray, a: float | np.ndarray,
          p: float = 1.0, q: float = 1.0) -> complex | np.ndarray:
    """Scalar mode divisor -eps p a^2 + i q a + eps lambda.

    ``lam`` and ``a`` may be arrays that broadcast: this is the one
    evaluation of the divisor, for the scalar ODE and for the Boussinesq
    symbol (lambda_j = j^2 - beta j^4) alike.
    """
    return -eps * p * a * a + 1j * q * a + eps * lam


def imaginary_root_blowup(sigma: float, c: float) -> float:
    """sup over real a of |1/s(a)| for s(a) = -eps a^2 + i a - eps c at
    eps = i sigma, in closed form.

    There s(a) = i (a - sigma a^2 - sigma c), a quadratic in a with
    discriminant 1 - 4 sigma^2 c.  With real roots the supremum is inf;
    otherwise |s| is smallest at the vertex a = 1/(2 sigma), where it is
    (4 sigma^2 c - 1) / (4 |sigma|).  The oscillator divisor
    l(a) = -eps a^2 + i a + eps lambda is the case c = -lambda.
    """
    disc = 1.0 - 4.0 * sigma * sigma * c
    if disc >= 0.0:
        return math.inf
    return 4.0 * abs(sigma) / -disc


def imaginary_axis_sup(linear: LinearPart, sigma: float) -> float:
    """``imaginary_root_blowup`` of the worst Jordan block of ``linear``: at
    a = q b / p a block's divisor is q^2/p times the p = q = 1 divisor of
    lam p / q^2."""
    return max(abs(b.p) / b.q ** 2 * imaginary_root_blowup(sigma, -b.lam * b.p / b.q ** 2)
               for b in linear.jordan)


def mode_matrices(eps: complex, linear: LinearPart, a: float | np.ndarray) -> np.ndarray:
    """Mode matrices -eps a^2 P + i a Q + eps A at every frequency in ``a``,
    shape (*a.shape, n, n).  The diagonal is ``l_eps`` at lambda = A_ii, so
    a 1x1 mode matrix is the scalar divisor bit for bit."""
    a = np.asarray(a, dtype=float)[..., None]
    out = np.empty(a.shape[:-1] + linear.array.shape, dtype=complex)
    out[...] = eps * linear.array
    i = np.arange(linear.n)
    out[..., i, i] = l_eps(eps, np.diag(linear.array), a,
                           linear.p_diagonal, linear.q_diagonal)
    return out


# ---------------------------------------------------------------------------
# lattice-wide application


class ScaledInverse:
    """eps L^-1 at one eps on one lattice: the plan a solve builds once.

    The constructor is its only check.  It builds the mode operator (the
    scalar divisor l_eps per mode for n = 1, the stack of mode matrices for
    n > 1), reads its singular values once (|l_eps| for n = 1, one batched
    SVD for n > 1) and either raises ``ResonanceError`` naming the first
    singular mode or sets ``forward_sup`` (max over the lattice of the
    largest singular value), ``inverse_sup`` (the largest of the inverse)
    and ``scaled_inverse_sup`` = |eps| ``inverse_sup``, the contraction
    constant.  A call applies the inverse with the cached operator, so each
    Picard step only divides (n = 1) or solves (n > 1).
    """

    def __init__(self, eps: complex, linear: LinearPart, lat: SpectralLattice):
        if linear.n != lat.n:
            raise ValueError("linear part dimension differs from lattice value dimension")
        self.eps = eps
        self.lattice = lat
        self.operator = mode_matrices(eps, linear, lat.k_dot_omega())
        if lat.n == 1:
            self.operator = self.operator[..., 0]   # the scalar divisor per mode
            smax = smin = np.abs(self.operator).ravel()
            bad, what = smin == 0.0, "scalar divisor"
        else:
            stack = self.operator.reshape(-1, lat.n, lat.n)
            sv = np.linalg.svd(stack, compute_uv=False)
            smax, smin = sv[:, 0], sv[:, -1]
            bad, what = (smin == 0.0) | (np.linalg.det(stack) == 0.0), "mode matrix"
        if np.any(bad):
            k = lat.mode_of_index(np.argmax(bad))
            raise ResonanceError(f"singular {what} at k={k}", mode=k)
        self.forward_sup = float(np.max(smax))
        # 1 / min equals max of 1 / each: division rounds monotonically
        self.inverse_sup = float(1.0 / np.min(smin))
        self.scaled_inverse_sup = float(abs(eps) * self.inverse_sup)

    def __call__(self, f: FourierField) -> FourierField:
        if self.lattice.n == 1:
            return FourierField(self.lattice, self.eps * f.coeffs / self.operator)
        sol = np.linalg.solve(self.operator, f.coeffs[..., None])[..., 0]
        return FourierField(self.lattice, self.eps * sol)


def apply_scaled_inverse(eps: complex, linear: LinearPart,
                         f: FourierField) -> FourierField:
    """eps L^-1 f, inverted mode by mode.

    Aborts with the offending k when a mode matrix is singular.  Hermitian
    symmetry of real fields is preserved for real eps.
    """
    return ScaledInverse(eps, linear, f.lattice)(f)


def operator_norms(eps: complex, linear: LinearPart, lat: SpectralLattice) -> dict:
    """Spectral norms of the mode matrices and their inverses over the lattice:
    ``forward_sup``, ``inverse_sup`` and ``scaled_inverse_sup`` = |eps|
    ``inverse_sup``, read off one ``ScaledInverse``."""
    inverse = ScaledInverse(eps, linear, lat)
    return {key: getattr(inverse, key)
            for key in ("forward_sup", "inverse_sup", "scaled_inverse_sup")}


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
        """Deterministic sample set covering boundary rays and |eps| = 1.5
        sigma; asserts that every sample lies in the domain."""
        if count < 1:
            raise ValueError("count >= 1 required")
        s = self.sigma
        if self.kind == "real_annulus":
            base = [1.5 * s, -1.5 * s, s, -s, 2 * s, -2 * s, 1.25 * s, -1.75 * s]
            extra_needed = max(0, count - len(base))
            fills = np.linspace(1.0, 2.0, extra_needed + 2)[1:-1]
            base += [float(t) * s * (1 if i % 2 == 0 else -1)
                     for i, t in enumerate(fills)]
            out = [complex(b) for b in base[:count]]
        else:
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
        for e in out:
            assert self.contains(e), f"sampler produced {e} outside the domain"
        return out


# ---------------------------------------------------------------------------
# certified bounds

# relative slack of the one violation test, empirical > certified (1 + BOUND_RTOL),
# that ``verification.certify_bounds`` applies to every sample of both equations
BOUND_RTOL = 1e-9


@dataclass
class Bound:
    """A lattice value against its closed-form bound over the real a-line at
    one eps: ``gamma_bound``'s and ``pde.pde_certification_scan``'s record;
    ``exact`` marks real eps."""

    eps: complex
    empirical: float
    certified: float
    exact: bool


def root_real_parts(coeffs: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each row's polynomial c_0 a^d + ... + c_d
    (c_0 != 0), shape (rows, d): the eigenvalues of one stack of companion
    matrices."""
    d = coeffs.shape[1] - 1
    companion = np.zeros((coeffs.shape[0], d, d))
    companion[:, range(1, d), range(d - 1)] = 1.0
    companion[:, :, -1] = -coeffs[:, :0:-1] / coeffs[:, :1]
    return np.linalg.eigvals(companion).real


def divisor_infimum(eps: complex, blocks: Sequence[JordanBlock]) -> list[float]:
    """Each block's inf over real a of |l_eps(eps, lam, a, p, q)|, in closed
    form: Q = |l|^2 is a quartic in a with positive leading coefficient, so
    the infimum sits at a real root of the cubic Q'.  On the cone every
    block's roots come at once from ``root_real_parts``."""
    if is_real_eps(eps):
        # Q = eps^2 (lam - p s)^2 + q^2 s with s = a^2 dips to its infimum
        # at s = lam/p - q^2/(2 eps^2 p^2) when that is positive
        e2, out = eps.real ** 2, []
        for b in blocks:
            q2 = b.q ** 2
            out.append(math.sqrt(q2 * b.lam / b.p - q2 * q2 / (4.0 * e2 * b.p ** 2))
                       if q2 < 2.0 * e2 * b.p * b.lam else abs(eps.real * b.lam))
        return out
    lam, p, q = np.array([(b.lam, b.p, b.q) for b in blocks]).T[..., None]
    e2, y = abs(eps) ** 2, complex(eps).imag
    # Q' / 2 = 2 e2 p^2 a^3 - 3 y p q a^2 + (q^2 - 2 e2 p lam) a + y q lam
    roots = root_real_parts(np.hstack([2.0 * e2 * p * p, -3.0 * y * p * q,
                                       q * q - 2.0 * e2 * p * lam, y * q * lam]))
    return np.min(np.abs(l_eps(eps, lam, roots, p, q)), axis=1).tolist()


def gamma_bound(eps: complex, linear: LinearPart, lat: SpectralLattice) -> Bound:
    """sup_k |L^-1(k.omega)| over the lattice (``empirical``) against its
    certified bound.

    The certified bound is cond(phi) times the worst block's
    sum_r |eps|^r / m^(r+1), with m the exact infimum of the block's
    divisor over the real a-line (``divisor_infimum``), at real eps and on
    the cone alike.  Raises ValueError without declared Jordan data.
    """
    if linear.jordan is None:
        raise ValueError("certified bound needs declared Jordan data")
    empirical = ScaledInverse(eps, linear, lat).inverse_sup
    certified = float(np.linalg.cond(linear.phi_array, 2)) * max(
        sum(abs(eps) ** r / m_b ** (r + 1) for r in range(b.size))
        for b, m_b in zip(linear.jordan, divisor_infimum(eps, linear.jordan)))
    return Bound(eps, empirical, certified, is_real_eps(eps))
