"""Truncated multi-dimensional Fourier fields with weighted norms.

Fields live on a symmetric lattice |k_i| <= K over the d-torus, optionally
extended by a spatial axis |j| <= J.  Coefficient arrays are indexed in
natural signed order (axis index i  <->  mode i - K).  Every public
operation returns a new field and leaves its inputs alone; kernels write in
place only into arrays they allocated themselves or that a ``TransformPlan``
owns.  A plan holds one padded grid's two arrays, the padded work array and
the grid values, so a solve that builds one transforms in them step after
step; ``compose`` builds one per call when given none.

Transforms run on a uniform collocation grid.  A field that is real on the
torus (Hermitian: coeff(-k) = conj(coeff(k))) can be synthesized from the
j >= 0 half of its last axis by a real inverse FFT, and a real value array
is analyzed by a real forward FFT, the j < 0 half following from the
conjugate mirror.  ``product`` and ``compose`` take that path when their
caller passes ``real``, as a solve does at real eps; they scan no field.

``synthesize`` and ``analyze`` are pruned FFTs: pocketfft's own one-axis
passes, in the order its n-dimensional transforms run them (ifftn and fftn
from axis 0 up; irfftn the other axes, then the real last axis; rfftn the
real last axis, then the others), each in place on views of the padded
work array.  An inverse pass along axis a skips the lines
whose later axes, or the real path's half last axis, sit outside the
lattice's bins: they are still +0.0, and pocketfft maps a zero line to
+0.0 (checked once per length: on a length where it leaves a -0.0, as some
of its Bluestein lengths do, that pass and the later ones skip nothing).  A
forward pass skips the lines whose transformed axes sit outside the kept
bins: nothing reads them; the real forward pass writes only the last axis's
kept bins 0..cut.  The 1/N lands where pocketfft puts it: on
the complex inverse after the axis-0 pass (ifftn times N is the synthesized
sum), on the real forward on the kept bins right after the real pass; both
times it multiplies the real and imaginary parts by 1/N rounded from long
double, as pocketfft does.  So every kept line sees the operations of the
one-call transform, and the results are its bits, signed zeros included.
FFTs use as many workers as the process's CPU affinity allows.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import fft as sfft


def _affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without sched_getaffinity
        return os.cpu_count() or 1


FFT_WORKERS = _affinity_cpus()

# Hermitian (real on the torus): defect <= HERMITIAN_RTOL (1 + max |coeff|)
HERMITIAN_RTOL = 1e-12


class LatticeMismatchError(ValueError):
    """Two fields built over different lattices were combined."""


class GridTooSmallError(ValueError):
    """Collocation grid cannot hold the lattice modes (Nyquist violation)."""


class NormOverflowError(OverflowError):
    """Weighted norm exceeds the representable floating-point range."""


@dataclass(frozen=True)
class SpectralLattice:
    """Symmetric Fourier index set with frequency vector and value dimension.

    ``d`` torus dimensions with cutoff ``K`` per axis; when ``has_space`` is
    set there is one extra spatial axis with cutoff ``J``.  ``omega`` is the
    forcing frequency vector, ``n`` the number of value components.
    """

    d: int
    K: int
    omega: tuple[float, ...]
    n: int = 1
    has_space: bool = False
    J: int = 0

    def __post_init__(self):
        if self.d < 1 or self.K < 1 or self.n < 1:
            raise ValueError("need d >= 1, K >= 1, n >= 1")
        if self.has_space and self.J < 1:
            raise ValueError("spatial lattice needs J >= 1")
        if len(self.omega) != self.d:
            raise ValueError(f"omega has length {len(self.omega)}, expected d={self.d}")
        object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))

    @property
    def mode_shape(self) -> tuple[int, ...]:
        shape = (2 * self.K + 1,) * self.d
        if self.has_space:
            shape += (2 * self.J + 1,)
        return shape

    @property
    def field_shape(self) -> tuple[int, ...]:
        return self.mode_shape + (self.n,)

    @property
    def n_axes(self) -> int:
        return self.d + (1 if self.has_space else 0)

    @property
    def cutoffs(self) -> tuple[int, ...]:
        """Per-axis cutoff: K on each torus axis, then J on the spatial one."""
        return (self.K,) * self.d + ((self.J,) if self.has_space else ())

    @property
    def space_average_slab(self) -> tuple:
        """Index of the j = 0 slab (all torus modes) of a spatial lattice."""
        if not self.has_space:
            raise ValueError("lattice has no spatial axis")
        return (slice(None),) * self.d + (self.J,)

    def mode_of_index(self, flat: int) -> tuple[int, ...]:
        """Signed mode (k[, j]) at a flat index into ``mode_shape``."""
        idx = np.unravel_index(int(flat), self.mode_shape)
        return tuple(int(i) - cut for i, cut in zip(idx, self.cutoffs))

    def axis_modes(self, axis: int) -> np.ndarray:
        cut = self.cutoffs[axis]
        return np.arange(-cut, cut + 1)

    def axis_modes_along(self, axis: int) -> np.ndarray:
        """axis_modes(axis) shaped to broadcast against mode_shape."""
        shape = [1] * self.n_axes
        shape[axis] = -1
        return self.axis_modes(axis).reshape(shape)

    @lru_cache(maxsize=128)
    def k_dot_omega(self) -> np.ndarray:
        """k.omega per torus mode, shaped to broadcast against mode_shape (a
        spatial axis has length 1: k.omega does not depend on j); cached
        per lattice (equal lattices share it) and read-only, as are the
        other lattice arrays below."""
        return _frozen(sum(w * self.axis_modes_along(i) for i, w in enumerate(self.omega)))

    @lru_cache(maxsize=128)
    def sorted_k_dot_omega(self) -> np.ndarray:
        """k.omega once per torus mode k, flattened and sorted."""
        return _frozen(np.sort(self.k_dot_omega(), axis=None))

    @lru_cache(maxsize=128)
    def k_l1(self) -> np.ndarray:
        """|k_1|+...+|k_d| (+|j| on spatial lattices) per mode."""
        return _frozen(
            sum(np.abs(self.axis_modes_along(i)).astype(float) for i in range(self.n_axes)))

    @lru_cache(maxsize=128)
    def k_sq(self) -> np.ndarray:
        """Euclidean |k|^2 (+j^2) per mode."""
        return _frozen(
            sum(self.axis_modes_along(i).astype(float) ** 2 for i in range(self.n_axes)))

    def validate_nonresonance(self) -> None:
        """Reject omega when some 0 < |k_i| <= 2K gives k.omega = 0."""
        value, kmin = check_nonresonance(self.omega, 2 * self.K)
        if value <= 0.0:
            raise ValueError(
                f"resonant frequency vector: k={kmin} gives |k.omega|={value:.3e}"
            )


def _frozen(arr: np.ndarray) -> np.ndarray:
    # cached arrays are shared by reference; freeze them against mutation
    arr.setflags(write=False)
    return arr


def check_nonresonance(omega: np.ndarray, K: int) -> tuple[float, tuple[int, ...]]:
    """Exact minimum of |k.omega| over the box 0 < max|k_i| <= K.

    Returns the minimum and an argmin vector.  A zero value means the
    frequency vector is resonant on the working lattice.
    """
    omega = np.asarray(omega, dtype=float)
    d = omega.size
    if K < 1:
        raise ValueError("K >= 1 required")
    axes = [np.arange(-K, K + 1)] * d
    grids = np.meshgrid(*axes, indexing="ij")
    kdw = np.abs(sum(w * g for w, g in zip(omega, grids)))
    origin = (K,) * d
    kdw[origin] = np.inf
    best = float(np.min(kdw))
    # among minimizers report the shortest vector (ties: resonance multiples)
    l1 = sum(np.abs(g) for g in grids)
    tied = np.where(kdw <= best * (1 + 1e-12) + 1e-300, l1, np.inf)
    idx = np.unravel_index(int(np.argmin(tied)), kdw.shape)
    kmin = tuple(int(i) - K for i in idx)
    for c in kmin:   # sign convention: first nonzero component positive
        if c != 0:
            if c < 0:
                kmin = tuple(-x for x in kmin)
            break
    return float(kdw[idx]), kmin


@dataclass(frozen=True)
class NormSpec:
    """Weighted-norm parameters: analyticity width rho and Sobolev index m."""

    rho: float = 0.0
    m: float = 0.0

    def __post_init__(self):
        if self.rho < 0 or self.m < 0:
            raise ValueError("need rho >= 0 and m >= 0")


L2 = NormSpec(0.0, 0.0)


class FourierField:
    """Complex coefficients over a SpectralLattice; value axis is last."""

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: SpectralLattice, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != lattice.field_shape:
            raise ValueError(
                f"coefficient shape {coeffs.shape} != lattice {lattice.field_shape}"
            )
        self.lattice = lattice
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, lattice: SpectralLattice) -> "FourierField":
        return cls(lattice, np.zeros(lattice.field_shape, dtype=complex))

    @classmethod
    def from_modes(
        cls, lattice: SpectralLattice, modes: dict[tuple, np.ndarray | complex]
    ) -> "FourierField":
        """Build a field from {k-tuple (or (*k, j)-tuple): coefficient}.

        Coefficients are n-vectors; plain scalars are accepted for n = 1.
        """
        out = np.zeros(lattice.field_shape, dtype=complex)
        for k, val in modes.items():
            vec = np.asarray(val, dtype=complex)
            if vec.ndim == 0:
                if lattice.n != 1:
                    raise ValueError(
                        f"mode {k}: scalar coefficient on an n={lattice.n} lattice"
                    )
                vec = vec.reshape(1)
            if vec.shape != (lattice.n,):
                raise ValueError(f"mode {k}: coefficient shape {vec.shape} != (n,)")
            out[lattice_index(lattice, k)] += vec
        return cls(lattice, out)

    # -- basic algebra -----------------------------------------------------

    def copy(self) -> "FourierField":
        return FourierField(self.lattice, self.coeffs.copy())

    def _check(self, other: "FourierField") -> None:
        if self.lattice != other.lattice:
            raise LatticeMismatchError("fields live on different lattices")

    def __add__(self, other: "FourierField") -> "FourierField":
        self._check(other)
        return FourierField(self.lattice, self.coeffs + other.coeffs)

    def __sub__(self, other: "FourierField") -> "FourierField":
        self._check(other)
        return FourierField(self.lattice, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "FourierField":
        return FourierField(self.lattice, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "FourierField":
        return FourierField(self.lattice, -self.coeffs)

    # -- structure ---------------------------------------------------------

    def hermitian_defect(self) -> float:
        """max |coeff(-k) - conj(coeff(k))| over the lattice.

        Reversing every mode axis reverses the flat mode order, and the
        defect at -k is the one at k (negated real part, same imaginary
        part), so the half of the flat order up to k = 0 holds the maximum.
        """
        flat = self.coeffs.reshape(-1, self.lattice.n)
        half = flat.shape[0] // 2 + 1
        return float(np.max(np.abs(flat[:half] - np.conj(flat[:-half - 1:-1]))))

    def is_hermitian(self) -> bool:
        """Real on the torus to roundoff (see ``HERMITIAN_RTOL``)."""
        return self.hermitian_defect() <= HERMITIAN_RTOL * (1.0 + self.max_abs())

    def mean_coefficient(self) -> np.ndarray:
        """Coefficient at k = 0 (and j = 0 on spatial lattices)."""
        return self.coeffs[self.lattice.cutoffs]

    def space_average_slice(self) -> np.ndarray:
        """The j = 0 slab of a spatial field."""
        return self.coeffs[self.lattice.space_average_slab]

    def project_zero_space_average(self) -> "FourierField":
        out = self.coeffs.copy()
        out[self.lattice.space_average_slab] = 0.0
        return FourierField(self.lattice, out)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))


def lattice_index(lat: SpectralLattice, k: Sequence[int]) -> tuple[int, ...]:
    """Array index of mode k (torus components first, then j if present)."""
    k = tuple(int(c) for c in k)
    if len(k) != lat.n_axes:
        raise ValueError(f"mode {k} has {len(k)} entries, lattice has {lat.n_axes} axes")
    if any(abs(c) > cut for c, cut in zip(k, lat.cutoffs)):
        raise ValueError(f"mode {k} outside lattice cutoff")
    return tuple(c + cut for c, cut in zip(k, lat.cutoffs))


# ---------------------------------------------------------------------------
# norms


@lru_cache(maxsize=128)
def log_weights(lat: SpectralLattice, spec: NormSpec) -> np.ndarray:
    """log of the norm weight e^{2 rho |k|_1} (|k|^2 + 1)^m per mode, cached
    per (lattice, spec) and read-only.

    Kept in log space: rho*K can push e^{2 rho |k|} past float range long
    before the weighted sum itself overflows.
    """
    if spec.rho == 0.0 and spec.m == 0.0:
        # the unweighted norm: zeros, held as one broadcast scalar
        return np.broadcast_to(0.0, lat.mode_shape)
    return _frozen(2.0 * spec.rho * lat.k_l1() + spec.m * np.log1p(lat.k_sq()))


# a field whose largest magnitude lies in [_SQUARE_TINY, _SQUARE_SAFE) has
# its sum of squares in the normal double range; an L2 sum of squares at or
# above _SUM_TINY has lost no term to underflow that roundoff of the sum
# would not lose
_SQUARE_TINY = 1e-150
_SQUARE_SAFE = 1e150
_SUM_TINY = _SQUARE_TINY ** 2
_LOG_MAX = math.log(np.finfo(float).max)
_LN2 = math.log(2.0)


def norm(f: FourierField, spec: NormSpec) -> float:
    """Weighted l2 norm sqrt( sum |u_k|^2 e^{2 rho |k|}(|k|^2+1)^m ).

    |k| in the exponential is the l1 norm, |k|^2 in the polynomial factor is
    Euclidean; spatial lattices use |k|_1 + |j| and |k|^2 + j^2.  A field
    whose largest magnitude lies outside [_SQUARE_TINY, _SQUARE_SAFE) is
    scaled by the power of two that brings it into [0.5, 1) before squaring,
    and the result back by the inverse power, so norm(c f) is c norm(f) to
    roundoff on both sides of the range.  Under a weighted spec a field
    whose smallest nonzero magnitude, so scaled, falls below _SQUARE_TINY
    is not squared at all: each mode enters as 2 log|u_k|, since a weight
    can make a coefficient whose square underflows the largest term.  L2
    keeps the squares: such a term is below roundoff of the sum.
    Raises NormOverflowError when the result leaves the double range and
    FloatingPointError on NaN coefficients.

    L2 first sums the squares of the coefficients' real and imaginary parts
    in one einsum pass and returns the root of a sum in [_SUM_TINY, inf).
    Every other sum (NaN, inf, overflow, underflow, zero) takes the scaled
    log-space sum described above, as every weighted spec does.  The pass
    is numpy's own loop, not BLAS, so its bits follow neither the array's
    address nor a BLAS thread count.
    """
    if spec == L2:
        parts = np.ravel(f.coeffs).view(np.float64)
        total = float(np.einsum("i,i->", parts, parts))
        if _SUM_TINY <= total < math.inf:
            return math.sqrt(total)
    return _log_space_norm(f, spec)


def _log_space_norm(f: FourierField, spec: NormSpec) -> float:
    """``norm`` summed in log space, the path of every weighted spec and of
    an L2 sum of squares outside [_SUM_TINY, inf)."""
    mags = np.abs(f.coeffs)
    top = float(mags.max())
    if math.isnan(top):
        raise FloatingPointError("norm of a field with NaN coefficients")
    if top == math.inf:
        raise NormOverflowError("norm of a field with infinite coefficients")
    if top == 0.0:
        return 0.0
    shift = 0 if _SQUARE_TINY <= top < _SQUARE_SAFE else math.frexp(top)[1]
    if shift:
        np.ldexp(mags, -shift, out=mags)
    if spec != L2 and np.min(mags, where=mags > 0.0, initial=_SQUARE_TINY) < _SQUARE_TINY:
        logterms, nonzero = _log_mode_squares(mags)
    else:
        mag2 = np.square(mags, out=mags)
        # a sum over a single value column is that column
        mag2 = mag2[..., 0] if f.lattice.n == 1 else np.sum(mag2, axis=-1)
        nonzero = mag2 > 0.0
        logterms = mag2[nonzero]
        np.log(logterms, out=logterms)
    if spec != L2:      # L2's log weights are all 0.0: adding them moves no bit
        logterms += log_weights(f.lattice, spec)[nonzero]
    peak = float(np.max(logterms))
    np.subtract(logterms, peak, out=logterms)
    total = math.sqrt(float(np.sum(np.exp(logterms, out=logterms))))
    log_result = 0.5 * peak + math.log(total)       # of the scaled field
    if log_result + shift * _LN2 > _LOG_MAX:
        raise NormOverflowError(
            f"norm exceeds float range (log value {log_result + shift * _LN2:.1f})"
        )
    if log_result > _LOG_MAX:       # a tiny field under enormous weights
        return math.exp(log_result + shift * _LN2)
    return math.ldexp(math.exp(log_result), shift)


def _log_mode_squares(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log |u_k|^2 per nonzero mode, the nonzero-mode mask) from the
    components' magnitudes, with no square of a magnitude: 2 log of the
    mode's largest component plus the log of the sum of the squared
    component ratios, each at most 1."""
    peak = mags.max(axis=-1)
    nonzero = peak > 0.0
    top = peak[nonzero]
    ratios = mags[nonzero] / top[:, None]
    return 2.0 * np.log(top) + np.log(np.sum(ratios * ratios, axis=-1)), nonzero


def hs_norm(f: FourierField, s: float) -> float:
    """Plain Sobolev H^s norm (rho = 0), s may be fractional."""
    return norm(f, NormSpec(0.0, s))


# ---------------------------------------------------------------------------
# transforms


def _grid_shape(min_sizes: Sequence[int]) -> tuple[int, ...]:
    return tuple(sfft.next_fast_len(int(s)) for s in min_sizes)


def default_grid(lat: SpectralLattice, oversample: float = 1.0) -> tuple[int, ...]:
    sizes = [max(int(math.ceil(oversample * (2 * cut + 1))), 2 * cut + 1)
             for cut in lat.cutoffs]
    return _grid_shape(sizes)


def dealias_grid(lat: SpectralLattice, degree: int, real: bool) -> tuple[int, ...]:
    """Grid large enough that a degree-p product is alias-free on the lattice:
    at least (p+1) cut + 1 points per axis, each the next length pocketfft
    transforms fast.  With ``real`` the last axis, which a real FFT
    transforms, takes the next length with no factor but 2, 3 and 5: the
    real FFT has no radix-7 or radix-11 pass, so 97 points go to 100 there
    and not to 98."""
    sizes = [(degree + 1) * cut + 1 for cut in lat.cutoffs]
    grid = _grid_shape(sizes)
    if real:
        grid = grid[:-1] + (sfft.next_fast_len(sizes[-1], real=True),)
    return grid


class TransformPlan:
    """The grid arrays that one padded grid's transforms at one ``real``
    flag run in, allocated once: ``work``, the padded array that
    ``synthesize`` fills (the j >= 0 half of the last axis on the real path),
    and with ``values`` a second grid array: the values a polynomial
    composition evaluates into (real on the real path).  A solve builds one
    and every step transforms in its arrays; what a transform leaves in them
    lasts until the plan's next one, so a plan serves one thread at a time.
    ``synthesize`` checks the work array's shape against the grid and flag
    of each call."""

    __slots__ = ("work", "values")

    def __init__(self, lat: SpectralLattice, grid: Sequence[int], real: bool,
                 values: bool = True):
        grid = tuple(int(g) for g in grid)
        work, shape = _padded_shape(lat, grid, real), grid + (lat.n,)
        # one block holds both arrays, so the heap takes it back and hands
        # it out again as one piece: two blocks freed at the top of the heap
        # were given back to the system and faulted in again by the next solve
        size, count = math.prod(work), math.prod(shape) if values else 0
        block = np.empty(size + (-(-count // 2) if real else count), dtype=complex)
        self.work = block[:size].reshape(work)
        tail = block[size:]
        self.values = (tail.view(float)[:count] if real else tail).reshape(shape) \
            if values else None


def _padded_shape(lat: SpectralLattice, grid: tuple[int, ...], real: bool) -> tuple[int, ...]:
    """Shape of ``synthesize``'s padded array: the grid, or on the real path
    the grid with its last axis halved (a real FFT's bins)."""
    last = grid[-1] // 2 + 1 if real else grid[-1]
    return grid[:-1] + (last, lat.n)


def synthesize(f: FourierField, grid: Sequence[int] | None = None,
               real: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Values of the field on the uniform collocation grid.

    Node i along an axis of size N sits at angle 2*pi*i/N.  Grid must hold
    the lattice (N >= 2*cutoff + 1 per axis).  With ``real`` the field is
    taken as Hermitian: only the j >= 0 half of its last axis is read, and
    the values come back real from an inverse real FFT.  ``out``, a plan's
    complex array of the padded shape, is zeroed and padded in place of a
    fresh one; the complex path returns it, the real path a new array
    (scipy's ``irfft`` takes no output array).
    """
    lat = f.lattice
    if grid is None:
        grid = default_grid(lat)
    grid = tuple(int(g) for g in grid)
    _check_grid(lat, grid)
    shape = _padded_shape(lat, grid, real)
    if out is None:
        work = np.zeros(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex:
        raise ValueError(f"out must be a complex array of shape {shape}")
    else:
        work = out
        work.fill(0.0)
    for bins, modes in _bin_blocks(lat, grid, half=real):
        work[bins] = f.coeffs[modes]
    for axis, blocks in _passes(lat, grid, forward=False, real=real):
        for index in blocks:
            block = work[index]
            _transform_in_place(block, axis, forward=False)
            if axis == 0 and not real:
                # ifftn's 1/N, where pocketfft applies it
                _normalise(block, grid)
    if real:
        return sfft.irfft(work, n=grid[-1], axis=len(grid) - 1, norm="forward",
                          workers=FFT_WORKERS)
    return np.multiply(work, np.prod(grid), out=work)


def _axis_bins(g: int, cut: int, half: bool = False) -> tuple[tuple[slice, slice], ...]:
    """FFT bins (k mod g) of one axis's lattice modes: pairs (grid slice,
    lattice slice), since the modes -cut..-1 sit in the bins g-cut..g-1 and
    the modes 0..cut in the bins 0..cut.  ``half`` keeps only the modes
    0..cut (a real FFT's bins)."""
    upper = (slice(0, cut + 1), slice(cut, 2 * cut + 1))
    return (upper,) if half else ((slice(g - cut, g), slice(0, cut)), upper)


@lru_cache(maxsize=128)
def _bin_blocks(lat: SpectralLattice, grid: tuple[int, ...], half: bool = False
                ) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
    """The lattice modes' FFT bins as rectangular blocks: pairs (grid
    slices, lattice slices), the product of the axes' ``_axis_bins``.
    ``half`` takes the last axis's half (a real FFT's bins)."""
    last = len(grid) - 1
    axes = [_axis_bins(g, cut, half and axis == last)
            for axis, (g, cut) in enumerate(zip(grid, lat.cutoffs))]
    return tuple((tuple(b for b, _ in blocks), tuple(m for _, m in blocks))
                 for blocks in itertools.product(*axes))


@lru_cache(maxsize=128)
def _passes(lat: SpectralLattice, grid: tuple[int, ...], forward: bool, real: bool
            ) -> tuple[tuple[int, tuple[tuple[slice, ...], ...]], ...]:
    """pocketfft's complex passes of a pruned transform, in its order:
    pairs (axis, blocks), each block an index of the lines along ``axis``
    that the pass transforms.

    The passes run along axis 0, 1, ... (the real path leaves its last axis
    to the real FFT).  An inverse pass skips the lines whose later axes, or
    the real path's half last axis, sit outside the lattice's bins: they
    are still +0.0, and so is their transform, as long as every pass so far
    maps zero lines to +0.0 (``_zero_lines_stay_zero``).  A forward pass
    skips the lines whose earlier axes, or the real path's last axis
    (transformed first), sit outside them: their values are never read.
    """
    last = len(grid) - 1
    every = (slice(None),)
    # a tight axis's bins fill it: one block
    kept = [every if g == 2 * cut + 1 else
            tuple(b for b, _ in _axis_bins(g, cut, real and axis == last))
            for axis, (g, cut) in enumerate(zip(grid, lat.cutoffs))]
    passes = []
    prune = True
    for a in range(last if real else last + 1):
        if forward:
            lines = [kept[b] if b < a or (real and b == last) else every
                     for b in range(last + 1)]
        else:
            prune = prune and _zero_lines_stay_zero(grid[a])
            lines = [kept[b] if b > a and prune else every for b in range(last + 1)]
        passes.append((a, tuple(itertools.product(*lines, every))))
    return tuple(passes)


@lru_cache(maxsize=128)
def _zero_lines_stay_zero(length: int) -> bool:
    """Whether pocketfft's unscaled inverse FFT maps zero lines of this
    length to +0.0 throughout.  Some lengths that it transforms by
    Bluestein's algorithm (89, 101, ...) leave -0.0 in places, so skipping
    such a line would turn the sign of a zero.  Five lines: pocketfft runs
    lines in SIMD groups and the rest one at a time, and both are checked."""
    out = sfft.ifft(np.zeros((5, length), dtype=complex), norm="forward")
    return not np.any(np.signbit(out.view(np.float64)))


def _transform_in_place(block: np.ndarray, axis: int, forward: bool) -> None:
    """One unscaled complex FFT pass along ``axis``, written into ``block``."""
    if forward:
        out = sfft.fft(block, axis=axis, overwrite_x=True, workers=FFT_WORKERS)
    else:
        out = sfft.ifft(block, axis=axis, norm="forward", overwrite_x=True,
                        workers=FFT_WORKERS)
    # scipy writes through a strided view with overwrite_x; should a
    # version stop doing so, the copy it returned is put back
    if not np.shares_memory(out, block):
        block[...] = out


def _normalise(block: np.ndarray, grid: tuple[int, ...]) -> None:
    """block *= 1/N as pocketfft normalises: 1/N taken in long double and
    rounded to double, multiplied into the real and imaginary parts (a
    complex multiply would turn some signed zeros)."""
    parts = block.view(np.float64)
    np.multiply(parts, float(1 / np.longdouble(math.prod(grid))), out=parts)


def _check_grid(lat: SpectralLattice, grid: Sequence[int]) -> None:
    for axis, (g, cut) in enumerate(zip(grid, lat.cutoffs)):
        if g < 2 * cut + 1:
            raise GridTooSmallError(f"grid {g} < {2 * cut + 1} along axis {axis}")


def analyze(values: np.ndarray, lat: SpectralLattice, overwrite: bool = False
            ) -> FourierField:
    """Project grid values back onto the lattice coefficients.

    A real array goes through a forward real FFT; its j < 0 coefficients
    are the conjugate mirror of the j > 0 ones, which is exact for real
    values.  ``overwrite`` lets a complex array's passes all run in place
    on it, the first one too, and leaves it holding the padded spectrum;
    the real path reads ``values`` only.
    """
    values = np.asarray(values)
    grid = values.shape[:-1]
    if values.shape[-1] != lat.n or len(grid) != lat.n_axes:
        raise ValueError("value array shape does not match lattice")
    _check_grid(lat, grid)
    real = not np.iscomplexobj(values)
    passes = _passes(lat, grid, forward=True, real=real)
    # the result before the padded spectrum: the heap then frees the
    # short-lived spectrum from above the result, not a hole below it
    coeffs = np.empty(lat.field_shape, dtype=complex)
    # the first pass runs on every line and writes the one padded spectrum
    if real:
        spec = _kept_real_pass(values, grid, lat.cutoffs[-1])
        # rfftn's 1/N, where pocketfft applies it
        _normalise(spec, grid)
    elif overwrite:
        spec = values
    else:
        spec = sfft.fft(values, axis=0, workers=FFT_WORKERS)
        passes = passes[1:]
    for axis, blocks in passes:
        for index in blocks:
            _transform_in_place(spec[index], axis, forward=True)
    for bins, modes in _bin_blocks(lat, grid, half=real):
        coeffs[modes] = spec[bins]
    del spec
    if not real:
        np.divide(coeffs, np.prod(grid), out=coeffs)
        return FourierField(lat, coeffs)
    # coeff(-k, -j) = conj(coeff(k, j)): flip every mode axis, then conjugate
    cut = lat.cutoffs[-1]
    mirror = coeffs[(slice(None, None, -1),) * (lat.n_axes - 1) + (slice(-1, cut, -1),)]
    np.conjugate(mirror, out=coeffs[..., :cut, :])
    return FourierField(lat, coeffs)


# the real forward pass runs in axis-0 slabs of at most this many bytes of
# half spectrum, each held only until its kept bins are copied out
_REAL_PASS_SLAB_BYTES = 1 << 20


def _kept_real_pass(values: np.ndarray, grid: tuple[int, ...], cut: int) -> np.ndarray:
    """rfftn's first pass, the real FFT along the last axis, holding only
    its bins 0..cut, the ones the lattice keeps: the grid with its last axis
    cut to cut + 1 bins.  Beyond one axis it runs in axis-0 slabs; every line
    is still transformed whole, so the kept bins are the one-call pass's."""
    last = len(grid) - 1
    if last == 0:
        return sfft.rfft(values, axis=0, workers=FFT_WORKERS)[:cut + 1]
    spec = np.empty(grid[:-1] + (cut + 1, values.shape[-1]), dtype=complex)
    row = 16 * (grid[-1] // 2 + 1) * math.prod(grid[1:-1]) * values.shape[-1]
    rows = max(1, _REAL_PASS_SLAB_BYTES // row)
    for lo in range(0, grid[0], rows):
        spec[lo:lo + rows] = sfft.rfft(values[lo:lo + rows], axis=last,
                                       workers=FFT_WORKERS)[..., :cut + 1, :]
    return spec


def evaluate_at(f: FourierField, theta: Sequence[float], x: float | None = None) -> np.ndarray:
    """Pointwise value sum_k u_k e^{i k.theta} (times e^{i j x} when spatial)."""
    lat = f.lattice
    phase = sum(lat.axis_modes_along(i) * float(theta[i]) for i in range(lat.d))
    if lat.has_space:
        if x is None:
            raise ValueError("spatial field needs x")
        phase = phase + lat.axis_modes_along(lat.d) * float(x)
    weights = np.exp(1j * phase)
    return np.tensordot(weights, f.coeffs, axes=(tuple(range(lat.n_axes)),) * 2)


# ---------------------------------------------------------------------------
# products and composition


def product(u: FourierField, v: FourierField, real: bool) -> FourierField:
    """Componentwise pointwise product, computed alias-free.

    Uses 3/2-rule zero padding, which is exact for a quadratic product: the
    returned coefficients are the true convolution truncated to the lattice.
    ``real`` takes the real transforms and needs both factors Hermitian;
    ``v is u`` transforms once.
    """
    u._check(v)
    grid = dealias_grid(u.lattice, 2, real)
    pu = synthesize(u, grid, real=real)
    pv = pu if v is u else synthesize(v, grid, real=real)
    # in place: pu is this call's own array, so the product and, on the
    # complex path, every forward pass overwrite it
    return analyze(np.multiply(pu, pv, out=pu), u.lattice, overwrite=not real)


@dataclass(frozen=True)
class NonlinearitySpec:
    """The nonlinear part g-hat applied pointwise to field values.

    kind is one of:
      "zero"             -- identically zero
      "polynomial"       -- per-component coefficient lists, coeffs[c][p] is
                            the coefficient of x_c**p in component c
      "callable"         -- fn maps an (..., n) real array to the same shape
      "piecewise_linear" -- scalar continuous piecewise-linear map with
                            ``breakpoints`` and per-interval ``slopes``
                            (len(slopes) == len(breakpoints) + 1), pinned to
                            g(0) = 0, applied componentwise

    ``smallness`` records which contraction regime the map supports:
    "local" means g-hat vanishes to first order at the origin (contraction
    in a ball, small forcing required), "global" means a globally small
    Lipschitz constant declared in ``lip_hat``.  The non-polynomial kinds
    compose on a grid ``COMPOSITION_OVERSAMPLE`` times the lattice;
    polynomial composition always pads enough to be alias-free at its
    degree.
    """

    kind: str = "zero"
    coeffs: tuple[tuple[float, ...], ...] | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    breakpoints: tuple[float, ...] = ()
    slopes: tuple[float, ...] = ()
    lip_hat: float | None = None
    smallness: str = "local"

    def __post_init__(self):
        if self.kind not in ("zero", "polynomial", "callable", "piecewise_linear"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.lip_hat is not None and self.lip_hat < 0:
            raise ValueError("lip_hat >= 0 required")
        if self.smallness not in ("local", "global"):
            raise ValueError("smallness must be 'local' or 'global'")
        if self.kind == "polynomial":
            if self.coeffs is None:
                raise ValueError("polynomial kind needs coeffs")
            object.__setattr__(
                self,
                "coeffs",
                tuple(tuple(float(c) for c in row) for row in self.coeffs),
            )
            if self.smallness == "local":
                for row in self.coeffs:
                    if len(row) > 0 and row[0] != 0.0:
                        raise ValueError("a locally small map requires g-hat(0) = 0")
                    if len(row) > 1 and row[1] != 0.0:
                        raise ValueError("a locally small map requires D g-hat(0) = 0")
        if self.kind == "callable" and self.fn is None:
            raise ValueError("callable kind needs fn")
        if self.kind == "piecewise_linear":
            if len(self.slopes) != len(self.breakpoints) + 1:
                raise ValueError("need len(slopes) == len(breakpoints) + 1")
            if list(self.breakpoints) != sorted(self.breakpoints):
                raise ValueError("breakpoints must be increasing")
            object.__setattr__(self, "breakpoints", tuple(map(float, self.breakpoints)))
            object.__setattr__(self, "slopes", tuple(map(float, self.slopes)))
            # the knot table and g(0), built once: an attribute, not a field,
            # so equality, hashing and repr do not see it
            breaks, slopes = np.asarray(self.breakpoints), np.asarray(self.slopes)
            knots = np.zeros(len(breaks))
            for i in range(1, len(breaks)):
                knots[i] = knots[i - 1] + slopes[i] * (breaks[i] - breaks[i - 1])
            object.__setattr__(self, "_piecewise", (breaks, slopes, knots, 0.0))
            if len(breaks):     # x - 0.0 is x, so this is the raw g(0)
                object.__setattr__(self, "_piecewise", (breaks, slopes, knots,
                                                        self(np.zeros(1))[0]))

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "NonlinearitySpec":
        return NonlinearitySpec(kind="zero", lip_hat=0.0)

    @staticmethod
    def polynomial(coeffs, smallness: str = "local") -> "NonlinearitySpec":
        return NonlinearitySpec(kind="polynomial", coeffs=tuple(map(tuple, coeffs)),
                                smallness=smallness)

    @staticmethod
    def cubic(c: float, n: int = 1) -> "NonlinearitySpec":
        return NonlinearitySpec.polynomial([(0.0, 0.0, 0.0, c)] * n)

    @staticmethod
    def piecewise(breakpoints, slopes) -> "NonlinearitySpec":
        slopes = tuple(map(float, slopes))
        return NonlinearitySpec(
            kind="piecewise_linear",
            breakpoints=tuple(map(float, breakpoints)),
            slopes=slopes,
            lip_hat=max(abs(s) for s in slopes),
            smallness="global",
        )

    # -- evaluation ------------------------------------------------------

    @property
    def degree(self) -> int:
        if self.kind != "polynomial":
            raise ValueError("degree only defined for polynomials")
        deg = 0
        for row in self.coeffs:
            nz = [p for p, c in enumerate(row) if c != 0.0]
            deg = max(deg, max(nz) if nz else 0)
        return deg

    @property
    def vanishes_at_zero(self) -> bool:
        """g-hat(0) = 0 as the spec shows it: the zero and piecewise-linear
        kinds, and polynomials whose constant terms are all 0.  A callable
        is not evaluated and counts as False."""
        if self.kind == "polynomial":
            return all(not row or row[0] == 0.0 for row in self.coeffs)
        return self.kind in ("zero", "piecewise_linear")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "polynomial":
            return self.horner(x, np.empty(x.shape, dtype=np.result_type(x, 0.0)))
        if self.kind == "callable":
            return np.asarray(self.fn(x))
        return self._piecewise_eval(x)

    def horner(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A polynomial's values at x, written into ``out`` (x's shape, a
        dtype x's values cast to) and returned: Horner in one accumulator
        per component, ``out``'s own column.  It starts from 0 * x + the top
        coefficient, not from the top coefficient alone, so signed zeros and
        non-finite x give the bits of Horner from a zero accumulator.  A
        component without a coefficient row is +0.0."""
        for c, row in enumerate(self.coeffs):
            xc, acc = x[..., c], out[..., c]
            if row:
                np.multiply(xc, 0.0, out=acc)
                acc += row[-1]
            else:
                acc.fill(0.0)
            for coeff in row[-2::-1]:
                acc *= xc
                acc += coeff
        out[..., len(self.coeffs):] = 0.0
        return out

    def point(self, x: list[float]) -> list[float]:
        """g-hat at one real point, on Python floats: the bits of
        ``self(np.array([x]))[0]``.  Polynomials run ``__call__``'s Horner
        without numpy; the other kinds go through ``__call__``, so a
        callable still sees an array."""
        if self.kind != "polynomial":
            return self(np.array([x]))[0].tolist()
        out = [0.0] * len(x)
        for c, row in enumerate(self.coeffs):
            xc = x[c]
            acc = xc * 0.0 + row[-1] if row else 0.0
            for coeff in row[-2::-1]:
                acc = acc * xc + coeff
            out[c] = acc
        return out

    def _piecewise_eval(self, x: np.ndarray) -> np.ndarray:
        breaks, slopes, knots, offset = self._piecewise
        if len(breaks) == 0:
            return slopes[0] * x
        # left-continuous: x == b evaluates on the segment left of b
        seg = np.searchsorted(breaks, x, side="left")
        a = np.maximum(seg - 1, 0)
        return knots[a] + slopes[seg] * (x - breaks[a]) - offset

    def lipschitz_on_ball(self, radius: float) -> float:
        """Upper bound for Lip(g-hat) on {|x_c| <= radius}."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "polynomial":
            worst = 0.0
            for row in self.coeffs:
                bound = sum(
                    p * abs(c) * radius ** (p - 1) for p, c in enumerate(row) if p >= 1
                )
                worst = max(worst, bound)
            return worst
        if self.kind == "piecewise_linear":
            return max(abs(s) for s in self.slopes)
        if self.lip_hat is not None:
            return self.lip_hat
        return math.inf


# grid size per lattice size of a non-polynomial composition, which no
# grid makes alias-free
COMPOSITION_OVERSAMPLE = 4.0


def _composition_grid(lat: SpectralLattice, g: NonlinearitySpec, real: bool
                      ) -> tuple[int, ...]:
    if g.kind == "polynomial":
        return dealias_grid(lat, max(g.degree, 1), real)
    return default_grid(lat, oversample=COMPOSITION_OVERSAMPLE)


def composition_plan(lat: SpectralLattice, g: NonlinearitySpec, real: bool
                     ) -> TransformPlan | None:
    """The plan that ``compose(u, g, real)`` runs in, for a solve to build
    once: on the composition grid of g (see ``NonlinearitySpec``).  None
    for the zero kind, which composes without a transform."""
    if g.kind == "zero":
        return None
    return TransformPlan(lat, _composition_grid(lat, g, real), real, g.kind == "polynomial")


def compose(u: FourierField, g: NonlinearitySpec, real: bool,
            plan: TransformPlan | None = None) -> FourierField:
    """Pseudo-spectral composition: analyze(g(synthesize(u))).

    Polynomial kinds pad the grid to the exact alias-free size for their
    degree; other kinds use ``COMPOSITION_OVERSAMPLE``.  ``real`` takes the
    real transforms and needs u Hermitian, so g is evaluated on real grid
    values and real symmetry is preserved.  The transforms run in ``plan``
    (``composition_plan(u.lattice, g, real)``), or in a plan of this
    call's; a polynomial is evaluated into the plan's ``values``, which the
    forward transform then overwrites.  A callable's output is only read.
    """
    lat = u.lattice
    if g.kind == "zero":
        return FourierField.zeros(lat)
    if not real and g.kind == "piecewise_linear":
        raise ValueError("piecewise-linear composition needs a real-symmetric field")
    if plan is None:
        plan = composition_plan(lat, g, real)
    x = synthesize(u, _composition_grid(lat, g, real), real=real, out=plan.work)
    gv = g.horner(x, plan.values) if g.kind == "polynomial" else np.asarray(g(x))
    if not np.all(np.isfinite(gv)):
        raise FloatingPointError("nonlinearity returned non-finite grid values")
    return analyze(gv, lat, overwrite=gv is plan.values)


# ---------------------------------------------------------------------------
# derivatives


def directional_derivative(u: FourierField, order: int = 1) -> FourierField:
    """(omega . d/dtheta)^order: multiply mode k by (i k.omega)^order."""
    return FourierField(u.lattice, u.coeffs * directional_multiplier(u.lattice, order))


def directional_multiplier(lat: SpectralLattice, order: int) -> np.ndarray:
    """(i k.omega)^order, shaped to broadcast against ``lat.field_shape``."""
    return ((1j * lat.k_dot_omega()) ** order)[..., None]


def spatial_derivative(u: FourierField, order: int) -> FourierField:
    """d^order/dx^order on spatial lattices: multiply (k, j) by (i j)^order."""
    return FourierField(u.lattice, u.coeffs * spatial_multiplier(u.lattice, order))


def spatial_multiplier(lat: SpectralLattice, order: int) -> np.ndarray:
    """(i j)^order, shaped to broadcast against ``lat.field_shape``."""
    if not lat.has_space:
        raise ValueError("spatial derivative needs a spatial lattice")
    j = lat.axis_modes_along(lat.d).astype(float)
    return ((1j * j) ** order)[..., None]


# ---------------------------------------------------------------------------
# diagnostics


def composition_aliasing_estimate(u: FourierField, g: NonlinearitySpec, real: bool) -> float:
    """Residual aliasing of a pseudo-spectral composition.

    Compares ``compose(u, g, real)`` against the same computation on a
    doubled grid; exact (polynomial) dealiasing returns roundoff, and a g
    that is not finite on either grid returns nan.
    """
    if g.kind == "zero":
        return 0.0
    try:
        base = compose(u, g, real)
    except FloatingPointError:
        return math.nan
    grid = tuple(2 * s for s in _composition_grid(u.lattice, g, real))
    vals = synthesize(u, grid, real=real)
    refined = analyze(np.asarray(g(vals)), u.lattice)
    return float(np.max(np.abs(base.coeffs - refined.coeffs)))


def roundoff_floor(f: FourierField) -> float:
    """eps * sum |c| over every coefficient and component (eps times the l1
    norm): the size below which a coefficient of a solve is roundoff.

    A sum that overflows, or a field holding inf or NaN, gives a floor that
    is not finite.
    """
    with np.errstate(over="ignore"):
        return float(np.finfo(float).eps * np.sum(np.abs(f.coeffs)))


def truncation_tail_norm(f: FourierField, spec: NormSpec) -> float:
    """Weighted norm of the outermost shells: a finite-cutoff diagnostic."""
    lat = f.lattice
    linf = np.zeros(lat.mode_shape)
    for axis, cut in enumerate(lat.cutoffs):
        linf = np.maximum(linf, np.abs(lat.axis_modes_along(axis)) / cut)
    cutfrac = 1.0 - 1 / max(lat.K, 1)
    mask = (linf >= cutfrac)[..., None]
    tail = FourierField(lat, np.where(mask, f.coeffs, 0.0))
    return norm(tail, spec)
