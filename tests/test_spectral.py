import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy import fft as sfft

import response_solver as rs
from response_solver.spectral import (
    COMPOSITION_OVERSAMPLE,
    GridTooSmallError,
    _SQUARE_SAFE,
    L2,
    NormOverflowError,
    NormSpec,
    _composition_grid,
    dealias_grid,
    default_grid,
    evaluate_at,
    hs_norm,
    lattice_index,
)

import reference
from reference import (
    cauchy_decay_fit,
    fft_bins,
    horner_reference,
    mode_coefficient,
    padded,
    piecewise_reference,
    polynomial_reference,
    random_real,
)


def single_mode(lat, k, value=1.0 + 0j):
    vec = np.zeros(lat.n, dtype=complex)
    vec[0] = value
    return rs.FourierField.from_modes(lat, {tuple(k): vec})


class TestLatticeGeometry:
    def test_mode_of_index_inverts_lattice_index(self, pde_lattice):
        assert pde_lattice.cutoffs == (8, 8, 8)
        for k in [(0, 0, 0), (-8, 3, 8), (8, -8, -1)]:
            flat = np.ravel_multi_index(lattice_index(pde_lattice, k),
                                        pde_lattice.mode_shape)
            assert pde_lattice.mode_of_index(flat) == k

    def test_axis_modes_along_broadcasts_one_axis(self, pde_lattice):
        for axis in range(pde_lattice.n_axes):
            along = pde_lattice.axis_modes_along(axis)
            assert along.shape == tuple(17 if a == axis else 1 for a in range(3))
            assert np.array_equal(along.ravel(), pde_lattice.axis_modes(axis))

    def test_space_average_slab_is_j_zero(self, pde_lattice, lat1d):
        slab = np.zeros(pde_lattice.mode_shape)[pde_lattice.space_average_slab]
        assert slab.shape == (17, 17)
        with pytest.raises(ValueError):
            lat1d.space_average_slab


class TestNorm:
    def test_single_mode_closed_form(self):
        lat = rs.SpectralLattice(d=2, K=4, omega=(1.0, math.sqrt(2)))
        f = single_mode(lat, (1, 0))
        # |u|^2 e^{2*0.5*1} (1+1)^2 = 4e, norm = 2 sqrt(e)
        assert_allclose(rs.norm(f, rs.NormSpec(0.5, 2)), 2 * math.exp(0.5), rtol=1e-14)

    def test_zero_field(self):
        lat = rs.SpectralLattice(d=2, K=4, omega=(1.0, math.sqrt(2)))
        assert rs.norm(rs.FourierField.zeros(lat), rs.NormSpec(1.0, 3)) == 0.0

    def test_two_mode_field_vs_hand_sum(self, rng):
        lat = rs.SpectralLattice(d=2, K=6, omega=(1.0, math.sqrt(2)))
        c1 = complex(rng.standard_normal(), rng.standard_normal())
        c2 = complex(rng.standard_normal(), rng.standard_normal())
        k1, k2 = (2, -1), (-3, 4)
        f = rs.FourierField.from_modes(lat, {k1: np.array([c1]), k2: np.array([c2])})
        spec = rs.NormSpec(0.3, 2)
        # independent summation of the two weighted terms
        t1 = abs(c1) ** 2 * math.exp(2 * 0.3 * 3) * (2 ** 2 + 1 ** 2 + 1) ** 2
        t2 = abs(c2) ** 2 * math.exp(2 * 0.3 * 7) * (3 ** 2 + 4 ** 2 + 1) ** 2
        assert_allclose(rs.norm(f, spec), math.sqrt(t1 + t2), rtol=1e-14)

    def test_homogeneity_and_triangle(self, lat2d, rng):
        spec = rs.NormSpec(0.2, 3)
        u = random_real(lat2d, rng)
        v = random_real(lat2d, rng)
        assert_allclose(rs.norm(2.5 * u, spec), 2.5 * rs.norm(u, spec), rtol=1e-12)
        assert rs.norm(u + v, spec) <= rs.norm(u, spec) + rs.norm(v, spec) + 1e-12

    def test_overflow_guard(self):
        lat = rs.SpectralLattice(d=1, K=16, omega=(1.0,))
        f = single_mode(lat, (16,))
        with pytest.raises(NormOverflowError):
            rs.norm(f, rs.NormSpec(50.0, 0))
        # log-space evaluation survives where naive exp(2 rho K) would not
        assert rs.norm(f, rs.NormSpec(25.0, 0)) == pytest.approx(math.exp(25.0 * 16))

    @pytest.mark.filterwarnings("error")
    def test_coefficients_whose_square_overflows(self):
        lat = rs.SpectralLattice(d=1, K=4, omega=(1.0,))
        f = rs.FourierField.from_modes(lat, {(1,): 1e200, (-1,): 1e200})
        assert_allclose(rs.norm(f, rs.NormSpec()), math.sqrt(2) * 1e200, rtol=1e-14)
        with pytest.raises(NormOverflowError):
            rs.norm(f, rs.NormSpec(300.0, 0))
        with pytest.raises(NormOverflowError):
            rs.norm(rs.FourierField.from_modes(lat, {(1,): math.inf}), rs.NormSpec())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [rs.NormSpec(), rs.NormSpec(0.5, 0.0),
                                      rs.NormSpec(0.3, 1.5)], ids=["L2", "rho", "rho-m"])
    @pytest.mark.parametrize("c", [1e-170, 1e-300])
    def test_norm_scales_on_the_small_side(self, lat2d, pde_lattice, rng, spec, c):
        """A field whose squares underflow keeps its norm: norm(c f) is
        c norm(f), and five equal coefficients a give a sqrt(5)."""
        multi = rs.SpectralLattice(d=1, K=4, omega=(1.0,), n=2)
        for lat in (lat2d, pde_lattice, multi):
            f = random_real(lat, rng)
            assert rs.norm(c * f, spec) == pytest.approx(c * rs.norm(f, spec),
                                                         rel=1e-14, abs=0.0)
        five = rs.SpectralLattice(d=1, K=2, omega=(1.0,))
        for a in (1e-160, c):
            equal = rs.FourierField(five, np.full(five.field_shape, a + 0j))
            assert rs.norm(equal, rs.NormSpec()) == pytest.approx(a * math.sqrt(5.0),
                                                                  rel=1e-15, abs=0.0)

    def test_tiny_field_under_large_weights(self):
        """A tiny field's norm is e^{rho |k|} |u|, also where the rescaled
        field's e^{rho |k|} alone would leave the double range."""
        lat = rs.SpectralLattice(d=1, K=16, omega=(1.0,))
        f = single_mode(lat, (16,), 1e-200)
        for rho in (25.0, 50.0):       # e^400 and e^800 times 1e-200
            assert rs.norm(f, rs.NormSpec(rho, 0)) == \
                pytest.approx(math.exp(16 * rho + math.log(1e-200)), rel=1e-13)
        with pytest.raises(NormOverflowError):
            rs.norm(f, rs.NormSpec(80.0, 0))

    @pytest.mark.filterwarnings("error")
    def test_nan_coefficients_raise(self, lat2d, rng):
        nan = rs.FourierField(lat2d, np.full(lat2d.field_shape, np.nan + 0j))
        with pytest.raises(FloatingPointError):
            rs.norm(nan, rs.NormSpec())
        one_nan = random_real(lat2d, rng)
        one_nan.coeffs[1, 2, 0] = complex(np.nan, 0.0)
        with pytest.raises(FloatingPointError):
            rs.norm(one_nan, rs.NormSpec(0.2, 1))

    def test_weighted_norm_keeps_a_coefficient_whose_square_underflows(self):
        """1.0 at k = 0 and 1e-170 at k = 16 under NormSpec(25, 0): the
        weight e^800 makes the second term the larger, though its square
        underflows, so the norm is not 1.0."""
        import mpmath

        lat = rs.SpectralLattice(d=1, K=16, omega=(1.0,))
        f = rs.FourierField.from_modes(lat, {(0,): 1.0, (16,): 1e-170})
        with mpmath.workdps(40):
            exact = float(mpmath.sqrt(1 + mpmath.mpf(1e-170) ** 2 * mpmath.exp(800)))
        assert exact == pytest.approx(5221.47, rel=1e-6)
        assert rs.norm(f, rs.NormSpec(25.0, 0.0)) == pytest.approx(exact, rel=1e-13)
        # the same field without the 1.0, and L2, where the term is roundoff
        assert rs.norm(f - rs.FourierField.from_modes(lat, {(0,): 1.0}),
                       rs.NormSpec(25.0, 0.0)) == pytest.approx(exact, rel=1e-6)
        assert rs.norm(f, L2) == 1.0

    def test_pde_weight_uses_k_and_j(self, pde_lattice):
        f = single_mode(pde_lattice, (1, 0, 2))
        got = rs.norm(f, rs.NormSpec(0.5, 1))
        expect = math.sqrt(math.exp(2 * 0.5 * 3) * (1 + 4 + 1))
        assert_allclose(got, expect, rtol=1e-14)


class TestTransforms:
    def test_round_trip_identity(self, lat2d, rng):
        u = random_real(lat2d, rng)
        v = rs.analyze(rs.synthesize(u), lat2d)
        assert np.max(np.abs(u.coeffs - v.coeffs)) <= 1e-13 * u.max_abs()

    def test_cos_on_eight_nodes(self):
        lat = rs.SpectralLattice(d=1, K=2, omega=(1.0,))
        u = rs.FourierField.from_modes(
            lat, {(1,): np.array([0.5 + 0j]), (-1,): np.array([0.5 + 0j])}
        )
        vals = rs.synthesize(u, (8,))[..., 0].real
        nodes = 2 * np.pi * np.arange(8) / 8
        assert_allclose(vals, np.cos(nodes), atol=1e-14)

    def test_refinement_consistency(self, lat2d, rng):
        u = random_real(lat2d, rng)
        n = 2 * lat2d.K + 1
        a = rs.analyze(rs.synthesize(u, (n, n)), lat2d)
        b = rs.analyze(rs.synthesize(u, (2 * n, 2 * n)), lat2d)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * u.max_abs()

    def test_grid_too_small(self, lat2d, rng):
        u = random_real(lat2d, rng)
        with pytest.raises(GridTooSmallError):
            rs.synthesize(u, (2 * lat2d.K, 2 * lat2d.K + 1))

    def test_pointwise_evaluation(self, lat1d):
        u = single_mode(lat1d, (3,), 2.0 + 0j)
        theta = 0.37
        assert_allclose(evaluate_at(u, (theta,))[0], 2.0 * np.exp(3j * theta),
                        rtol=1e-14)


def same_bits(a, b):
    """Equal to the last bit, signed zeros included (``np.array_equal``
    has -0.0 == 0.0; the spectrum CSVs print the sign)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def oversampled_grid(lat):
    """The grid of a non-polynomial composition."""
    return default_grid(lat, oversample=COMPOSITION_OVERSAMPLE)


def transform_fields(lat, rng, real):
    """A random field (Hermitian when ``real``), the same with exact +0.0
    and -0.0 parts, and the same on the sublattice where the second torus
    mode (the first when d = 1) is 0, as the shipped Boussinesq forcing."""
    if real:
        base = random_real(lat, rng)
    else:
        base = rs.FourierField(lat, rng.standard_normal(lat.field_shape)
                               + 1j * rng.standard_normal(lat.field_shape))
    signed = base.copy()
    signed.coeffs[rng.random(lat.field_shape) < 0.4] = 0.0
    signed.coeffs.real[rng.random(lat.field_shape) < 0.3] = -0.0
    signed.coeffs.imag[rng.random(lat.field_shape) < 0.3] = -0.0
    off = lat.axis_modes_along(min(1, lat.d - 1)) != 0
    sub = rs.FourierField(lat, np.where(off[..., None], 0.0, base.coeffs))
    return base, signed, sub


def with_signed_zeros(values, rng):
    """values with about a third of its real parts replaced by -0.0."""
    out = values.copy()
    parts = out.real if np.iscomplexobj(out) else out
    parts[rng.random(out.shape) < 0.3] = -0.0
    return out


def transform_cases(lattices, grids):
    """Every lattice on every grid of at most 2^17 values."""
    return [pytest.param(name, grid, id=f"{grid_name}-{name}")
            for grid_name, grid_of in grids.items()
            for name, lat in sorted(lattices.items())
            for grid in [grid_of(lat)] if math.prod(grid) * lat.n <= 2 ** 17]


class TestTransformBits:
    """synthesize and analyze give the bits of scipy's one-call transforms
    (irfftn, ifftn times N and fftn over N), signed zeros included, with
    one FFT worker and with two."""

    LATTICES = {
        "1axis-n1": rs.SpectralLattice(d=1, K=6, omega=(1.0,)),
        "1axis-n2": rs.SpectralLattice(d=1, K=5, omega=(1.0,), n=2),
        "2axis-n1": rs.SpectralLattice(d=2, K=4, omega=(1.0, math.sqrt(2))),
        "2axis-space-n2": rs.SpectralLattice(d=1, K=3, omega=(1.0,), n=2,
                                             has_space=True, J=4),
        "3axis-space-n1": rs.SpectralLattice(d=2, K=4, omega=(1.0, math.sqrt(2)),
                                             has_space=True, J=3),
        "3axis-n2": rs.SpectralLattice(d=3, K=2, omega=(1.0, math.sqrt(2), math.pi),
                                       n=2),
        "2axis-space-n1": rs.SpectralLattice(d=1, K=4, omega=(1.0,), has_space=True, J=5),
        "4axis-space-n1": rs.SpectralLattice(d=3, K=2, omega=(1.0, math.sqrt(2), math.pi),
                                             has_space=True, J=3),
        "4axis-space-n2": rs.SpectralLattice(d=3, K=1, omega=(1.0, math.sqrt(2), math.pi),
                                             n=2, has_space=True, J=2),
        # tight, these are 71 and 127 bins, lengths pocketfft transforms by
        # Bluestein's algorithm (127 on the real path too)
        "2axis-space-prime": rs.SpectralLattice(d=1, K=35, omega=(1.0,),
                                                has_space=True, J=63),
        # tight, 67 x 69 values: 1/4623 rounded to double from long double,
        # as pocketfft takes it, is one ulp off 1/4623 taken in double
        "2axis-space-4623": rs.SpectralLattice(d=1, K=33, omega=(1.0,),
                                               has_space=True, J=34),
    }
    GRIDS = {
        "default": default_grid,
        "dealias": lambda lat: dealias_grid(lat, 2, False),
        # the real path's grid: its last axis 5-smooth
        "dealias-real": lambda lat: dealias_grid(lat, 2, True),
        # the lattice's own size per axis: the two bin blocks of an axis meet
        "tight": lambda lat: tuple(2 * cut + 1 for cut in lat.cutoffs),
        "oversampled": oversampled_grid,
        # composition_aliasing_estimate's check grid
        "doubled": lambda lat: tuple(2 * s for s in oversampled_grid(lat)),
    }
    CASES = transform_cases(LATTICES, GRIDS)

    @pytest.mark.parametrize("name, grid", CASES)
    def test_real_path(self, name, grid, rng, monkeypatch):
        lat = self.LATTICES[name]
        axes = tuple(range(lat.n_axes))
        cut = lat.cutoffs[-1]
        for workers, u in itertools.product([1, 2], transform_fields(lat, rng, real=True)):
            monkeypatch.setattr(rs.spectral, "FFT_WORKERS", workers)
            values = rs.synthesize(u, grid, real=True)
            assert same_bits(values, sfft.irfftn(padded(u, grid), s=grid, axes=axes,
                                                 norm="forward", workers=workers))
            for vals in (values, with_signed_zeros(values, rng)):
                spec = sfft.rfftn(vals, axes=axes, norm="forward", workers=workers)
                # the j >= 0 half is rfftn's; the rest is its conjugate mirror
                assert same_bits(rs.analyze(vals, lat).coeffs[..., cut:, :],
                                 spec[fft_bins(lat, grid, half=True)])

    @pytest.mark.parametrize("name, grid", CASES)
    def test_complex_path(self, name, grid, rng, monkeypatch):
        lat = self.LATTICES[name]
        axes = tuple(range(lat.n_axes))
        for workers, u in itertools.product([1, 2], transform_fields(lat, rng, real=False)):
            monkeypatch.setattr(rs.spectral, "FFT_WORKERS", workers)
            values = rs.synthesize(u, grid)
            assert same_bits(values, sfft.ifftn(padded(u, grid), axes=axes,
                                                workers=workers) * np.prod(grid))
            for vals in (values, with_signed_zeros(values, rng)):
                spec = sfft.fftn(vals, axes=axes, workers=workers) / np.prod(grid)
                assert same_bits(rs.analyze(vals, lat).coeffs, spec[fft_bins(lat, grid)])

    @pytest.mark.parametrize("grid", [(89, 16), (101, 40), (16, 89, 16), (89, 16, 16)],
                             ids=["89x16", "101x40", "16x89x16", "89x16x16"])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_zero_lines_of_a_bluestein_axis(self, grid, real, rng):
        """pocketfft's inverse of a zero line of 89 or 101 points holds
        -0.0 in places, so that pass and the later ones skip no line: zero
        fields keep the one-call transform's signed zeros."""
        lat = rs.SpectralLattice(d=len(grid) - 1, K=7, omega=(1.0, math.sqrt(2))[:len(grid) - 1],
                                 has_space=True, J=7)
        axes = tuple(range(lat.n_axes))
        negative = rs.FourierField(lat, np.full(lat.field_shape, complex(-0.0, -0.0)))
        for u in (rs.FourierField.zeros(lat), negative,
                  transform_fields(lat, rng, real)[2]):
            if real:
                expected = sfft.irfftn(padded(u, grid), s=grid, axes=axes, norm="forward")
            else:
                expected = sfft.ifftn(padded(u, grid), axes=axes) * np.prod(grid)
            assert same_bits(rs.synthesize(u, grid, real=real), expected)

    @pytest.mark.parametrize("grid, rows", [((13,), 13), ((13, 10), 3), ((7, 6, 12), 2),
                                            ((3, 8), 5), ((9, 7, 11, 10), 4)],
                             ids=["13", "13x10-rows3", "7x6x12-rows2", "3x8-rows5",
                                  "9x7x11x10-rows4"])
    def test_real_analyze_in_slabs(self, grid, rows, rng, monkeypatch):
        """The real forward pass runs in axis-0 slabs of ``rows`` lines,
        which need not divide the axis or fit in it (a 1-axis grid runs in
        one call), and keeps only the bins 0..cut: they hold rfftn's bits."""
        lat = rs.SpectralLattice(d=len(grid), K=(min(grid) - 1) // 2,
                                 omega=(1.0, math.sqrt(2), math.pi, math.e)[:len(grid)], n=2)
        cut = lat.cutoffs[-1]
        row = 16 * (grid[-1] // 2 + 1) * math.prod(grid[1:-1]) * lat.n
        monkeypatch.setattr(rs.spectral, "_REAL_PASS_SLAB_BYTES", rows * row + row - 1)
        axes = tuple(range(lat.n_axes))
        values = rng.standard_normal(grid + (lat.n,))
        for workers, vals in itertools.product([1, 2], (values, with_signed_zeros(values, rng))):
            monkeypatch.setattr(rs.spectral, "FFT_WORKERS", workers)
            monkeypatch.setattr(rs.spectral, "sfft", recorder := RecordingFFT())
            coeffs = rs.analyze(vals, lat).coeffs
            monkeypatch.setattr(rs.spectral, "sfft", sfft)
            slabs = [points for name, _, points in recorder.calls if name == "rfft"]
            per_row = math.prod(grid[1:]) * lat.n
            assert slabs == ([vals.size] if len(grid) == 1 else
                             [min(rows, grid[0] - lo) * per_row for lo in range(0, grid[0], rows)])
            spec = sfft.rfftn(vals, axes=axes, norm="forward", workers=workers)
            assert same_bits(coeffs[..., cut:, :], spec[fft_bins(lat, grid, half=True)])


class TestGridRule:
    """The product and polynomial composition grids: (p + 1) cut + 1 points
    per axis, each raised to pocketfft's next fast length; on the real path
    the last axis, which the real FFT transforms, to the next 5-smooth one.
    The non-polynomial kinds' grid, ``default_grid``, has no real rule."""

    LATTICES = {
        "K=J=32": rs.SpectralLattice(d=2, K=32, omega=(1.0, math.sqrt(2)), has_space=True,
                                     J=32),
        "K=J=48": rs.SpectralLattice(d=2, K=48, omega=(1.0, math.sqrt(2)), has_space=True,
                                     J=48),
        "d3K12": rs.SpectralLattice(d=3, K=12, omega=(1.0, math.sqrt(2), math.sqrt(3))),
        "d2K32": rs.SpectralLattice(d=2, K=32, omega=(1.0, math.sqrt(2))),
        "d1K16": rs.SpectralLattice(d=1, K=16, omega=(1.0,)),
        "K=J=8": rs.SpectralLattice(d=2, K=8, omega=(1.0, math.sqrt(2)), has_space=True, J=8),
    }

    @pytest.mark.parametrize("name, degree, complex_grid, real_grid, oversampled", [
        ("K=J=32", 2, (98, 98, 98), (98, 98, 100), (264, 264, 264)),
        ("K=J=48", 2, (147, 147, 147), (147, 147, 150), (392, 392, 392)),
        ("d3K12", 3, (49, 49, 49), (49, 49, 50), (100, 100, 100)),
        ("d2K32", 3, (132, 132), (132, 135), (264, 264)),
        ("d1K16", 3, (66,), (72,), (132,)),
        ("K=J=8", 2, (25, 25, 25), (25, 25, 25), (70, 70, 70)),
    ])
    def test_grid_table(self, name, degree, complex_grid, real_grid, oversampled):
        lat = self.LATTICES[name]
        assert dealias_grid(lat, degree, False) == complex_grid
        assert dealias_grid(lat, degree, True) == real_grid
        poly = rs.NonlinearitySpec.polynomial([[0.0] * degree + [1.0]])
        piecewise = rs.NonlinearitySpec.piecewise([0.0], [-0.05, 0.05])
        for real, grid in [(False, complex_grid), (True, real_grid)]:
            assert _composition_grid(lat, poly, real) == grid
            assert _composition_grid(lat, piecewise, real) == oversampled
        assert default_grid(lat, oversample=COMPOSITION_OVERSAMPLE) == oversampled


class RecordingFFT:
    """``scipy.fft`` as ``spectral`` calls it, noting each one-axis
    transform as (function, axis, points transformed); with ``copies`` the
    transforms never write into their input."""

    TRANSFORMS = ("fft", "ifft", "rfft", "irfft")

    def __init__(self, copies=False):
        self.calls = []
        self.copies = copies

    def __getattr__(self, name):
        fn = getattr(sfft, name)
        if name not in self.TRANSFORMS:
            return fn

        def recorded(x, *args, axis=-1, **kwargs):
            self.calls.append((name, axis, x.size))
            if self.copies:
                kwargs.pop("overwrite_x", None)
                x = x.copy()
            return fn(x, *args, axis=axis, **kwargs)
        return recorded

    def passes(self):
        """Points per pass: consecutive calls along one axis summed."""
        out = []
        for name, axis, points in self.calls:
            if out and out[-1][:2] == (name, axis):
                out[-1] = (name, axis, out[-1][2] + points)
            else:
                out.append((name, axis, points))
        return out


class TestPrunedPasses:
    """Each pass transforms only the lines that reach the result: an inverse
    pass the lines whose untransformed axes sit in lattice bins, a forward
    pass the lines whose transformed axes do."""

    def test_cubic_composition_d3_k12(self, monkeypatch, rng):
        lat = rs.SpectralLattice(d=3, K=12, omega=(1.0, math.sqrt(2), math.sqrt(3)))
        g = rs.NonlinearitySpec.cubic(1.0)
        assert _composition_grid(lat, g, False) == (49, 49, 49)
        u = rs.FourierField(lat, rng.standard_normal(lat.field_shape)
                            + 1j * rng.standard_normal(lat.field_shape))
        rs.compose(u, g, False)     # the per-length checks run once, unrecorded
        monkeypatch.setattr(rs.spectral, "sfft", recorder := RecordingFFT())
        rs.compose(u, g, False)
        assert recorder.passes() == [
            ("ifft", 0, 49 * 25 * 25), ("ifft", 1, 49 * 49 * 25), ("ifft", 2, 49 ** 3),
            ("fft", 0, 49 ** 3), ("fft", 1, 25 * 49 * 49), ("fft", 2, 25 * 25 * 49)]

    def test_real_product_k_j_32(self, monkeypatch, rng):
        lat = rs.SpectralLattice(d=2, K=32, omega=(1.0, math.sqrt(2)), has_space=True, J=32)
        assert dealias_grid(lat, 2, True) == (98, 98, 100)
        u = random_real(lat, rng)
        rs.product(u, u, True)      # the per-length checks run once, unrecorded
        monkeypatch.setattr(rs.spectral, "sfft", recorder := RecordingFFT())
        rs.product(u, u, True)
        # 65 lattice bins per axis, 33 of them on the real FFT's half axis
        # of 51 bins; the forward spectrum holds only those 33
        assert recorder.passes() == [
            ("ifft", 0, 98 * 65 * 33), ("ifft", 1, 98 * 98 * 33), ("irfft", 2, 98 * 98 * 51),
            ("rfft", 2, 98 * 98 * 100), ("fft", 0, 98 * 98 * 33), ("fft", 1, 65 * 98 * 33)]


class TestScipyInPlace:
    def test_overwrite_x_writes_through_a_strided_view(self, rng):
        """The pruned passes hand scipy strided views of one padded array
        with ``overwrite_x``; scipy transforms them in place.  A scipy that
        stops doing so fails here first, and the passes then copy back."""
        work = rng.standard_normal((6, 8, 5, 2)) + 1j * rng.standard_normal((6, 8, 5, 2))
        for fn in (sfft.fft, sfft.ifft):
            view = work[:, 5:, 1:3]
            expected = fn(view.copy(), axis=0)
            out = fn(view, axis=0, overwrite_x=True)
            assert np.shares_memory(out, view)
            assert same_bits(view, expected)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_passes_copy_back_a_transform_not_done_in_place(self, monkeypatch, rng, real):
        lat = rs.SpectralLattice(d=2, K=3, omega=(1.0, math.sqrt(2)), has_space=True, J=2)
        u = transform_fields(lat, rng, real)[0]
        grid = dealias_grid(lat, 2, real)
        values = rs.synthesize(u, grid, real=real)
        coeffs = rs.analyze(values, lat).coeffs
        monkeypatch.setattr(rs.spectral, "sfft", RecordingFFT(copies=True))
        assert same_bits(rs.synthesize(u, grid, real=real), values)
        assert same_bits(rs.analyze(values, lat).coeffs, coeffs)


def kernel_fields(lat, rng):
    """A Hermitian field, a general complex one, the Hermitian one nudged
    off symmetry at one mode, and one holding a NaN."""
    real = random_real(lat, rng)
    cplx = rs.FourierField(lat, rng.standard_normal(lat.field_shape)
                           + 1j * rng.standard_normal(lat.field_shape))
    nudged = real.copy()
    nudged.coeffs.flat[rng.integers(nudged.coeffs.size)] += 1e-9j
    nan = cplx.copy()
    nan.coeffs.flat[rng.integers(nan.coeffs.size)] = complex(np.nan, 1.0)
    return real, cplx, nudged, nan


def outcome_of(fn, *args):
    """fn's value, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (FloatingPointError, NormOverflowError) as exc:
        return type(exc)


class TestKernelBits:
    """The kernels that make fewer passes hold the bits of their plain forms
    in ``reference``: real and complex fields, n = 1 and 2, d = 1..3, torus
    and spatial lattices."""

    LATTICES = TestTransformBits.LATTICES

    @pytest.mark.parametrize("name", sorted(LATTICES))
    def test_hermitian_defect_scans_half_the_lattice(self, name, rng):
        for f in kernel_fields(self.LATTICES[name], rng):
            assert np.array_equal(f.hermitian_defect(), reference.hermitian_defect(f),
                                  equal_nan=True)

    @pytest.mark.parametrize("name", sorted(LATTICES))
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_directional_derivative_on_one_column(self, name, order, rng):
        for f in kernel_fields(self.LATTICES[name], rng):
            assert np.array_equal(rs.directional_derivative(f, order).coeffs,
                                  reference.directional_derivative(f, order).coeffs,
                                  equal_nan=True)

    @pytest.mark.parametrize("name", sorted(LATTICES))
    def test_lattice_arrays_match_meshgrid_references(self, name, rng):
        """The broadcast-sum lattice arrays and point evaluation hold the
        bits of their meshgrid and zeros-then-add forms."""
        lat = self.LATTICES[name]
        kdw = np.broadcast_to(lat.k_dot_omega(), lat.mode_shape)
        pairs = [(kdw, reference.full_k_dot_omega(lat)),
                 (lat.sorted_k_dot_omega(), reference.sorted_k_dot_omega(lat)),
                 (lat.k_l1(), reference.k_l1(lat)),
                 (lat.k_sq(), reference.k_sq(lat))]
        x = -0.9 if lat.has_space else None
        for f in kernel_fields(lat, rng)[:2]:
            for theta in [(0.0,) * lat.d, tuple(0.3 - 0.7 * i for i in range(lat.d))]:
                pairs.append((evaluate_at(f, theta, x), reference.evaluate_at(f, theta, x)))
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, K", [(1, 6), (2, 5), (3, 3), (2, 48)])
    def test_k_dot_omega_is_one_column_on_a_spatial_lattice(self, d, K):
        """k.omega does not depend on j: a spatial lattice holds it at
        length 1 along j, 97^2 floats and not 97^3 at d = 2, K = J = 48."""
        lat = rs.SpectralLattice(d=d, K=K, omega=(1.0, math.sqrt(2), math.pi)[:d],
                                 has_space=True, J=K)
        assert lat.k_dot_omega().shape == (2 * K + 1,) * d + (1,)
        assert lat.k_dot_omega().nbytes == 8 * (2 * K + 1) ** d
        assert not hasattr(lat, "k_dot_omega_column")

    @pytest.mark.parametrize("name", sorted(LATTICES))
    @pytest.mark.parametrize("spec", [L2, NormSpec(0.5, 0.0), NormSpec(0.3, 1.5)],
                             ids=["L2", "rho", "rho-m"])
    def test_norm_in_place(self, name, spec, rng):
        lat = self.LATTICES[name]
        real, cplx, _, nan = kernel_fields(lat, rng)
        peak = real.copy()
        peak.coeffs.flat[0] = _SQUARE_SAFE     # the rescaled path by one mode
        fields = [real, cplx, nan, peak, rs.FourierField.zeros(lat),
                  1e-170 * real, 1e-320 * cplx, 2.0 * _SQUARE_SAFE * cplx,
                  rs.FourierField(lat, np.full(lat.field_shape, 1e308 + 0j))]
        outcomes = []
        for f in fields:
            got, want = outcome_of(rs.norm, f, spec), outcome_of(reference.norm, f, spec)
            assert type(got) is type(want) and got == want
            outcomes.append(got)
        # NaN, overflow and all-zero squares all reached
        assert {FloatingPointError, NormOverflowError, 0.0} <= set(outcomes)


class TestProduct:
    def test_single_mode_shift(self, lat1d):
        u = single_mode(lat1d, (1,))
        p = rs.product(u, u, False)
        assert_allclose(mode_coefficient(p, (2,))[0], 1.0 + 0j, atol=1e-14)
        total = np.sum(np.abs(p.coeffs))
        assert_allclose(total, 1.0, atol=1e-13)

    def test_binomial(self):
        lat = rs.SpectralLattice(d=1, K=4, omega=(1.0,))
        u = rs.FourierField.from_modes(
            lat, {(0,): np.array([1.0 + 0j]), (1,): np.array([1.0 + 0j])}
        )
        p = rs.product(u, u, False)
        assert_allclose(mode_coefficient(p, (0,))[0], 1.0, atol=1e-14)
        assert_allclose(mode_coefficient(p, (1,))[0], 2.0, atol=1e-14)
        assert_allclose(mode_coefficient(p, (2,))[0], 1.0, atol=1e-14)

    def test_matches_padded_grid_oracle(self, rng):
        lat = rs.SpectralLattice(d=1, K=8, omega=(1.0,))
        u = random_real(lat, rng)
        v = random_real(lat, rng)
        p = rs.product(u, v, True)
        # independent oracle: pointwise product on a 2x zero-padded grid
        grid = (2 * (2 * lat.K + 1),)
        oracle = rs.analyze(rs.synthesize(u, grid) * rs.synthesize(v, grid), lat)
        assert np.max(np.abs(p.coeffs - oracle.coeffs)) <= 1e-10

    def test_lattice_mismatch(self, lat1d, lat2d, rng):
        u = random_real(lat1d, rng)
        v = random_real(lat2d, rng)
        with pytest.raises(rs.spectral.LatticeMismatchError):
            rs.product(u, v, True)

    def test_hermitian_preserved(self, lat2d, rng):
        u = random_real(lat2d, rng)
        v = random_real(lat2d, rng)
        assert rs.product(u, v, True).hermitian_defect() <= 1e-12


class TestCompose:
    def test_square_of_constant(self):
        lat = rs.SpectralLattice(d=1, K=4, omega=(1.0,))
        u = single_mode(lat, (0,), 0.7 + 0j)
        g = rs.NonlinearitySpec.polynomial([(0.0, 0.0, 1.0)])
        c = rs.compose(u, g, True)
        assert_allclose(mode_coefficient(c, (0,))[0], 0.49, atol=1e-14)

    def test_cubic_trig_identity(self, lat1d):
        u = rs.FourierField.from_modes(
            lat1d, {(1,): np.array([0.5 + 0j]), (-1,): np.array([0.5 + 0j])}
        )
        c = rs.compose(u, rs.NonlinearitySpec.cubic(1.0), True)
        # cos^3 = (3/4) cos + (1/4) cos 3theta
        assert_allclose(mode_coefficient(c, (1,))[0], 0.375, atol=1e-14)
        assert_allclose(mode_coefficient(c, (3,))[0], 0.125, atol=1e-14)
        assert_allclose(mode_coefficient(c, (0,))[0], 0.0, atol=1e-14)

    def test_piecewise_matches_per_node_oracle(self, rng):
        lat = rs.SpectralLattice(d=1, K=4, omega=(1.0,))
        u = random_real(lat, rng)
        g = rs.NonlinearitySpec(
            kind="piecewise_linear", breakpoints=(0.0,), slopes=(-0.3, 0.05),
            lip_hat=0.3, smallness="global",
        )
        c = rs.compose(u, g, True)
        grid = _composition_grid(lat, g, True)
        assert grid == (36,)
        vals = rs.synthesize(u, grid)[..., 0].real
        direct = np.where(vals > 0, 0.05 * vals, -0.3 * vals)
        oracle = rs.analyze(direct[:, None].astype(complex), lat)
        assert np.max(np.abs(c.coeffs - oracle.coeffs)) <= 1e-14

    def test_piecewise_left_continuous_at_break(self):
        g = rs.NonlinearitySpec.piecewise([0.0], [-1.0, 1.0])
        # x = 0 evaluates on the left segment; the value is still 0 there
        assert g(np.array([0.0]))[0] == 0.0
        assert g(np.array([-2.0]))[0] == 2.0
        assert g(np.array([3.0]))[0] == 3.0

    @pytest.mark.parametrize("breakpoints, slopes", [
        ((), (0.7,)),
        ((0.0,), (-1.0, 1.0)),
        ((-0.004, 0.003), (0.2, -0.05, 0.1)),
        ((-1.5, -0.25, 0.5, 2.0), (0.3, -0.7, 1.1, 0.0, -2.5)),
    ])
    def test_piecewise_evaluation_has_the_reference_bits(self, rng, breakpoints, slopes):
        # the knot table built once against the loop that rebuilt it per
        # call: random values, the breakpoints themselves and signed zeros
        g = rs.NonlinearitySpec.piecewise(breakpoints, slopes)
        values = np.concatenate([rng.uniform(-3.0, 3.0, 64), rng.normal(0.0, 1e-3, 16),
                                 breakpoints, np.nextafter(breakpoints, np.inf),
                                 np.nextafter(breakpoints, -np.inf), [0.0, -0.0]])
        for x in (values, values[:, None], values[:80].reshape(2, -1, 1)):
            got, ref = g(x), piecewise_reference(g, x)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_nonfinite_rejected(self, lat1d, rng):
        u = random_real(lat1d, rng)
        g = rs.NonlinearitySpec(kind="callable", fn=lambda x: np.full_like(x, np.nan))
        with pytest.raises(FloatingPointError):
            rs.compose(u, g, True)

    def test_locally_small_map_requires_flat_origin(self):
        with pytest.raises(ValueError):
            rs.NonlinearitySpec.polynomial([(0.0, 1.0)], smallness="local")

    def test_hermitian_preserved(self, lat2d, rng):
        u = random_real(lat2d, rng)
        c = rs.compose(u, rs.NonlinearitySpec.cubic(0.3, n=lat2d.n), True)
        assert c.hermitian_defect() <= 1e-12

    @pytest.mark.parametrize("length", [0, 1, 3, 4])
    @pytest.mark.parametrize("n", [1, 2])
    def test_polynomial_evaluation_has_the_reference_bits(self, rng, length, n):
        # signed zeros among the coefficients and the values, and values
        # whose products overflow or are not finite; against Horner from a
        # zero accumulator and the out-of-place form of the same operations
        coefficients = [0.0, -0.0, 1.0, -2.0, 0.3]
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.25, 1e-300, 1e300,
                           np.inf, np.nan])
        for _ in range(20):
            rows = [tuple(rng.choice(coefficients, length)) for _ in range(n)]
            g = rs.NonlinearitySpec.polynomial(rows, smallness="global")
            real = rng.choice(values, (6, n))
            cplx = real.astype(complex)
            cplx.imag = rng.choice(values, (6, n))
            for x in (real, cplx):
                with np.errstate(all="ignore"):
                    got = g(x)
                    refs = polynomial_reference(g, x), horner_reference(g, x)
                for ref in refs:
                    assert got.dtype == ref.dtype and got.shape == ref.shape
                    assert np.array_equal(got, ref, equal_nan=True)
                    for part in (np.real, np.imag):
                        assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))
            # the one-point form on Python floats, one real row at a time
            for row in real:
                got = g.point(row.tolist())
                with np.errstate(all="ignore"):
                    ref = polynomial_reference(g, row[None])[0]
                assert all(type(v) is float for v in got)
                assert np.array_equal(got, ref, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("g", [
        rs.NonlinearitySpec.zero(),
        rs.NonlinearitySpec.piecewise([-0.5, 0.25], [0.1, -0.2, 0.3]),
        rs.NonlinearitySpec(kind="callable", fn=lambda x: np.sin(x) * x[..., ::-1],
                            lip_hat=1.0, smallness="global"),
    ], ids=["zero", "piecewise_linear", "callable"])
    def test_point_of_other_kinds_is_the_array_call(self, g):
        x = np.array([0.7, -1.3])
        got = g.point(x.tolist())
        assert isinstance(got, list)
        assert np.array_equal(got, g(x[None])[0])


class TestDerivatives:
    def test_directional_single_mode(self):
        lat = rs.SpectralLattice(d=2, K=2, omega=(1.0, math.sqrt(2)))
        u = single_mode(lat, (1, 0))
        d = rs.directional_derivative(u)
        assert_allclose(mode_coefficient(d, (1, 0))[0], 1j, atol=1e-15)

    def test_directional_squared(self):
        lat = rs.SpectralLattice(d=2, K=2, omega=(1.0, math.sqrt(2)))
        u = single_mode(lat, (1, 1))
        d2 = rs.directional_derivative(u, 2)
        assert_allclose(
            mode_coefficient(d2, (1, 1))[0], -((1 + math.sqrt(2)) ** 2), rtol=1e-14
        )

    def test_spatial_second(self, pde_lattice):
        u = single_mode(pde_lattice, (0, 0, 1))
        d = rs.spatial_derivative(u, 2)
        assert_allclose(mode_coefficient(d, (0, 0, 1))[0], -1.0, atol=1e-15)

    def test_preserves_hermitian(self, lat2d, rng):
        u = random_real(lat2d, rng)
        assert rs.directional_derivative(u).hermitian_defect() <= 1e-12


class TestPdeFieldStructure:
    def test_zero_average_slab_preserved(self, pde_lattice, rng):
        u = random_real(pde_lattice, rng)
        assert np.max(np.abs(u.space_average_slice())) == 0.0
        p = rs.product(u, u, True)
        d = rs.spatial_derivative(p, 2)
        assert np.max(np.abs(d.space_average_slice())) <= 1e-14

    def test_dealias_grid_shapes(self, pde_lattice):
        grid = dealias_grid(pde_lattice, 2, True)
        assert all(g >= 3 * 8 + 1 for g in grid)


class TestCauchyDecayFit:
    def test_exact_exponential(self):
        lat = rs.SpectralLattice(d=1, K=16, omega=(1.0,))
        coeffs = np.exp(-0.7 * lat.k_l1())[..., None].astype(complex)
        f = rs.FourierField(lat, coeffs)
        M, rho = cauchy_decay_fit(f)
        assert abs(rho - 0.7) <= 1e-6
        assert abs(M - 1.0) <= 1e-6

    def test_white_coefficients_flat(self, rng):
        lat = rs.SpectralLattice(d=1, K=16, omega=(1.0,))
        phases = np.exp(2j * np.pi * rng.uniform(size=lat.field_shape))
        f = rs.FourierField(lat, phases)
        _, rho = cauchy_decay_fit(f)
        assert abs(rho) <= 0.05

    def test_needs_three_modes(self, lat1d):
        f = single_mode(lat1d, (1,))
        with pytest.raises(ValueError):
            cauchy_decay_fit(f)


class TestHigherDimensionalLattices:
    def test_d3_norm_and_product(self, rng):
        lat = rs.SpectralLattice(d=3, K=3, omega=(1.0, math.sqrt(2), math.sqrt(3)))
        u = random_real(lat, rng)
        v = random_real(lat, rng)
        p = rs.product(u, v, True)
        assert p.hermitian_defect() <= 1e-12
        grid = (2 * (2 * lat.K + 1),) * 3
        oracle = rs.analyze(rs.synthesize(u, grid) * rs.synthesize(v, grid), lat)
        assert np.max(np.abs(p.coeffs - oracle.coeffs)) <= 1e-10

    def test_d3_derivative_multiplier(self):
        lat = rs.SpectralLattice(d=3, K=2, omega=(1.0, math.sqrt(2), math.sqrt(3)))
        u = single_mode(lat, (1, 1, 1))
        d = rs.directional_derivative(u)
        w = 1 + math.sqrt(2) + math.sqrt(3)
        assert_allclose(mode_coefficient(d, (1, 1, 1))[0], 1j * w, rtol=1e-14)

    def test_scalar_coefficient_convenience(self):
        lat = rs.SpectralLattice(d=1, K=2, omega=(1.0,))
        f = rs.FourierField.from_modes(lat, {(1,): 0.5 + 0j})
        assert mode_coefficient(f, (1,))[0] == 0.5

    def test_scalar_coefficient_rejected_for_vector_fields(self):
        lat = rs.SpectralLattice(d=1, K=2, omega=(1.0,), n=2)
        with pytest.raises(ValueError):
            rs.FourierField.from_modes(lat, {(1,): 0.5 + 0j})


class TestAliasingDiagnostics:
    def test_polynomial_composition_is_alias_free(self, lat1d, rng):
        u = random_real(lat1d, rng, amplitude=0.5)
        est = rs.spectral.composition_aliasing_estimate(
            u, rs.NonlinearitySpec.cubic(1.0), True
        )
        assert est <= 1e-13

    def test_piecewise_reports_residual_aliasing(self, lat1d, rng):
        u = random_real(lat1d, rng, amplitude=0.5)
        g = rs.NonlinearitySpec.piecewise([0.0], [-1.0, 1.0])
        est = rs.spectral.composition_aliasing_estimate(u, g, True)
        assert est > 0.0   # kinks alias; the residual is reported, not hidden

    def test_truncation_tail_smaller_for_decaying_field(self, lat1d, rng):
        u = random_real(lat1d, rng, decay=1.0)
        spec = rs.NormSpec(0.0, 0.0)
        tail = rs.spectral.truncation_tail_norm(u, spec)
        assert 0.0 <= tail < rs.norm(u, spec)

    @pytest.mark.parametrize("lat", [
        rs.SpectralLattice(d=1, K=16, omega=(1.0,)),
        rs.SpectralLattice(d=2, K=6, omega=(1.0, math.sqrt(2.0)), n=2),
        rs.SpectralLattice(d=2, K=8, omega=(1.0, math.sqrt(2.0)), has_space=True, J=8),
    ], ids=["d1", "d2-n2", "d2-space"])
    def test_roundoff_floor_is_eps_times_the_l1_sum(self, lat, rng):
        u = random_real(lat, rng, decay=0.5)
        floor = rs.spectral.roundoff_floor(u)
        assert floor == pytest.approx(reference.reference_roundoff_floor(u), rel=1e-15)
        assert floor > 0.0

    @pytest.mark.filterwarnings("error")
    def test_roundoff_floor_of_an_overflowing_sum_is_inf(self, lat1d):
        u = rs.FourierField(lat1d, np.full(lat1d.field_shape, 1e307 + 0j))
        assert rs.spectral.roundoff_floor(u) == math.inf


class TestHsNorm:
    def test_matches_integer_normspec(self, lat2d, rng):
        u = random_real(lat2d, rng)
        assert_allclose(hs_norm(u, 1.0), rs.norm(u, rs.NormSpec(0.0, 1)), rtol=1e-14)

    def test_s_zero_is_l2(self, lat2d, rng):
        u = random_real(lat2d, rng)
        l2 = math.sqrt(float(np.sum(np.abs(u.coeffs) ** 2)))
        assert_allclose(hs_norm(u, 0.0), l2, rtol=1e-14)

