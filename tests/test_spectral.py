import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy import fft as sfft

import response_solver as rs
from response_solver.spectral import (
    FFT_WORKERS,
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
        u = rs.FourierField.random_real(lat2d, rng)
        v = rs.FourierField.random_real(lat2d, rng)
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
    def test_nan_coefficients_raise(self, lat2d, rng):
        nan = rs.FourierField(lat2d, np.full(lat2d.field_shape, np.nan + 0j))
        with pytest.raises(FloatingPointError):
            rs.norm(nan, rs.NormSpec())
        one_nan = rs.FourierField.random_real(lat2d, rng)
        one_nan.coeffs[1, 2, 0] = complex(np.nan, 0.0)
        with pytest.raises(FloatingPointError):
            rs.norm(one_nan, rs.NormSpec(0.2, 1))

    def test_pde_weight_uses_k_and_j(self, pde_lattice):
        f = single_mode(pde_lattice, (1, 0, 2))
        got = rs.norm(f, rs.NormSpec(0.5, 1))
        expect = math.sqrt(math.exp(2 * 0.5 * 3) * (1 + 4 + 1))
        assert_allclose(got, expect, rtol=1e-14)


class TestTransforms:
    def test_round_trip_identity(self, lat2d, rng):
        u = rs.FourierField.random_real(lat2d, rng)
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
        u = rs.FourierField.random_real(lat2d, rng)
        n = 2 * lat2d.K + 1
        a = rs.analyze(rs.synthesize(u, (n, n)), lat2d)
        b = rs.analyze(rs.synthesize(u, (2 * n, 2 * n)), lat2d)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * u.max_abs()

    def test_grid_too_small(self, lat2d, rng):
        u = rs.FourierField.random_real(lat2d, rng)
        with pytest.raises(GridTooSmallError):
            rs.synthesize(u, (2 * lat2d.K, 2 * lat2d.K + 1))

    def test_pointwise_evaluation(self, lat1d):
        u = single_mode(lat1d, (3,), 2.0 + 0j)
        theta = 0.37
        assert_allclose(evaluate_at(u, (theta,))[0], 2.0 * np.exp(3j * theta),
                        rtol=1e-14)


class TestTransformBits:
    """synthesize and analyze give the bits of scipy's one-call transforms:
    irfftn, ifftn times N and fftn over N."""

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
    }
    # the lattice's own size per axis: the two bin blocks of an axis meet
    GRIDS = [default_grid, dealias_grid,
             lambda lat: tuple(2 * cut + 1 for cut in lat.cutoffs)]
    GRID_IDS = ["default", "dealias", "tight"]

    @pytest.mark.parametrize("name", sorted(LATTICES))
    @pytest.mark.parametrize("grid_of", GRIDS, ids=GRID_IDS)
    def test_real_path(self, name, grid_of, rng):
        lat = self.LATTICES[name]
        grid = grid_of(lat)
        axes = tuple(range(lat.n_axes))
        u = rs.FourierField.random_real(lat, rng)
        values = rs.synthesize(u, grid, real=True)
        assert np.array_equal(values, sfft.irfftn(padded(u, grid), s=grid, axes=axes,
                                                  norm="forward", workers=FFT_WORKERS))
        spec = sfft.rfftn(values, axes=axes, norm="forward", workers=FFT_WORKERS)
        cut = lat.cutoffs[-1]
        # the j >= 0 half is rfftn's; the rest is its conjugate mirror
        assert np.array_equal(rs.analyze(values, lat).coeffs[..., cut:, :],
                              spec[fft_bins(lat, grid, half=True)])

    @pytest.mark.parametrize("name", sorted(LATTICES))
    @pytest.mark.parametrize("grid_of", GRIDS, ids=GRID_IDS)
    def test_complex_path(self, name, grid_of, rng):
        lat = self.LATTICES[name]
        grid = grid_of(lat)
        axes = tuple(range(lat.n_axes))
        u = rs.FourierField(lat, rng.standard_normal(lat.field_shape)
                            + 1j * rng.standard_normal(lat.field_shape))
        values = rs.synthesize(u, grid)
        assert np.array_equal(values, sfft.ifftn(padded(u, grid), axes=axes,
                                                 workers=FFT_WORKERS) * np.prod(grid))
        spec = sfft.fftn(values, axes=axes, workers=FFT_WORKERS) / np.prod(grid)
        assert np.array_equal(rs.analyze(values, lat).coeffs,
                              spec[fft_bins(lat, grid)])


def kernel_fields(lat, rng):
    """A Hermitian field, a general complex one, the Hermitian one nudged
    off symmetry at one mode, and one holding a NaN."""
    real = rs.FourierField.random_real(lat, rng)
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
        u = rs.FourierField.random_real(lat, rng)
        v = rs.FourierField.random_real(lat, rng)
        p = rs.product(u, v, True)
        # independent oracle: pointwise product on a 2x zero-padded grid
        grid = (2 * (2 * lat.K + 1),)
        oracle = rs.analyze(rs.synthesize(u, grid) * rs.synthesize(v, grid), lat)
        assert np.max(np.abs(p.coeffs - oracle.coeffs)) <= 1e-10

    def test_lattice_mismatch(self, lat1d, lat2d, rng):
        u = rs.FourierField.random_real(lat1d, rng)
        v = rs.FourierField.random_real(lat2d, rng)
        with pytest.raises(rs.spectral.LatticeMismatchError):
            rs.product(u, v, True)

    def test_hermitian_preserved(self, lat2d, rng):
        u = rs.FourierField.random_real(lat2d, rng)
        v = rs.FourierField.random_real(lat2d, rng)
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
        u = rs.FourierField.random_real(lat, rng)
        g = rs.NonlinearitySpec(
            kind="piecewise_linear", breakpoints=(0.0,), slopes=(-0.3, 0.05),
            lip_hat=0.3, smallness="global",
        )
        c = rs.compose(u, g, True)
        grid = _composition_grid(lat, g)
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
        u = rs.FourierField.random_real(lat1d, rng)
        g = rs.NonlinearitySpec(kind="callable", fn=lambda x: np.full_like(x, np.nan))
        with pytest.raises(FloatingPointError):
            rs.compose(u, g, True)

    def test_locally_small_map_requires_flat_origin(self):
        with pytest.raises(ValueError):
            rs.NonlinearitySpec.polynomial([(0.0, 1.0)], smallness="local")

    def test_hermitian_preserved(self, lat2d, rng):
        u = rs.FourierField.random_real(lat2d, rng)
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
        u = rs.FourierField.random_real(lat2d, rng)
        assert rs.directional_derivative(u).hermitian_defect() <= 1e-12


class TestPdeFieldStructure:
    def test_zero_average_slab_preserved(self, pde_lattice, rng):
        u = rs.FourierField.random_real(pde_lattice, rng)
        assert np.max(np.abs(u.space_average_slice())) == 0.0
        p = rs.product(u, u, True)
        d = rs.spatial_derivative(p, 2)
        assert np.max(np.abs(d.space_average_slice())) <= 1e-14

    def test_dealias_grid_shapes(self, pde_lattice):
        grid = dealias_grid(pde_lattice, degree=2)
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
        u = rs.FourierField.random_real(lat, rng)
        v = rs.FourierField.random_real(lat, rng)
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
        u = rs.FourierField.random_real(lat1d, rng, amplitude=0.5)
        est = rs.spectral.composition_aliasing_estimate(
            u, rs.NonlinearitySpec.cubic(1.0), True
        )
        assert est <= 1e-13

    def test_piecewise_reports_residual_aliasing(self, lat1d, rng):
        u = rs.FourierField.random_real(lat1d, rng, amplitude=0.5)
        g = rs.NonlinearitySpec.piecewise([0.0], [-1.0, 1.0])
        est = rs.spectral.composition_aliasing_estimate(u, g, True)
        assert est > 0.0   # kinks alias; the residual is reported, not hidden

    def test_truncation_tail_smaller_for_decaying_field(self, lat1d, rng):
        u = rs.FourierField.random_real(lat1d, rng, decay=1.0)
        spec = rs.NormSpec(0.0, 0.0)
        tail = rs.spectral.truncation_tail_norm(u, spec)
        assert 0.0 <= tail < rs.norm(u, spec)


class TestHsNorm:
    def test_matches_integer_normspec(self, lat2d, rng):
        u = rs.FourierField.random_real(lat2d, rng)
        assert_allclose(hs_norm(u, 1.0), rs.norm(u, rs.NormSpec(0.0, 1)), rtol=1e-14)

    def test_s_zero_is_l2(self, lat2d, rng):
        u = rs.FourierField.random_real(lat2d, rng)
        l2 = math.sqrt(float(np.sum(np.abs(u.coeffs) ** 2)))
        assert_allclose(hs_norm(u, 0.0), l2, rtol=1e-14)
