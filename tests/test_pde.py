import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import response_solver as rs
from response_solver import pde as pde_mod
from response_solver.multipliers import imaginary_root_blowup, is_real_eps
from response_solver.pde import (
    BetaRejectedError,
    PdeProblem,
    apply_n_forward,
    check_beta,
    imaginary_axis_blowup,
    manufactured_forcing,
    pde_certification_scan,
)
from response_solver.verification import newton_oracle_pde, restrict_field

from conftest import manufactured_pde, peak_rise
from reference import mode_coefficient, pde_residual_field, random_real


def certification_lattice(J):
    """A small lattice with J spatial modes: the certified supremum reads
    only J from it."""
    return rs.SpectralLattice(d=2, K=2, omega=(1.0, math.sqrt(2.0)), has_space=True, J=J)


def spatial_mode(lat, k, value=1.0 + 0j):
    vec = np.zeros(lat.n, dtype=complex)
    vec[0] = value
    return rs.FourierField.from_modes(lat, {tuple(k): vec})


class TestBetaCheck:
    def test_quarter_rejected(self):
        chk = check_beta(0.25)
        assert not chk.accepted
        assert chk.offending_integer == 2

    def test_two_accepted(self):
        assert check_beta(2.0).accepted

    def test_near_resonant_reported(self):
        beta = 1.0 / 9.000000001
        chk = check_beta(beta, J=16)
        assert chk.accepted
        assert chk.argmin_j == 3
        assert chk.min_symbol < 1e-8

    def test_problem_construction_rejects(self, pde_lattice):
        with pytest.raises(BetaRejectedError):
            PdeProblem(lattice=pde_lattice, beta=0.25,
                       forcing=rs.FourierField.zeros(pde_lattice))


class TestMultiplier:
    def test_zero_frequency_closed_form(self):
        # the mode symbol is the oscillator divisor at lambda_j = j^2 - beta j^4;
        # a = 0, j = 1, beta = 2: symbol -eps, scaled inverse -1
        eps, j, beta = 0.02, 1, 2.0
        assert rs.l_eps(eps, j ** 2 - beta * j ** 4, 0.0) == -eps

    def test_j_two(self):
        eps, j, beta = 0.37, 2, 2.0
        assert_allclose(rs.l_eps(eps, j ** 2 - beta * j ** 4, 0.0), -28 * eps,
                        rtol=1e-15)

    def test_apply_inverse_single_spatial_mode(self, pde_lattice):
        prob = PdeProblem(lattice=pde_lattice, beta=2.0,
                          forcing=rs.FourierField.zeros(pde_lattice))
        V = spatial_mode(pde_lattice, (0, 0, 1))
        out = rs.apply_n_inverse(0.02, prob, V)
        assert_allclose(mode_coefficient(out, (0, 0, 1))[0], -1.0, rtol=1e-14)

    def test_apply_inverse_zero(self, pde_lattice):
        prob = PdeProblem(lattice=pde_lattice, beta=2.0,
                          forcing=rs.FourierField.zeros(pde_lattice))
        out = rs.apply_n_inverse(0.02, prob, rs.FourierField.zeros(pde_lattice))
        assert out.max_abs() == 0.0

    def test_smoothing_inequality_definition_exact(self, pde_lattice, rng):
        prob = PdeProblem(lattice=pde_lattice, beta=2.0,
                          forcing=rs.FourierField.zeros(pde_lattice))
        eps = 0.02 + 0.0001j
        _, rep = rs.solve_fixed_point(eps, prob, rs.SolverConfig())
        c_emp = rep.diagnostics["c_emp_smoothing"]
        # oracle: modewise supremum recomputed from first principles
        lat = pde_lattice
        a = lat.k_dot_omega()
        j = lat.axis_modes(lat.d).astype(float)
        shape = [1] * lat.n_axes
        shape[lat.d] = 2 * lat.J + 1
        sym = np.abs(-eps * a ** 2 + 1j * a
                     - eps * (2.0 * j ** 4 - j ** 2).reshape(shape))
        sym[(slice(None),) * lat.d + (lat.J,)] = np.inf
        w = (lat.k_sq() + 1.0)
        mags = np.abs(eps) / sym * w
        assert_allclose(c_emp, float(np.max(mags)), rtol=1e-12)
        spec_hi = rs.NormSpec(0.2, 3)
        spec_lo = rs.NormSpec(0.2, 1)
        for _ in range(20):
            V = random_real(lat, rng)
            out = rs.apply_n_inverse(eps, prob, V)
            assert rs.norm(out, spec_hi) <= c_emp * rs.norm(V, spec_lo) * (1 + 1e-12)

    def test_zero_slab_enforced(self, pde_lattice, rng):
        prob = PdeProblem(lattice=pde_lattice, beta=2.0,
                          forcing=rs.FourierField.zeros(pde_lattice))
        V = random_real(pde_lattice, rng)
        out = rs.apply_n_inverse(0.02, prob, V)
        assert np.max(np.abs(out.space_average_slice())) == 0.0


class TestNonlinearity:
    def test_single_exponential(self, pde_lattice):
        U = spatial_mode(pde_lattice, (0, 0, 1))
        h = rs.boussinesq_nonlinearity(U, False)
        assert_allclose(mode_coefficient(h, (0, 0, 2))[0], -4.0, atol=1e-13)

    def test_cos_x(self, pde_lattice):
        U = rs.FourierField.from_modes(pde_lattice, {
            (0, 0, 1): np.array([0.5 + 0j]), (0, 0, -1): np.array([0.5 + 0j]),
        })
        h = rs.boussinesq_nonlinearity(U, True)
        # (cos^2 x)_xx = -2 cos 2x
        assert_allclose(mode_coefficient(h, (0, 0, 2))[0], -1.0, atol=1e-13)
        assert_allclose(mode_coefficient(h, (0, 0, 0))[0], 0.0, atol=1e-15)

    def test_matches_grid_oracle(self, rng):
        lat = rs.SpectralLattice(d=1, K=16, omega=(1.0,), has_space=True, J=16)
        U = random_real(lat, rng)
        h = rs.boussinesq_nonlinearity(U, True)
        # oracle: 2x-padded grid square, then spectral second derivative
        grid = (4 * lat.K + 2, 4 * lat.J + 2)
        vals = rs.synthesize(U, grid)
        sq = rs.analyze(vals * vals, lat)
        oracle = rs.spatial_derivative(sq, 2)
        assert np.max(np.abs(h.coeffs - oracle.coeffs)) <= 1e-10

    def test_kills_spatial_average(self, pde_lattice, rng):
        U = random_real(pde_lattice, rng)
        h = rs.boussinesq_nonlinearity(U, True)
        assert np.max(np.abs(h.space_average_slice())) <= 1e-14


class TestFixedPoint:
    def test_linear_manufactured_recovered_in_one_step(self):
        prob, W, eps = manufactured_pde(K=6, nonlinear=False)
        U, rep = rs.pde_solve_fixed_point(eps, prob, rs.SolverConfig(tol=1e-13))
        assert rep.status == "converged"
        assert rep.iterations <= 2
        assert np.max(np.abs(U.coeffs - W.coeffs)) <= 1e-14

    def test_nonlinear_manufactured_solution(self):
        prob, W, eps = manufactured_pde(K=8)
        U, rep = rs.pde_solve_fixed_point(eps, prob, rs.SolverConfig(tol=1e-12))
        assert rep.status == "converged"
        assert np.max(np.abs(U.coeffs - W.coeffs)) <= 1e-9
        assert all(r < 1.0 for r in rep.ratios)

    def test_manufactured_residual_tiny(self):
        prob, W, eps = manufactured_pde(K=8)
        assert rs.pde_residual(W, eps, prob) <= 1e-12

    def test_zero_field_residual_is_eps_norm_f(self):
        prob, W, eps = manufactured_pde(K=6)
        U0 = rs.FourierField.zeros(prob.lattice)
        assert_allclose(rs.pde_residual(U0, eps, prob),
                        eps * rs.norm(prob.forcing, rs.NormSpec()), rtol=1e-13)

    @pytest.mark.parametrize("nonlinear", [True, False])
    @pytest.mark.parametrize("eps", [0.02, 0.02 + 0.002j, -0.01 + 0.03j])
    def test_residual_is_the_fresh_field_expression(self, monkeypatch, rng, nonlinear, eps):
        """The field whose norm the residual takes has the bits of the
        equation written over fresh fields, off the k2 = 0 sublattice too."""
        prob, _, _ = manufactured_pde(K=6, nonlinear=nonlinear, second=0.006)
        U = random_real(prob.lattice, rng, amplitude=1e-3)
        fields = []
        monkeypatch.setattr(pde_mod, "norm", lambda f, spec: fields.append(f) or 0.0)
        pde_mod.pde_residual(U, eps, prob)
        want = pde_residual_field(U, eps, prob)
        assert fields[0].coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("eps", [0.02, 0.02 + 0.002j])
    def test_residual_holds_no_lattice_array_through_the_product(self, eps):
        """At K = J = 8 the residual's peak is the padded product's own: it
        holds no lattice array through it, and builds the linear part in two
        arrays (the ufuncs' broadcast buffers add a fraction of one).  The
        equation over fresh fields peaked at seven fields."""
        prob, W, _ = manufactured_pde(K=8)
        field = 16 * math.prod(prob.lattice.field_shape)
        rs.pde_residual(W, eps, prob)
        rise = peak_rise(rs.pde_residual, W, eps, prob)
        assert rise <= peak_rise(rs.product, W, W, is_real_eps(eps)) + field / 4
        linear = PdeProblem(lattice=prob.lattice, beta=prob.beta, forcing=prob.forcing,
                            nonlinear=False)
        assert peak_rise(rs.pde_residual, W, eps, linear) < 3.5 * field

    def test_refinement_stability_on_doubling(self):
        prob8, W8, eps = manufactured_pde(K=8)
        prob16, W16, _ = manufactured_pde(K=16)
        U8, _ = rs.pde_solve_fixed_point(eps, prob8, rs.SolverConfig(tol=1e-12))
        U16, _ = rs.pde_solve_fixed_point(eps, prob16, rs.SolverConfig(tol=1e-12))
        diff = restrict_field(U16, U8.lattice) - U8
        assert np.max(np.abs(diff.coeffs)) <= 1e-8

    def test_forward_inverse_round_trip(self, pde_lattice, rng):
        prob = PdeProblem(lattice=pde_lattice, beta=2.0,
                          forcing=rs.FourierField.zeros(pde_lattice))
        V = random_real(pde_lattice, rng)
        eps = 0.02
        back = apply_n_forward(eps, prob, rs.apply_n_inverse(eps, prob, V))
        assert np.max(np.abs(back.coeffs - eps * V.coeffs)) <= 1e-12

    def test_symmetry_and_average_kept_every_step(self):
        prob, W, eps = manufactured_pde(K=6)
        # the solver asserts these internally per step; a converged run
        # means every iterate passed
        U, rep = rs.pde_solve_fixed_point(eps, prob, rs.SolverConfig(tol=1e-12))
        assert rep.status == "converged"
        assert U.hermitian_defect() <= 1e-12
        assert np.max(np.abs(U.space_average_slice())) == 0.0


class TestQuasiPeriodic:
    """W = 0.01 cos(theta_1) cos(x) + 0.006 cos(theta_2) cos(2x) at eps 0.02
    excites both frequencies: the solve runs off the k2 = 0 sublattice, and
    its forcing holds the cross modes k1, k2 != 0 that W^2 makes."""

    def test_recovered_off_the_sublattice(self):
        prob, W, eps = manufactured_pde(K=32, second=0.006)
        off_axis = np.delete(np.arange(2 * 32 + 1), 32)     # k2 != 0
        cross = prob.forcing.coeffs[off_axis][:, off_axis]  # k1, k2 != 0
        assert np.max(np.abs(cross)) > 1e-6
        U, rep = rs.pde_solve_fixed_point(eps, prob, rs.SolverConfig(tol=1e-12))
        assert rep.status == "converged"
        assert np.max(np.abs(U.coeffs - W.coeffs)) <= 1e-9
        assert np.max(np.abs(U.coeffs[:, off_axis])) >= 1e-3
        assert U.hermitian_defect() <= 1e-12

    def test_newton_agrees_with_picard(self):
        prob, W, eps = manufactured_pde(K=6, second=0.006)
        U, rep = rs.pde_solve_fixed_point(eps, prob, rs.SolverConfig(tol=1e-13))
        assert rep.status == "converged"
        got = newton_oracle_pde(eps, prob, K_small=6)
        assert got.lattice == U.lattice
        assert np.max(np.abs((U - got).coeffs)) <= 1e-12
        assert np.max(np.abs((W - got).coeffs)) <= 1e-10

    @pytest.mark.parametrize("eps", [0.02, 0.02 * np.exp(0.3j)], ids=["real", "cone"])
    def test_solved_on_the_real_grid_off_the_sublattice(self, eps):
        """At K = J = 11 the real path's product grid is (35, 35, 36), not
        the complex path's (35, 35, 35).  Picard and Newton agree at a real
        and at a complex-cone eps; the forcing is W's at eps 0.02, so there
        the solve recovers W."""
        prob, W, _ = manufactured_pde(K=11, second=0.006)
        assert rs.spectral.dealias_grid(prob.lattice, 2, True) == (35, 35, 36)
        U, rep = rs.solve_fixed_point(eps, prob, rs.SolverConfig(tol=1e-13))
        assert rep.status == "converged"
        if is_real_eps(eps):
            assert np.max(np.abs((U - W).coeffs)) <= 1e-9 * W.max_abs()
        off_axis = np.delete(np.arange(2 * 11 + 1), 11)     # k2 != 0
        assert np.max(np.abs(U.coeffs[:, off_axis])) >= 1e-3
        got = newton_oracle_pde(eps, prob, K_small=11)
        assert np.max(np.abs((U - got).coeffs)) <= 1e-12 * U.max_abs()


class TestEpsilonAnalyticity:
    def test_shared_circle_probe_on_pde(self):
        # the ODE circle-probe machinery drives the PDE problem unchanged
        from response_solver.multipliers import EpsilonDomain

        prob, _, _ = manufactured_pde(K=6)
        sigma = 0.02
        dom = EpsilonDomain.cone(sigma, 5.0)
        probe = rs.analyticity_probe(1.5 * sigma, 0.2 * sigma, prob,
                                     rs.SolverConfig(tol=1e-12), domain=dom)
        assert probe.decay_ratios
        assert max(probe.decay_ratios) <= 0.5
        assert probe.cauchy_vs_fd <= 1e-6


class TestSingleAngleVariant:
    def test_d1_manufactured_solution(self):
        from response_solver.pde import manufactured_forcing

        lat = rs.SpectralLattice(d=1, K=8, omega=(1.0,), n=1, has_space=True, J=8)
        W = rs.FourierField.from_modes(lat, {
            (1, 1): np.array([0.0025 + 0j]), (1, -1): np.array([0.0025 + 0j]),
            (-1, 1): np.array([0.0025 + 0j]), (-1, -1): np.array([0.0025 + 0j]),
        })
        eps = 0.02
        template = PdeProblem(lattice=lat, beta=2.0,
                              forcing=rs.FourierField.zeros(lat))
        prob = PdeProblem(lattice=lat, beta=2.0,
                          forcing=manufactured_forcing(W, eps, template))
        U, rep = rs.pde_solve_fixed_point(eps, prob, rs.SolverConfig(tol=1e-12))
        assert rep.status == "converged"
        assert np.max(np.abs(U.coeffs - W.coeffs)) <= 1e-9


class TestSmallBetaRegion:
    # 0 < beta < 1 has low spatial modes with beta j^4 - j^2 < 0; the
    # divisor can vanish on the real a-line only through the imaginary
    # axis, so the cone constant stays finite but larger than at beta > 1

    def test_multiplier_invertible_and_bounded(self):
        beta = 0.3
        assert check_beta(beta).accepted
        for sigma in (1e-1, 1e-2):
            bound = pde_certification_scan(0.02 * sigma / 0.01, beta,
                                           certification_lattice(16))
            assert np.isfinite(bound.certified)

    def test_manufactured_solution_still_recovered(self):
        prob, W, eps = manufactured_pde(K=8, beta=0.3)
        U, rep = rs.pde_solve_fixed_point(eps, prob, rs.SolverConfig(tol=1e-12))
        assert rep.status == "converged"
        assert np.max(np.abs(U.coeffs - W.coeffs)) <= 1e-9

    def test_imaginary_axis_blows_up_too(self):
        assert imaginary_axis_blowup(0.01, 0.3, j=1) > 1e6

    def test_worst_mode_sits_where_beta_j_sq_nears_one(self):
        # at a = 0 the scan quantity is 1/|beta j^2 - 1|, maximized at the
        # integer j closest to 1/sqrt(beta); for beta = 0.3 that is j = 2
        beta = 0.3
        sup = pde_certification_scan(0.01, beta, certification_lattice(16)).certified
        closed_form = max(1.0 / abs(beta * j * j - 1.0) for j in range(1, 17))
        # the modes past j = 2 add nothing, and without j = 2 the sup drops
        assert pde_certification_scan(0.01, beta, certification_lattice(2)).certified == sup
        assert pde_certification_scan(0.01, beta, certification_lattice(1)).certified < sup
        assert sup == pytest.approx(closed_form, rel=1e-4)
        assert sup > 1.0 / (1.0 - beta)  # worse than any beta > 1 case


class TestEpsilonContinuityLadder:
    def test_solution_norm_descends_with_eps(self):
        prob, W, _ = manufactured_pde(K=6)
        norms = []
        cfg = rs.SolverConfig(tol=1e-12)
        for eps in (0.04, 0.02, 0.01, 0.005):
            U, rep = rs.pde_solve_fixed_point(eps, prob, cfg)
            assert rep.status == "converged"
            norms.append(rs.norm(U, rs.NormSpec()))
        assert all(a > b for a, b in zip(norms, norms[1:]))


class TestCertification:
    @pytest.mark.parametrize("beta", [1.05, 1.5, 2.0, 5.0])
    def test_real_eps_supremum_closed_form(self, beta):
        # at real eps and beta > 1 the supremum is max(1, 1/(beta-1)): the
        # large-|a| limit or the j = 1 value at a = 0
        for eps in (0.02, -0.02, 0.001, 0.3, 2.0):
            bound = pde_certification_scan(eps, beta, certification_lattice(16))
            assert bound.exact
            assert bound.certified == max(1.0, 1.0 / (beta - 1.0))

    def test_constant_stable_across_sigma(self):
        from response_solver.multipliers import EpsilonDomain

        values = []
        for sigma in (1e-1, 1e-2, 1e-3):
            dom = EpsilonDomain.cone(sigma, 100.0)
            values.extend(
                pde_certification_scan(e, 2.0, certification_lattice(16)).certified
                for e in dom.sample(4)
            )
        assert max(values) <= 1.2 * min(values)

    @pytest.mark.parametrize("eps", [0.015 + 0.005j,
                                     0.014999812512889614 + 7.499718768162693e-05j,
                                     0.014999250056245313 - 0.0001499925005624531j])
    def test_cone_supremum_is_the_aperture(self, eps):
        # at beta = 2 the supremum is |eps| / Re eps, reached at j = 1 where
        # Im l vanishes (a near Im eps and near 1/Im eps); an a-scan at step
        # 0.01 over |a| <= 50 gave 1.00002 at the first eps and 1 +- 7e-12
        # at the other two
        sup = pde_certification_scan(eps, 2.0, certification_lattice(32)).certified
        assert_allclose(sup, abs(eps) / eps.real, rtol=1e-13)
        assert pde_certification_scan(eps, 2.0, certification_lattice(1)).certified == sup

    def test_imaginary_axis_unbounded(self):
        assert imaginary_axis_blowup(0.01, 2.0) > 1e6


class TestImaginaryAxisSupremum:
    # at eps = i sigma the divisor is i (a - sigma a^2 - sigma c): sup |1/s|
    # is inf with a real root and 4 sigma / (4 sigma^2 c - 1) without one

    @pytest.mark.parametrize("sigma, beta, j", [
        (0.6, 2.0, 1),     # c = beta j^4 - j^2 = 1
        (0.3, 0.5, 2),     # c = 4
        (0.5, 3.0, 1),     # c = 2
    ])
    def test_no_real_root_matches_dense_scan(self, sigma, beta, j):
        a = np.linspace(-50.0, 50.0, 1_000_001)
        symbol = rs.l_eps(1j * sigma, j ** 2 - beta * j ** 4, a)
        got = imaginary_axis_blowup(sigma, beta, j)
        assert math.isfinite(got)
        assert got == pytest.approx(float(np.max(1.0 / np.abs(symbol))), rel=1e-6)

    @pytest.mark.parametrize("sigma, c", [
        (0.5, 1.0),    # 1 - 4 sigma^2 c == 0: double root at a = 1/(2 sigma)
        (0.5, 0.5),
        (0.01, -1.0),  # the oscillator at lambda = 1
        (0.01, 14.0),  # beta = 2, j = 2
    ])
    def test_inf_at_and_past_zero_discriminant(self, sigma, c):
        assert 1.0 - 4.0 * sigma * sigma * c >= 0.0
        assert imaginary_root_blowup(sigma, c) == math.inf


class TestProblemValidation:
    def test_nonzero_spatial_average_rejected(self, pde_lattice):
        bad = spatial_mode(pde_lattice, (1, 0, 0), 1.0) \
            + spatial_mode(pde_lattice, (-1, 0, 0), 1.0)
        with pytest.raises(ValueError):
            PdeProblem(lattice=pde_lattice, beta=2.0, forcing=bad)

    def test_torus_lattice_rejected(self, lat2d):
        with pytest.raises(ValueError):
            PdeProblem(lattice=lat2d, beta=2.0,
                       forcing=rs.FourierField.zeros(lat2d))
