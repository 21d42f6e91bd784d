import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import response_solver as rs
from response_solver.multipliers import (
    BOUND_RTOL,
    EpsilonDomain,
    divisor_infimum,
    gamma_bound,
    is_real_eps,
    l_eps,
    ScaledInverse,
    mode_matrices,
    operator_norms,
)
from response_solver.pde import NInverse, PdeProblem, _symbol_array

from conftest import PROBLEMS, manufactured_pde
from reference import (
    apply_forward,
    block_inverse,
    forward_block,
    from_jordan,
    jordan_mode_inverse,
    mode_solve,
    n_forward_sup,
    n_inverse_multiplier,
    pde_picard_step,
    pde_symbol,
    random_real,
    smoothing_sup,
)


class TestScalarDivisor:
    def test_a_zero_reduces_to_eps_lambda(self):
        assert l_eps(0.01, 1.0, 0.0) == 0.01

    def test_cancellation_at_a_sq_lambda(self):
        assert l_eps(0.01, 1.0, 1.0) == 1j

    def test_complex_arithmetic(self):
        got = l_eps(0.1 + 0.01j, -2.0, 3.0)
        expect = -(0.1 + 0.01j) * 9 + 3j + (0.1 + 0.01j) * (-2.0)
        assert got == expect
        assert_allclose([got.real, got.imag], [-1.1, 2.89], rtol=1e-15)


class TestBlockInverse:
    def test_scalar_block(self):
        assert_allclose(block_inverse(0.05, 2.0, 1, 0.3)[0, 0],
                        1.0 / l_eps(0.05, 2.0, 0.3), rtol=1e-15)

    def test_size_two_hand_inverse(self):
        # forward block [[0.1, 0], [0.1, 0.1]] inverts to [[10, 0], [-10, 10]]
        B = block_inverse(0.1, 1.0, 2, 0.0)
        assert_allclose(B, np.array([[10.0, 0.0], [-10.0, 10.0]]), atol=1e-12)
        F = forward_block(0.1, 1.0, 2, 0.0)
        assert_allclose(F, np.array([[0.1, 0.0], [0.1, 0.1]]), atol=1e-15)

    def test_random_size_four_identity(self, rng):
        for _ in range(50):
            sigma = 10 ** rng.uniform(-4, -1)
            mu = rng.uniform(5, 100)
            ang = rng.uniform(-1, 1) * math.atan2(1.0, mu)
            eps = sigma * rng.uniform(1, 2) * cmath.exp(1j * ang)
            lam = float(rng.choice([-1, 1]) * rng.uniform(0.5, 3))
            a = float(rng.uniform(-50, 50))
            F = forward_block(eps, lam, 4, a)
            B = block_inverse(eps, lam, 4, a)
            assert np.max(np.abs(F @ B - np.eye(4))) <= 1e-12

    def test_vanishing_divisor_raises(self):
        with pytest.raises(rs.ResonanceError):
            block_inverse(0.0, 1.0, 2, 0.0)


class TestModeSolve:
    def test_scalar_cancellation_case(self):
        x = mode_solve(0.05, 1.0, rs.LinearPart.scalar(1.0), np.array([1.0]))
        assert_allclose(x[0], -1j, atol=1e-15)

    def test_a_zero_is_scaled_matrix_inverse(self):
        A = np.array([[2.0, 1.0], [0.0, -1.0]])
        lin = rs.LinearPart(tuple(map(tuple, A)))
        eps = 0.03
        rhs = np.array([1.0, 0.0], dtype=complex)
        x = mode_solve(eps, 0.0, lin, rhs)
        assert_allclose(x, np.linalg.solve(eps * A, rhs), rtol=1e-13)

    def test_dense_solve_matches_jordan_closed_form(self, rng):
        phi = np.array([[2.0, 1.0], [1.0, 1.0]])
        lin = from_jordan([(1.0, 2)], phi=phi)
        eps = 0.04 + 0.002j
        for _ in range(20):
            a = float(rng.uniform(-10, 10))
            rhs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            dense = mode_solve(eps, a, lin, rhs)
            closed = jordan_mode_inverse(eps, a, lin) @ rhs
            assert np.max(np.abs(dense - closed)) \
                <= 1e-10 * max(1.0, np.max(np.abs(dense)))

    def test_jordan_inverse_is_true_inverse(self):
        phi = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        lin = from_jordan([(0.5, 2), (-2.0, 1)], phi=phi)
        eps, a = 0.02, 1.7
        M = mode_matrices(eps, lin, a)
        Minv = jordan_mode_inverse(eps, a, lin)
        assert np.max(np.abs(M @ Minv - np.eye(3))) <= 1e-12


class TestLinearPart:
    def test_diagonal_autofills_trivial_jordan(self):
        lin = rs.LinearPart(((2.0, 0.0), (0.0, -1.0)))
        assert lin.jordan is not None
        assert [b.lam for b in lin.jordan] == [2.0, -1.0]
        assert lin.jordan is not None

    def test_jordan_without_phi_needs_a_equal_j(self):
        # the shipped jordan_ode.json matrix is similar to J, not equal to it
        with pytest.raises(ValueError, match="without phi need A = J"):
            rs.LinearPart(((2.0, -1.0), (1.0, 0.0)), (rs.JordanBlock(1.0, 2),))
        lin = rs.LinearPart(((1.0, 0.0), (1.0, 1.0)), (rs.JordanBlock(1.0, 2),))
        assert lin.phi_array.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_mismatched_phi_rejected(self):
        A = ((1.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            rs.LinearPart(A, (rs.JordanBlock(1.0, 2),),
                          phi=((1.0, 1.0), (0.0, 1.0)))

    def test_from_jordan_roundtrip(self):
        lin = from_jordan([(1.0, 2)])
        A = lin.array
        # J itself: eigenvalue 1 on the diagonal, chain entry below
        assert_allclose(A, np.array([[1.0, 0.0], [1.0, 1.0]]), atol=1e-14)
        assert np.array_equal(lin.jordan_matrix(), A)

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            rs.OdeProblem(
                lattice=rs.SpectralLattice(d=1, K=2, omega=(1.0,)),
                linear=rs.LinearPart(((0.0,),)),
                g_hat=rs.NonlinearitySpec.zero(),
                forcing=rs.FourierField.zeros(rs.SpectralLattice(d=1, K=2, omega=(1.0,))),
            )

    def test_generalized_pq_coefficients(self):
        lin = from_jordan([(1.0, 1)])
        lin_pq = rs.LinearPart(lin.a_matrix, (rs.JordanBlock(1.0, 1, p=2.0, q=3.0),),
                               lin.phi)
        M = mode_matrices(0.1, lin_pq, 2.0)
        assert_allclose(M[0, 0], -0.1 * 2.0 * 4.0 + 3j * 2.0 + 0.1, rtol=1e-15)

    def test_pq_need_identity_phi(self):
        # with phi != I, diag(P, Q) and the blocks live in different coordinates
        phi = np.array([[2.0, 1.0], [1.0, 1.0]])
        base = from_jordan([(1.0, 2)], phi=phi)
        for block in (rs.JordanBlock(1.0, 2, p=2.0), rs.JordanBlock(1.0, 2, q=3.0)):
            with pytest.raises(ValueError, match="phi = I"):
                rs.LinearPart(base.a_matrix, (block,), base.phi)
        ident = from_jordan([(1.0, 2)])
        for phi in (ident.phi, None):
            block = rs.JordanBlock(1.0, 2, p=2.0, q=3.0)
            lin = rs.LinearPart(ident.a_matrix, (block,), phi)
            assert lin.p_diagonal.tolist() == [2.0, 2.0]
            assert lin.q_diagonal.tolist() == [3.0, 3.0]


class TestApplyScaledInverse:
    def test_scalar_closed_form_response(self, linear_problem):
        eps = 0.07
        out = rs.apply_scaled_inverse(eps, linear_problem.linear,
                                      linear_problem.forcing)
        lat = linear_problem.lattice
        expect = rs.FourierField.from_modes(
            lat, {(1,): np.array([-0.5j * eps]), (-1,): np.array([0.5j * eps])}
        )
        assert np.max(np.abs(out.coeffs - expect.coeffs)) <= 1e-16

    def test_zero_field(self, lat2d):
        out = rs.apply_scaled_inverse(0.05, rs.LinearPart.scalar(1.0),
                                      rs.FourierField.zeros(lat2d))
        assert out.max_abs() == 0.0

    def test_norm_bounded_by_modewise_sup(self, lat2d, rng):
        lin = rs.LinearPart.scalar(-2.0)
        eps = 0.03
        f = random_real(lat2d, rng)
        out = rs.apply_scaled_inverse(eps, lin, f)
        # per-mode oracle for the operator constant
        a = lat2d.k_dot_omega()
        per_mode = np.abs(eps / (-eps * a ** 2 + 1j * a + eps * (-2.0)))
        c_emp = float(np.max(per_mode))
        assert_allclose(operator_norms(eps, lin, lat2d)["scaled_inverse_sup"],
                        c_emp, rtol=1e-12)
        spec = rs.NormSpec(0.1, 2)
        assert rs.norm(out, spec) <= c_emp * rs.norm(f, spec) * (1 + 1e-12)

    def test_matches_jordan_closed_form_at_every_mode(self, rng):
        from response_solver.cli import parse_problem

        lat2 = rs.SpectralLattice(d=2, K=5, omega=(1.0, math.sqrt(2)), n=2)
        phi = np.array([[2.0, 1.0], [1.0, 1.0]])
        chain = from_jordan([(1.5, 2)], phi=phi)
        ident = from_jordan([(1.5, 2), (-0.5, 1)])
        blocks = (rs.JordanBlock(1.5, 2, p=2.0, q=3.0), rs.JordanBlock(-0.5, 1, p=0.5))
        scaled = rs.LinearPart(ident.a_matrix, blocks, ident.phi)
        lat3 = rs.SpectralLattice(d=1, K=6, omega=(1.0,), n=3)
        shipped = parse_problem(PROBLEMS / "jordan_ode.json")
        cases = [(chain, lat2), (scaled, lat3), (shipped.linear, shipped.lattice)]
        for lin, lat in cases:
            f = random_real(lat, rng)
            a = lat.k_dot_omega()
            for eps in (0.02, 0.03 + 0.0003j):
                out = rs.apply_scaled_inverse(eps, lin, f)
                for idx in np.ndindex(lat.mode_shape):
                    ref = eps * jordan_mode_inverse(eps, a[idx], lin) @ f.coeffs[idx]
                    assert np.max(np.abs(out.coeffs[idx] - ref)) \
                        <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_hermitian_preserved_for_real_eps(self, lat2d, rng):
        f = random_real(lat2d, rng)
        out = rs.apply_scaled_inverse(0.05, rs.LinearPart.scalar(1.0), f)
        assert out.hermitian_defect() <= 1e-13

    def test_forward_inverse_consistency(self, lat2d, rng):
        lin = rs.LinearPart.scalar(1.0)
        f = random_real(lat2d, rng)
        eps = 0.05
        out = rs.apply_scaled_inverse(eps, lin, f)
        back = apply_forward(eps, lin, out)
        assert np.max(np.abs(back.coeffs - eps * f.coeffs)) <= 1e-12


class TestSolvePlan:
    """A solve builds its inverse once (``ScaledInverse``, ``pde.NInverse``);
    the step it hands to the driver gives the Picard map's bits."""

    def test_exactly_vanishing_divisor_still_raises(self):
        # at eps = -i the divisor -eps a^2 + i a + 2 eps is i (a + 2)(a - 1):
        # it vanishes exactly at k = -2 and k = 1
        lat = rs.SpectralLattice(d=1, K=4, omega=(1.0,))
        lin = rs.LinearPart.scalar(2.0)
        assert l_eps(-1j, 2.0, 1.0) == l_eps(-1j, 2.0, -2.0) == 0
        for call in (lambda: operator_norms(-1j, lin, lat),
                     lambda: rs.apply_scaled_inverse(-1j, lin, rs.FourierField.zeros(lat))):
            with pytest.raises(rs.ResonanceError,
                               match=r"singular scalar divisor at k=\(-2,\)") as exc:
                call()
            assert exc.value.mode == (-2,)

    @staticmethod
    def plan(prob, eps):
        """The map's step and first iterate."""
        step, _, first, _ = prob.fixed_point_map(
            eps, rs.SolverConfig(ball_radius=1.0), rs.SolveReport(eps=eps))
        return step, first

    @pytest.mark.parametrize("eps", [0.05, -0.04, 0.04 + 0.0004j])
    def test_ode_step_is_picard_step(self, cubic_problem, rng, eps):
        from response_solver.cli import parse_problem

        jordan = parse_problem(PROBLEMS / "jordan_ode.json")
        assert jordan.linear.n == 2
        for prob in (cubic_problem, jordan):
            step = self.plan(prob, eps)[0]
            U = 0.5 * random_real(prob.lattice, rng)
            for _ in range(3):
                V = step(U)
                assert np.array_equal(V.coeffs, rs.picard_step(U, eps, prob).coeffs)
                U = V

    @staticmethod
    def random_pde(d, rng):
        """A Boussinesq problem on a d-torus with a random real forcing."""
        lat = rs.SpectralLattice(d=d, K=3, omega=(1.0, math.sqrt(2.0), math.pi)[:d],
                                 has_space=True, J=4)
        forcing = 0.01 * random_real(lat, rng)
        return PdeProblem(lattice=lat, beta=2.0, forcing=forcing)

    @pytest.mark.parametrize("eps", [0.02, 0.02 + 0.0002j])
    def test_pde_step_is_pde_picard_step(self, eps):
        prob, W, _ = manufactured_pde(K=6)
        self.check_pde_step(prob, W, eps)

    def pde_case(self, case, rng):
        """(problem, start field) on one of four Boussinesq lattices."""
        if case in ("quasi-periodic", "linear"):
            prob, W, _ = manufactured_pde(K=6, second=0.006, nonlinear=case != "linear")
            return prob, W
        prob = self.random_pde(int(case[1]), rng)
        return prob, 0.5 * prob.forcing

    @pytest.mark.parametrize("eps", [0.02, 0.02 + 0.0002j])
    @pytest.mark.parametrize("case", ["quasi-periodic", "linear", "d1", "d3"])
    def test_fused_pde_step_across_lattices(self, eps, case, rng):
        self.check_pde_step(*self.pde_case(case, rng), eps)

    @pytest.mark.parametrize("eps", [0.02, 0.02 + 0.0002j])
    @pytest.mark.parametrize("case", ["quasi-periodic", "linear", "d1", "d3"])
    def test_pde_plan_constants_from_one_pass(self, eps, case, rng):
        """``NInverse`` reads its multiplier, kappa and smoothing constant
        from one |N|: the same bits as a pass per quantity."""
        prob, _ = self.pde_case(case, rng)
        lat, symbol = prob.lattice, _symbol_array(eps, prob)
        inverse = NInverse(eps, lat, symbol)
        expect = n_inverse_multiplier(eps, lat, symbol)
        assert inverse.multiplier.dtype == expect.dtype
        assert inverse.multiplier.shape == expect.shape
        assert inverse.multiplier.tobytes() == expect.tobytes()
        assert inverse.forward_sup == n_forward_sup(symbol, lat)
        assert inverse.smoothing_sup == smoothing_sup(eps, symbol, lat)
        report = rs.SolveReport(eps=eps)
        prob.fixed_point_map(eps, rs.SolverConfig(), report)
        assert report.kappa == 1.0 + n_forward_sup(symbol, lat)
        assert report.diagnostics["c_emp_smoothing"] == smoothing_sup(eps, symbol, lat)

    @pytest.mark.parametrize("eps", [0.05, -0.04, 0.04 + 0.0004j])
    def test_ode_plan_constants_are_the_singular_values(self, lat2d, eps):
        """``ScaledInverse`` against max |l| and 1/min |l| for n = 1 and a
        batched SVD of the shipped Jordan problem's mode matrices (n = 2)."""
        from response_solver.cli import parse_problem

        lin = rs.LinearPart.scalar(-2.0)
        inverse = ScaledInverse(eps, lin, lat2d)
        mag = np.abs(l_eps(eps, -2.0, lat2d.k_dot_omega()))
        assert inverse.forward_sup == float(np.max(mag))
        assert inverse.inverse_sup == float(1.0 / np.min(mag))
        assert inverse.scaled_inverse_sup == float(abs(eps) * inverse.inverse_sup)

        jordan = parse_problem(PROBLEMS / "jordan_ode.json")
        lat = jordan.lattice
        inverse = ScaledInverse(eps, jordan.linear, lat)
        sv = np.linalg.svd(mode_matrices(eps, jordan.linear, lat.k_dot_omega())
                           .reshape(-1, 2, 2), compute_uv=False)
        assert inverse.forward_sup == float(np.max(sv[:, 0]))
        assert inverse.inverse_sup == float(np.max(1.0 / sv[:, -1]))
        report = rs.SolveReport(eps=eps)
        jordan.fixed_point_map(eps, rs.SolverConfig(), report)
        assert report.kappa == 1.0 + float(np.max(sv[:, 0]))
        assert report.diagnostics["c_emp"] == operator_norms(
            eps, jordan.linear, lat)["scaled_inverse_sup"]

    def test_nearly_real_eps_step_takes_the_complex_path(self):
        """At eps = 0.02 + 1e-9j, not real by ``is_real_eps``, the shipped
        problem's iterates are Hermitian to ``is_hermitian``'s tolerance;
        the step still takes the complex transforms."""
        from response_solver.cli import parse_problem

        prob, eps = parse_problem(PROBLEMS / "boussinesq_pde.json"), 0.02 + 1e-9j
        assert not is_real_eps(eps)
        step, first = self.plan(prob, eps)
        assert first.is_hermitian()
        rhs = prob.forcing + rs.spatial_derivative(rs.product(first, first, False), 2)
        assert np.array_equal(step(first).coeffs, rs.apply_n_inverse(eps, prob, rhs).coeffs)

    @pytest.mark.parametrize("eps, real", [(0.05 + 1e-13j, False), (0.05, True)],
                             ids=["nearly-real", "real"])
    def test_ode_solve_takes_its_transforms_from_eps(self, monkeypatch, eps, real):
        """The shipped cubic's solve and residual choose their transforms by
        ``is_real_eps``: at 0.05 + 1e-13j the iterates pass ``is_hermitian``'s
        tolerance, yet every transform stays complex."""
        from response_solver import spectral
        from response_solver.cli import parse_problem

        prob = parse_problem(PROBLEMS / "cubic_ode.json")
        assert is_real_eps(eps) is real
        flags = []
        synthesize = spectral.synthesize
        monkeypatch.setattr(spectral, "synthesize", lambda f, grid=None, real=False:
                            flags.append(real) or synthesize(f, grid, real))
        U, rep = rs.solve_fixed_point(eps, prob, rs.SolverConfig())
        assert rep.status == "converged"
        rs.residual(U, eps, prob)
        assert U.is_hermitian()
        assert len(flags) >= 3 and set(flags) == {real}

    def check_pde_step(self, prob, W, eps):
        """The fused step, in the product's own array, against
        ``inverse(f + spatial_derivative(product, 2))``, and the symbol
        against the full-lattice one."""
        assert np.array_equal(_symbol_array(eps, prob), pde_symbol(eps, prob))
        step, first = self.plan(prob, eps)
        # at complex eps the step takes the complex transforms, as the
        # reference does on a non-Hermitian field such as the map's first
        # iterate; at real eps both take the real ones from the Hermitian W
        U = W if is_real_eps(eps) else first
        assert U.is_hermitian() == is_real_eps(eps)
        for _ in range(3):
            V = step(U)
            assert np.array_equal(V.coeffs, pde_picard_step(U, eps, prob).coeffs)
            U = V


class TestGammaBound:
    def test_real_eps_exact_bound_attained(self, lat2d):
        gb = gamma_bound(0.01, rs.LinearPart.scalar(1.0), lat2d)
        assert gb.exact
        assert_allclose(gb.certified, 100.0, rtol=1e-12)
        # the infimum is attained at a = 0, which is on the lattice (k = 0)
        assert_allclose(gb.empirical, 100.0, rtol=1e-12)

    def test_complex_cone_empirical_below_certified(self, lat2d):
        dom = EpsilonDomain.cone(0.01, 100.0)
        for eps in dom.sample(6):
            gb = gamma_bound(eps, rs.LinearPart.scalar(1.0), lat2d)
            assert gb.empirical <= gb.certified * (1 + 1e-9)

    def test_cone_infimum_between_scan_points(self):
        # at lam = 0.3, eps = 0.05+0.02j the infimum of |l| sits near
        # a = -0.006, between the points of a step-0.01 scan, which
        # overstated it by 3.5%
        eps = 0.05 + 0.02j
        m = divisor_infimum(eps, [rs.JordanBlock(0.3, 1)])[0]
        fine = np.min(np.abs(l_eps(eps, 0.3, np.linspace(-0.01, 0.0, 100001))))
        coarse = np.min(np.abs(l_eps(eps, 0.3, np.arange(-1.0, 1.005, 0.01))))
        assert_allclose(m, fine, rtol=1e-10)
        assert coarse > 1.03 * m

    def test_real_eps_infimum_keeps_its_closed_form(self):
        blocks = [rs.JordanBlock(1.0, 1), rs.JordanBlock(1.0, 1, p=2.0, q=0.1),
                  rs.JordanBlock(-2.0, 1, p=0.5, q=3.0)]
        # a = 0 unless q^2 < 2 eps^2 p lam, then a^2 = lam/p - q^2/(2 eps^2 p^2)
        e2, q2 = 0.5 ** 2, 0.1 ** 2
        assert divisor_infimum(0.5, blocks) == [
            0.5, math.sqrt(q2 * 1.0 / 2.0 - q2 * q2 / (4.0 * e2 * 2.0 ** 2)), 1.0]

    def test_doubled_empirical_violates_its_bound(self, lat2d):
        """The 2x that ``certify_bounds(fault=...)`` puts on ``empirical``
        breaks a bound that the clean value meets."""
        gb = gamma_bound(0.01, rs.LinearPart.scalar(1.0), lat2d)
        assert gb.empirical <= gb.certified * (1 + BOUND_RTOL)
        assert 2.0 * gb.empirical > gb.certified * (1 + BOUND_RTOL)

    def test_sigma_independence_of_scaled_inverse(self, lat2d):
        # bound on eps L^-1 is sigma-free: sweep four decades, spread < 10x
        lin = rs.LinearPart.scalar(1.0)
        sups = []
        for sigma in (1e-1, 1e-2, 1e-3, 1e-4):
            dom = EpsilonDomain.cone(sigma, 20.0)
            sups.append(max(
                operator_norms(e, lin, lat2d)["scaled_inverse_sup"]
                for e in dom.sample(6)
            ))
        assert max(sups) / min(sups) < 10.0

    def test_imaginary_axis_blowup(self, lat2d):
        # near the real root of the divisor the inverse exceeds any threshold
        sigma = 0.01
        root = (1 + math.sqrt(1 + 4 * sigma ** 2)) / (2 * sigma)
        a = np.linspace(root - 1e-4, root + 1e-4, 20001)
        vals = np.abs(-1j * sigma * a ** 2 + 1j * a + 1j * sigma * 1.0)
        assert 1.0 / np.min(vals[vals > 0]) > 1e6

    @pytest.mark.parametrize("linear, omega, eps, empirical", [
        (rs.LinearPart(((1.0,),), (rs.JordanBlock(1.0, 1, p=2.0, q=0.1),)),
         0.7036, 0.5, 14.1776),
        (rs.LinearPart(((1.0,),), (rs.JordanBlock(1.0, 1, p=2.0, q=0.01),)),
         0.7071, 0.05, 141.423),
        (rs.LinearPart.scalar(1.0), 0.7071, 1.0, 1.1547),
    ])
    def test_real_eps_interior_divisor_minimum(self, linear, omega, eps, empirical):
        # q^2 < 2 eps^2 p lambda: |l(a)| dips below |eps lambda| near
        # a^2 = lambda / p, which a lattice point nearly hits
        lat = rs.SpectralLattice(d=1, K=4, omega=(omega,))
        gb = gamma_bound(eps, linear, lat)
        assert gb.exact
        assert_allclose(gb.empirical, empirical, rtol=1e-5)
        assert gb.empirical <= gb.certified <= 1.01 * gb.empirical

    def test_jordan_case_certified(self):
        lat = rs.SpectralLattice(d=1, K=8, omega=(1.0,), n=2)
        lin = from_jordan([(1.0, 2)])
        gb = gamma_bound(0.01, lin, lat)
        assert gb.empirical <= gb.certified * (1 + 1e-9)

    def test_jordan_case_certified_complex_eps(self):
        lat = rs.SpectralLattice(d=2, K=5, omega=(1.0, math.sqrt(2)), n=3)
        phi = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]])
        lin = from_jordan([(1.0, 2), (-2.0, 1)], phi=phi)
        for eps in EpsilonDomain.cone(0.02, 50.0).sample(5):
            gb = gamma_bound(eps, lin, lat)
            assert gb.empirical <= gb.certified * (1 + 1e-9)


class TestEpsilonDomain:
    def test_cone_membership(self):
        dom = EpsilonDomain.cone(0.01, 10.0)
        assert dom.contains(0.015)
        assert dom.contains(0.015 * cmath.exp(1j * math.atan2(1, 10)))
        assert not dom.contains(0.015j)
        assert not dom.contains(0.025)
        assert not dom.contains(0.004)

    def test_annulus_membership_both_signs(self):
        dom = EpsilonDomain.annulus(0.01)
        assert dom.contains(-0.015) and dom.contains(0.02)
        assert not dom.contains(0.015 + 0.001j)

    def test_samples_inside_and_cover(self):
        dom = EpsilonDomain.cone(0.01, 100.0)
        samples = dom.sample(9)
        assert len(samples) == 9
        assert any(abs(abs(e) - 0.015) < 1e-12 for e in samples)
        phi_max = math.atan2(1.0, 100.0)
        assert any(abs(cmath.phase(e) - phi_max) < 1e-9 for e in samples)
        assert any(abs(cmath.phase(e) + phi_max) < 1e-9 for e in samples)

    def test_real_annulus_sample_example(self):
        samples = EpsilonDomain.annulus(0.01).sample(5)
        for e in samples:
            assert e.imag == 0.0
            assert 0.01 <= abs(e) <= 0.02
        assert any(e.real < 0 for e in samples)


class TestNonResonance:
    def test_rational_resonance_detected(self):
        value, k = rs.check_nonresonance(np.array([1.0, 0.5]), 2)
        assert value == 0.0
        assert k in ((1, -2), (-1, 2))

    def test_sqrt2_positive_minimum(self):
        value, k = rs.check_nonresonance(np.array([1.0, math.sqrt(2)]), 16)
        assert value > 0.0
        # exhaustive scan oracle
        best = math.inf
        for k1 in range(-16, 17):
            for k2 in range(-16, 17):
                if k1 == 0 and k2 == 0:
                    continue
                best = min(best, abs(k1 + k2 * math.sqrt(2)))
        assert_allclose(value, best, rtol=1e-12)

    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            rs.SpectralLattice(d=2, K=2, omega=(1.0, 0.5)).validate_nonresonance()
