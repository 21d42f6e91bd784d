import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import response_solver as rs
from response_solver.multipliers import (
    BoundViolationError,
    EpsilonDomain,
    apply_forward,
    block_inverse,
    forward_block,
    gamma_bound,
    jordan_mode_inverse,
    l_eps,
    mode_matrix,
    operator_norms,
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
        x = rs.mode_solve(0.05, 1.0, rs.LinearPart.scalar(1.0), np.array([1.0]))
        assert_allclose(x[0], -1j, atol=1e-15)

    def test_a_zero_is_scaled_matrix_inverse(self):
        A = np.array([[2.0, 1.0], [0.0, -1.0]])
        lin = rs.LinearPart(tuple(map(tuple, A)))
        eps = 0.03
        rhs = np.array([1.0, 0.0], dtype=complex)
        x = rs.mode_solve(eps, 0.0, lin, rhs)
        assert_allclose(x, np.linalg.solve(eps * A, rhs), rtol=1e-13)

    def test_backends_agree_jordan_block(self, rng):
        phi = np.array([[2.0, 1.0], [1.0, 1.0]])
        lin = rs.LinearPart.from_jordan([(1.0, 2)], phi=phi)
        eps = 0.04 + 0.002j
        for _ in range(20):
            a = float(rng.uniform(-10, 10))
            rhs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            dense = rs.mode_solve(eps, a, lin, rhs, backend="dense")
            jord = rs.mode_solve(eps, a, lin, rhs, backend="jordan")
            assert np.max(np.abs(dense - jord)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))

    def test_jordan_inverse_is_true_inverse(self):
        phi = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        lin = rs.LinearPart.from_jordan([(0.5, 2), (-2.0, 1)], phi=phi)
        eps, a = 0.02, 1.7
        M = mode_matrix(eps, a, lin)
        Minv = jordan_mode_inverse(eps, a, lin)
        assert np.max(np.abs(M @ Minv - np.eye(3))) <= 1e-12


class TestLinearPart:
    def test_diagonal_autofills_trivial_jordan(self):
        lin = rs.LinearPart(((2.0, 0.0), (0.0, -1.0)))
        assert lin.jordan is not None
        assert [b.lam for b in lin.jordan] == [2.0, -1.0]
        assert lin.has_jordan_backend()

    def test_mismatched_phi_rejected(self):
        A = ((1.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            rs.LinearPart(A, (rs.JordanBlock(1.0, 2),),
                          phi=((1.0, 1.0), (0.0, 1.0)))

    def test_from_jordan_roundtrip(self):
        lin = rs.LinearPart.from_jordan([(1.0, 2)])
        A = lin.array
        # J itself: eigenvalue 1 on the diagonal, chain entry below
        assert_allclose(A, np.array([[1.0, 0.0], [1.0, 1.0]]), atol=1e-14)

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            rs.OdeProblem(
                lattice=rs.SpectralLattice(d=1, K=2, omega=(1.0,)),
                linear=rs.LinearPart(((0.0,),)),
                g_hat=rs.NonlinearitySpec.zero(),
                forcing=rs.FourierField.zeros(rs.SpectralLattice(d=1, K=2, omega=(1.0,))),
            )

    def test_generalized_pq_coefficients(self):
        lin = rs.LinearPart.from_jordan([(1.0, 1)])
        lin_pq = rs.LinearPart(lin.a_matrix, (rs.JordanBlock(1.0, 1, p=2.0, q=3.0),),
                               lin.phi)
        M = mode_matrix(0.1, 2.0, lin_pq)
        assert_allclose(M[0, 0], -0.1 * 2.0 * 4.0 + 3j * 2.0 + 0.1, rtol=1e-15)


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
        f = rs.FourierField.random_real(lat2d, rng)
        out = rs.apply_scaled_inverse(eps, lin, f)
        # per-mode oracle for the operator constant
        a = lat2d.k_dot_omega()
        per_mode = np.abs(eps / (-eps * a ** 2 + 1j * a + eps * (-2.0)))
        c_emp = float(np.max(per_mode))
        assert_allclose(operator_norms(eps, lin, lat2d)["scaled_inverse_sup"],
                        c_emp, rtol=1e-12)
        spec = rs.NormSpec(0.1, 2)
        assert rs.norm(out, spec) <= c_emp * rs.norm(f, spec) * (1 + 1e-12)

    def test_jordan_backend_matches_dense_on_fields(self, rng):
        phi = np.array([[2.0, 1.0], [1.0, 1.0]])
        lin = rs.LinearPart.from_jordan([(1.5, 2)], phi=phi)
        lat = rs.SpectralLattice(d=2, K=5, omega=(1.0, math.sqrt(2)), n=2)
        f = rs.FourierField.random_real(lat, rng)
        eps = 0.02
        dense = rs.apply_scaled_inverse(eps, lin, f, backend="dense")
        jord = rs.apply_scaled_inverse(eps, lin, f, backend="jordan")
        assert np.max(np.abs(dense.coeffs - jord.coeffs)) <= 1e-10

    def test_unknown_backend_rejected(self, lat2d, rng):
        f = rs.FourierField.random_real(lat2d, rng)
        with pytest.raises(ValueError, match="bogus"):
            rs.apply_scaled_inverse(0.05, rs.LinearPart.scalar(1.0), f, backend="bogus")

    def test_hermitian_preserved_for_real_eps(self, lat2d, rng):
        f = rs.FourierField.random_real(lat2d, rng)
        out = rs.apply_scaled_inverse(0.05, rs.LinearPart.scalar(1.0), f)
        assert out.hermitian_defect() <= 1e-13

    def test_forward_inverse_consistency(self, lat2d, rng):
        lin = rs.LinearPart.scalar(1.0)
        f = rs.FourierField.random_real(lat2d, rng)
        eps = 0.05
        out = rs.apply_scaled_inverse(eps, lin, f)
        back = apply_forward(eps, lin, out)
        assert np.max(np.abs(back.coeffs - eps * f.coeffs)) <= 1e-12


class TestGammaBound:
    def test_real_eps_exact_bound_attained(self, lat2d):
        gb = gamma_bound(0.01, rs.LinearPart.scalar(1.0), lat2d)
        assert gb.exact
        assert_allclose(gb.certified, 100.0, rtol=1e-12)
        # the infimum is attained at a = 0, which is on the lattice (k = 0)
        assert_allclose(gb.empirical, 100.0, rtol=1e-12)
        assert gb.argmax_mode == (0, 0)

    def test_complex_cone_empirical_below_certified(self, lat2d):
        dom = EpsilonDomain.cone(0.01, 100.0)
        for eps in dom.sample(6):
            gb = gamma_bound(eps, rs.LinearPart.scalar(1.0), lat2d)
            assert gb.empirical <= gb.certified * (1 + 1e-9)

    def test_fault_scale_fails(self, lat2d):
        with pytest.raises(BoundViolationError):
            gamma_bound(0.01, rs.LinearPart.scalar(1.0), lat2d, fault_scale=2.0)

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

    def test_jordan_case_certified(self):
        lat = rs.SpectralLattice(d=1, K=8, omega=(1.0,), n=2)
        lin = rs.LinearPart.from_jordan([(1.0, 2)])
        gb = gamma_bound(0.01, lin, lat)
        assert gb.empirical <= gb.certified * (1 + 1e-9)

    def test_jordan_case_certified_complex_eps(self):
        lat = rs.SpectralLattice(d=2, K=5, omega=(1.0, math.sqrt(2)), n=3)
        phi = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]])
        lin = rs.LinearPart.from_jordan([(1.0, 2), (-2.0, 1)], phi=phi)
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
        samples = rs.sample_domain(dom, 9)
        assert len(samples) == 9
        assert any(abs(abs(e) - 0.015) < 1e-12 for e in samples)
        phi_max = math.atan2(1.0, 100.0)
        assert any(abs(cmath.phase(e) - phi_max) < 1e-9 for e in samples)
        assert any(abs(cmath.phase(e) + phi_max) < 1e-9 for e in samples)

    def test_real_annulus_sample_example(self):
        samples = rs.sample_domain(EpsilonDomain.annulus(0.01), 5)
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
