import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from numpy.testing import assert_allclose

import response_solver as rs
from response_solver.cli import parse_problem
from response_solver.multipliers import EpsilonDomain, JordanBlock, l_eps
from response_solver.verification import (
    FAULT_NAMES,
    LiouvilleSpec,
    _damped_newton,
    _ode_system,
    _pde_system,
    build_liouville,
    certify_bounds,
    make_witness_problem,
    newton_oracle_ode,
    newton_oracle_pde,
    nondiff_probe,
    restrict_field,
    scan_for_witnesses,
)

from conftest import PROBLEMS, manufactured_pde
from reference import hermitian_part, random_real


class TestNewtonOracle:
    def test_linear_matches_single_picard_step(self, linear_problem):
        eps = 0.05
        W = newton_oracle_ode(eps, linear_problem, K_small=6)
        step = rs.picard_step(rs.FourierField.zeros(linear_problem.lattice), eps,
                              linear_problem)
        diff = restrict_field(step, W.lattice) - W
        assert np.max(np.abs(diff.coeffs)) <= 1e-12

    def test_cubic_agreement_is_the_oracle(self, cubic_problem):
        eps = 0.05
        U, rep = rs.solve_fixed_point(eps, cubic_problem,
                                      rs.SolverConfig(tol=1e-12, ball_radius=1.0))
        W = newton_oracle_ode(eps, cubic_problem, K_small=8)
        diff = restrict_field(U, W.lattice) - W
        assert np.max(np.abs(diff.coeffs)) <= 1e-8

    def test_pde_manufactured_recovered(self):
        prob, W, eps = manufactured_pde(K=6)
        got = newton_oracle_pde(eps, prob, K_small=6)
        diff = restrict_field(W, got.lattice) - got
        assert np.max(np.abs(diff.coeffs)) <= 1e-10

    def test_pde_oracle_peak_is_linear_in_unknowns(self):
        """The PDE oracle is matrix-free: the traced peak stays within a
        hundred coefficient vectors (M = 13^3 at K_small = 6), where one
        dense M x M Jacobian alone takes M^2 x 16 bytes (77 MB)."""
        pde = parse_problem(PROBLEMS / "boussinesq_pde.json")
        M = 13 ** 3
        # the oracle imports scipy.sparse.linalg on its first call; this module
        # has imported it already, so the trace counts the oracle's own arrays
        tracemalloc.start()
        try:
            newton_oracle_pde(0.02, pde, K_small=6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 100 * M * 16

    @pytest.mark.parametrize("nonlinear, solves", [(True, 2), (False, 0)])
    def test_pde_newton_skips_the_diagonal_step(self, monkeypatch, nonlinear, solves):
        """Newton starts at eps N^-1 f, where its first step from 0 lands, so
        no Krylov solve is spent on the diagonal Jacobian at 0; a linear
        problem needs none at all.  The result still agrees with Picard."""
        prob, W, eps = manufactured_pde(K=4, nonlinear=nonlinear)
        infos = []
        krylov = scipy.sparse.linalg.gmres

        def counting(*args, **kwargs):
            step, info = krylov(*args, **kwargs)
            infos.append(info)
            return step, info

        # the Newton loop imports gmres from scipy.sparse.linalg at each call
        monkeypatch.setattr(scipy.sparse.linalg, "gmres", counting)
        got = newton_oracle_pde(eps, prob, K_small=4)
        assert infos == [0] * solves
        U, rep = rs.pde_solve_fixed_point(eps, prob, rs.SolverConfig(tol=1e-13))
        assert rep.status == "converged"
        assert np.max(np.abs((U - got).coeffs)) <= 1e-12
        assert np.max(np.abs((W - got).coeffs)) <= 1e-12

    def test_singular_jacobian_raises(self):
        """A zero Jacobian leaves GMRES without a step; Newton turns that
        into LinAlgError."""
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _damped_newton(lambda x: x - 1.0, lambda x: lambda v: 0 * v,
                           lambda v: v, np.zeros(2, dtype=complex))

    def test_stalled_line_search_raises(self):
        """A Jacobian of the wrong sign points every step uphill."""
        with pytest.raises(RuntimeError, match="oracle line search stalled"):
            _damped_newton(lambda x: x - 1.0, lambda x: lambda v: -v,
                           lambda v: v, np.zeros(1, dtype=complex))

    def test_slow_convergence_raises(self):
        """At the double root of x^2 each Newton step only halves x, so
        from 1e8 forty steps leave max|F| near 1e-8."""
        with pytest.raises(RuntimeError, match="did not reach tolerance"):
            _damped_newton(lambda x: x * x, lambda x: lambda v: 2.0 * x * v,
                           lambda v: v, np.full(1, 1e8, dtype=complex))

    @pytest.mark.parametrize("eps", [0.02, 0.02 * np.exp(0.3j)])
    def test_pde_jvp_is_the_derivative(self, rng, eps):
        """F is quadratic, so the central difference over +-v is exact.  The
        direction v is not Hermitian: it is a + i b with a and b Hermitian,
        and F'(x) v = F'(x) a + i F'(x) b is differenced along a and b,
        since at real eps F takes the real transforms, which need a
        Hermitian field."""
        pde = parse_problem(PROBLEMS / "boussinesq_pde.json")
        small, F, jvp, _, _ = _pde_system(eps, pde, K_small=4)
        x = random_real(small, rng, amplitude=1.0).coeffs.ravel()
        v = random_real(small, rng, amplitude=1.0).coeffs.ravel()
        v = v + 1j * rng.standard_normal(v.size) * 1e-3     # not Hermitian
        a = hermitian_part(rs.FourierField(small, v.reshape(small.field_shape)))
        a = a.coeffs.ravel()
        b = (v - a) / 1j

        def central(w):
            return (F(x + w) - F(x - w)) / 2
        Jv = jvp(x)(v)
        assert np.max(np.abs(Jv - (central(a) + 1j * central(b)))) \
            <= 1e-15 * np.max(np.abs(Jv))

    def test_pde_jvp_is_complex_linear_at_real_eps(self, rng):
        """GMRES's Krylov vectors are not Hermitian, so at real eps too the
        Jacobian it is given must be linear over the complex numbers."""
        pde = parse_problem(PROBLEMS / "boussinesq_pde.json")
        small, _, jvp, _, _ = _pde_system(0.02, pde, K_small=4)
        x = random_real(small, rng, amplitude=1.0).coeffs.ravel()
        v = random_real(small, rng, amplitude=1.0).coeffs.ravel()
        J = jvp(x)
        assert np.max(np.abs(J(1j * v) - 1j * J(v))) <= 1e-15 * np.max(np.abs(J(v)))

    @pytest.mark.parametrize("name, eps", [("cubic_ode.json", 0.05),
                                           ("jordan_ode.json", 0.04)])
    def test_ode_jvp_is_the_derivative(self, rng, name, eps):
        """F is cubic, so the central difference at step t is off by a
        multiple of t^2: a quarter as much at t / 2."""
        prob = parse_problem(PROBLEMS / name)
        small, F, jvp, _, _ = _ode_system(eps, prob, K_small=6)
        x = random_real(small, rng, amplitude=1.0).coeffs.ravel()
        v = random_real(small, rng, amplitude=1.0).coeffs.ravel()
        Jv = jvp(x)(v)
        errors = [np.max(np.abs((F(x + t * v) - F(x - t * v)) / (2 * t) - Jv))
                  for t in (1e-4, 5e-5)]
        assert errors[0] <= 1e-6 * np.max(np.abs(Jv))
        assert 3.0 <= errors[0] / errors[1] <= 5.0

    def test_multicomponent_jordan_agreement(self):
        from pathlib import Path

        from response_solver.cli import parse_problem

        prob = parse_problem(
            Path(__file__).resolve().parent.parent / "problems" / "jordan_ode.json"
        )
        eps = 0.04
        U, rep = rs.solve_fixed_point(eps, prob,
                                      rs.SolverConfig(tol=1e-12, ball_radius=1.0))
        assert rep.status == "converged"
        W = newton_oracle_ode(eps, prob, K_small=6)
        diff = restrict_field(U, W.lattice) - W
        assert np.max(np.abs(diff.coeffs)) <= 1e-10

    def test_generalized_pq_agreement(self, pq_problem):
        eps = 0.05
        U, rep = rs.solve_fixed_point(eps, pq_problem,
                                      rs.SolverConfig(tol=1e-12, ball_radius=1.0))
        assert rep.status == "converged"
        W = newton_oracle_ode(eps, pq_problem, K_small=8)
        diff = restrict_field(U, W.lattice) - W
        assert np.max(np.abs(diff.coeffs)) <= 1e-8

    def test_budget_guard(self, lowreg_problem):
        with pytest.raises(ValueError):
            newton_oracle_ode(0.05, lowreg_problem, K_small=80)

    def test_piecewise_rejected(self, lowreg_problem):
        with pytest.raises(ValueError):
            newton_oracle_ode(0.05, lowreg_problem, K_small=4)


class TestLiouville:
    def test_level_one_with_small_quotient(self):
        freq = build_liouville(LiouvilleSpec(levels=2, first_quotient=2))
        # deepest witness: q = 2, divisor within the convergent bound 1/q_next
        w = freq.witnesses[-1]
        assert w.q == 2
        assert w.divisor_exact <= math.exp(-4.0) * 1.01
        qs = [wit.q for wit in freq.witnesses]
        assert qs == sorted(qs) and len(set(qs)) == len(qs)

    def test_default_witnesses_within_bounds(self):
        freq = build_liouville(LiouvilleSpec(levels=2))
        assert freq.notes == []
        for w in freq.witnesses:
            assert w.divisor_exact <= w.bound * (1 + 1e-9)

    def test_exact_divisor_matches_float_at_shallow_level(self):
        freq = build_liouville(LiouvilleSpec(levels=2))
        w = freq.witnesses[-1]
        # at this scale the float realization still resolves the divisor
        assert abs(w.divisor_float - w.divisor_exact) <= 1e-12

    def test_golden_control_has_no_witnesses(self):
        golden = (1.0, (1 + math.sqrt(5)) / 2)
        assert scan_for_witnesses(golden, 50) == []

    def test_zero_levels_falls_back(self):
        freq = build_liouville(LiouvilleSpec(levels=0))
        assert freq.witnesses == []
        assert freq.omega == (1.0, math.sqrt(2.0))

    def test_working_precision_restored(self):
        import mpmath

        with mpmath.workdps(20):
            build_liouville(LiouvilleSpec())
            assert mpmath.mp.dps == 20

    def test_unreachable_level_truncates_with_note(self):
        freq = build_liouville(LiouvilleSpec(levels=4, max_digits=10_000))
        assert freq.truncated_at == 3
        assert any("truncated" in n for n in freq.notes)
        assert len(freq.witnesses) == 2


@pytest.fixture
def ladder():
    return list(np.geomspace(1e-2, 1e-6, 13))


class TestNondiffProbe:

    def test_liouville_quotients_blow_up(self, ladder):
        freq = build_liouville(LiouvilleSpec(levels=2))
        usable = [w.k for w in freq.witnesses
                  if max(abs(w.k[0]), abs(w.k[1])) <= 16]
        prob = make_witness_problem(freq.omega, usable, K=16)
        res = nondiff_probe(prob, ladder)
        assert res.max_decade_growth >= 10.0
        assert res.closed_form_mismatch <= 1e-9

    def test_golden_control_stays_bounded(self, ladder):
        golden = (1.0, (1 + math.sqrt(5)) / 2)
        prob = make_witness_problem(golden, [(-13, 8)], K=16)
        res = nondiff_probe(prob, ladder)
        assert all(g <= 2.0 for g in res.decade_growth)
        assert res.closed_form_mismatch <= 1e-9

    def test_witness_prediction_reported(self, ladder):
        freq = build_liouville(LiouvilleSpec(levels=2))
        usable = [w.k for w in freq.witnesses
                  if max(abs(w.k[0]), abs(w.k[1])) <= 16]
        prob = make_witness_problem(freq.omega, usable, K=16)
        res = nondiff_probe(prob, [1e-3, 1e-4])
        assert res.witness_predictions
        # the deepest witness dominates: |f_k| / |k.omega| at divisor ~ 1.2e-4
        assert max(res.witness_predictions) > 100.0

    def test_deep_witness_quotient_approaches_prediction(self):
        # first quotient 4 puts the deepest divisor near e^{-16} ~ 1.1e-7;
        # far below the divisor the quotient plateaus at |f_k| / |k.omega|
        freq = build_liouville(LiouvilleSpec(levels=2, first_quotient=4))
        deep = freq.witnesses[-1]
        assert deep.divisor_exact < 1.5e-7
        prob = make_witness_problem(freq.omega, [deep.k], K=16)
        ladder = list(np.geomspace(1e-8, 1e-10, 5))
        res = nondiff_probe(prob, ladder)
        prediction = max(res.witness_predictions)
        # quotient measured in the L2 norm of the Hermitian pair: sqrt(2) |f_k|/|a|
        assert res.quotients[-1] == pytest.approx(math.sqrt(2) * prediction,
                                                  rel=1e-2)


class TestCertification:
    def test_ode_certification_passes(self, cubic_problem):
        cert = certify_bounds(cubic_problem, EpsilonDomain.cone(0.01, 100.0),
                              samples=6)
        assert cert.passed
        assert cert.violations == []
        assert cert.details["imaginary_axis_sup"] > 1e6

    def test_pde_certification_passes(self):
        prob, _, _ = manufactured_pde(K=6)
        cert = certify_bounds(prob, EpsilonDomain.cone(0.01, 100.0), samples=4)
        assert cert.passed
        assert cert.details["imaginary_axis_sup"] > 1e6

    @pytest.mark.parametrize("fault, domain", [
        (fault, domain) for domain in (EpsilonDomain.annulus(0.01),
                                       EpsilonDomain.cone(0.01, 100.0))
        for fault in FAULT_NAMES],
        ids=[*FAULT_NAMES, *(f"{fault}-cone" for fault in FAULT_NAMES)])
    def test_fault_injection_always_fails(self, fault, domain, cubic_problem):
        if fault.startswith("ode"):
            prob = cubic_problem
        else:
            prob, _, _ = manufactured_pde(K=6)
        cert = certify_bounds(prob, domain, samples=4, fault=fault)
        assert not cert.passed
        assert all("violation" in entry for entry in cert.details["per_eps"])
        assert len(cert.violations) == 4

    def test_unknown_fault_rejected(self, cubic_problem):
        with pytest.raises(ValueError):
            certify_bounds(cubic_problem, EpsilonDomain.annulus(0.01),
                           fault="no-such-fault")

    def test_wider_cone_worse_constant(self, lat2d):
        # mu = 10 admits epsilon further from the real axis than mu = 100
        lin = rs.LinearPart.scalar(1.0)
        worst = {}
        for mu in (10.0, 100.0):
            dom = EpsilonDomain.cone(0.01, mu)
            vals = []
            for e in dom.sample(8):
                gb = rs.gamma_bound(e, lin, lat2d)
                vals.append(abs(e) * gb.empirical)
            worst[mu] = max(vals)
        assert worst[10.0] >= worst[100.0] * (1 - 1e-12)

    @pytest.mark.parametrize("A, expected", [
        ([[-2.0, 0.0], [0.0, -3.0]], 1.2765957446808511),
        ([[-3.0, 0.0], [0.0, -2.0]], 1.2765957446808511),
        ([[-2.0, 0.0], [0.0, 1.0]], math.inf),
        ([[1.0, 0.0], [0.0, -2.0]], math.inf),
    ], ids=["-2,-3", "-3,-2", "-2,1", "1,-2"])
    def test_imaginary_axis_sup_is_the_worst_block(self, A, expected):
        # at sigma = 0.6, lambda = -2 blows up to 4 sigma / (4 sigma^2 2 - 1),
        # lambda = -3 to less, and lambda = 1 has a real root: inf
        lin = rs.LinearPart(tuple(map(tuple, A)))
        cert = certify_bounds(_forced(lin), EpsilonDomain.annulus(0.6), samples=2)
        assert cert.details["imaginary_axis_sup"] == pytest.approx(expected, rel=1e-14)

    def test_imaginary_axis_sup_of_a_pq_block_matches_a_dense_scan(self):
        lam, p, q, sigma = -2.0, 2.0, 0.5, 0.6
        lin = rs.LinearPart(((lam,),), (JordanBlock(lam, 1, p, q),))
        cert = certify_bounds(_forced(lin), EpsilonDomain.annulus(sigma), samples=2)
        a = np.linspace(-5.0, 5.0, 2_000_001)
        scan = np.max(1.0 / np.abs(l_eps(1j * sigma, lam, a, p, q)))
        assert cert.details["imaginary_axis_sup"] == pytest.approx(scan, rel=1e-9)


def _forced(lin):
    """``lin`` with zero nonlinearity and cos(theta) forcing in every component."""
    lat = rs.SpectralLattice(d=1, K=4, omega=(1.0,), n=lin.n)
    half = np.full(lin.n, 0.5 + 0j)
    return rs.OdeProblem(lattice=lat, linear=lin, g_hat=rs.NonlinearitySpec.zero(),
                         forcing=rs.FourierField.from_modes(lat, {(1,): half,
                                                                  (-1,): half.copy()}))
