import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import response_solver as rs
from response_solver.multipliers import EpsilonDomain
from response_solver.verification import (
    FAULT_NAMES,
    LiouvilleSpec,
    build_liouville,
    certify_bounds,
    make_witness_problem,
    newton_oracle_ode,
    newton_oracle_pde,
    nondiff_probe,
    restrict_field,
    scan_for_witnesses,
)

from conftest import manufactured_pde


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

    @pytest.mark.parametrize("fault", FAULT_NAMES)
    def test_fault_injection_always_fails(self, fault, cubic_problem):
        if fault.startswith("ode"):
            prob = cubic_problem
        else:
            prob, _, _ = manufactured_pde(K=6)
        cert = certify_bounds(prob, EpsilonDomain.annulus(0.01), samples=4,
                              fault=fault)
        assert not cert.passed
        assert cert.violations

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
