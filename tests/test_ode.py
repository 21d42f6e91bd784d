import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

import response_solver as rs
from response_solver import cli, ode as ode_mod
from response_solver.cli import parse_problem
from response_solver.multipliers import EpsilonDomain, operator_norms
from response_solver.ode import geometric_fit_r2, sweep_sigma_ladder
from response_solver.verification import newton_oracle_ode, restrict_field

from conftest import (
    PROBLEMS, cos_forcing, diverging_cubic_problem, manufactured_pde, peak_rise,
)
from reference import cauchy_decay_fit, ode_residual_field, pde_picard_step, random_real


def exact_linear_solution(lat, eps):
    return rs.FourierField.from_modes(
        lat, {(1,): np.array([-0.5j * eps]), (-1,): np.array([0.5j * eps])}
    )


class TestPicardStep:
    def test_zero_nonlinearity_ignores_state(self, linear_problem, rng):
        eps = 0.05
        u_arbitrary = random_real(linear_problem.lattice, rng)
        a = rs.picard_step(u_arbitrary, eps, linear_problem)
        b = rs.picard_step(rs.FourierField.zeros(linear_problem.lattice), eps,
                           linear_problem)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-15

    def test_first_iterate_is_scaled_response(self, cubic_problem):
        eps = 0.05
        out = rs.picard_step(rs.FourierField.zeros(cubic_problem.lattice), eps,
                             cubic_problem)
        expect = rs.apply_scaled_inverse(eps, cubic_problem.linear,
                                         cubic_problem.forcing)
        assert np.max(np.abs(out.coeffs - expect.coeffs)) <= 1e-16

    def test_cubic_step_from_zero_closed_form(self, lat1d):
        # A=1, f=cos, omega=1: step from 0 gives eps sin(theta)
        prob = rs.OdeProblem(lattice=lat1d, linear=rs.LinearPart.scalar(1.0),
                             g_hat=rs.NonlinearitySpec.cubic(1.0),
                             forcing=cos_forcing(lat1d, 1.0))
        out = rs.picard_step(rs.FourierField.zeros(lat1d), 0.05, prob)
        assert np.max(np.abs(out.coeffs - exact_linear_solution(lat1d, 0.05).coeffs)) \
            <= 1e-16


class TestSolveFixedPoint:
    def test_linear_is_immediate(self, linear_problem):
        U, rep = rs.solve_fixed_point(0.05, linear_problem,
                                      rs.SolverConfig(tol=1e-12))
        assert rep.status == "converged"
        assert rep.iterations <= 2
        assert rep.fp_residual <= 1e-12
        assert rep.residual <= 1e-12

    def test_cubic_against_newton_oracle(self, cubic_problem):
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        U, rep = rs.solve_fixed_point(0.05, cubic_problem, cfg)
        assert rep.status == "converged"
        W = newton_oracle_ode(0.05, cubic_problem, K_small=8)
        diff = restrict_field(U, W.lattice) - W
        assert np.max(np.abs(diff.coeffs)) <= 1e-8

    def test_near_critical_lipschitz_ratio(self, lat1d):
        lin = rs.LinearPart.scalar(1.0)
        eps = 0.05
        c_emp = operator_norms(eps, lin, lat1d)["scaled_inverse_sup"]
        lip = 0.9 / c_emp
        prob = rs.OdeProblem(
            lattice=lat1d, linear=lin,
            g_hat=rs.NonlinearitySpec.piecewise([0.0], [-lip, lip]),
            forcing=cos_forcing(lat1d, 0.5),
        )
        U, rep = rs.solve_fixed_point(eps, prob,
                                      rs.SolverConfig(tol=1e-8, max_iter=500))
        assert rep.status == "converged"
        tail = rep.ratios[2:]
        assert all(r < 1.0 for r in tail)
        assert max(tail) <= 0.95

    def test_uniqueness_in_ball(self, cubic_problem, rng):
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        U1, r1 = rs.solve_fixed_point(0.05, cubic_problem, cfg)
        u0 = random_real(cubic_problem.lattice, rng,
                                         amplitude=0.05)
        U2, r2 = rs.solve_fixed_point(0.05, cubic_problem, cfg, u0=u0)
        assert r1.status == r2.status == "converged"
        assert rs.norm(U1 - U2, cfg.norm) <= 10 * cfg.tol

    def test_left_ball_enforced_for_locally_small_maps(self, lat1d):
        prob = rs.OdeProblem(lattice=lat1d, linear=rs.LinearPart.scalar(1.0),
                             g_hat=rs.NonlinearitySpec.cubic(0.1),
                             forcing=cos_forcing(lat1d, 0.2))
        U, rep = rs.solve_fixed_point(
            0.05, prob, rs.SolverConfig(tol=1e-12, ball_radius=1e-6)
        )
        assert rep.status == "left_ball"

    def test_piecewise_rejects_complex_eps(self, lowreg_problem):
        with pytest.raises(ValueError, match="real eps"):
            rs.solve_fixed_point(0.03 + 0.001j, lowreg_problem,
                                 rs.SolverConfig(tol=1e-10))

    def test_piecewise_real_solve_records_aliasing(self, lowreg_problem):
        _, rep = rs.solve_fixed_point(0.03, lowreg_problem,
                                      rs.SolverConfig(tol=1e-10))
        assert rep.status == "converged"
        assert rep.diagnostics["aliasing_estimate"] >= 0.0

    def test_residual_consistency_with_measured_kappa(self, cubic_problem):
        cfg = rs.SolverConfig(tol=1e-10, ball_radius=1.0)
        U, rep = rs.solve_fixed_point(0.05, cubic_problem, cfg)
        assert rep.status == "converged"
        assert rep.residual <= rep.kappa * cfg.tol

    def test_ratio_sequence_geometric(self, cubic_problem):
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        _, rep = rs.solve_fixed_point(0.05, cubic_problem, cfg)
        assert geometric_fit_r2(rep.increments) >= 0.99


def hand_picard(step, lattice, cfg, stop):
    """Picard from zero, written out: (U, increments, ratios); ends on an
    increment <= tol whose iterate passes ``stop``, or after max_iter."""
    U = rs.FourierField.zeros(lattice)
    increments = []
    for _ in range(cfg.max_iter):
        V = step(U)
        increments.append(rs.norm(V - U, cfg.norm))
        U = V
        if increments[-1] <= cfg.tol and stop(U):
            break
    return U, increments, [b / a for a, b in zip(increments, increments[1:])]


def _pde_case(eps):
    prob, _, _ = manufactured_pde(K=8)
    return (prob, eps, lambda V: pde_picard_step(V, eps, prob),
            lambda V: rs.pde_residual(V, eps, prob))


class TestColdStart:
    """A cold solve takes the map's first iterate as step 1 where that is
    step(0), and gives the bits of a Picard loop from zero."""

    @pytest.mark.parametrize("eps", [0.02, 0.02 + 0.0002j], ids=["real", "complex"])
    def test_pde_equals_hand_loop(self, eps):
        prob, eps, step, residual = _pde_case(eps)
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        U, rep = rs.solve_fixed_point(eps, prob, cfg)
        assert rep.status == "converged"
        V, increments, ratios = hand_picard(
            step, prob.lattice, cfg, lambda W: residual(W) <= rep.kappa * cfg.tol)
        assert np.array_equal(U.coeffs, V.coeffs)
        assert rep.increments == increments and rep.ratios == ratios
        assert rep.iterations == len(increments)

    @pytest.mark.parametrize("g_hat", [
        rs.NonlinearitySpec.cubic(0.1),
        # g_hat(0) != 0: the first iterate eps L^-1 f is not step(0), so the
        # solve must still take its step at iteration 1
        rs.NonlinearitySpec.polynomial([(0.01, 0.0, 0.0, 0.1)], smallness="global"),
    ], ids=["cubic", "constant-term"])
    def test_ode_equals_hand_loop(self, cubic_problem, g_hat):
        prob = replace(cubic_problem, g_hat=g_hat)
        eps = 0.05
        cfg = rs.SolverConfig(tol=1e-12)
        U, rep = rs.solve_fixed_point(eps, prob, cfg)
        assert rep.status == "converged"
        V, increments, ratios = hand_picard(
            lambda W: rs.picard_step(W, eps, prob), prob.lattice, cfg,
            lambda W: rs.residual(W, eps, prob) <= rep.kappa * cfg.tol)
        assert np.array_equal(U.coeffs, V.coeffs)
        assert rep.increments == increments and rep.ratios == ratios
        assert rep.iterations == len(increments)
        first = rs.apply_scaled_inverse(eps, prob.linear, prob.forcing)
        assert (increments[0] == rs.norm(first, cfg.norm)) == g_hat.vanishes_at_zero

    @pytest.mark.parametrize("g_hat, vanishes", [
        (rs.NonlinearitySpec.zero(), True),
        (rs.NonlinearitySpec.piecewise([0.0], [-0.1, 0.1]), True),
        (rs.NonlinearitySpec.cubic(0.1, n=2), True),
        (rs.NonlinearitySpec.polynomial([(), (0.0, 0.0, 0.1)]), True),
        (rs.NonlinearitySpec.polynomial([(0.0, 0.0, 0.1), (0.5, 0.1)],
                                        smallness="global"), False),
        (rs.NonlinearitySpec(kind="callable", fn=lambda x: x ** 3), False),
    ], ids=["zero", "piecewise", "cubic", "empty-row", "constant-term", "callable"])
    def test_vanishes_at_zero_reads_the_spec(self, g_hat, vanishes):
        assert g_hat.vanishes_at_zero is vanishes

    def test_pde_transforms_once_per_step_after_the_first(self, monkeypatch):
        from response_solver import spectral

        prob, eps, _, _ = _pde_case(0.02)
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        calls = []
        synthesize = spectral.synthesize
        monkeypatch.setattr(spectral, "synthesize",
                            lambda *a, **k: calls.append(1) or synthesize(*a, **k))
        _, rep = rs.solve_fixed_point(eps, prob, cfg)
        assert rep.status == "converged"
        # passed its first residual check: one increment at or below tol
        assert sum(inc <= cfg.tol for inc in rep.increments) == 1
        # n - 1 steps square an iterate, and the residual squares the last
        assert len(calls) == rep.iterations


    @pytest.mark.parametrize("ball_radius", [1.0, math.inf], ids=["ball", "no-ball"])
    def test_cold_first_iterate_is_normed_once(self, cubic_problem, monkeypatch,
                                               ball_radius):
        """A cold cubic solve takes the first iterate's norm once, for the
        half-ball check, its increment and, with a ball, its norm; every
        later step takes its increment and, with a ball, its norm; each
        residual check and, without a ball, the exit take one more."""
        calls = []
        norm = ode_mod.norm
        monkeypatch.setattr(ode_mod, "norm", lambda *a: calls.append(a[0]) or norm(*a))
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=ball_radius)
        U, rep = rs.solve_fixed_point(0.05, cubic_problem, cfg)
        assert rep.status == "converged" and rep.iterations >= 3
        checks = sum(inc <= cfg.tol for inc in rep.increments)
        per_step = 2 if math.isfinite(ball_radius) else 1
        at_exit = 0 if math.isfinite(ball_radius) else 1
        assert len(calls) == 1 + per_step * (rep.iterations - 1) + checks + at_exit
        first = rs.apply_scaled_inverse(0.05, cubic_problem.linear, cubic_problem.forcing)
        assert np.array_equal(calls[0].coeffs, first.coeffs)
        assert rep.increments[0] == norm(first, cfg.norm)
        assert rep.sol_norm == norm(U, cfg.norm)


    def test_cold_first_iterate_that_overflows_ends_diverged_at_zero(self):
        """eps L^-1 f overflows at eps = 10 with |f_1| = 8.5e307 (|l_1| = 1):
        iteration 1 is not accepted, and the solve ends diverged at its zero
        start."""
        lat = rs.SpectralLattice(d=1, K=4, omega=(1.0,))
        prob = rs.OdeProblem(lattice=lat, linear=rs.LinearPart.scalar(1.0),
                             g_hat=rs.NonlinearitySpec.cubic(0.1),
                             forcing=cos_forcing(lat, 1.7e308))
        with np.errstate(over="ignore", invalid="ignore"):
            U, rep = rs.solve_fixed_point(10.0, prob, rs.SolverConfig())
        assert rep.status == "diverged" and rep.iterations == 0
        assert "infinite" in rep.diagnostics["error"]
        assert not np.any(U.coeffs)


def d3_cubic(K: int) -> rs.OdeProblem:
    """g-hat = 0.1 x^3 on a d = 3 torus, forced at two modes."""
    lat = rs.SpectralLattice(d=3, K=K, omega=(1.0, math.sqrt(2.0), math.sqrt(3.0)))
    forcing = rs.FourierField.from_modes(lat, {(1, 0, 0): 0.1, (-1, 0, 0): 0.1,
                                               (0, 1, 1): 0.05j, (0, -1, -1): -0.05j})
    return rs.OdeProblem(lattice=lat, linear=rs.LinearPart.scalar(1.0),
                         g_hat=rs.NonlinearitySpec.cubic(0.1), forcing=forcing)


class TestCompositionPlan:
    """An oscillator solve composes in the two grid arrays of its one plan."""

    def test_steps_and_residual_allocate_no_grid_array(self, monkeypatch):
        """After a complex-eps d = 3 cubic solve's first step, no compose
        that a step or the residual runs allocates a composition grid's
        worth of memory (a compose that padded into fresh arrays would
        take two grids or more), and a whole step stays below one grid."""
        import tracemalloc

        from response_solver.spectral import _composition_grid

        prob, eps = d3_cubic(12), 0.05 + 0.005j
        grid_bytes = 16 * math.prod(_composition_grid(prob.lattice, prob.g_hat, False))
        assert grid_bytes > 6 * 16 * math.prod(prob.lattice.field_shape)
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        step, eq_residual, first, _ = prob.fixed_point_map(eps, cfg, rs.SolveReport(eps=eps))
        U = step(first)
        eq_residual(U)
        rises = []

        def peak_rise(fn, *args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            rises.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        compose = ode_mod.compose
        monkeypatch.setattr(ode_mod, "compose", lambda *a: peak_rise(compose, *a))
        tracemalloc.start()
        try:
            for _ in range(2):
                U = step(U)
                eq_residual(U)
            composes = list(rises)
            rises.clear()
            peak_rise(step, U)
        finally:
            tracemalloc.stop()
        assert len(composes) == 4
        assert max(composes) < grid_bytes / 2
        assert rises[-1] < grid_bytes

    def test_pooled_complex_sweep_on_d3_gives_the_serial_bytes(self, tmp_path):
        """Each solve owns its plan, so a --jobs 2 sweep over complex eps on
        a d = 3 torus writes the serial result.json byte for byte."""
        problem = {"kind": "ode", "d": 3, "n": 1, "K": 6, "omega": ["1", "sqrt2", "sqrt3"],
                   "A": [1.0],
                   "nonlinearity": {"kind": "polynomial", "coeffs": [[0, 0, 0, 0.1]],
                                    "smallness": "local"},
                   "forcing": [{"k": [1, 0, 0], "component": 0, "amplitude": 0.2,
                                "waveform": "cos"},
                               {"k": [0, 1, 1], "component": 0, "amplitude": 0.1,
                                "waveform": "sin"}]}
        (tmp_path / "d3.json").write_text(json.dumps(problem))
        config = {"command": "sweep", "problem": "d3.json",
                  "solver": {"tol": 1e-12, "max_iter": 100, "ball_radius": 1.0},
                  "params": {"domain": {"kind": "complex_cone", "sigma": 0.05, "mu": 5.0},
                             "count": 6},
                  "output_dir": "out", "seed": 3}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        written = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert cli.main(["--config", str(tmp_path / "cfg.json"), "--jobs", jobs,
                             "--out", str(out)]) == 0
            written[jobs] = (out / "result.json").read_bytes()
        assert written["1"] == written["2"]
        entries = json.loads(written["1"])["entries"]
        assert len(entries) == 6 and all(e["status"] == "converged" for e in entries)
        assert any(e["eps"][1] != 0.0 for e in entries)


class TestRandomizedContraction:
    def test_converged_runs_have_shrinking_ratios(self, rng):
        # randomized problem family: converged reports must show contraction
        # ratios below one past the first recorded ratio
        lat = rs.SpectralLattice(d=1, K=8, omega=(1.0,))
        for _ in range(10):
            lam = float(rng.choice([-1, 1]) * rng.uniform(0.5, 3))
            cub = float(rng.uniform(0.01, 0.5))
            amp = float(rng.uniform(0.05, 0.3))
            eps = float(rng.uniform(0.005, 0.08))
            prob = rs.OdeProblem(
                lattice=lat, linear=rs.LinearPart.scalar(lam),
                g_hat=rs.NonlinearitySpec.cubic(cub),
                forcing=cos_forcing(lat, amp),
            )
            U, rep = rs.solve_fixed_point(
                eps, prob, rs.SolverConfig(tol=1e-11, ball_radius=1.0)
            )
            assert rep.status == "converged"
            assert all(r < 1.0 for r in rep.ratios[1:])
            assert rep.fp_residual <= 1e-11


class TestResidual:
    """``residual`` writes the equation into two lattice arrays, in place."""

    def test_exact_solution_zero_residual(self, linear_problem):
        eps = 0.05
        U = exact_linear_solution(linear_problem.lattice, eps)
        assert rs.residual(U, eps, linear_problem) <= 1e-14

    def test_zero_field_gives_eps_norm_f(self, linear_problem):
        eps = 0.05
        U = rs.FourierField.zeros(linear_problem.lattice)
        assert_allclose(rs.residual(U, eps, linear_problem),
                        eps * rs.norm(linear_problem.forcing, rs.NormSpec()),
                        rtol=1e-14)

    def test_solver_output_small_residual(self, cubic_problem):
        U, rep = rs.solve_fixed_point(
            0.05, cubic_problem, rs.SolverConfig(tol=1e-10, ball_radius=1.0)
        )
        assert rs.residual(U, 0.05, cubic_problem) <= 1e-8

    @pytest.mark.parametrize("name, eps", [("cubic_ode.json", 0.05),
                                           ("cubic_ode.json", 0.05 + 0.005j),
                                           ("jordan_ode.json", 0.05),
                                           ("jordan_ode.json", -0.03 + 0.01j),
                                           ("linear_ode.json", 0.1 + 0.02j),
                                           ("lowreg_ode.json", 0.05)])
    def test_residual_is_the_fresh_field_expression(self, monkeypatch, rng, name, eps):
        """The field whose norm the residual takes has the bits of the
        equation written over fresh fields."""
        prob = parse_problem(PROBLEMS / name)
        U = random_real(prob.lattice, rng, amplitude=0.01)
        fields = []
        monkeypatch.setattr(ode_mod, "norm", lambda f, spec: fields.append(f) or 0.0)
        ode_mod.residual(U, eps, prob)
        want = ode_residual_field(U, eps, prob)
        assert fields[0].coeffs.tobytes() == want.coeffs.tobytes()

    def test_residual_holds_two_lattice_arrays_and_the_composition(self):
        """At d = 3, K = 12 (0.25 MB a field) a complex-eps residual in its
        solve's plan holds its two arrays and the composed field at its
        peak: under 1.0 MB, where the equation over fresh fields held 1.75."""
        prob, eps = d3_cubic(12), 0.05 + 0.005j
        assert 16 * math.prod(prob.lattice.field_shape) == 250_000
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        step, eq_residual, first, _ = prob.fixed_point_map(eps, cfg, rs.SolveReport(eps=eps))
        U = step(first)
        eq_residual(U)
        assert peak_rise(eq_residual, U) < 1_000_000


class TestSweep:
    def test_linear_norm_exactly_linear_in_eps(self, linear_problem):
        dom = EpsilonDomain.annulus(0.01)
        entries = rs.sweep_epsilon(dom, linear_problem,
                                   rs.SolverConfig(tol=1e-13), count=6)
        sin_norm = rs.norm(exact_linear_solution(linear_problem.lattice, 1.0),
                           rs.NormSpec())
        for e in entries:
            assert e.report.status == "converged"
            assert_allclose(e.sol_norm, abs(e.eps) * sin_norm, rtol=1e-10)

    def test_sigma_ladder_descends_and_contracts(self, cubic_problem):
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        entries = sweep_sigma_ladder(cubic_problem, cfg,
                                     sigmas=[1e-1, 1e-2, 1e-3])
        norms = [e.sol_norm for e in entries]
        assert all(e.report.status == "converged" for e in entries)
        assert all(a > b for a, b in zip(norms, norms[1:]))
        # the norm tracks eps: consecutive-rung ratios match the eps ratios
        for a, b in zip(entries, entries[1:]):
            assert b.sol_norm / a.sol_norm == pytest.approx(
                abs(b.eps) / abs(a.eps), rel=1e-3
            )

    @pytest.mark.parametrize("sigmas, count", [
        ([0.02, 0.01], 5), ([0.03, 0.02], 5), ([1e-19, 1e-20], 6),
    ])
    def test_sigma_ladder_solves_each_distinct_eps_once(self, cubic_problem,
                                                        sigmas, count):
        # 2 sigma of one rung is sigma of the next in the first two ladders;
        # the tiny rungs differ relatively, if not absolutely
        entries = sweep_sigma_ladder(cubic_problem, rs.SolverConfig(tol=1e-12),
                                     sigmas, keep_solutions=False)
        assert len(entries) == count
        assert all(e.report.status == "converged" for e in entries)

    def test_sigma_overlap_agreement(self, cubic_problem):
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        sigma = 0.02
        shared = 1.75 * sigma
        a = rs.sweep_epsilon(EpsilonDomain.annulus(sigma), cubic_problem, cfg,
                             eps_values=[2 * sigma, shared, sigma])
        b = rs.sweep_epsilon(EpsilonDomain.annulus(1.5 * sigma), cubic_problem, cfg,
                             eps_values=[3 * sigma, 2 * sigma, shared])
        Ua = next(e.solution for e in a if e.eps == shared)
        Ub = next(e.solution for e in b if e.eps == shared)
        assert rs.norm(Ua - Ub, cfg.norm) <= 1e-8

    def test_nonconvergent_sample_flagged_not_fatal(self, cubic_problem):
        cfg = rs.SolverConfig(tol=1e-16, max_iter=2, ball_radius=1.0)
        entries = rs.sweep_epsilon(EpsilonDomain.annulus(0.02), cubic_problem,
                                   cfg, count=3)
        assert len(entries) == 3
        assert any(e.report.status != "converged" for e in entries)

    def test_pde_sweep_starts_cold_and_converges(self, monkeypatch):
        lat = rs.SpectralLattice(d=1, K=4, omega=(1.0,), has_space=True, J=4)
        prob = rs.PdeProblem(lattice=lat, beta=2.0, forcing=rs.FourierField.from_modes(
            lat, {(1, 1): 0.005, (-1, -1): 0.005}))
        starts = _record_starts(monkeypatch)
        entries = rs.sweep_epsilon(EpsilonDomain.cone(0.05, 5.0), prob,
                                   rs.SolverConfig(tol=1e-11, ball_radius=1.0), count=6)
        assert [e.report.status for e in entries] == ["converged"] * 6
        # one solve per eps, every one from zero, real and complex alike
        assert [u0 for u0, _ in starts] == [None] * 6

    def test_sigma_ladder_chains_warm_starts(self, cubic_problem, monkeypatch):
        """The ladder is one chain: the first solve starts from zero and
        each later one from the solution the solve before it returned."""
        starts = _record_starts(monkeypatch)
        entries = sweep_sigma_ladder(cubic_problem, rs.SolverConfig(tol=1e-12),
                                     [0.02, 0.01], keep_solutions=False)
        assert [e.report.status for e in entries] == ["converged"] * 5
        assert len(starts) == 5 and starts[0][0] is None
        for (_, before), (u0, _) in zip(starts, starts[1:]):
            assert u0 is before

    @pytest.mark.parametrize("sigmas", [[], [0.01, 0.0], [-0.1], [0.01, math.nan],
                                        [math.inf]],
                             ids=["empty", "zero", "negative", "nan", "inf"])
    def test_sigma_ladder_rejects_bad_sigmas_before_solving(self, cubic_problem,
                                                            monkeypatch, sigmas):
        starts = _record_starts(monkeypatch)
        with pytest.raises(ValueError, match="sigma"):
            sweep_sigma_ladder(cubic_problem, rs.SolverConfig(), sigmas)
        assert starts == []

    def test_pooled_map_gives_the_serial_results(self, cubic_problem):
        """A sweep and a probe give the same reports and coefficients, bit
        for bit, whether their solves run in order or on two threads."""
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        runs = {}
        with ThreadPoolExecutor(max_workers=2) as pool:
            for name, map_fn in (("serial", map), ("pooled", pool.map)):
                sweep = rs.sweep_epsilon(EpsilonDomain.cone(0.05, 5.0), cubic_problem,
                                         cfg, count=6, map_fn=map_fn)
                probe = rs.analyticity_probe(0.075, 0.01, cubic_problem, cfg,
                                             points=8, map_fn=map_fn)
                runs[name] = (sweep, probe)
        (sweep, probe), (pooled_sweep, pooled_probe) = runs["serial"], runs["pooled"]
        assert [asdict(e.report) for e in sweep] == [asdict(e.report) for e in pooled_sweep]
        for a, b in zip(sweep, pooled_sweep):
            assert a.solution.coeffs.tobytes() == b.solution.coeffs.tobytes()
        assert probe == pooled_probe

    def test_parallel_map_cold_start(self, linear_problem):
        dom = EpsilonDomain.annulus(0.01)
        entries = rs.sweep_epsilon(dom, linear_problem, rs.SolverConfig(tol=1e-12),
                                   count=4, map_fn=map)
        assert all(e.report.status == "converged" for e in entries)


def _record_starts(monkeypatch) -> list:
    """(u0, returned solution) of every ``ode.solve_fixed_point`` call from
    here on, in call order."""
    solve, starts = ode_mod.solve_fixed_point, []

    def recording_solve(eps, prob, cfg, u0=None):
        U, rep = solve(eps, prob, cfg, u0=u0)
        starts.append((u0, U))
        return U, rep

    monkeypatch.setattr(ode_mod, "solve_fixed_point", recording_solve)
    return starts


class TestAnalyticityProbe:
    @pytest.mark.parametrize("points", [0, 1])
    def test_fewer_than_two_points_rejected_before_solving(self, cubic_problem,
                                                           monkeypatch, points):
        starts = _record_starts(monkeypatch)
        with pytest.raises(ValueError, match="at least 2 circle points"):
            rs.analyticity_probe(0.075, 0.01, cubic_problem, rs.SolverConfig(),
                                 points=points)
        assert starts == []

    def test_every_solve_starts_cold(self, cubic_problem, monkeypatch):
        """points + 2 solves: the circle's and the two of the difference,
        each from zero."""
        starts = _record_starts(monkeypatch)
        rs.analyticity_probe(0.075, 0.01, cubic_problem,
                             rs.SolverConfig(tol=1e-12, ball_radius=1.0), points=8)
        assert [u0 for u0, _ in starts] == [None] * 10

    def test_constant_mock_has_no_higher_harmonics(self, linear_problem, rng,
                                                   monkeypatch):
        frozen = random_real(linear_problem.lattice, rng)
        fake_report = ode_mod.SolveReport(eps=0.0, status="converged")

        def fake_solve(eps, prob, cfg, u0=None):
            return frozen, fake_report

        monkeypatch.setattr(ode_mod, "solve_fixed_point", fake_solve)
        probe = rs.analyticity_probe(0.075, 0.01, linear_problem,
                                     rs.SolverConfig(tol=1e-12))
        assert all(h <= 1e-12 for h in probe.harmonic_norms[1:])
        assert probe.cauchy_vs_fd <= 1e-12

    def test_linear_problem_matches_symbolic_harmonics(self, linear_problem):
        cfg = rs.SolverConfig(tol=1e-13)
        center, radius, P = 0.075, 0.01, 16
        probe = rs.analyticity_probe(center, radius, linear_problem, cfg, points=P)
        # symbolic oracle: per-mode solution eps f_k / l_eps(k.omega) on the circle
        lat = linear_problem.lattice
        kdw = lat.k_dot_omega()
        stack = []
        for p in range(P):
            e = center + radius * np.exp(2j * math.pi * p / P)
            div = -e * kdw ** 2 + 1j * kdw + e * 1.0
            stack.append(e * linear_problem.forcing.coeffs / div[..., None])
        stack = np.array(stack)
        for m in range(len(probe.harmonic_norms)):
            h_m = np.tensordot(np.exp(-2j * math.pi * m * np.arange(P) / P), stack,
                               axes=(0, 0)) / P
            expect = rs.norm(rs.FourierField(lat, h_m), cfg.norm)
            assert abs(probe.harmonic_norms[m] - expect) <= 1e-11

    @pytest.mark.parametrize("radius", [0.01, 0.05])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_linear_harmonics_are_the_taylor_coefficients(self, m, radius):
        """For g = 0 and f = cos(m theta), U_k(eps) = eps f_k / l_k(eps)
        with l_k = alpha eps + i a, alpha = 1 - a^2, a = +-m.  About the
        centre c, with D = alpha c + i a, its Taylor coefficients are
        c f_k / D and, for j >= 1, -(i a f_k / (alpha D)) (-alpha / D)^j:
        they shrink by radius / |c - i m / (m^2 - 1)| per harmonic, the
        circle's radius over the distance to the nearest zero of l.  32
        points put the next alias 32 harmonics down, far below roundoff."""
        lat = rs.SpectralLattice(d=1, K=16, omega=(1.0,))
        prob = rs.OdeProblem(lattice=lat, linear=rs.LinearPart.scalar(1.0),
                             g_hat=rs.NonlinearitySpec.zero(),
                             forcing=cos_forcing(lat, 1.0, k=(m,)))
        cfg, centre, points = rs.SolverConfig(tol=1e-13), 0.075, 32
        probe = rs.analyticity_probe(centre, radius, prob, cfg, points=points)
        f = prob.forcing.coeffs[[16 - m, 16 + m]]
        a = np.array([-m, m], dtype=float)[:, None]
        alpha = 1.0 - a * a
        D = alpha * centre + 1j * a
        taylor = [centre * f / D] + [-(1j * a * f / (alpha * D)) * (-alpha / D) ** j
                                     for j in range(1, points // 2 + 1)]
        want = [math.sqrt(np.sum(np.abs(c * radius ** j) ** 2))
                for j, c in enumerate(taylor)]
        # to 1e-10 relative, or to the solves' roundoff, 1e-15 of harmonic 0
        for got, expect in zip(probe.harmonic_norms, want, strict=True):
            assert abs(got - expect) <= 1e-10 * expect + 1e-15 * want[0]
        ratio = radius / abs(centre - 1j * m / (m * m - 1))
        assert abs(probe.geometric_ratio - ratio) <= 1e-9 * ratio

    def test_harmonics_decay_geometrically(self, cubic_problem):
        sigma = 0.05
        dom = EpsilonDomain.cone(sigma, 5.0)
        probe = rs.analyticity_probe(1.5 * sigma, 0.2 * sigma, cubic_problem,
                                     rs.SolverConfig(tol=1e-12, ball_radius=1.0),
                                     domain=dom)
        assert probe.decay_ratios
        assert max(probe.decay_ratios) <= 0.5
        assert probe.cauchy_vs_fd <= 1e-6

    def test_circle_leaving_domain_rejected(self, cubic_problem):
        dom = EpsilonDomain.cone(0.05, 100.0)
        with pytest.raises(ValueError):
            rs.analyticity_probe(0.075, 0.01, cubic_problem,
                                 rs.SolverConfig(tol=1e-10), domain=dom)

    def test_radius_uniform_along_the_annulus(self, cubic_problem):
        # geometric decay with the same relative radius at both ends of the
        # annulus: the analyticity radius does not collapse inside it
        sigma = 0.05
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        for center in (1.1 * sigma, 1.9 * sigma):
            probe = rs.analyticity_probe(center, 0.1 * sigma, cubic_problem,
                                         cfg, points=8)
            assert probe.decay_ratios
            assert max(probe.decay_ratios) <= 0.5


def _ode_cubic(cubic_problem):
    return rs.solve_fixed_point, cubic_problem, 0.05


def _pde_manufactured(cubic_problem):
    prob, _, eps = manufactured_pde(K=8)
    return rs.pde_solve_fixed_point, prob, eps


def _ode_resonant(cubic_problem):
    # k = 1 divisor -eps + i + 2 eps vanishes exactly at eps = -i
    lat = rs.SpectralLattice(d=1, K=4, omega=(1.0,))
    prob = rs.OdeProblem(lattice=lat, linear=rs.LinearPart.scalar(2.0),
                         g_hat=rs.NonlinearitySpec.zero(),
                         forcing=cos_forcing(lat, 1.0))
    return rs.solve_fixed_point, prob, -1j


def _pde_resonant(cubic_problem):
    # the (k, j) = (1, -1) symbol -eps + i - eps (2 - 1) vanishes exactly at eps = i/2
    lat = rs.SpectralLattice(d=1, K=4, omega=(1.0,), has_space=True, J=4)
    prob = rs.PdeProblem(lattice=lat, beta=2.0,
                         forcing=rs.FourierField.from_modes(lat, {(1, 1): 0.5,
                                                                  (-1, -1): 0.5}))
    return rs.pde_solve_fixed_point, prob, 0.5j


def _one_solver(case):
    """``case`` with its problem handed to ``solve_fixed_point`` itself."""
    return lambda cubic_problem: (rs.solve_fixed_point,) + case(cubic_problem)[1:]


class TestContractExits:
    """Every exit of the shared Picard driver, reached through both problem
    kinds and both names of the solver."""

    @pytest.mark.parametrize("case, cfg, status, iterations", [
        (_ode_cubic, rs.SolverConfig(tol=1e-12, ball_radius=1e-9), "left_ball", 1),
        (_pde_manufactured, rs.SolverConfig(tol=1e-12, ball_radius=1e-9),
         "left_ball", 1),
        (_ode_cubic, rs.SolverConfig(tol=1e-15, max_iter=1, ball_radius=1.0),
         "max_iter", 1),
        (_pde_manufactured, rs.SolverConfig(tol=1e-15, max_iter=1), "max_iter", 1),
        (_ode_resonant, rs.SolverConfig(tol=1e-12), "resonant", 0),
        (_pde_resonant, rs.SolverConfig(tol=1e-12), "resonant", 0),
        (_one_solver(_pde_manufactured), rs.SolverConfig(tol=1e-12, ball_radius=1e-9),
         "left_ball", 1),
        (_one_solver(_pde_manufactured), rs.SolverConfig(tol=1e-15, max_iter=1),
         "max_iter", 1),
        (_one_solver(_pde_resonant), rs.SolverConfig(tol=1e-12), "resonant", 0),
    ], ids=["ode-left_ball", "pde-left_ball", "ode-max_iter", "pde-max_iter",
            "ode-resonant", "pde-resonant", "pde-left_ball-solve_fixed_point",
            "pde-max_iter-solve_fixed_point", "pde-resonant-solve_fixed_point"])
    @pytest.mark.filterwarnings("error")
    def test_exit_status_and_trace(self, cubic_problem, case, cfg, status,
                                   iterations):
        solve, prob, eps = case(cubic_problem)
        _, rep = solve(eps, prob, cfg)
        assert rep.status == status
        assert rep.iterations == iterations == len(rep.increments)
        assert len(rep.ratios) == max(len(rep.increments) - 1, 0)
        assert ("error" in rep.diagnostics) == (status == "resonant")

    @pytest.mark.parametrize("case, named", [
        (_ode_resonant, "singular scalar divisor at k=(-2,)"),
        (_pde_resonant, "resonant PDE mode at (k, j)=(1, -1)"),
    ], ids=["ode", "pde"])
    def test_resonance_names_its_mode(self, cubic_problem, case, named):
        solve, prob, eps = case(cubic_problem)
        _, rep = solve(eps, prob, rs.SolverConfig(tol=1e-12))
        assert rep.status == "resonant"
        assert rep.diagnostics["error"] == named

    @pytest.mark.parametrize("case, cfg", [
        (_pde_manufactured, rs.SolverConfig(tol=1e-12, ball_radius=1.0)),
        (_pde_resonant, rs.SolverConfig(tol=1e-12)),
    ], ids=["manufactured", "resonant"])
    def test_pde_name_gives_what_solve_fixed_point_gives(self, cubic_problem, case,
                                                         cfg):
        _, prob, eps = case(cubic_problem)
        U, rep = rs.solve_fixed_point(eps, prob, cfg)
        V, rep_pde = rs.pde_solve_fixed_point(eps, prob, cfg)
        assert np.array_equal(U.coeffs, V.coeffs)
        # through JSON, so that the nan fields of a resonant report compare
        assert json.dumps(cli._sanitize(asdict(rep))) == \
            json.dumps(cli._sanitize(asdict(rep_pde)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_keeps_the_trace(self, tmp_path):
        prob = parse_problem(diverging_cubic_problem(tmp_path / "p.json"))
        U, rep = rs.solve_fixed_point(0.5, prob, rs.SolverConfig(tol=1e-11))
        assert rep.status == "diverged"
        assert rep.iterations == len(rep.increments) >= 1
        assert len(rep.ratios) == len(rep.increments) - 1
        assert all(math.isfinite(x) for x in rep.increments)
        assert np.all(np.isfinite(U.coeffs))
        assert rep.diagnostics["error"]


    @pytest.mark.parametrize("eps", [0.05, 0.05 + 0.01j], ids=["real", "complex"])
    def test_nan_nonlinearity_diverges_after_its_first_iterate(self, lat1d, eps):
        """A g that is NaN off zero ends the solve diverged with its trace
        at either eps; at real eps the first iterate's aliasing estimate
        records the failure as nan instead of raising it."""
        def g(x):
            return np.full_like(x, np.nan) if np.any(x != 0) else np.zeros_like(x)

        prob = rs.OdeProblem(
            lattice=lat1d, linear=rs.LinearPart.scalar(1.0),
            g_hat=rs.NonlinearitySpec(kind="callable", fn=g, lip_hat=0.05,
                                      smallness="global"),
            forcing=cos_forcing(lat1d, 0.5),
        )
        U, rep = rs.solve_fixed_point(eps, prob, rs.SolverConfig(tol=1e-12))
        assert rep.status == "diverged" and rep.diagnostics["error"]
        assert rep.iterations == len(rep.increments) == 1
        assert np.all(np.isfinite(U.coeffs)) and U.max_abs() > 0
        if isinstance(eps, float):
            assert math.isnan(rep.diagnostics["aliasing_estimate"])
        else:
            assert "aliasing_estimate" not in rep.diagnostics


class TestLowRegularity:
    def test_iteration_budget_exhausted_is_not_converged(self):
        prob = parse_problem(PROBLEMS / "lowreg_ode.json")
        res = rs.low_regularity_solve(0.05, prob,
                                      rs.SolverConfig(tol=1e-12, max_iter=2), [0.0])
        assert res.report.status == "max_iter"
        assert res.report.iterations == 2
        assert res.report.fp_residual > 1e-12

    def test_hs_increments_follow_the_l2_iterations(self, lowreg_problem):
        res = rs.low_regularity_solve(0.05, lowreg_problem,
                                      rs.SolverConfig(tol=1e-12, max_iter=60),
                                      [0.0, 0.5])
        assert res.report.status == "converged"
        # the solvers' kappa: low-reg runs solve_fixed_point
        _, solved = rs.solve_fixed_point(0.05, lowreg_problem, rs.SolverConfig(tol=1e-12))
        assert res.report.kappa == solved.kappa and math.isfinite(solved.kappa)
        for seq in res.increments.values():
            assert len(seq) == res.report.iterations

    def test_nan_nonlinearity_diverges_with_trace(self, lat1d):
        # finite at the zero start, NaN from the second step on
        def g(x):
            return np.full_like(x, np.nan) if np.any(x != 0) else np.zeros_like(x)

        prob = rs.OdeProblem(
            lattice=lat1d, linear=rs.LinearPart.scalar(1.0),
            g_hat=rs.NonlinearitySpec(kind="callable", fn=g, lip_hat=0.05,
                                      smallness="global"),
            forcing=cos_forcing(lat1d, 0.5),
        )
        res = rs.low_regularity_solve(0.05, prob, rs.SolverConfig(tol=1e-12),
                                      [0.0, 0.5])
        assert res.report.status == "diverged"
        assert res.report.diagnostics["error"]
        assert res.report.iterations == len(res.report.increments) == 1
        for seq in res.increments.values():
            assert len(seq) == 1 and math.isfinite(seq[0])

    @pytest.mark.parametrize("which", ["shipped", "linear", "callable"])
    def test_stops_on_the_first_small_l2_increment(self, request, lat1d, which):
        """The solvers' residual test never binds: U_n = eps L^-1 [f - G(U_{n-1})]
        gives residual(U_n) <= |eps| M ||dU|| < kappa ||dU||, so the solve
        stops at the first L^2 increment <= tol."""
        if which == "shipped":
            prob = parse_problem(PROBLEMS / "lowreg_ode.json")
        elif which == "linear":
            prob = request.getfixturevalue("linear_problem")
        else:
            prob = rs.OdeProblem(
                lattice=lat1d, linear=rs.LinearPart.scalar(1.0),
                g_hat=rs.NonlinearitySpec(kind="callable", fn=lambda x: 0.05 * np.sin(x),
                                          lip_hat=0.05, smallness="global"),
                forcing=cos_forcing(lat1d, 0.5),
            )
        tol = 1e-12
        res = rs.low_regularity_solve(0.05, prob, rs.SolverConfig(tol=tol, max_iter=80),
                                      [0.0, 0.5])
        increments = res.report.increments
        assert res.report.status == "converged"
        assert res.report.iterations == 1 + next(
            i for i, inc in enumerate(increments) if inc <= tol)

    def test_resonant_eps_ends_resonant(self, cubic_problem):
        _, prob, eps = _ode_resonant(cubic_problem)
        assert prob.g_hat.lip_hat is not None
        res = rs.low_regularity_solve(eps, prob, rs.SolverConfig(tol=1e-12), [0.0, 0.5])
        assert res.report.status == "resonant"
        assert res.report.iterations == 0
        assert res.report.diagnostics["error"] == "singular scalar divisor at k=(-2,)"
        assert math.isnan(res.l2_ratio)
        for s in (0.0, 0.5):
            assert res.increments[s] == []
            assert math.isnan(res.fitted_rates[s]) and math.isnan(res.predicted_rates[s])

    def test_zero_lipschitz_single_step(self, linear_problem):
        res = rs.low_regularity_solve(0.05, linear_problem,
                                      rs.SolverConfig(tol=1e-12), [0.0, 0.5])
        assert res.report.iterations <= 2

    def test_s_zero_row_equals_l2_ratio(self, lowreg_problem):
        res = rs.low_regularity_solve(0.05, lowreg_problem,
                                      rs.SolverConfig(tol=1e-12, max_iter=60),
                                      [0.0, 0.5])
        assert_allclose(res.fitted_rates[0.0], math.log(res.l2_ratio), rtol=1e-12)
        assert_allclose(res.predicted_rates[0.0], res.fitted_rates[0.0], rtol=1e-12)

    def test_l2_ratio_below_contraction_product(self, lowreg_problem):
        res = rs.low_regularity_solve(0.05, lowreg_problem,
                                      rs.SolverConfig(tol=1e-12, max_iter=60),
                                      [0.0])
        c_emp = res.report.diagnostics["c_emp"]
        assert res.l2_ratio <= c_emp * 0.05 * (1 + 1e-9)

    def test_hs_increments_obey_interpolation_upper_bound(self, lowreg_problem):
        # the proven estimate: ||T^{n+1}u - T^n u||_{H^s}
        #   <= C (M^n)^{1-s} (2r)^s ||T(u) - u||_{L2}^{1-s}
        res = rs.low_regularity_solve(0.05, lowreg_problem,
                                      rs.SolverConfig(tol=1e-12, max_iter=60),
                                      [0.25, 0.5, 0.75])
        c_emp = res.report.diagnostics["c_emp"]
        M = 0.05
        f_h1 = rs.norm(lowreg_problem.forcing, rs.NormSpec(0.0, 1))
        r = c_emp * f_h1 / (1 - c_emp * M)
        first_l2 = res.report.increments[0]
        for s, seq in res.increments.items():
            for n, val in enumerate(seq):
                bound = 10 * c_emp * ((c_emp * M) ** n) ** (1 - s) \
                    * (2 * r) ** s * first_l2 ** (1 - s)
                assert val <= bound

    def test_rejects_supercritical_lipschitz(self, lat1d, monkeypatch):
        """The first iterate of a g with g(0) = 0 is the map's eps L^-1 f, so
        the contraction check runs before the step or the residual
        composes g once."""
        prob = rs.OdeProblem(
            lattice=lat1d, linear=rs.LinearPart.scalar(1.0),
            g_hat=rs.NonlinearitySpec.piecewise([0.0], [-2.0, 2.0]),
            forcing=cos_forcing(lat1d, 0.5),
        )

        def no_step(*args):
            raise AssertionError("a Picard step ran")

        monkeypatch.setattr(ode_mod, "compose", no_step)
        with pytest.raises(ValueError, match=r"^not a contraction: C_emp \* M = .* >= 1$"):
            rs.low_regularity_solve(0.05, prob, rs.SolverConfig(tol=1e-10), [0.0])


class TestDecayFitOnSolverOutput:
    def test_solution_inherits_forcing_analyticity(self, rng):
        lat = rs.SpectralLattice(d=1, K=16, omega=(1.0,))
        forcing = random_real(lat, rng, decay=0.5)
        # zero the mean to satisfy the problem invariant
        coeffs = forcing.coeffs.copy()
        coeffs[lat.K] = 0.0
        forcing = rs.FourierField(lat, coeffs)
        prob = rs.OdeProblem(lattice=lat, linear=rs.LinearPart.scalar(1.0),
                             g_hat=rs.NonlinearitySpec.zero(), forcing=forcing)
        U, rep = rs.solve_fixed_point(0.05, prob, rs.SolverConfig(tol=1e-13))
        assert rep.status == "converged"
        _, rho_est = cauchy_decay_fit(U, floor=1e-14 * U.max_abs())
        assert rho_est >= 0.5 - 0.1


def radau_crosscheck(eps, prob, U, horizon, t_skip, perturbation):
    """(tracking, attraction) from Radau on p x'' + (q / eps) x' + A x
    + g_hat(x) = f(omega t), written here apart from the library's RHS."""
    lin, n = prob.linear, prob.lattice.n
    freqs = prob.lattice.k_dot_omega().ravel()

    def at(field, t):
        """Re sum_k field_k e^{i k.omega t}, one row per time."""
        return (np.exp(1j * np.multiply.outer(t, freqs))
                @ field.coeffs.reshape(-1, n)).real

    def rhs(t, y):
        x, v = y[:n], y[n:]
        force = at(prob.forcing, t) - lin.array @ x - prob.g_hat(x[None, :])[0]
        return np.concatenate([v, (force - lin.q_diagonal * v / eps) / lin.p_diagonal])

    x0 = at(U, 0.0) + perturbation
    v0 = at(rs.directional_derivative(U, 1), 0.0)
    sol = solve_ivp(rhs, (0.0, horizon), np.concatenate([x0, v0]), method="Radau",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    assert sol.success
    ts = np.linspace(t_skip, horizon, 2001)
    errors = np.max(np.abs(sol.sol(ts)[:n].T - at(U, ts)), axis=1)
    return np.max(errors), errors[-1]


class TestTimeIntegration:
    def test_linear_tracks_exact_orbit(self, linear_problem):
        eps = 0.05
        U = exact_linear_solution(linear_problem.lattice, eps)
        chk = rs.time_integration_crosscheck(eps, linear_problem, U,
                                             horizon=40.0, t_skip=5.0)
        assert chk.tracking_error <= 1e-8

    def test_tracking_from_the_start_time(self, linear_problem):
        # t_skip = 0: the first sample time is the start time itself
        eps = 0.05
        U = exact_linear_solution(linear_problem.lattice, eps)
        chk = rs.time_integration_crosscheck(eps, linear_problem, U,
                                             horizon=40.0, t_skip=0.0)
        assert chk.tracking_error <= 1e-8

    @pytest.fixture
    def piecewise_problem(self, cubic_problem):
        """The cubic problem with a piecewise-linear g_hat whose breakpoints
        lie inside the orbit (|x| <= 0.01)."""
        return replace(cubic_problem, g_hat=rs.NonlinearitySpec.piecewise(
            [-0.004, 0.003], [0.2, -0.05, 0.1]))

    @pytest.mark.parametrize("problem, eps", [("cubic_ode.json", 0.05),
                                              ("cubic_ode.json", 0.005),
                                              ("jordan_ode.json", 0.05),
                                              # the p = 2, q = 3 diagonals
                                              ("pq_problem", 0.05),
                                              # a non-polynomial g_hat.point
                                              ("piecewise_problem", 0.05)])
    def test_default_method_agrees_with_radau(self, problem, eps, request):
        prob = (parse_problem(PROBLEMS / problem) if problem.endswith(".json")
                else request.getfixturevalue(problem))
        U, rep = rs.solve_fixed_point(eps, prob,
                                      rs.SolverConfig(tol=1e-12, ball_radius=1.0))
        assert rep.status == "converged"
        for perturbation in (0.0, 0.1):
            got = rs.time_integration_crosscheck(eps, prob, U, horizon=20.0,
                                                 t_skip=2.0, perturbation=perturbation)
            tracking, attraction = radau_crosscheck(eps, prob, U, horizon=20.0,
                                                    t_skip=2.0,
                                                    perturbation=perturbation)
            assert abs(got.tracking_error - tracking) <= 1e-8
            assert abs(got.attraction_error - attraction) <= 1e-8

    def test_complex_eps_rejected(self, linear_problem):
        U = exact_linear_solution(linear_problem.lattice, 0.05)
        with pytest.raises(ValueError):
            rs.time_integration_crosscheck(0.05 + 0.01j, linear_problem, U)

    @pytest.fixture
    def cubic_hull(self, cubic_problem):
        U, _ = rs.solve_fixed_point(0.05, cubic_problem,
                                    rs.SolverConfig(tol=1e-12, ball_radius=1.0))
        return U

    def test_non_finite_start_rejected(self, cubic_problem, cubic_hull):
        U = rs.FourierField(cubic_problem.lattice, cubic_hull.coeffs * np.nan)
        with pytest.raises(ValueError, match="initial state"):
            rs.time_integration_crosscheck(0.05, cubic_problem, U)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_trajectory_raises(self, cubic_problem, cubic_hull):
        nan_past = rs.NonlinearitySpec(
            kind="callable", fn=lambda x: np.where(np.abs(x) > 0.005, np.nan, 0.0 * x),
            lip_hat=0.1, smallness="global")
        prob = replace(cubic_problem, g_hat=nan_past)
        with pytest.raises(RuntimeError, match="integrator failed"):
            rs.time_integration_crosscheck(0.05, prob, cubic_hull, horizon=20.0)

    @pytest.mark.filterwarnings("error")
    def test_failed_exit_raises(self, cubic_problem, cubic_hull, monkeypatch):
        monkeypatch.setattr(ode_mod, "CROSSCHECK_MXSTEP", 5)
        with pytest.raises(RuntimeError, match="integrator failed: Excess work"):
            rs.time_integration_crosscheck(0.05, cubic_problem, cubic_hull,
                                           horizon=20.0)


class TestGeneralizedPQ:
    """p = 2, q = 3: the inverse, the residual and the integrator share one operator."""

    def test_solve_converges_with_small_residual(self, pq_problem):
        cfg = rs.SolverConfig(tol=1e-12, ball_radius=1.0)
        U, rep = rs.solve_fixed_point(0.05, pq_problem, cfg)
        assert rep.status == "converged"
        assert rs.residual(U, 0.05, pq_problem) <= rep.kappa * cfg.tol

    def test_crosscheck_tracks_the_hull(self, pq_problem):
        U, rep = rs.solve_fixed_point(0.05, pq_problem,
                                      rs.SolverConfig(tol=1e-12, ball_radius=1.0))
        assert rep.status == "converged"
        chk = rs.time_integration_crosscheck(0.05, pq_problem, U, horizon=20.0,
                                             t_skip=2.0)
        assert chk.tracking_error <= 1e-6


class TestSolveReportSerialization:
    def test_report_round_trips_json(self, cubic_problem):
        """The CLI writes a report as ``asdict`` through ``_sanitize``, which
        writes a complex eps as [re, im]."""
        _, rep = rs.solve_fixed_point(0.05 + 0j, cubic_problem,
                                      rs.SolverConfig(tol=1e-10, ball_radius=1.0))
        parsed = json.loads(json.dumps(cli._sanitize(asdict(rep))))
        assert parsed["eps"] == [0.05, 0.0]
        assert parsed["status"] == "converged"
        assert parsed["iterations"] == rep.iterations
