"""Property tests over random inputs (derandomized profile in conftest)."""

import importlib
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import response_solver as rs  # noqa: E402
from response_solver.multipliers import (  # noqa: E402
    divisor_infimum,
    gamma_bound,
    is_real_eps,
    l_eps,
    mode_matrices,
    operator_norms,
)
from response_solver.ode import contract  # noqa: E402
from response_solver.pde import PdeProblem, pde_certification_scan  # noqa: E402
from response_solver.spectral import L2, dealias_grid  # noqa: E402

from conftest import PROBLEMS, cos_forcing  # noqa: E402
from reference import (  # noqa: E402
    from_jordan, hermitian_part, mode_solve, pde_picard_step, reflected_conj,
)


def nonzero(lo, hi):
    return st.floats(lo, hi) | st.floats(-hi, -lo)


def coefficients(lat, max_magnitude):
    return arrays(complex, lat.field_shape,
                  elements=st.complex_numbers(max_magnitude=max_magnitude,
                                              allow_nan=False, allow_infinity=False))


@example(lam=1.0, p=2.0, q=0.1, omega=0.7036, eps=0.5)
@given(lam=nonzero(0.1, 10.0), p=nonzero(0.05, 5.0), q=nonzero(0.01, 5.0),
       omega=st.floats(0.3, 3.0), eps=nonzero(1e-3, 2.0))
def test_real_eps_bound_covers_the_lattice(lam, p, q, omega, eps):
    lat = rs.SpectralLattice(d=1, K=8, omega=(omega,))
    linear = rs.LinearPart(((lam,),), (rs.JordanBlock(lam, 1, p=p, q=q),))
    gb = gamma_bound(eps, linear, lat)
    assert gb.exact
    assert gb.certified >= gb.empirical * (1 - 1e-12)


def cone_eps(max_radius):
    """eps with 1e-3 <= |eps| <= max_radius in a cone Re eps >= mu |Im eps|."""
    return st.builds(lambda r, mu, t: r * np.exp(1j * t * np.arctan2(1.0, mu)),
                     st.floats(1e-3, max_radius), st.floats(0.5, 100.0),
                     st.floats(-1.0, 1.0))


# eps (lam - p a^2) cancels at a lattice point here, so rounding shows:
# mode_matrices must round its diagonal as l_eps does
@example(lam=1.0, p=0.05, q=0.015625, omega=1.21875, eps=1.0)
@given(lam=nonzero(0.1, 10.0), p=nonzero(0.05, 5.0), q=nonzero(0.01, 5.0),
       omega=st.floats(0.3, 3.0), eps=nonzero(1e-3, 2.0) | cone_eps(2.0))
def test_scalar_operator_norms_are_the_singular_values(lam, p, q, omega, eps):
    lat = rs.SpectralLattice(d=1, K=8, omega=(omega,))
    linear = rs.LinearPart(((lam,),), (rs.JordanBlock(lam, 1, p=p, q=q),))
    norms = operator_norms(eps, linear, lat)
    sv = np.linalg.svd(mode_matrices(eps, linear, lat.k_dot_omega()).reshape(-1, 1, 1),
                       compute_uv=False)
    inverse_sup = float(np.max(1.0 / sv[:, -1]))
    expect = {"forward_sup": float(np.max(sv[:, 0])), "inverse_sup": inverse_sup,
              "scaled_inverse_sup": abs(eps) * inverse_sup}
    assert norms.keys() == expect.keys()
    for key, value in expect.items():
        assert abs(norms[key] - value) <= 1e-15 * value, key
    # gamma_bound reads the same singular values
    empirical = gamma_bound(eps, linear, lat).empirical
    assert abs(empirical - inverse_sup) <= 1e-15 * inverse_sup


# -- exact divisor bounds on the cone ------------------------------------------
# a dense a-scan at step 1e-3 and the lattice values are both samples of the
# a-line, so the closed forms must bound them: the PDE supremum from above,
# the ODE infimum from below

A_SCAN = np.arange(-20.0, 20.0 + 5e-4, 1e-3)


# eps = 0.015+0.005j: the old scan gave 1.00002, the supremum is 1.05409; then
# the shipped verify_pde cone samples (1.0000125 and 1.0000500); then a real
# eps whose lattice maximum sits inside the range, next to a root at a != 0
@example(eps=0.015 + 0.005j, beta=2.0, J=8)
@example(eps=0.014999812512889614 - 7.499718768162693e-05j, beta=2.0, J=8)
@example(eps=0.014999250056245313 + 0.0001499925005624531j, beta=2.0, J=8)
@example(eps=0.3, beta=0.05, J=2)
@given(eps=cone_eps(0.5), beta=st.floats(0.05, 6.0), J=st.integers(1, 8))
def test_pde_supremum_bounds_the_scan_and_the_lattice(eps, beta, J):
    t = np.arange(1, J + 1, dtype=float) ** 2
    assume(np.min(np.abs(beta * t - 1.0)) > 1e-6)
    lat = rs.SpectralLattice(d=2, K=6, omega=(1.0, np.sqrt(2.0)), has_space=True, J=J)
    bound = pde_certification_scan(eps, beta, lat)
    assert bound.certified >= 1.0

    def quantity(a):
        return abs(eps) * (a ** 2 + t) / np.abs(l_eps(eps, t - beta * t * t, a))

    assert np.max(quantity(A_SCAN[:, None])) <= bound.certified * (1 + 1e-12)
    # the candidate points next to the roots give the full lattice pass's max
    kdw = np.unique(lat.k_dot_omega())
    full = np.max(quantity(kdw[:, None]))
    assert abs(bound.empirical - full) <= 1e-14 * full
    assert bound.empirical <= bound.certified * (1 + 1e-12)


def blocks(max_count=3):
    return st.lists(st.builds(lambda lam, p, q: rs.JordanBlock(lam, 1, p=p, q=q),
                              nonzero(0.1, 10.0), nonzero(0.05, 5.0), nonzero(0.01, 5.0)),
                    min_size=1, max_size=max_count)


# the 3.5% case: the old step-0.01 scan missed the minimum near a = -0.006
@example(eps=0.05 + 0.02j, blocks=[rs.JordanBlock(0.3, 1)], omega=1.0)
@given(eps=cone_eps(2.0), blocks=blocks(), omega=st.floats(0.3, 3.0))
def test_ode_infimum_bounds_the_scan_and_the_lattice(eps, blocks, omega):
    inf = divisor_infimum(eps, blocks)
    lattice = rs.SpectralLattice(d=1, K=8, omega=(omega,)).k_dot_omega().ravel()
    for b, m in zip(blocks, inf):
        for a in (A_SCAN, lattice):
            assert m <= np.min(np.abs(l_eps(eps, b.lam, a, b.p, b.q))) * (1 + 1e-12)


@given(sizes=st.lists(st.integers(1, 2), min_size=1, max_size=2),
       lams=st.lists(nonzero(0.1, 10.0), min_size=2, max_size=2),
       phi=arrays(float, (4, 4), elements=st.floats(-1.0, 1.0)),
       eps=nonzero(1e-3, 2.0) | cone_eps(2.0), a=st.floats(-20.0, 20.0),
       rhs=arrays(complex, 4, elements=st.complex_numbers(max_magnitude=10.0)))
def test_mode_solve_inverts_mode_matrices(sizes, lams, phi, eps, a, rhs):
    n = sum(sizes)
    basis = np.eye(n) + 0.5 * phi[:n, :n]
    assume(np.linalg.cond(basis) < 1e3)
    linear = from_jordan(list(zip(lams, sizes)), basis)
    M = mode_matrices(eps, linear, a)
    x = mode_solve(eps, a, linear, rhs[:n])
    scale = np.linalg.norm(M, 2) * np.linalg.norm(x) + np.linalg.norm(rhs[:n])
    assert np.linalg.norm(M @ x - rhs[:n]) <= 1e-13 * scale


@given(d=st.integers(1, 2), K=st.integers(1, 5), n=st.integers(1, 2), data=st.data())
def test_norm_is_parseval_on_the_grid(d, K, n, data):
    lat = rs.SpectralLattice(d=d, K=K, omega=(1.0, np.sqrt(2.0))[:d], n=n)
    f = rs.FourierField(lat, data.draw(coefficients(lat, 1e3)))
    grid_mean = np.mean(np.sum(np.abs(rs.synthesize(f)) ** 2, axis=-1))
    assert rs.norm(f, L2) ** 2 == pytest.approx(grid_mean, rel=1e-12)


@given(K=st.integers(1, 6), n=st.integers(1, 2), square=st.booleans(), data=st.data())
def test_product_is_the_truncated_convolution(K, n, square, data):
    lat = rs.SpectralLattice(d=1, K=K, omega=(1.0,), n=n)
    u = rs.FourierField(lat, data.draw(coefficients(lat, 1.0)))
    v = u if square else rs.FourierField(lat, data.draw(coefficients(lat, 1.0)))
    # full convolution index m is mode m - 2K; keep modes -K..K
    direct = np.stack([np.convolve(u.coeffs[:, c], v.coeffs[:, c])[K:3 * K + 1]
                       for c in range(n)], axis=-1)
    scale = np.sum(np.abs(u.coeffs)) * np.sum(np.abs(v.coeffs))
    np.testing.assert_allclose(rs.product(u, v, False).coeffs, direct, rtol=0,
                               atol=1e-14 * scale)


# -- real-data transforms for Hermitian fields --------------------------------

def lattices(max_cut=4):
    """d = 1, 2 with and without a spatial axis, n = 1, 2."""
    return st.builds(
        lambda d, K, n, J: rs.SpectralLattice(d=d, K=K, omega=(1.0, np.sqrt(2.0))[:d],
                                              n=n, has_space=J > 0, J=J),
        st.integers(1, 2), st.integers(1, max_cut), st.integers(1, 2),
        st.integers(0, max_cut))


def hermitian(lat, data):
    return hermitian_part(rs.FourierField(lat, data.draw(coefficients(lat, 1.0))))


def scale(*fields):
    return np.prod([np.sum(np.abs(f.coeffs)) for f in fields])


def complex_oracle(fields, grid, fn=np.multiply):
    """The complex path: full ifftn of each field, full fftn back."""
    vals = [rs.synthesize(f, grid) for f in fields]
    return rs.analyze(np.asarray(fn(*vals), dtype=complex), fields[0].lattice)


@settings(max_examples=40)
@given(lat=lattices(), extra=st.lists(st.integers(0, 3), min_size=3, max_size=3),
       data=st.data())
def test_real_round_trip_matches_the_complex_path(lat, extra, data):
    # extra points per axis give odd and even grid sizes
    grid = tuple(2 * cut + 1 + e for cut, e in zip(lat.cutoffs, extra))
    f = hermitian(lat, data)
    real, full = rs.synthesize(f, grid, real=True), rs.synthesize(f, grid)
    assert real.dtype == float
    np.testing.assert_allclose(real, full.real, rtol=0, atol=1e-14 * scale(f))
    back = rs.analyze(real, lat)
    np.testing.assert_allclose(back.coeffs, rs.analyze(full, lat).coeffs,
                               rtol=0, atol=1e-14 * scale(f))
    np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=0, atol=1e-14 * scale(f))


@settings(max_examples=40)
@given(lat=lattices(), square=st.booleans(), data=st.data())
def test_real_product_matches_the_complex_path(lat, square, data):
    u = hermitian(lat, data)
    v = u if square else hermitian(lat, data)
    got = rs.product(u, v, True)
    oracle = complex_oracle((u, v), dealias_grid(lat, 2))
    np.testing.assert_allclose(got.coeffs, oracle.coeffs, rtol=0,
                               atol=1e-14 * scale(u, v))


@settings(max_examples=40)
@given(lat=lattices(), c=st.floats(-2.0, 2.0), data=st.data())
def test_real_cubic_compose_matches_the_complex_path(lat, c, data):
    u = hermitian(lat, data)
    g = rs.NonlinearitySpec.cubic(c, lat.n)
    oracle = complex_oracle((u,), dealias_grid(lat, 3), g)
    np.testing.assert_allclose(rs.compose(u, g, True).coeffs, oracle.coeffs, rtol=0,
                               atol=1e-14 * (1 + abs(c)) * scale(u, u, u))


@settings(max_examples=40)
@given(lat=lattices(), extra=st.lists(st.integers(0, 3), min_size=3, max_size=3),
       data=st.data())
def test_analyze_of_real_values_equals_the_complex_transform(lat, extra, data):
    grid = tuple(2 * cut + 1 + e for cut, e in zip(lat.cutoffs, extra))
    x = data.draw(arrays(float, grid + (lat.n,),
                         elements=st.floats(-1e3, 1e3, allow_nan=False)))
    np.testing.assert_allclose(rs.analyze(x, lat).coeffs,
                               rs.analyze(x.astype(complex), lat).coeffs,
                               rtol=0, atol=1e-14 * (1 + np.max(np.abs(x))))


@settings(max_examples=40)
@given(lat=lattices(), data=st.data())
def test_anti_hermitian_part_keeps_the_complex_path(lat, data):
    # real=False keeps an anti-Hermitian part however small: this one is
    # below is_hermitian's tolerance, and the kernels do not scan for it
    base = hermitian(lat, data)
    anti = 1j * hermitian(lat, data)
    assume(base.max_abs() > 0.1 and anti.max_abs() > 0.1)
    u = base + 1e-14 * anti
    assert u.is_hermitian() and u.hermitian_defect() > 0.0
    assert np.array_equal(rs.product(u, u, False).coeffs,
                          complex_oracle((u, u), dealias_grid(lat, 2)).coeffs)
    g = rs.NonlinearitySpec.cubic(0.5, lat.n)
    assert np.array_equal(rs.compose(u, g, False).coeffs,
                          complex_oracle((u,), dealias_grid(lat, 3), g).coeffs)


@settings(max_examples=40)
@given(d=st.integers(1, 2), K=st.integers(1, 4), n=st.integers(1, 2),
       eps=nonzero(1e-3, 0.5), data=st.data())
def test_picard_step_keeps_hermitian_symmetry(d, K, n, eps, data):
    lat = rs.SpectralLattice(d=d, K=K, omega=(1.0, np.sqrt(2.0))[:d], n=n)
    forcing = hermitian(lat, data)
    forcing.coeffs[lat.cutoffs] = 0.0          # zero mean
    prob = rs.OdeProblem(lattice=lat, linear=from_jordan([(1.0, n)]),
                         g_hat=rs.NonlinearitySpec.cubic(0.3, n), forcing=forcing)
    U = rs.picard_step(hermitian(lat, data), eps, prob)
    assert U.hermitian_defect() <= 1e-14 * (1 + U.max_abs())


@settings(max_examples=40)
@given(d=st.integers(1, 2), K=st.integers(1, 4), J=st.integers(1, 4),
       eps=nonzero(1e-3, 0.5), data=st.data())
def test_pde_picard_step_keeps_hermitian_symmetry(d, K, J, eps, data):
    lat = rs.SpectralLattice(d=d, K=K, omega=(1.0, np.sqrt(2.0))[:d], has_space=True,
                             J=J)
    forcing = hermitian(lat, data).project_zero_space_average()
    prob = PdeProblem(lattice=lat, beta=2.0, forcing=forcing)
    U = pde_picard_step(hermitian(lat, data), eps, prob)
    assert U.hermitian_defect() <= 1e-14 * (1 + U.max_abs())


def boussinesq_lattices():
    """d = 1-3 tori, K <= 5, J <= 6."""
    return st.builds(
        lambda d, K, J: rs.SpectralLattice(d=d, K=K, omega=(1.0, np.sqrt(2.0), np.pi)[:d],
                                           has_space=True, J=J),
        st.integers(1, 3), st.integers(1, 5), st.integers(1, 6))


@settings(max_examples=40)
@given(lat=boussinesq_lattices(), eps=st.sampled_from([0.02, 0.03, 0.02 + 0.002j]),
       data=st.data())
def test_boussinesq_iterates_keep_their_invariants_exactly(lat, eps, data):
    """Every iterate of the Boussinesq map has an exactly zero j = 0 slab,
    and at real eps is exactly Hermitian: the step picks its transforms
    from eps alone and checks neither."""
    forcing = 1e-3 * hermitian(lat, data).project_zero_space_average()
    prob = PdeProblem(lattice=lat, beta=2.0, forcing=forcing)
    cfg = rs.SolverConfig(tol=1e-15, max_iter=6, ball_radius=1.0)
    report = rs.SolveReport(eps=eps)
    step, eq_residual, _, enforce_ball = prob.fixed_point_map(eps, cfg, report)
    seen = []

    def observe(it, U, delta):
        assert np.all(U.space_average_slice() == 0.0)
        if is_real_eps(eps):
            assert U.hermitian_defect() == 0.0
        seen.append(it)

    contract(step, eq_residual, rs.FourierField.zeros(lat), cfg, report, enforce_ball,
             observe)
    assert seen == list(range(1, report.iterations + 1)) and seen


@settings(max_examples=20)
@given(eps=cone_eps(0.05))
def test_conjugate_eps_gives_the_mirrored_conjugate_solution(eps):
    """U(conj eps) = conj U(eps)(-k), over the cone, for the cubic
    oscillator and a small Boussinesq problem."""
    from response_solver.cli import parse_problem

    lat = rs.SpectralLattice(d=2, K=3, omega=(1.0, np.sqrt(2.0)), has_space=True, J=3)
    pde = PdeProblem(lattice=lat, beta=2.0, forcing=cos_forcing(lat, 1e-3, k=(1, 0, 1)))
    cfg = rs.SolverConfig(tol=1e-13, max_iter=100, ball_radius=1.0)
    for prob in (parse_problem(PROBLEMS / "cubic_ode.json"), pde):
        U, report = rs.solve_fixed_point(eps, prob, cfg)
        V, conj_report = rs.solve_fixed_point(eps.conjugate(), prob, cfg)
        assert report.status == conj_report.status == "converged"
        assert np.max(np.abs(V.coeffs - reflected_conj(U))) <= 1e-14 * U.max_abs()


def test_draws_do_not_depend_on_the_modules_loaded(tmp_path, monkeypatch):
    """The derandomized profile draws the same examples whatever local
    modules were imported before, so in any test order: importing a module
    whose constants lie in the strategies' ranges between two runs of one
    property changes none of its examples."""
    def draws():
        seen = []

        @settings(max_examples=200)
        @given(st.integers(0, 10 ** 6), st.floats(-1e3, 1e3))
        def record(i, x):
            seen.append((i, x))

        record()
        return seen

    before = draws()
    (tmp_path / "constants_pool.py").write_text(
        "VALUES = [" + ", ".join(f"{i}, {i / 256}" for i in range(123457, 123557)) + "]\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        importlib.import_module("constants_pool")
        assert draws() == before
    finally:
        sys.modules.pop("constants_pool", None)
