"""Property tests over random inputs (derandomized profile in conftest)."""

import copy
import csv
import importlib
import json
import math
import sys
import tempfile
from pathlib import Path

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
from response_solver.pde import PdeProblem, pde_certification_scan  # noqa: E402
from response_solver import cli, spectral  # noqa: E402
from response_solver.spectral import L2, dealias_grid  # noqa: E402

from conftest import PROBLEMS, cos_forcing  # noqa: E402
from reference import (  # noqa: E402
    from_jordan, hermitian_part, mode_solve, pde_picard_step, reference_row_magnitudes,
    reflected_conj,
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
    oracle = complex_oracle((u, v), dealias_grid(lat, 2, False))
    np.testing.assert_allclose(got.coeffs, oracle.coeffs, rtol=0,
                               atol=1e-14 * scale(u, v))


@settings(max_examples=40)
@given(lat=lattices(), c=st.floats(-2.0, 2.0), data=st.data())
def test_real_cubic_compose_matches_the_complex_path(lat, c, data):
    u = hermitian(lat, data)
    g = rs.NonlinearitySpec.cubic(c, lat.n)
    oracle = complex_oracle((u,), dealias_grid(lat, 3, False), g)
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
                          complex_oracle((u, u), dealias_grid(lat, 2, False)).coeffs)
    g = rs.NonlinearitySpec.cubic(0.5, lat.n)
    assert np.array_equal(rs.compose(u, g, False).coeffs,
                          complex_oracle((u,), dealias_grid(lat, 3, False), g).coeffs)


# -- spectrum CSVs: the rows above the roundoff floor --------------------------

@settings(max_examples=40, deadline=None)
@given(lat=lattices(), data=st.data())
def test_spectrum_tables_hold_the_rows_above_the_floor(lat, data):
    # magnitudes spread over 24 decades, so some rows fall below the floor
    decades = data.draw(arrays(int, lat.mode_shape, elements=st.integers(-24, 0)))
    u = rs.FourierField(lat, data.draw(coefficients(lat, 1.0))
                        * 10.0 ** decades[..., None])
    with tempfile.TemporaryDirectory() as out:
        spectrum = cli.write_spectrum_csv(u, rs.NormSpec(0.3, 1.5), Path(out), "s")
        tables = {}
        for suffix in ("by_index", "by_magnitude"):
            with open(Path(out) / f"s_{suffix}.csv", newline="") as fh:
                tables[suffix] = list(csv.reader(fh))[1:]
    floor = spectrum["roundoff_floor"]
    assert floor == spectral.roundoff_floor(u)
    assert sorted(tables["by_index"]) == sorted(tables["by_magnitude"])
    mags = reference_row_magnitudes(u)
    above = {tuple(int(i) - cut for i, cut in zip(idx, lat.cutoffs))
             for idx in np.ndindex(lat.mode_shape) if mags[idx] > floor}
    assert {tuple(int(k) for k in row[:lat.n_axes]) for row in tables["by_index"]} == above
    assert spectrum["rows"] == len(tables["by_index"])
    assert spectrum["rows"] + spectrum["rows_omitted"] == math.prod(lat.mode_shape)


def plan_lattices():
    """d = 1, 2, 3 tori, n = 1, 2, small enough for 3-D grids."""
    return st.builds(
        lambda d, K, n: rs.SpectralLattice(d=d, K=K, omega=(1.0, np.sqrt(2.0), np.pi)[:d],
                                           n=n),
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 2))


def plan_field(lat, data, real):
    """A Hermitian field for the real path, a general one otherwise."""
    if real:
        return hermitian(lat, data)
    return rs.FourierField(lat, data.draw(coefficients(lat, 1.0)))


def nonlinearities(n):
    """Polynomials whose coefficients include +0.0 and -0.0 (rows of any
    length, an empty one too), a piecewise-linear map and a callable."""
    rows = st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0]), max_size=4)
    return st.one_of(
        st.lists(rows, min_size=n, max_size=n).map(
            lambda r: rs.NonlinearitySpec.polynomial(r, smallness="global")),
        st.just(rs.NonlinearitySpec.piecewise([-0.5, 0.25], [0.1, -0.2, 0.3])),
        st.just(rs.NonlinearitySpec(kind="callable", fn=lambda x: np.sin(x) * x[..., ::-1],
                                    lip_hat=1.0, smallness="global")))


def same_bits(a, b):
    return a.coeffs.tobytes() == b.coeffs.tobytes()


@settings(max_examples=40)
@given(lat=plan_lattices(), real=st.booleans(), data=st.data())
def test_compose_through_a_plan_is_the_free_compose(lat, real, data):
    """A solve's plan gives the bits of a plan made per call, signed zeros
    included, on its first use and on its second."""
    g = data.draw(nonlinearities(lat.n))
    assume(real or g.kind != "piecewise_linear")
    plan = spectral.composition_plan(lat, g, real)
    for _ in range(2):
        u = plan_field(lat, data, real)
        assert same_bits(rs.compose(u, g, real, plan), rs.compose(u, g, real))


@settings(max_examples=40)
@given(lat=plan_lattices(), real=st.booleans(), square=st.booleans(), data=st.data())
def test_product_in_place_is_the_out_of_place_product(lat, real, square, data):
    """product overwrites its own padded array through the forward
    transform; the bits are those of a fresh product array analyzed."""
    grid = dealias_grid(lat, 2, real)
    u = plan_field(lat, data, real)
    v = u if square else plan_field(lat, data, real)
    pv = rs.synthesize(v, grid, real=real)
    fresh = rs.analyze(rs.synthesize(u, grid, real=real) * pv, lat)
    assert same_bits(rs.product(u, v, real), fresh)


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
    seen = []

    def observe(report, U, delta):
        assert np.all(U.space_average_slice() == 0.0)
        if is_real_eps(eps):
            assert U.hermitian_defect() == 0.0
        seen.append(report.iterations)

    _, report = rs.solve_fixed_point(eps, prob, cfg, observe=observe)
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


@settings(max_examples=80)
@given(d=st.integers(1, 2), K=st.integers(1, 6), n=st.integers(1, 2),
       rho=st.floats(0.0, 50.0), m=st.floats(0.0, 4.0), data=st.data())
def test_norm_matches_an_mpmath_sum(d, K, n, rho, m, data):
    """norm against sqrt(sum |u_k|^2 e^{2 rho |k|_1} (|k|^2 + 1)^m) summed in
    40 digits.  Each weighted term |u_k| w_k^(1/2) is drawn between 0.1
    and 10 (or is zero), so every term counts and the magnitudes span the
    weights' range, down to 1e-260: a coefficient whose square underflows
    may not be lost."""
    import mpmath

    lat = rs.SpectralLattice(d=d, K=K, omega=(1.0, math.sqrt(2.0))[:d], n=n)
    shape = lat.field_shape
    # every element drawn on its own (no fill value), so the terms differ
    terms = data.draw(arrays(float, shape, elements=st.floats(-1.0, 1.0),
                             fill=st.nothing()))
    phases = data.draw(arrays(float, shape, elements=st.floats(0.0, 2 * math.pi),
                              fill=st.nothing()))
    zero = data.draw(arrays(bool, shape, elements=st.booleans(), fill=st.nothing()))
    log10_root_weight = (rho * lat.k_l1() + 0.5 * m * np.log1p(lat.k_sq())) / math.log(10)
    exponents = terms - log10_root_weight[..., None]
    coeffs = np.where(zero, 0.0, 10.0 ** exponents * np.exp(1j * phases))
    f = rs.FourierField(lat, coeffs)
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for index in np.ndindex(lat.mode_shape):
            k = [i - cut for i, cut in zip(index, lat.cutoffs)]
            weight = mpmath.exp(2 * mpmath.mpf(rho) * sum(abs(c) for c in k)) \
                * (mpmath.mpf(sum(c * c for c in k)) + 1) ** mpmath.mpf(m)
            total += weight * sum(abs(mpmath.mpc(c)) ** 2 for c in coeffs[index])
        exact = float(mpmath.sqrt(total))
    assert rs.norm(f, rs.NormSpec(rho, m)) == pytest.approx(exact, rel=1e-12, abs=0.0)


# -- the L2 norm's one-pass sum ------------------------------------------------

def norm_lattices():
    """d = 1, 2, 3 tori, n = 1, 2, with and without a spatial axis."""
    return st.builds(
        lambda d, K, n, J: rs.SpectralLattice(d=d, K=K, omega=(1.0, math.sqrt(2.0), math.pi)[:d],
                                              n=n, has_space=J > 0, J=J),
        st.integers(1, 3), st.integers(1, 2), st.integers(1, 2), st.integers(0, 2))


# log10 of the sum of squares: around the edges of the window [1e-300, inf)
# of the one-pass sum, and far past them; a sum of 1e-300 or 1e300 puts the
# largest magnitude near the square-safe window's 1e-150 or 1e150
SUM_EXPONENTS = (-660.0, -616.0, -330.0, -310.0, -300.0001, -300.0, -299.9999, -299.0,
                 -280.0, 0.0, 298.0, 300.0, 302.0, 308.25, 308.2547, 308.26, 309.0, 400.0)


def scaled_coefficients(lat, data):
    """Coefficients at random phases and magnitudes spread over three
    decades, a drawn share of them zero, scaled so that their sum of squares
    is near 10^s, s drawn across the windows; now and then one NaN or
    infinite entry.  A drawn seed fills the arrays, which keeps the draws
    fast on the largest lattices."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shape = lat.field_shape
    zero = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.25, 0.9] * 3 + [1.0]))
    coeffs = np.where(zero, 0.0, 10.0 ** rng.uniform(-3.0, 0.0, shape)
                      * np.exp(1j * rng.uniform(0.0, 2 * math.pi, shape)))
    total = float(np.sum(np.abs(coeffs) ** 2))
    if total > 0.0:
        s = data.draw(st.sampled_from(SUM_EXPONENTS) | st.floats(-660.0, 400.0))
        # in two factors, each within the double range
        factor = 10.0 ** ((s - math.log10(total)) / 4)
        coeffs = coeffs * factor * factor
    special = data.draw(st.sampled_from([None] * 12 + [math.nan, math.inf, complex(-math.inf, 1.0),
                                                       complex(math.inf, math.nan)]))
    if special is not None:
        coeffs.flat[data.draw(st.integers(0, coeffs.size - 1))] = special
    return coeffs


def norm_outcome(fn, f):
    """fn(f, L2), or the type of the exception it raised."""
    try:
        return fn(f, L2)
    except (FloatingPointError, OverflowError) as exc:
        return type(exc)


def log_sum_of_squares(coeffs):
    """log of sum |u_k|^2 for finite coefficients, the parts scaled by a
    power of two so that no square leaves the double range that matters,
    and summed exactly (-inf for an all-zero field)."""
    parts = np.abs(np.ravel(coeffs).view(np.float64))
    top = float(parts.max())
    if top == 0.0:
        return -math.inf
    shift = math.frexp(top)[1]
    scaled = np.ldexp(parts, -shift)
    return math.log(math.fsum((scaled * scaled).tolist())) + 2 * shift * math.log(2.0)


@settings(max_examples=300)
@given(lat=norm_lattices(), data=st.data())
def test_l2_one_pass_sum_agrees_with_the_log_path(lat, data):
    """L2 and the log-space path give the same norm to 5e-14 and raise the
    same exception types.  A field whose sum of squares lies outside
    [1e-300, inf) falls back, so keeps the log path's bits, and one well
    inside the window takes the one-pass sum."""
    f = rs.FourierField(lat, scaled_coefficients(lat, data))
    log_path = spectral._log_space_norm
    fell_back = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_log_space_norm",
                   lambda *args: fell_back.append(True) or log_path(*args))
        got = norm_outcome(rs.norm, f)
    want = norm_outcome(log_path, f)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert got == pytest.approx(want, rel=5e-14, abs=0.0)
    if fell_back:
        assert got is want if isinstance(want, type) else got.hex() == want.hex()
    if np.all(np.isfinite(f.coeffs)):
        log_total = log_sum_of_squares(f.coeffs)
        margin = 1e-9
        if math.log(1e-300) + margin < log_total < math.log(np.finfo(float).max) - margin:
            assert not fell_back
        elif not math.log(1e-300) - margin <= log_total \
                < math.log(np.finfo(float).max) + margin:
            assert fell_back
    else:
        assert fell_back


@settings(max_examples=60)
@given(lat=norm_lattices(), data=st.data())
def test_l2_norm_bits_do_not_depend_on_the_field_address(lat, data):
    """The same field placed at every 8-byte offset of a larger buffer,
    so at every address modulo 64, gives the same norm bits."""
    coeffs = scaled_coefficients(lat, data)
    buffer = np.zeros(coeffs.nbytes + 64, dtype=np.uint8)
    outcomes, addresses = set(), set()
    for offset in range(0, 64, 8):
        placed = buffer[offset:offset + coeffs.nbytes].view(complex).reshape(coeffs.shape)
        placed[...] = coeffs
        addresses.add(placed.ctypes.data % 64)
        got = norm_outcome(rs.norm, rs.FourierField(lat, placed))
        outcomes.add(got if isinstance(got, type) else got.hex())
    assert len(addresses) == 8
    assert len(outcomes) == 1


# ---------------------------------------------------------------------------
# one-field mutations of the shipped ODE problems and run configs, generated
# from the CLI's schema tables; there are few enough (about 780, 1 s) to run
# every one rather than draw a sample


def _table_paths(doc, table, path=()):
    """The path of every field of ``doc`` that ``table`` reads, nested and
    list-item fields included, down to the first item of a list of numbers."""
    if isinstance(table, cli._Choice):
        table = table[table.pick(doc)]
    for key, (convert, *_) in table.items():
        if key not in doc:
            continue
        value, where = doc[key], path + (key,)
        yield where
        if isinstance(convert, dict):
            yield from _table_paths(value, convert, where)
        elif isinstance(convert, list) and isinstance(convert[0], dict):
            yield from _table_paths(value[0], convert[0], where + (0,))
        while isinstance(value, list) and value and not isinstance(value[0], dict):
            value, where = value[0], where + (0,)
            yield where


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _named(path) -> str:
    return ".".join(k for k in path if isinstance(k, str))


# the ranges the README states for the numbers of these documents, by field
_README_RANGES = {
    **dict.fromkeys(["d", "K", "n", "jordan.size", "solver.max_iter", "jobs",
                     "params.samples", "params.count", "params.samples_per_sigma",
                     "params.first_quotient", "params.K"], lambda x: x >= 1),
    **dict.fromkeys(["solver.tol", "solver.ball_radius", "params.radius", "params.growth",
                     "params.sigma", "params.mu", "params.domain.sigma",
                     "params.domain.mu", "params.sigmas", "params.eps_ladder"],
                    lambda x: x > 0),
    "solver.norm.rho": lambda x: x >= 0, "solver.norm.m": lambda x: x >= 0,
    "params.s_grid": lambda s: 0 <= s < 1, "params.levels": lambda x: 0 <= x <= 4,
    "jordan.lambda": lambda x: x != 0, "forcing.component": lambda c: c >= 0,
}
# a value past a stated upper bound, where there is one
_OUT_OF_RANGE = {"params.s_grid": 1.0, "params.levels": 5, "params.mu": 1e9,
                 "forcing.component": 2}


def _mutations(path, value):
    """(name, new value, whether the README calls it invalid) for one field."""
    field = _named(path)
    yield "wrong type", [] if isinstance(value, str) else "x", True
    yield "bool", True, True
    if isinstance(value, str) and field != "output_dir":
        yield "unknown name", "bogus", True
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return
    # only an epsilon takes a number written as a string (a complex one)
    yield "as a string", str(value), field != "params.epsilon"
    allowed = _README_RANGES.get(field, lambda x: True)
    if isinstance(value, int):
        yield "non-integral", 2.5, True
    yield "zero", 0 * value, not allowed(0 * value)
    yield "negative", -1 if isinstance(value, int) else -1.0, not allowed(-1)
    yield "nan", math.nan, True
    yield "inf", math.inf, field != "solver.ball_radius"
    if field in _OUT_OF_RANGE:
        yield "out of range", _OUT_OF_RANGE[field], True


def _mutation_cases():
    """(label, config, problem, path into config or problem, mutation)."""
    configs = PROBLEMS.parent / "configs"
    runs = [("solve_cubic", "cubic_ode", "config"), ("sweep_cubic", "cubic_ode", "config"),
            ("probe_cubic", "cubic_ode", "config"), ("lowreg", "lowreg_ode", "config"),
            ("verify_ode", "cubic_ode", "config"), ("demo_liouville", None, "config"),
            ("solve_cubic", "cubic_ode", "problem"), ("solve_cubic", "jordan_ode", "problem"),
            ("solve_cubic", "linear_ode", "problem"), ("lowreg", "lowreg_ode", "problem")]
    for config, problem, which in runs:
        cfg = json.loads((configs / f"{config}.json").read_text())
        prob = problem and json.loads((PROBLEMS / f"{problem}.json").read_text())
        if prob and problem != "lowreg_ode":
            prob["K"] = 4       # every forcing term fits; lowreg's reaches k = 16
        if which == "config":
            paths = [p for p in _table_paths(cfg, cli._CONFIG) if p[0] != "params"]
            paths += [("params",) + p for p in _table_paths(
                cfg["params"], cli.COMMANDS[cfg["command"]][2])]
        else:
            paths = list(_table_paths(prob, cli._PROBLEM))
        for path in paths:
            doc = cfg if which == "config" else prob
            label = f"{config}/{problem}: {which} {'.'.join(map(str, path))}"
            if isinstance(path[-1], str):
                yield f"{label} misspelled", cfg, prob, which, path, None
            for name, value, invalid in _mutations(path, _at(doc, path)):
                yield f"{label} {name}", cfg, prob, which, path, (value, invalid)


_STATUSES = {"max_iter", "left_ball", "resonant", "diverged"}


def test_one_field_mutations_exit_as_documented(tmp_path, capsys):
    """Every one-field mutation of a shipped ODE problem or run config that
    the README calls invalid (a misspelled key, a wrong type, a bool, a
    number written as a string, a fraction for a count, NaN, an infinity, a
    value outside a stated range) exits 4; any other exits 0, 2 or 3, and an exit 2 carries a solver
    status.  A misspelled key's message names it and the key it misspells."""

    wrong = []
    for i, (label, cfg, prob, which, path, mutation) in enumerate(_mutation_cases()):
        work = tmp_path / str(i)
        work.mkdir()
        cfg = {**copy.deepcopy(cfg), "output_dir": str(work / "out")}
        prob = copy.deepcopy(prob)
        if prob is not None:
            cfg["problem"] = str(work / "p.json")
        parent = _at(cfg if which == "config" else prob, path[:-1])
        if mutation is None:
            key = path[-1]
            misspelled = key + key[-1]
            parent[misspelled] = parent.pop(key)
        else:
            parent[path[-1]] = mutation[0]
        if prob is not None:
            (work / "p.json").write_text(json.dumps(prob))
        (work / "c.json").write_text(json.dumps(cfg))
        code = cli.main(["--config", str(work / "c.json")])
        result_file = work / "out" / "result.json"
        result = json.loads(result_file.read_text()) if result_file.exists() else {}
        stderr = capsys.readouterr().err
        message = result.get("error") or stderr
        invalid = mutation is None or mutation[1]
        if invalid and code != cli.EXIT_INPUT:
            wrong.append(f"{label}: exit {code}, not 4")
        elif code not in (0, 2, 3, 4):
            wrong.append(f"{label}: exit {code}")
        elif code == cli.EXIT_NOCONV and result.get("report", {}).get("status") not in _STATUSES:
            wrong.append(f"{label}: exit 2 without a solver status ({message})")
        elif mutation is None \
                and f".{misspelled}: unknown key; did you mean {key!r}?" not in message:
            wrong.append(f"{label}: {message}")
    assert not wrong, "\n".join(wrong)
