"""Property tests over random inputs (derandomized profile in conftest)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import response_solver as rs  # noqa: E402
from response_solver.multipliers import gamma_bound  # noqa: E402
from response_solver.spectral import L2  # noqa: E402


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
    np.testing.assert_allclose(rs.product(u, v).coeffs, direct, rtol=0,
                               atol=1e-14 * scale)
