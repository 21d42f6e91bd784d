"""Property tests over random inputs (derandomized profile in conftest)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

import response_solver as rs  # noqa: E402
from response_solver.multipliers import gamma_bound  # noqa: E402


def nonzero(lo, hi):
    return st.floats(lo, hi) | st.floats(-hi, -lo)


@example(lam=1.0, p=2.0, q=0.1, omega=0.7036, eps=0.5)
@given(lam=nonzero(0.1, 10.0), p=nonzero(0.05, 5.0), q=nonzero(0.01, 5.0),
       omega=st.floats(0.3, 3.0), eps=nonzero(1e-3, 2.0))
def test_real_eps_bound_covers_the_lattice(lam, p, q, omega, eps):
    lat = rs.SpectralLattice(d=1, K=8, omega=(omega,))
    linear = rs.LinearPart(((lam,),), (rs.JordanBlock(lam, 1, p=p, q=q),))
    gb = gamma_bound(eps, linear, lat)
    assert gb.exact
    assert gb.certified >= gb.empirical * (1 - 1e-12)
