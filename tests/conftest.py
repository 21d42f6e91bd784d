import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import response_solver as rs

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

try:
    from hypothesis import settings
except ImportError:     # the property tests skip themselves without it
    pass
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile("derandomized", derandomize=True, database=None,
                              deadline=None)
    settings.load_profile("derandomized")
    # Hypothesis draws about one value in twenty from the constants it finds
    # in the local modules imported so far, so the examples would depend on
    # which tests ran first; with that pool kept empty they do not.
    from hypothesis.internal.conjecture import providers

    _NO_LOCAL_CONSTANTS = providers.Constants()
    providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS
    providers.CONSTANTS_CACHE.cache.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def lat1d():
    return rs.SpectralLattice(d=1, K=16, omega=(1.0,))


@pytest.fixture
def lat2d():
    return rs.SpectralLattice(d=2, K=8, omega=(1.0, np.sqrt(2.0)))


@pytest.fixture
def pde_lattice():
    return rs.SpectralLattice(d=2, K=8, omega=(1.0, np.sqrt(2.0)), n=1,
                              has_space=True, J=8)


def cos_forcing(lat, amplitude, k=(1,)):
    mk = tuple(k)
    half = np.full(lat.n, 0.0, dtype=complex)
    half[0] = amplitude / 2.0
    return rs.FourierField.from_modes(lat, {mk: half, tuple(-c for c in mk): half.copy()})


@pytest.fixture
def linear_problem(lat1d):
    """Scalar linear response problem: solution eps sin(theta) for f = cos."""
    return rs.OdeProblem(
        lattice=lat1d,
        linear=rs.LinearPart.scalar(1.0),
        g_hat=rs.NonlinearitySpec.zero(),
        forcing=cos_forcing(lat1d, 1.0),
    )


@pytest.fixture
def pq_problem():
    """A = 1 whose block scales the second-order term by p = 2 and the
    first-order term by q = 3; g-hat = 0.1 x^3, f = 0.1 cos, d = 1, K = 8."""
    lat = rs.SpectralLattice(d=1, K=8, omega=(1.0,))
    return rs.OdeProblem(
        lattice=lat,
        linear=rs.LinearPart(((1.0,),), (rs.JordanBlock(1.0, 1, p=2.0, q=3.0),)),
        g_hat=rs.NonlinearitySpec.cubic(0.1),
        forcing=cos_forcing(lat, 0.1),
    )


@pytest.fixture
def cubic_problem(lat1d):
    """The reference nonlinear example: A=1, g-hat = 0.1 x^3, f = 0.2 cos."""
    return rs.OdeProblem(
        lattice=lat1d,
        linear=rs.LinearPart.scalar(1.0),
        g_hat=rs.NonlinearitySpec.cubic(0.1),
        forcing=cos_forcing(lat1d, 0.2),
    )


def sawtooth_forcing(lat, amplitudes=(1.0, 0.7)):
    """Truncated sawtooth profiles along each torus axis."""
    modes = {}
    K = lat.K
    for axis, amp in enumerate(amplitudes[: lat.d]):
        for k in range(1, K + 1):
            c = amp * ((-1) ** (k + 1)) / (2j * k)
            mk = [0] * lat.d
            mk[axis] = k
            plus, minus = tuple(mk), tuple(-m for m in mk)
            vec = np.zeros(lat.n, dtype=complex)
            vec[0] = c
            modes[plus] = modes.get(plus, 0) + vec
            modes[minus] = modes.get(minus, 0) + np.conj(vec)
    return rs.FourierField.from_modes(lat, modes)


@pytest.fixture
def lowreg_problem():
    lat = rs.SpectralLattice(d=2, K=16, omega=(1.0, np.sqrt(2.0)))
    return rs.OdeProblem(
        lattice=lat,
        linear=rs.LinearPart.scalar(1.0),
        g_hat=rs.NonlinearitySpec.piecewise([0.0], [-0.05, 0.05]),
        forcing=sawtooth_forcing(lat),
    )


def manufactured_pde(K, eps=0.02, beta=2.0, amplitude=0.01, nonlinear=True, second=0.0):
    """W = amplitude cos(theta_1) cos(x) + second cos(theta_2) cos(2x) with
    forcing back-solved to make it exact.  ``second`` excites the modes off
    the k2 = 0 sublattice, so the solve is quasi-periodic in earnest."""
    from response_solver.pde import PdeProblem, manufactured_forcing

    lat = rs.SpectralLattice(d=2, K=K, omega=(1.0, np.sqrt(2.0)), n=1,
                             has_space=True, J=K)
    modes = {(k1, 0, j): np.array([amplitude / 4.0 + 0j]) for k1 in (1, -1) for j in (1, -1)}
    if second:
        modes.update({(0, k2, j): np.array([second / 4.0 + 0j])
                      for k2 in (1, -1) for j in (2, -2)})
    W = rs.FourierField.from_modes(lat, modes)
    template = PdeProblem(lattice=lat, beta=beta,
                          forcing=rs.FourierField.zeros(lat), nonlinear=nonlinear)
    f = manufactured_forcing(W, eps, template)
    prob = PdeProblem(lattice=lat, beta=beta, forcing=f, nonlinear=nonlinear)
    return prob, W, eps


def diverging_cubic_problem(path):
    """The shipped cubic problem with coefficient 5 and forcing amplitude 200."""
    doc = json.loads((PROBLEMS / "cubic_ode.json").read_text())
    doc["nonlinearity"]["coeffs"] = [[0.0, 0.0, 0.0, 5.0]]
    doc["forcing"][0]["amplitude"] = 200.0
    path.write_text(json.dumps(doc))
    return path


def peak_rise(fn, *args) -> int:
    """Bytes that ``fn(*args)`` holds at its peak beyond what was held
    before the call, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
