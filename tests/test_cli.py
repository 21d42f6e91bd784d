import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import response_solver.cli as cli
from response_solver.cli import (
    EXIT_CERT,
    EXIT_INPUT,
    EXIT_NOCONV,
    EXIT_OK,
    InputError,
    RunConfig,
    parse_problem,
    run,
)
from response_solver.ode import OdeProblem
from response_solver.pde import PdeProblem
from response_solver.spectral import FourierField, NormSpec, SpectralLattice, log_weights

from conftest import diverging_cubic_problem
from reference import random_real

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "problems"
CONFIGS = REPO / "configs"


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def minimal_ode_doc(**overrides):
    doc = {
        "kind": "ode", "d": 1, "n": 1, "K": 4, "omega": ["1"],
        "A": [1.0],
        "nonlinearity": {"kind": "zero"},
        "forcing": [{"k": [1], "component": 0, "amplitude": 1.0,
                     "waveform": "cos"}],
    }
    doc.update(overrides)
    return doc


class TestParseProblem:
    def test_minimal_scalar_linear(self, tmp_path):
        p = write_json(tmp_path / "p.json", minimal_ode_doc())
        prob = parse_problem(p)
        assert isinstance(prob, OdeProblem)
        assert prob.lattice.n == 1 and prob.lattice.d == 1

    def test_shipped_problems_load(self):
        assert isinstance(parse_problem(PROBLEMS / "cubic_ode.json"), OdeProblem)
        assert isinstance(parse_problem(PROBLEMS / "lowreg_ode.json"), OdeProblem)
        assert isinstance(parse_problem(PROBLEMS / "boussinesq_pde.json"), PdeProblem)

    def test_bad_beta_names_the_integer(self, tmp_path):
        doc = {
            "kind": "pde", "d": 1, "K": 4, "J": 4, "omega": ["1"], "beta": 0.25,
            "forcing": [{"k": [1], "j": 1, "amplitude": 0.01, "waveform": "cos"}],
        }
        p = write_json(tmp_path / "p.json", doc)
        with pytest.raises(InputError, match="2"):
            parse_problem(p)

    def test_resonant_omega_names_the_mode(self, tmp_path):
        p = write_json(tmp_path / "p.json",
                       minimal_ode_doc(d=2, omega=["1", "0.5"], K=4,
                                       forcing=[{"k": [1, 0], "component": 0,
                                                 "amplitude": 1.0,
                                                 "waveform": "cos"}]))
        with pytest.raises(InputError) as err:
            parse_problem(p)
        assert "(1, -2)" in str(err.value) or "(-1, 2)" in str(err.value)

    def test_missing_field_reports_path(self, tmp_path):
        doc = minimal_ode_doc()
        del doc["forcing"]
        p = write_json(tmp_path / "p.json", doc)
        with pytest.raises(InputError, match="forcing"):
            parse_problem(p)

    def test_symbolic_omega(self, tmp_path):
        p = write_json(tmp_path / "p.json",
                       minimal_ode_doc(d=2, omega=["1", "sqrt2"],
                                       forcing=[{"k": [1, 0], "component": 0,
                                                 "amplitude": 1.0,
                                                 "waveform": "cos"}]))
        prob = parse_problem(p)
        assert prob.lattice.omega[1] == pytest.approx(math.sqrt(2))

    def test_unknown_symbol_rejected(self, tmp_path):
        p = write_json(tmp_path / "p.json", minimal_ode_doc(omega=["one"]))
        with pytest.raises(InputError, match="omega"):
            parse_problem(p)

    def test_wrong_matrix_size_rejected(self, tmp_path):
        p = write_json(tmp_path / "p.json", minimal_ode_doc(A=[1.0, 2.0]))
        with pytest.raises(InputError):
            parse_problem(p)

    def test_bad_jordan_sizes_rejected(self, tmp_path):
        p = write_json(tmp_path / "p.json",
                       minimal_ode_doc(jordan=[{"lambda": 1.0, "size": 2}]))
        with pytest.raises(InputError):
            parse_problem(p)

    def test_mismatched_phi_rejected(self, tmp_path):
        doc = minimal_ode_doc(n=2, A=[2.0, -1.0, 1.0, 0.0],
                              jordan=[{"lambda": 1.0, "size": 2}],
                              phi=[1.0, 0.0, 0.0, 1.0])
        p = write_json(tmp_path / "p.json", doc)
        with pytest.raises(InputError, match="basis"):
            parse_problem(p)

    def test_bad_component_index_rejected(self, tmp_path):
        p = write_json(tmp_path / "p.json",
                       minimal_ode_doc(forcing=[{"k": [1], "component": 3,
                                                 "amplitude": 1.0,
                                                 "waveform": "cos"}]))
        with pytest.raises(InputError, match="component"):
            parse_problem(p)

    def test_minimal_cutoff_lattice_works(self, tmp_path):
        import response_solver as rs

        p = write_json(tmp_path / "p.json", minimal_ode_doc(K=1))
        prob = parse_problem(p)
        U, rep = rs.solve_fixed_point(0.05, prob, rs.SolverConfig(tol=1e-12))
        assert rep.status == "converged"

    def test_mean_term_rejected(self, tmp_path):
        p = write_json(tmp_path / "p.json",
                       minimal_ode_doc(forcing=[{"k": [0], "component": 0,
                                                 "amplitude": 1.0,
                                                 "waveform": "cos"}]))
        with pytest.raises(InputError, match="zero-mean"):
            parse_problem(p)


def config_doc(command, problem, out, **params):
    return {
        "command": command,
        "problem": problem,
        "solver": {"tol": 1e-11, "max_iter": 100, "ball_radius": 1.0,
                   "norm": {"rho": 0.0, "m": 0.0}},
        "params": params,
        "output_dir": str(out),
        "seed": 11,
    }


def _reference_magnitude(row: list[complex], squares: float) -> float:
    """sqrt(squares), the plain sqrt(sum |c|^2), unless the sum of squares
    overflowed or fell below the smallest normal float with a nonzero |c|:
    then the magnitude is taken with the largest (finite) |c| factored out."""
    a = [abs(c) for c in row]
    s = max(a)
    if math.isfinite(s) and (math.isinf(squares)
                             or 0.0 < s and squares < np.finfo(float).tiny):
        return s * math.sqrt(sum((v / s) ** 2 for v in a))
    return math.sqrt(squares)


def reference_spectrum_tables(u: FourierField, spec: NormSpec) -> dict:
    """Both spectrum CSV texts, built one row at a time and sorted."""
    lat = u.lattice
    logw = log_weights(lat, spec)
    with np.errstate(over="ignore"):
        squares = np.sum(np.abs(u.coeffs) ** 2, axis=-1)
    rows = []
    for idx in np.ndindex(lat.mode_shape):
        c = u.coeffs[idx + (0,)]
        rows.append([i - cut for i, cut in zip(idx, lat.cutoffs)]
                    + [float(c.real), float(c.imag),
                       _reference_magnitude(u.coeffs[idx].tolist(), float(squares[idx])),
                       math.exp(min(logw[idx], 700.0))])
    header = [f"k{i + 1}" for i in range(lat.d)] + (["j"] if lat.has_space else []) \
        + ["re", "im", "abs", "weight_rho_m"]
    tables = {}
    for suffix, key in (("by_index", lambda r: r[:lat.n_axes]),
                        ("by_magnitude", lambda r: -r[lat.n_axes + 2])):
        text = io.StringIO()
        w = csv.writer(text)
        w.writerow(header)
        w.writerows(sorted(rows, key=key))
        tables[suffix] = text.getvalue()
    return tables


def _signed_field(lat: SpectralLattice, re, im) -> FourierField:
    """A field whose coefficients, in C order, cycle through ``re`` and ``im``.

    The parts are set apart, so signed zeros and infinities keep their sign.
    """
    coeffs = np.empty(lat.field_shape, dtype=complex)
    coeffs.real = np.resize(re, lat.field_shape)
    coeffs.imag = np.resize(im, lat.field_shape)
    return FourierField(lat, coeffs)


def _hermitian_with_zeros(rng) -> FourierField:
    u = random_real(
        SpectralLattice(d=1, K=3, omega=(1.0,), has_space=True, J=2), rng)
    u.coeffs[u.lattice.k_l1() % 2 == 1] = 0.0
    return u


_INF = math.inf
_N2 = SpectralLattice(d=2, K=1, omega=(1.0, 0.5), n=2)
_N2_SPACE = SpectralLattice(d=1, K=3, omega=(1.0,), n=2, has_space=True, J=1)
# fields whose re/im/abs columns repeat magnitudes with both signs
SIGNED_FIELDS = {
    "signed-zeros": lambda rng: _signed_field(
        SpectralLattice(d=1, K=3, omega=(1.0,)),
        [0.0, -0.0, 0.0, -0.0, 0.5, -0.0], [0.0, 0.0, -0.0, -0.0, -0.0, -0.5]),
    "extremes": lambda rng: _signed_field(
        SpectralLattice(d=1, K=4, omega=(1.0,)),
        [5e-324, 1e300, _INF, -_INF, -1e-310, -1e300, 2.5],
        [-5e-324, -1e300, -_INF, 2.5, 1e-310, 5e-324, _INF]),
    "opposite-signs": lambda rng: _signed_field(
        SpectralLattice(d=2, K=1, omega=(1.0, 0.5)),
        [0.1, -0.1, 0.1, -0.3, 0.3, -0.1], [-0.1, 0.1, 0.1, 0.3, -0.1, -0.3]),
    "hermitian-with-zeros": _hermitian_with_zeros,
    "n2-re-im-same-magnitude": lambda rng: _signed_field(
        _N2, re := rng.standard_normal(_N2.field_shape),
        rng.choice([-1.0, 1.0], _N2.field_shape) * re),
    "n2-few-values": lambda rng: _signed_field(
        _N2_SPACE,
        rng.choice([-2.5, -0.0, 0.0, 2.5, 5e-324, -1e300], _N2_SPACE.field_shape),
        rng.choice([-2.5, -0.0, 0.0, 2.5, -_INF], _N2_SPACE.field_shape)),
}


# the shipped config each mutated problem runs under
_PROBLEM_CONFIG = {"cubic_ode.json": "solve_cubic", "jordan_ode.json": "solve_cubic",
                   "lowreg_ode.json": "lowreg", "boussinesq_pde.json": "solve_pde"}
# one number of a shipped problem or config: the file, the path to the
# number in it and the field the error message names
_NUMBER_FIELDS = [
    ("cubic_ode.json", ("omega", 0), "omega[0]"),
    ("cubic_ode.json", ("A", 0), "A"),
    ("cubic_ode.json", ("jordan", 0, "lambda"), "jordan"),
    ("cubic_ode.json", ("nonlinearity", "coeffs", 0, 3), "nonlinearity.coeffs"),
    ("cubic_ode.json", ("forcing", 0, "amplitude"), "forcing[0].amplitude"),
    ("jordan_ode.json", ("phi", 1), "phi"),
    ("jordan_ode.json", ("jordan", 0, "p"), "jordan"),
    ("jordan_ode.json", ("jordan", 0, "q"), "jordan"),
    ("lowreg_ode.json", ("nonlinearity", "breakpoints", 0), "nonlinearity.breakpoints"),
    ("lowreg_ode.json", ("nonlinearity", "slopes", 1), "nonlinearity.slopes"),
    ("boussinesq_pde.json", ("omega", 1), "omega[1]"),
    ("boussinesq_pde.json", ("beta",), "beta"),
    ("solve_cubic", ("solver", "tol"), "solver.tol"),
    ("solve_cubic", ("solver", "ball_radius"), "solver.ball_radius"),
    ("solve_cubic", ("solver", "norm", "rho"), "solver.norm.rho"),
    ("solve_cubic", ("solver", "norm", "m"), "solver.norm.m"),
    ("solve_cubic", ("params", "epsilon"), "params.epsilon"),
    ("solve_pde", ("params", "epsilon"), "params.epsilon"),
    ("sweep_cubic", ("params", "sigmas", 1), "params.sigmas"),
    ("probe_cubic", ("params", "sigma"), "params.sigma"),
    ("probe_cubic", ("params", "mu"), "params.mu"),
    ("probe_cubic", ("params", "center"), "params.center"),
    ("probe_cubic", ("params", "radius"), "params.radius"),
    ("lowreg", ("params", "epsilon"), "params.epsilon"),
    ("lowreg", ("params", "s_grid", 1), "params.s_grid"),
    ("verify_ode", ("params", "domain", "sigma"), "params.domain.sigma"),
    ("verify_ode", ("params", "domain", "mu"), "params.domain.mu"),
    ("demo_liouville", ("params", "growth"), "params.growth"),
    ("demo_liouville", ("params", "eps_ladder"), "params.eps_ladder"),
]
# how a number is written where it is not a bare JSON number
_WRITTEN_AS = {"omega[0]": repr, "params.eps_ladder": lambda x: [1e-2, x]}
# an infinite ball radius is the default, no ball, so it is mutated to -inf
_NON_FINITE = [(file, path, field, value) for file, path, field in _NUMBER_FIELDS
               for value in (math.nan, math.inf if field != "solver.ball_radius" else -math.inf)]


def _shrunk_problem(name: str) -> dict:
    """A shipped problem at K = J = 4, where its forcing fits."""
    doc = json.loads((PROBLEMS / name).read_text())
    if name != "lowreg_ode.json":
        doc.update(K=4, **({"J": 4} if doc["kind"] == "pde" else {}))
    return doc


@pytest.mark.parametrize("file, path, field, value", _NON_FINITE, ids=[
    f"{file.split('.')[0]}-{field}-{value}" for file, _, field, value in _NON_FINITE])
def test_non_finite_number_exits_4_and_names_its_field(tmp_path, capsys, file, path,
                                                       field, value):
    """NaN or an infinity in any number a problem or a run config holds is
    an input error that names its field, before any solve."""
    is_problem = file.endswith(".json")
    config = _PROBLEM_CONFIG[file] if is_problem else file
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    docs = {"config": cfg}
    if "problem" in cfg:
        problem = Path(cfg["problem"]).name if not is_problem else file
        docs["problem"] = _shrunk_problem(problem)
        cfg["problem"] = str(tmp_path / "p.json")
    cfg["output_dir"] = str(tmp_path / "out")
    target = docs["problem" if is_problem else "config"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = _WRITTEN_AS.get(field, lambda x: x)(value)
    if "problem" in docs:
        write_json(tmp_path / "p.json", docs["problem"])
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    assert cli.main(["--config", str(cfg_path)]) == EXIT_INPUT
    if field.startswith("solver."):
        err = capsys.readouterr().err
        where = f"input error: {cfg_path}.{field}"
    else:
        err = json.loads((tmp_path / "out" / "result.json").read_text())["error"]
        where = f"{tmp_path / 'p.json'}.{field}" if is_problem else field
    assert err.startswith(f"{where}: ") and "finite" in err


class TestRun:
    def test_solve_ode_on_shipped_cubic(self, tmp_path):
        cfg_path = write_json(
            tmp_path / "cfg.json",
            config_doc("solve-ode", str(PROBLEMS / "cubic_ode.json"),
                       tmp_path / "out", epsilon=0.05),
        )
        cfg = RunConfig.load(cfg_path)
        assert run(cfg) == EXIT_OK
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["report"]["status"] == "converged"
        assert all(r < 1 for r in result["report"]["ratios"])
        assert result["ratio_fit_r2"] >= 0.99
        # results are self-describing: norm spec and lattice travel along
        assert result["solution"]["norm"]["rho"] == 0.0
        assert result["solution"]["lattice"]["K"] == 16
        assert "truncation_tail" in result["solution"]
        assert result["seed"] == 11

    def test_spectrum_csv_columns(self, tmp_path):
        cfg = RunConfig.load(write_json(
            tmp_path / "cfg.json",
            config_doc("solve-ode", str(PROBLEMS / "cubic_ode.json"),
                       tmp_path / "out", epsilon=0.05),
        ))
        run(cfg)
        with open(tmp_path / "out" / "spectrum_by_index.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k1", "re", "im", "abs", "weight_rho_m"]
        assert len(rows) == 1 + 33
        with open(tmp_path / "out" / "spectrum_by_magnitude.csv") as fh:
            rows = list(csv.reader(fh))
        mags = [float(r[3]) for r in rows[1:]]
        assert mags == sorted(mags, reverse=True)

    @pytest.mark.parametrize("spec", [NormSpec(0.3, 1.5), NormSpec(150.0, 0.0)],
                             ids=["rho0.3-m1.5", "weights-clipped"])
    @pytest.mark.parametrize("field", ["jordan-forcing", "jordan-random", "pde-random"])
    def test_spectrum_csv_matches_row_by_row_reference(self, tmp_path, rng, field, spec):
        if field.startswith("jordan"):
            prob = parse_problem(PROBLEMS / "jordan_ode.json")
            assert prob.lattice.n == 2
            u = (prob.forcing if field == "jordan-forcing"
                 else random_real(prob.lattice, rng))
        else:
            lat = SpectralLattice(d=1, K=3, omega=(1.0,), has_space=True, J=3)
            u = random_real(lat, rng)
        cli.write_spectrum_csv(u, spec, tmp_path, "s")
        expected = reference_spectrum_tables(u, spec)
        for suffix in ("by_index", "by_magnitude"):
            with open(tmp_path / f"s_{suffix}.csv", newline="") as fh:
                assert fh.read() == expected[suffix]
        # the magnitude table has ties, whose order the stable sort fixes
        mags = [float(line.split(",")[-2])
                for line in expected["by_magnitude"].splitlines()[1:]]
        assert any(a == b > 0 for a, b in zip(mags, mags[1:]))

    @pytest.mark.parametrize("case", list(SIGNED_FIELDS))
    def test_spectrum_csv_signs_and_repeats_match_reference(self, tmp_path, rng, case):
        u = SIGNED_FIELDS[case](rng)
        spec = NormSpec(0.3, 1.5)
        cli.write_spectrum_csv(u, spec, tmp_path, "s")
        expected = reference_spectrum_tables(u, spec)
        for suffix in ("by_index", "by_magnitude"):
            with open(tmp_path / f"s_{suffix}.csv", newline="") as fh:
                assert fh.read() == expected[suffix]

    @pytest.mark.filterwarnings("error")
    def test_spectrum_csv_abs_keeps_extreme_magnitudes(self, tmp_path):
        # sqrt(sum |c|^2) is inf for 1e300 and 0.0 for 5e-324 and 1e-170
        u = _signed_field(SpectralLattice(d=1, K=1, omega=(1.0,)),
                          [1e300, 5e-324, 1e-170], [0.0, 0.0, 0.0])
        cli.write_spectrum_csv(u, NormSpec(0.3, 1.5), tmp_path, "s")
        for suffix, order in (("by_index", [1e300, 5e-324, 1e-170]),
                              ("by_magnitude", [1e300, 1e-170, 5e-324])):
            with open(tmp_path / f"s_{suffix}.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert [float(r[3]) for r in rows] == order
            assert [float(r[1]) for r in rows] == order

    def test_spectrum_csv_prints_negative_nan_as_nan(self, tmp_path):
        lat = SpectralLattice(d=1, K=2, omega=(1.0,))
        neg_nan = math.copysign(math.nan, -1.0)
        u = _signed_field(lat, [neg_nan, -1.0, neg_nan, math.nan, -2.0],
                          [1.0, neg_nan, neg_nan, -0.0, -1.0])
        assert np.signbit(u.coeffs.real[0, 0]) and np.isnan(u.coeffs.real[0, 0])
        cli.write_spectrum_csv(u, NormSpec(0.3, 1.5), tmp_path, "s")
        with open(tmp_path / "s_by_index.csv", newline="") as fh:
            text = fh.read()
        # the reference's magnitude sort is not defined for NaN: index order only
        assert text == reference_spectrum_tables(u, NormSpec(0.3, 1.5))["by_index"]
        assert "-nan" not in text and text.count("nan") == 9

    def test_verify_clean_and_faulted(self, tmp_path):
        base = config_doc("verify", str(PROBLEMS / "cubic_ode.json"),
                          tmp_path / "out",
                          domain={"kind": "real_annulus", "sigma": 0.01},
                          samples=4)
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", base))
        assert run(cfg) == EXIT_OK

        code = cli.main([
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "out2"),
            "--inject-fault", "ode-mode-inverse",
        ])
        assert code == EXIT_CERT
        result = json.loads((tmp_path / "out2" / "result.json").read_text())
        assert result["passed"] is False
        assert result["fault"] == "ode-mode-inverse"

    def test_every_result_carries_the_lattice(self, tmp_path):
        doc = config_doc("sweep", str(PROBLEMS / "cubic_ode.json"),
                         tmp_path / "out",
                         domain={"kind": "real_annulus", "sigma": 0.02}, count=2)
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert run(cfg) == EXIT_OK
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["lattice"]["K"] == 16
        assert result["solver"]["norm"] == {"rho": 0.0, "m": 0.0}

    def test_sweep_tolerates_partial_failure(self, tmp_path):
        doc = config_doc("sweep", str(PROBLEMS / "cubic_ode.json"),
                         tmp_path / "out",
                         domain={"kind": "real_annulus", "sigma": 0.02}, count=3)
        doc["solver"]["max_iter"] = 2
        doc["solver"]["tol"] = 1e-16
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert run(cfg) == EXIT_OK
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["flagged_count"] >= 1

    def test_input_error_exit_code_and_document(self, tmp_path):
        cfg = RunConfig.load(write_json(
            tmp_path / "cfg.json",
            config_doc("solve-ode", str(tmp_path / "missing.json"),
                       tmp_path / "out"),
        ))
        assert run(cfg) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())
        assert err["exit_code"] == EXIT_INPUT

    @pytest.mark.parametrize("command, params", [
        ("verify", {"domain": {"kind": "real_annulus", "sigma": -0.01}}),
        ("verify", {"domain": {"kind": "complex_cone", "sigma": 0.01, "mu": 0.0}}),
        ("verify", {"samples": 0}),
        ("sweep", {"domain": {"kind": "real_annulus", "sigma": 0.02}, "count": 0}),
        ("sweep", {"sigmas": [0.01, 0.02], "samples_per_sigma": 0}),
    ], ids=["sigma", "mu", "samples", "count", "samples_per_sigma"])
    def test_bad_domain_or_sample_count_is_input_error(self, tmp_path, command, params):
        cfg = RunConfig.load(write_json(
            tmp_path / "cfg.json",
            config_doc(command, str(PROBLEMS / "cubic_ode.json"), tmp_path / "out",
                       **params)))
        assert run(cfg) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())
        assert err["error"].startswith("params.")

    @pytest.mark.parametrize("command, problem, params", [
        ("solve-ode", "cubic_ode.json", {"epsilon": "fast"}),
        ("solve-pde", "boussinesq_pde.json", {"epsilon": [0.02, 0.0]}),
        ("sweep", "cubic_ode.json", {"sigmas": "small"}),
        ("probe-analytic", "cubic_ode.json", {"center": "middle"}),
        ("probe-analytic", "cubic_ode.json", {"points": "many"}),
        ("low-reg", "lowreg_ode.json", {"s_grid": [0.0, "half"]}),
        ("verify", "cubic_ode.json", {"samples": "six"}),
        ("demo-liouville", None, {"levels": "two"}),
        ("probe-analytic", "cubic_ode.json", {"points": 16.5}),
        ("demo-liouville", None, {"levels": True}),
    ], ids=["solve-ode", "solve-pde", "sweep", "probe-center", "probe-points",
            "low-reg", "verify", "demo-liouville", "points-fraction", "levels-bool"])
    def test_malformed_param_is_input_error(self, tmp_path, command, problem, params):
        """A params value that does not convert exits 4 with the key named,
        not 2 as a solver failure."""
        key = next(iter(params))
        cfg = RunConfig.load(write_json(
            tmp_path / "cfg.json",
            config_doc(command, problem and str(PROBLEMS / problem), tmp_path / "out",
                       **params)))
        assert run(cfg) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())
        assert err["exit_code"] == EXIT_INPUT
        assert err["error"].startswith(f"params.{key}: ")

    @pytest.mark.parametrize("command, problem, params", [
        ("sweep", "cubic_ode.json", {"sigmas": [0.02, 0.0]}),
        ("sweep", "cubic_ode.json", {"sigmas": [-0.01]}),
        ("probe-analytic", "cubic_ode.json", {"points": 0}),
        ("probe-analytic", "cubic_ode.json", {"points": 1}),
        ("low-reg", "lowreg_ode.json", {"s_grid": [0.0, 1.0]}),
        ("low-reg", "lowreg_ode.json", {"s_grid": [-0.25]}),
        ("probe-analytic", "cubic_ode.json", {"radius": 0}),
        ("demo-liouville", None, {"eps_ladder": [0.01, 0.01]}),
        ("demo-liouville", None, {"eps_ladder": [0.01]}),
        ("demo-liouville", None, {"eps_ladder": [-0.01, 0.02]}),
        ("demo-liouville", None, {"growth": -1}),
    ], ids=["sigma-zero", "sigma-negative", "points-0", "points-1", "s-one", "s-negative",
            "radius-zero", "ladder-repeated", "ladder-single", "ladder-negative",
            "growth-negative"])
    def test_out_of_range_param_is_input_error(self, tmp_path, command, problem, params):
        """A params value that converts but lies outside its range exits 4
        with the key named, before any solve, not 2 from the solver."""
        key = next(iter(params))
        cfg = RunConfig.load(write_json(
            tmp_path / "cfg.json",
            config_doc(command, problem and str(PROBLEMS / problem), tmp_path / "out",
                       **params)))
        assert run(cfg) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())
        assert err["exit_code"] == EXIT_INPUT
        assert err["error"].startswith(f"params.{key}: ")

    @pytest.mark.parametrize("command, problem, params, message", [
        ("probe-analytic", "cubic_ode.json", {"sigma": 0}, "sigma > 0 required"),
        ("probe-analytic", "cubic_ode.json", {"mu": -1}, "complex cone needs aperture mu > 0"),
        ("probe-analytic", "cubic_ode.json", {"mu": 1e9}, "leaves the epsilon domain"),
        ("demo-liouville", None, {"levels": 7}, "levels must be in 0..4"),
        ("low-reg", "cubic_ode.json", {},
         "low-regularity mode needs a declared global Lipschitz bound"),
        ("solve-ode", "lowreg_ode.json", {"epsilon": "0.05+0.01j"},
         "piecewise-linear nonlinearities admit real eps only"),
    ], ids=["probe-sigma", "probe-mu", "probe-circle", "liouville-levels",
            "low-reg-local", "piecewise-complex-eps"])
    def test_library_argument_check_exits_4(self, tmp_path, command, problem, params,
                                            message):
        """A ValueError the library raises on its arguments, before any
        solve, is an input error: exit 4 with its message in result.json."""
        cfg = write_json(tmp_path / "cfg.json",
                         config_doc(command, problem and str(PROBLEMS / problem),
                                    tmp_path / "out", **params))
        assert cli.main(["--config", str(cfg)]) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())
        assert err["exit_code"] == EXIT_INPUT
        assert message in err["error"]

    def test_linalg_error_stays_a_solver_failure(self, tmp_path, monkeypatch):
        """LinAlgError subclasses ValueError, but a failed linear solve is
        the solver's failure: exit 2."""
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("oracle Jacobian is singular")
        monkeypatch.setattr(cli, "certify_bounds", singular)
        cfg = write_json(tmp_path / "cfg.json",
                         config_doc("verify", str(PROBLEMS / "cubic_ode.json"),
                                    tmp_path / "out"))
        assert cli.main(["--config", str(cfg)]) == EXIT_NOCONV
        err = json.loads((tmp_path / "out" / "result.json").read_text())
        assert err["error"] == "LinAlgError: oracle Jacobian is singular"

    def test_verify_without_jordan_data_is_input_error(self, tmp_path):
        prob = write_json(tmp_path / "p.json", minimal_ode_doc(n=2, A=[1.0, 0.5, 0.0, 2.0],
                                                               forcing=[]))
        cfg = RunConfig.load(write_json(
            tmp_path / "cfg.json", config_doc("verify", str(prob), tmp_path / "out")))
        assert run(cfg) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())
        assert "Jordan data" in err["error"]

    def test_nonconvergence_exit_code(self, tmp_path):
        doc = config_doc("solve-ode", str(PROBLEMS / "cubic_ode.json"),
                         tmp_path / "out", epsilon=0.05)
        doc["solver"]["max_iter"] = 1
        doc["solver"]["tol"] = 1e-16
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert run(cfg) == EXIT_NOCONV

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_solve_reports_its_trace(self, tmp_path):
        prob = diverging_cubic_problem(tmp_path / "p.json")
        doc = config_doc("solve-ode", str(prob), tmp_path / "out", epsilon=0.5)
        del doc["solver"]["ball_radius"]
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert run(cfg) == EXIT_NOCONV
        report = json.loads((tmp_path / "out" / "result.json").read_text())["report"]
        assert report["status"] == "diverged"
        assert len(report["increments"]) == report["iterations"] >= 1
        assert len(report["ratios"]) == len(report["increments"]) - 1
        assert report["diagnostics"]["error"]

    @pytest.mark.filterwarnings("error")
    def test_resonant_pde_eps_reports_its_status(self, tmp_path):
        # eps = i/2 zeroes the (k, j) = (1, -1) symbol of beta = 2 exactly
        prob = write_json(tmp_path / "p.json", {
            "kind": "pde", "d": 1, "K": 4, "J": 4, "omega": ["1"], "beta": 2.0,
            "forcing": [{"k": [1], "j": 1, "amplitude": 0.01, "waveform": "cos"}],
        })
        doc = config_doc("solve-pde", str(prob), tmp_path / "out", epsilon="0.5j")
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert run(cfg) == EXIT_NOCONV
        report = json.loads((tmp_path / "out" / "result.json").read_text())["report"]
        assert report["status"] == "resonant"
        assert "(1, -1)" in report["diagnostics"]["error"]

    @pytest.mark.filterwarnings("error")
    def test_resonant_low_reg_eps_reports_its_status(self, tmp_path):
        # eps = -i zeroes the k = -2 and k = 1 divisors of A = 2 exactly
        prob = write_json(tmp_path / "p.json", {
            "kind": "ode", "d": 1, "n": 1, "K": 4, "omega": ["1"], "A": [2.0],
            "nonlinearity": {"kind": "zero"},
            "forcing": [{"k": [1], "component": 0, "amplitude": 1.0, "waveform": "cos"}],
        })
        doc = config_doc("low-reg", str(prob), tmp_path / "out", epsilon="-1j",
                         s_grid=[0.0, 0.5])
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert run(cfg) == EXIT_NOCONV
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["report"]["status"] == "resonant"
        assert result["report"]["iterations"] == 0
        assert result["report"]["diagnostics"]["error"] == \
            "singular scalar divisor at k=(-2,)"

    @pytest.mark.parametrize("command, problem", [
        ("solve-ode", "boussinesq_pde.json"), ("solve-pde", "cubic_ode.json"),
        ("low-reg", "boussinesq_pde.json"),
    ])
    def test_wrong_problem_kind_names_the_command(self, tmp_path, command, problem):
        cfg = RunConfig.load(write_json(
            tmp_path / "cfg.json",
            config_doc(command, str(PROBLEMS / problem), tmp_path / "out"),
        ))
        assert run(cfg) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())
        assert err["error"].startswith(f"{command} needs")

    def test_low_reg_budget_exhausted_exit_code(self, tmp_path):
        doc = config_doc("low-reg", str(PROBLEMS / "lowreg_ode.json"),
                         tmp_path / "out", epsilon=0.05, s_grid=[0.0, 0.5])
        doc["solver"]["tol"] = 1e-12
        doc["solver"]["max_iter"] = 2
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert run(cfg) == EXIT_NOCONV
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["report"]["status"] == "max_iter"

    def test_numpy_global_rng_untouched(self, tmp_path):
        np.random.random()      # leave any freshly seeded state
        before = np.random.get_state()
        assert cli.main(["--config", str(CONFIGS / "solve_cubic.json"),
                         "--out", str(tmp_path / "out")]) == EXIT_OK
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert (before[1] == after[1]).all()

    def test_determinism_byte_identical(self, tmp_path):
        doc = config_doc("solve-ode", str(PROBLEMS / "cubic_ode.json"),
                         tmp_path / "o1", epsilon=0.05)
        p = write_json(tmp_path / "cfg.json", doc)
        assert cli.main(["--config", str(p), "--seed", "3"]) == EXIT_OK
        first = (tmp_path / "o1" / "result.json").read_bytes()
        assert cli.main(["--config", str(p), "--seed", "3"]) == EXIT_OK
        second = (tmp_path / "o1" / "result.json").read_bytes()
        assert first == second

    def test_demo_liouville(self, tmp_path):
        doc = {
            "command": "demo-liouville",
            "solver": {"tol": 1e-13, "max_iter": 400},
            "params": {"levels": 2, "K": 16,
                       "eps_ladder": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]},
            "output_dir": str(tmp_path / "out"),
            "seed": 1,
        }
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert run(cfg) == EXIT_OK
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["liouville"]["max_decade_growth"] >= 10.0
        assert result["control"]["max_decade_growth"] <= 2.0
        assert result["control"]["witness_scan_hits"] == 0

    def test_shipped_configs_parse(self):
        for cfg_file in sorted(CONFIGS.glob("*.json")):
            cfg = RunConfig.load(cfg_file)
            assert cfg.command in cli.COMMANDS

    def test_jordan_problem_loads_and_solves(self, tmp_path):
        import response_solver as rs

        prob = parse_problem(PROBLEMS / "jordan_ode.json")
        assert prob.linear.jordan is not None
        U, rep = rs.solve_fixed_point(0.04, prob,
                                      rs.SolverConfig(tol=1e-12, ball_radius=1.0))
        assert rep.status == "converged"

    def test_pq_with_nonidentity_phi_is_input_error(self, tmp_path):
        doc = json.loads((PROBLEMS / "jordan_ode.json").read_text())
        doc["jordan"][0]["p"] = 2.0
        prob = write_json(tmp_path / "p.json", doc)
        cfg = RunConfig.load(write_json(
            tmp_path / "cfg.json", config_doc("solve-ode", str(prob), tmp_path / "out")))
        assert run(cfg) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())
        assert err["exit_code"] == EXIT_INPUT
        assert "phi = I" in err["error"]

    def test_jordan_without_phi_is_input_error(self, tmp_path):
        doc = json.loads((PROBLEMS / "jordan_ode.json").read_text())
        del doc["phi"]
        prob = write_json(tmp_path / "p.json", doc)
        cfg = RunConfig.load(write_json(
            tmp_path / "cfg.json", config_doc("verify", str(prob), tmp_path / "out")))
        assert run(cfg) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())
        assert "need A = J" in err["error"]

    def test_probe_on_pde_problem(self, tmp_path):
        pde_doc = {
            "kind": "pde", "d": 2, "K": 6, "J": 6, "omega": ["1", "sqrt2"],
            "beta": 2.0,
            "forcing": [
                {"k": [1, 0], "j": 1, "amplitude": 0.0005, "waveform": "cos"},
                {"k": [1, 0], "j": -1, "amplitude": 0.0005, "waveform": "cos"},
            ],
        }
        prob_path = write_json(tmp_path / "pde.json", pde_doc)
        doc = config_doc("probe-analytic", str(prob_path), tmp_path / "out",
                         sigma=0.02, mu=5.0, points=8)
        doc["solver"]["ball_radius"] = 1.0
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert run(cfg) == EXIT_OK
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert max(result["decay_ratios"]) <= 0.5
        assert result["cauchy_vs_fd"] <= 1e-6

    def test_sweep_with_worker_pool(self, tmp_path):
        doc = config_doc("sweep", str(PROBLEMS / "cubic_ode.json"),
                         tmp_path / "out",
                         domain={"kind": "real_annulus", "sigma": 0.02}, count=4)
        doc["jobs"] = 3
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert run(cfg) == EXIT_OK
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["flagged_count"] == 0
        assert len(result["entries"]) == 4

    def test_sweep_on_pde_problem_serial_and_pooled(self, tmp_path):
        prob = write_json(tmp_path / "p.json", {
            "kind": "pde", "d": 1, "K": 4, "J": 4, "omega": ["1"], "beta": 2.0,
            "forcing": [{"k": [1], "j": 1, "amplitude": 0.01, "waveform": "cos"}],
        })
        doc = config_doc("sweep", str(prob), tmp_path / "out",
                         domain={"kind": "complex_cone", "sigma": 0.05, "mu": 5.0},
                         count=6)
        cfg_path = write_json(tmp_path / "cfg.json", doc)
        entries = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            assert cli.main(["--config", str(cfg_path), "--jobs", jobs,
                             "--out", str(out)]) == EXIT_OK
            result = json.loads((out / "result.json").read_text())
            assert result["flagged_count"] == 0
            entries[jobs] = result["entries"]
        assert len(entries["1"]) == 6
        assert entries["1"] == entries["2"]

    def test_jordan_sweep_serial_and_pooled_agree(self, tmp_path):
        entries = {}
        for domain in ({"kind": "real_annulus", "sigma": 0.05},
                       {"kind": "complex_cone", "sigma": 0.02, "mu": 5.0}):
            doc = config_doc("sweep", str(PROBLEMS / "jordan_ode.json"),
                             tmp_path / "out", domain=domain, count=8)
            doc["solver"] = {"tol": 1e-12, "max_iter": 100, "ball_radius": 1.0}
            cfg_path = write_json(tmp_path / f"{domain['kind']}.json", doc)
            for jobs in ("1", "2"):
                out = tmp_path / f"{domain['kind']}_{jobs}"
                assert cli.main(["--config", str(cfg_path), "--jobs", jobs,
                                 "--out", str(out)]) == EXIT_OK
                entries[domain["kind"], jobs] = \
                    json.loads((out / "result.json").read_text())["entries"]
        for kind in ("real_annulus", "complex_cone"):
            assert entries[kind, "1"] == entries[kind, "2"], kind

    def test_unknown_command_rejected(self, tmp_path):
        p = write_json(tmp_path / "cfg.json", {"command": "explode"})
        with pytest.raises(InputError):
            RunConfig.load(p)

    def test_unknown_fault_flag_rejected_by_parser(self, tmp_path, capsys):
        doc = config_doc("verify", str(PROBLEMS / "cubic_ode.json"),
                         tmp_path / "out",
                         domain={"kind": "real_annulus", "sigma": 0.01})
        p = write_json(tmp_path / "cfg.json", doc)
        assert cli.main(["--config", str(p), "--inject-fault", "bogus"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: {p}.inject_fault")

    @pytest.mark.parametrize("flags, named", [
        (["--jobs", "two"], ".jobs"), (["--jobs", "0"], ".jobs"),
        (["--jobs", "1.5"], ".jobs"), (["--seed", "x"], ".seed"),
        (["--no-such-flag"], "unrecognized arguments"), (["--jobs"], "--jobs"),
    ], ids=["jobs-text", "jobs-zero", "jobs-fraction", "seed-text", "unknown-flag",
            "jobs-no-value"])
    def test_bad_flag_exits_4(self, tmp_path, capsys, flags, named):
        """A flag is parsed as the config field it replaces, and a usage
        error is an input error: exit 4 with the message on stderr."""
        doc = config_doc("verify", str(PROBLEMS / "cubic_ode.json"), tmp_path / "out")
        p = write_json(tmp_path / "cfg.json", {**doc, "jobs": 2})
        assert cli.main(["--config", str(p), *flags]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and named in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_flag_exits_4_and_help_exits_0(self, capsys):
        assert cli.main([]) == EXIT_INPUT
        assert "--config" in capsys.readouterr().err
        with pytest.raises(SystemExit) as done:
            cli.main(["--help"])
        assert done.value.code == 0

    def test_flags_replace_their_config_fields(self, tmp_path):
        doc = config_doc("sweep", str(PROBLEMS / "cubic_ode.json"), tmp_path / "cfg_out",
                         domain={"kind": "real_annulus", "sigma": 0.02}, count=2)
        p = write_json(tmp_path / "cfg.json", {**doc, "jobs": 3, "seed": 5})
        assert cli.main(["--config", str(p), "--jobs", "1", "--seed", "0",
                         "--out", str(tmp_path / "out")]) == EXIT_OK
        assert json.loads((tmp_path / "out" / "metadata.json").read_text())["jobs"] == 1
        assert json.loads((tmp_path / "out" / "result.json").read_text())["seed"] == 0
        assert not (tmp_path / "cfg_out").exists()

    @pytest.mark.parametrize("overrides", [
        {"d": "two"}, {"K": None}, {"omega": [[1.0]]}, {"n": None},
        {"forcing": [{"k": None, "component": 0, "amplitude": 1.0}]},
        {"jordan": [3]},
        {"K": 3.5}, {"K": True}, {"n": 1.5}, {"d": True},
        {"forcing": [{"k": [1.5], "component": 0, "amplitude": 1.0}]},
    ], ids=["d", "K", "omega", "n", "forcing-k", "jordan",
            "K-fraction", "K-bool", "n-fraction", "d-bool", "forcing-k-fraction"])
    def test_malformed_problem_exits_4(self, tmp_path, overrides):
        """A problem field of the wrong type is an input error that names
        the problem file, not a solver failure.  A count must be a whole
        number: int() would run "K": 3.5 as K = 3 and "K": true as K = 1."""
        prob = write_json(tmp_path / "p.json", minimal_ode_doc(**overrides))
        cfg = write_json(tmp_path / "cfg.json",
                         config_doc("solve-ode", str(prob), tmp_path / "out", epsilon=0.05))
        assert cli.main(["--config", str(cfg)]) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())
        assert err["exit_code"] == EXIT_INPUT
        assert err["error"].startswith(str(prob))

    @pytest.mark.parametrize("change", [
        {"solver": {"tol": "x"}}, {"solver": {"tol": -1}}, {"jobs": "two"},
        {"solver": {"norm": {"rho": -1}}}, {"solver": [1]}, {"inject_fault": "bogus"},
        {"params": [1]},
    ], ids=["tol-text", "tol-negative", "jobs", "rho", "solver-list", "fault", "params"])
    def test_malformed_config_exits_4(self, tmp_path, capsys, change):
        """A run config that does not load is an input error: exit 4 with
        the message on stderr, no traceback."""
        doc = config_doc("verify", str(PROBLEMS / "cubic_ode.json"), tmp_path / "out")
        p = write_json(tmp_path / "cfg.json", {**doc, **change})
        assert cli.main(["--config", str(p)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: {p}")

    @pytest.mark.parametrize("text", ["5", "null"])
    def test_config_that_is_not_an_object_exits_4(self, tmp_path, capsys, text):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        assert cli.main(["--config", str(p)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: {p}")


class TestSchema:
    """Each document is parsed once against its table: an unknown key, and a
    key that the document's branch never reads, exit 4 and name the key."""

    def test_misspelled_param_names_the_closest_key(self, tmp_path):
        doc = json.loads((CONFIGS / "probe_cubic.json").read_text())
        doc.update(problem=str(PROBLEMS / "cubic_ode.json"), output_dir=str(tmp_path / "out"))
        doc["params"]["point"] = 8
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert cli.main(["--config", str(cfg)]) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())["error"]
        assert err.startswith("params.point: unknown key; did you mean 'points'?")

    def test_misspelled_solver_key_names_the_closest_key(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "probe_cubic.json").read_text())
        doc["solver"]["tolerance"] = 1e-3
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"input error: {cfg}.solver.tolerance: unknown key; did you mean 'tol'?")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params, key", [
        ({"sigmas": [0.1], "domain": {"kind": "real_annulus", "sigma": 0.02}}, "domain"),
        ({"sigmas": [0.1], "count": 2}, "count"),
        ({"domain": {"kind": "real_annulus", "sigma": 0.02}, "samples_per_sigma": 2},
         "samples_per_sigma"),
        ({"domain": {"kind": "real_annulus", "sigma": 0.02, "mu": 5.0}}, "domain.mu"),
    ], ids=["sigmas-domain", "sigmas-count", "domain-samples_per_sigma", "annulus-mu"])
    def test_param_its_branch_never_reads_exits_4(self, tmp_path, params, key):
        cfg = RunConfig.load(write_json(tmp_path / "cfg.json", config_doc(
            "sweep", str(PROBLEMS / "cubic_ode.json"), tmp_path / "out", **params)))
        assert run(cfg) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())["error"]
        assert err.startswith(f"params.{key}: unknown key")

    _PDE = {"kind": "pde", "d": 1, "K": 4, "J": 4, "omega": ["1"], "beta": 2.0,
            "forcing": [{"k": [1], "j": 1, "amplitude": 0.01, "waveform": "cos"}]}

    @pytest.mark.parametrize("doc, key", [
        (minimal_ode_doc(nonlinearity={"kind": "piecewise_linear", "breakpoints": [0.0],
                                       "slopes": [-0.05, 0.05], "smallness": "local"}),
         "nonlinearity.smallness"),
        (minimal_ode_doc(nonlinearity={"kind": "piecewise_linear", "breakpoints": [0.0],
                                       "slopes": [-0.05, 0.05], "coeffs": [[0, 1]]}),
         "nonlinearity.coeffs"),
        (minimal_ode_doc(J=4), "J"), (minimal_ode_doc(beta="x"), "beta"),
        (minimal_ode_doc(nonlinear=False), "nonlinear"),
        (minimal_ode_doc(forcing=[{"k": [1], "j": 1, "amplitude": 1.0}]), "forcing[0].j"),
        ({**_PDE, "n": 1}, "n"), ({**_PDE, "A": [1.0]}, "A"),
        ({**_PDE, "jordan": [{"lambda": 1.0, "size": 1}]}, "jordan"),
        ({**_PDE, "phi": [1.0]}, "phi"), ({**_PDE, "nonlinearity": {"kind": "zero"}},
                                          "nonlinearity"),
    ], ids=["piecewise-smallness", "piecewise-coeffs", "ode-J", "ode-beta", "ode-nonlinear",
            "ode-forcing-j", "pde-n", "pde-A", "pde-jordan", "pde-phi", "pde-nonlinearity"])
    def test_problem_key_its_kind_never_reads_exits_4(self, tmp_path, doc, key):
        prob = write_json(tmp_path / "p.json", doc)
        command = "solve-pde" if doc["kind"] == "pde" else "solve-ode"
        cfg = write_json(tmp_path / "cfg.json", config_doc(command, str(prob), tmp_path / "out"))
        assert cli.main(["--config", str(cfg)]) == EXIT_INPUT
        err = json.loads((tmp_path / "out" / "result.json").read_text())["error"]
        assert err.startswith(f"{prob}.{key}: unknown key")

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_nonlinear_takes_only_json_booleans(self, tmp_path, value):
        """``"nonlinear": "false"`` is not read as a true string: only JSON
        true and false are booleans."""
        prob = write_json(tmp_path / "p.json", {**self._PDE, "nonlinear": value})
        with pytest.raises(InputError, match=f"^{prob}.nonlinear: "):
            parse_problem(prob)

    @pytest.mark.parametrize("value", [True, False])
    def test_nonlinear_reads_json_booleans(self, tmp_path, value):
        prob = write_json(tmp_path / "p.json", {**self._PDE, "nonlinear": value})
        assert parse_problem(prob).nonlinear is value

    def test_every_schema_key_is_documented(self):
        """Every key a table accepts, and every kind a table chooses by, is
        named in the README's CLI section (problem schema, run config and
        params)."""
        readme = (REPO / "README.md").read_text()
        text = readme[readme.index("## CLI"):readme.index("## Numerical contracts")]
        names = set()

        def collect(table):
            if isinstance(table, cli._Choice):
                names.update(table)
                for branch in table.values():
                    collect(branch)
                return
            for key, (convert, *_) in table.items():
                names.add(key)
                if isinstance(convert, list):
                    convert = convert[0]
                if isinstance(convert, dict):
                    collect(convert)

        for table in (cli._PROBLEM, cli._JORDAN_BLOCK, cli._CONFIG,
                      *(params for _, _, params in cli.COMMANDS.values())):
            collect(table)
        missing = sorted(n for n in names if f"`{n}`" not in text and f'"{n}"' not in text)
        assert not missing, f"not in the README's CLI section: {missing}"
