import csv
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
import urllib.request
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import miscorr
from miscorr import __version__, categorical, cli, simkit
from miscorr.categorical import CategoricalSpec, encode_dummy
from miscorr.charts import line_chart
from miscorr.cli import main
from miscorr.misclass import posterior_from, scenario_theta
from miscorr.simkit import TruthSpec, simulate_w, simulate_x

LOW2 = scenario_theta("low", 2)


def _write_theta(path, theta):
    path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in theta) + "\n")


def _write_dataset(path, y, w):
    header = "y," + ",".join(f"w{k + 1}" for k in range(w.shape[1]))
    lines = [header]
    for yi, wi in zip(y, w):
        lines.append(f"{yi:.17g}," + ",".join(str(int(v)) for v in wi))
    path.write_text("\n".join(lines) + "\n")


def _response(design, truth, sigma, rng):
    """y = beta0 + design . beta + noise, noise iid normal(0, sigma^2)."""
    return truth.beta_star[0] + design @ truth.beta_star[1:] + sigma * rng.standard_normal(
        len(design))


def _make_binary_fixture(tmp_path, theta, n=400, sigma=0.1, seed=7):
    rng = np.random.default_rng(seed)
    spec = CategoricalSpec((2,))
    truth = TruthSpec(np.array([0.5, 0.7]))
    x = simulate_x([np.full(2, 0.5)], n, rng)
    w = simulate_w(x, [theta], rng)
    y = _response(encode_dummy(spec, x).design, truth, sigma, rng)
    data = tmp_path / "data.csv"
    _write_dataset(data, y, w)
    theta_path = tmp_path / "theta.csv"
    _write_theta(theta_path, theta)
    p_path = tmp_path / "p.csv"
    p_path.write_text("0.5,0.5\n")
    return data, theta_path, p_path


def _read_estimates(out):
    with open(out / "estimates.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_fit_identity_theta_corrected_equals_naive(tmp_path):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, np.eye(2))
    out = tmp_path / "out"
    rc = main([
        "fit", "--data", str(data), "--theta", str(theta_path),
        "--p", str(p_path), "--out", str(out),
    ])
    assert rc == 0
    rows = _read_estimates(out)
    assert [r["parameter"] for r in rows] == ["intercept", "w1_level0"]
    for row in rows:
        assert float(row["corrected"]) == pytest.approx(float(row["naive"]), abs=1e-10)
    assert (out / "diagnostics.json").exists()
    assert (out / "config.json").exists()


def test_fit_low_theta_recovers_attenuated_slope(tmp_path):
    data, theta_path, p_path = _make_binary_fixture(
        tmp_path, LOW2, n=20_000, sigma=0.1, seed=3
    )
    out = tmp_path / "out"
    assert main([
        "fit", "--data", str(data), "--theta", str(theta_path),
        "--p", str(p_path), "--out", str(out),
    ]) == 0
    slope = next(r for r in _read_estimates(out) if r["parameter"] == "w1_level0")
    attn = 0.1875 / 0.249375
    assert float(slope["naive"]) == pytest.approx(0.7 * attn, abs=0.03)
    assert float(slope["corrected"]) == pytest.approx(0.7, abs=0.03)
    assert float(slope["variance"]) > 0


def test_fit_estimate_p_flag(tmp_path):
    data, theta_path, _ = _make_binary_fixture(tmp_path, LOW2, n=5000, seed=11)
    out = tmp_path / "out"
    assert main([
        "fit", "--data", str(data), "--theta", str(theta_path),
        "--estimate-p", "--out", str(out),
    ]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert "w1" in diag["estimated_p_residuals"]


def test_fit_and_diagnose_write_the_same_bytes_under_one_and_two_blas_threads(tmp_path):
    # OpenBLAS splits a dot product over n rows among its threads from about
    # 20,000 rows, which changes the order of the sum; sigma2_w is a sum over
    # the cells, so no such reduction is in it.  This can only catch a split
    # that the installed BLAS makes, and only where it moves the last bit of
    # the old dot's sigma2_w: with scipy-openblas 0.3.31 on two x86-64 cores
    # it did for about half of the seeds tried, this one among them.
    rng = np.random.default_rng(10)
    rows, levels = 30_000, (3, 4)
    thetas = [scenario_theta("low", lk) for lk in levels]
    w = np.column_stack([rng.integers(0, lk, rows) for lk in levels])
    (tmp_path / "data.csv").write_text("y,w1,w2\n" + "".join(
        f"{y:.6f},{a},{b}\n" for y, (a, b) in zip(w @ [0.7, -0.4] + rng.standard_normal(rows), w)))
    inputs = ["--data", str(tmp_path / "data.csv")]
    for k, (lk, theta) in enumerate(zip(levels, thetas)):
        _write_theta(tmp_path / f"theta{k}.csv", theta)
        (tmp_path / f"p{k}.csv").write_text(",".join([f"{1 / lk:.17g}"] * lk) + "\n")
    inputs += ["--theta", f"{tmp_path}/theta0.csv,{tmp_path}/theta1.csv",
               "--p", f"{tmp_path}/p0.csv,{tmp_path}/p1.csv"]
    (tmp_path / "truth.csv").write_text("0.5,0.7,0.9,1.1,1.3,1.5\n")
    commands = {"fit": ["fit", *inputs],
                "diagnose": ["diagnose", *inputs, "--truth", str(tmp_path / "truth.csv")]}
    run = "import sys; from miscorr.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(miscorr.__file__).parents[1]),
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                               threads)}
        for name, argv in commands.items():
            out = tmp_path / threads / name
            subprocess.run([sys.executable, "-c", run, *argv, "--out", str(out)], env=env,
                           check=True)
            outputs[threads, name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    for name in commands:
        assert outputs["1", name] == outputs["2", name]


def _high_theta_sample(tmp_path, p="0.1,0.2,0.3,0.4"):
    """The --data and --theta flags of a sample of high theta, L=4,
    p = (.1, .2, .3, .4), n = 3000, and a file holding ``p``."""
    theta = scenario_theta("high", 4)
    rng = np.random.default_rng(7)
    w = simulate_w(simulate_x([[0.1, 0.2, 0.3, 0.4]], 3000, rng), [theta], rng)
    data, theta_path, p_path = tmp_path / "data.csv", tmp_path / "theta.csv", tmp_path / "p.csv"
    _write_dataset(data, 0.5 + rng.standard_normal(3000), w)
    _write_theta(theta_path, theta)
    p_path.write_text(p + "\n")
    return ["--data", str(data), "--theta", str(theta_path)], p_path


def test_an_estimated_p_on_the_simplex_boundary_is_named_as_the_cause(tmp_path, capsys):
    # theta^T p = q_hat has no solution in the simplex, and its projection is
    # (0, 0.53, 0, 0.47)
    files, p_path = _high_theta_sample(tmp_path)
    for command in (["fit"], ["diagnose", "--truth", str(p_path)]):
        assert main([*command, *files, "--estimate-p", "--out", str(tmp_path / "out")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "NON_IDENTIFIABLE", "message": (
            "column w1: the estimated p is 0 at levels 0, 2 (projection residual 0.0041), "
            "so the correction is not identified; give --p files")}
        assert not (tmp_path / "out").exists()
    # with the true p the same data fits
    assert main(["fit", *files, "--p", str(p_path), "--out", str(tmp_path / "known")]) == 0


@pytest.mark.parametrize("p, level", [("0,0.5,0.1,0.4", 0), ("0.1,0.5,0.4,0", 3)])
def test_a_zero_in_a_p_file_is_named_with_its_file(tmp_path, capsys, p, level):
    files, p_path = _high_theta_sample(tmp_path, p)
    for command in (["fit"], ["diagnose", "--truth", str(p_path)]):
        assert main([*command, *files, "--p", str(p_path), "--out", str(tmp_path / "out")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "NON_IDENTIFIABLE", "message": (
            f"column w1: the p in {p_path} is 0 at level {level}, "
            "so the correction is not identified")}
        assert not (tmp_path / "out").exists()


def test_a_zero_in_p_is_refused_before_anything_is_fitted(tmp_path, capsys, monkeypatch):
    def no_fit(*args):
        raise AssertionError("fit_cells ran on a p with a zero")

    monkeypatch.setattr(cli, "fit_cells", no_fit)
    files, p_path = _high_theta_sample(tmp_path, "0,0.5,0.1,0.4")
    for p_args in (["--p", str(p_path)], ["--estimate-p"]):
        assert main(["fit", *files, *p_args, "--out", str(tmp_path / "out")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "NON_IDENTIFIABLE"
        assert not (tmp_path / "out").exists()


def test_a_zero_in_p_is_reported_ahead_of_a_collinear_design(tmp_path, capsys):
    # w2 repeats w1, which the rank guard would refuse; the zero in p is named first
    w = np.tile([[0, 0], [1, 1]], (20, 1))
    data, theta_path, p_path = tmp_path / "data.csv", tmp_path / "theta.csv", tmp_path / "p.csv"
    _write_dataset(data, np.arange(40.0), w)
    _write_theta(theta_path, LOW2)
    p_path.write_text("0,1\n")
    args = ["fit", "--data", str(data), "--theta", str(theta_path), "--out", str(tmp_path / "out")]
    assert main([*args, "--p", str(p_path)]) == 3
    assert json.loads(capsys.readouterr().err) == {"error": "NON_IDENTIFIABLE", "message": (
        f"column w1: the p in {p_path} is 0 at level 0; column w2: the p in {p_path} is 0 at "
        "level 0, so the correction is not identified")}
    p_path.write_text("0.5,0.5\n")
    assert main([*args, "--p", str(p_path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "RANK_DEFICIENT"


@pytest.mark.parametrize("p", ["0.99900099900099915,0.00099900099900099922", "0.5,0.5"])
def test_a_theta_that_never_observes_a_level_is_refused_alike_under_any_p(tmp_path, capsys, p):
    # q = (1, 0) under both p; under the first, sigma_w rounds to -2e-16, not 0
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2)
    _write_theta(theta_path, [[1.0, 0.0], [1.0, 0.0]])
    p_path.write_text(p + "\n")
    out = tmp_path / "out"
    assert main(["fit", "--data", str(data), "--theta", str(theta_path),
                 "--p", str(p_path), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "NON_IDENTIFIABLE", "message": "sigma_w is numerically singular"}
    assert not out.exists()


def test_fit_missing_theta_exits_2(tmp_path, capsys):
    data, _, p_path = _make_binary_fixture(tmp_path, np.eye(2))
    rc = main(["fit", "--data", str(data), "--p", str(p_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "THETA_MISSING"


# Row 5 of the fixture rewritten from its y and w cells.
ROW5 = {
    "w_negative": "{y},-1",
    "y_inf": "inf,{w}",
    "y_nan": "nan,{w}",
    "w_fraction": "{y},0.5",
    "w_text": "{y},one",
    "ragged": "{y},{w},{w}",
    "label_unknown": "{y},maybe",
}


@pytest.mark.parametrize(
    "corrupt, code",
    [
        ("p_nan", "DATA_INVALID"),
        ("theta_nan", "DATA_INVALID"),
        ("w_negative", "DATA_INVALID"),
        ("y_inf", "DATA_INVALID"),
        ("y_nan", "DATA_INVALID"),
        ("w_fraction", "DATA_INVALID"),
        ("w_text", "DATA_INVALID"),
        ("ragged", "DATA_INVALID"),
        ("label_unknown", "DATA_INVALID"),
        ("labels_malformed", "DATA_INVALID"),
        ("labels_not_lists", "DATA_INVALID"),
        ("header_only", "DATA_INVALID"),
        ("theta_one_row", "VALIDATION"),
    ],
)
def test_fit_bad_input_exits_2_with_one_json_line(tmp_path, capsys, corrupt, code):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    truth = tmp_path / "truth.csv"
    truth.write_text("0.5,0.7\n")
    rows = data.read_text().splitlines()
    if corrupt in ROW5:
        yv, wv = rows[5].split(",")
        rows[5] = ROW5[corrupt].format(y=yv, w=wv)
    labels = {
        "label_unknown": '{"w1": ["0", "1"]}',  # the cells 0 and 1 become labels
        "labels_malformed": '{"w1": ["0", "1"',
        "labels_not_lists": '{"w1": "01"}',
    }
    if corrupt in labels:
        (tmp_path / "labels.json").write_text(labels[corrupt])
    data.write_text("\n".join(rows[:1] if corrupt == "header_only" else rows) + "\n")
    if corrupt == "p_nan":
        p_path.write_text("nan,0.5\n")
    if corrupt == "theta_nan":
        theta_path.write_text("nan,0.1\n0.2,0.8\n")
    if corrupt == "theta_one_row":
        theta_path.write_text("1\n")
    files = ["--data", str(data), "--theta", str(theta_path), "--out", str(tmp_path / "out")]
    # diagnose estimates p from the data unless p itself is the corrupt input
    marginal = ["--p", str(p_path)] if corrupt == "p_nan" else ["--estimate-p"]
    for argv in (
        ["fit", *files, "--p", str(p_path)],
        ["diagnose", *files, "--truth", str(truth), *marginal],
    ):
        assert main(argv) == 2, argv[0]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, argv[0]
        assert json.loads(lines[0])["error"] == code, argv[0]


def test_a_non_finite_y_names_its_file_row_and_header_column(tmp_path, capsys):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    rows = data.read_text().splitlines()
    rows[0] = "Y,w1"
    rows[2] = "nan," + rows[2].split(",")[1]  # data row 2
    data.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--data", str(data), "--theta", str(theta_path),
                 "--p", str(p_path), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "DATA_INVALID",
                   "message": f"{data}: data row 2, column Y: nan is not finite"}


def test_fit_out_of_range_category_names_its_row_column_and_value(tmp_path, capsys):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    rows = data.read_text().splitlines()
    rows[7] = rows[7].split(",")[0] + ",2"  # data row 7; the binary theta allows 0..1
    data.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--data", str(data), "--theta", str(theta_path),
                 "--p", str(p_path), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DATA_INVALID"
    assert err["message"] == "OutOfRangeCategory: data row 7, column w1: 2 is not in 0..1"


def _four_level_fixture(tmp_path, drawn=4):
    """40 rows of w1 drawn from 0..drawn-1 under a 4-level theta, with a
    uniform p and a truth of 4 parameters; returns the fit arguments."""
    rng = np.random.default_rng(12)
    _write_dataset(tmp_path / "data.csv", rng.standard_normal(40), rng.integers(0, drawn, (40, 1)))
    _write_theta(tmp_path / "theta.csv", scenario_theta("low", 4))
    (tmp_path / "p.csv").write_text("0.25,0.25,0.25,0.25\n")
    (tmp_path / "truth.csv").write_text("0.5,0.7,0.9,1.1\n")
    return ["--data", str(tmp_path / "data.csv"), "--theta", str(tmp_path / "theta.csv"),
            "--p", str(tmp_path / "p.csv"), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_a_level_that_never_occurs_is_data_invalid_naming_column_and_level(
    tmp_path, capsys, command
):
    # w1 takes 0..2 under a 4-level theta: the design would be singular
    files = _four_level_fixture(tmp_path, drawn=3)
    truth = ["--truth", str(tmp_path / "truth.csv")] if command == "diagnose" else []
    assert main([command, *files, *truth]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "DATA_INVALID", "message": "column w1: level 3 never occurs"}
    assert not (tmp_path / "out").exists()


def test_a_level_that_never_occurs_is_named_by_its_label_in_a_labelled_column(
    tmp_path, capsys
):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    rows = data.read_text().splitlines()
    data.write_text("\n".join([rows[0], *(f"{r.split(',')[0]},{'ab'[int(r[-1])]}"
                                           for r in rows[1:])]) + "\n")
    (tmp_path / "labels.json").write_text('{"w1": ["a", "b", "c"]}')
    _write_theta(theta_path, scenario_theta("low", 3))
    p_path.write_text("0.3,0.3,0.4\n")
    assert _fit_error(capsys, data, theta_path, p_path, tmp_path / "out") == {
        "error": "DATA_INVALID", "message": "column w1: level 2 ('c') never occurs"}


@pytest.mark.parametrize("name, body, message", [
    ("p", "0.25,0.25\n0.25,0.25\n", "expected one row of 4 entries, got 2 x 2"),
    ("p", "0.2,0.3,0.5\n", "expected one row of 4 entries, got 1 x 3"),
    ("truth", "0.5,0.7\n0.9,1.1\n", "expected one row of 4 entries, got 2 x 2"),
    ("truth", "0.5,0.7,0.9\n", "expected one row of 4 entries, got 1 x 3"),
], ids=["p_2x2", "p_3", "truth_2x2", "truth_3"])
def test_a_p_or_truth_file_of_the_wrong_shape_is_data_invalid_naming_it(
    tmp_path, capsys, name, body, message
):
    files = _four_level_fixture(tmp_path)
    (tmp_path / f"{name}.csv").write_text(body)
    assert main(["diagnose", *files, "--truth", str(tmp_path / "truth.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "DATA_INVALID", "message": f"{tmp_path / name}.csv: {message}"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("drawn", [4, 3], ids=["valid_data", "absent_level"])
def test_a_bad_truth_file_is_refused_before_the_data_is_validated_or_fit(
    tmp_path, capsys, monkeypatch, drawn
):
    def no_fit(*args):
        raise AssertionError("fit_cells ran before the truth file was checked")

    monkeypatch.setattr(cli, "fit_cells", no_fit)
    files = _four_level_fixture(tmp_path, drawn)
    (tmp_path / "truth.csv").write_text("0.5,0.7,0.9\n")
    assert main(["diagnose", *files, "--truth", str(tmp_path / "truth.csv")]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "DATA_INVALID",
        "message": f"{tmp_path / 'truth.csv'}: expected one row of 4 entries, got 1 x 3"}


@pytest.mark.parametrize("name, code", [
    ("theta", "THETA_MISSING"), ("p", "P_MISSING"), ("truth", "TRUTH_REQUIRED")])
def test_an_empty_theta_p_or_truth_file_is_named(tmp_path, capsys, name, code):
    files = _four_level_fixture(tmp_path)
    (tmp_path / f"{name}.csv").write_text("")
    assert main(["diagnose", *files, "--truth", str(tmp_path / "truth.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": code, "message": f"empty file: {tmp_path / name}.csv"}


_CELLS = ["0", "1", "2", "-1", "0.5", "1e308", "nan", "inf", "", "x", '"1"', " 1 ", "#"]


def _run_quietly(argv):
    """main(argv) and what it printed on stderr, warnings counted as lines."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, err.getvalue().splitlines() + [str(w.message) for w in caught]


def _fit_or_diagnose_ends_in_one_exit_status(tmp_path, body, command, labels=None):
    data = tmp_path / "data.csv"
    data.write_bytes(body)
    if labels is not None:
        (tmp_path / "labels.json").write_text(json.dumps(labels))
    theta = tmp_path / "theta.csv"
    _write_theta(theta, LOW2)
    p_path = tmp_path / "p.csv"
    p_path.write_text("0.5,0.5\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("0.5,0.7\n")
    rc, lines = _run_quietly([
        command, "--data", str(data), "--theta", str(theta),
        "--p", str(p_path), "--out", str(tmp_path / "out"),
        *(["--truth", str(truth)] if command == "diagnose" else []),
    ])
    assert rc in (0, 2, 3)
    assert lines == [] or (len(lines) == 1 and "error" in json.loads(lines[0]))


def _data_bodies(cells):
    """Raw bytes, or a y,w1 header over rows of 1 to 3 of the given cells."""
    return st.one_of(
        st.binary(max_size=120),
        st.lists(
            st.lists(st.sampled_from(cells), min_size=1, max_size=3).map(",".join),
            max_size=12,
        ).map(lambda rows: "\n".join(["y,w1", *rows]).encode()),
    )


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(body=_data_bodies(_CELLS), command=st.sampled_from(["fit", "diagnose"]))
def test_fit_any_data_bytes_end_in_one_exit_status_and_at_most_one_json_line(
    tmp_path, body, command
):
    _fit_or_diagnose_ends_in_one_exit_status(tmp_path, body, command)


# label cells that match as read, only after the full-width re-read, or never
_LABEL_CELLS = ["a", "bb", " a ", '"a"', '" bb "', "a" * 20, "", "zz", "a\0", "\u3000a"]


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(body=_data_bodies(_CELLS + _LABEL_CELLS), command=st.sampled_from(["fit", "diagnose"]))
def test_fit_any_labelled_data_ends_in_one_exit_status_and_at_most_one_json_line(
    tmp_path, body, command
):
    _fit_or_diagnose_ends_in_one_exit_status(tmp_path, body, command, {"w1": ["a", "bb"]})


_CONFIG_KEYS = [
    "scenario", "k", "levels", "n-grid", "sigmas", "seed", "threads", "dump-data", "data",
    "theta", "p", "estimate-p", "truth", "plugin-sigma", "variance-sim", "sigma", "out",
]
_CONFIG_VALUES = [
    None, True, False, -1, 0, 1, 2, 2.5, 1e308, "", "x", "1,2", "nan", "low", "high",
    "random", [], [1, 2], {}, "data.csv", "theta.csv", "p.csv", "truth.csv",
]
# a config every command runs with; the fuzzed entries override some of it
_RUNNABLE = {
    "data": "data.csv", "theta": "theta.csv", "p": "p.csv", "truth": "truth.csv",
    "scenario": "low", "levels": "2", "sigmas": "0.5",
}


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    body=st.one_of(
        st.binary(max_size=60),
        st.dictionaries(
            st.sampled_from(_CONFIG_KEYS), st.sampled_from(_CONFIG_VALUES), max_size=4
        ).map(lambda cfg: json.dumps({**_RUNNABLE, **cfg}).encode()),
    ),
    command=st.sampled_from(["fit", "diagnose", "simulate"]),
)
def test_any_config_file_ends_in_one_exit_status_and_at_most_one_json_line(
    tmp_path, body, command
):
    # relative paths in the config resolve against the fixture directory;
    # the grid size is pinned by flags so that no example runs long
    data, _, _ = _make_binary_fixture(tmp_path, LOW2, n=60)
    _write_theta(tmp_path / "theta.csv", LOW2)
    (tmp_path / "truth.csv").write_text("0.5,0.7\n")
    config = tmp_path / "config.json"
    config.write_bytes(body)
    small = ["--replicates", "2", "--n-grid", "20,40"] if command != "fit" else []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        rc, lines = _run_quietly([command, "--config", str(config), *small])
    assert rc in (0, 2, 3)
    assert lines == [] or (len(lines) == 1 and "error" in json.loads(lines[0]))


def test_fit_labels_sidecar(tmp_path):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, np.eye(2), n=60)
    argv = ["fit", "--data", str(data), "--theta", str(theta_path), "--p", str(p_path)]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    # rewrite the data file with string labels and add the sidecar; a label
    # may hold '#' and, quoted, a comma, a padded cell is stripped, a label
    # may be longer than the text field of the first read, and blank lines
    # are skipped
    rows = data.read_text().strip().split("\n")
    names = ["yes #1", "no, really, " + "o" * 30]
    forms = ['"{}"', '" {} "', '"\t{}"']
    relabeled = [rows[0], ""]
    for i, line in enumerate(rows[1:]):
        yv, wv = line.split(",")
        relabeled.append(f'"{yv}",' + forms[i % len(forms)].format(names[int(wv)]))
    data.write_text("\n".join(relabeled) + "\n")
    (tmp_path / "labels.json").write_text(json.dumps({"w1": names}))
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    estimates = (out / "estimates.csv").read_bytes()
    assert estimates == (tmp_path / "plain" / "estimates.csv").read_bytes()


def _labelled_fixture(tmp_path):
    """The binary fixture with w1 written as the labels a (0) and bb (1)."""
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    rows = data.read_text().splitlines()
    for i, line in enumerate(rows[1:], 1):
        yv, wv = line.split(",")
        rows[i] = f"{yv},{['a', 'bb'][int(wv)]}"
    data.write_text("\n".join(rows) + "\n")
    (tmp_path / "labels.json").write_text('{"w1": ["a", "bb"]}')
    return data, ["--theta", str(theta_path), "--p", str(p_path)]


@pytest.mark.parametrize(
    "cell, blank_lines, shown",
    [
        ("zz", 0, "'zz'"),
        ("", 0, "''"),
        ("bbbbbbbbbbbbbb", 0, "'bbbbbbbbbbbbbb'"),  # a truncating read would see bb
        ("zz", 2, "'zz'"),  # blank lines above it are not data rows
        (" zz ", 0, "' zz '"),
        ("a\0", 0, "'a\\x00'"),  # a text field drops trailing NULs
        ("z" * 150, 0, repr("z" * 150)[:100]),  # cut like numpy's own messages
    ],
    ids=["unknown", "empty", "longer_than_any", "after_blank_lines", "padded", "nul", "long"],
)
def test_an_unknown_label_names_its_data_row_column_and_cell(
    tmp_path, capsys, cell, blank_lines, shown
):
    data, files = _labelled_fixture(tmp_path)
    rows = data.read_text().splitlines()
    rows[4] = rows[4].split(",")[0] + "," + cell  # data row 4
    rows[2:2] = [""] * blank_lines
    data.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--data", str(data), *files, "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "DATA_INVALID",
        "message": f"{data}: data row 4, column w1: {shown} is not in labels.json",
    }


@pytest.mark.parametrize(
    "row, line, message",
    [
        (5, "{y},a,a", "data row 5 has 3 columns, not 2 like the rows above it"),
        (5, "{y}", "data row 5 has 1 columns, not 2 like the rows above it"),
        # the first data row is compared with the header, whatever follows it
        (1, "{y},a,a", "data row 1 does not match the header"),
        (1, "{y}", "data row 1 does not match the header"),
    ],
)
def test_a_ragged_row_of_a_labelled_file_names_its_data_row(
    tmp_path, capsys, row, line, message
):
    data, files = _labelled_fixture(tmp_path)
    rows = data.read_text().splitlines()
    rows[row] = line.format(y=rows[row].split(",")[0])
    data.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--data", str(data), *files, "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "DATA_INVALID", "message": f"{data}: {message}"}


def _read_dataset(data):
    """The data file as ``fit`` reads it, with the labels.json beside it: y,
    the n x K table of its category columns and their names."""
    y, columns, names = cli._read_dataset(str(data), cli._load_labels(str(data)))
    return y, np.column_stack(columns), names


def test_the_first_unknown_label_in_file_order_is_reported(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("y,w1,w2\n1,a,a\n1,a,zz\n1,zz,a\n")
    (tmp_path / "labels.json").write_text('{"w1": ["a", "b"], "w2": ["a", "b"]}')
    with pytest.raises(cli.CliError) as exc:
        _read_dataset(data)
    assert str(exc.value) == f"{data}: data row 2, column w2: 'zz' is not in labels.json"


def test_a_non_number_is_reported_before_an_earlier_unknown_label(tmp_path, capsys):
    # the parse stops at the first cell it cannot read; labels are matched after it
    data, files = _labelled_fixture(tmp_path)
    rows = data.read_text().splitlines()
    rows[2] = rows[2].split(",")[0] + ",zz"
    rows[6] = "x," + rows[6].split(",")[1]
    data.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--data", str(data), *files, "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == (
        f"{data}: data row 6, column y: 'x' is not a number")


@pytest.mark.parametrize(
    "labels, cells, expected",
    [
        # a label with surrounding spaces never matches: cells are stripped
        (["a ", "a"], ["a ", " a", "a"], [1, 1, 1]),
        (["", "a"], ["", " ", '""', "a"], [0, 0, 0, 1]),
        (["é", "中"], ["中", " é "], [1, 0]),
        # several 64-bit words: labels that share the first 8 bytes, 21 bytes of UTF-8
        (["category_alpha", "category_beta"], ["category_beta", " category_alpha"], [1, 0]),
        (["category_alpha", "category_beta"], ["category_"], "'category_'"),
        (["日本語のラベル", "é"], ["é", "日本語のラベル"], [1, 0]),
        # longer than the byte field of the first read: matched on re-read
        (["a", "x" * 40], ['"x' + "x" * 39 + '"', "x" * 40], [1, 1]),
        (["a", "x" * 40], ["x" * 39 + "y"], "'" + "x" * 39 + "y'"),
        # the byte field would read a label "b" + NUL as "b"
        (["a", "b\0"], ["a", "b"], "'b'"),
        ([], ["a"], "'a'"),
    ],
    ids=["spaced_label", "empty_label", "unicode", "shared_prefix", "label_prefix",
         "unicode_words", "long_label", "long_prefix", "nul_label", "no_labels"],
)
def test_read_dataset_matches_each_cell_stripped_against_the_labels(
    tmp_path, labels, cells, expected
):
    data = tmp_path / "data.csv"
    data.write_text("\n".join(["y,w1", *(f"1,{c}" for c in cells)]) + "\n")
    (tmp_path / "labels.json").write_text(json.dumps({"w1": labels}))
    if isinstance(expected, str):
        with pytest.raises(cli.CliError) as exc:
            _read_dataset(data)
        assert str(exc.value) == (  # the last cell is the unknown one
            f"{data}: data row {len(cells)}, column w1: {expected} is not in labels.json")
    else:
        y, w, names = _read_dataset(data)
        assert w[:, 0].tolist() == expected and names == ["w1"]


LABELS = ["a", "alpha", "é", "日本", "category_alpha", "category_beta", "categor", "x" * 40,
          " pad", "b\0", "\ud800"]


def _generated_labelled_files(tmp_path, count, seed):
    """Data files with labels.json columns, spelled in many ways: quoted and
    space-padded cells, unknown and prefix cells, float and NBSP-padded
    numbers, NUL, CRLF and bytes that are not UTF-8.  One file in ten is
    past the 8 KiB that the text reader decodes with the header, has only
    cells that match as read, and a byte after the y of its last row."""
    rng = random.Random(seed)
    for i in range(count):
        big = i % 10 == 0
        pool = LABELS[:7] if big else LABELS  # the labels a cell can match as read
        labels = {"w1": rng.sample(pool, rng.randint(1, 4))}
        if rng.random() < 0.3:
            labels["w2"] = rng.sample(pool, rng.randint(1, 3))
        rows = ["y,w1,w2"]
        for _ in range(500 if big else rng.randint(1, 6)):
            cells = [f"{rng.random():.17f}" if big else rng.choice(
                ["0.5", "-1.25", "3"] * 5 + ["1e3", " 2", "nan"])]
            for column in ("w1", "w2"):
                if column in labels:
                    label = rng.choice(labels[column])
                    cells.append(label if big else rng.choice(
                        [label, label, f'"{label}"', f" {label} ", f'" {label}"', label[:8],
                         label + "z"]))
                else:
                    cells.append("1" if big else rng.choice(
                        ["1", "0", " 2 "] * 8 + ["1.0", "2\u00a0", "x"]))
            rows.append(",".join(cells))
        eol = "\r\n" if rng.random() < 0.2 else "\n"
        body = eol.join(rows).encode("utf-8", "surrogatepass") + eol.encode()
        if big or rng.random() < 0.2:  # a byte latin-1 reads as whitespace, a NUL or not UTF-8
            at = body.rindex(b",", 0, body.rindex(b",")) if big else rng.randrange(len(body))
            body = body[:at] + rng.choice([b"\xa0", b"\x85", b"\0", b"\xff", b"\xc3"]) + body[at:]
        folder = tmp_path / f"{i:03d}"
        folder.mkdir()
        (folder / "data.csv").write_bytes(body)
        (folder / "labels.json").write_text(json.dumps(labels))
        yield folder / "data.csv"


def _reference_match(cells, labels):
    """Each cell looked up in a dict of the labels that can match a cell as
    read: UTF-8 shorter than the field, with no surrounding whitespace and
    no NUL (a field drops trailing NULs)."""
    keys = {b: i for i, s in enumerate(labels) if len(b := s.encode("utf-8", "replace"))
            < cells.itemsize and b.decode("utf-8") == s == s.strip() and "\0" not in s}
    return np.array([keys.get(bytes(cell), -1) for cell in cells], dtype=np.intp)


def _spelled_cells(rng, labels, width, count):
    """``count`` cells of ``width`` bytes: labels as written, one byte off,
    with a byte appended, truncated, empty or random bytes."""
    def spell(label):
        b = label.encode("utf-8", "surrogatepass")
        if not b:
            return rng.choice([b, b"\x01"])
        at = rng.randrange(len(b))
        return rng.choice([b, b, b[:at] + bytes([b[at] ^ 1]) + b[at + 1:], b + b"z",
                           b[:-1], b + b"\0", b"", bytes(rng.randrange(256) for _ in range(width))])
    return np.array([spell(rng.choice(labels)) if labels else b"a" for _ in range(count)],
                    dtype=f"S{width}")


def _random_labels(rng, count, width):
    """Distinct labels of up to ``width`` bytes of UTF-8: many share their
    first 8 bytes, some are not ASCII or hold a space; one in eight cannot
    match, for a surrounding space, a NUL or no byte to spare in the field."""
    stems = ["", "category", "categorz", "é", "日本", "\x7f", "a b"]
    labels = set()
    while len(labels) < count:
        label = rng.choice(stems) + "".join(
            rng.choice("abcxyz_éü中") for _ in range(rng.randint(0, width)))
        if rng.random() < 0.125:
            label = rng.choice([f" {label}", f"{label} ", f"{label}\0", "x" * width])
        if len(label.encode()) <= width:
            labels.add(label)
    return sorted(labels)


@pytest.mark.parametrize("count", [0, 1, 4, 300, 3000])
@pytest.mark.parametrize("words", [1, 2, 3, 4])
def test_match_numbers_cells_as_a_dict_of_the_labels_does(count, words):
    rng = random.Random(24 + count + words)
    width = 8 * words
    labels = _random_labels(rng, count, width)
    cells = _spelled_cells(rng, labels, width, 2000)
    got, want = cli._match(cells, labels), _reference_match(cells, labels)
    assert (got.dtype, got.tolist()) == (want.dtype, want.tolist())
    assert (want >= 0).sum() > (300 if count > 1 else -1)  # a lone label may not match


def test_match_is_exact_when_every_label_hashes_to_one_slot(monkeypatch):
    # zero multipliers put every label in slot 0: one pass per label
    monkeypatch.setattr(cli, "_HASH_MULTIPLIERS", np.zeros_like(cli._HASH_MULTIPLIERS))
    rng = random.Random(5)
    for words, count in ((1, 40), (3, 300)):
        labels = _random_labels(rng, count, 8 * words)
        cells = _spelled_cells(rng, labels, 8 * words, 1000)
        got, want = cli._match(cells, labels), _reference_match(cells, labels)
        assert got.tolist() == want.tolist() and (got >= 0).sum() > 100


def test_match_takes_ten_thousand_labels_over_a_hundred_thousand_cells_in_a_second():
    rng = random.Random(9)
    labels = sorted({"".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(7))
                     for _ in range(10_000)})
    cells = np.array([rng.choice(labels) if rng.random() < 0.9 else "unknown"
                      for _ in range(100_000)], dtype="S8")
    start = time.perf_counter()
    got = cli._match(cells, labels)
    assert time.perf_counter() - start < 1.0
    assert got.tolist() == _reference_match(cells, labels).tolist()


def test_the_smallest_labelled_fits_run_under_the_overflow_errstate(tmp_path, capsys):
    # cli.main raises on a wrapping numpy scalar product, as a hash of uint64
    # scalars would (exit 3); one row is refused for its rows, three fit
    data, files = _labelled_fixture(tmp_path)
    for rows, status in ((["1,bb"], 2), (["1,a", "2,bb", "4,a"], 0)):
        data.write_text("\n".join(["y,w1", *rows]) + "\n")
        assert main(["fit", "--data", str(data), *files, "--out", str(tmp_path / "out")]) == status
    assert json.loads(capsys.readouterr().err)["message"].endswith(
        "need at least 3 rows to fit 2 parameters, got 1")


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # the hash multipliers are literals: numpy.random costs some 14 ms to load and seed
    env = {**os.environ, "PYTHONPATH": str(Path(miscorr.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", "import sys, miscorr.cli; "
                           "print('numpy.random' in sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_the_bytes_parse_reads_what_the_text_parse_reads(tmp_path, monkeypatch):
    def read(data):
        try:
            y, w, names = _read_dataset(data)
            return y.tolist(), w.tolist(), names
        except cli.CliError as exc:
            return exc.code, str(exc)

    files = list(_generated_labelled_files(tmp_path, 300, seed=3))
    parse, by_bytes = cli._loadtxt, set()

    def spy(path, *args, encoding=None, **kwargs):
        table = parse(path, *args, encoding=encoding, **kwargs)
        if encoding == "latin-1":
            by_bytes.add(path)
        return table

    monkeypatch.setattr(cli, "_loadtxt", spy)
    as_is = [read(data) for data in files]

    def refuse_bytes(path, *args, encoding=None, **kwargs):
        if encoding == "latin-1":
            raise cli.CliError("DATA_INVALID", "refused")
        return parse(path, *args, encoding=encoding, **kwargs)

    monkeypatch.setattr(cli, "_loadtxt", refuse_bytes)
    assert [read(data) for data in files] == as_is
    # what the bytes parse took covers reads, unknown labels and decode errors
    outcomes = {len(out) for data, out in zip(files, as_is) if str(data) in by_bytes}
    assert outcomes == {2, 3} and len(by_bytes) > len(files) / 3
    assert any("codec can't decode" in out[-1] for out in as_is if len(out) == 2)


def test_a_file_without_0x85_or_0xa0_is_not_decoded_again(tmp_path, monkeypatch):
    # in latin-1 these are the only bytes past ASCII that a number parse takes
    # (as whitespace); other bytes past ASCII lie in label cells, which match
    # only labels that are UTF-8
    labels = ["ålpha", "βravo", "チャーリー"]
    data = tmp_path / "data.csv"
    data.write_text("y,w1,w2\n" + "".join(f"{i / 4},{i % 2},{labels[i % 3]}\n"
                                         for i in range(30)), encoding="utf-8")
    (tmp_path / "labels.json").write_text(json.dumps({"w2": labels}))
    body = data.read_bytes()
    assert not body.isascii() and b"\x85" not in body and b"\xa0" not in body

    def decoded(*args):
        raise AssertionError("the file was decoded again")

    monkeypatch.setattr(cli, "_file_decode_error", decoded)
    y, w, names = _read_dataset(data)
    assert y.tolist() == [i / 4 for i in range(30)] and names == ["w1", "w2"]
    assert w.tolist() == [[i % 2, i % 3] for i in range(30)]


CATEGORY_CELLS = [
    *((cell, 1) for cell in ["1", "1.0", "1e0", " 1", "+1", "01", '"1"', "\t1", "1."]),
    ("-0", 0), (".5e1", 5),
    ("9007199254740993", 9007199254740993),  # read as an integer, exactly
    ("1_0", "'1_0' is not a number"), ("0x1", "'0x1' is not a number"),
    ("", "'' is not a number"),
    ("1.5", "1.5 is not an integer"), ("-0.5", "-0.5 is not an integer"),
    ("nan", "nan is not an integer"), ("inf", "inf is not an integer"),
    # beyond 64 bits, or a float of 2**53 or more: quoted as written
    ("99999999999999999999", "'99999999999999999999' is out of range"),
    ("1e300", "'1e300' is out of range"), ("9007199254740993.0", "'9007199254740993.0' is out of range"),
]


@pytest.mark.parametrize("cell, read", CATEGORY_CELLS)
def test_a_category_cell_is_read_as_an_integer_or_named(tmp_path, cell, read):
    data = tmp_path / "data.csv"
    data.write_text(f"y,w1\n0.5,{cell}\n1.5,0\n")
    if isinstance(read, str):
        with pytest.raises(cli.CliError) as exc:
            _read_dataset(data)
        assert str(exc.value) == f"{data}: data row 1, column w1: {read}"
    else:
        y, w, names = _read_dataset(data)
        assert w.tolist() == [[read], [0]] and y.tolist() == [0.5, 1.5]


@pytest.mark.parametrize("cell, read", CATEGORY_CELLS)
def test_a_category_cell_is_read_alike_where_numpy_reads_an_integer_through_a_float(
    tmp_path, monkeypatch, cell, read
):
    # numpy 1.23 to 1.26 read an integer field's 1.0, 1.5 or nan through a
    # float: a DeprecationWarning, then the value cast with truncation
    real = np.loadtxt

    def loadtxt(*args, dtype=float, **kwargs):
        try:
            return real(*args, dtype=dtype, **kwargs)
        except ValueError:
            dtype = np.dtype(dtype)
            if dtype.names is None:
                raise
            floats = [(f, "f8" if dtype[f].kind == "i" else dtype[f]) for f in dtype.names]
            table = real(*args, dtype=floats, **kwargs)
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            with np.errstate(invalid="ignore"):
                return table.astype(dtype)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    test_a_category_cell_is_read_as_an_integer_or_named(tmp_path, cell, read)


def test_a_float_spelled_category_in_the_last_row_reads_the_whole_file_as_numbers(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("y,w1\n" + "".join(f"{i}.5,{i % 3}\n" for i in range(499)) + "499.5,1.0\n")
    y, w, names = _read_dataset(data)
    assert w[:, 0].tolist() == [i % 3 for i in range(499)] + [1]
    assert y.tolist() == [i + 0.5 for i in range(500)] and names == ["w1"]


def _fit_error(capsys, data, theta_path, p_path, out):
    """fit on these files: it exits 2, writes one JSON line and no ``out``."""
    assert main(["fit", "--data", str(data), "--theta", str(theta_path),
                 "--p", str(p_path), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert not out.exists()
    return json.loads(lines[0])


def test_a_data_name_that_parses_as_a_url_is_read_as_the_local_file(tmp_path, monkeypatch):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=200)
    (tmp_path / "s3:" / "bucket").mkdir(parents=True)
    shutil.copy(data, tmp_path / "s3:" / "bucket" / "data.csv")

    def no_fetch(*args, **kwargs):
        raise AssertionError(f"fetched {args}")

    monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
    monkeypatch.chdir(tmp_path)
    files = ["--theta", str(theta_path), "--p", str(p_path)]
    assert main(["fit", "--data", "data.csv", *files, "--out", "plain"]) == 0
    assert main(["fit", "--data", "s3://bucket/data.csv", *files, "--out", "url"]) == 0
    estimates = [(tmp_path / out / "estimates.csv").read_bytes() for out in ("plain", "url")]
    assert estimates[0] == estimates[1]


@pytest.mark.parametrize(
    "name, suffix",
    [("data", s) for s in (".gz", ".bz2", ".xz", ".lzma")] + [("theta", ".gz")],
)
def test_a_compressed_file_name_is_data_invalid(tmp_path, capsys, name, suffix):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    files = {"data": data, "theta": theta_path}
    plain_text = files[name] = files[name].rename(f"{files[name]}{suffix}")
    err = _fit_error(capsys, files["data"], files["theta"], p_path, tmp_path / "out")
    assert err == {"error": "DATA_INVALID",
                   "message": f"{plain_text}: compressed data files are not read"}


@pytest.mark.parametrize("name, code", [("data", "DATA_MISSING")])
def test_a_file_removed_before_its_parse_is_missing_not_an_output_error(
    tmp_path, capsys, monkeypatch, name, code
):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    gone = data
    loadtxt = np.loadtxt

    def remove_then_load(source, *args, **kwargs):
        if source == str(gone):  # after the data file's NUL scan and header line
            gone.unlink()
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", remove_then_load)
    err = _fit_error(capsys, data, theta_path, p_path, tmp_path / "out")
    assert err == {"error": code, "message": f"cannot read {gone}: {gone} not found."}


def test_theta_and_p_files_are_parsed_through_the_handle_that_opened_them(
    tmp_path, capsys, monkeypatch
):
    # removed once opened: numpy, given the path again, would find it gone
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    opened = cli._open

    def open_then_remove(path, code, mode="r"):
        handle = opened(path, code, mode)
        if path in (str(theta_path), str(p_path)):
            Path(path).unlink()
        return handle

    monkeypatch.setattr(cli, "_open", open_then_remove)
    assert main(["fit", "--data", str(data), "--theta", str(theta_path), "--p", str(p_path),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == "" and not theta_path.exists() and not p_path.exists()


@pytest.mark.parametrize("name, code", [("data", "DATA_MISSING"), ("theta", "THETA_MISSING")])
def test_a_missing_file_is_not_read_from_a_compressed_sibling(tmp_path, capsys, name, code):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    missing = {"data": data, "theta": theta_path}[name]
    missing.rename(f"{missing}.gz")  # numpy, given the missing name, would open this one
    err = _fit_error(capsys, data, theta_path, p_path, tmp_path / "out")
    assert err == {"error": code, "message": f"cannot read {missing}: No such file or directory"}


def test_a_byte_that_is_not_utf8_past_the_first_mebibyte_names_the_file(tmp_path, capsys):
    _, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    rows = [b"y,w1"] + [b"0.5,0", b"1.5,1"] * 100_000
    rows[180_001] = b"1.5,\xff"  # byte 1,080,009 of 1,200,005
    data = tmp_path / "data.csv"
    data.write_bytes(b"\n".join(rows) + b"\n")
    err = _fit_error(capsys, data, theta_path, p_path, tmp_path / "out")
    # the position is the byte offset from the start of the file
    assert err == {"error": "DATA_INVALID", "message": f"{data}: 'utf-8' codec can't decode "
                   "byte 0xff in position 1080009: invalid start byte"}


BOM = "\ufeff"  # U+FEFF, the byte-order mark


def _bom_fixture(tmp_path):
    """diagnose on the labelled fixture, with a truth file and a --config
    file that sets --plugin-sigma: its argv, and the file of each input kind."""
    data, files = _labelled_fixture(tmp_path)
    (tmp_path / "truth.csv").write_text("0.5,0.7\n")
    (tmp_path / "config.json").write_text('{"plugin-sigma": 0.5}\n')
    kinds = {"data": data, "labels": tmp_path / "labels.json", "theta": Path(files[1]),
             "p": Path(files[3]), "truth": tmp_path / "truth.csv",
             "config": tmp_path / "config.json"}
    argv = ["diagnose", "--data", str(data), *files, "--truth", str(kinds["truth"]),
            "--config", str(kinds["config"])]
    return argv, kinds


def _outputs(capsys, argv, out):
    """A command's exit status, stderr and output files, by name."""
    status = main([*argv, "--out", str(out)])
    return status, capsys.readouterr().err, {f.name: f.read_bytes() for f in out.iterdir()}


@pytest.mark.parametrize("kind, eol", [
    ("data", "\n"), ("data", "\r\n"), ("labels", "\n"), ("theta", "\n"), ("p", "\n"),
    ("truth", "\n"), ("config", "\n")],
    ids=["data", "data_crlf", "labels", "theta", "p", "truth", "config"])
def test_a_leading_byte_order_mark_leaves_every_output_as_it_is(tmp_path, capsys, kind, eol):
    # spreadsheet "CSV UTF-8" exports write one, and Windows tools end lines with CRLF
    argv, kinds = _bom_fixture(tmp_path)
    plain = _outputs(capsys, argv, tmp_path / "plain")
    assert plain[0] == 0 and plain[1] == "" and set(plain[2]) == {
        "bias.csv", "variance.csv", "config.json"}
    path = kinds[kind]
    path.write_bytes(f"{BOM}{path.read_text()}".replace("\n", eol).encode("utf-8"))
    assert _outputs(capsys, argv, tmp_path / "bom") == plain


@pytest.mark.parametrize("kind, text, message", [
    ("data", f"{BOM}{BOM}y,w1\n0.5,a\n", "expected header y,w1..wK, got '\\ufeffy,w1'"),
    ("data", f"y,w1\n{BOM}0.5,a\n", "data row 1, column y: '\\ufeff0.5' is not a number"),
    ("data", f"y,w1\n0.5,{BOM}a\n", "data row 1, column w1: '\\ufeffa' is not in labels.json"),
    ("theta", f"0.9,0.1\n{BOM}0.1,0.9\n", "data row 2, column 1: '\\ufeff0.1' is not a number"),
    ("p", f"{BOM}{BOM}0.5,0.5\n", "data row 1, column 1: '\\ufeff0.5' is not a number"),
    ("truth", f"0.5,{BOM}0.7\n", "data row 1, column 2: '\\ufeff0.7' is not a number"),
    ("labels", f'{BOM}{BOM}{{"w1": ["a", "bb"]}}', "bad JSON in {path}: Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("config", f'{{{BOM}"plugin-sigma": 0.5}}', "bad JSON in {path}: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
], ids=["data_header", "data_y", "data_label", "theta", "p", "truth", "labels", "config"])
def test_a_byte_order_mark_past_the_first_character_is_refused(
    tmp_path, capsys, kind, text, message
):
    argv, kinds = _bom_fixture(tmp_path)
    path = kinds[kind]
    path.write_text(text, encoding="utf-8")
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    where = "" if message.startswith("bad JSON") else f"{path}: "
    assert err["message"] == where + message.format(path=path)


@pytest.mark.parametrize("header, shown", [
    ("y;w1;w2", "'y;w1;w2'"), ("x,w1", "'x,w1'"), ("y", "'y'"),
    ("y;" + "w" * 150, repr("y;" + "w" * 150)[:100])],
    ids=["semicolons", "no_y", "one_column", "long"])
def test_a_header_that_is_not_y_w1_wk_is_quoted_as_read(tmp_path, capsys, header, shown):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    data.write_text(header + "\n" + data.read_text().split("\n", 1)[1])
    err = _fit_error(capsys, data, theta_path, p_path, tmp_path / "out")
    assert err == {"error": "DATA_INVALID",
                   "message": f"{data}: expected header y,w1..wK, got {shown}"}


@pytest.mark.parametrize("header, twice", [("y,w1,w1", "'w1'"), ("y, w2,w1 ,w2", "'w2'"),
                                           ("y,y", "'y'")], ids=["adjacent", "spaced", "y"])
def test_a_header_that_names_a_column_twice_is_refused(tmp_path, capsys, header, twice):
    # labels.json and the messages know a covariate by its name, so no two may share one
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    rows = data.read_text().split("\n")[1:]
    extra = header.count(",") - 1
    data.write_text("\n".join([header, *(row + ("," + row.split(",")[1]) * extra if row else row
                                         for row in rows)]))
    err = _fit_error(capsys, data, theta_path, p_path, tmp_path / "out")
    assert err == {"error": "DATA_INVALID",
                   "message": f"{data}: the header names column {twice} twice"}


def test_fit_writes_the_same_bytes_under_an_ascii_locale(tmp_path):
    # Python decodes open()'s text in the locale's codec; the CLI names UTF-8 itself
    data, files = _labelled_fixture(tmp_path)
    data.write_text(data.read_text().replace(",a\n", ",ålpha\n").replace(",bb\n", ",βravo\n"),
                    encoding="utf-8")
    (tmp_path / "labels.json").write_text('{"w1": ["ålpha", "βravo"]}', encoding="utf-8")
    run = "import sys; from miscorr.cli import main; sys.exit(main(sys.argv[1:]))"
    probe = "import locale; print(locale.getpreferredencoding(False))"
    env = {**os.environ, "PYTHONPATH": str(Path(miscorr.__file__).parents[1])}
    ascii_env = {**env, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    assert subprocess.run([sys.executable, "-c", probe], env=ascii_env, capture_output=True,
                          text=True, check=True).stdout.strip().lower() != "utf-8"
    outputs = []
    for name, environ in (("default", env), ("ascii", ascii_env)):
        out = tmp_path / name
        done = subprocess.run([sys.executable, "-c", run, "fit", "--data", str(data), *files,
                               "--out", str(out)], env=environ, capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


def test_a_deleted_working_directory_is_named_as_the_cause(tmp_path, capsys, monkeypatch):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    err = _fit_error(capsys, data, theta_path, p_path, tmp_path / "out")
    assert err == {"error": "DATA_MISSING",
                   "message": f"cannot read {data}: the working directory no longer exists"}


def test_a_deleted_working_directory_is_named_when_an_output_is_written(
        tmp_path, capsys, monkeypatch):
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    assert main(["simulate", "--scenario", "low", "--levels", "2", "--n-grid", "50",
                 "--sigmas", "0.1", "--replicates", "2"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "CONFIG_INVALID",
        "message": "cannot write eqp.csv: the working directory no longer exists"}


def _two_covariate_files(tmp_path):
    """A K=2 dataset with its theta and p files: data, [theta1, theta2], [p1, p2]."""
    rng = np.random.default_rng(5)
    x = simulate_x([np.full(2, 0.5)] * 2, 200, rng)
    w = simulate_w(x, [LOW2, LOW2], rng)
    design = encode_dummy(CategoricalSpec((2, 2)), x).design
    _write_dataset(tmp_path / "data.csv", _response(design, TruthSpec.default(2), 0.1, rng), w)
    thetas = [tmp_path / f"theta{k}.csv" for k in (1, 2)]
    ps = [tmp_path / f"p{k}.csv" for k in (1, 2)]
    for theta_path, p_path in zip(thetas, ps):
        _write_theta(theta_path, LOW2)
        p_path.write_text("0.5,0.5\n")
    return tmp_path / "data.csv", thetas, ps


def _fit_two(tmp_path, data, thetas, ps):
    return main(["fit", "--data", str(data), "--theta", ",".join(map(str, thetas)),
                 "--p", ",".join(map(str, ps)), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("name, row", [("theta", "0.9,0.2\n0.15,0.85\n"), ("p", "0.5,0.6\n")],
                         ids=["theta", "p"])
def test_a_bad_theta_or_p_file_is_named_in_its_error(tmp_path, capsys, name, row):
    data, thetas, ps = _two_covariate_files(tmp_path)
    bad = (thetas if name == "theta" else ps)[1]
    bad.write_text(row)
    assert _fit_two(tmp_path, data, thetas, ps) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "VALIDATION", "message": f"{bad}: {name} rows do not sum to 1 (max error 0.1)"}


@pytest.mark.parametrize("name, row",
                         [("theta", "0.9,0.1000000001\n0.15,0.85\n"), ("p", "0.5,0.5000000001\n")],
                         ids=["theta", "p"])
def test_a_renormalized_theta_or_p_file_is_named_in_its_warning(tmp_path, capsys, name, row):
    data, thetas, ps = _two_covariate_files(tmp_path)
    off = (thetas if name == "theta" else ps)[1]
    off.write_text(row)
    assert _fit_two(tmp_path, data, thetas, ps) == 0
    message = f"{off}: renormalizing {name} rows (max error 1e-10)"
    assert json.loads(capsys.readouterr().err) == {"warning": "RENORMALIZED", "message": message}
    assert json.loads((tmp_path / "out" / "diagnostics.json").read_text())["warnings"] == [message]


@pytest.mark.parametrize("name", ["theta", "p"])
def test_a_renormalized_theta_or_p_is_one_json_warning_and_listed(tmp_path, capsys, name):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    if name == "theta":
        theta_path.write_text("0.9,0.1000000001\n0.15,0.85\n")
    else:
        p_path.write_text("0.5,0.5000000001\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("0.5,0.7\n")
    files = ["--data", str(data), "--theta", str(theta_path), "--p", str(p_path)]
    line = {"warning": "RENORMALIZED", "message":
            f"{theta_path if name == 'theta' else p_path}: renormalizing {name} rows "
            "(max error 1e-10)"}
    for command, extra in [("fit", []), ("diagnose", ["--truth", str(truth)])]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, *files, *extra, "--out", str(tmp_path / command)]) == 0
        assert caught == []
        assert [json.loads(s) for s in capsys.readouterr().err.splitlines()] == [line]
    diag = json.loads((tmp_path / "fit" / "diagnostics.json").read_text())
    assert diag["warnings"] == [line["message"]]


def test_fit_overflowing_response_exits_3(tmp_path, capsys):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    rows = data.read_text().splitlines()
    data.write_text("\n".join([rows[0]] + ["1e300," + r.split(",")[1] for r in rows[1:]]))
    rc = main([
        "fit", "--data", str(data), "--theta", str(theta_path),
        "--p", str(p_path), "--out", str(tmp_path / "out"),
    ])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "NUMERICAL"


def test_simulate_smoke(tmp_path):
    out = tmp_path / "sim"
    rc = main([
        "simulate", "--scenario", "low", "--levels", "2",
        "--n-grid", "100,200", "--sigmas", "0.1",
        "--replicates", "3", "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "eqp.csv").read_text().strip().split("\n")
    assert lines[0] == "distortion,K,levels,n,sigma,method,eqp,mcse,failures,replicates"
    assert len(lines) == 1 + 2 * 1 * 3
    assert (out / "eqp_low_K1_sigma0.1.svg").exists()
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["scenario"] == "low"
    assert cfg["replicates"] == 3


def test_simulate_byte_identical_across_runs_and_threads(tmp_path):
    args = [
        "simulate", "--scenario", "medium", "--k", "2",
        "--n-grid", "60,120", "--sigmas", "0.1,0.5",
        "--replicates", "4", "--seed", "5",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--threads", "1", "--out", str(out_a)]) == 0
    assert main(args + ["--threads", "8", "--out", str(out_b)]) == 0
    assert (out_a / "eqp.csv").read_bytes() == (out_b / "eqp.csv").read_bytes()


def test_running_out_of_memory_is_one_json_line_and_exit_3(tmp_path, capsys, monkeypatch):
    # the grid is never asked for the memory: its first call fails as numpy would
    message = "Unable to allocate 745. GiB for an array with shape (100000000000,)"

    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_grid", no_memory)
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "low", "--levels", "2", "--n-grid", "100000000000",
                 "--replicates", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == json.dumps(
        {"error": "OUT_OF_MEMORY", "message": message}) + "\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate"], ["diagnose", "--variance-sim"]])
def test_a_grid_past_physical_memory_is_refused_before_any_draw(tmp_path, capsys, monkeypatch,
                                                                 command):
    # 1e9 rows hold 8e9 bytes per column, past the 8 GiB of memory given here: the
    # operating system would grant the draws lazily and kill the process later
    def drawn(*args):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(simkit, "_physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(simkit, "_rng", drawn)
    out = tmp_path / "out"
    assert main([*command, "--scenario", "low", "--replicates", "3",
                 "--n-grid", "1000000000", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    error = json.loads(line)
    assert error["error"] == "OUT_OF_MEMORY"
    assert error["message"].startswith("one replicate of 1000000000 rows needs ")
    assert captured.out == "" and not out.exists()


def test_each_eqp_chart_draws_exactly_the_finite_cells_of_its_sigma(tmp_path):
    # K=3 random levels have 4 to 10 parameters: n=4 is refused in every replicate, n=8 in some
    config = simkit.ScenarioConfig("medium", n_covariates=3, levels=None, n_grid=(4, 8, 50),
                                   sigma_list=(0.2, 1.0), replicates=12, master_seed=21)
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "medium", "--k", "3", "--levels", "random",
                 "--n-grid", "4,8,50", "--sigmas", "0.2,1", "--replicates", "12",
                 "--seed", "21", "--out", str(out)]) == 0
    table = simkit.run_grid(config)
    assert (out / "eqp.csv").read_text() == table.to_csv()
    assert table.failures[0] == 12 and 0 < table.failures[1] < 12
    for s, sigma in enumerate(config.sigma_list):
        eqps = table.eqp[:, s].tolist()  # [n][method]
        series = {method: [(n, row[j]) for n, row in zip(config.n_grid, eqps)
                           if np.isfinite(row[j])]
                  for j, method in enumerate(simkit.METHODS)}
        assert [[n for n, _ in points] for points in series.values()] == [[8, 50]] * 3
        svg = (out / f"eqp_medium_K3_sigma{sigma:g}.svg").read_text()
        assert svg == line_chart(series, f"EQP, medium distortion, K=3, sigma={sigma:g}",
                                 y_label="EQP")
        assert [len(points.split()) for points in re.findall(r'<polyline points="([^"]*)"', svg)
                ] == [2, 2, 2]


def test_simulate_grid_below_the_column_count_reports_failures(tmp_path):
    out = tmp_path / "sim"
    assert main([
        "simulate", "--scenario", "low", "--levels", "2", "--n-grid", "1",
        "--sigmas", "0.1", "--replicates", "2", "--out", str(out),
    ]) == 0
    for line in (out / "eqp.csv").read_text().strip().split("\n")[1:]:
        assert line.endswith(",nan,nan,2,0")
    assert not list(out.glob("*.svg"))  # no chart without a single fitted cell


def test_simulate_high_with_three_levels_exits_2(tmp_path, capsys):
    rc = main([
        "simulate", "--scenario", "high", "--levels", "3",
        "--n-grid", "100", "--replicates", "2", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UNDEFINED_SCENARIO"


@pytest.mark.parametrize(
    "scenario, sigmas, ran, dropped",
    [
        ("high", [], [0.1, 1.0], "0.2, 0.5"),  # the default sigmas
        ("high", ["--sigmas", "0.3,1,2.5"], [1.0], "0.3, 2.5"),
        ("high", ["--sigmas", "1,0.1"], [1.0, 0.1], None),
        ("low", [], [0.1, 0.2, 0.5, 1.0], None),
    ],
)
def test_simulate_names_the_sigmas_high_distortion_drops(tmp_path, capsys, scenario, sigmas,
                                                         ran, dropped):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", scenario, "--n-grid", "30", "--replicates", "2",
                 *sigmas, "--out", str(out)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert lines == ([] if dropped is None else [{
        "warning": "SIGMA_DROPPED",
        "message": f"high distortion runs only sigma 0.1 and 1; dropped sigma {dropped}"}])
    assert json.loads((out / "config.json").read_text())["sigmas"] == ran


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--n-grid", "abc"], {}),
        (["--levels", "x"], {}),
        (["--sigmas", "0.1,zz"], {}),
        ([], {"seed": "abc"}),
        ([], {"n-grid": 100.5}),
        ([], {"levels": {"k": 2}}),
        ([], {"threads": [1]}),
        ([], ["not", "an", "object"]),
    ],
)
def test_simulate_bad_setting_exits_2_with_config_invalid(tmp_path, capsys, flags, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main([
        "simulate", "--scenario", "low", "--replicates", "1", "--config", str(cfg_path),
        *flags, "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "CONFIG_INVALID"


def test_two_sigmas_that_share_a_file_label_are_refused(tmp_path, capsys):
    # 12.345671 and 12.345672 have their own y streams but both write sigma12.3457
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "low", "--levels", "3", "--n-grid", "50",
                 "--replicates", "2", "--sigmas", "12.345671,12.345672", "--dump-data",
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "VALIDATION"
    assert "share a file label" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_an_unknown_scenario_is_config_invalid_from_a_flag_or_a_config_file(
    tmp_path, capsys, source
):
    config = tmp_path / "config.json"
    config.write_text('{"scenario": "extreme"}')
    given = ["--scenario", "extreme"] if source == "flag" else ["--config", str(config)]
    assert main(["simulate", *given, "--out", str(tmp_path / "sim")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CONFIG_INVALID"
    if source == "config":
        assert err["message"] == "bad value for scenario: 'extreme'"
    assert not (tmp_path / "sim").exists()


def test_simulate_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scenario": "low", "levels": "2", "n-grid": "100",
        "sigmas": "0.1", "replicates": 2, "seed": 3,
    }))
    out = tmp_path / "sim"
    assert main([
        "simulate", "--config", str(cfg_path), "--replicates", "5",
        "--out", str(out),
    ]) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["replicates"] == 5  # flag wins over file
    assert cfg["scenario"] == "low"


def test_simulate_dump_data_roundtrips_through_fit(tmp_path):
    out = tmp_path / "sim"
    assert main([
        "simulate", "--scenario", "low", "--levels", "2",
        "--n-grid", "500", "--sigmas", "0.1", "--replicates", "2",
        "--seed", "9", "--dump-data", "--out", str(out),
    ]) == 0
    fit_out = tmp_path / "fit"
    assert main([
        "fit", "--data", str(out / "data_sigma0.1.csv"),
        "--theta", str(out / "theta_w1.csv"), "--p", str(out / "p_w1.csv"),
        "--out", str(fit_out),
    ]) == 0
    slope = next(
        r for r in _read_estimates(fit_out) if r["parameter"] == "w1_level0"
    )
    assert float(slope["corrected"]) == pytest.approx(0.7, abs=0.15)


@pytest.mark.parametrize("theta", [np.eye(2), LOW2], ids=["identity", "low2"])
def test_diagnose_bias_rows_are_exact(tmp_path, theta):
    # the slope and corrected-intercept rows are 0 by construction, and the
    # naive intercept's is the posterior row of the reference level times beta_1
    data, theta_path, p_path = _make_binary_fixture(tmp_path, theta, n=100)
    truth = tmp_path / "truth.csv"
    truth.write_text("0.5,0.7\n")
    out = tmp_path / "diag"
    assert main([
        "diagnose", "--data", str(data), "--theta", str(theta_path),
        "--p", str(p_path), "--truth", str(truth), "--out", str(out),
    ]) == 0
    with open(out / "bias.csv", newline="") as fh:
        bias = {row["parameter"]: row["bias"] for row in csv.DictReader(fh)}
    assert bias["w1_level0"] == bias["intercept_corrected"] == "0"
    pi_ref = posterior_from(theta, np.full(2, 0.5)).pi[-1, :-1]
    assert float(bias["intercept"]) == pi_ref @ [0.7]
    assert (out / "variance.csv").exists()


def test_diagnose_without_truth_exits_2(tmp_path, capsys):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=100)
    rc = main([
        "diagnose", "--data", str(data), "--theta", str(theta_path),
        "--p", str(p_path), "--out", str(tmp_path / "diag"),
    ])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "TRUTH_REQUIRED"


def test_diagnose_variance_sim_writes_curve(tmp_path):
    out = tmp_path / "vs"
    assert main([
        "diagnose", "--variance-sim", "--scenario", "low", "--levels", "2",
        "--n-grid", "100,200", "--sigma", "0.2", "--replicates", "30",
        "--seed", "4", "--out", str(out),
    ]) == 0
    lines = (out / "intercept_variance.csv").read_text().strip().split("\n")
    assert lines[0] == "n,theoretical,empirical"
    assert len(lines) == 3
    for line in lines[1:]:
        _, theo, emp = line.split(",")
        assert float(theo) > 0 and float(emp) > 0
    assert (out / "intercept_variance.svg").exists()


def test_diagnose_variance_sim_with_one_replicate_exits_2(tmp_path):
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main([
            "diagnose", "--variance-sim", "--scenario", "low", "--levels", "2",
            "--n-grid", "50", "--replicates", "1", "--out", str(tmp_path / "vs"),
        ])
    assert rc == 2
    assert caught == []
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "VALIDATION"
    assert not (tmp_path / "vs" / "intercept_variance.csv").exists()


@pytest.mark.parametrize(
    "command, config, code",
    [
        ("fit", {"data": True}, "CONFIG_INVALID"),
        ("fit", {"out": "data.csv"}, "CONFIG_INVALID"),
        ("simulate", {"k": 1e308}, "CONFIG_INVALID"),
        ("diagnose", {"plugin-sigma": 1e308}, "NUMERICAL"),
        ("diagnose", {"variance-sim": True, "sigma": -1}, "CONFIG_INVALID"),
        ("simulate", {"sigmas": 1e300}, "NUMERICAL"),
    ],
)
def test_config_values_that_raised_tracebacks_end_in_one_json_line(
    tmp_path, monkeypatch, command, config, code
):
    _make_binary_fixture(tmp_path, LOW2, n=60)
    _write_theta(tmp_path / "theta.csv", LOW2)
    (tmp_path / "truth.csv").write_text("0.5,0.7\n")
    (tmp_path / "config.json").write_text(json.dumps({**_RUNNABLE, **config}))
    monkeypatch.chdir(tmp_path)
    small = ["--replicates", "2", "--n-grid", "20,40"] if command != "fit" else []
    rc, lines = _run_quietly([command, "--config", "config.json", *small])
    assert rc == (3 if code == "NUMERICAL" else 2)
    assert len(lines) == 1 and json.loads(lines[0])["error"] == code


def _fixture_argv(tmp_path, command):
    """A runnable fit/diagnose/simulate command line without --out."""
    if command == "simulate":
        return ["simulate", "--scenario", "low", "--levels", "2", "--n-grid", "40",
                "--sigmas", "0.1", "--replicates", "2"]
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=100)
    (tmp_path / "truth.csv").write_text("0.5,0.7\n")
    argv = [command, "--data", str(data), "--theta", str(theta_path), "--p", str(p_path)]
    return argv + (["--truth", str(tmp_path / "truth.csv")] if command == "diagnose" else [])


@pytest.mark.parametrize(
    "command, extra, blocked",
    [
        ("fit", [], "estimates.csv"),
        ("fit", [], "diagnostics.json"),
        ("diagnose", [], "variance.csv"),
        ("simulate", [], "eqp.csv"),
        ("simulate", ["--dump-data"], "theta_w1.csv"),
    ],
)
def test_an_output_file_that_cannot_be_written_exits_2_naming_it(
    tmp_path, capsys, command, extra, blocked
):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # a directory where the file goes
    rc = main(_fixture_argv(tmp_path, command) + extra + ["--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CONFIG_INVALID"
    assert str(out / blocked) in err["message"]


@pytest.mark.parametrize("sd", ["nan", "inf", "-0.5", "0"])
def test_diagnose_plugin_sigma_must_be_finite_and_positive(tmp_path, capsys, sd):
    out = tmp_path / "diag"
    rc = main(_fixture_argv(tmp_path, "diagnose") + [f"--plugin-sigma={sd}", "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "CONFIG_INVALID"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["simulate", "--sigmas", "1e303"],
                                  ["diagnose", "--variance-sim", "--sigma", "1e308"]],
                         ids=["simulate", "variance-sim"])
def test_a_sigma_too_large_to_key_its_y_stream_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "out"
    grid = ["--scenario", "low", "--levels", "2", "--n-grid", "40", "--replicates", "2"]
    assert main(argv + grid + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "VALIDATION"
    assert f"sigma {float(argv[-1]):g} is too large" in err["message"]
    assert not out.exists()


def test_a_squared_sigma_that_overflows_is_a_numerical_failure(tmp_path, capsys):
    variance_sim = ["diagnose", "--variance-sim", "--scenario", "low", "--levels", "2",
                    "--n-grid", "40", "--replicates", "2", "--sigma", "1e200"]
    plugin = _fixture_argv(tmp_path, "diagnose") + ["--plugin-sigma", "1e200"]
    for argv in (variance_sim, plugin):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "NUMERICAL",
                                        "message": "overflow encountered in scalar power"}


def test_a_tiny_y_is_a_numerical_failure_not_a_variance_of_0(tmp_path, capsys):
    # |y| near 1e-169: the squared residuals underflow, and sigma2_w would be 0
    rng = np.random.default_rng(3)
    w = rng.integers(0, 2, (200, 1))
    y = (0.5 + 0.7 * w[:, 0] + 0.3 * rng.standard_normal(200)) * 2.0**-560
    data, theta, p = (tmp_path / f"{name}.csv" for name in ("data", "theta", "p"))
    _write_dataset(data, y, w)
    _write_theta(theta, LOW2)
    p.write_text("0.5,0.5\n")
    out = tmp_path / "out"
    assert main(["fit", "--data", str(data), "--theta", str(theta), "--p", str(p),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [json.dumps(
        {"error": "NUMERICAL", "message": "underflow encountered in square"})]
    assert not out.exists()


def test_a_plugin_sigma_whose_square_underflows_is_a_numerical_failure(tmp_path, capsys):
    # 1e-200 squared is below the smallest subnormal: variance.csv would hold 0
    out = tmp_path / "out"
    assert main(_fixture_argv(tmp_path, "diagnose")
                + ["--plugin-sigma", "1e-200", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [json.dumps(
        {"error": "NUMERICAL", "message": "underflow encountered in scalar power"})]
    assert not out.exists()


def test_a_singular_theta_has_one_code_with_p_files_and_with_estimate_p(tmp_path, capsys):
    data, _, p_path = _make_binary_fixture(tmp_path, LOW2, n=100)
    _write_theta(tmp_path / "half.csv", np.full((2, 2), 0.5))
    inputs = ["fit", "--data", str(data), "--theta", str(tmp_path / "half.csv")]
    for marginal in (["--p", str(p_path)], ["--estimate-p"]):
        assert main(inputs + marginal + ["--out", str(tmp_path / "out")]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "NON_IDENTIFIABLE"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, code", [
    ("fit --config {tmp}/absent.json", "CONFIG_MISSING"),
    ("simulate --n-grid 40 --replicates 2", "SCENARIO_MISSING"),
])
def test_a_required_input_that_is_absent_is_refused_with_its_code(tmp_path, capsys, command, code):
    out = tmp_path / "out"
    assert main(command.format(tmp=tmp_path).split() + ["--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == code
    assert not out.exists()


@pytest.mark.parametrize("truth", ["nan,0.7", "0.5,inf"])
def test_diagnose_truth_with_a_non_finite_entry_is_data_invalid(tmp_path, capsys, truth):
    argv = _fixture_argv(tmp_path, "diagnose")
    (tmp_path / "truth.csv").write_text(truth + "\n")
    out = tmp_path / "diag"
    assert main(argv + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "DATA_INVALID" and str(tmp_path / "truth.csv") in err["message"]
    assert not out.exists()


_SWITCHES = {"estimate-p": "fit", "dump-data": "simulate", "variance-sim": "diagnose"}


@pytest.mark.parametrize("value", ["no", "false", 0])
@pytest.mark.parametrize("key", sorted(_SWITCHES))
def test_a_config_switch_takes_only_true_or_false(tmp_path, capsys, key, value):
    # read by truthiness, "no" and "false" would turn a switch on and 0 off
    (tmp_path / "config.json").write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    argv = _fixture_argv(tmp_path, _SWITCHES[key])
    assert main([*argv, "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CONFIG_INVALID" and key in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("key", sorted(_SWITCHES))
def test_a_config_switch_set_to_false_is_off_and_its_flag_turns_it_on(tmp_path, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: False}))
    argv = [*_fixture_argv(tmp_path, _SWITCHES[key]), "--config", str(config)]
    if key == "estimate-p":  # fit then has no p unless it estimates one
        del argv[argv.index("--p"):argv.index("--p") + 2]
    if key == "variance-sim":
        argv += ["--scenario", "low", "--levels", "2", "--n-grid", "40", "--replicates", "2"]
    made = {"estimate-p": "estimates.csv", "dump-data": "theta_w1.csv",
            "variance-sim": "intercept_variance.csv"}[key]
    rc, _ = _run_quietly([*argv, "--out", str(tmp_path / "off")])
    assert rc == (2 if key == "estimate-p" else 0)
    assert not (tmp_path / "off" / made).exists()
    assert main([*argv, "--" + key, "--out", str(tmp_path / "on")]) == 0
    assert (tmp_path / "on" / made).exists()


@pytest.mark.parametrize("key, value", [("replicate", 3), ("n_grid", "40")])
def test_an_unknown_config_key_is_config_invalid_naming_it(tmp_path, capsys, key, value):
    # an ignored misspelling would run the default, e.g. 300 replicates
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert main([*_fixture_argv(tmp_path, "simulate"), "--config", str(path),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CONFIG_INVALID"
    assert repr(key) in err["message"] and str(path) in err["message"]
    assert not out.exists()


def test_a_config_key_of_another_command_is_accepted(tmp_path):
    # one config file may serve fit, simulate and diagnose
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"replicates": 3, "dump-data": True, "plugin-sigma": 0.5}))
    argv = _fixture_argv(tmp_path, "fit")
    assert main([*argv, "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def _without(argv, flag):
    """argv with ``flag`` and its value taken out."""
    if flag not in argv:
        return argv
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


def _config_invalid_and_no_out(capsys, argv, out):
    """Run argv; it exits 2 with one CONFIG_INVALID line and makes no ``out``."""
    assert main([*argv, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "CONFIG_INVALID"
    assert not out.exists()
    return err["message"]


_TYPED = {
    "simulate": ["k", "levels", "n-grid", "replicates", "seed", "sigmas", "threads"],
    "diagnose": ["k", "levels", "n-grid", "replicates", "seed", "plugin-sigma", "sigma"],
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key", [(c, k) for c, keys in _TYPED.items() for k in keys])
def test_a_malformed_setting_is_config_invalid_before_the_command_runs(
    tmp_path, capsys, command, key, source
):
    # diagnose runs in bias mode, which reads neither the grid settings nor sigma
    argv = _without(_fixture_argv(tmp_path, command), "--" + key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: "abc"} if source == "config" else {}))
    flag = ["--" + key, "abc"] if source == "flag" else []
    msg = _config_invalid_and_no_out(
        capsys, [*argv, *flag, "--config", str(config)], tmp_path / "out")
    if source == "flag":
        assert f"argument --{key}: invalid " in msg and "'abc'" in msg and "0x" not in msg
    else:
        assert msg == f"bad value for {key}: 'abc'"


@pytest.mark.parametrize(
    "key, value",
    [(k, True) for k in ["k", "replicates", "seed", "threads", "n-grid", "levels", "sigmas",
                         "sigma", "plugin-sigma"]]
    + [("n-grid", [True]), ("levels", [2, True]), ("sigmas", [0.1, True])],
)
def test_a_json_boolean_is_not_a_number(tmp_path, capsys, key, value):
    # read as 1, {"replicates": true, "sigmas": true} ran 1 replicate at sigma 1
    command = "diagnose" if "sigma" in key.split("-") else "simulate"
    argv = _without(_fixture_argv(tmp_path, command), "--" + key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    msg = _config_invalid_and_no_out(capsys, [*argv, "--config", str(config)], tmp_path / "out")
    assert msg == f"bad value for {key}: {value!r}"


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_p_files_and_estimate_p_together_are_config_invalid(tmp_path, capsys, command, source):
    # the files used to win silently, with no estimated_p_residuals
    argv = _fixture_argv(tmp_path, command)
    p_file = argv[argv.index("--p") + 1]
    config = tmp_path / "config.json"
    if source == "flags":
        argv, settings = [*argv, "--estimate-p"], {}
    else:
        argv, settings = _without(argv, "--p"), {"p": p_file, "estimate-p": True}
    config.write_text(json.dumps(settings))
    msg = _config_invalid_and_no_out(capsys, [*argv, "--config", str(config)], tmp_path / "out")
    assert msg == "give --p files or --estimate-p, not both"
    config.write_text(json.dumps({**settings, "estimate-p": False}))
    argv = [a for a in argv if a != "--estimate-p"]
    assert main([*argv, "--config", str(config), "--out", str(tmp_path / "off")]) == 0


@pytest.mark.parametrize("key", ["n-grid", "sigmas"])
def test_an_empty_grid_list_in_a_config_is_refused_not_defaulted(tmp_path, capsys, key):
    # an empty list used to run the default grid, e.g. 19 sample sizes
    argv = _without(_fixture_argv(tmp_path, "simulate"), "--" + key)
    (tmp_path / "config.json").write_text(json.dumps({key: []}))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VALIDATION"
    assert not out.exists()


def test_a_setting_of_another_command_is_not_read(tmp_path):
    # diagnose has no --sigmas: a config file's sigmas is simulate's alone
    (tmp_path / "config.json").write_text(json.dumps({"sigmas": "x", "threads": "x"}))
    assert main([
        "diagnose", "--variance-sim", "--scenario", "low", "--levels", "2", "--n-grid", "50",
        "--replicates", "2", "--config", str(tmp_path / "config.json"),
        "--out", str(tmp_path / "vs"),
    ]) == 0


def test_variance_sim_with_a_rank_deficient_first_prefix_exits_3(tmp_path, capsys):
    out = tmp_path / "vs"
    assert main(["diagnose", "--variance-sim", "--scenario", "low", "--levels", "3",
                 "--n-grid", "2,50", "--replicates", "3", "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "RANK_DEFICIENT",
                   "message": "replicate 0: the first 2 rows are rank deficient"}
    assert not out.exists()


def test_rejected_diagnose_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "vs"
    assert main([
        "diagnose", "--variance-sim", "--scenario", "low", "--levels", "2",
        "--n-grid", "50", "--replicates", "1", "--out", str(out),
    ]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VALIDATION"
    assert not out.exists()


@pytest.mark.parametrize("cell", ["5", "x"])
def test_a_bad_category_is_reported_in_its_header_column(tmp_path, capsys, cell):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, LOW2, n=60)
    rows = data.read_text().splitlines()
    rows[0] = "y,region"
    rows[4] = rows[4].split(",")[0] + "," + cell
    data.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--data", str(data), "--theta", str(theta_path),
                 "--p", str(p_path), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DATA_INVALID"
    assert "data row 4, column region: " in err["message"]


def test_fit_and_diagnose_encode_no_more_rows_than_occupied_cells(tmp_path, monkeypatch):
    # the n-row dummy design is never built: every dummy encoding sees at
    # most one row per distinct category combination of the data
    rng = np.random.default_rng(12)
    w = np.column_stack([rng.integers(0, 2, 500), rng.integers(0, 3, 500)])
    data = tmp_path / "data.csv"
    _write_dataset(data, rng.standard_normal(500), w)
    thetas = [tmp_path / "t1.csv", tmp_path / "t2.csv"]
    _write_theta(thetas[0], LOW2)
    _write_theta(thetas[1], scenario_theta("low", 3))
    (tmp_path / "truth.csv").write_text("0.5,0.7,0.9,1.1\n")
    occupied = len(np.unique(w, axis=0))
    encoded = []
    original = categorical._indicators  # what encode_dummy and encode_cells encode with

    def counting(spec, categories, *args, **kwargs):
        encoded.append(len(categories))
        return original(spec, categories, *args, **kwargs)

    monkeypatch.setattr(categorical, "_indicators", counting)
    files = ["--data", str(data), "--theta", ",".join(map(str, thetas)), "--estimate-p"]
    assert main(["fit", *files, "--out", str(tmp_path / "fit")]) == 0
    assert main(["diagnose", *files, "--truth", str(tmp_path / "truth.csv"),
                 "--out", str(tmp_path / "diag")]) == 0
    assert encoded and max(encoded) <= occupied < 500


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scenario", "low", "--n-grid", "-5,100"],
        ["simulate", "--n-grid", "abc"],  # a bad value before the missing --scenario
        ["simulate", "--scenario", "low", "--no-such-flag"],
        ["simulate", "--scenario", "extreme"],
        ["fit", "--k", "2"],
        ["simulate", "--replicates", "many"],
        ["no-such-command"],
        [],
    ],
)
def test_usage_error_exits_2_with_one_json_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "CONFIG_INVALID"


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"], ["--version"]])
def test_help_and_version_print_and_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: miscorr") or captured.out.strip() == __version__


def test_scenario_tables_output(capsys):
    assert main(["scenario-tables"]) == 0
    text = capsys.readouterr().out
    assert "0.825,0.1,0.05,0.025" in text
    assert "0.15,0.6,0.15,0.1" in text
    assert "0.9,0.1" in text
    assert "high distortion is defined only for L=4" in text


def test_each_call_runs_the_command_the_module_binds_then(monkeypatch, capsys):
    # main reuses one parser, so the command must not be the one bound when it was built
    assert main(["scenario-tables"]) == 0
    ran = []
    monkeypatch.setattr(cli, "cmd_scenario_tables", lambda args: ran.append(args.command) or 0)
    assert main(["scenario-tables"]) == 0
    assert ran == ["scenario-tables"]
    assert capsys.readouterr().out.count("# low distortion, L=2") == 1


def test_no_setting_carries_from_one_call_to_the_next(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "high", "k": 2, "n-grid": [30, 60],
                               "replicates": 3, "seed": 5}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "config")]) == 0
    assert main(["simulate", "--config", str(cfg), "--replicates", "many"]) == 2
    # high distortion drops two of the default sigmas, with a warning line
    assert [json.loads(line).get("error") for line in capsys.readouterr().err.splitlines()] == [
        None, "CONFIG_INVALID"]
    with pytest.raises(SystemExit):
        main(["--version"])
    argv = ["simulate", "--scenario", "low", "--out"]  # every other setting at its default
    assert main([*argv, str(tmp_path / "after")]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(miscorr.__file__).parents[1])}
    run = "import sys; from miscorr.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", run, *argv, str(tmp_path / "alone")], env=env,
                   check=True)
    for name in ("eqp.csv", "config.json"):
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
