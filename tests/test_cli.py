import csv
import io
import json
import warnings
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from miscorr import __version__, categorical, cli, estimators, simkit
from miscorr.categorical import CategoricalSpec, encode_dummy
from miscorr.cli import main
from miscorr.misclass import scenario_theta
from miscorr.simkit import TruthSpec, simulate_w, simulate_x, simulate_y

LOW2 = scenario_theta("low", 2)


def _write_theta(path, theta):
    path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in theta) + "\n")


def _write_dataset(path, y, w):
    header = "y," + ",".join(f"w{k + 1}" for k in range(w.shape[1]))
    lines = [header]
    for yi, wi in zip(y, w):
        lines.append(f"{yi:.17g}," + ",".join(str(int(v)) for v in wi))
    path.write_text("\n".join(lines) + "\n")


def _make_binary_fixture(tmp_path, theta, n=400, sigma=0.1, seed=7):
    rng = np.random.default_rng(seed)
    spec = CategoricalSpec((2,))
    truth = TruthSpec(np.array([0.5, 0.7]))
    x = simulate_x([np.full(2, 0.5)], n, rng)
    w = simulate_w(x, [theta], rng)
    y = simulate_y(encode_dummy(spec, x).design, truth, sigma, rng)
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


def test_the_first_unknown_label_in_file_order_is_reported(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("y,w1,w2\n1,a,a\n1,a,zz\n1,zz,a\n")
    (tmp_path / "labels.json").write_text('{"w1": ["a", "b"], "w2": ["a", "b"]}')
    with pytest.raises(cli.CliError) as exc:
        cli._read_dataset(str(data))
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
        # longer than the text field of the first read: matched on re-read
        (["a", "x" * 40], ['"x' + "x" * 39 + '"', "x" * 40], [1, 1]),
        (["a", "x" * 40], ["x" * 39 + "y"], "'" + "x" * 39 + "y'"),
        # the text field would read a label "b" + NUL as "b"
        (["a", "b\0"], ["a", "b"], "'b'"),
        ([], ["a"], "'a'"),
    ],
    ids=["spaced_label", "empty_label", "unicode", "long_label", "long_prefix", "nul_label",
         "no_labels"],
)
def test_read_dataset_matches_each_cell_stripped_against_the_labels(
    tmp_path, labels, cells, expected
):
    data = tmp_path / "data.csv"
    data.write_text("\n".join(["y,w1", *(f"1,{c}" for c in cells)]) + "\n")
    (tmp_path / "labels.json").write_text(json.dumps({"w1": labels}))
    if isinstance(expected, str):
        with pytest.raises(cli.CliError) as exc:
            cli._read_dataset(str(data))
        assert str(exc.value) == (  # the last cell is the unknown one
            f"{data}: data row {len(cells)}, column w1: {expected} is not in labels.json")
    else:
        y, w, names = cli._read_dataset(str(data))
        assert w[:, 0].tolist() == expected and names == ["w1"]


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


def test_diagnose_identity_theta_zero_bias(tmp_path):
    data, theta_path, p_path = _make_binary_fixture(tmp_path, np.eye(2), n=100)
    truth = tmp_path / "truth.csv"
    truth.write_text("0.5,0.7\n")
    out = tmp_path / "diag"
    assert main([
        "diagnose", "--data", str(data), "--theta", str(theta_path),
        "--p", str(p_path), "--truth", str(truth), "--out", str(out),
    ]) == 0
    with open(out / "bias.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert abs(float(row["bias"])) < 1e-10
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
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "CONFIG_INVALID"
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


def test_rejected_diagnose_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "vs"
    assert main([
        "diagnose", "--variance-sim", "--scenario", "low", "--levels", "2",
        "--n-grid", "50", "--replicates", "1", "--out", str(out),
    ]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "CONFIG_INVALID"
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
    # the n-row dummy design is never built: every encode_dummy call sees
    # at most one row per distinct category combination of the data
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
    original = categorical.encode_dummy

    def counting(spec, categories):
        encoded.append(len(categories))
        return original(spec, categories)

    for module in (categorical, cli, estimators, simkit):
        if hasattr(module, "encode_dummy"):
            monkeypatch.setattr(module, "encode_dummy", counting)
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
