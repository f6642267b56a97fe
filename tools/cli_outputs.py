"""Write the outputs of a fixed set of CLI commands, for a byte-identity check.

    python3 tools/cli_outputs.py OUT [--against PARENT_OUT]

runs, in process and on this checkout's ``src/``, every command below on
seeded inputs and writes each command's files to its own directory under
OUT.  To show that a change leaves every output byte-identical, run the
script in a checkout of the parent and in the changed one, then
``diff -r`` the two OUT directories, or give the parent's OUT as
``--against``: after writing OUT, the script then compares every file
outside ``inputs/`` (whose files hold OUT's own path) with the parent's,
prints each file that differs with the largest relative change among its
numbers, or says that it differs beyond them, and exits 1 if any differs.

The commands: ``fit``, ``fit --estimate-p``, ``fit`` with a ``--config``
file that sets ``estimate-p`` followed by a plain ``fit`` with the p files
(a setting carried from one call to the next would refuse it, or change its
``estimates.csv`` from the plain ``fit``'s), ``diagnose`` and ``diagnose
--plugin-sigma`` on the benchmark's ``large_n`` inputs at 30,000 rows; ``fit``
on the same data with
every labelled cell quoted and space-padded, ``fit`` with every numeric
category cell written as a float (``%.1f``, which the integer parse refuses,
so the file is parsed again as numbers), ``fit`` with ``--data`` given
relative to the current directory and ``fit`` with the labels of
``labels.json`` and their cells renamed, once to labels that are not ASCII
and once to labels longer than 8 bytes that share their first 8, and
``fit`` with 2,000 unused labels of 1 to 31 bytes after w2's own four in
``labels.json``, ``fit`` on the data file written after a UTF-8 byte-order
mark with CRLF line ends, and ``fit`` with a byte-order mark before
``labels.json`` and before a ``--config`` file that names the p files,
whose ``estimates.csv`` must each equal the plain ``fit``'s; ``diagnose``
with a byte-order mark before each theta, p and truth file, whose outputs
must equal the plain ``diagnose``'s; the benchmark's
``simulate`` grid with ``--dump-data``; ``diagnose --variance-sim``, once at
fixed levels, once at K=2 with random levels, whose 40 replicates have 8 level structures,
and once at K=10 with random levels, where each replicate has a level structure of its
own and more combinations than rows (the cells are numbered by ``np.unique``);
``simulate`` under high distortion with the default random levels, once
from flags and once from a ``--config`` file whose seed a flag overrides;
``simulate`` at K=10 with random levels, where most replicates have a
level structure of their own and many small n are refused; and
``simulate`` at the CLI defaults (300 replicates, n = 50..500 by 25) with
K=3, once with random levels, whose replicates are fitted in several batches,
and once with the fixed uneven levels 2, 4 and 3, whose x, w and theta
tables are padded to 4 levels; ``simulate`` at K=3 with 4 levels each and
n = 4, 8, 50, whose n = 4 and 8 are refused in every replicate (NaN rows
in eqp.csv; the charts hold the n = 50 points alone).
Each of these must succeed, or the script fails.

The refusals are commands whose inputs a command should refuse: on a
four-level dataset, a level that never occurs, a p or truth file of the
wrong shape, an empty theta, p or truth file and a category cell too large
for any level (``9007199254740993``, ``1e300``, ``99999999999999999999``),
a data file whose header and rows are ``;``-separated, a header that
names w1 twice, and the data file gzipped as ``data.csv.gz``, which is
refused by its name before a byte of it is decoded;
``fit`` on four-level data with categories -1 and 4 in two columns, with a
column that holds a 4 and lacks level 2, with 4 rows for 4 parameters, with
a y of nan and with a w2 that repeats w1, which the fit's rank guard
refuses by the collinear column;
``fit --estimate-p`` on a high-distortion sample whose estimated p has
zeros, and ``fit`` on it with a p file that has a zero; ``fit`` with a
theta that never observes a level, under a p for which sigma_w rounds to
-2e-16 instead of 0; two sigmas that share a file label; a sigma too
large to key its y stream, from ``simulate --sigmas 1e303`` and from
``diagnose --variance-sim --sigma 1e308``; a sigma whose square overflows,
from ``diagnose --plugin-sigma 1e200`` and from ``diagnose --variance-sim
--sigma 1e200``; an unknown scenario from a flag and from a config file,
and ``simulate`` without one; ``fit --config`` on a file that does not
exist; a variance curve whose first prefix is rank deficient, and
``diagnose --variance-sim --replicates 1``; ``fit`` with a singular theta
(0.5 everywhere), once with a p file and once with ``--estimate-p``;
``fit`` on the four-level data with y scaled by 2**-560, whose squared
residuals underflow; and ``diagnose --plugin-sigma 1e-200``.  They are
recorded, not required to fail, so that ``diff -r`` shows every changed
error.

Beside each command's directory, ``NAME.status.jsonl`` holds its exit
status as ``{"exit": N}`` and then its stderr lines, with OUT written as
``$OUT``.
The inputs are written as UTF-8, so the outputs of a run under an ASCII
locale (``LC_ALL=C PYTHONUTF8=0 PYTHONCOERCECLOCALE=0``) can be compared
with those of a run under the default one.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import os
import random
import re
import shutil
import string
import sys
from contextlib import redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import (  # noqa: E402  (pins BLAS)
    LARGE_N_LABELS,
    LARGE_N_LEVELS,
    _grid_args,
    write_large_n_inputs,
)

import numpy as np  # noqa: E402
import miscorr.cli  # noqa: E402
from miscorr.misclass import scenario_theta  # noqa: E402
from miscorr.simkit import simulate_w, simulate_x  # noqa: E402

SEED = 7
ROWS = 30_000
BIG_CELLS = ("9007199254740993", "1e300", "99999999999999999999")


def write_respelled(inputs: Path, to: Path, labelled: bool, spell) -> Path:
    """The inputs' data.csv with every cell of its labels.json columns
    (``labelled``) or of its numeric category columns written as
    ``spell(cell)``, and the labels.json beside it."""
    to.mkdir()
    shutil.copy(inputs / "labels.json", to)
    header, *rows = (inputs / "data.csv").read_text().splitlines()
    chosen = [j > 0 and (name in LARGE_N_LABELS) == labelled
              for j, name in enumerate(header.split(","))]
    rows = [",".join(spell(c) if pick else c for c, pick in zip(row.split(","), chosen))
            for row in rows]
    (to / "data.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return to / "data.csv"


def write_relabelled(inputs: Path, to: Path, rename) -> Path:
    """The inputs' data.csv and labels.json with every label, and every
    labelled cell, renamed as ``rename(label)``; the categories stay as they are."""
    data = write_respelled(inputs, to, True, rename)
    (to / "labels.json").write_text(json.dumps(
        {column: list(map(rename, labels)) for column, labels in LARGE_N_LABELS.items()}))
    return data


def write_many_labels(inputs: Path, to: Path, count: int) -> Path:
    """The inputs' data.csv, and its labels.json with ``count`` distinct
    unused labels of 1 to 31 bytes after each column's own."""
    data = write_respelled(inputs, to, True, str)
    rng, labels = random.Random(SEED), {}
    for column, own in LARGE_N_LABELS.items():
        unused = set()
        while len(unused) < count:
            label = "".join(rng.choices(string.ascii_letters + "_", k=rng.randint(1, 31)))
            unused.update({label} - set(own))
        labels[column] = own + sorted(unused)
    (to / "labels.json").write_text(json.dumps(labels))
    return data


def write_with_bom(text: str, to: Path, eol: str = "\n") -> str:
    """``text`` written to ``to`` in UTF-8 after a byte-order mark, with its
    lines ended by ``eol``."""
    to.parent.mkdir(parents=True, exist_ok=True)
    to.write_bytes(("\ufeff" + text).replace("\n", eol).encode("utf-8"))
    return str(to)


def commands(out: Path) -> dict[str, list[str]]:
    """Output directory name -> argv, with the large_n inputs in out/inputs."""
    inputs = out / "inputs"
    write_large_n_inputs(inputs, SEED, ROWS)
    k = range(1, len(LARGE_N_LEVELS) + 1)
    theta = ["--theta", ",".join(str(inputs / f"theta_w{i}.csv") for i in k)]
    data = ["--data", str(inputs / "data.csv"), *theta]
    padded = write_respelled(inputs, inputs / "padded", True, lambda c: f'" {c} "')
    floats = write_respelled(inputs, inputs / "floats", False, lambda c: "%.1f" % int(c))
    unicode = write_relabelled(inputs, inputs / "unicode", {
        "alpha": "ålpha", "bravo": "βravo", "charlie": "チャーリー", "delta": "délta"}.get)
    shared = write_relabelled(inputs, inputs / "shared_prefix", lambda c: f"category_{c}")
    many = write_many_labels(inputs, inputs / "many_labels", 2000)
    known_p = ["--p", ",".join(str(inputs / f"p_w{i}.csv") for i in k)]
    bom = inputs / "bom"
    bom_crlf = write_with_bom((inputs / "data.csv").read_text(), bom / "crlf" / "data.csv",
                              "\r\n")
    shutil.copy(inputs / "labels.json", bom / "crlf")
    write_with_bom((inputs / "labels.json").read_text(), bom / "labels" / "labels.json")
    shutil.copy(inputs / "data.csv", bom / "labels")
    bom_config = write_with_bom(json.dumps({"p": known_p[1]}), bom / "p.json")
    bom_files = {flag: ",".join(write_with_bom((inputs / f"{name}.csv").read_text(),
                                               bom / f"{name}.csv") for name in names)
                 for flag, names in (("--theta", [f"theta_w{i}" for i in k]),
                                     ("--p", [f"p_w{i}" for i in k]), ("--truth", ["truth"]))}
    estimate_p = inputs / "fit_estimate_p.json"
    estimate_p.write_text(json.dumps({"estimate-p": True}))
    high = inputs / "simulate_high.json"
    high.write_text(json.dumps({"scenario": "high", "k": 2, "levels": "random",
                                "n-grid": [30, 60], "replicates": 5, "seed": 3}))
    return {
        "fit": ["fit", *data, *known_p],
        "fit_estimate_p": ["fit", *data, "--estimate-p"],
        "fit_config_estimate_p": ["fit", "--config", str(estimate_p), *data],
        "fit_after_config": ["fit", *data, *known_p],
        "fit_padded_labels": ["fit", "--data", str(padded), *theta, *known_p],
        "fit_float_categories": ["fit", "--data", str(floats), *theta, *known_p],
        "fit_relative_path": ["fit", "--data", os.path.relpath(inputs / "data.csv"),
                              *theta, *known_p],
        "fit_unicode_labels": ["fit", "--data", str(unicode), *theta, *known_p],
        "fit_shared_prefix_labels": ["fit", "--data", str(shared), *theta, *known_p],
        "fit_many_labels": ["fit", "--data", str(many), *theta, *known_p],
        "fit_bom_crlf_data": ["fit", "--data", bom_crlf, *theta, *known_p],
        "fit_bom_labels_config": ["fit", "--config", bom_config,
                                  "--data", str(bom / "labels" / "data.csv"), *theta],
        "diagnose": ["diagnose", *data, *known_p, "--truth", str(inputs / "truth.csv")],
        "diagnose_plugin_sigma": ["diagnose", *data, *known_p, "--truth",
                                  str(inputs / "truth.csv"), "--plugin-sigma", "0.5"],
        "diagnose_bom_inputs": ["diagnose", "--data", str(inputs / "data.csv"),
                                *(arg for item in bom_files.items() for arg in item)],
        "simulate_grid": [*_grid_args(SEED, 24, 1, out / "simulate_grid"), "--dump-data"],
        "variance_sim": ["diagnose", "--variance-sim", "--scenario", "low", "--levels", "3",
                         "--n-grid", "50,100,200,500", "--sigma", "0.2",
                         "--replicates", "100", "--seed", "3"],
        "variance_sim_random": ["diagnose", "--variance-sim", "--scenario", "medium", "--k", "2",
                                "--levels", "random", "--n-grid", "50,100,200", "--sigma", "0.2",
                                "--replicates", "40", "--seed", "5"],
        "variance_sim_k10_random": ["diagnose", "--variance-sim", "--scenario", "medium",
                                    "--k", "10", "--levels", "random", "--n-grid", "60,120,240",
                                    "--sigma", "0.2", "--replicates", "12", "--seed", "4"],
        "simulate_high": ["simulate", "--scenario", "high", "--k", "2",
                          "--n-grid", "30,60", "--replicates", "5", "--seed", "11"],
        "simulate_high_config": ["simulate", "--config", str(high), "--seed", "11"],
        "simulate_k10_random": ["simulate", "--scenario", "medium", "--k", "10",
                                "--levels", "random", "--n-grid", "12,17,20,25,30,40,80,160",
                                "--replicates", "30", "--seed", "3"],
        "simulate_k3_random": ["simulate", "--scenario", "medium", "--k", "3",
                               "--levels", "random"],
        "simulate_k3_levels_243": ["simulate", "--scenario", "medium", "--k", "3",
                                   "--levels", "2,4,3"],
        "simulate_k3_refused_rows": ["simulate", "--scenario", "medium", "--k", "3",
                                     "--levels", "4", "--n-grid", "4,8,50"],
    }


def refusals(out: Path) -> dict[str, list[str]]:
    """Output directory name -> argv of each refused input, with a K=1,
    L=4 dataset and its bad variants in out/inputs/refusals."""
    inputs = out / "inputs" / "refusals"
    inputs.mkdir(parents=True)
    rng = np.random.default_rng(SEED)
    theta = scenario_theta("low", 4)
    files = {
        "theta.csv": "\n".join(",".join(f"{v:.17g}" for v in row) for row in theta),
        "p.csv": "0.25,0.25,0.25,0.25", "p_2x2.csv": "0.25,0.25\n0.25,0.25",
        "p_3.csv": "0.2,0.3,0.5", "p_zero.csv": "0,0.5,0.1,0.4", "truth.csv": "0.5,0.7,0.9,1.1",
        "truth_2x2.csv": "0.5,0.7\n0.9,1.1", "truth_3.csv": "0.5,0.7,0.9",
        "empty.csv": None, "scenario.json": '{"scenario": "extreme"}',
        "theta_half.csv": "0.5,0.5\n0.5,0.5", "p_half.csv": "0.5,0.5",
    }
    for level, name in ((4, "data.csv"), (3, "data_absent_level.csv")):
        rows = zip(rng.standard_normal(40), rng.integers(0, level, 40))
        files[name] = "y,w1\n" + "\n".join(f"{y:.17g},{w}" for y, w in rows)
    header, first, rest = files["data.csv"].split("\n", 2)
    for cell in BIG_CELLS:
        files[f"data_{cell}.csv"] = "\n".join([header, f"{first.split(',')[0]},{cell}", rest])
    files["data_semicolons.csv"] = files["data.csv"].replace(",", ";")
    scaled = (f"{float(y) * 2.0**-560:.17g},{w}" for y, w in
              (row.split(",") for row in files["data.csv"].split("\n")[1:]))
    files["data_tiny_y.csv"] = "\n".join([header, *scaled])  # the squared residuals underflow
    files["data_repeated_header.csv"] = "y,w1,w1\n" + "\n".join(
        f"{row},{row.split(',')[1]}" for row in files["data.csv"].split("\n")[1:])
    rows = zip(rng.standard_normal(40), rng.integers(0, 2, 40))
    files["data_binary.csv"] = "y,w1\n" + "\n".join(f"{y:.17g},{w}" for y, w in rows)
    body = [f"{y:.17g}" for y in rng.standard_normal(40)]
    w1, w2 = [i % 4 for i in range(40)], [(i // 2) % 4 for i in range(40)]
    w1[5], w2[9] = -1, 4
    files["data_two_out_of_range.csv"] = "y,w1,w2\n" + "\n".join(map(",".join, zip(
        body, map(str, w1), map(str, w2))))
    files["data_out_of_range_absent.csv"] = "y,w1\n" + "\n".join(
        f"{y},{4 if i == 7 else (0, 1, 3)[i % 3]}" for i, y in enumerate(body))
    files["data_few_rows.csv"] = "y,w1\n" + "\n".join(f"{y},{i}" for i, y in enumerate(body[:4]))
    files["data_nan_y.csv"] = "y,w1\n" + "\n".join(
        f"{'nan' if i == 2 else y},{i % 4}" for i, y in enumerate(body))
    files["data_collinear.csv"] = "y,w1,w2\n" + "\n".join(
        f"{y},{i % 4},{i % 4}" for i, y in enumerate(body))  # w2 repeats w1
    # under this theta level 1 is never observed; this p rounds sigma_w to -2e-16
    files["theta_never.csv"] = "1,0\n1,0"
    files["p_never.csv"] = "0.99900099900099915,0.00099900099900099922"
    # high theta, p = (.1, .2, .3, .4), 3000 rows: the estimated p is (0, 0.53, 0, 0.47)
    high = scenario_theta("high", 4)
    boundary = np.random.default_rng(7)
    w = simulate_w(simulate_x([[0.1, 0.2, 0.3, 0.4]], 3000, boundary), [high], boundary)
    rows = zip(boundary.standard_normal(3000), w[:, 0])
    files["data_boundary.csv"] = "y,w1\n" + "\n".join(f"{y:.17g},{w}" for y, w in rows)
    files["theta_high.csv"] = "\n".join(",".join(f"{v:.17g}" for v in row) for row in high)
    for name, body in files.items():
        (inputs / name).write_text("" if body is None else body + "\n")
    gzipped = gzip.compress((inputs / "data.csv").read_bytes(), mtime=0)
    (inputs / "data.csv.gz").write_bytes(gzipped)

    def diagnose(data="data.csv", theta="theta.csv", p="p.csv", truth="truth.csv"):
        return ["diagnose", "--data", str(inputs / data), "--theta", str(inputs / theta),
                "--p", str(inputs / p), "--truth", str(inputs / truth)]

    def fit(data):
        return ["fit", "--data", str(inputs / data), "--theta", str(inputs / "theta.csv"),
                "--p", str(inputs / "p.csv")]

    variance_sim = ["diagnose", "--variance-sim", "--scenario", "low", "--levels", "2",
                    "--n-grid", "40", "--replicates", "2"]
    return {
        "refused_absent_level": diagnose(data="data_absent_level.csv"),
        "refused_p_2x2": diagnose(p="p_2x2.csv"),
        "refused_p_3": diagnose(p="p_3.csv"),
        "refused_truth_2x2": diagnose(truth="truth_2x2.csv"),
        "refused_truth_3": diagnose(truth="truth_3.csv"),
        "refused_empty_theta": diagnose(theta="empty.csv"),
        "refused_empty_p": diagnose(p="empty.csv"),
        "refused_empty_truth": diagnose(truth="empty.csv"),
        **{f"refused_cell_{cell}": diagnose(data=f"data_{cell}.csv") for cell in BIG_CELLS},
        "refused_semicolon_header": fit("data_semicolons.csv"),
        "refused_repeated_header": fit("data_repeated_header.csv"),
        "refused_gzip_data": fit("data.csv.gz"),
        "refused_two_out_of_range": fit("data_two_out_of_range.csv"),
        "refused_out_of_range_absent": fit("data_out_of_range_absent.csv"),
        "refused_few_rows": fit("data_few_rows.csv"),
        "refused_nan_y": fit("data_nan_y.csv"),
        "refused_collinear": fit("data_collinear.csv"),
        "refused_p_boundary": ["fit", "--data", str(inputs / "data_boundary.csv"),
                               "--theta", str(inputs / "theta_high.csv"), "--estimate-p"],
        "refused_p_file_zero": ["fit", "--data", str(inputs / "data_boundary.csv"),
                                "--theta", str(inputs / "theta_high.csv"),
                                "--p", str(inputs / "p_zero.csv")],
        "refused_never_observed": ["fit", "--data", str(inputs / "data_binary.csv"),
                                   "--theta", str(inputs / "theta_never.csv"),
                                   "--p", str(inputs / "p_never.csv")],
        "refused_sigma_labels": ["simulate", "--scenario", "low", "--levels", "3",
                                 "--n-grid", "50", "--replicates", "2",
                                 "--sigmas", "12.345671,12.345672", "--dump-data"],
        "refused_sigma_key": ["simulate", "--scenario", "low", "--levels", "2",
                              "--n-grid", "40", "--replicates", "2", "--sigmas", "1e303"],
        "refused_variance_sim_sigma_key": [*variance_sim, "--sigma", "1e308"],
        "refused_variance_sim_sigma_square": [*variance_sim, "--sigma", "1e200"],
        "refused_plugin_sigma_square": [*diagnose(), "--plugin-sigma", "1e200"],
        "refused_scenario_flag": ["simulate", "--scenario", "extreme"],
        "refused_scenario_config": ["simulate", "--config", str(inputs / "scenario.json")],
        "refused_scenario_missing": ["simulate", "--n-grid", "40", "--replicates", "2"],
        "refused_config_missing": ["fit", "--config", str(inputs / "absent.json")],
        "refused_singular_theta_p": ["fit", "--data", str(inputs / "data_binary.csv"),
                                     "--theta", str(inputs / "theta_half.csv"),
                                     "--p", str(inputs / "p_half.csv")],
        "refused_singular_theta_estimate_p": ["fit", "--data", str(inputs / "data_binary.csv"),
                                              "--theta", str(inputs / "theta_half.csv"),
                                              "--estimate-p"],
        "refused_variance_sim_one_replicate": [*variance_sim[:-2], "--replicates", "1"],
        "refused_tiny_y": fit("data_tiny_y.csv"),
        "refused_plugin_sigma_underflow": [*diagnose(), "--plugin-sigma", "1e-200"],
        "refused_variance_sim_rank": ["diagnose", "--variance-sim", "--scenario", "low",
                                      "--levels", "3", "--n-grid", "2,50", "--replicates", "3"],
    }


def run(out: Path, name: str, cmd: list[str]) -> int:
    """Run one command into out/name; write its exit status and stderr."""
    if "--out" not in cmd:
        cmd = [*cmd, "--out", str(out / name)]
    with redirect_stderr(io.StringIO()) as err:
        status = miscorr.cli.main(cmd)
    lines = [json.dumps({"exit": status}), *err.getvalue().splitlines()]
    text = "".join(line.replace(str(out), "$OUT") + "\n" for line in lines)
    (out / f"{name}.status.jsonl").write_text(text)
    return status


NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])")


def relative(ours: str, theirs: str) -> float:
    """|ours - theirs| / |theirs| of two numbers, inf where theirs is 0 or
    the change is NaN."""
    a, b = float(ours), float(theirs)
    rel = abs(a - b) / abs(b) if b else math.inf
    return math.inf if math.isnan(rel) else rel


def change(ours: str, theirs: str) -> str:
    """How the text ``ours`` differs from ``theirs``: the largest relative
    change among its numbers, when nothing else differs."""
    if NUMBER.split(ours) != NUMBER.split(theirs):
        return "differs beyond its numbers"
    largest = max((relative(a, b) for a, b in zip(NUMBER.findall(ours), NUMBER.findall(theirs))
                   if a != b), default=0.0)
    return f"largest relative change {largest:.3g}"


def compare(out: Path, parent: Path) -> list[str]:
    """One line per file outside inputs/ that differs between the two OUTs."""
    def files(root):
        return {f.relative_to(root) for f in root.rglob("*")
                if f.is_file() and f.relative_to(root).parts[0] != "inputs"}

    mine, its = files(out), files(parent)
    lines = [f"{f}: only in {out if f in mine else parent}" for f in sorted(mine ^ its)]
    for f in sorted(mine & its):
        ours, theirs = ((root / f).read_bytes().decode(errors="replace") for root in (out, parent))
        if ours != theirs:
            lines.append(f"{f}: {change(ours, theirs)}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 3) or args[1:2] not in ([], ["--against"]):
        sys.exit(__doc__)
    out = Path(args[0]).absolute()  # its name is masked in stderr as $OUT
    parent = Path(args[2]).absolute() if len(args) == 3 else None
    if parent is not None and not parent.is_dir():
        sys.exit(f"cli_outputs: no such directory: {parent}")
    shutil.rmtree(out, ignore_errors=True)
    failed = [name for name, cmd in commands(out).items() if run(out, name, cmd) != 0]
    for name, cmd in refusals(out).items():
        run(out, name, cmd)
    if failed:
        sys.exit(f"cli_outputs: failed: {', '.join(failed)}")
    for name in ("fit_after_config", "fit_padded_labels", "fit_float_categories",
                 "fit_relative_path", "fit_unicode_labels", "fit_shared_prefix_labels",
                 "fit_many_labels", "fit_bom_crlf_data", "fit_bom_labels_config"):
        if ((out / name / "estimates.csv").read_bytes()
                != (out / "fit" / "estimates.csv").read_bytes()):
            sys.exit(f"cli_outputs: {name}/estimates.csv differs from fit's")
    if any((out / "diagnose_bom_inputs" / f.name).read_bytes() != f.read_bytes()
           for f in (out / "diagnose").iterdir()):
        sys.exit("cli_outputs: diagnose_bom_inputs differs from diagnose")
    if parent is not None and (lines := compare(out, parent)):
        print("\n".join(lines))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
